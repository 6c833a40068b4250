//! Shard planning: content-addressed cell identity and grid partitioning.
//!
//! The fabric must recognise "the same cell" across process lifetimes — a
//! resumed sweep matches journal entries against the freshly planned grid,
//! and a future distributed fabric hands shards to remote workers. Both need
//! an identity that is a **pure function of the cell's content**, never of
//! memory addresses, submission timing, or iteration order. [`CellId`] is
//! that identity: a 64-bit FNV-1a hash over the cell's label, seed, and the
//! caller-supplied configuration [`Fingerprint`].
//!
//! Everything here is deterministic by construction: hashing is FNV-1a with
//! fixed constants (not `DefaultHasher`, whose output may change between
//! std releases), duplicate detection uses `BTreeSet` (simlint D001), and
//! shard assignment is round-robin over the input order. No wall-clock, no
//! RNG, no pointer identity.

use std::collections::BTreeSet;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An order-sensitive FNV-1a 64-bit hasher over typed fields. Each push
/// mixes a tag byte before the payload so `push_str("ab")` + `push_str("c")`
/// and `push_str("a")` + `push_str("bc")` hash differently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// The empty fingerprint (FNV offset basis).
    pub fn new() -> Fingerprint {
        Fingerprint(FNV_OFFSET)
    }

    fn mix(mut self, bytes: &[u8]) -> Fingerprint {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a UTF-8 string field in (length-tagged).
    #[must_use]
    pub fn str(self, s: &str) -> Fingerprint {
        self.mix(&[1]).u64(s.len() as u64).mix(s.as_bytes())
    }

    /// Folds an unsigned integer field in.
    #[must_use]
    pub fn u64(self, v: u64) -> Fingerprint {
        self.mix(&[2]).mix(&v.to_le_bytes())
    }

    /// Folds a float field in by IEEE-754 bit pattern — two configs whose
    /// floats differ by one ulp are different cells.
    #[must_use]
    pub fn f64(self, v: f64) -> Fingerprint {
        self.mix(&[3]).mix(&v.to_bits().to_le_bytes())
    }

    /// Folds a boolean flag in.
    #[must_use]
    pub fn bool(self, v: bool) -> Fingerprint {
        self.mix(&[4]).mix(&[u8::from(v)])
    }

    /// The accumulated 64-bit digest.
    pub fn digest(self) -> u64 {
        self.0
    }
}

/// The content-addressed identity of one sweep cell: a stable hash of
/// `(label, seed, config fingerprint)`. Two cells with the same id are the
/// same work unit; a journal entry for an id is valid for exactly that cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId(u64);

impl CellId {
    /// Derives the id from the cell's identity fields.
    pub fn derive(label: &str, seed: u64, config: Fingerprint) -> CellId {
        CellId(Fingerprint::new().str(label).u64(seed).u64(config.digest()).digest())
    }

    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Result<CellId, String> {
        if s.len() != 16 {
            return Err(format!("cell id {s:?} is not 16 hex digits"));
        }
        u64::from_str_radix(s, 16).map(CellId).map_err(|e| format!("bad cell id {s:?}: {e}"))
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The planner's view of one cell: identity only, no closure. The fabric
/// core keeps the runnable cells alongside, indexed by input position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedCell {
    /// Input position in the submitted grid.
    pub index: usize,
    /// Content-addressed identity.
    pub id: CellId,
    /// Display label (informational; `id` is the key).
    pub label: String,
    /// The cell's seed.
    pub seed: u64,
}

/// A deterministic partition of a sweep grid into content-addressed work
/// units, plus a grid-level digest that pins *which* grid a journal belongs
/// to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    cells: Vec<PlannedCell>,
    grid: u64,
}

impl ShardPlan {
    /// Plans a grid from `(label, seed, config fingerprint)` triples, in
    /// input order.
    ///
    /// # Errors
    ///
    /// Two cells hashing to the same [`CellId`] would make journal entries
    /// ambiguous, so duplicates are rejected with both labels named.
    pub fn new(
        cells: impl IntoIterator<Item = (String, u64, Fingerprint)>,
    ) -> Result<ShardPlan, String> {
        let mut planned = Vec::new();
        let mut seen: BTreeSet<CellId> = BTreeSet::new();
        let mut grid = Fingerprint::new();
        for (index, (label, seed, config)) in cells.into_iter().enumerate() {
            let id = CellId::derive(&label, seed, config);
            if !seen.insert(id) {
                let prior = planned
                    .iter()
                    .find(|p: &&PlannedCell| p.id == id)
                    .map_or(String::new(), |p| format!(" (first at #{}, {:?})", p.index, p.label));
                return Err(format!(
                    "duplicate cell id {id} for cell #{index} {label:?}{prior}; \
                     give identical cells distinct labels, seeds, or fingerprints"
                ));
            }
            grid = grid.u64(id.as_u64());
            planned.push(PlannedCell { index, id, label, seed });
        }
        Ok(ShardPlan { cells: planned, grid: grid.digest() })
    }

    /// The planned cells, in input order.
    pub fn cells(&self) -> &[PlannedCell] {
        &self.cells
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True for the empty grid.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The grid digest: an order-sensitive fold of every cell id. A journal
    /// written for one grid refuses to resume a different one.
    pub fn grid_id(&self) -> u64 {
        self.grid
    }

    /// Looks a cell up by id.
    pub fn find(&self, id: CellId) -> Option<&PlannedCell> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Partitions the grid into `shards` work units by round-robin over
    /// input order: shard `k` gets cells `k, k+shards, k+2·shards, …`.
    /// Round-robin (rather than contiguous chunks) balances grids whose
    /// cost grows along an axis, e.g. seeds sorted by transfer size.
    /// Deterministic: depends only on input order and `shards`.
    ///
    /// # Errors
    ///
    /// A zero shard count is a usage error, rejected explicitly — the same
    /// policy as `--jobs 0` in the runner. Silently coercing to one shard
    /// would hide a broken `--workers` computation upstream.
    pub fn shards(&self, shards: usize) -> Result<Vec<Vec<&PlannedCell>>, String> {
        if shards == 0 {
            return Err("shard count must be at least 1 (got 0); check --workers".to_owned());
        }
        let mut out: Vec<Vec<&PlannedCell>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, c) in self.cells.iter().enumerate() {
            out[i % shards].push(c);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(x: u64) -> Fingerprint {
        Fingerprint::new().u64(x)
    }

    #[test]
    fn cell_ids_are_stable_and_content_addressed() {
        let a = CellId::derive("lia-seed3", 3, fp(7));
        let b = CellId::derive("lia-seed3", 3, fp(7));
        assert_eq!(a, b, "same content must give the same id");
        assert_ne!(a, CellId::derive("lia-seed3", 4, fp(7)), "seed must matter");
        assert_ne!(a, CellId::derive("lia-seed4", 3, fp(7)), "label must matter");
        assert_ne!(a, CellId::derive("lia-seed3", 3, fp(8)), "fingerprint must matter");
    }

    #[test]
    fn fingerprint_fields_are_tagged_and_order_sensitive() {
        assert_ne!(
            Fingerprint::new().str("ab").str("c").digest(),
            Fingerprint::new().str("a").str("bc").digest(),
            "field boundaries must be part of the hash"
        );
        assert_ne!(
            Fingerprint::new().u64(1).u64(2).digest(),
            Fingerprint::new().u64(2).u64(1).digest(),
            "field order must be part of the hash"
        );
        assert_ne!(
            Fingerprint::new().u64(1).digest(),
            Fingerprint::new().f64(f64::from_bits(1)).digest()
        );
        // One-ulp float difference is a different cell.
        assert_ne!(
            Fingerprint::new().f64(0.1).digest(),
            Fingerprint::new().f64(f64::from_bits(0.1f64.to_bits() + 1)).digest()
        );
    }

    #[test]
    fn cell_id_roundtrips_through_hex() {
        let id = CellId::derive("x", 9, fp(0));
        assert_eq!(CellId::parse(&id.to_string()), Ok(id));
        assert!(CellId::parse("xyz").is_err());
        assert!(CellId::parse("00112233445566778").is_err());
    }

    #[test]
    fn plan_rejects_duplicate_cells() {
        let cells = vec![
            ("a".to_owned(), 1, fp(0)),
            ("b".to_owned(), 1, fp(0)),
            ("a".to_owned(), 1, fp(0)),
        ];
        let err = ShardPlan::new(cells).unwrap_err();
        assert!(err.contains("duplicate cell id"), "{err}");
        assert!(err.contains("\"a\""), "{err}");
    }

    #[test]
    fn grid_id_pins_membership_and_order() {
        let plan = |labels: &[&str]| {
            ShardPlan::new(labels.iter().map(|l| ((*l).to_owned(), 0, fp(0)))).unwrap()
        };
        assert_eq!(plan(&["a", "b"]).grid_id(), plan(&["a", "b"]).grid_id());
        assert_ne!(plan(&["a", "b"]).grid_id(), plan(&["b", "a"]).grid_id());
        assert_ne!(plan(&["a", "b"]).grid_id(), plan(&["a", "b", "c"]).grid_id());
    }

    #[test]
    fn shards_partition_round_robin() {
        let plan = ShardPlan::new((0..7).map(|i| (format!("c{i}"), i, fp(0)))).unwrap();
        let shards = plan.shards(3).expect("3 shards");
        assert_eq!(shards.len(), 3);
        let idx: Vec<Vec<usize>> =
            shards.iter().map(|s| s.iter().map(|c| c.index).collect()).collect();
        assert_eq!(idx, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        // Every cell lands in exactly one shard.
        let mut all: Vec<usize> = idx.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
        // More shards than cells leaves the surplus shards empty.
        let wide = plan.shards(9).expect("9 shards");
        assert_eq!(wide.len(), 9);
        assert!(wide[7].is_empty() && wide[8].is_empty());
    }

    #[test]
    fn zero_shards_is_an_explicit_error() {
        // A silent clamp to one shard would mask a broken --workers
        // computation; the runner rejects --jobs 0 for the same reason.
        let plan = ShardPlan::new((0..3).map(|i| (format!("c{i}"), i, fp(0)))).unwrap();
        let err = plan.shards(0).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.ends_with("check --workers"), "{err}");
    }
}
