//! The fabric's canonical drill workload: a tiny deterministic sweep shared
//! by `fabric_smoke` (single-process crash drills), `fabric_chaos`
//! (distributed chaos drills), and the `fabric_dist` integration tests.
//!
//! One workload in one place keeps the byte-identity pins honest: the
//! serial run and the self-exec worker both build their cells from these
//! functions, so a drifted label or fingerprint shows up as a grid-digest
//! mismatch instead of a silently different sweep.
//!
//! Each cell computes a splitmix-style pseudo-random walk folded into a
//! `u64` checksum plus an `f64` running mean — cheap, seeded, and
//! float-bearing, so bit-exact journal round-trips are exercised too.

use super::{FabricCell, Fingerprint};

/// Cells in the demo grid.
pub const WALK_CELLS: u64 = 12;

/// The name this workload sweeps under.
pub const WALK_SUITE: &str = "walk";

/// The per-cell workload: a splitmix-style walk, a pure function of the
/// seed.
pub fn walk(seed: u64) -> (u64, f64) {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut sum = 0u64;
    let mut mean = 0.0f64;
    for i in 0..4096u64 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        sum = sum.wrapping_add(x);
        mean += (x as f64 / u64::MAX as f64 - mean) / (i + 1) as f64;
    }
    (sum, mean)
}

/// The label of cell `i` — part of the cell's content address.
pub fn walk_label(i: u64) -> String {
    format!("cell-{i:02}")
}

/// The config fingerprint of cell `i` — the other part of the address.
pub fn walk_fingerprint(i: u64) -> Fingerprint {
    Fingerprint::new().str("fabric_smoke").u64(i)
}

/// Builds the demo grid with optional drill knobs: each cell sleeps
/// `sleep_ms` first (so an external `timeout -s KILL` lands mid-sweep) and
/// the cells named in `fail` panic on every attempt (drilling retry +
/// quarantine).
pub fn walk_cells_with(sleep_ms: Option<u64>, fail: &[String]) -> Vec<FabricCell<(u64, f64)>> {
    (0..WALK_CELLS)
        .map(|i| {
            let label = walk_label(i);
            let bomb = fail.iter().any(|f| f == &label);
            let cell_label = label.clone();
            FabricCell::new(label, i, move || {
                if let Some(ms) = sleep_ms {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                assert!(!bomb, "fabric_smoke: injected failure in {cell_label}");
                walk(i)
            })
            .config(walk_fingerprint(i))
        })
        .collect()
}

/// The demo grid with no drill knobs.
pub fn walk_cells() -> Vec<FabricCell<(u64, f64)>> {
    walk_cells_with(None, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_deterministic_and_seed_sensitive() {
        assert_eq!(walk(3), walk(3));
        assert_ne!(walk(3).0, walk(4).0);
    }
}
