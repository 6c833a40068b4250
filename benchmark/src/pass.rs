//! One pass of one workload: the unit a child process executes.
//!
//! A *run* (what `--workload W --seconds S` measures) is a sequence of
//! passes, each in a fresh child process so that every pass starts cold and
//! `VmHWM` is a per-pass number. A pass does the workload's fixed amount of
//! work once. Inside it, each [`Meter::timed`] call is one timed *segment*
//! (a cell, an epoch, a 10 ms slice of simulated time: tens of host
//! milliseconds); all other time between process start and the end of the
//! last segment is set-up (input generation, topology build, flow attach,
//! cell construction). Segments are the unit the parent takes minima over.
//!
//! The child reports back on stdout as `key value` lines ([`Pass::render`] /
//! [`PassReport::parse`]); nothing about a pass is decided by the parent.

use crate::procstat;
use std::collections::BTreeMap;
use std::time::Instant;

/// The crate directory a span or per-layer metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `crates/netsim`.
    Netsim,
    /// `crates/transport`.
    Transport,
    /// `crates/congestion`.
    Congestion,
    /// `crates/energy`.
    Energy,
    /// `crates/topology`.
    Topology,
    /// `crates/workload`.
    Workload,
    /// `crates/core`.
    Core,
    /// `crates/obs`.
    Obs,
    /// `crates/bench`.
    Bench,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 9] = [
        Layer::Netsim,
        Layer::Transport,
        Layer::Congestion,
        Layer::Energy,
        Layer::Topology,
        Layer::Workload,
        Layer::Core,
        Layer::Obs,
        Layer::Bench,
    ];

    /// The metric-name prefix (`netsim`, `transport`, …).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Netsim => "netsim",
            Layer::Transport => "transport",
            Layer::Congestion => "congestion",
            Layer::Energy => "energy",
            Layer::Topology => "topology",
            Layer::Workload => "workload",
            Layer::Core => "core",
            Layer::Obs => "obs",
            Layer::Bench => "bench",
        }
    }
}

/// One timed segment of a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Segment {
    /// Host seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of this process and its waited-for
    /// children.
    pub cpu_s: f64,
}

/// Splits a pass's wall-clock into timed segments and set-up.
pub struct Meter {
    entry: Instant,
    setup_only: bool,
    segments: Vec<Segment>,
    last_end: Instant,
}

impl Meter {
    /// Starts the clock; `entry` is the first instant of `main`.
    pub fn new(entry: Instant, setup_only: bool) -> Meter {
        Meter { entry, setup_only, segments: Vec::new(), last_end: entry }
    }

    /// Runs `f` as one timed segment and returns its value — or, in a
    /// set-up-only pass, skips it and returns `None`, so that the same code
    /// path measures set-up alone.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> Option<T> {
        if self.setup_only {
            self.last_end = Instant::now();
            return None;
        }
        let cpu0 = procstat::cpu_seconds().unwrap_or(0.0);
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let cpu_s = procstat::cpu_seconds().unwrap_or(0.0) - cpu0;
        self.segments.push(Segment { wall_s: (t1 - t0).as_secs_f64(), cpu_s });
        self.last_end = t1;
        Some(out)
    }

    /// The segments timed so far, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Host seconds from the first instant of `main` to the end of the last
    /// segment, minus the segments themselves.
    pub fn setup_s(&self) -> f64 {
        let timed_s: f64 = self.segments.iter().map(|s| s.wall_s).sum();
        ((self.last_end - self.entry).as_secs_f64() - timed_s).max(0.0)
    }
}

/// One recorded span: a call from the benchmark's own files into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `Simulator::run_until`.
    pub name: String,
    /// The layer the callee lives in.
    pub layer: Layer,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Disabled (every call a no-op) in untraced
/// passes: end-to-end numbers never come from a traced pass.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans (and the traced-only counters) are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>, layer: Layer) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: impl Into<String>, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(name, layer);
        let out = f();
        self.exit();
        out
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Each layer's self time in seconds: a span's duration minus the part
    /// of it its direct children cover, summed per layer.
    pub fn self_seconds(&self) -> BTreeMap<Layer, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Renders the spans as JSONL, one object per span, all tagged `run`.
    pub fn to_jsonl(&self, run: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                crate::json::escape(run),
                s.layer.name(),
                crate::json::escape(&s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// FNV-1a over result records, f64s as bit patterns: the `result_digest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in, length-prefixed so that record boundaries count.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// One measured group of operations: a cell, or (for `sweep_fabric`) one
/// dispatch path over the whole grid.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Display label; must not contain a tab.
    pub label: String,
    /// How many consecutive timed segments make up this cell.
    pub segments: usize,
    /// Operations (cells) this record stands for.
    pub ops: u64,
    /// How many of them failed.
    pub failed: u64,
    /// Why, when `failed > 0`.
    pub why: String,
}

/// Everything a workload records during a pass.
pub struct Pass {
    /// Timed-region accounting.
    pub meter: Meter,
    /// Span recorder (on only in traced passes).
    pub tracer: Tracer,
    /// Selftest-only tiny sizes.
    pub tiny: bool,
    /// Per-cell records, in execution order.
    pub cells: Vec<CellRecord>,
    /// Work units completed in the timed regions (unit is per workload).
    pub work: u64,
    /// Digest of the result records.
    pub digest: Digest,
    /// Per-layer counts observed by a traced pass.
    pub layer: BTreeMap<String, f64>,
}

impl Pass {
    /// A fresh pass whose clock started at `entry`.
    pub fn new(entry: Instant, setup_only: bool, trace: bool, tiny: bool) -> Pass {
        Pass {
            meter: Meter::new(entry, setup_only),
            tracer: Tracer::new(trace),
            tiny,
            cells: Vec::new(),
            work: 0,
            digest: Digest::default(),
            layer: BTreeMap::new(),
        }
    }

    /// Records a cell made of every segment timed since the previous cell
    /// record: `ops` operations of which `failed` failed (`why`).
    pub fn cell_of(&mut self, label: impl Into<String>, ops: u64, failed: u64, why: String) {
        let claimed: usize = self.cells.iter().map(|c| c.segments).sum();
        self.cells.push(CellRecord {
            label: label.into(),
            segments: self.meter.segments().len() - claimed,
            ops,
            failed,
            why,
        });
    }

    /// Records a single-operation cell; `check` is `Err(why)` if it failed.
    pub fn cell(&mut self, label: impl Into<String>, check: Result<(), String>) {
        let failed = u64::from(check.is_err());
        self.cell_of(label, 1, failed, check.err().unwrap_or_default());
    }

    /// Host seconds of the segments timed since the previous cell record:
    /// the cell being measured.
    pub fn open_cell_s(&self) -> f64 {
        let claimed: usize = self.cells.iter().map(|c| c.segments).sum();
        self.meter.segments()[claimed..].iter().map(|s| s.wall_s).sum()
    }

    /// Adds `v` to per-layer count `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        *self.layer.entry(name.to_owned()).or_insert(0.0) += v;
    }

    /// Raises per-layer gauge `name` to at least `v`.
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        let e = self.layer.entry(name.to_owned()).or_insert(v);
        *e = e.max(v);
    }

    /// The child→parent report. `pre_main_s` is the spawn-to-`main` delay
    /// the child measured on the shared realtime clock.
    pub fn render(&self, pre_main_s: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!("setup_s {}\n", pre_main_s + self.meter.setup_s()));
        for g in self.meter.segments() {
            out.push_str(&format!("seg {} {}\n", g.wall_s, g.cpu_s));
        }
        out.push_str(&format!("rss_kb {}\n", procstat::peak_rss_kb().unwrap_or(0)));
        out.push_str(&format!("work {}\n", self.work));
        out.push_str(&format!("digest {:016x}\n", self.digest.value()));
        for c in &self.cells {
            out.push_str(&format!(
                "cell {}\t{}\t{}\t{}\t{}\n",
                c.label,
                c.segments,
                c.ops,
                c.failed,
                c.why.replace(['\t', '\n'], " ")
            ));
        }
        for (k, v) in &self.layer {
            out.push_str(&format!("layer {k} {v}\n"));
        }
        if self.tracer.on() {
            let own = self.tracer.self_seconds();
            for layer in Layer::ALL {
                let s = own.get(&layer).copied().unwrap_or(0.0);
                out.push_str(&format!("layer {}.self_s {s}\n", layer.name()));
            }
        }
        out
    }
}

/// A pass as the parent sees it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PassReport {
    /// Host seconds of set-up, process start included.
    pub setup_s: f64,
    /// The timed segments, in order.
    pub segments: Vec<Segment>,
    /// `VmHWM` at child exit, kilobytes.
    pub rss_kb: u64,
    /// Work units completed.
    pub work: u64,
    /// `result_digest`.
    pub digest: u64,
    /// Per-cell records.
    pub cells: Vec<CellRecord>,
    /// Per-layer values from a traced pass.
    pub layer: BTreeMap<String, f64>,
}

impl PassReport {
    /// Parses a child's stdout.
    ///
    /// # Errors
    ///
    /// On an unknown key or an unparsable value: a child that prints
    /// anything else is a bug, not noise to skip.
    pub fn parse(text: &str) -> Result<PassReport, String> {
        fn num<T: std::str::FromStr>(v: &str, line: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value in pass report line {line:?}"))
        }
        let mut r = PassReport::default();
        for line in text.lines() {
            let (key, v) =
                line.split_once(' ').ok_or_else(|| format!("bad pass report line {line:?}"))?;
            match key {
                "setup_s" => r.setup_s = num(v, line)?,
                "seg" => {
                    let (wall_s, cpu_s) =
                        v.split_once(' ').ok_or_else(|| format!("bad segment record {line:?}"))?;
                    r.segments
                        .push(Segment { wall_s: num(wall_s, line)?, cpu_s: num(cpu_s, line)? });
                }
                "rss_kb" => r.rss_kb = num(v, line)?,
                "work" => r.work = num(v, line)?,
                "digest" => {
                    r.digest = u64::from_str_radix(v, 16)
                        .map_err(|_| format!("bad digest in pass report line {line:?}"))?;
                }
                "cell" => {
                    let f: Vec<&str> = v.split('\t').collect();
                    let [label, segments, ops, failed, why] = f[..] else {
                        return Err(format!("bad cell record {line:?}"));
                    };
                    r.cells.push(CellRecord {
                        label: label.to_owned(),
                        segments: num(segments, line)?,
                        ops: num(ops, line)?,
                        failed: num(failed, line)?,
                        why: why.to_owned(),
                    });
                }
                "layer" => {
                    let (name, val) =
                        v.split_once(' ').ok_or_else(|| format!("bad layer record {line:?}"))?;
                    r.layer.insert(name.to_owned(), num(val, line)?);
                }
                _ => return Err(format!("unknown key in pass report line {line:?}")),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let d = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.str(p);
            }
            d.value()
        };
        assert_eq!(d(&["ab", "c"]), d(&["ab", "c"]));
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
        assert_ne!(d(&["ab", "c"]), d(&["c", "ab"]));
        let mut a = Digest::default();
        a.f64(0.0);
        let mut b = Digest::default();
        b.f64(-0.0);
        assert_ne!(a.value(), b.value(), "floats are folded by bit pattern");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "cell".into(),
                layer: Layer::Bench,
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "run".into(),
                layer: Layer::Netsim,
                start_ns: 10,
                end_ns: 90,
                parent: Some(0),
            },
            Span {
                name: "acct".into(),
                layer: Layer::Energy,
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
            },
        ];
        let s = t.self_seconds();
        assert!((s[&Layer::Bench] - 20e-9).abs() < 1e-15);
        assert!((s[&Layer::Netsim] - 70e-9).abs() < 1e-15);
        assert!((s[&Layer::Energy] - 10e-9).abs() < 1e-15);
        assert_eq!(t.to_jsonl("r").lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", Layer::Core, || 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn setup_only_meter_skips_timed_regions() {
        let mut m = Meter::new(Instant::now(), true);
        assert_eq!(m.timed(|| 1), None);
        assert!(m.segments().is_empty());
        let mut m = Meter::new(Instant::now(), false);
        assert_eq!(m.timed(|| 1), Some(1));
        assert_eq!(m.segments().len(), 1);
    }

    #[test]
    fn report_round_trips() {
        let mut p = Pass::new(Instant::now(), false, true, false);
        p.meter.timed(|| std::hint::black_box(3));
        p.meter.timed(|| std::hint::black_box(4));
        assert!(p.open_cell_s() >= 0.0);
        p.work = 42;
        p.digest.str("x");
        p.cell("Fig 12-14", Ok(()));
        p.meter.timed(|| std::hint::black_box(5));
        p.cell("bad", Err("tab\there".into()));
        p.count("netsim.link_tx_pkts", 10.0);
        p.gauge_max("netsim.pending_events_max", 3.0);
        p.gauge_max("netsim.pending_events_max", 2.0);
        p.tracer.span("s", Layer::Core, || ());
        let r = PassReport::parse(&p.render(0.25)).unwrap();
        assert_eq!(r.work, 42);
        assert_eq!(r.digest, p.digest.value());
        assert!(r.setup_s >= 0.25);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.segments.len(), 3);
        assert_eq!((r.cells[0].label.as_str(), r.cells[0].segments), ("Fig 12-14", 2));
        assert_eq!(r.cells[1].segments, 1);
        assert_eq!((r.cells[1].failed, r.cells[1].why.as_str()), (1, "tab here"));
        assert!((r.layer["netsim.pending_events_max"] - 3.0).abs() < 1e-12);
        assert!(r.layer.contains_key("core.self_s"));
        assert!(PassReport::parse("bogus 1\n").is_err());
        assert!(PassReport::parse("seg x 1\n").is_err());
    }
}
