// Fixture: waiver hygiene. A reasonless waiver is W001, and so is a waiver
// naming a rule simlint does not have (P001 moved to clippy); a waiver that
// matches no finding is W002; none of them silences the underlying finding.

pub fn missing_reason(p: f64) -> bool {
    p == 0.0 // simlint: allow(F001)
}

pub fn unknown_rule(p: f64) -> bool {
    p == 0.0 // simlint: allow(P001, no such rule any more)
}

pub fn unused(n: usize) -> bool {
    n == 0 // simlint: allow(F001, integers compare exactly so this never fires)
}

pub fn unused_cast(bytes: u64) -> u32 {
    // simlint: allow(A001, the cast carries no time or sequence value, so A001 never fires)
    bytes as u32
}
