// Fixture: well-formed waivers silence findings (same-line and
// preceding-line forms), leaving the file clean.

pub fn sentinel(p: f64) -> bool {
    p == 0.0 // simlint: allow(F001, canonical exact-zero sentinel for this fixture)
}

pub fn low_word(nanos: u64) -> u32 {
    // simlint: allow(A001, fixture demonstrates the preceding-line waiver form)
    nanos as u32
}
