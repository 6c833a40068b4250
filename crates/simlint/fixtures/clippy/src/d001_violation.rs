// Fixture: `disallowed_types` (was simlint D001) must fire on
// nondeterministic hash collections.
use std::collections::HashMap;

pub fn tally(xs: &[u32]) -> HashMap<u32, u32> {
    let mut m = HashMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

pub fn seen() -> std::collections::HashSet<u32> {
    std::collections::HashSet::new()
}
