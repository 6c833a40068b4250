// Fixture: `unwrap_used`, `expect_used` and `panic` (was simlint P001) must
// fire on panicking shortcuts in library code.
pub fn first(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}

pub fn parse(s: &str) -> u32 {
    s.parse().expect("not a number")
}

pub fn forbidden() {
    panic!("library code must not panic");
}
