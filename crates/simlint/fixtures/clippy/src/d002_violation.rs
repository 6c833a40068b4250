// Fixture: `disallowed_methods` (was simlint D002) must fire on wall-clock
// reads.
use std::time::Instant;

pub fn stamp() -> f64 {
    let t0 = Instant::now();
    t0.elapsed().as_secs_f64()
}

pub fn epoch() -> u64 {
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}
