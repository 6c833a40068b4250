//! D004 fixture: wall-clock-derived values reaching sim-state sinks
//! through intermediate bindings (the flows a call-site ban cannot see).

pub fn stamp() -> SimTime {
    let wall = SystemTime::now();
    let t: SimTime = wall; // tainted binding into a sim-state type
    t
}

pub fn pace(clock: Instant) -> SimDuration {
    let lag = clock.elapsed();
    SimDuration::from_nanos(lag) // tainted argument into a constructor
}
