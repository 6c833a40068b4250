//! Process accounting: CPU time from `getrusage`, peak memory from `/proc`
//! (Linux only, like the rest of the harness's process supervision).

use std::ffi::{c_int, c_long};

/// `struct rusage` as Linux lays it out: two `timeval`s (seconds and
/// microseconds, each a `long`) followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    counters: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// User + system CPU time of this process (all threads) and of every child
/// it has waited for, in seconds. `getrusage` because it is
/// microsecond-precise; `/proc/self/stat` counts in 10 ms ticks, coarser
/// than a whole `sweep_fabric` pass burns.
///
/// # Errors
///
/// If the kernel refuses the call.
pub fn cpu_seconds() -> Result<f64, String> {
    let mut total_s = 0.0;
    for who in [RUSAGE_SELF, RUSAGE_CHILDREN] {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable, correctly laid-out `struct
        // rusage` for the duration of the call, and `getrusage` writes
        // nothing else; `who` is one of the two values the ABI defines.
        let rc = unsafe { getrusage(who, &mut ru) };
        if rc != 0 {
            return Err(format!("getrusage({who}) failed: {}", std::io::Error::last_os_error()));
        }
        for [sec, usec] in [ru.utime, ru.stime] {
            total_s += sec as f64 + usec as f64 / 1e6;
        }
    }
    Ok(total_s)
}

/// Peak resident set size of this process so far (`VmHWM`), in kilobytes.
///
/// # Errors
///
/// If `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Nanoseconds since the Unix epoch on the realtime clock — the only clock
/// two processes share, used to time a child from just before its spawn to
/// its first line of `main`.
pub fn realtime_ns() -> u128 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_this_platform() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_kb().unwrap() > 0);
        assert!(realtime_ns() > 0);
    }
}
