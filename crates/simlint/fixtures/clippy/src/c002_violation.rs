//! Fixture: `unwrap_used` and `expect_used` (was simlint C002) must fire on
//! `.join().unwrap()` / `.lock().expect()` — a poisoned mutex or a panicked
//! worker aborts the supervisor instead of being quarantined.

use std::sync::Mutex;
use std::thread::JoinHandle;

pub fn drain(handle: JoinHandle<u32>, state: &Mutex<u32>) -> u32 {
    let got = handle.join().unwrap();
    let mut guard = state.lock().expect("state poisoned");
    *guard += got;
    *guard
}
