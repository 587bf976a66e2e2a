//! Process resource counters from `getrusage(2)`: CPU time and peak
//! resident set size, the two costs a closed-loop run reports besides
//! time.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// longs of which `ru_maxrss` (kibibytes) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// A snapshot of this process's resource use.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time of every thread so far.
    pub cpu: Duration,
    /// Peak resident set size so far, in bytes.
    pub peak_rss: u64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // `getrusage` fills; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
    Usage {
        cpu: tv(&ru.utime) + tv(&ru.stime),
        peak_rss: ru.maxrss as u64 * 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_nonzero() {
        let before = usage();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.cpu > before.cpu);
        assert!(after.peak_rss > 1 << 20, "peak RSS below 1 MiB");
    }
}
