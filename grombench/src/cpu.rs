//! Process CPU time: what the benchmark times ops and set-up with.
//!
//! On a shared virtual machine the hypervisor takes whole slices of the
//! guest's CPUs ("steal"); on the 2-core box this benchmark was built on,
//! steal ran at 11–31% of all CPU time and moved the median wall time of
//! one `chase_delta` op between 141 and 243 ms from one run to the next.
//! The kernel leaves stolen time out of a process's CPU clock, so CPU time
//! repeats where wall time does not. It counts every thread of the process,
//! including the parallel executor's workers after they have exited.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// `clock_gettime(2)` from the C library the standard library links.
extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process so far, all threads, user and system.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked below) and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("grombench reads Linux process clocks and /proc: 64-bit Linux only");

/// Wall and CPU time of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    wall: std::time::Instant,
    cpu: Duration,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: std::time::Instant::now(),
            cpu: process_cpu(),
        }
    }

    /// (wall, cpu) elapsed since `start`.
    pub fn elapsed(&self) -> (Duration, Duration) {
        let cpu = process_cpu().saturating_sub(self.cpu);
        (self.wall.elapsed(), cpu)
    }
}
