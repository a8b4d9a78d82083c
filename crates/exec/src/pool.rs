//! A fixed-size scoped worker pool with deterministic result placement.
//!
//! The pool runs one closure over a batch of jobs on up to `threads` OS
//! threads. Work is claimed through an atomic cursor (cheap dynamic load
//! balancing — conflict groups are rarely equal-sized), but results land in
//! a slot indexed by the job's position, so the output order — and
//! everything downstream that folds it, like the chase's sweep merge — is
//! independent of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width pool of scoped workers.
///
/// The pool holds no threads between [`WorkerPool::run`] calls: workers are
/// scoped to one batch (so jobs may borrow from the caller's stack, e.g.
/// split borrows of an instance) and joined before `run` returns — the
/// barrier the chase sweep needs anyway.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers; 0 is clamped to 1.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over `jobs`, returning the results in job order.
    ///
    /// `f` receives the job's index and the job itself. With a single
    /// worker (or a single job) everything runs inline on the caller's
    /// thread — no spawn overhead for the degenerate cases.
    pub fn run<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = jobs.len();
        if self.threads == 1 || n <= 1 {
            return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
        }

        let cursor = AtomicUsize::new(0);
        let jobs: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|s| {
            for _ in 0..self.threads.min(n) {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i]
                        .lock()
                        .expect("job mutex poisoned")
                        .take()
                        .expect("each job is claimed exactly once");
                    let result = f(i, job);
                    *slots[i].lock().expect("slot mutex poisoned") = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot mutex poisoned")
                    .expect("every job produced a result")
            })
            .collect()
    }

    /// Like [`WorkerPool::run`], but each result carries how long its
    /// closure call kept a worker busy — per-job utilization for the
    /// chase's group profiles. Timing wraps only the `f` call, so claim
    /// and placement overhead is excluded.
    pub fn run_timed<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<(R, std::time::Duration)>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run(jobs, |i, job| {
            let t0 = std::time::Instant::now();
            let result = f(i, job);
            (result, t0.elapsed())
        })
    }

    /// Like [`WorkerPool::run`], but a panicking job is contained with
    /// `catch_unwind` instead of aborting the process at the scope join.
    /// Returns `Err` with the panic payload of the lowest-indexed failed
    /// job (deterministic under any thread schedule); the scope still
    /// joins every worker first, so the pool — stateless by construction —
    /// is immediately reusable after a failure.
    pub fn run_caught<T, R, F>(&self, jobs: Vec<T>, f: F) -> Result<Vec<R>, String>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let caught = self.run(jobs, |i, job| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, job)))
                // `as_ref`, not `&payload`: a `&Box<dyn Any>` would itself
                // coerce to `&dyn Any` and every downcast would miss.
                .map_err(|payload| panic_detail(payload.as_ref()))
        });
        let mut out = Vec::with_capacity(caught.len());
        for r in caught {
            match r {
                Ok(v) => out.push(v),
                Err(detail) => return Err(detail),
            }
        }
        Ok(out)
    }

    /// [`WorkerPool::run_caught`] with per-job busy durations, the
    /// panic-containing twin of [`WorkerPool::run_timed`].
    pub fn run_timed_caught<T, R, F>(
        &self,
        jobs: Vec<T>,
        f: F,
    ) -> Result<Vec<(R, std::time::Duration)>, String>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_caught(jobs, |i, job| {
            let t0 = std::time::Instant::now();
            let result = f(i, job);
            (result, t0.elapsed())
        })
    }
}

/// Render a panic payload the way the default hook would: `&str` and
/// `String` payloads verbatim, anything else opaquely.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_in_job_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<usize> = (0..64).collect();
        let out = pool.run(jobs, |i, j| {
            assert_eq!(i, j);
            j * 10
        });
        assert_eq!(out, (0..64).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_threads_participate() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<usize> = (0..128).collect();
        let out = pool.run(jobs, |_, j| {
            // A touch of work so the claiming thread does not drain the
            // whole queue before the others start.
            std::thread::sleep(std::time::Duration::from_micros(200));
            (j, std::thread::current().id())
        });
        let ids: HashSet<_> = out.iter().map(|(_, id)| *id).collect();
        assert!(ids.len() > 1, "expected more than one worker thread");
    }

    #[test]
    fn run_timed_returns_results_with_durations() {
        let pool = WorkerPool::new(2);
        let out = pool.run_timed(vec![10usize, 20], |_, j| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            j + 1
        });
        assert_eq!(out.iter().map(|(r, _)| *r).collect::<Vec<_>>(), [11, 21]);
        assert!(out.iter().all(|(_, d)| d.as_micros() >= 500));
    }

    #[test]
    fn run_caught_contains_panics_and_reports_the_first() {
        let pool = WorkerPool::new(4);
        let out = pool.run_caught((0..16).collect::<Vec<usize>>(), |_, j| {
            if j == 5 || j == 11 {
                panic!("job {j} exploded");
            }
            j
        });
        // Lowest-indexed failure wins, regardless of completion order.
        assert_eq!(out, Err("job 5 exploded".to_string()));
        // The pool is reusable after containment.
        let ok = pool.run_caught(vec![1, 2, 3], |_, j| j * 2);
        assert_eq!(ok, Ok(vec![2, 4, 6]));
    }

    #[test]
    fn run_caught_contains_panics_inline_too() {
        let out = WorkerPool::new(1).run_caught(vec![0usize], |_, _| -> usize {
            panic!("inline boom");
        });
        assert_eq!(out, Err("inline boom".to_string()));
    }

    #[test]
    fn degenerate_pools_run_inline() {
        let here = std::thread::current().id();
        let out = WorkerPool::new(1).run(vec![1, 2, 3], |_, j| (j, std::thread::current().id()));
        assert!(out.iter().all(|&(_, id)| id == here));
        let out = WorkerPool::new(8).run(vec![7], |_, j| (j, std::thread::current().id()));
        assert_eq!(out, vec![(7, here)]);
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }
}
