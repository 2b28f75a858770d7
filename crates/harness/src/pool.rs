//! Thread pool for independent, index-addressed jobs.
//!
//! The unit of work is "run job `i`" for `i` in `0..n_jobs`. Jobs must be
//! independent: each FLARE experiment run builds its own `SimConfig`, RNG
//! streams (via `flare_sim::rng::stream`), and trace recorder inside the job
//! closure, so executing runs on different threads cannot perturb each other
//! and parallel output is bit-identical to serial output. The pool only
//! changes *which thread* executes a run, never *what* the run computes.
//!
//! Workers under `std::thread::scope` claim the next job id from one shared
//! atomic counter until it passes `n_jobs`. Results land in a slot vector
//! indexed by job id, so the returned `Vec` is always in job order
//! regardless of execution order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs` request to a worker count: `0` means "all cores".
fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Runs `job(0..n_jobs)` on up to `jobs` worker threads and returns the
/// results in job order.
///
/// `jobs == 0` uses all available cores; `jobs == 1` (or a single job)
/// degenerates to a plain serial loop on the calling thread, which is the
/// reference execution the parallel path must match bit-for-bit.
///
/// # Panics
///
/// Propagates a panic from any job (the scope join re-raises it), so an
/// invariant violation inside one run aborts the whole sweep.
pub fn run_indexed<T, F>(n_jobs: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = effective_jobs(jobs).min(n_jobs.max(1));
    if workers <= 1 {
        return (0..n_jobs).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_jobs {
                        break;
                    }
                    let out = job(i);
                    *slots[i].lock().expect("slot poisoned") = Some(out);
                })
            })
            .collect();
        // Re-raise the original payload so a violated invariant's message
        // reaches the caller instead of a generic "scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("worker exited without producing its result")
        })
        .collect()
}

/// Runs the same job set serially and with `jobs` workers and returns the
/// index of the first divergent result, if any.
///
/// This is the harness's determinism contract made executable: callers pass a
/// closure returning a comparable per-run artifact (typically a JSONL trace
/// snapshot from `flare-trace`) and assert the result is `None`.
pub fn serial_parallel_divergence<T, F>(n_jobs: usize, jobs: usize, job: F) -> Option<usize>
where
    T: Send + PartialEq,
    F: Fn(usize) -> T + Sync,
{
    let serial = run_indexed(n_jobs, 1, &job);
    let parallel = run_indexed(n_jobs, jobs, &job);
    serial.iter().zip(parallel.iter()).position(|(a, b)| a != b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_jobs_means_all_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn results_are_in_job_order() {
        for jobs in [1, 2, 4, 8] {
            let out = run_indexed(17, jobs, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_edge_sizes() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
        // More workers than jobs: the worker count is capped at the job count.
        assert_eq!(run_indexed(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(64, 4, |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn parallel_matches_serial_for_pure_jobs() {
        assert_eq!(
            serial_parallel_divergence(32, 4, |i| (i as u64).wrapping_mul(0x9e37_79b9)),
            None
        );
    }

    #[test]
    fn divergence_reports_first_mismatch() {
        // A job that depends on shared mutable state is exactly what the
        // harness forbids; the checker must flag it.
        let calls = AtomicUsize::new(0);
        let got = serial_parallel_divergence(4, 2, |_| calls.fetch_add(1, Ordering::SeqCst));
        assert!(got.is_some());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panics_propagate() {
        let _ = run_indexed(4, 2, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
