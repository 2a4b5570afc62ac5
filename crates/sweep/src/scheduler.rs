//! Fault-isolated work-stealing job scheduler.
//!
//! Jobs are dealt round-robin onto per-worker deques; a worker pops
//! from the front of its own deque and, when empty, steals from the
//! back of the busiest other deque. Long cells therefore never convoy
//! short ones behind a single shared cursor, and the tail of a sweep
//! keeps every core busy.
//!
//! Each job runs under [`std::panic::catch_unwind`]: a panicking job is
//! retried once (transient failures — e.g. an out-of-disk cache write
//! path — get a second chance) and, failing again, is reported as a
//! [`JobFailure`] carrying the payload message. Other jobs are
//! unaffected; nothing is poisoned because no lock is ever held across
//! job execution.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// A job that panicked on every attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobFailure {
    /// Attempts made (always 2: initial + one retry).
    pub attempts: u32,
    /// The final panic's payload, when it was a string (the common
    /// `panic!`/`assert!` case), else a placeholder.
    pub message: String,
}

/// Render a panic payload as the message it was raised with.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `jobs` jobs across `workers` threads with work stealing,
/// returning per-job results **in job-index order** regardless of
/// scheduling. `run(i)` executes job `i`; a panic inside it is caught,
/// retried once, and surfaced as `Err(JobFailure)` for that job alone.
pub(crate) fn run_stealing<T, F>(jobs: usize, workers: usize, run: F) -> Vec<Result<T, JobFailure>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let n_workers = workers.clamp(1, jobs);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..n_workers)
        .map(|w| {
            // Deal round-robin so each worker starts near the grid's
            // natural order (cache-friendly for per-workload state).
            Mutex::new((w..jobs).step_by(n_workers).collect())
        })
        .collect();
    let queues = &queues;
    let run = &run;

    let attempt_job = |i: usize| -> Result<T, JobFailure> {
        // AssertUnwindSafe: on a caught panic the job's partial state is
        // discarded entirely (we only keep the typed failure), so no
        // broken invariant can leak into later jobs.
        for attempt in 1..=2u32 {
            match catch_unwind(AssertUnwindSafe(|| run(i))) {
                Ok(v) => return Ok(v),
                Err(payload) if attempt == 2 => {
                    return Err(JobFailure {
                        attempts: attempt,
                        message: payload_message(payload.as_ref()),
                    })
                }
                Err(_) => {}
            }
        }
        unreachable!("loop returns on success or second failure")
    };

    let mut results: Vec<Option<Result<T, JobFailure>>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut out: Vec<(usize, Result<T, JobFailure>)> = Vec::new();
                    loop {
                        // Own queue first (front: preserve dealt order)…
                        let next = queues[w].lock().expect("queue lock").pop_front();
                        let i = match next {
                            Some(i) => i,
                            None => {
                                // …then steal from the back of the
                                // fullest other queue.
                                let victim = (0..n_workers)
                                    .filter(|&v| v != w)
                                    .max_by_key(|&v| queues[v].lock().expect("queue lock").len());
                                match victim
                                    .and_then(|v| queues[v].lock().expect("queue lock").pop_back())
                                {
                                    Some(i) => i,
                                    None => break,
                                }
                            }
                        };
                        out.push((i, attempt_job(i)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            // Worker threads cannot panic: every job runs under
            // catch_unwind and queue locks are never held across jobs.
            for (i, r) in h.join().expect("worker thread never panics") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every dealt job was executed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_job_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = run_stealing(17, workers, |i| i * i);
            assert_eq!(out.len(), 17);
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.as_ref().unwrap(), &(i * i), "{workers} workers");
            }
        }
    }

    #[test]
    fn empty_and_oversubscribed() {
        assert!(run_stealing(0, 4, |i| i).is_empty());
        let out = run_stealing(2, 100, |i| i);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn a_panicking_job_fails_alone_and_is_retried_once() {
        let calls = AtomicUsize::new(0);
        let out = run_stealing(5, 2, |i| {
            if i == 3 {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("job {i} exploded");
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let f = r.as_ref().unwrap_err();
                assert_eq!(f.attempts, 2);
                assert!(f.message.contains("job 3 exploded"), "{}", f.message);
            } else {
                assert_eq!(r.as_ref().unwrap(), &i);
            }
        }
        // Initial attempt + exactly one retry.
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn transient_panic_succeeds_on_retry() {
        let first = AtomicUsize::new(0);
        let out = run_stealing(1, 1, |i| {
            if first.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            i + 10
        });
        assert_eq!(out[0].as_ref().unwrap(), &10);
    }

    #[test]
    fn work_is_actually_stolen() {
        // One worker's queue gets all the slow jobs; with 2 workers the
        // other must steal. We can't assert scheduling directly, but we
        // can assert completeness under adversarial imbalance.
        let out = run_stealing(64, 2, |i| {
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i
        });
        assert_eq!(out.len(), 64);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, r)| r.as_ref().unwrap() == &i));
    }
}
