//! The sweep's ordered parallel map.
//!
//! Workers claim the next job index from one shared atomic cursor, so
//! each job runs exactly once and a worker that finishes a short cell
//! simply claims the next one. Results come back in job-index order
//! whatever the interleaving, which is why the worker count never
//! reaches an artifact byte. Jobs report their own failures in `T`
//! (`SweepCell::run` catches its panic); a panic that escapes `f` is a
//! bug in the caller and propagates out of [`parallel_map`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// `f(0), f(1), …, f(jobs - 1)` computed on up to `workers` scoped
/// threads, returned in index order.
pub(crate) fn parallel_map<T, F>(jobs: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, jobs.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            return out;
                        }
                        out.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("a sweep job panicked") {
                results[i] = Some(v);
            }
        }
    });
    results
        .into_iter()
        .map(|v| v.expect("the cursor hands out every index once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_job_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = parallel_map(17, workers, |i| i * i);
            let expect: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(out, expect, "{workers} workers");
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn each_job_runs_exactly_once() {
        for workers in [1, 2, 8] {
            let calls: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
            parallel_map(calls.len(), workers, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}, {workers} workers");
            }
        }
    }
}
