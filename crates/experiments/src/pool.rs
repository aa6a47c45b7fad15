//! Fixed-size worker pool for experiment grids.
//!
//! The experiment modules fan a grid of independent scenario runs out to
//! threads. Spawning one OS thread per grid point made a 32-cell grid
//! start 32 simulators at once, oversubscribing small machines and
//! spiking peak memory (each run owns its world, queues, and repository
//! caches). This pool bounds concurrency at the machine's available
//! parallelism while keeping the per-point work and its seeds untouched:
//! results are returned in input order, so table output is byte-identical
//! to the spawn-per-point version.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// Runs `job` over `inputs` on at most `available_parallelism` worker
/// threads and returns the outputs in input order.
///
/// # Panics
///
/// Propagates a panic from any `job` invocation (like `join` on a
/// spawned thread would).
// The one lock in the workspace: the workers share the queue of grid
// points, and each runs whole scenarios of its own, so no simulation state
// crosses threads.
#[allow(clippy::disallowed_types)]
pub fn map_bounded<I, O, F>(inputs: Vec<I>, job: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let queue = std::sync::Mutex::new(inputs.into_iter().enumerate());
    type Outcome<O> = Result<O, Box<dyn std::any::Any + Send>>;
    let (tx, rx) = mpsc::channel::<(usize, Outcome<O>)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let job = &job;
            s.spawn(move || loop {
                // Take the lock only to pull the next grid point.
                let next = queue.lock().expect("worker panicked").next();
                match next {
                    Some((index, item)) => {
                        // Catch the payload so the caller sees the job's own
                        // panic message, not scope's generic wrapper.
                        let outcome = catch_unwind(AssertUnwindSafe(|| job(item)));
                        if tx.send((index, outcome)).is_err() {
                            return;
                        }
                    }
                    None => return,
                }
            });
        }
        drop(tx);
        let mut results: Vec<(usize, Outcome<O>)> = rx.iter().collect();
        results.sort_by_key(|&(index, _)| index);
        results
            .into_iter()
            .map(|(_, out)| out.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = map_bounded(inputs.clone(), |x| {
            // Finish out of order on purpose.
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            x * 2
        });
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map_bounded(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_job_panics() {
        let _ = map_bounded(vec![1u32, 2, 3], |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
