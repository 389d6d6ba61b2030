//! The one sanctioned worker pool: fans independent pieces of work out
//! over scoped threads and returns their results in index order, so
//! the outcome never depends on the worker count or on which worker
//! finished first.
//!
//! The slice loop splits each epoch's cores into ranges on it
//! ([`crate::System::run_epoch`]); the experiment suite, the campaign
//! and the sharded balancer's per-cluster anneal fan out on it too
//! (re-exported by `smartbalance`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Fans `count` independent index-parameterized computations out over
/// `workers` threads and returns the results in index order — the
/// suite's work-distribution core, reusable for non-experiment sweeps
/// (predictor-error grids, annealer-quality scans, ...).
pub fn parallel_indexed<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map(vec![(); count], workers, |index, ()| f(index))
}

/// Hands item `k` of `items` to `f(k, item)` on one of `workers`
/// threads and returns the results in index order. Each item moves to
/// exactly one worker, so an item may carry owned data or exclusive
/// borrows (`&mut` slices of disjoint state). The calling thread is one
/// of the workers: with `workers == 1` (or one item) nothing is
/// spawned and the items run in order on the caller.
#[expect(
    clippy::expect_used,
    reason = "the atomic index counter hands every index below the item count to exactly one worker, so each item is taken once and each slot is filled"
)]
#[expect(
    clippy::redundant_closure,
    reason = "smartlint knows an OS-thread spawn by its closure argument, and through it the closures handed to this pool as worker closures"
)]
pub fn parallel_map<I, T, F>(items: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let count = items.len();
    if count == 0 {
        return Vec::new();
    }
    let workers = workers.min(count).max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<(Option<I>, Option<T>)>> =
        Mutex::new(items.into_iter().map(|item| (Some(item), None)).collect());
    let work = || loop {
        // smartlint: allow(worker-capture, "atomic work-queue counter is the pool's deterministic job hand-off")
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= count {
            break;
        }
        // smartlint: allow(worker-capture, "index k's item is taken exactly once, by the worker the counter handed k to")
        let item = slots.lock().unwrap_or_else(PoisonError::into_inner)[index]
            .0
            .take()
            .expect("each index is handed out once");
        let value = f(index, item);
        // smartlint: allow(worker-capture, "indexed slot write under the lock is the pool's deterministic merge point")
        slots.lock().unwrap_or_else(PoisonError::into_inner)[index].1 = Some(value);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            // smartlint: allow(nondeterminism, "parallel_map is the sanctioned indexed pool: slot k holds f(k, item k) regardless of completion order")
            scope.spawn(|| work());
        }
        work();
    });
    slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|(_, value)| value.expect("every index was executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_items_come_back_in_index_order() {
        let mut state = vec![0u64; 10];
        for workers in [1, 2, 3, 16] {
            let chunks: Vec<&mut [u64]> = state.chunks_mut(3).collect();
            let lens = parallel_map(chunks, workers, |k, chunk| {
                for v in chunk.iter_mut() {
                    *v += k as u64 + 1;
                }
                chunk.len()
            });
            assert_eq!(lens, vec![3, 3, 3, 1], "workers {workers}");
        }
        assert_eq!(state, vec![4, 4, 4, 8, 8, 8, 12, 12, 12, 16]);
        assert!(parallel_map(Vec::<u8>::new(), 4, |_, x| x).is_empty());
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = parallel_map(vec![(); 3], 1, |_, ()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }
}
