//! W1 fixture: worker closures touching shared mutable state outside
//! a sanctioned merge point.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub fn pool(total: usize, results: &Mutex<Vec<u64>>, counter: &AtomicUsize) {
    std::thread::scope(|scope| {
        scope.spawn(|| { // smartlint: allow(nondeterminism, "fixture pool; this file exercises W1")
            let index = counter.fetch_add(1, Ordering::Relaxed);
            if index < total {
                results.lock().ok();
            }
        });
    });
}
