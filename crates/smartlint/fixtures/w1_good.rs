//! W1 clean fixture: the worker pool's sanctioned merge points carry
//! justification annotations; everything else is closure-local.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub fn pool(count: usize, slots: &Mutex<Vec<Option<u64>>>, next: &AtomicUsize) {
    std::thread::scope(|scope| {
        scope.spawn(|| loop { // smartlint: allow(nondeterminism, "fixture pool; this file exercises W1")
            // smartlint: allow(worker-capture, "atomic work-queue counter is the pool's deterministic job hand-off")
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            let value = (index * 2) as u64;
            // smartlint: allow(worker-capture, "indexed slot write under the lock is the deterministic merge point")
            if let Ok(mut guard) = slots.lock() {
                guard[index] = Some(value);
            }
        });
    });
}
