//! Pool-user fixture: closures handed to the kernelsim pool from
//! `crates/core`, once through the kernelsim path and once through
//! smartbalance's re-export. Each does what a worker must not.

use std::sync::atomic::{AtomicUsize, Ordering};

use kernelsim::parallel_indexed;

pub fn count(hits: &AtomicUsize) -> Vec<usize> {
    parallel_indexed(4, 2, |k| {
        hits.fetch_add(1, Ordering::Relaxed);
        k
    })
}

pub fn total(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    let _ = smartbalance::parallel_map(values.to_vec(), 2, |_, v| {
        sum += v;
        v
    });
    sum
}
