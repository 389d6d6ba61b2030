//! F2 clean fixture: closure-local accumulators, merged outside the
//! pool in index order.

pub fn pool(slots: &mut [f64]) {
    std::thread::scope(|scope| {
        scope.spawn(|| { // smartlint: allow(nondeterminism, "fixture pool; this file exercises F2")
            let mut local = 0.0;
            let mut k = 0;
            while k < 8 {
                local += 0.5;
                k += 1;
            }
            let _ = local;
        });
    });
    slots[0] = 0.0;
}
