//! F2 fixture: order-sensitive f64 accumulation into captured state
//! inside worker closures.

pub fn pool(values: &[f64]) -> f64 {
    let mut total = 0.0;
    std::thread::scope(|scope| {
        for chunk in values.chunks(8) {
            scope.spawn(|| { // smartlint: allow(nondeterminism, "fixture pool; this file exercises F2")
                total += chunk.iter().copied().sum::<f64>();
            });
        }
    });
    total
}

pub fn fold_pool(values: &[f64], out: &mut Vec<f64>) {
    std::thread::scope(|scope| {
        scope.spawn(|| { // smartlint: allow(nondeterminism, "fixture pool; this file exercises F2")
            let local: f64 = values.iter().fold(0.0, |a, b| a + b);
            out.push(local);
        });
    });
}
