//! Analytical branch-predictor model.
//!
//! The misprediction rate is driven by the workload's branch-outcome
//! entropy and mitigated by the core's predictor strength (bigger cores
//! carry larger history tables). The model is intentionally simple —
//! what matters downstream is that (a) harder branch behaviour yields
//! more mispredictions and (b) stronger predictors yield fewer, so that
//! the counter signature differs across core types in a learnable way.

/// Floor misprediction rate: even trivial loops occasionally mispredict
/// on exits.
const MIN_MISS_RATE: f64 = 5.0e-4;

/// Ceiling misprediction rate: a never-taken static fallback bounds the
/// damage at 50 % for random outcomes.
const MAX_MISS_RATE: f64 = 0.5;

/// Branch-predictor model for one core type.
///
/// # Examples
///
/// ```
/// use archsim::branch::BranchModel;
///
/// let strong = BranchModel::new(0.95);
/// let weak = BranchModel::new(0.80);
/// assert!(strong.miss_rate(0.5) < weak.miss_rate(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchModel {
    strength: f64,
}

impl BranchModel {
    /// Creates a predictor model with the given strength in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `strength` is outside `[0, 1]`.
    pub fn new(strength: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&strength),
            "predictor strength must be in [0,1], got {strength}"
        );
        BranchModel { strength }
    }

    /// Predictor strength in `[0, 1]`.
    pub fn strength(&self) -> f64 {
        self.strength
    }

    /// Misprediction rate for a workload with branch-outcome entropy
    /// `entropy ∈ [0, 1]` (values outside are clamped).
    ///
    /// The rate is `0.5 · entropy · (1 − strength·(1 − entropy/2))`
    /// clamped to `[5e-4, 0.5]`: fully random branches (`entropy = 1`)
    /// defeat even a strong predictor, while low-entropy branches are
    /// captured almost entirely by strong predictors.
    pub fn miss_rate(&self, entropy: f64) -> f64 {
        let e = entropy.clamp(0.0, 1.0);
        let effective_strength = self.strength * (1.0 - e / 2.0);
        (0.5 * e * (1.0 - effective_strength)).clamp(MIN_MISS_RATE, MAX_MISS_RATE)
    }

    /// Inverts [`BranchModel::miss_rate`]: the branch entropy that
    /// would produce `miss_rate` on this predictor (clamped to
    /// `[0, 1]`). Solves the underlying quadratic
    /// `0.25·s·e² + 0.5·(1−s)·e − mr = 0` for its positive root.
    pub fn entropy_for(&self, miss_rate: f64) -> f64 {
        let mr = miss_rate.clamp(MIN_MISS_RATE, MAX_MISS_RATE);
        let s = self.strength;
        if s < 1.0e-9 {
            // mr = e/2 for a strengthless predictor.
            return (2.0 * mr).clamp(0.0, 1.0);
        }
        let a = 0.25 * s;
        let b = 0.5 * (1.0 - s);
        let disc = (b * b + 4.0 * a * mr).max(0.0);
        ((-b + disc.sqrt()) / (2.0 * a)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn zero_entropy_hits_floor() {
        let m = BranchModel::new(0.9);
        assert_eq!(m.miss_rate(0.0), MIN_MISS_RATE);
    }

    #[test]
    fn monotone_in_entropy() {
        let m = BranchModel::new(0.9);
        let mut prev = 0.0;
        for e in [0.0, 0.1, 0.3, 0.5, 0.7, 1.0] {
            let mr = m.miss_rate(e);
            assert!(mr >= prev, "entropy {e}");
            prev = mr;
        }
    }

    #[test]
    fn monotone_in_strength() {
        for e in [0.1, 0.5, 0.9] {
            let weak = BranchModel::new(0.5).miss_rate(e);
            let strong = BranchModel::new(0.99).miss_rate(e);
            assert!(strong <= weak);
        }
    }

    #[test]
    fn random_branches_defeat_all_predictors() {
        // At entropy 1 even a perfect-strength predictor mispredicts a lot.
        let perfect = BranchModel::new(1.0);
        assert!(perfect.miss_rate(1.0) > 0.2);
    }

    #[test]
    fn entropy_clamped() {
        let m = BranchModel::new(0.9);
        assert_eq!(m.miss_rate(-1.0), m.miss_rate(0.0));
        assert_eq!(m.miss_rate(2.0), m.miss_rate(1.0));
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn bad_strength_rejected() {
        BranchModel::new(1.5);
    }

    #[test]
    fn entropy_inversion_roundtrips() {
        for strength in [0.0, 0.5, 0.8, 0.95] {
            let m = BranchModel::new(strength);
            for e in [0.05, 0.2, 0.5, 0.8] {
                let mr = m.miss_rate(e);
                let back = m.entropy_for(mr);
                assert!(
                    (back - e).abs() < 1e-6,
                    "strength {strength}, e {e}: got {back}"
                );
            }
        }
    }
}
