//! SmartBalance configuration: the optimization goal, sensing and
//! training options, and the cluster-sharding knob. The annealer's
//! iteration budget is not a setting: it always follows the Fig. 8(a)
//! rule ([`AnnealParams::scaled_for`](crate::AnnealParams::scaled_for)).

use serde::{Deserialize, Serialize};

use crate::degrade::DegradeConfig;
use crate::objective::Goal;
use crate::shard::ShardConfig;

/// Thermal-awareness settings: derate hot cores' objective weights ω_j
/// so the balancer steers work away before a thermal limit is hit —
/// the paper's "ω_j can be tuned to give preference to certain cores"
/// hook, driven by the RC thermal tracker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Temperature at which a core's weight starts derating, °C.
    pub soft_limit_c: f64,
    /// Temperature at which a core's weight reaches ~0, °C.
    pub hard_limit_c: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            soft_limit_c: 75.0,
            hard_limit_c: 95.0,
        }
    }
}

impl ThermalConfig {
    /// Weight multiplier for a core at `temp_c`: 1 below the soft
    /// limit, linearly derated to a small floor at the hard limit.
    pub fn weight_for(&self, temp_c: f64) -> f64 {
        if temp_c <= self.soft_limit_c {
            1.0
        } else if temp_c >= self.hard_limit_c {
            0.05
        } else {
            let x = (temp_c - self.soft_limit_c) / (self.hard_limit_c - self.soft_limit_c);
            (1.0 - x).max(0.05)
        }
    }
}

/// Configuration of the SmartBalance policy.
///
/// # Examples
///
/// ```
/// use smartbalance::{Goal, SmartBalanceConfig};
///
/// let cfg = SmartBalanceConfig {
///     goal: Goal::Throughput,
///     ..SmartBalanceConfig::default()
/// };
/// assert!(cfg.shard.is_none(), "one anneal over all cores by default");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmartBalanceConfig {
    /// Optimization goal (paper default: energy efficiency, Eq. 11).
    pub goal: Goal,
    /// Per-core objective weights `ω_j`, one finite, non-negative
    /// weight per core (checked when the policy is built); `None` = all
    /// ones.
    pub core_weights: Option<Vec<f64>>,
    /// Offline-training corpus size for the Θ predictors.
    pub train_corpus: usize,
    /// Offline-training seed (reproducible Table 4).
    pub train_seed: u64,
    /// Relative 1-sigma noise on measured per-thread power (0 = ideal
    /// sensors); models imperfect per-core power sensing.
    pub power_noise_sigma: f64,
    /// Train and predict with the reduced (sparse) counter set of
    /// Section 6.4: no TLB-miss counters, no memory-stall event.
    pub sparse_sensing: bool,
    /// Thermal-aware ω derating; `None` disables temperature tracking.
    /// Mutually exclusive with `core_weights` (static weights win).
    pub thermal: Option<ThermalConfig>,
    /// Seed for the annealer's PRNG; `None` uses the fixed default.
    /// The experiment suite sets this per job so fan-out runs stay
    /// independently reproducible.
    pub anneal_seed: Option<u32>,
    /// Seed for the sensing stage's measurement-noise PRNG; `None`
    /// uses the fixed default. The experiment suite sets this per job
    /// so fan-out runs draw independent noise streams.
    pub sensor_seed: Option<u64>,
    /// Graceful-degradation ladder and prediction-quarantine tuning.
    pub degrade: DegradeConfig,
    /// Hierarchical sharding: `Some(..)` makes
    /// [`SmartBalance`](crate::SmartBalance) anneal per cluster and
    /// then exchange threads across clusters; `None` (the default)
    /// keeps one anneal over all cores, bit-identical to before the
    /// knob existed.
    pub shard: Option<ShardConfig>,
}

impl Default for SmartBalanceConfig {
    fn default() -> Self {
        SmartBalanceConfig {
            goal: Goal::EnergyEfficiency,
            core_weights: None,
            train_corpus: 400,
            train_seed: 0xDAC_2015,
            power_noise_sigma: 0.0,
            sparse_sensing: false,
            thermal: None,
            anneal_seed: None,
            sensor_seed: None,
            degrade: DegradeConfig::default(),
            shard: None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn thermal_weight_derating() {
        let t = ThermalConfig::default();
        assert_eq!(t.weight_for(40.0), 1.0);
        assert_eq!(t.weight_for(75.0), 1.0);
        let mid = t.weight_for(85.0);
        assert!(mid > 0.4 && mid < 0.6, "{mid}");
        assert_eq!(t.weight_for(120.0), 0.05);
        // Monotone non-increasing.
        let mut prev = 2.0;
        for temp in [30.0, 70.0, 76.0, 85.0, 94.0, 100.0] {
            let w = t.weight_for(temp);
            assert!(w <= prev);
            prev = w;
        }
    }

    #[test]
    fn defaults_match_paper_posture() {
        let c = SmartBalanceConfig::default();
        assert_eq!(c.goal, Goal::EnergyEfficiency);
        assert!(c.train_corpus >= 100);
    }
}
