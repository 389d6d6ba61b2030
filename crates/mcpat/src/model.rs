//! Per-core-type power model: calibrated effective capacitance plus
//! leakage, evaluated at an activity factor.
//!
//! For each core type the model solves the calibration constraint
//!
//! ```text
//! peak_power = P_leak + C_eff · V² · F          (activity = 1)
//! ```
//!
//! with a fixed 22 nm leakage fraction, so that every core type's
//! modelled peak power matches paper Table 2 exactly. At run time the
//! dynamic component scales with the activity factor reported by the
//! pipeline model, with a clock-tree floor while the core is powered,
//! and a deep power-gated sleep state when the run queue is empty
//! (Section 4.1: "a core enters this state when it has no threads to
//! execute").

use archsim::CoreConfig;

/// Fraction of peak power attributed to leakage at nominal voltage
/// (typical for a 22 nm node as used by the paper's McPAT runs).
pub const LEAKAGE_FRACTION: f64 = 0.25;

/// Dynamic-power floor while powered on (clock tree, always-on logic),
/// as a fraction of full-activity dynamic power.
pub const IDLE_DYNAMIC_FLOOR: f64 = 0.15;

/// Power in the power-gated sleep state, as a fraction of peak power.
pub const SLEEP_POWER_FRACTION: f64 = 0.02;

/// Run state of a core for power evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerState {
    /// Power-gated: no runnable threads.
    Sleeping,
    /// Executing with the given activity factor in `[0, 1]`.
    Active {
        /// Achieved IPC relative to the core's peak IPC.
        activity: f64,
    },
}

/// Calibrated power parameters for one core type.
///
/// # Examples
///
/// ```
/// use archsim::CoreConfig;
/// use mcpat::CorePowerModel;
///
/// let huge = CorePowerModel::calibrated(&CoreConfig::huge());
/// // Full activity reproduces the Table 2 peak power.
/// assert!((huge.active_power_w(1.0) - 8.62).abs() / 8.62 < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerModel {
    /// Effective switched capacitance × supply² × frequency at full
    /// activity, i.e. the dynamic power at activity 1, watts.
    dynamic_peak_w: f64,
    /// Static leakage while powered, watts.
    leakage_w: f64,
    /// Power-gated sleep power, watts.
    sleep_w: f64,
}

impl CorePowerModel {
    /// Calibrates the model so the core's modelled peak power equals
    /// `core.peak_power_w` (paper Table 2).
    ///
    /// # Panics
    ///
    /// Panics if the core's peak power, voltage or frequency are not
    /// strictly positive.
    pub fn calibrated(core: &CoreConfig) -> Self {
        assert!(core.peak_power_w > 0.0, "peak power must be positive");
        assert!(
            core.vdd > 0.0 && core.freq_hz > 0.0,
            "operating point must be positive"
        );
        let leakage_w = LEAKAGE_FRACTION * core.peak_power_w;
        let dynamic_peak_w = core.peak_power_w - leakage_w;
        CorePowerModel {
            dynamic_peak_w,
            leakage_w,
            sleep_w: SLEEP_POWER_FRACTION * core.peak_power_w,
        }
    }

    /// Leakage power while powered on, watts.
    pub fn leakage_w(&self) -> f64 {
        self.leakage_w
    }

    /// Power in the power-gated sleep state, watts.
    pub fn sleep_power_w(&self) -> f64 {
        self.sleep_w
    }

    /// Total power while executing at `activity ∈ [0, 1]` (clamped),
    /// watts: leakage + floor + activity-proportional dynamic power.
    pub fn active_power_w(&self, activity: f64) -> f64 {
        let a = activity.clamp(0.0, 1.0);
        let dynamic = self.dynamic_peak_w * (IDLE_DYNAMIC_FLOOR + (1.0 - IDLE_DYNAMIC_FLOOR) * a);
        self.leakage_w + dynamic
    }

    /// Power for an arbitrary [`PowerState`], watts.
    pub fn power_w(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Sleeping => self.sleep_w,
            PowerState::Active { activity } => self.active_power_w(activity),
        }
    }

    /// Energy consumed over `duration_ns` nanoseconds in `state`,
    /// joules.
    pub fn energy_j(&self, state: PowerState, duration_ns: u64) -> f64 {
        self.power_w(state) * archsim::count_to_f64(duration_ns) * 1e-9
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    fn all_cores() -> [CoreConfig; 4] {
        [
            CoreConfig::huge(),
            CoreConfig::big(),
            CoreConfig::medium(),
            CoreConfig::small(),
        ]
    }

    #[test]
    fn peak_power_matches_table2_exactly() {
        for core in all_cores() {
            let m = CorePowerModel::calibrated(&core);
            let err = (m.active_power_w(1.0) - core.peak_power_w).abs() / core.peak_power_w;
            assert!(err < 1e-12, "{}: {err}", core.name);
        }
    }

    #[test]
    fn power_monotone_in_activity() {
        let m = CorePowerModel::calibrated(&CoreConfig::big());
        let mut prev = 0.0;
        for a in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let p = m.active_power_w(a);
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn sleep_is_cheapest_state() {
        for core in all_cores() {
            let m = CorePowerModel::calibrated(&core);
            assert!(m.power_w(PowerState::Sleeping) < m.active_power_w(0.0));
        }
    }

    #[test]
    fn activity_clamped() {
        let m = CorePowerModel::calibrated(&CoreConfig::small());
        assert_eq!(m.active_power_w(-0.5), m.active_power_w(0.0));
        assert_eq!(m.active_power_w(1.5), m.active_power_w(1.0));
    }

    #[test]
    fn energy_scales_with_duration() {
        let m = CorePowerModel::calibrated(&CoreConfig::medium());
        let st = PowerState::Active { activity: 0.6 };
        let e1 = m.energy_j(st, 1_000_000);
        let e2 = m.energy_j(st, 2_000_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-15);
        // 1 ms at < 0.53 W is well under a millijoule.
        assert!(e1 < 0.53e-3);
    }

    #[test]
    fn huge_to_small_power_ratio_is_extreme() {
        // The energy-efficiency asymmetry the balancer exploits: the
        // Huge core burns ~90x the Small core's power at peak.
        let huge = CorePowerModel::calibrated(&CoreConfig::huge());
        let small = CorePowerModel::calibrated(&CoreConfig::small());
        let ratio = huge.active_power_w(1.0) / small.active_power_w(1.0);
        assert!(ratio > 80.0 && ratio < 100.0, "ratio {ratio}");
    }

    #[test]
    fn effective_capacitance_is_physical() {
        // The implied C_eff = P_dyn / (V²·F), in farads: hundreds of pF
        // to a few nF for a core.
        for core in all_cores() {
            let m = CorePowerModel::calibrated(&core);
            let c = m.dynamic_peak_w / (core.vdd * core.vdd * core.freq_hz);
            assert!(c > 1e-12 && c < 1e-8, "{}: {c}", core.name);
        }
    }

    #[test]
    #[should_panic(expected = "peak power must be positive")]
    fn rejects_nonpositive_peak() {
        let mut core = CoreConfig::small();
        core.peak_power_w = 0.0;
        CorePowerModel::calibrated(&core);
    }
}
