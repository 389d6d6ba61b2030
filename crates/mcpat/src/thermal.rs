//! First-order RC thermal model per core.
//!
//! The paper's group couples load balancing with run-time thermal
//! estimation (its ref. \[24\]); this module provides the standard
//! lumped RC abstraction those schemes build on:
//!
//! ```text
//! T[k+1] = T[k] + (P·R_th − (T[k] − T_amb)) · Δt/τ
//! ```
//!
//! i.e. temperature rises toward `T_amb + P·R_th` with time constant
//! `τ`. Big cores have lower thermal resistance (more area to spread
//! heat) but far higher power, so they still run hotter at load — the
//! asymmetry a thermally-weighted balancer exploits.

use archsim::{CoreId, Platform};

/// Ambient temperature, °C.
pub const AMBIENT_C: f64 = 35.0;

/// Thermal time constant, seconds (tens of ms for silicon + package).
pub const TAU_S: f64 = 0.15;

/// Baseline thermal resistance for a 1 mm² hotspot, °C/W; scaled down
/// with core area.
const RTH_BASE: f64 = 60.0;

/// Per-core thermal state tracker.
///
/// # Examples
///
/// ```
/// use archsim::{CoreId, Platform};
/// use mcpat::ThermalModel;
///
/// let mut t = ThermalModel::new(&Platform::quad_heterogeneous());
/// // One 60 ms epoch at 8.62 W on the Huge core heats it up.
/// t.step(CoreId(0), 8.62, 60_000_000);
/// assert!(t.temperature_c(CoreId(0)) > 35.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    /// Thermal resistance per core, °C/W.
    r_th: Vec<f64>,
    /// Current temperature estimate per core, °C.
    temp_c: Vec<f64>,
}

impl ThermalModel {
    /// Creates the model at ambient temperature, with per-core thermal
    /// resistance derived from die area (`R_th = RTH_BASE / √area`).
    pub fn new(platform: &Platform) -> Self {
        let r_th = platform
            .cores()
            .map(|c| RTH_BASE / platform.core_config(c).area_mm2.sqrt())
            .collect::<Vec<_>>();
        let n = r_th.len();
        ThermalModel {
            r_th,
            temp_c: vec![AMBIENT_C; n],
        }
    }

    /// Advances core `core` by `duration_ns` at average power
    /// `power_w`, returning the new temperature (°C).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn step(&mut self, core: CoreId, power_w: f64, duration_ns: u64) -> f64 {
        let dt = archsim::count_to_f64(duration_ns) * 1e-9;
        let steady = AMBIENT_C + power_w.max(0.0) * self.r_th[core.0];
        // Exact first-order response over the step (stable for any dt).
        let alpha = 1.0 - (-dt / TAU_S).exp();
        self.temp_c[core.0] += (steady - self.temp_c[core.0]) * alpha;
        self.temp_c[core.0]
    }

    /// Current temperature estimate of `core`, °C.
    pub fn temperature_c(&self, core: CoreId) -> f64 {
        self.temp_c[core.0]
    }

    /// Steady-state temperature of `core` at sustained `power_w`.
    pub fn steady_state_c(&self, core: CoreId, power_w: f64) -> f64 {
        AMBIENT_C + power_w.max(0.0) * self.r_th[core.0]
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn starts_at_ambient() {
        let t = ThermalModel::new(&Platform::quad_heterogeneous());
        for j in 0..4 {
            assert_eq!(t.temperature_c(CoreId(j)), AMBIENT_C);
        }
    }

    #[test]
    fn converges_to_steady_state() {
        let mut t = ThermalModel::new(&Platform::quad_heterogeneous());
        let steady = t.steady_state_c(CoreId(1), 1.41);
        // Run 20 time constants at constant power.
        for _ in 0..200 {
            t.step(CoreId(1), 1.41, 15_000_000);
        }
        assert!(
            (t.temperature_c(CoreId(1)) - steady).abs() < 0.01,
            "{} vs steady {steady}",
            t.temperature_c(CoreId(1))
        );
    }

    #[test]
    fn cools_when_idle() {
        let mut t = ThermalModel::new(&Platform::quad_heterogeneous());
        for _ in 0..50 {
            t.step(CoreId(0), 8.62, 60_000_000);
        }
        let hot = t.temperature_c(CoreId(0));
        for _ in 0..50 {
            t.step(CoreId(0), 0.17, 60_000_000);
        }
        assert!(t.temperature_c(CoreId(0)) < hot - 10.0, "core must cool");
    }

    #[test]
    fn huge_core_runs_hotter_at_load_despite_lower_rth() {
        let p = Platform::quad_heterogeneous();
        let t = ThermalModel::new(&p);
        let huge_ss = t.steady_state_c(CoreId(0), 8.62);
        let small_ss = t.steady_state_c(CoreId(3), 0.095);
        assert!(
            huge_ss > small_ss + 50.0,
            "huge {huge_ss} vs small {small_ss}"
        );
    }

    #[test]
    fn step_is_stable_for_large_dt() {
        // A 10 s step must land exactly on steady state, not overshoot.
        let mut t = ThermalModel::new(&Platform::quad_heterogeneous());
        let temp = t.step(CoreId(2), 0.53, 10_000_000_000);
        let steady = t.steady_state_c(CoreId(2), 0.53);
        assert!((temp - steady).abs() < 1e-6);
    }
}
