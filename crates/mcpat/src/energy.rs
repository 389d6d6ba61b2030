//! Energy accounting: integrates per-core power over simulation time
//! and reports the energy-efficiency metrics of the evaluation
//! (IPS/Watt ≡ instructions per joule, paper Eq. 10–11 and Fig. 4/5).

use archsim::{CoreId, Platform};
use serde::{Deserialize, Serialize};

use crate::model::{CorePowerModel, PowerState};

/// Per-core energy meter for a whole platform.
///
/// # Examples
///
/// ```
/// use archsim::{CoreId, Platform};
/// use mcpat::{EnergyMeter, PowerState};
///
/// let platform = Platform::quad_heterogeneous();
/// let mut meter = EnergyMeter::new(&platform);
/// meter.accumulate(CoreId(0), PowerState::Active { activity: 1.0 }, 1_000_000_000);
/// // 1 s at the Huge core's peak power = 8.62 J.
/// assert!((meter.core_energy_j(CoreId(0)) - 8.62).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    cores: Vec<CoreMeter>,
}

/// One core's calibrated power model and its integrated energy and
/// residency. The unit a range of the scheduler's slice loop borrows
/// exclusively (see [`EnergyMeter::cores_mut`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreMeter {
    model: CorePowerModel,
    energy_j: f64,
    busy_ns: u64,
    sleep_ns: u64,
}

impl CoreMeter {
    /// Integrates `duration_ns` spent in `state`, returning the energy
    /// added in joules.
    #[inline]
    pub fn accumulate(&mut self, state: PowerState, duration_ns: u64) -> f64 {
        let e = self.model.energy_j(state, duration_ns);
        self.energy_j += e;
        match state {
            PowerState::Sleeping => self.sleep_ns += duration_ns,
            PowerState::Active { .. } => self.busy_ns += duration_ns,
        }
        e
    }
}

impl EnergyMeter {
    /// Creates a meter with calibrated power models for every core of
    /// `platform`.
    pub fn new(platform: &Platform) -> Self {
        let cores = platform
            .cores()
            .map(|c| CoreMeter {
                model: CorePowerModel::calibrated(platform.core_config(c)),
                energy_j: 0.0,
                busy_ns: 0,
                sleep_ns: 0,
            })
            .collect();
        EnergyMeter { cores }
    }

    /// The calibrated power model of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn model(&self, core: CoreId) -> &CorePowerModel {
        &self.cores[core.0].model
    }

    /// Replaces `core`'s power model with one calibrated for `config`
    /// — the meter half of a DVFS transition. Energy and residency
    /// accumulated so far are preserved; only future integration uses
    /// the new operating point.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn recalibrate(&mut self, core: CoreId, config: &archsim::CoreConfig) {
        self.cores[core.0].model = CorePowerModel::calibrated(config);
    }

    /// Integrates `duration_ns` of core `core` spent in `state`,
    /// returning the energy added in joules.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn accumulate(&mut self, core: CoreId, state: PowerState, duration_ns: u64) -> f64 {
        self.cores[core.0].accumulate(state, duration_ns)
    }

    /// Every core's meter, indexed by core id, for callers that split
    /// the meter into disjoint core ranges.
    pub fn cores_mut(&mut self) -> &mut [CoreMeter] {
        &mut self.cores
    }

    /// Energy consumed by one core so far, joules.
    pub fn core_energy_j(&self, core: CoreId) -> f64 {
        self.cores[core.0].energy_j
    }

    /// Total platform energy so far, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.cores.iter().map(|c| c.energy_j).sum()
    }

    /// Time core `core` has spent powered and executing, nanoseconds.
    pub fn busy_ns(&self, core: CoreId) -> u64 {
        self.cores[core.0].busy_ns
    }

    /// Time core `core` has spent power-gated, nanoseconds.
    pub fn sleep_ns(&self, core: CoreId) -> u64 {
        self.cores[core.0].sleep_ns
    }

    /// System energy efficiency: instructions per joule (≡ average
    /// IPS/Watt), given the total committed instruction count.
    ///
    /// Returns 0 when no energy has been consumed yet.
    pub fn instructions_per_joule(&self, total_instructions: u64) -> f64 {
        let e = self.total_energy_j();
        if e <= 0.0 {
            0.0
        } else {
            archsim::count_to_f64(total_instructions) / e
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_core() {
        let p = Platform::quad_heterogeneous();
        let mut m = EnergyMeter::new(&p);
        let added = m.accumulate(
            CoreId(3),
            PowerState::Active { activity: 1.0 },
            2_000_000_000,
        );
        // Small core peak = 0.095 W for 2 s.
        assert!((added - 0.19).abs() < 1e-12);
        assert!((m.core_energy_j(CoreId(3)) - 0.19).abs() < 1e-12);
        assert_eq!(m.core_energy_j(CoreId(0)), 0.0);
        assert_eq!(m.busy_ns(CoreId(3)), 2_000_000_000);
        assert_eq!(m.sleep_ns(CoreId(3)), 0);
    }

    #[test]
    fn sleep_time_tracked_separately() {
        let p = Platform::quad_heterogeneous();
        let mut m = EnergyMeter::new(&p);
        m.accumulate(CoreId(0), PowerState::Sleeping, 1_000);
        assert_eq!(m.sleep_ns(CoreId(0)), 1_000);
        assert_eq!(m.busy_ns(CoreId(0)), 0);
        assert!(m.total_energy_j() > 0.0);
    }

    #[test]
    fn efficiency_metric() {
        let p = Platform::quad_heterogeneous();
        let mut m = EnergyMeter::new(&p);
        assert_eq!(m.instructions_per_joule(1_000), 0.0);
        m.accumulate(
            CoreId(1),
            PowerState::Active { activity: 1.0 },
            1_000_000_000,
        );
        // Big core: 1.41 J for 1e9 instructions -> ~7.09e8 instr/J.
        let eff = m.instructions_per_joule(1_000_000_000);
        assert!((eff - 1e9 / 1.41).abs() / eff < 1e-9);
    }

    #[test]
    fn recalibrate_switches_future_power_only() {
        let p = Platform::quad_heterogeneous();
        let mut m = EnergyMeter::new(&p);
        m.accumulate(
            CoreId(1),
            PowerState::Active { activity: 1.0 },
            1_000_000_000,
        );
        let before = m.core_energy_j(CoreId(1)); // Big at peak: 1.41 J
        let slow = archsim::CoreConfig::big().at_operating_point(0.75e9, 0.65);
        m.recalibrate(CoreId(1), &slow);
        assert_eq!(m.core_energy_j(CoreId(1)), before, "history preserved");
        let added = m.accumulate(
            CoreId(1),
            PowerState::Active { activity: 1.0 },
            1_000_000_000,
        );
        assert!(
            (added - slow.peak_power_w).abs() < 1e-9,
            "future energy integrates the new operating point"
        );
    }

    #[test]
    fn total_is_sum_of_cores() {
        let p = Platform::octa_big_little();
        let mut m = EnergyMeter::new(&p);
        for c in p.cores() {
            m.accumulate(c, PowerState::Active { activity: 0.5 }, 1_000_000);
        }
        let sum: f64 = p.cores().map(|c| m.core_energy_j(c)).sum();
        assert!((m.total_energy_j() - sum).abs() < 1e-15);
    }
}
