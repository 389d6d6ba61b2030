//! Sensing interface: the boundary through which the OS reads hardware
//! state (paper Fig. 3, "Gem5 extended with a sensing interface which
//! exports McPAT power information and other Gem5 statistics to the
//! kernel at run-time").
//!
//! [`SensorBank`] is a free-running per-core counter bank plus a power
//! accumulator; the kernel samples it at context switches and epoch
//! boundaries and works with deltas.

use serde::{Deserialize, Serialize};

use crate::core_type::{CoreId, Platform};
use crate::counters::CounterSample;

/// Read access to per-core hardware sensors: performance counters and
/// energy. Implemented by [`SensorBank`]; the trait exists so tests and
/// higher layers can substitute fault-injected or noisy sensors.
pub trait SensorInterface {
    /// Snapshot of the free-running counter bank of `core`.
    fn counters(&self, core: CoreId) -> CounterSample;

    /// Total energy consumed by `core` since reset, in joules.
    fn energy_j(&self, core: CoreId) -> f64;

    /// Wall-clock time accumulated for `core`, nanoseconds since reset.
    fn elapsed_ns(&self, core: CoreId) -> u64;
}

/// One core's free-running sensors: counters, energy and elapsed
/// time. The unit a range of the scheduler's slice loop borrows
/// exclusively (see [`SensorBank::cores_mut`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreSensors {
    counters: CounterSample,
    energy_j: f64,
    elapsed_ns: u64,
}

impl CoreSensors {
    /// Accumulates a slice result into this core's bank.
    #[inline]
    pub fn record(&mut self, delta: CounterSample, energy_j: f64, elapsed_ns: u64) {
        self.counters += delta;
        self.energy_j += energy_j;
        self.elapsed_ns += elapsed_ns;
    }
}

/// Free-running per-core sensor bank.
///
/// # Examples
///
/// ```
/// use archsim::{Platform, SensorBank, SensorInterface, CounterSample, CoreId};
///
/// let platform = Platform::quad_heterogeneous();
/// let mut bank = SensorBank::new(&platform);
/// let delta = CounterSample { instructions: 100, ..Default::default() };
/// bank.record(CoreId(0), delta, 0.5e-3, 1_000_000);
/// assert_eq!(bank.counters(CoreId(0)).instructions, 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorBank {
    cores: Vec<CoreSensors>,
}

impl SensorBank {
    /// Creates an all-zero sensor bank for the given platform.
    pub fn new(platform: &Platform) -> Self {
        SensorBank {
            cores: vec![CoreSensors::default(); platform.num_cores()],
        }
    }

    /// Accumulates a slice result into core `core`'s bank.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn record(&mut self, core: CoreId, delta: CounterSample, energy_j: f64, elapsed_ns: u64) {
        self.cores[core.0].record(delta, energy_j, elapsed_ns);
    }

    /// Every core's sensors, indexed by core id, for callers that split
    /// the bank into disjoint core ranges.
    pub fn cores_mut(&mut self) -> &mut [CoreSensors] {
        &mut self.cores
    }

    /// Number of cores covered by the bank.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Total energy across all cores, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.cores.iter().map(|c| c.energy_j).sum()
    }

    /// Total committed instructions across all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.counters.instructions).sum()
    }
}

impl SensorInterface for SensorBank {
    fn counters(&self, core: CoreId) -> CounterSample {
        self.cores[core.0].counters
    }

    fn energy_j(&self, core: CoreId) -> f64 {
        self.cores[core.0].energy_j
    }

    fn elapsed_ns(&self, core: CoreId) -> u64 {
        self.cores[core.0].elapsed_ns
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::core_type::Platform;

    #[test]
    fn starts_zeroed() {
        let bank = SensorBank::new(&Platform::quad_heterogeneous());
        assert_eq!(bank.num_cores(), 4);
        for j in 0..4 {
            assert!(bank.counters(CoreId(j)).is_empty());
            assert_eq!(bank.energy_j(CoreId(j)), 0.0);
            assert_eq!(bank.elapsed_ns(CoreId(j)), 0);
        }
        assert_eq!(bank.total_energy_j(), 0.0);
        assert_eq!(bank.total_instructions(), 0);
    }

    #[test]
    fn usable_as_trait_object() {
        // The OS layer consumes sensors through the trait; keep it
        // object-safe.
        let bank = SensorBank::new(&Platform::quad_heterogeneous());
        let dyn_ref: &dyn SensorInterface = &bank;
        assert!(dyn_ref.counters(CoreId(0)).is_empty());
        assert_eq!(dyn_ref.elapsed_ns(CoreId(1)), 0);
    }

    #[test]
    fn record_accumulates_per_core() {
        let mut bank = SensorBank::new(&Platform::quad_heterogeneous());
        let d = CounterSample {
            instructions: 10,
            cy_busy: 5,
            ..Default::default()
        };
        bank.record(CoreId(1), d, 1.0e-3, 500);
        bank.record(CoreId(1), d, 2.0e-3, 500);
        bank.record(CoreId(2), d, 4.0e-3, 250);
        assert_eq!(bank.counters(CoreId(1)).instructions, 20);
        assert_eq!(bank.counters(CoreId(2)).instructions, 10);
        assert!(bank.counters(CoreId(0)).is_empty());
        assert!((bank.energy_j(CoreId(1)) - 3.0e-3).abs() < 1e-15);
        assert_eq!(bank.elapsed_ns(CoreId(1)), 1_000);
        assert!((bank.total_energy_j() - 7.0e-3).abs() < 1e-15);
        assert_eq!(bank.total_instructions(), 30);
    }
}
