//! Whole-run summary statistics: the measured quantities the
//! evaluation figures are built from (energy efficiency, throughput,
//! completion times, migration counts).

use serde::{Deserialize, Serialize};

use crate::balancer::MigrationTotals;
use crate::system::System;

/// Per-core lifetime summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions committed on this core.
    pub instructions: u64,
    /// Energy consumed by this core, joules.
    pub energy_j: f64,
    /// Time spent executing, nanoseconds.
    pub busy_ns: u64,
    /// Time spent power-gated, nanoseconds.
    pub sleep_ns: u64,
}

/// Whole-run summary.
///
/// The headline metric is [`SystemStats::instructions_per_joule`] —
/// IPS/Watt and instructions-per-joule are the same quantity, and it is
/// what paper Fig. 4/5 report (normalized against a baseline run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// Total committed instructions across all cores.
    pub total_instructions: u64,
    /// Total energy across all cores, joules.
    pub total_energy_j: f64,
    /// Simulated wall-clock time, nanoseconds.
    pub elapsed_ns: u64,
    /// Tasks that have exited.
    pub completed_tasks: usize,
    /// Tasks still live.
    pub live_tasks: usize,
    /// Total execution slices dispatched over the run. A pure function
    /// of the simulation, so orchestration layers (the campaign runner)
    /// can use it as a deterministic work budget in place of the
    /// wall-clock timeouts smartlint D2 bans.
    pub total_slices: u64,
    /// Total thread migrations performed.
    pub migrations: u64,
    /// Migrations that crossed a cluster boundary (see
    /// [`crate::Topology`]): the expensive kind on real parts.
    pub cross_cluster_migrations: u64,
    /// Cumulative balancer-apply accounting: requested entries,
    /// performed moves and per-reason rejections over the whole run
    /// (previously only the last epoch's `AppliedAllocation` survived).
    pub migration_totals: MigrationTotals,
    /// Per-core breakdown.
    pub per_core: Vec<CoreStats>,
}

impl SystemStats {
    pub(crate) fn collect(sys: &System) -> Self {
        let platform = sys.platform();
        let sensors = sys.sensors();
        let per_core = platform
            .cores()
            .map(|c| {
                use archsim::SensorInterface;
                let counters = sensors.counters(c);
                CoreStats {
                    instructions: counters.instructions,
                    energy_j: sensors.energy_j(c),
                    busy_ns: sys.meter().busy_ns(c),
                    sleep_ns: sys.meter().sleep_ns(c),
                }
            })
            .collect();
        let live_tasks = sys.live_tasks();
        SystemStats {
            total_instructions: sensors.total_instructions(),
            total_energy_j: sensors.total_energy_j(),
            elapsed_ns: sys.now_ns(),
            completed_tasks: sys.tasks().len() - live_tasks,
            live_tasks,
            total_slices: sys.total_slices(),
            migrations: sys.total_migrations(),
            cross_cluster_migrations: sys.cross_cluster_migrations(),
            migration_totals: sys.migration_totals(),
            per_core,
        }
    }

    /// System energy efficiency: instructions per joule (≡ IPS/Watt).
    /// Zero when no energy has been consumed.
    pub fn instructions_per_joule(&self) -> f64 {
        if self.total_energy_j <= 0.0 {
            0.0
        } else {
            self.total_instructions as f64 / self.total_energy_j
        }
    }

    /// Mean system throughput over the run, instructions per second.
    pub fn throughput_ips(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.total_instructions as f64 / (self.elapsed_ns as f64 * 1e-9)
        }
    }

    /// Mean system power over the run, watts.
    pub fn avg_power_w(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.total_energy_j / (self.elapsed_ns as f64 * 1e-9)
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::balancer::NullBalancer;
    use crate::system::SystemConfig;
    use archsim::{CoreId, Platform, WorkloadCharacteristics};
    use workloads::WorkloadProfile;

    #[test]
    fn stats_reflect_run() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.spawn_on(
            WorkloadProfile::uniform("w", WorkloadCharacteristics::balanced(), 5_000_000),
            CoreId(1),
        );
        let mut nb = NullBalancer;
        sys.run_to_completion(&mut nb, 50);
        let st = sys.stats();
        assert!(st.total_instructions >= 5_000_000);
        assert!(st.total_energy_j > 0.0);
        assert_eq!(st.completed_tasks, 1);
        assert_eq!(st.live_tasks, 0);
        assert_eq!(st.migrations, 0);
        assert!(st.total_slices > 0);
        assert_eq!(st.per_core.len(), 4);
        assert!(st.instructions_per_joule() > 0.0);
        assert!(st.throughput_ips() > 0.0);
        assert!(st.avg_power_w() > 0.0);
        // Energy consistency: per-core sums to total.
        let sum: f64 = st.per_core.iter().map(|c| c.energy_j).sum();
        assert!((sum - st.total_energy_j).abs() < 1e-9);
    }

    #[test]
    fn empty_system_has_zero_rates() {
        let sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let st = sys.stats();
        assert_eq!(st.instructions_per_joule(), 0.0);
        assert_eq!(st.throughput_ips(), 0.0);
        assert_eq!(st.avg_power_w(), 0.0);
    }
}
