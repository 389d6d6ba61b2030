//! Load-balancer plug-in interface.
//!
//! The simulator's equivalent of the kernel's `rebalance_domains()`
//! hook that the paper re-implements (Section 5.1): at every epoch
//! boundary the system hands the balancer an [`EpochReport`] — the
//! sensing data gathered since the previous epoch — and the balancer
//! may return a new thread-to-core [`Allocation`], which the system
//! applies via migration (the kernel's `set_cpus_allowed_ptr()` path).

use std::collections::BTreeMap;

use archsim::{CoreId, CounterSample, Platform};
use serde::{Deserialize, Serialize};

use crate::task::TaskId;

/// Per-task sensing data for one epoch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskEpochStats {
    /// Task id.
    pub task: TaskId,
    /// Core the task ran on during the epoch.
    pub core: CoreId,
    /// Hardware-counter deltas attributed to the task.
    pub counters: CounterSample,
    /// CPU time the task received, nanoseconds.
    pub runtime_ns: u64,
    /// Energy attributed to the task, joules.
    pub energy_j: f64,
    /// Fraction of the epoch the task occupied a CPU (`runtime/epoch`).
    pub utilization: f64,
    /// Whether the task is still live (runnable or sleeping).
    pub alive: bool,
    /// Whether this is a kernel thread.
    pub kernel_thread: bool,
    /// CFS load weight.
    pub weight: u64,
    /// CPU-affinity mask (bit `j` = core `j` allowed).
    pub allowed: u64,
}

impl TaskEpochStats {
    /// Measured throughput over the task's own runtime, instructions
    /// per second (`ips_ij(k)` of paper Eq. 4); 0 if it never ran or
    /// the rate is not finite (corrupted sensors must not leak NaN/Inf
    /// into the regression matrices).
    pub fn ips(&self) -> f64 {
        if self.runtime_ns == 0 {
            return 0.0;
        }
        let ips = self.counters.instructions as f64 / (self.runtime_ns as f64 * 1e-9);
        if ips.is_finite() {
            ips
        } else {
            0.0
        }
    }

    /// Measured average power over the task's own runtime, watts
    /// (`p_ij(k)` of paper Eq. 5); 0 if it never ran or the rate is not
    /// finite.
    pub fn power_w(&self) -> f64 {
        if self.runtime_ns == 0 {
            return 0.0;
        }
        let p = self.energy_j / (self.runtime_ns as f64 * 1e-9);
        if p.is_finite() {
            p
        } else {
            0.0
        }
    }
}

/// Per-core sensing data for one epoch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoreEpochStats {
    /// Core id.
    pub core: CoreId,
    /// Aggregate counter deltas over the epoch.
    pub counters: CounterSample,
    /// Time the core executed tasks, nanoseconds.
    pub busy_ns: u64,
    /// Time the core was power-gated, nanoseconds.
    pub sleep_ns: u64,
    /// Energy consumed during the epoch, joules.
    pub energy_j: f64,
    /// Whether the core is online (hotplugged in) at the epoch
    /// boundary. Balancers must not place tasks on offline cores.
    pub online: bool,
}

impl CoreEpochStats {
    /// Average power over the epoch, watts.
    pub fn power_w(&self, epoch_ns: u64) -> f64 {
        if epoch_ns == 0 {
            0.0
        } else {
            self.energy_j / (epoch_ns as f64 * 1e-9)
        }
    }

    /// Core throughput over the epoch, instructions per second
    /// (`IPS_j(k)`).
    pub fn ips(&self, epoch_ns: u64) -> f64 {
        if epoch_ns == 0 {
            0.0
        } else {
            self.counters.instructions as f64 / (epoch_ns as f64 * 1e-9)
        }
    }

    /// Core utilization: busy fraction of the epoch.
    pub fn utilization(&self, epoch_ns: u64) -> f64 {
        if epoch_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / epoch_ns as f64
        }
    }
}

/// The sensing snapshot handed to the balancer at each epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochReport {
    /// Epoch sequence number (k).
    pub epoch: u64,
    /// Epoch duration, nanoseconds.
    pub duration_ns: u64,
    /// Absolute simulation time at the end of the epoch, nanoseconds.
    pub now_ns: u64,
    /// Per-task stats, for every task that is alive (and any that
    /// exited during the epoch, flagged `alive = false`).
    pub tasks: Vec<TaskEpochStats>,
    /// Per-core stats.
    pub cores: Vec<CoreEpochStats>,
}

/// A thread-to-core assignment (`Ψ(k)` of paper Eq. 1). Tasks absent
/// from the map keep their current core.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Allocation {
    assignments: BTreeMap<TaskId, CoreId>,
}

impl Allocation {
    /// An empty allocation (no migrations).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `task` to `core`, returning the previous assignment if
    /// one existed.
    pub fn assign(&mut self, task: TaskId, core: CoreId) -> Option<CoreId> {
        self.assignments.insert(task, core)
    }

    /// The core assigned to `task`, if any.
    pub fn core_of(&self, task: TaskId) -> Option<CoreId> {
        self.assignments.get(&task).copied()
    }

    /// Number of explicit assignments.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// `true` when no task is explicitly assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterator over `(task, core)` assignments.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, CoreId)> + '_ {
        self.assignments.iter().map(|(&t, &c)| (t, c))
    }
}

impl FromIterator<(TaskId, CoreId)> for Allocation {
    fn from_iter<I: IntoIterator<Item = (TaskId, CoreId)>>(iter: I) -> Self {
        Allocation {
            assignments: iter.into_iter().collect(),
        }
    }
}

impl Extend<(TaskId, CoreId)> for Allocation {
    fn extend<I: IntoIterator<Item = (TaskId, CoreId)>>(&mut self, iter: I) {
        self.assignments.extend(iter);
    }
}

/// Why one entry of a requested [`Allocation`] was not applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationReject {
    /// The task id does not exist.
    UnknownTask,
    /// The target core id is out of range.
    UnknownCore,
    /// The task already exited.
    Exited,
    /// The task's affinity mask forbids the target core.
    AffinityForbidden,
    /// The target core is hotplugged out.
    OfflineCore,
    /// The migration transiently failed in the apply path (the
    /// simulator's stand-in for `stop_machine`/IPI failures).
    TransientFailure,
}

/// What actually landed when the system applied an [`Allocation`] —
/// the delta between what the balancer requested and reality. The
/// closed loop must consume this instead of assuming every request
/// succeeded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppliedAllocation {
    /// Entries in the requested allocation.
    pub requested: usize,
    /// Migrations that happened: `(task, from, to)`.
    pub migrated: Vec<(TaskId, CoreId, CoreId)>,
    /// Entries that did not happen and why: `(task, target, reason)`.
    /// No-op entries (task already on the target core) appear in
    /// neither list.
    pub rejected: Vec<(TaskId, CoreId, MigrationReject)>,
}

impl AppliedAllocation {
    /// Rejections matching `reason`.
    pub fn rejected_with(&self, reason: MigrationReject) -> usize {
        self.rejected.iter().filter(|r| r.2 == reason).count()
    }
}

/// Cumulative balancer-migration accounting over a whole run: every
/// [`AppliedAllocation`] folded into per-reason totals so callers (and
/// `RunResult`/chaos reports) see churn without replaying each epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationTotals {
    /// Allocation entries requested across all applies.
    pub requested: u64,
    /// Migrations performed (excludes hotplug evacuations).
    pub migrated: u64,
    /// Migrations rejected, all reasons.
    pub rejected: u64,
    /// Rejections: task unknown to the system.
    pub unknown_task: u64,
    /// Rejections: destination core does not exist.
    pub unknown_core: u64,
    /// Rejections: task exited before the apply.
    pub exited: u64,
    /// Rejections: destination not in the task's affinity mask.
    pub affinity_forbidden: u64,
    /// Rejections: destination core was offline.
    pub offline_core: u64,
    /// Rejections: transient in-flight migration failure.
    pub transient_failure: u64,
}

impl MigrationTotals {
    /// Folds one applied allocation into the totals.
    pub fn absorb(&mut self, applied: &AppliedAllocation) {
        self.requested += applied.requested as u64;
        self.migrated += applied.migrated.len() as u64;
        self.rejected += applied.rejected.len() as u64;
        for (_, _, reason) in &applied.rejected {
            match reason {
                MigrationReject::UnknownTask => self.unknown_task += 1,
                MigrationReject::UnknownCore => self.unknown_core += 1,
                MigrationReject::Exited => self.exited += 1,
                MigrationReject::AffinityForbidden => self.affinity_forbidden += 1,
                MigrationReject::OfflineCore => self.offline_core += 1,
                MigrationReject::TransientFailure => self.transient_failure += 1,
            }
        }
    }

    /// Cumulative rejections matching `reason`.
    pub fn rejected_with(&self, reason: MigrationReject) -> u64 {
        match reason {
            MigrationReject::UnknownTask => self.unknown_task,
            MigrationReject::UnknownCore => self.unknown_core,
            MigrationReject::Exited => self.exited,
            MigrationReject::AffinityForbidden => self.affinity_forbidden,
            MigrationReject::OfflineCore => self.offline_core,
            MigrationReject::TransientFailure => self.transient_failure,
        }
    }
}

/// A pluggable load balancer, invoked at every epoch boundary.
///
/// Implementations: the vanilla Linux balancer, ARM GTS and
/// SmartBalance itself all live in the `smartbalance` crate; this trait
/// is the seam between the OS substrate and the policies.
pub trait LoadBalancer {
    /// Human-readable policy name (for reports).
    fn name(&self) -> &str;

    /// Computes a new allocation from the epoch's sensing data, or
    /// `None` to leave every task where it is.
    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation>;

    /// Hands the policy a shared telemetry hub so it can record
    /// per-phase observations (sense health, annealer trajectory,
    /// predictions) into the epoch span the system opened. The default
    /// is a no-op: policies without internals to report ignore it.
    fn attach_telemetry(&mut self, _handle: &telemetry::TelemetryHandle) {}

    /// The worker budget the run configured for this policy, which
    /// [`crate::System::run_epoch`] also spends on the epoch's slice
    /// loop (core ranges on [`crate::parallel_map`]). Results never
    /// depend on it. The default of 1 keeps the loop on the calling
    /// thread; wrappers should forward their inner policy's budget.
    fn workers(&self) -> usize {
        1
    }
}

/// The null balancer: never migrates anything. Useful as an
/// experimental control and for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullBalancer;

impl LoadBalancer for NullBalancer {
    fn name(&self) -> &str {
        "none"
    }

    fn rebalance(&mut self, _platform: &Platform, _report: &EpochReport) -> Option<Allocation> {
        None
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn allocation_basics() {
        let mut a = Allocation::new();
        assert!(a.is_empty());
        assert_eq!(a.assign(TaskId(1), CoreId(2)), None);
        assert_eq!(a.assign(TaskId(1), CoreId(3)), Some(CoreId(2)));
        a.assign(TaskId(2), CoreId(3));
        assert_eq!(a.len(), 2);
        assert_eq!(a.core_of(TaskId(1)), Some(CoreId(3)));
        assert_eq!(a.core_of(TaskId(9)), None);
        let all: Vec<_> = a.iter().collect();
        assert_eq!(all, vec![(TaskId(1), CoreId(3)), (TaskId(2), CoreId(3))]);
    }

    #[test]
    fn allocation_from_iterator() {
        let a: Allocation = [(TaskId(0), CoreId(1)), (TaskId(1), CoreId(0))]
            .into_iter()
            .collect();
        assert_eq!(a.len(), 2);
        assert_eq!(a.core_of(TaskId(0)), Some(CoreId(1)));
    }

    #[test]
    fn task_stats_rates() {
        let s = TaskEpochStats {
            task: TaskId(0),
            core: CoreId(0),
            counters: CounterSample {
                instructions: 1_000_000,
                ..Default::default()
            },
            runtime_ns: 1_000_000, // 1 ms
            energy_j: 2.0e-3,
            utilization: 0.5,
            alive: true,
            kernel_thread: false,
            weight: 1024,
            allowed: u64::MAX,
        };
        assert!((s.ips() - 1.0e9).abs() < 1.0);
        assert!((s.power_w() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_runtime_task_rates_are_zero() {
        let s = TaskEpochStats {
            task: TaskId(0),
            core: CoreId(0),
            counters: CounterSample::default(),
            runtime_ns: 0,
            energy_j: 0.0,
            utilization: 0.0,
            alive: true,
            kernel_thread: false,
            weight: 1024,
            allowed: u64::MAX,
        };
        assert_eq!(s.ips(), 0.0);
        assert_eq!(s.power_w(), 0.0);
    }

    #[test]
    fn non_finite_rates_are_clamped_to_zero() {
        let s = TaskEpochStats {
            task: TaskId(0),
            core: CoreId(0),
            counters: CounterSample::default(),
            runtime_ns: 1_000,
            energy_j: f64::NAN,
            utilization: 0.0,
            alive: true,
            kernel_thread: false,
            weight: 1024,
            allowed: u64::MAX,
        };
        assert_eq!(s.power_w(), 0.0, "NaN energy must not reach the matrices");
    }

    #[test]
    fn applied_allocation_counts_rejections() {
        let a = AppliedAllocation {
            requested: 3,
            migrated: vec![(TaskId(0), CoreId(0), CoreId(1))],
            rejected: vec![
                (TaskId(1), CoreId(2), MigrationReject::OfflineCore),
                (TaskId(2), CoreId(2), MigrationReject::OfflineCore),
            ],
        };
        assert_eq!(a.rejected_with(MigrationReject::OfflineCore), 2);
        assert_eq!(a.rejected_with(MigrationReject::TransientFailure), 0);
    }

    #[test]
    fn migration_totals_accumulate_across_applies() {
        let applied = AppliedAllocation {
            requested: 3,
            migrated: vec![(TaskId(0), CoreId(0), CoreId(1))],
            rejected: vec![
                (TaskId(1), CoreId(2), MigrationReject::OfflineCore),
                (TaskId(2), CoreId(2), MigrationReject::TransientFailure),
            ],
        };
        let mut totals = MigrationTotals::default();
        totals.absorb(&applied);
        totals.absorb(&applied);
        assert_eq!(totals.requested, 6);
        assert_eq!(totals.migrated, 2);
        assert_eq!(totals.rejected, 4);
        assert_eq!(totals.rejected_with(MigrationReject::OfflineCore), 2);
        assert_eq!(totals.rejected_with(MigrationReject::TransientFailure), 2);
        assert_eq!(totals.rejected_with(MigrationReject::Exited), 0);
    }

    #[test]
    fn core_stats_rates() {
        let s = CoreEpochStats {
            core: CoreId(0),
            counters: CounterSample {
                instructions: 60_000_000,
                ..Default::default()
            },
            busy_ns: 30_000_000,
            sleep_ns: 30_000_000,
            energy_j: 0.06,
            online: true,
        };
        let epoch = 60_000_000;
        assert!((s.ips(epoch) - 1.0e9).abs() < 1.0);
        assert!((s.power_w(epoch) - 1.0).abs() < 1e-12);
        assert!((s.utilization(epoch) - 0.5).abs() < 1e-12);
        assert_eq!(s.ips(0), 0.0);
    }

    #[test]
    fn null_balancer_never_migrates() {
        let mut nb = NullBalancer;
        let report = EpochReport {
            epoch: 0,
            duration_ns: 1,
            now_ns: 1,
            tasks: vec![],
            cores: vec![],
        };
        assert_eq!(nb.name(), "none");
        assert!(nb
            .rebalance(&Platform::quad_heterogeneous(), &report)
            .is_none());
    }
}
