//! Task entities.
//!
//! Mirrors the Linux view the paper relies on: "processes and threads
//! are all treated as a *task entity* and scheduled independently"
//! (Section 3). Each task carries a workload profile, scheduling state
//! (vruntime, weight, affinity), interactivity bookkeeping and the
//! per-epoch accounting the sensing phase samples at context switches.

use archsim::{CoreId, CounterSample, EstimateCache, WorkloadCharacteristics};
use serde::Serialize;
use workloads::{PhaseCursor, WorkloadProfile};

/// Task identifier (a PID in kernel terms). Dense indices into the
/// system's task table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// A CPU-affinity mask: bit `j` set means core `j` is allowed (the
/// kernel's `cpus_allowed`). Supports up to 64 cores, enough for the
/// paper's largest scalability scenario (128 would need two words; the
/// simulator caps affinity-constrained platforms at 64 cores, and
/// `ALL_CORES` means unconstrained on any platform size).
pub type AffinityMask = u64;

/// The unconstrained affinity mask (any core).
pub const ALL_CORES: AffinityMask = u64::MAX;

/// Whether `mask` allows `core`: bit `j` for cores below 64, and only
/// [`ALL_CORES`] for cores beyond bit 63. The one affinity predicate;
/// the balancers' own masks use it too.
#[inline]
pub fn affinity_allows(mask: AffinityMask, core: CoreId) -> bool {
    core.0 < 64 && mask & (1 << core.0) != 0 || core.0 >= 64 && mask == ALL_CORES
}

/// Linux nice-to-weight table excerpt (kernel `sched_prio_to_weight`):
/// nice 0 = 1024; each nice level is a ~1.25x step.
pub const NICE_0_WEIGHT: u64 = 1024;

/// Converts a nice value (−20..=19) to a CFS load weight.
///
/// # Examples
///
/// ```
/// use kernelsim::task::nice_to_weight;
///
/// assert_eq!(nice_to_weight(0), 1024);
/// assert!(nice_to_weight(-5) > nice_to_weight(0));
/// assert!(nice_to_weight(5) < nice_to_weight(0));
/// ```
pub fn nice_to_weight(nice: i32) -> u64 {
    // The kernel's table; index by nice + 20.
    const TABLE: [u64; 40] = [
        88761, 71755, 56483, 46273, 36291, // -20 .. -16
        29154, 23254, 18705, 14949, 11916, // -15 .. -11
        9548, 7620, 6100, 4904, 3906, // -10 .. -6
        3121, 2501, 1991, 1586, 1277, // -5 .. -1
        1024, 820, 655, 526, 423, // 0 .. 4
        335, 272, 215, 172, 137, // 5 .. 9
        110, 87, 70, 56, 45, // 10 .. 14
        36, 29, 23, 18, 15, // 15 .. 19
    ];
    let idx = (nice.clamp(-20, 19) + 20) as usize;
    TABLE[idx]
}

/// Run state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// On a run queue, ready to execute.
    Runnable,
    /// Blocked until the given absolute simulation time (ns).
    Sleeping {
        /// Absolute wake-up time in nanoseconds.
        wake_at_ns: u64,
    },
    /// Finished its profile (and not repeating).
    Exited,
}

/// Per-epoch accounting for one task, reset at each epoch boundary;
/// this is what the sensing phase reads.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskEpochAccounting {
    /// Counter deltas accumulated over the epoch.
    pub counters: CounterSample,
    /// CPU time received during the epoch, nanoseconds.
    pub runtime_ns: u64,
    /// Energy attributed to this task during the epoch, joules.
    pub energy_j: f64,
    /// Number of scheduling slices (context switches) observed.
    pub slices: u64,
}

/// A schedulable task entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    id: TaskId,
    profile: WorkloadProfile,
    /// Instructions committed so far within the current profile run.
    pub(crate) progress: u64,
    /// Instructions committed since the last sleep (interactivity).
    pub(crate) burst_progress: u64,
    /// Outstanding migration penalty to be paid before useful work, ns.
    pub(crate) migration_debt_ns: u64,
    /// Current state.
    pub(crate) state: TaskState,
    /// Core this task is currently assigned to.
    pub(crate) core: CoreId,
    /// CFS virtual runtime, weighted nanoseconds.
    pub(crate) vruntime_ns: u64,
    nice: i32,
    weight: u64,
    kernel_thread: bool,
    repeat: bool,
    allowed: AffinityMask,
    /// Completed profile iterations (relevant when `repeat`).
    pub(crate) iterations: u64,
    /// Simulation time of first exit, if any.
    pub(crate) exited_at_ns: Option<u64>,
    /// Total CPU time ever received, ns.
    pub(crate) total_runtime_ns: u64,
    /// Total instructions ever committed.
    pub(crate) total_instructions: u64,
    /// Number of migrations performed on this task.
    pub(crate) migrations: u64,
    /// Per-epoch accounting (reset each epoch).
    pub(crate) epoch: TaskEpochAccounting,
    /// Memoized phase position: progress is monotone within a profile
    /// iteration, so phase lookups through this cursor are O(1)
    /// amortized instead of O(phases). Pure acceleration state: it
    /// rewinds itself whenever progress moves backwards (profile
    /// restart), so any cursor position yields correct lookups.
    pub(crate) phase_cursor: PhaseCursor,
    /// Memoized pipeline estimates, one per (phase, core type, DVFS
    /// level) this task has run at. Pure acceleration state, like the
    /// cursor: cleared on exit, and a DVFS change drops the retuned
    /// type's entries.
    pub(crate) memo: EstimateCache,
}

impl Task {
    /// Creates a runnable user task on core `core`.
    pub fn new(id: TaskId, profile: WorkloadProfile, core: CoreId) -> Self {
        Task {
            id,
            profile,
            progress: 0,
            burst_progress: 0,
            migration_debt_ns: 0,
            state: TaskState::Runnable,
            core,
            vruntime_ns: 0,
            nice: 0,
            weight: NICE_0_WEIGHT,
            kernel_thread: false,
            repeat: false,
            allowed: ALL_CORES,
            iterations: 0,
            exited_at_ns: None,
            total_runtime_ns: 0,
            total_instructions: 0,
            migrations: 0,
            epoch: TaskEpochAccounting::default(),
            phase_cursor: PhaseCursor::new(),
            memo: EstimateCache::new(),
        }
    }

    /// Builder: sets the nice value (clamped to −20..=19).
    pub fn with_nice(mut self, nice: i32) -> Self {
        self.nice = nice.clamp(-20, 19);
        self.weight = nice_to_weight(self.nice);
        self
    }

    /// Builder: marks this task as a kernel thread (the paper tags user
    /// threads in `sched_fork()`; balancers may treat kernel threads
    /// specially).
    pub fn as_kernel_thread(mut self) -> Self {
        self.kernel_thread = true;
        self
    }

    /// Builder: restart the profile from the beginning upon completion
    /// (a steady-state server thread).
    pub fn repeating(mut self) -> Self {
        self.repeat = true;
        self
    }

    /// Builder: restricts the task to the cores set in `mask` (the
    /// kernel's `sched_setaffinity`). The paper notes such "special
    /// constraints can easily be included"; balancers must honour them.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty or does not allow the task's initial
    /// core.
    pub fn with_affinity(mut self, mask: AffinityMask) -> Self {
        assert!(mask != 0, "affinity mask must allow at least one core");
        assert!(
            mask & (1 << self.core.0) != 0,
            "affinity mask must allow the initial core {}",
            self.core
        );
        self.allowed = mask;
        self
    }

    /// The task's CPU-affinity mask.
    pub fn affinity(&self) -> AffinityMask {
        self.allowed
    }

    /// Whether `core` is allowed by the task's affinity mask.
    pub fn allows_core(&self, core: CoreId) -> bool {
        affinity_allows(self.allowed, core)
    }

    /// Task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The workload profile driving this task.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Current state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Core the task is currently assigned to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// CFS load weight.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Nice value.
    pub fn nice(&self) -> i32 {
        self.nice
    }

    /// Whether this is a kernel thread.
    pub fn is_kernel_thread(&self) -> bool {
        self.kernel_thread
    }

    /// Whether the profile restarts upon completion.
    pub fn is_repeating(&self) -> bool {
        self.repeat
    }

    /// Instructions committed in the current profile iteration.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// Total instructions committed over the task's lifetime.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Total CPU time received, nanoseconds.
    pub fn total_runtime_ns(&self) -> u64 {
        self.total_runtime_ns
    }

    /// Number of completed profile iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Number of times the task has been migrated between cores.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Simulation time at which the task exited, if it has.
    pub fn exited_at_ns(&self) -> Option<u64> {
        self.exited_at_ns
    }

    /// CFS virtual runtime, weighted nanoseconds.
    pub fn vruntime_ns(&self) -> u64 {
        self.vruntime_ns
    }

    /// Whether the task has committed all its instructions (and is not
    /// repeating).
    pub fn is_exited(&self) -> bool {
        matches!(self.state, TaskState::Exited)
    }

    /// Instructions remaining in the current iteration.
    pub fn remaining_instructions(&self) -> u64 {
        self.profile
            .total_instructions()
            .saturating_sub(self.progress)
    }

    /// Resolves the task's current execution phase through its memoized
    /// cursor: `(phase index, characteristics, instructions left in the
    /// phase)`. The remaining count is `None` once the profile is
    /// complete, mirroring [`WorkloadProfile::remaining_in_phase`].
    ///
    /// Takes `&mut self` only to advance the cursor; observable task
    /// state is untouched and the result is identical to the O(phases)
    /// scans `characteristics_at`/`remaining_in_phase` perform.
    pub fn phase_view(&mut self) -> (usize, WorkloadCharacteristics, Option<u64>) {
        let progress = self.progress;
        let idx = self
            .profile
            .phase_index_at(&mut self.phase_cursor, progress);
        let w = *self
            .profile
            .characteristics_with(&mut self.phase_cursor, progress);
        let remaining = self
            .profile
            .remaining_in_phase_with(&mut self.phase_cursor, progress);
        (idx, w, remaining)
    }

    /// Remaining instructions before the next sleep, if the task is
    /// interactive; `None` for fully CPU-bound tasks.
    pub fn remaining_burst(&self) -> Option<u64> {
        let pattern = self.profile.sleep_pattern()?;
        Some(
            pattern
                .burst_instructions
                .saturating_sub(self.burst_progress)
                .max(1),
        )
    }

    /// Resets the per-epoch accounting (called at epoch boundaries).
    pub(crate) fn reset_epoch(&mut self) {
        self.epoch = TaskEpochAccounting::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::WorkloadCharacteristics;
    use workloads::{SleepPattern, WorkloadProfile};

    fn profile() -> WorkloadProfile {
        WorkloadProfile::uniform("p", WorkloadCharacteristics::balanced(), 1_000)
    }

    #[test]
    fn weight_table_is_monotone() {
        let mut prev = u64::MAX;
        for nice in -20..=19 {
            let w = nice_to_weight(nice);
            assert!(w < prev, "weight must strictly decrease with nice");
            prev = w;
        }
        assert_eq!(nice_to_weight(0), NICE_0_WEIGHT);
        assert_eq!(nice_to_weight(-100), nice_to_weight(-20));
        assert_eq!(nice_to_weight(100), nice_to_weight(19));
    }

    #[test]
    fn builders() {
        let t = Task::new(TaskId(1), profile(), CoreId(2))
            .with_nice(5)
            .as_kernel_thread()
            .repeating();
        assert_eq!(t.nice(), 5);
        assert_eq!(t.weight(), nice_to_weight(5));
        assert!(t.is_kernel_thread());
        assert!(t.is_repeating());
        assert_eq!(t.core(), CoreId(2));
        assert_eq!(t.state(), TaskState::Runnable);
    }

    #[test]
    fn remaining_instructions_tracks_progress() {
        let mut t = Task::new(TaskId(0), profile(), CoreId(0));
        assert_eq!(t.remaining_instructions(), 1_000);
        t.progress = 400;
        assert_eq!(t.remaining_instructions(), 600);
        t.progress = 2_000;
        assert_eq!(t.remaining_instructions(), 0);
    }

    #[test]
    fn remaining_burst_only_for_interactive() {
        let t = Task::new(TaskId(0), profile(), CoreId(0));
        assert_eq!(t.remaining_burst(), None);
        let ip = profile().with_sleep(SleepPattern::new(100, 50));
        let mut it = Task::new(TaskId(1), ip, CoreId(0));
        assert_eq!(it.remaining_burst(), Some(100));
        it.burst_progress = 60;
        assert_eq!(it.remaining_burst(), Some(40));
        it.burst_progress = 100;
        // Never returns zero (forces forward progress).
        assert_eq!(it.remaining_burst(), Some(1));
    }

    #[test]
    fn phase_view_matches_linear_scans() {
        use workloads::Phase;
        let p = WorkloadProfile::new(
            "multi",
            vec![
                Phase::new(WorkloadCharacteristics::compute_bound(), 500),
                Phase::new(WorkloadCharacteristics::memory_bound(), 300),
                Phase::new(WorkloadCharacteristics::branch_bound(), 200),
            ],
        );
        let mut t = Task::new(TaskId(0), p.clone(), CoreId(0));
        for progress in [0, 1, 499, 500, 700, 799, 800, 999, 1000, 1500] {
            t.progress = progress;
            let (_, w, rem) = t.phase_view();
            assert_eq!(&w, p.characteristics_at(progress), "progress {progress}");
            assert_eq!(rem, p.remaining_in_phase(progress), "progress {progress}");
        }
        // A repeating task restarting its profile rewinds the cursor.
        t.progress = 900;
        t.phase_view();
        t.progress = 0;
        let (idx, _, rem) = t.phase_view();
        assert_eq!(idx, 0);
        assert_eq!(rem, Some(500));
    }

    #[test]
    fn epoch_reset() {
        let mut t = Task::new(TaskId(0), profile(), CoreId(0));
        t.epoch.runtime_ns = 55;
        t.epoch.slices = 3;
        t.reset_epoch();
        assert_eq!(t.epoch.runtime_ns, 0);
        assert_eq!(t.epoch.slices, 0);
    }
}
