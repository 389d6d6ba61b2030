//! The machine: platform + tasks + per-core CFS queues and accounts,
//! advanced period-by-period by a deterministic discrete-event loop.
//!
//! Each core independently schedules its run queue within every CFS
//! scheduling period (`T_jk(l)` in the paper); per-slice execution is
//! delegated to `archsim`. Each slice and each power-gated stretch is
//! billed once, to its task and to its core's account, which prices it
//! with the core's `mcpat` power model and holds both the open epoch's
//! row and the since-boot totals. Because tasks move only between
//! epochs, an epoch's periods run over contiguous core ranges on the
//! worker pool, bit-identically at any worker count. At every epoch
//! boundary (L periods, Fig. 2) the system builds an [`EpochReport`]
//! from the accounts — the sense phase — hands it to the pluggable
//! balancer, and applies the returned allocation through the migration
//! path. [`System::stats`] reads the since-boot totals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use archsim::{
    synthesize, time_to_complete_ns_with, CoreConfig, CoreId, CoreTypeId, CounterSample,
    EstimateKey, FaultHarness, FaultPlan, MemoStats, Platform,
};
use mcpat::{CorePowerModel, PowerState};
use serde::{Deserialize, Serialize};
use workloads::WorkloadProfile;

use crate::balancer::{
    Allocation, AppliedAllocation, CoreEpochStats, EpochReport, LoadBalancer, MigrationReject,
    MigrationTotals, TaskEpochStats,
};
use crate::cfs::CfsRunQueue;
use crate::pool::parallel_map;
use crate::stats::{CoreStats, SystemStats};
use crate::task::{Task, TaskId, TaskState};
use crate::topology::Topology;
use telemetry::{TelemetryHandle, TraceEvent, TraceLevel};

/// Simulation configuration: the timing constants of paper Fig. 1(c)/2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SystemConfig {
    /// CFS scheduling-period length `T_jk`, nanoseconds (default 6 ms).
    pub period_ns: u64,
    /// Scheduling periods per SmartBalance epoch `L` (default 10, i.e.
    /// the paper's 60 ms epoch).
    pub epoch_periods: u64,
    /// Cost charged to a migrated thread before it makes progress on
    /// its new core (cold caches), nanoseconds.
    pub migration_cost_ns: u64,
    /// Activity factor billed while a migrated thread refills caches.
    pub migration_activity: f64,
}

impl SystemConfig {
    /// Epoch length in nanoseconds (`period_ns * epoch_periods`).
    pub fn epoch_ns(&self) -> u64 {
        self.period_ns * self.epoch_periods
    }

    /// [`System::new`]'s checks, failing with a message that names the
    /// offending field.
    fn checked(self) -> Result<Self, String> {
        if self.period_ns == 0 {
            return Err("period_ns: scheduling period must be positive".into());
        }
        if self.epoch_periods == 0 {
            return Err("epoch_periods: an epoch needs at least one period".into());
        }
        let activity = self.migration_activity;
        if !(0.0..=1.0).contains(&activity) {
            return Err(format!(
                "migration_activity: migration activity must be in [0, 1], got {activity}"
            ));
        }
        Ok(self)
    }
}

/// Deserializes through [`System::new`]'s checks, which a derived impl
/// would skip.
impl Deserialize for SystemConfig {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        SystemConfig {
            period_ns: field(v, "period_ns")?,
            epoch_periods: field(v, "epoch_periods")?,
            migration_cost_ns: field(v, "migration_cost_ns")?,
            migration_activity: field(v, "migration_activity")?,
        }
        .checked()
        .map_err(serde::Error::new)
    }
}

/// Deserializes field `name` of `v`, naming it in the error.
fn field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
    T::deserialize_value(v.map_get(name)).map_err(|e| serde::Error::new(format!("{name}: {e}")))
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            period_ns: 6_000_000,
            epoch_periods: 10,
            migration_cost_ns: 50_000,
            migration_activity: 0.3,
        }
    }
}

/// Smallest slice the scheduler will dispatch, ns; bounds the event
/// loop's work per period.
const SLICE_FLOOR_NS: u64 = 10_000;

/// Fewest cores a range of the epoch's slice loop may hold: below it a
/// range does not repay the pool's thread hand-off (DESIGN.md "Slice
/// loop" has the measurement).
const MIN_RANGE_CORES: usize = 64;

/// Load a live task adds to its core when the slice loop balances its
/// core ranges; an empty core counts 1 (its per-period sleep
/// bookkeeping), and a task costs a few slices per period.
const TASK_LOAD: usize = 4;

/// Per-core min-heap of pending `(wake_at_ns, task)` events.
type WakeHeap = BinaryHeap<Reverse<(u64, TaskId)>>;

/// One core's account: its calibrated power model, what the open epoch
/// has billed to it (the [`EpochReport`] row) and its since-boot totals
/// (the [`SystemStats`] row). The slice loop bills each slice and each
/// sleep to it once; a core range borrows its cores' accounts.
#[derive(Debug)]
struct CoreAccount {
    model: CorePowerModel,
    epoch_counters: CounterSample,
    epoch_busy_ns: u64,
    epoch_sleep_ns: u64,
    epoch_energy_j: f64,
    instructions: u64,
    energy_j: f64,
    busy_ns: u64,
    sleep_ns: u64,
}

impl CoreAccount {
    fn new(config: &CoreConfig) -> Self {
        CoreAccount {
            model: CorePowerModel::calibrated(config),
            epoch_counters: CounterSample::default(),
            epoch_busy_ns: 0,
            epoch_sleep_ns: 0,
            epoch_energy_j: 0.0,
            instructions: 0,
            energy_j: 0.0,
            busy_ns: 0,
            sleep_ns: 0,
        }
    }

    /// Bills `duration_ns` of execution at `activity` that produced
    /// `counters`; returns the energy billed, joules.
    #[inline]
    fn bill_busy(&mut self, counters: CounterSample, activity: f64, duration_ns: u64) -> f64 {
        let energy_j = self
            .model
            .energy_j(PowerState::Active { activity }, duration_ns);
        self.epoch_counters += counters;
        self.epoch_busy_ns += duration_ns;
        self.epoch_energy_j += energy_j;
        self.instructions += counters.instructions;
        self.busy_ns += duration_ns;
        self.energy_j += energy_j;
        energy_j
    }

    /// Bills `duration_ns` power-gated, `cycles` of it on the sleep
    /// counter.
    #[inline]
    fn bill_sleep(&mut self, cycles: u64, duration_ns: u64) {
        let energy_j = self.model.energy_j(PowerState::Sleeping, duration_ns);
        self.epoch_counters.cy_sleep += cycles;
        self.epoch_sleep_ns += duration_ns;
        self.epoch_energy_j += energy_j;
        self.sleep_ns += duration_ns;
        self.energy_j += energy_j;
    }

    /// The open epoch's row of the sensing report.
    fn epoch_row(&self, core: CoreId, online: bool) -> CoreEpochStats {
        CoreEpochStats {
            core,
            counters: self.epoch_counters,
            busy_ns: self.epoch_busy_ns,
            sleep_ns: self.epoch_sleep_ns,
            energy_j: self.epoch_energy_j,
            online,
        }
    }

    /// Starts a new epoch; the since-boot totals carry on.
    fn close_epoch(&mut self) {
        self.epoch_counters = CounterSample::default();
        self.epoch_busy_ns = 0;
        self.epoch_sleep_ns = 0;
        self.epoch_energy_j = 0.0;
    }

    /// The since-boot totals.
    fn totals(&self) -> CoreStats {
        CoreStats {
            instructions: self.instructions,
            energy_j: self.energy_j,
            busy_ns: self.busy_ns,
            sleep_ns: self.sleep_ns,
        }
    }
}

/// Probabilistic failure of the migration apply path (the simulator's
/// stand-in for `stop_machine`/IPI timeouts on real hardware). Uses a
/// small stateful xorshift64* stream: [`Allocation`] iterates its
/// entries in deterministic `BTreeMap` order, so runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MigrationFaultModel {
    prob: f64,
    state: u64,
}

impl MigrationFaultModel {
    fn new(prob: f64, seed: u64) -> Self {
        MigrationFaultModel {
            prob,
            state: seed | 1,
        }
    }

    /// Rolls one migration attempt; `true` means it fails.
    fn fails(&mut self) -> bool {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.prob
    }
}

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use archsim::{Platform, WorkloadCharacteristics};
/// use kernelsim::{NullBalancer, System, SystemConfig};
/// use workloads::WorkloadProfile;
///
/// let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
/// sys.spawn(WorkloadProfile::uniform(
///     "w",
///     WorkloadCharacteristics::balanced(),
///     10_000_000,
/// ));
/// let mut balancer = NullBalancer;
/// sys.run_epoch(&mut balancer);
/// assert!(sys.stats().total_instructions > 0);
/// ```
#[derive(Debug)]
pub struct System {
    platform: Platform,
    config: SystemConfig,
    tasks: Vec<Task>,
    /// Ids of the tasks live at the last epoch boundary plus those
    /// spawned since, ascending. Tasks that exit mid-epoch stay until
    /// [`System::finish_epoch`] compacts the list, so the epoch report
    /// still carries their final row. Every per-epoch and per-spawn
    /// walk goes through this list, never the whole `tasks` table.
    live: Vec<TaskId>,
    queues: Vec<CfsRunQueue>,
    /// Per-core account of every slice and sleep billed to the core.
    accounts: Vec<CoreAccount>,
    now_ns: u64,
    epoch_index: u64,
    total_migrations: u64,
    /// Cluster decomposition of the platform (contiguous same-type
    /// runs), derived once at boot. Purely descriptive: scheduling and
    /// wake placement never read it, only migration accounting and
    /// cluster-aware balancers do.
    topology: Topology,
    /// Migrations that crossed a cluster boundary (the expensive kind
    /// on real parts: remote caches, interconnect hops).
    cross_cluster_migrations: u64,
    /// Whether dispatch reads and fills the tasks' estimate memos
    /// (off only for the uncached parity oracle).
    caching: bool,
    /// Hit/miss counts of every estimate lookup since boot, summed
    /// over the slice loop's core ranges.
    memo: MemoStats,
    /// Per task id: the task's index among its core range's tasks
    /// during the current call of the slice loop (stale otherwise).
    /// Lets a range find its own tasks, and recognize any other task
    /// as not its own, without touching them.
    slot: Vec<u32>,
    /// Per-core-type DVFS generation counter; part of every cache key,
    /// bumped by [`System::set_operating_point`] so an operating-point
    /// change can never serve a stale estimate.
    dvfs_level: Vec<u32>,
    /// Every core type's configuration at boot: each operating point
    /// is derived from these, never from the current point.
    nominal_types: Vec<CoreConfig>,
    /// Per-core min-heap of pending `(wake_at_ns, task)` events, with
    /// lazy deletion: migration and re-sleep leave stale entries that
    /// are dropped when popped. Replaces the O(tasks) scan the idle
    /// path and slice bounding used to perform per slice.
    wake_heaps: Vec<WakeHeap>,
    /// Scheduling slices dispatched since boot (hot-loop throughput
    /// denominator for the perf harness).
    total_slices: u64,
    /// Per-core hotplug state; offline cores schedule nothing and draw
    /// no power.
    core_online: Vec<bool>,
    /// Per-core thermal-throttle duty cycle in `(0, 1]`: the fraction
    /// of each scheduling period the core may execute (the rest is
    /// clock-gated).
    core_duty: Vec<f64>,
    /// Sensor fault interpreter; when set, every [`EpochReport`] passes
    /// through it (the ground truth in `accounts` stays clean).
    faults: Option<FaultHarness>,
    /// Probabilistic migration failure in the allocation-apply path.
    migration_fail: Option<MigrationFaultModel>,
    /// Outcome of the most recent [`System::apply_allocation`].
    last_applied: Option<AppliedAllocation>,
    /// Cumulative per-reason migration accounting across every apply.
    alloc_totals: MigrationTotals,
    /// Optional shared observability hub; when attached, every epoch is
    /// bracketed by an [`telemetry::EpochObs`] span, allocation applies
    /// feed the migration counters and scheduler events go to its
    /// event ring at its trace level. Never affects scheduling.
    telemetry: Option<TelemetryHandle>,
}

impl System {
    /// Creates an idle system on `platform`.
    ///
    /// # Panics
    ///
    /// Panics if `config.period_ns` or `config.epoch_periods` is zero,
    /// or the migration activity is outside `[0, 1]`.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; deserialization returns the same check as an error"
    )]
    pub fn new(platform: Platform, config: SystemConfig) -> Self {
        let config = config.checked().unwrap_or_else(|e| panic!("{e}"));
        let n = platform.num_cores();
        let q = platform.num_types();
        let accounts = platform
            .cores()
            .map(|c| CoreAccount::new(platform.core_config(c)))
            .collect();
        let topology = Topology::from_platform(&platform);
        let nominal_types = platform.types().map(|(_, t)| t.clone()).collect();
        System {
            platform,
            config,
            tasks: Vec::new(),
            live: Vec::new(),
            queues: vec![CfsRunQueue::new(); n],
            accounts,
            now_ns: 0,
            epoch_index: 0,
            total_migrations: 0,
            topology,
            cross_cluster_migrations: 0,
            caching: true,
            memo: MemoStats::default(),
            slot: Vec::new(),
            dvfs_level: vec![0; q],
            nominal_types,
            wake_heaps: vec![BinaryHeap::new(); n],
            total_slices: 0,
            core_online: vec![true; n],
            core_duty: vec![1.0; n],
            faults: None,
            migration_fail: None,
            last_applied: None,
            alloc_totals: MigrationTotals::default(),
            telemetry: None,
        }
    }

    /// Attaches a shared telemetry hub, the one way to observe or
    /// trace the system. From the next epoch on, the system opens and
    /// closes one span per `run_epoch` and records allocation outcomes;
    /// from this call on, it hands the hub the scheduler events (the
    /// simulator's `ftrace`) that the hub's
    /// [`telemetry::Telemetry::set_trace`] level asks for. Pair with
    /// [`LoadBalancer::attach_telemetry`] on the policy to fill in the
    /// balancer-side phases.
    pub fn set_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = Some(handle);
    }

    /// Hands one scheduler event to the attached hub, if any; the hub
    /// keeps it if its trace level covers the event.
    fn record_event(&self, event: TraceEvent) {
        if let Some(tel) = &self.telemetry {
            tel.borrow_mut().record_events([event]);
        }
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current simulation time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// All tasks ever spawned, exited ones included, indexed by
    /// [`TaskId`] (ids are dense). The table only grows; per-epoch
    /// scheduler work walks the live set instead (see
    /// [`System::live_tasks`]).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Reference to one task.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never spawned.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Spawns a task on the least-loaded core (the kernel's fork-time
    /// wake balancing), returning its id.
    pub fn spawn(&mut self, profile: WorkloadProfile) -> TaskId {
        let core = self.least_loaded_core();
        self.spawn_on(profile, core)
    }

    /// Spawns a task pinned initially to `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the platform or hotplugged
    /// out.
    pub fn spawn_on(&mut self, profile: WorkloadProfile, core: CoreId) -> TaskId {
        assert!(core.0 < self.platform.num_cores(), "no such core {core}");
        assert!(self.core_online[core.0], "core {core} is offline");
        let id = TaskId(self.tasks.len());
        let task = Task::new(id, profile, core);
        self.enqueue_task_struct(task)
    }

    /// Spawns a pre-built task (use [`Task::new`] plus builders for
    /// nice values, kernel threads or repeating servers).
    ///
    /// # Panics
    ///
    /// Panics if the task's id does not equal the next free id, or its
    /// core is out of range for the platform or hotplugged out.
    pub fn spawn_task(&mut self, task: Task) -> TaskId {
        assert_eq!(
            task.id().0,
            self.tasks.len(),
            "task id must be the next free id (use System::next_task_id)"
        );
        let core = task.core();
        assert!(core.0 < self.platform.num_cores(), "no such core {core}");
        assert!(self.core_online[core.0], "core {core} is offline");
        self.enqueue_task_struct(task)
    }

    /// The id the next spawned task will receive.
    pub fn next_task_id(&self) -> TaskId {
        TaskId(self.tasks.len())
    }

    fn enqueue_task_struct(&mut self, mut task: Task) -> TaskId {
        let id = task.id();
        let core = task.core();
        if matches!(task.state(), TaskState::Runnable) {
            let v = self.queues[core.0].enqueue(id, task.vruntime_ns, task.weight());
            task.vruntime_ns = v;
        } else if let TaskState::Sleeping { wake_at_ns } = task.state() {
            self.wake_heaps[core.0].push(Reverse((wake_at_ns, id)));
        }
        self.tasks.push(task);
        self.live.push(id);
        self.slot.push(u32::MAX);
        self.record_event(TraceEvent::Spawn {
            at_ns: self.now_ns,
            task: id.0 as u64,
            core: core.0 as u64,
        });
        id
    }

    /// Total CFS weight of the live tasks on each core, in one pass over
    /// the live set.
    fn core_weights(&self) -> Vec<u64> {
        let mut weights = vec![0u64; self.platform.num_cores()];
        for t in self.live_iter() {
            weights[t.core().0] += t.weight();
        }
        weights
    }

    /// The live-set tasks that have not exited (the list also holds
    /// tasks that exited since the last epoch boundary).
    fn live_iter(&self) -> impl Iterator<Item = &Task> {
        self.live
            .iter()
            .map(|id| &self.tasks[id.0])
            .filter(|t| !t.is_exited())
    }

    fn least_loaded_core(&self) -> CoreId {
        let weights = self.core_weights();
        let mut best = CoreId(0);
        let mut best_weight = u64::MAX;
        for c in self.platform.cores() {
            if self.core_online[c.0] && weights[c.0] < best_weight {
                best_weight = weights[c.0];
                best = c;
            }
        }
        best
    }

    /// Number of live (non-exited) tasks. Counts over the live set, so
    /// the cost is independent of how many tasks have exited before
    /// the last epoch boundary.
    pub fn live_tasks(&self) -> usize {
        self.live_iter().count()
    }

    /// Runs one CFS scheduling period on every core: the slice loop
    /// of [`System::run_epoch`] for a single period, on the calling
    /// thread. Offline cores are skipped entirely (powered off, no
    /// energy); thermally throttled cores execute only their
    /// duty-cycle fraction of the period and are clock-gated for the
    /// rest.
    pub fn run_period(&mut self) {
        self.run_periods(1, 1);
    }

    /// Runs a full epoch (L periods), then performs the
    /// sense → balance hand-off with `balancer` and applies any
    /// returned allocation. Returns the epoch's sensing report.
    ///
    /// The periods run on up to [`LoadBalancer::workers`] threads,
    /// one contiguous range of cores each; results never depend on
    /// the worker count.
    pub fn run_epoch(&mut self, balancer: &mut dyn LoadBalancer) -> EpochReport {
        if let Some(tel) = &self.telemetry {
            tel.borrow_mut().epoch_start(self.epoch_index, self.now_ns);
        }
        self.run_periods(self.config.epoch_periods, balancer.workers());
        let report = self.build_epoch_report();
        if let Some(alloc) = balancer.rebalance(&self.platform, &report) {
            self.apply_allocation(&alloc);
        }
        self.finish_epoch();
        report
    }

    /// Runs epochs until every task has exited or `max_epochs` elapse;
    /// returns the number of epochs executed.
    pub fn run_to_completion(&mut self, balancer: &mut dyn LoadBalancer, max_epochs: u64) -> u64 {
        let mut epochs = 0;
        while epochs < max_epochs && self.live_tasks() > 0 {
            self.run_epoch(balancer);
            epochs += 1;
        }
        epochs
    }

    // ------------------------------------------------------------------
    // The slice loop: core ranges on the worker pool
    // ------------------------------------------------------------------

    /// Runs `periods` scheduling periods on every core, over at most
    /// `workers` contiguous core ranges, one pool task per range.
    ///
    /// Tasks only move between cores at epoch boundaries, so within
    /// the call no core reads another core's state: each range borrows
    /// its cores' run queues, wake heaps and accounts, plus exactly the
    /// live tasks on those cores, and runs its cores one after another
    /// through all the periods. Every task and every account therefore
    /// takes the same adds in the same order at any worker count. The
    /// attached hub's trace level is read once per call; scheduler
    /// events are buffered per range and handed to the hub in one
    /// borrow, in period order, then ascending core.
    fn run_periods(&mut self, periods: u64, workers: usize) {
        let bounds = self.range_bounds(workers);
        let start_ns = self.now_ns;
        let trace = self
            .telemetry
            .as_ref()
            .map_or(TraceLevel::Off, |tel| tel.borrow().trace_level());
        let mut ranges: Vec<CoreRange<'_>> = Vec::with_capacity(bounds.len() - 1);
        let (mut queues, mut heaps, mut accounts) = (
            &mut self.queues[..],
            &mut self.wake_heaps[..],
            &mut self.accounts[..],
        );
        for w in bounds.windows(2) {
            let len = w[1] - w[0];
            ranges.push(CoreRange {
                first: w[0],
                queues: split_off_front(&mut queues, len),
                wake_heaps: split_off_front(&mut heaps, len),
                accounts: split_off_front(&mut accounts, len),
                tasks: Vec::new(),
                out: RangeOutput::default(),
            });
        }
        // Hand every live task to the range of its core, walking the
        // table once in the live list's ascending id order.
        let mut rest = &mut self.tasks[..];
        let mut base = 0;
        for id in &self.live {
            let Some((task, tail)) = std::mem::take(&mut rest)[id.0 - base..].split_first_mut()
            else {
                break;
            };
            rest = tail;
            base = id.0 + 1;
            if task.is_exited() {
                continue;
            }
            let r = bounds.partition_point(|&b| b <= task.core.0) - 1;
            self.slot[id.0] = u32::try_from(ranges[r].tasks.len()).unwrap_or(u32::MAX);
            ranges[r].tasks.push(task);
        }
        let ctx = LoopCtx {
            platform: &self.platform,
            config: &self.config,
            online: &self.core_online,
            duty: &self.core_duty,
            dvfs_level: &self.dvfs_level,
            slot: &self.slot,
            caching: self.caching,
            trace,
            start_ns,
            periods,
        };
        let outputs = parallel_map(ranges, workers, |_, mut range| {
            range.run(&ctx);
            range.out
        });
        for out in &outputs {
            self.total_slices += out.slices;
            self.memo.absorb(out.memo);
        }
        if let Some(tel) = self.telemetry.as_ref().filter(|_| trace > TraceLevel::Off) {
            let mut hub = tel.borrow_mut();
            let periods = usize::try_from(periods).unwrap_or(usize::MAX);
            for p in 0..periods {
                for (out, w) in outputs.iter().zip(bounds.windows(2)) {
                    for local in 0..w[1] - w[0] {
                        let chunk = local * periods + p;
                        hub.record_events(
                            out.events[out.marks[chunk]..out.marks[chunk + 1]]
                                .iter()
                                .copied(),
                        );
                    }
                }
            }
        }
        self.now_ns = start_ns + periods * self.config.period_ns;
    }

    /// Where the slice loop's core ranges start, plus the core count as
    /// the last entry: at most `workers` ranges, and no more than one
    /// per [`MIN_RANGE_CORES`] cores. Cuts fall on cluster boundaries,
    /// each at the boundary nearest an equal share of the load, where
    /// a core's load is 1 plus [`TASK_LOAD`] per live task on it.
    fn range_bounds(&self, workers: usize) -> Vec<usize> {
        let n = self.platform.num_cores();
        let ranges = workers.min(n / MIN_RANGE_CORES).max(1);
        let mut bounds = vec![0];
        if ranges > 1 {
            let mut load = vec![1; n];
            for t in self.live_iter() {
                load[t.core().0] += TASK_LOAD;
            }
            let total: usize = load.iter().sum();
            let mut before = 0;
            for c in self.topology.clusters() {
                let cores = self.topology.cores_of(c);
                let start = cores.first().map_or(0, |core| core.0);
                let own: usize = cores.iter().map(|core| load[core.0]).sum();
                let k = bounds.len();
                // Cut before `c` once its midpoint reaches the k-th share.
                if k < ranges && (2 * before + own) * ranges >= 2 * k * total && start > 0 {
                    bounds.push(start);
                }
                before += own;
            }
        }
        bounds.push(n);
        bounds
    }

    // ------------------------------------------------------------------
    // Epoch boundary: sensing report, migration, bookkeeping
    // ------------------------------------------------------------------

    fn build_epoch_report(&mut self) -> EpochReport {
        let duration_ns = self.config.epoch_ns();
        let tasks = self
            .live
            .iter()
            .map(|id| &self.tasks[id.0])
            .filter(|t| !t.is_exited() || t.epoch.runtime_ns > 0)
            .map(|t| TaskEpochStats {
                task: t.id(),
                core: t.core(),
                counters: t.epoch.counters,
                runtime_ns: t.epoch.runtime_ns,
                energy_j: t.epoch.energy_j,
                utilization: t.epoch.runtime_ns as f64 / duration_ns as f64,
                alive: !t.is_exited(),
                kernel_thread: t.is_kernel_thread(),
                weight: t.weight(),
                allowed: t.affinity(),
            })
            .collect();
        let cores = self
            .platform
            .cores()
            .map(|c| self.accounts[c.0].epoch_row(c, self.core_online[c.0]))
            .collect();
        let mut report = EpochReport {
            epoch: self.epoch_index,
            duration_ns,
            now_ns: self.now_ns,
            tasks,
            cores,
        };
        // Sensor faults corrupt what the controller *sees*; the ground
        // truth in the core accounts stays clean.
        // (Under active faults the per-task and per-core ledgers of the
        // report may deliberately disagree — sensors lie independently.)
        if let Some(h) = self.faults.as_mut() {
            h.advance_to_epoch(report.epoch);
            if !h.is_quiescent() {
                for t in &mut report.tasks {
                    let (c, e) =
                        h.corrupt_reading(t.core.0, t.task.0 as u64 + 1, t.counters, t.energy_j);
                    t.counters = c;
                    t.energy_j = e;
                }
                for core in &mut report.cores {
                    let (c, e) = h.corrupt_reading(core.core.0, 0, core.counters, core.energy_j);
                    core.counters = c;
                    core.energy_j = e;
                }
            }
        }
        report
    }

    /// Applies a new allocation: migrates every live task whose target
    /// differs from its current core (the `set_cpus_allowed_ptr()`
    /// path), charging the migration cost. Entries that cannot be
    /// applied — unknown ids, exited tasks, affinity violations,
    /// offline targets, transient apply-path failures — are skipped,
    /// and the returned [`AppliedAllocation`] reports exactly what
    /// landed and what was rejected (also kept in
    /// [`System::last_applied`]).
    pub fn apply_allocation(&mut self, alloc: &Allocation) -> AppliedAllocation {
        let mut applied = AppliedAllocation {
            requested: alloc.len(),
            ..Default::default()
        };
        for (tid, target) in alloc.iter() {
            if tid.0 >= self.tasks.len() {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::UnknownTask));
                continue;
            }
            if target.0 >= self.platform.num_cores() {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::UnknownCore));
                continue;
            }
            let (current, state) = {
                let t = &self.tasks[tid.0];
                (t.core(), t.state)
            };
            if matches!(state, TaskState::Exited) {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::Exited));
                continue;
            }
            if current == target {
                continue; // no-op entry, neither migrated nor rejected
            }
            if !self.tasks[tid.0].allows_core(target) {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::AffinityForbidden));
                continue;
            }
            if !self.core_online[target.0] {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::OfflineCore));
                continue;
            }
            if let Some(m) = self.migration_fail.as_mut() {
                if m.fails() {
                    applied
                        .rejected
                        .push((tid, target, MigrationReject::TransientFailure));
                    continue;
                }
            }
            self.migrate_task(tid, target);
            applied.migrated.push((tid, current, target));
        }
        self.alloc_totals.absorb(&applied);
        if let Some(tel) = &self.telemetry {
            let reasons = [
                (
                    "unknown_task",
                    applied.rejected_with(MigrationReject::UnknownTask) as u64,
                ),
                (
                    "unknown_core",
                    applied.rejected_with(MigrationReject::UnknownCore) as u64,
                ),
                (
                    "exited",
                    applied.rejected_with(MigrationReject::Exited) as u64,
                ),
                (
                    "affinity_forbidden",
                    applied.rejected_with(MigrationReject::AffinityForbidden) as u64,
                ),
                (
                    "offline_core",
                    applied.rejected_with(MigrationReject::OfflineCore) as u64,
                ),
                (
                    "transient_failure",
                    applied.rejected_with(MigrationReject::TransientFailure) as u64,
                ),
            ];
            tel.borrow_mut().record_apply(
                applied.requested as u64,
                applied.migrated.len() as u64,
                &reasons,
            );
        }
        self.last_applied = Some(applied.clone());
        applied
    }

    /// Unconditionally moves a live task to `target` (queues, debt,
    /// wake heap, event). Callers have already validated the move.
    fn migrate_task(&mut self, tid: TaskId, target: CoreId) {
        let (current, state, weight, vr) = {
            let t = &self.tasks[tid.0];
            (t.core(), t.state, t.weight(), t.vruntime_ns)
        };
        if matches!(state, TaskState::Runnable) {
            self.queues[current.0].dequeue(tid, vr, weight);
            let v = self.queues[target.0].enqueue(tid, vr, weight);
            self.tasks[tid.0].vruntime_ns = v;
        }
        let task = &mut self.tasks[tid.0];
        task.core = target;
        task.migration_debt_ns += self.config.migration_cost_ns;
        task.migrations += 1;
        self.total_migrations += 1;
        if !self.topology.same_domain(current, target) {
            self.cross_cluster_migrations += 1;
        }
        // A sleeping migrant must be woken by its *new* core; the
        // entry left on the old core's heap goes stale and is
        // lazily dropped.
        if let TaskState::Sleeping { wake_at_ns } = state {
            self.wake_heaps[target.0].push(Reverse((wake_at_ns, tid)));
        }
        self.record_event(TraceEvent::Migrate {
            at_ns: self.now_ns,
            task: tid.0 as u64,
            from: current.0 as u64,
            to: target.0 as u64,
        });
    }

    // ------------------------------------------------------------------
    // Fault injection: hotplug, throttling, sensor and migration faults
    // ------------------------------------------------------------------

    /// Hotplugs a core out (`online = false`) or back in. Taking a core
    /// offline evacuates its live tasks to the least-loaded online core
    /// their affinity allows — or, like the kernel's
    /// `select_fallback_rq()`, to any online core when affinity leaves
    /// no choice. No-op if the core is already in the requested state.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range, or offlining it would leave
    /// zero online cores.
    pub fn set_core_online(&mut self, core: CoreId, online: bool) {
        assert!(core.0 < self.platform.num_cores(), "no such core {core}");
        if self.core_online[core.0] == online {
            return;
        }
        if !online {
            assert!(
                self.core_online.iter().filter(|&&o| o).count() > 1,
                "cannot offline the last online core"
            );
            self.core_online[core.0] = false;
            let victims: Vec<TaskId> = self
                .live_iter()
                .filter(|t| t.core() == core)
                .map(Task::id)
                .collect();
            for tid in victims {
                let target = self.evacuation_target(tid);
                self.migrate_task(tid, target);
            }
        } else {
            self.core_online[core.0] = true;
        }
    }

    /// Picks the evacuation core for `tid`: the least-loaded online
    /// core its affinity allows, else the least-loaded online core
    /// outright (affinity is broken rather than losing the task).
    #[expect(
        clippy::expect_used,
        reason = "set_core_online refuses to offline the last core, so at least one online core always exists"
    )]
    fn evacuation_target(&self, tid: TaskId) -> CoreId {
        let weights = self.core_weights();
        let mut best: Option<(u64, CoreId)> = None;
        let mut best_any: Option<(u64, CoreId)> = None;
        for c in self.platform.cores() {
            if !self.core_online[c.0] {
                continue;
            }
            let w = weights[c.0];
            if best_any.is_none_or(|(bw, _)| w < bw) {
                best_any = Some((w, c));
            }
            if self.tasks[tid.0].allows_core(c) && best.is_none_or(|(bw, _)| w < bw) {
                best = Some((w, c));
            }
        }
        best.or(best_any).expect("at least one online core").1
    }

    /// Whether `core` is online.
    pub fn core_online(&self, core: CoreId) -> bool {
        self.core_online[core.0]
    }

    /// Thermally throttles `core` to `duty` in `(0, 1]`: it executes
    /// only that fraction of every scheduling period. `1.0` restores
    /// full speed.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `duty` is not in `(0, 1]`.
    pub fn set_core_throttle(&mut self, core: CoreId, duty: f64) {
        assert!(core.0 < self.platform.num_cores(), "no such core {core}");
        assert!(
            duty.is_finite() && duty > 0.0 && duty <= 1.0,
            "throttle duty must be in (0, 1], got {duty}"
        );
        self.core_duty[core.0] = duty;
    }

    /// Installs a sensor [`FaultPlan`]: every subsequent epoch report
    /// is filtered through a [`FaultHarness`] seeded with `seed`. An
    /// empty plan keeps the harness quiescent (reports stay
    /// bit-identical to the no-harness path).
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.faults = Some(FaultHarness::new(plan, seed, self.platform.num_cores()));
    }

    /// Makes every migration attempt fail independently with
    /// probability `prob` (0 disables the fault model).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn set_migration_failure(&mut self, prob: f64, seed: u64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "migration failure probability must be in [0, 1], got {prob}"
        );
        self.migration_fail = if prob > 0.0 {
            Some(MigrationFaultModel::new(prob, seed))
        } else {
            None
        };
    }

    /// Outcome of the most recent [`System::apply_allocation`] call.
    pub fn last_applied(&self) -> Option<&AppliedAllocation> {
        self.last_applied.as_ref()
    }

    fn finish_epoch(&mut self) {
        if let Some(tel) = &self.telemetry {
            let mut hub = tel.borrow_mut();
            hub.record_events([TraceEvent::EpochEnd {
                at_ns: self.now_ns,
                epoch: self.epoch_index,
            }]);
            hub.epoch_end(
                self.now_ns,
                self.total_slices,
                self.memo.hits(),
                self.memo.misses(),
            );
        }
        // Tasks that exited before the last boundary were reset then and
        // left the live set, so their epoch accounting is already zero.
        for id in &self.live {
            self.tasks[id.0].reset_epoch();
        }
        let tasks = &self.tasks;
        self.live.retain(|id| !tasks[id.0].is_exited());
        for a in &mut self.accounts {
            a.close_epoch();
        }
        self.epoch_index += 1;
    }

    /// Whole-run summary statistics.
    pub fn stats(&self) -> SystemStats {
        SystemStats::collect(self)
    }

    /// Total migrations performed since boot.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// The platform's cluster topology (derived at boot).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Migrations since boot that crossed a cluster boundary.
    pub fn cross_cluster_migrations(&self) -> u64 {
        self.cross_cluster_migrations
    }

    /// Cumulative balancer-migration accounting (every
    /// [`System::apply_allocation`] folded into per-reason totals).
    pub fn migration_totals(&self) -> MigrationTotals {
        self.alloc_totals
    }

    /// Total scheduling slices dispatched since boot.
    pub fn total_slices(&self) -> u64 {
        self.total_slices
    }

    /// Moves every core of type `r` to a new (frequency, voltage)
    /// operating point — a DVFS transition. The point is derived from
    /// the type's boot-time configuration, so a sequence of transitions
    /// lands exactly where a single transition to its last point would.
    /// Atomically with the platform change this bumps the type's DVFS
    /// generation (part of every estimate-cache key), drops the type's
    /// entries from every live task's estimate memo, and recalibrates
    /// the power model of each affected core, so no stale
    /// characterization can survive the switch.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range, or the operating point is not
    /// strictly positive and finite.
    pub fn set_operating_point(&mut self, r: CoreTypeId, freq_hz: f64, vdd: f64) {
        let config = self.nominal_types[r.0].at_operating_point(freq_hz, vdd);
        self.platform.set_type_config(r, config);
        self.dvfs_level[r.0] = self.dvfs_level[r.0].wrapping_add(1);
        for id in &self.live {
            self.tasks[id.0].memo.invalidate_core_type(r.0 as u32);
        }
        for c in self.platform.cores_of_type(r) {
            self.accounts[c.0].model = CorePowerModel::calibrated(self.platform.core_config(c));
        }
    }

    /// Enables or disables estimate memoization (enabled by default).
    /// The disabled path re-evaluates the pipeline model on every
    /// slice; it exists so parity tests can prove both paths produce
    /// bit-identical simulations.
    pub fn set_estimate_caching(&mut self, enabled: bool) {
        self.caching = enabled;
    }

    /// Hit/miss counts of the dispatch estimate memo since boot,
    /// summed over every task's memo (telemetry for the perf harness).
    pub fn estimate_cache(&self) -> &MemoStats {
        &self.memo
    }

    /// Every core's since-boot totals, in core order.
    pub(crate) fn core_totals(&self) -> impl Iterator<Item = CoreStats> + '_ {
        self.accounts.iter().map(CoreAccount::totals)
    }
}

/// Splits the first `len` elements off `slice`, leaving the rest.
fn split_off_front<'a, T>(slice: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(slice).split_at_mut(len);
    *slice = tail;
    head
}

/// Upper bound for the next slice of a task of `weight` on a core
/// whose run queue is `rq`, at time `t`.
fn slice_bound(
    rq: &CfsRunQueue,
    weight: u64,
    period_ns: u64,
    t: u64,
    end_ns: u64,
    next_wake: Option<u64>,
) -> u64 {
    let mut slice = rq.timeslice_ns(weight, period_ns);
    // Serve imminent wake-ups promptly (poor man's wake preemption).
    if let Some(w) = next_wake {
        if w > t {
            slice = slice.min(w - t);
        }
    }
    // Clamp into [min(SLICE_FLOOR_NS, remaining), remaining]: the
    // floor bounds the event loop's iterations per period, and
    // capping the floor itself at the remaining time keeps the
    // bound from overshooting the period end. The loop invariant
    // `t < end_ns` makes `remaining >= 1`, so the returned slice is
    // always positive — a zero-length-slice spin is impossible (and
    // `clamp` cannot panic: its lower bound is `<=` the upper).
    let remaining = end_ns - t;
    slice.clamp(SLICE_FLOOR_NS.min(remaining), remaining)
}

/// Bills a slice's counters, time and energy to both the task and its
/// core's account (they must always agree — the estimation invariant).
fn charge(
    task: &mut Task,
    account: &mut CoreAccount,
    counters: CounterSample,
    activity: f64,
    duration_ns: u64,
) {
    let energy_j = account.bill_busy(counters, activity, duration_ns);
    task.epoch.counters += counters;
    task.epoch.runtime_ns += duration_ns;
    task.epoch.energy_j += energy_j;
    task.total_runtime_ns += duration_ns;
}

/// The read-only inputs every core range shares during one call of the
/// slice loop.
struct LoopCtx<'a> {
    platform: &'a Platform,
    config: &'a SystemConfig,
    online: &'a [bool],
    duty: &'a [f64],
    dvfs_level: &'a [u32],
    /// [`System::slot`], filled for this call's live tasks.
    slot: &'a [u32],
    caching: bool,
    trace: TraceLevel,
    start_ns: u64,
    periods: u64,
}

/// What one core range hands back from the slice loop.
#[derive(Debug, Default)]
struct RangeOutput {
    /// Slices dispatched.
    slices: u64,
    /// Estimate lookups.
    memo: MemoStats,
    /// Buffered trace events (empty while tracing is off).
    events: Vec<TraceEvent>,
    /// Start of each (core, period) chunk of `events`, core-major,
    /// plus the end of the last chunk.
    marks: Vec<usize>,
}

impl RangeOutput {
    fn record(&mut self, level: TraceLevel, event: TraceEvent) {
        if level >= event.level() {
            self.events.push(event);
        }
    }
}

/// One contiguous run of cores and the live tasks on them, borrowed
/// exclusively for one call of the slice loop. Per-core slices are
/// indexed by the core's offset from `first`.
struct CoreRange<'a> {
    first: usize,
    queues: &'a mut [CfsRunQueue],
    /// Lazy-deletion min-heaps of `(wake_at_ns, task)` events:
    /// migration and re-sleep leave stale entries that are dropped
    /// when popped.
    wake_heaps: &'a mut [WakeHeap],
    accounts: &'a mut [CoreAccount],
    /// The live tasks on these cores; [`LoopCtx::slot`] holds each
    /// one's index here.
    tasks: Vec<&'a mut Task>,
    out: RangeOutput,
}

impl CoreRange<'_> {
    /// Runs every core of the range through all of `ctx`'s periods,
    /// one core after another.
    fn run(&mut self, ctx: &LoopCtx<'_>) {
        let period = ctx.config.period_ns;
        let tracing = ctx.trace > TraceLevel::Off;
        for local in 0..self.queues.len() {
            let j = self.first + local;
            for p in 0..ctx.periods {
                if tracing {
                    self.out.marks.push(self.out.events.len());
                }
                if !ctx.online[j] {
                    continue;
                }
                let start = ctx.start_ns + p * period;
                let duty = ctx.duty[j];
                if duty >= 1.0 {
                    self.simulate_core_period(ctx, local, start, start + period);
                } else {
                    let active_ns = ((period as f64 * duty).round() as u64).clamp(1, period);
                    self.simulate_core_period(ctx, local, start, start + active_ns);
                    self.account_sleep(ctx, local, period - active_ns);
                }
            }
        }
        if tracing {
            self.out.marks.push(self.out.events.len());
        }
    }

    fn simulate_core_period(
        &mut self,
        ctx: &LoopCtx<'_>,
        local: usize,
        start_ns: u64,
        end_ns: u64,
    ) {
        let mut t = start_ns;
        while t < end_ns {
            self.wake_due(ctx, local, t);
            // One heap peek covers both the idle path and the slice
            // bound below (after wake_due every pending wake is > t).
            let next_wake = self.next_wake_ns(ctx, local);
            let Some(tid) = self.queues[local].pick_next() else {
                // No runnable task: power-gate until the next wake-up
                // (or the end of the period).
                let next = next_wake.map_or(end_ns, |w| w.clamp(t + 1, end_ns));
                self.account_sleep(ctx, local, next - t);
                t = next;
                continue;
            };
            // A queued task sits on this core, so it is one of ours.
            let k = ctx.slot[tid.0] as usize;
            let weight = self.tasks[k].weight();
            let slice_ns = slice_bound(
                &self.queues[local],
                weight,
                ctx.config.period_ns,
                t,
                end_ns,
                next_wake,
            );
            let ran = self.dispatch(ctx, local, k, t, slice_ns);
            t += ran.max(1);
        }
    }

    /// Runs task `k` on core `local` for at most `max_ns`; returns
    /// actual time.
    fn dispatch(&mut self, ctx: &LoopCtx<'_>, local: usize, k: usize, t: u64, max_ns: u64) -> u64 {
        let core = CoreId(self.first + local);
        let core_config = ctx.platform.core_config(core);
        let freq_hz = core_config.freq_hz;
        let task = &mut *self.tasks[k];
        let (rq, account) = (&mut self.queues[local], &mut self.accounts[local]);
        let out = &mut self.out;
        let tid = task.id();
        let weight = task.weight();
        rq.dequeue(tid, task.vruntime_ns, weight);

        let mut consumed = 0u64;

        // 1. Pay any outstanding migration debt (cold caches).
        let debt = task.migration_debt_ns;
        if debt > 0 {
            let pay = debt.min(max_ns);
            let cycles = (pay as f64 * 1e-9 * freq_hz).round() as u64;
            let counters = CounterSample {
                cy_idle: cycles,
                ..Default::default()
            };
            charge(task, account, counters, ctx.config.migration_activity, pay);
            task.migration_debt_ns -= pay;
            consumed += pay;
        }

        // 2. Useful execution for the remaining time. The pipeline
        // model is evaluated at most once per (task phase, core type,
        // DVFS level) — every later slice replays the task's memoized
        // estimate, bit-identically (the model is pure).
        if consumed < max_ns {
            let budget_ns = max_ns - consumed;
            let (phase, w, rem_phase) = task.phase_view();
            let core_type = ctx.platform.core_type(core);
            let est = if ctx.caching {
                let key = EstimateKey {
                    phase: phase as u32,
                    core_type: core_type.0 as u32,
                    dvfs_level: ctx.dvfs_level[core_type.0],
                };
                task.memo
                    .get_or_compute(key, &w, core_config, &mut out.memo)
            } else {
                out.memo.evaluate_uncached(&w, core_config)
            };

            // Bound the slice so it stays within the current phase, the
            // current interactive burst and the profile end.
            let mut max_instr = rem_phase
                .unwrap_or(u64::MAX)
                .min(task.remaining_instructions().max(1));
            if let Some(burst) = task.remaining_burst() {
                max_instr = max_instr.min(burst);
            }
            let time_for_max = time_to_complete_ns_with(&est, freq_hz, max_instr);
            let work_ns = budget_ns.min(time_for_max).max(1);

            let slice = synthesize(&w, core_config, &est, work_ns);
            let instr = slice.instructions.min(max_instr);
            charge(task, account, slice.counters, slice.activity, work_ns);
            consumed += work_ns;
            out.slices += 1;

            // 3. State transitions.
            let now = t + consumed;
            task.progress += instr;
            task.burst_progress += instr;
            task.total_instructions += instr;
            task.epoch.slices += 1;

            if task.progress >= task.profile().total_instructions() {
                if task.is_repeating() {
                    task.iterations += 1;
                    task.progress = 0;
                    task.burst_progress = 0;
                } else {
                    task.state = TaskState::Exited;
                    task.exited_at_ns = Some(now);
                    out.record(
                        ctx.trace,
                        TraceEvent::Exit {
                            at_ns: now,
                            task: tid.0 as u64,
                        },
                    );
                    // The task can never be dispatched again.
                    task.memo.clear();
                }
            }
            if !task.is_exited() {
                if let Some(pattern) = task.profile().sleep_pattern() {
                    if task.burst_progress >= pattern.burst_instructions && pattern.sleep_ns > 0 {
                        task.burst_progress = 0;
                        let wake_at_ns = now + pattern.sleep_ns;
                        task.state = TaskState::Sleeping { wake_at_ns };
                        self.wake_heaps[local].push(Reverse((wake_at_ns, tid)));
                        out.record(
                            ctx.trace,
                            TraceEvent::Sleep {
                                at_ns: now,
                                task: tid.0 as u64,
                                wake_at_ns,
                            },
                        );
                    }
                }
            }
            out.record(
                ctx.trace,
                TraceEvent::Slice {
                    at_ns: t,
                    task: tid.0 as u64,
                    core: core.0 as u64,
                    duration_ns: work_ns,
                    instructions: instr,
                },
            );
        }

        // 4. Update vruntime and requeue if still runnable.
        task.vruntime_ns += CfsRunQueue::vruntime_delta(consumed, weight);
        let new_v = task.vruntime_ns;
        rq.advance_min_vruntime(new_v);
        if matches!(task.state, TaskState::Runnable) {
            task.vruntime_ns = rq.enqueue(tid, new_v, weight);
        }
        consumed
    }

    fn account_sleep(&mut self, ctx: &LoopCtx<'_>, local: usize, duration_ns: u64) {
        let cfg = ctx.platform.core_config(CoreId(self.first + local));
        let cycles = (duration_ns as f64 * 1e-9 * cfg.freq_hz).round() as u64;
        self.accounts[local].bill_sleep(cycles, duration_ns);
    }

    /// The index of `tid` among this range's tasks if a heap entry
    /// `(wake_ns, tid)` on core `local` still describes a live sleep.
    /// Migration and duplicate pushes leave entries behind whose task
    /// has since moved, woken or re-slept; those are dropped where they
    /// are popped. A task of another range (or one that exited) is not
    /// among this range's tasks, so its entry is stale by ownership
    /// alone: the other range's task is never read.
    fn sleeper(&self, ctx: &LoopCtx<'_>, local: usize, wake_ns: u64, tid: TaskId) -> Option<usize> {
        let k = ctx.slot[tid.0] as usize;
        let task = self.tasks.get(k).filter(|t| t.id() == tid)?;
        let asleep =
            matches!(task.state, TaskState::Sleeping { wake_at_ns } if wake_at_ns == wake_ns);
        (task.core.0 == self.first + local && asleep).then_some(k)
    }

    fn wake_due(&mut self, ctx: &LoopCtx<'_>, local: usize, t: u64) {
        while let Some(&Reverse((wake_ns, tid))) = self.wake_heaps[local].peek() {
            if wake_ns > t {
                break;
            }
            self.wake_heaps[local].pop();
            let Some(k) = self.sleeper(ctx, local, wake_ns, tid) else {
                continue; // lazy deletion of a stale entry
            };
            let task = &mut *self.tasks[k];
            task.state = TaskState::Runnable;
            task.vruntime_ns = self.queues[local].enqueue(tid, task.vruntime_ns, task.weight());
            self.out.record(
                ctx.trace,
                TraceEvent::Wake {
                    at_ns: t,
                    task: tid.0 as u64,
                },
            );
        }
    }

    fn next_wake_ns(&mut self, ctx: &LoopCtx<'_>, local: usize) -> Option<u64> {
        while let Some(&Reverse((wake_ns, tid))) = self.wake_heaps[local].peek() {
            if self.sleeper(ctx, local, wake_ns, tid).is_some() {
                return Some(wake_ns);
            }
            self.wake_heaps[local].pop(); // lazy deletion
        }
        None
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::balancer::NullBalancer;
    use archsim::WorkloadCharacteristics;
    use workloads::SleepPattern;

    fn cpu_profile(instr: u64) -> WorkloadProfile {
        WorkloadProfile::uniform("cpu", WorkloadCharacteristics::balanced(), instr)
    }

    #[test]
    fn single_task_runs_and_exits() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000_000), CoreId(1));
        let mut nb = NullBalancer;
        let epochs = sys.run_to_completion(&mut nb, 100);
        assert!(epochs >= 1);
        let t = sys.task(tid);
        assert!(t.is_exited());
        assert!(t.total_instructions() >= 1_000_000);
        assert!(t.exited_at_ns().is_some());
        assert_eq!(sys.live_tasks(), 0);
    }

    #[test]
    fn stale_engine_field_is_ignored() {
        // Configs serialized while a slice-engine selector existed carry
        // an `engine` key; they must still load, as the same config.
        let base = r#""period_ns":6000000,"epoch_periods":10,
                      "migration_cost_ns":50000,"migration_activity":0.3"#;
        let plain: SystemConfig = serde_json::from_str(&format!("{{{base}}}")).unwrap();
        assert_eq!(plain, SystemConfig::default());
        for engine in ["batched", "reference"] {
            let json = format!(r#"{{{base},"engine":"{engine}"}}"#);
            let stale: SystemConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(stale, plain, "engine {engine:?}");
        }
    }

    #[test]
    fn config_json_runs_the_constructor_checks() {
        let default = serde_json::to_string(&SystemConfig::default()).unwrap();
        assert_eq!(
            default,
            r#"{"period_ns":6000000,"epoch_periods":10,"migration_cost_ns":50000,"migration_activity":0.3}"#
        );
        let back: SystemConfig = serde_json::from_str(&default).unwrap();
        assert_eq!(back, SystemConfig::default());
        assert_eq!(serde_json::to_string(&back).unwrap(), default);

        let err = |json: &str| {
            serde_json::from_str::<SystemConfig>(json)
                .expect_err("an invalid config must not deserialize")
                .to_string()
        };
        assert_eq!(
            err(&default.replace("6000000", "0")),
            "period_ns: scheduling period must be positive"
        );
        assert_eq!(
            err(&default.replace(r#""epoch_periods":10"#, r#""epoch_periods":0"#)),
            "epoch_periods: an epoch needs at least one period"
        );
        assert_eq!(
            err(&default.replace("0.3", "7.5")),
            "migration_activity: migration activity must be in [0, 1], got 7.5"
        );
        assert!(err(&default.replace("0.3", "null")).starts_with("migration_activity: "));
        // JSON has no NaN literal; the value tree does.
        let nan = serde::Value::Map(vec![
            ("period_ns".into(), serde::Value::UInt(6_000_000)),
            ("epoch_periods".into(), serde::Value::UInt(10)),
            ("migration_cost_ns".into(), serde::Value::UInt(50_000)),
            ("migration_activity".into(), serde::Value::Float(f64::NAN)),
        ]);
        let nan = SystemConfig::deserialize_value(&nan).expect_err("NaN activity");
        assert!(nan.to_string().starts_with("migration_activity: "), "{nan}");
    }

    #[test]
    fn time_advances_by_period() {
        let cfg = SystemConfig::default();
        let mut sys = System::new(Platform::quad_heterogeneous(), cfg);
        sys.run_period();
        assert_eq!(sys.now_ns(), cfg.period_ns);
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        assert_eq!(sys.now_ns(), cfg.period_ns + cfg.epoch_ns());
        assert_eq!(sys.epoch_index, 1);
    }

    #[test]
    fn idle_cores_sleep_and_draw_little_power() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        // All-idle platform: energy is only sleep power.
        let e = sys.stats().total_energy_j;
        // Sum of sleep powers: 2% of (8.62+1.41+0.53+0.095) over 60 ms.
        let expected = 0.02 * (8.62 + 1.41 + 0.53 + 0.095) * 0.06;
        assert!(
            (e - expected).abs() / expected < 0.01,
            "e={e} expected={expected}"
        );
    }

    #[test]
    fn two_equal_tasks_share_a_core_fairly() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let a = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(2));
        let b = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(2));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let ra = report
            .tasks
            .iter()
            .find(|t| t.task == a)
            .expect("a in report");
        let rb = report
            .tasks
            .iter()
            .find(|t| t.task == b)
            .expect("b in report");
        let ratio = ra.runtime_ns as f64 / rb.runtime_ns as f64;
        assert!((ratio - 1.0).abs() < 0.05, "CFS fairness violated: {ratio}");
        // Together they filled the epoch.
        let total = ra.runtime_ns + rb.runtime_ns;
        assert!((total as f64 / report.duration_ns as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn weighted_tasks_share_proportionally() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let heavy = sys.next_task_id();
        sys.spawn_task(Task::new(heavy, cpu_profile(u64::MAX / 4), CoreId(1)).with_nice(-5));
        let light = sys.next_task_id();
        sys.spawn_task(Task::new(light, cpu_profile(u64::MAX / 4), CoreId(1)).with_nice(5));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let rh = report
            .tasks
            .iter()
            .find(|t| t.task == heavy)
            .expect("heavy");
        let rl = report
            .tasks
            .iter()
            .find(|t| t.task == light)
            .expect("light");
        // weight(-5)=3121, weight(5)=335: ratio ~9.3, allow slack for
        // min-granularity rounding.
        let ratio = rh.runtime_ns as f64 / rl.runtime_ns as f64;
        assert!(ratio > 4.0, "heavy should dominate: {ratio}");
    }

    #[test]
    fn interactive_task_sleeps() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let p = cpu_profile(1_000_000_000).with_sleep(SleepPattern::new(1_000_000, 5_000_000));
        let tid = sys.spawn_on(p, CoreId(0));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let rt = report.tasks.iter().find(|t| t.task == tid).expect("t");
        // Duty cycle must be well below 1: the task sleeps most of the time.
        assert!(
            rt.utilization < 0.6,
            "interactive task should sleep: util {}",
            rt.utilization
        );
        assert!(rt.utilization > 0.01);
        // The core slept while the task slept.
        assert!(report.cores[0].sleep_ns > 0);
    }

    #[test]
    fn task_and_core_accounting_agree() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(3));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        for core in [CoreId(0), CoreId(3)] {
            let task_instr: u64 = report
                .tasks
                .iter()
                .filter(|t| t.core == core)
                .map(|t| t.counters.instructions)
                .sum();
            let core_instr = report.cores[core.0].counters.instructions;
            assert_eq!(task_instr, core_instr, "core {core} ledger mismatch");
        }
    }

    #[test]
    fn migration_moves_task_and_charges_debt() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(3));
        sys.apply_allocation(&alloc);
        assert_eq!(sys.task(tid).core(), CoreId(3));
        assert_eq!(sys.task(tid).migrations(), 1);
        assert_eq!(sys.total_migrations(), 1);
        // Re-applying the same allocation is a no-op.
        sys.apply_allocation(&alloc);
        assert_eq!(sys.task(tid).migrations(), 1);
        // And the task makes progress on the new core.
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let rt = report.tasks.iter().find(|t| t.task == tid).expect("t");
        assert_eq!(rt.core, CoreId(3));
        assert!(rt.counters.instructions > 0);
    }

    #[test]
    fn invalid_allocation_entries_ignored() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000), CoreId(0));
        let mut alloc = Allocation::new();
        alloc.assign(TaskId(99), CoreId(1)); // no such task
        alloc.assign(tid, CoreId(42)); // no such core
        sys.apply_allocation(&alloc);
        assert_eq!(sys.task(tid).core(), CoreId(0));
        assert_eq!(sys.total_migrations(), 0);
    }

    #[test]
    fn repeating_task_iterates() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.next_task_id();
        sys.spawn_task(Task::new(tid, cpu_profile(1_000_000), CoreId(1)).repeating());
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        let t = sys.task(tid);
        assert!(!t.is_exited());
        assert!(t.iterations() > 1, "fast profile should loop many times");
    }

    #[test]
    fn spawn_balances_across_cores() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let ids: Vec<TaskId> = (0..4).map(|_| sys.spawn(cpu_profile(1_000_000))).collect();
        let mut cores: Vec<usize> = ids.iter().map(|&t| sys.task(t).core().0).collect();
        cores.sort_unstable();
        assert_eq!(cores, vec![0, 1, 2, 3], "fork balancing spreads tasks");
    }

    #[test]
    #[should_panic(expected = "scheduling period must be positive")]
    fn zero_period_rejected() {
        let cfg = SystemConfig {
            period_ns: 0,
            ..SystemConfig::default()
        };
        System::new(Platform::quad_heterogeneous(), cfg);
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_epoch_rejected() {
        let cfg = SystemConfig {
            epoch_periods: 0,
            ..SystemConfig::default()
        };
        System::new(Platform::quad_heterogeneous(), cfg);
    }

    /// A system with a hub attached that records scheduler events at
    /// `level`, keeping at most `capacity`.
    fn traced(platform: Platform, level: TraceLevel, capacity: usize) -> (System, TelemetryHandle) {
        let hub = telemetry::shared();
        hub.borrow_mut().set_trace(level, capacity);
        let mut sys = System::new(platform, SystemConfig::default());
        sys.set_telemetry(hub.clone());
        (sys, hub)
    }

    #[test]
    fn tracing_captures_lifecycle() {
        let (mut sys, hub) = traced(Platform::quad_heterogeneous(), TraceLevel::Lifecycle, 1_000);
        let tid = sys.spawn_on(
            cpu_profile(1_000_000).with_sleep(SleepPattern::new(400_000, 2_000_000)),
            CoreId(1),
        );
        let tid = tid.0 as u64;
        let mut nb = NullBalancer;
        sys.run_to_completion(&mut nb, 20);
        let events = hub.borrow().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Spawn { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Sleep { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Wake { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Exit { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::EpochEnd { .. })));
        // Lifecycle level omits slices.
        assert!(!events.iter().any(|e| matches!(e, TraceEvent::Slice { .. })));
        // Timestamps are non-decreasing.
        let mut prev = 0;
        for e in &events {
            assert!(e.at_ns() >= prev);
            prev = e.at_ns();
        }
    }

    #[test]
    fn tracing_full_level_records_slices_and_migrations() {
        let (mut sys, hub) = traced(Platform::quad_heterogeneous(), TraceLevel::Full, 10_000);
        let tid = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.run_period();
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(2));
        sys.apply_allocation(&alloc);
        sys.run_period();
        let events = hub.borrow().events();
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Slice { .. })));
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::Migrate { task, from: 0, to: 2, .. }
                if *task == tid.0 as u64)
        ));
        // CSV export includes headers and the migration line.
        let csv = hub.borrow().trace_csv();
        assert!(csv.contains("migrate"));
    }

    #[test]
    fn sleeping_migrant_wakes_on_new_core() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        // A short burst then a long sleep, so the task is asleep when
        // the allocation is applied at the epoch boundary.
        let p = cpu_profile(1_000_000_000).with_sleep(SleepPattern::new(1_000_000, 80_000_000));
        let tid = sys.spawn_on(p, CoreId(0));
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        assert!(
            matches!(sys.task(tid).state(), TaskState::Sleeping { .. }),
            "test premise: task asleep at the boundary"
        );
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(2));
        sys.apply_allocation(&alloc);
        let report = sys.run_epoch(&mut nb);
        let rt = report.tasks.iter().find(|t| t.task == tid).expect("t");
        assert_eq!(rt.core, CoreId(2));
        assert!(
            rt.counters.instructions > 0,
            "task must wake and run on its new core"
        );
    }

    #[test]
    fn total_slices_counts_dispatches() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        assert_eq!(sys.total_slices(), 0);
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        sys.run_epoch(&mut nb);
        assert!(sys.total_slices() > 4, "both tasks sliced repeatedly");
        let cache = sys.estimate_cache();
        assert_eq!(cache.hits() + cache.misses(), sys.total_slices());
        // Two single-phase tasks on one core type: exactly two misses.
        assert_eq!(cache.misses(), 2);
        assert!(cache.hit_rate() > 0.9, "steady phases should mostly hit");
    }

    /// Moves every live task of the report one core up each epoch.
    struct Rotate;

    impl LoadBalancer for Rotate {
        fn name(&self) -> &str {
            "rotate"
        }

        fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
            let mut alloc = Allocation::new();
            for t in report.tasks.iter().filter(|t| t.alive) {
                alloc.assign(t.task, CoreId((t.core.0 + 1) % platform.num_cores()));
            }
            Some(alloc)
        }
    }

    #[test]
    fn epoch_rows_sum_to_the_since_boot_totals() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        for i in 1..=6 {
            sys.spawn(cpu_profile(i * 40_000_000));
        }
        sys.spawn(cpu_profile(u64::MAX / 4).with_sleep(SleepPattern::new(500_000, 700_000)));
        sys.spawn(cpu_profile(u64::MAX / 4));
        sys.set_core_throttle(CoreId(1), 0.5);
        let offline = CoreId(2);
        let n = sys.platform().num_cores();
        let (mut busy, mut sleep, mut instructions) = (vec![0; n], vec![0; n], vec![0; n]);
        let mut energy = vec![0.0; n];
        for epoch in 0..30 {
            match epoch {
                8 => sys.set_core_online(offline, false),
                12 => sys.set_core_online(offline, true),
                15 => sys.set_operating_point(CoreTypeId(0), 1.0e9, 0.72),
                _ => {}
            }
            for row in sys.run_epoch(&mut Rotate).cores {
                let c = row.core.0;
                busy[c] += row.busy_ns;
                sleep[c] += row.sleep_ns;
                instructions[c] += row.counters.instructions;
                energy[c] += row.energy_j;
            }
        }
        let stats = sys.stats();
        assert!(stats.completed_tasks >= 3, "short tasks exited");
        for (c, totals) in stats.per_core.iter().enumerate() {
            assert_eq!(totals.busy_ns, busy[c], "cpu{c} busy");
            assert_eq!(totals.sleep_ns, sleep[c], "cpu{c} sleep");
            assert_eq!(totals.instructions, instructions[c], "cpu{c} instructions");
            assert!(totals.instructions > 0, "cpu{c} ran work");
            if c != offline.0 {
                assert_eq!(totals.busy_ns + totals.sleep_ns, stats.elapsed_ns, "cpu{c}");
            }
            let gap = (energy[c] - totals.energy_j).abs();
            assert!(gap <= 1e-12 * totals.energy_j, "cpu{c} energy off by {gap}");
        }
        let sum: u64 = stats.per_core.iter().map(|c| c.instructions).sum();
        assert_eq!(stats.total_instructions, sum);
    }

    #[test]
    fn a_retune_keeps_billed_energy_and_bills_later_slices_at_the_new_point() {
        let big = CoreTypeId(1);
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        // One single-phase CPU-bound task keeps core 1 busy at one
        // activity factor per operating point.
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(1));
        let busy_power_w = |sys: &System| {
            let config = sys.platform().type_config(big);
            let activity = archsim::estimate(&WorkloadCharacteristics::balanced(), config).activity;
            CorePowerModel::calibrated(config).active_power_w(activity)
        };
        let epoch_s = sys.config().epoch_ns() as f64 * 1e-9;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b;
        let mut nb = NullBalancer;

        let nominal_w = busy_power_w(&sys);
        let first = sys.run_epoch(&mut nb).cores.swap_remove(1);
        assert_eq!(first.busy_ns, sys.config().epoch_ns());
        assert!(close(first.energy_j, nominal_w * epoch_s), "{first:?}");
        let billed = sys.stats().per_core[1].energy_j;

        sys.set_operating_point(big, 0.75e9, 0.65);
        assert_eq!(
            sys.stats().per_core[1].energy_j.to_bits(),
            billed.to_bits(),
            "energy billed before the retune is kept"
        );
        let slow_w = busy_power_w(&sys);
        assert!(slow_w < 0.6 * nominal_w, "{slow_w} vs {nominal_w}");
        let second = sys.run_epoch(&mut nb).cores.swap_remove(1);
        assert!(
            close(second.energy_j, slow_w * epoch_s),
            "later slices are billed at the new operating point: {second:?}"
        );
        assert!(close(
            sys.stats().per_core[1].energy_j,
            billed + second.energy_j
        ));
    }

    #[test]
    fn dvfs_change_invalidates_estimates_and_slows_core() {
        let run = |dvfs: bool, cached: bool| {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            sys.set_estimate_caching(cached);
            sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(1));
            let mut nb = NullBalancer;
            sys.run_epoch(&mut nb);
            if dvfs {
                sys.set_operating_point(archsim::CoreTypeId(1), 0.75e9, 0.65);
            }
            sys.run_epoch(&mut nb);
            (
                sys.stats().total_instructions,
                sys.stats().total_energy_j.to_bits(),
            )
        };
        let (instr_base, _) = run(false, true);
        let (instr_dvfs, energy_dvfs) = run(true, true);
        assert!(
            instr_dvfs < instr_base,
            "halving the Big core's clock must reduce committed work \
             ({instr_dvfs} !< {instr_base}): stale cached estimate?"
        );
        // The cached run of the DVFS scenario must equal the uncached
        // one bit-for-bit — invalidation leaves no stale entries.
        assert_eq!((instr_dvfs, energy_dvfs), run(true, false));
    }

    #[test]
    fn operating_points_derive_from_the_boot_configuration() {
        let big = CoreTypeId(1);
        let (a, b, c) = ((1.9e9, 0.9), (1.0e9, 0.72), (0.75e9, 0.65));
        let after = |points: &[(f64, f64)]| {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            for &(freq_hz, vdd) in points {
                sys.set_operating_point(big, freq_hz, vdd);
            }
            sys.platform().type_config(big).clone()
        };
        // A -> B -> A restores peak power bit-exactly (chained rescales
        // used to inflate it by ~15%).
        assert_eq!(
            after(&[a, b, a]).peak_power_w.to_bits(),
            after(&[a]).peak_power_w.to_bits()
        );
        // A -> B -> C lands where A -> C does.
        assert_eq!(after(&[a, b, c]), after(&[a, c]));
        assert_eq!(after(&[a, b, c]), after(&[c]));
        // Returning to the boot point restores the boot peak power.
        let boot = after(&[]);
        assert_eq!(
            after(&[b, (boot.freq_hz, boot.vdd)]).peak_power_w.to_bits(),
            boot.peak_power_w.to_bits()
        );
    }

    #[test]
    fn hotplug_evacuates_and_rejects_migrations() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let a = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(2));
        let b = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.set_core_online(CoreId(2), false);
        assert!(!sys.core_online(CoreId(2)));
        assert_ne!(sys.task(a).core(), CoreId(2), "victim evacuated");
        // Migrating onto the offline core is rejected with a reason.
        let mut alloc = Allocation::new();
        alloc.assign(b, CoreId(2));
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(applied.migrated.len(), 0);
        assert_eq!(
            applied.rejected,
            vec![(b, CoreId(2), MigrationReject::OfflineCore)]
        );
        assert_eq!(sys.last_applied().unwrap(), &applied);
        // The offline core schedules nothing and draws no energy.
        let e_before = sys.stats().per_core[2].energy_j;
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        assert_eq!(sys.stats().per_core[2].energy_j, e_before);
        // Plugging it back in makes it usable again.
        sys.set_core_online(CoreId(2), true);
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(applied.migrated.len(), 1);
    }

    #[test]
    #[should_panic(expected = "core cpu2 is offline")]
    fn prebuilt_task_on_an_offline_core_is_rejected() {
        // Queued there, it would never run: the offline core schedules
        // nothing and nothing evacuates a task spawned after the unplug.
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.set_core_online(CoreId(2), false);
        let tid = sys.next_task_id();
        sys.spawn_task(Task::new(tid, cpu_profile(u64::MAX / 4), CoreId(2)));
    }

    #[test]
    fn evacuation_honors_affinity_when_possible() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.next_task_id();
        // Allowed only on cores 1 and 3; starts on 1.
        sys.spawn_task(Task::new(tid, cpu_profile(u64::MAX / 4), CoreId(1)).with_affinity(0b1010));
        sys.set_core_online(CoreId(1), false);
        assert_eq!(sys.task(tid).core(), CoreId(3), "affinity respected");
    }

    #[test]
    #[should_panic(expected = "cannot offline the last online core")]
    fn last_core_cannot_go_offline() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        for j in 0..4 {
            sys.set_core_online(CoreId(j), false);
        }
    }

    #[test]
    fn migration_failure_rolls_per_attempt() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.set_migration_failure(1.0, 7);
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(3));
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(
            applied.rejected,
            vec![(tid, CoreId(3), MigrationReject::TransientFailure)]
        );
        assert_eq!(sys.task(tid).core(), CoreId(0), "task stayed put");
        sys.set_migration_failure(0.0, 7);
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(applied.migrated.len(), 1);
    }

    #[test]
    fn throttled_core_does_less_work() {
        let run = |duty: f64| {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(1));
            sys.set_core_throttle(CoreId(1), duty);
            let mut nb = NullBalancer;
            sys.run_epoch(&mut nb);
            sys.stats().total_instructions
        };
        let full = run(1.0);
        let half = run(0.5);
        assert!(
            (half as f64) < 0.6 * full as f64 && (half as f64) > 0.4 * full as f64,
            "50% duty should halve committed work: {half} vs {full}"
        );
    }

    #[test]
    fn fault_plan_corrupts_report_not_ground_truth() {
        use archsim::FaultKind;
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.set_fault_plan(
            FaultPlan::new().inject(0, None, FaultKind::StuckCounters { prob: 1.0 }),
            99,
        );
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        assert_eq!(
            report.cores[0].counters.instructions, 0,
            "stuck counters read as zero deltas"
        );
        assert!(
            sys.stats().total_instructions > 0,
            "ground truth keeps advancing"
        );
        assert!(sys.faults.as_ref().unwrap().stats().stuck_core_epochs >= 4);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let run = |harness: bool| {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            if harness {
                sys.set_fault_plan(FaultPlan::new(), 1234);
            }
            sys.spawn_on(
                cpu_profile(50_000_000).with_sleep(SleepPattern::new(500_000, 700_000)),
                CoreId(0),
            );
            sys.spawn_on(cpu_profile(80_000_000), CoreId(1));
            let mut nb = NullBalancer;
            let mut fingerprints = Vec::new();
            for _ in 0..3 {
                let report = sys.run_epoch(&mut nb);
                fingerprints.push(serde_json::to_string(&report).expect("serialize"));
            }
            fingerprints
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_simulation() {
        let run = || {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            sys.spawn_on(
                cpu_profile(50_000_000).with_sleep(SleepPattern::new(500_000, 700_000)),
                CoreId(0),
            );
            sys.spawn_on(cpu_profile(80_000_000), CoreId(1));
            let mut nb = NullBalancer;
            for _ in 0..3 {
                sys.run_epoch(&mut nb);
            }
            (
                sys.stats().total_instructions,
                sys.stats().total_energy_j.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    /// The slice bound of `tid` on core 0.
    fn bound_for(sys: &System, tid: TaskId, t: u64, end_ns: u64, wake: Option<u64>) -> u64 {
        let weight = sys.task(tid).weight();
        slice_bound(
            &sys.queues[0],
            weight,
            sys.config.period_ns,
            t,
            end_ns,
            wake,
        )
    }

    #[test]
    fn slice_bound_stays_positive_and_within_the_period() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000_000_000), CoreId(0));
        let t = 0;
        for remaining in [
            1,
            2,
            SLICE_FLOOR_NS - 1,
            SLICE_FLOOR_NS,
            SLICE_FLOOR_NS + 1,
            6_000_000,
        ] {
            let bound = bound_for(&sys, tid, t, t + remaining, None);
            assert!(bound >= 1, "zero-length slice at remaining={remaining}");
            assert!(bound <= remaining, "overshoot at remaining={remaining}");
            if remaining <= SLICE_FLOOR_NS {
                // Below the floor the only legal slice is the remainder
                // itself: the floor is capped at `remaining`.
                assert_eq!(bound, remaining);
            } else {
                assert!(bound >= SLICE_FLOOR_NS, "floor violated at {remaining}");
            }
        }
    }

    #[test]
    fn imminent_wake_cannot_drag_the_slice_below_the_floor() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000_000_000), CoreId(0));
        let (t, end_ns) = (0, 6_000_000);
        // A wake-up 1 ns away shrinks the requested slice to 1 ns, but
        // the floor wins: serving wake-ups promptly never buys a
        // degenerate slice.
        let bound = bound_for(&sys, tid, t, end_ns, Some(t + 1));
        assert_eq!(bound, SLICE_FLOOR_NS);
        // A wake-up past the floor trims the slice to exactly the wake.
        let wake = t + SLICE_FLOOR_NS + 5;
        let bound = bound_for(&sys, tid, t, end_ns, Some(wake));
        assert_eq!(bound, wake - t);
        // ... unless the period ends first.
        let bound = bound_for(&sys, tid, t, SLICE_FLOOR_NS + 2, Some(wake));
        assert_eq!(bound, SLICE_FLOOR_NS + 2);
    }

    #[test]
    fn core_ranges_cut_at_cluster_boundaries_by_load() {
        let quad = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        assert_eq!(
            quad.range_bounds(8),
            vec![0, 4],
            "small platforms keep one range"
        );
        let platform = Platform::clustered_heterogeneous(4, 64);
        let mut sys = System::new(platform, SystemConfig::default());
        assert_eq!(sys.range_bounds(1), vec![0, 256]);
        assert_eq!(sys.range_bounds(2), vec![0, 128, 256]);
        assert_eq!(sys.range_bounds(3), vec![0, 64, 192, 256]);
        assert_eq!(sys.range_bounds(4), vec![0, 64, 128, 192, 256]);
        assert_eq!(
            sys.range_bounds(16),
            vec![0, 64, 128, 192, 256],
            "no range below MIN_RANGE_CORES cores"
        );
        // Load on the first cluster pulls the cut towards it.
        for _ in 0..64 {
            sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        }
        assert_eq!(sys.range_bounds(2), vec![0, 64, 256]);
    }

    #[test]
    fn a_stale_wake_entry_of_another_range_is_never_taken_for_its_own_task() {
        // Core 0's heap holds a stale entry for task `a`, which sleeps on
        // core 70 in the other range. `a`'s slot is its index there,
        // which in core 0's range is `b`'s, and `b` sleeps on core 0
        // until the same instant: reading the slot without checking
        // ownership would wake `b` before `c` on `a`'s entry. Either
        // split must wake in the single range's order.
        let wake_order = |workers: usize| {
            let platform = Platform::clustered_heterogeneous(2, 64);
            let (mut sys, hub) = traced(platform, TraceLevel::Lifecycle, 1_000);
            let d = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(71));
            let a = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(70));
            let c = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
            let b = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
            assert!(d < a && a < c && c < b, "heap pops (w, a), (w, c), (w, b)");
            let wake_at_ns = 1_000_000;
            for id in [a, b, c] {
                let task = &mut sys.tasks[id.0];
                sys.queues[task.core.0].dequeue(id, task.vruntime_ns, task.weight());
                task.state = TaskState::Sleeping { wake_at_ns };
                sys.wake_heaps[task.core.0].push(Reverse((wake_at_ns, id)));
            }
            sys.wake_heaps[0].push(Reverse((wake_at_ns, a)));
            sys.run_periods(1, workers);
            let woke: Vec<u64> = hub
                .borrow()
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Wake { task, .. } => Some(task),
                    _ => None,
                })
                .collect();
            (woke, [c, b, a].map(|id| id.0 as u64).to_vec())
        };
        let (single, expected) = wake_order(1);
        assert_eq!(
            single, expected,
            "core 0 wakes c, then b; then core 70 wakes a"
        );
        assert_eq!(wake_order(2).0, single);
    }

    #[test]
    fn sub_floor_periods_make_forward_progress() {
        // Regression: with `period_ns < SLICE_FLOOR_NS` every slice of
        // every period has `remaining < SLICE_FLOOR_NS`, so a floor that
        // is not capped at the remaining time would either overshoot the
        // period end or (if clamped to zero) spin forever.
        let cfg = SystemConfig {
            period_ns: 5_000,
            epoch_periods: 4,
            ..SystemConfig::default()
        };
        let mut sys = System::new(Platform::quad_heterogeneous(), cfg);
        sys.spawn_on(
            cpu_profile(40_000_000).with_sleep(SleepPattern::new(500_000, 700_000)),
            CoreId(0),
        );
        sys.spawn_on(cpu_profile(40_000_000), CoreId(1));
        let mut nb = NullBalancer;
        for _ in 0..5 {
            sys.run_epoch(&mut nb);
        }
        assert_eq!(sys.now_ns(), 5 * cfg.epoch_ns());
        assert!(sys.total_slices() > 0);
        assert!(sys.stats().total_instructions > 0);
    }
}
