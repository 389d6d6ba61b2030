//! Pluggable slice-execution backends.
//!
//! The per-core scheduling loop — wake processing, CFS pick, slice
//! bounding, dispatch, accounting — is the innermost loop of the whole
//! evaluation: everything the closed loop does per epoch is bounded by
//! how fast it can grind slices between rebalances. This module puts
//! that loop behind the [`SliceEngine`] trait with two implementations:
//!
//! * [`ReferenceEngine`] — the original per-slice interpreter in
//!   `System::simulate_core_period`, kept verbatim as the oracle.
//! * [`BatchedEngine`] — a fast path that memoizes per-task run state
//!   for each uninterrupted (task, phase, core, DVFS) stretch and
//!   replays previously synthesized slices instead of re-deriving them.
//!
//! # Parity contract
//!
//! Both backends are **bit-identical**: the same scenario produces the
//! same `EpochReport` stream, the same trace events, the same sensor
//! totals to the last `f64` bit, and the same estimate-cache hit/miss
//! telemetry. `tests/engine_parity.rs` enforces this under forced
//! migrations, mid-epoch DVFS transitions, hotplug, an active fault
//! plan and full-level tracing.
//!
//! The batched fast path preserves parity through three observations:
//!
//! 1. **Slice synthesis is pure.** `archsim::synthesize` and the power
//!    model are deterministic functions of (characteristics, core
//!    config, estimate, duration). While nothing in that tuple changes,
//!    a slice of the same duration is bit-for-bit the same slice — so
//!    it can be captured once per distinct duration and replayed.
//! 2. **`u64` accumulation commutes exactly.** Counter adds can be
//!    deferred and delivered as one `counters × pending` multiply per
//!    template ([`archsim::CounterSample::scaled`]) without changing
//!    any final value.
//! 3. **`f64` accumulation does not commute**, so every energy sink
//!    (meter, task epoch, core epoch, sensor bank) still receives its
//!    per-slice add, in the reference order, with the replayed value.
//!
//! # Fast-forward legality
//!
//! A task's memoized run state ([`BatchedEngine`] internals) is legal
//! to replay only while *every* input it froze is unchanged. The
//! validity check is: same core (migration/evacuation changes it), same
//! DVFS generation (retunes recalibrate both the pipeline estimate and
//! the power model), and progress still inside the phase window it was
//! built for (phase boundaries and profile restarts change the
//! characteristics). Any event outside the stretch — wake, sleep,
//! throttle shortening the period, queue-weight change — is already
//! visible per slice because slice *bounding* is never memoized beyond
//! a (weight, total-weight) pair. When the estimate cache is disabled
//! the batched engine delegates to the reference loop outright, since
//! the uncached path's per-slice model evaluation is the behaviour
//! being requested.

use std::cmp::Reverse;

use archsim::{
    synthesize, time_to_complete_ns_at, CoreId, CounterSample, EstimateKey, PipelineEstimate,
    WorkloadCharacteristics,
};
use mcpat::PowerState;

use crate::cfs::CfsRunQueue;
use crate::system::{System, SLICE_FLOOR_NS};
use crate::task::{TaskId, TaskState, NICE_0_WEIGHT};
use crate::trace::TraceEvent;

/// Selects a slice-execution backend; carried by
/// [`crate::SystemConfig`] and thread through experiment specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The original per-slice interpreter (the parity oracle).
    #[default]
    Reference,
    /// The batched template-replay fast path (bit-identical, faster).
    Batched,
}

impl EngineKind {
    /// Builds a fresh backend of this kind.
    pub fn instantiate(self) -> Box<dyn SliceEngine> {
        match self {
            EngineKind::Reference => Box::new(ReferenceEngine),
            EngineKind::Batched => Box::new(BatchedEngine::default()),
        }
    }

    /// Stable lower-case label (used in benchmark reports and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Batched => "batched",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Hand-written serde impls: the kind serializes as its lower-case
// label, and an absent value (`Null` from a pre-engine config's missing
// field) deserializes to the default so existing serialized
// `SystemConfig`s keep loading unchanged.
impl serde::Serialize for EngineKind {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for EngineKind {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(EngineKind::default()),
            serde::Value::Str(s) => match s.as_str() {
                "reference" => Ok(EngineKind::Reference),
                "batched" => Ok(EngineKind::Batched),
                other => Err(serde::Error::new(format!("invalid EngineKind: {other:?}"))),
            },
            _ => Err(serde::Error::new("invalid EngineKind: expected a string")),
        }
    }
}

/// A slice-execution backend: drives one core through one scheduling
/// period, from `start_ns` to `end_ns`.
///
/// Implementations may keep acceleration state across calls (the
/// batched engine does), but everything *observable* — task and core
/// accounting, sensors, tracer events, estimate-cache telemetry,
/// `total_slices` — must end up bit-identical to [`ReferenceEngine`]
/// by the end of each call. `System` drops the engine whenever the
/// configured kind changes, so implementations never see a foreign
/// backend's leftovers.
pub trait SliceEngine: std::fmt::Debug {
    /// Which [`EngineKind`] this backend implements.
    fn kind(&self) -> EngineKind;

    /// Runs `core`'s scheduling loop for `[start_ns, end_ns)`.
    fn run_core_period(&mut self, sys: &mut System, core: CoreId, start_ns: u64, end_ns: u64);
}

/// The original per-slice interpreter, delegating to the loop in
/// `System` — kept verbatim as the oracle the batched engine is
/// compared against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEngine;

impl SliceEngine for ReferenceEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Reference
    }

    fn run_core_period(&mut self, sys: &mut System, core: CoreId, start_ns: u64, end_ns: u64) {
        sys.simulate_core_period(core, start_ns, end_ns);
    }
}

/// Distinct slice durations memoized per run stretch; beyond this the
/// engine synthesizes (still correctly) without caching. Durations are
/// admitted first-come up to the cap: the recurring ones — the task's
/// full CFS timeslice and boundary-shaped slices (burst remainders,
/// phase/profile completions, whose lengths repeat with the sleep
/// cycle) — appear within the first few slices of a stretch, so a tiny
/// table captures them, and arbitrary wake-/period-truncated lengths
/// that churn past a full cap cost nothing. An uncapped table was
/// measurably slower: multi-KB per-task tables lose more to insert
/// memmoves and cold binary searches than the extra replays save.
const MAX_TEMPLATES: usize = 12;

/// One captured slice: the exact outcome `synthesize` + the power model
/// produced for a specific duration under the owning stretch's frozen
/// inputs. `pending` counts replays whose counter adds are deferred.
#[derive(Debug, Clone)]
struct SliceTemplate {
    instructions: u64,
    counters: CounterSample,
    energy_j: f64,
    pending: u64,
}

/// Memoized per-task run state for one uninterrupted (task, phase,
/// core, DVFS) stretch.
#[derive(Debug)]
struct TaskFast {
    /// Core the stretch runs on; a migration invalidates the state.
    core: CoreId,
    /// Index of `core`'s type (for the DVFS generation probe).
    core_type: usize,
    /// DVFS generation the estimate was taken at.
    dvfs_gen: u32,
    /// Progress window `[lo, hi)` within which the phase is unchanged.
    window_lo: u64,
    window_hi: u64,
    /// The profile's total instruction budget (exit boundary).
    profile_total: u64,
    /// Interactive `(burst_instructions, sleep_ns)`, if any.
    pattern: Option<(u64, u64)>,
    /// Frozen pipeline estimate (bit-identical to the cache entry).
    est: PipelineEstimate,
    /// Frozen clamped characteristics (synthesize input).
    w: WorkloadCharacteristics,
    /// `(est.ipc * freq_hz).max(1.0)` — completion detection is one
    /// division per slice, bit-identical to `time_to_complete_ns_with`.
    ips: f64,
    /// Sorted distinct slice durations, parallel to `templates`.
    template_keys: Vec<u64>,
    templates: Vec<SliceTemplate>,
    /// Deferred counter adds from non-template (synthesized) slices;
    /// a running sum is exact because `u64` accumulation commutes.
    deferred: CounterSample,
    /// Whether any template holds deferred (pending) counter adds or
    /// `deferred` is non-empty.
    dirty: bool,
}

/// The batched template-replay backend. See the module docs for the
/// parity argument; the shape of the speedup is that a steady-state
/// slice costs one validity compare, one division, one binary search
/// over a few durations and ~10 scalar adds — instead of a full
/// counter synthesis and 50+ accumulator adds.
#[derive(Debug, Default)]
pub struct BatchedEngine {
    /// Per-task memoized stretch state, indexed by `TaskId`. Boxed so
    /// a slot costs one pointer; [`BatchedEngine::flush`] empties the
    /// slot of every task that has exited, so only live tasks hold
    /// state.
    fast: Vec<Option<Box<TaskFast>>>,
    /// Per-core `(weight, total_weight, timeslice)` memo: `timeslice_ns`
    /// is a pure function of those two weights and the fixed period.
    timeslice: Vec<(u64, u64, u64)>,
    /// Per-core earliest pending valid wake, or `None`. Exact between
    /// heap changes: within one core period the only mutations are
    /// wake pops (when simulated time crosses the cached value, which
    /// recomputes it) and sleep pushes from this engine's own dispatch
    /// (which min-merge into it); cross-core pushes (migrations,
    /// evacuations) happen between periods, so the cache is rebuilt at
    /// every period entry. Spares the reference loop's two heap walks
    /// per slice.
    wake_cache: Vec<Option<u64>>,
    /// Tasks with deferred counters awaiting a flush.
    dirty: Vec<TaskId>,
}

impl SliceEngine for BatchedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Batched
    }

    fn run_core_period(&mut self, sys: &mut System, core: CoreId, start_ns: u64, end_ns: u64) {
        if !sys.estimates.is_enabled() {
            // The uncached path exists precisely so every slice
            // re-evaluates the model; replaying templates would defeat
            // it. Flush any deferred counters from earlier periods and
            // hand the core to the reference loop.
            self.flush(sys);
            sys.simulate_core_period(core, start_ns, end_ns);
            return;
        }
        if self.wake_cache.len() <= core.0 {
            self.wake_cache.resize(core.0 + 1, None);
        }
        // Rebuild the wake cache at period entry: migrations and
        // evacuations may have pushed wakes for this core since the
        // last period it ran.
        self.wake_cache[core.0] = if sys.wake_heaps[core.0].is_empty() {
            None
        } else {
            sys.wake_due(core, start_ns);
            sys.next_wake_ns(core)
        };
        let mut t = start_ns;
        while t < end_ns {
            let next_wake = match self.wake_cache[core.0] {
                Some(w) if t >= w => {
                    sys.wake_due(core, t);
                    let nw = sys.next_wake_ns(core);
                    self.wake_cache[core.0] = nw;
                    nw
                }
                cached => cached,
            };
            let Some(tid) = sys.queues[core.0].pick_next() else {
                let next = next_wake.map_or(end_ns, |w| w.clamp(t + 1, end_ns));
                sys.account_sleep(core, next - t);
                t = next;
                continue;
            };
            let slice_ns = self.slice_bound(sys, core, tid, t, end_ns, next_wake);
            let ran = self.dispatch(sys, core, tid, t, slice_ns);
            // A sleep transition pushed a wake; fold it into the cache
            // (pushes can only move the earliest wake forward in time
            // or leave it, so a min-merge stays exact).
            if let TaskState::Sleeping { wake_at_ns } = sys.tasks[tid.0].state {
                let c = &mut self.wake_cache[core.0];
                *c = Some(c.map_or(wake_at_ns, |w| w.min(wake_at_ns)));
            }
            t += ran.max(1);
        }
        // Deliver deferred counters before anyone can observe the
        // accumulators (the epoch report is built between periods).
        self.flush(sys);
    }
}

impl BatchedEngine {
    /// `System::slice_bound` with the timeslice memoized per core:
    /// `timeslice_ns` depends only on (weight, total weight, period).
    fn slice_bound(
        &mut self,
        sys: &System,
        core: CoreId,
        tid: TaskId,
        t: u64,
        end_ns: u64,
        next_wake: Option<u64>,
    ) -> u64 {
        let rq = &sys.queues[core.0];
        let weight = sys.tasks[tid.0].weight();
        let total_weight = rq.total_weight();
        if self.timeslice.len() <= core.0 {
            self.timeslice.resize(core.0 + 1, (0, 0, 0));
        }
        let memo = &mut self.timeslice[core.0];
        let mut slice = if memo.0 == weight && memo.1 == total_weight {
            memo.2
        } else {
            let s = rq.timeslice_ns(weight, sys.config.period_ns);
            *memo = (weight, total_weight, s);
            s
        };
        if let Some(w) = next_wake {
            if w > t {
                slice = slice.min(w - t);
            }
        }
        let remaining = end_ns - t;
        slice.clamp(SLICE_FLOOR_NS.min(remaining), remaining)
    }

    /// Validates the memoized stretch state for `tid` on `core`,
    /// rebuilding it (and flushing its deferred counters) when any
    /// frozen input changed. Mirrors the reference path's estimate
    /// telemetry exactly: a valid state notes a hit (the cache entry it
    /// was built from is still live — only DVFS and task exit evict,
    /// and both invalidate the state), a rebuild probes the real cache.
    fn ensure_fast(&mut self, sys: &mut System, core: CoreId, tid: TaskId) {
        if self.fast.len() <= tid.0 {
            self.fast.resize_with(tid.0 + 1, || None);
        }
        let progress = sys.tasks[tid.0].progress;
        let valid = match &self.fast[tid.0] {
            Some(fs) => {
                fs.core == core
                    && fs.dvfs_gen == sys.dvfs_level[fs.core_type]
                    && progress >= fs.window_lo
                    && progress < fs.window_hi
            }
            None => false,
        };
        if valid {
            sys.estimates.note_hit();
            return;
        }
        if let Some(old) = self.fast[tid.0].as_mut() {
            if old.dirty {
                // The pending counters belong to the old stretch's
                // core/phase; deliver them before dropping it.
                Self::flush_task(sys, tid, old);
            }
        }
        if let Some(pos) = self.dirty.iter().position(|&d| d == tid) {
            self.dirty.swap_remove(pos);
        }
        let (phase, w, rem_phase) = sys.tasks[tid.0].phase_view();
        let core_type = sys.platform.core_type(core);
        let key = EstimateKey {
            workload_id: tid.0 as u64,
            phase: phase as u32,
            core_type: core_type.0 as u32,
            dvfs_level: sys.dvfs_level[core_type.0],
        };
        let est = sys
            .estimates
            .get_or_compute(key, &w, sys.platform.core_config(core));
        let task = &sys.tasks[tid.0];
        let progress = task.progress;
        self.fast[tid.0] = Some(Box::new(TaskFast {
            core,
            core_type: core_type.0,
            dvfs_gen: sys.dvfs_level[core_type.0],
            window_lo: progress,
            window_hi: rem_phase.map_or(u64::MAX, |r| progress.saturating_add(r)),
            profile_total: task.profile().total_instructions(),
            pattern: task
                .profile()
                .sleep_pattern()
                .map(|p| (p.burst_instructions, p.sleep_ns)),
            est,
            w,
            ips: (est.ipc * sys.platform.core_config(core).freq_hz).max(1.0),
            template_keys: Vec::new(),
            templates: Vec::new(),
            deferred: CounterSample::default(),
            dirty: false,
        }));
    }

    /// `System::dispatch`, with synthesis and counter accumulation
    /// replaced by template replay on the hot path. Every observable
    /// side effect happens per slice in the reference order; only the
    /// (exactly commuting) counter adds are deferred.
    fn dispatch(
        &mut self,
        sys: &mut System,
        core: CoreId,
        tid: TaskId,
        t: u64,
        max_ns: u64,
    ) -> u64 {
        let weight = sys.tasks[tid.0].weight();
        // The picked task is the leftmost queue entry and its vruntime
        // field mirrors its queue key, so popping the front is the
        // reference's keyed dequeue without the binary search.
        let popped = sys.queues[core.0].dequeue_front(weight);
        debug_assert_eq!(popped, Some((sys.tasks[tid.0].vruntime_ns, tid)));

        let mut consumed = 0u64;

        // 1. Migration debt — verbatim reference path (rare and never
        // template-shaped: it depends on the running debt balance).
        let debt = sys.tasks[tid.0].migration_debt_ns;
        if debt > 0 {
            let freq_hz = sys.platform.core_config(core).freq_hz;
            let pay = debt.min(max_ns);
            let cycles = (pay as f64 * 1e-9 * freq_hz).round() as u64;
            let counters = CounterSample {
                cy_idle: cycles,
                ..Default::default()
            };
            let energy = sys.meter.accumulate(
                core,
                PowerState::Active {
                    activity: sys.config.migration_activity,
                },
                pay,
            );
            sys.charge(core, tid, counters, pay, energy);
            sys.tasks[tid.0].migration_debt_ns -= pay;
            consumed += pay;
        }

        // 2. Useful execution through the memoized stretch state.
        if consumed < max_ns {
            let budget_ns = max_ns - consumed;
            self.ensure_fast(sys, core, tid);
            let mut newly_dirty = false;
            let Some(fs) = self.fast[tid.0].as_mut() else {
                // Unreachable — ensure_fast always populates the slot;
                // skipping the work slice keeps forward progress even
                // if it ever failed to.
                return consumed;
            };

            let task = &sys.tasks[tid.0];
            let progress = task.progress;
            let mut max_instr = fs
                .window_hi
                .saturating_sub(progress)
                .min(fs.profile_total.saturating_sub(progress).max(1));
            if let Some((burst_instructions, _)) = fs.pattern {
                max_instr = max_instr.min(
                    burst_instructions
                        .saturating_sub(task.burst_progress)
                        .max(1),
                );
            }
            let time_for_max = time_to_complete_ns_at(fs.ips, max_instr);
            let work_ns = budget_ns.min(time_for_max).max(1);

            let instr;
            match fs.template_keys.binary_search(&work_ns) {
                Ok(pos) => {
                    // Replay: identical inputs, identical slice. Defer
                    // the counter adds, deliver the scalar half now (the
                    // f64 adds must stay in per-slice order).
                    let tpl = &mut fs.templates[pos];
                    tpl.pending += 1;
                    instr = tpl.instructions.min(max_instr);
                    let energy = tpl.energy_j;
                    sys.meter.accumulate_replay(core, energy, work_ns);
                    let task = &mut sys.tasks[tid.0];
                    task.epoch.runtime_ns += work_ns;
                    task.epoch.energy_j += energy;
                    task.total_runtime_ns += work_ns;
                    let accum = &mut sys.core_epoch[core.0];
                    accum.busy_ns += work_ns;
                    accum.energy_j += energy;
                    sys.sensors.record_scalar(core, energy, work_ns);
                    if !fs.dirty {
                        fs.dirty = true;
                        newly_dirty = true;
                    }
                }
                Err(pos) => {
                    // No template for this duration: run the reference
                    // synthesis and power model. Scalars are charged per
                    // slice (same sink order as the replay arm); the
                    // counter adds join the task's deferred sum.
                    let slice = synthesize(&fs.w, sys.platform.core_config(core), &fs.est, work_ns);
                    instr = slice.instructions.min(max_instr);
                    let energy = sys.meter.accumulate(
                        core,
                        PowerState::Active {
                            activity: slice.activity,
                        },
                        work_ns,
                    );
                    let task = &mut sys.tasks[tid.0];
                    task.epoch.runtime_ns += work_ns;
                    task.epoch.energy_j += energy;
                    task.total_runtime_ns += work_ns;
                    let accum = &mut sys.core_epoch[core.0];
                    accum.busy_ns += work_ns;
                    accum.energy_j += energy;
                    sys.sensors.record_scalar(core, energy, work_ns);
                    fs.deferred += slice.counters;
                    if !fs.dirty {
                        fs.dirty = true;
                        newly_dirty = true;
                    }
                    // First-come admission up to the cap (see
                    // MAX_TEMPLATES): the recurring durations show up
                    // within a stretch's first few slices, so a full
                    // table means the rest are one-off lengths not
                    // worth caching.
                    if fs.template_keys.len() < MAX_TEMPLATES {
                        fs.template_keys.insert(pos, work_ns);
                        fs.templates.insert(
                            pos,
                            SliceTemplate {
                                instructions: slice.instructions,
                                counters: slice.counters,
                                energy_j: energy,
                                pending: 0,
                            },
                        );
                    }
                }
            }
            consumed += work_ns;
            sys.total_slices += 1;

            // 3. State transitions — verbatim reference.
            let now = t + consumed;
            let profile_total = fs.profile_total;
            let pattern = fs.pattern;
            let task = &mut sys.tasks[tid.0];
            task.progress += instr;
            task.burst_progress += instr;
            task.total_instructions += instr;
            task.epoch.slices += 1;

            let mut exited = false;
            if task.progress >= profile_total {
                if task.is_repeating() {
                    task.iterations += 1;
                    task.progress = 0;
                    task.burst_progress = 0;
                } else {
                    task.state = TaskState::Exited;
                    task.exited_at_ns = Some(now);
                    exited = true;
                }
            }
            if exited {
                sys.tracer.record(TraceEvent::Exit {
                    at_ns: now,
                    task: tid,
                });
                sys.estimates.invalidate_workload(tid.0 as u64);
            }
            let task = &mut sys.tasks[tid.0];
            if !task.is_exited() {
                if let Some((burst_instructions, sleep_ns)) = pattern {
                    if task.burst_progress >= burst_instructions && sleep_ns > 0 {
                        task.burst_progress = 0;
                        let wake_at_ns = now + sleep_ns;
                        task.state = TaskState::Sleeping { wake_at_ns };
                        sys.wake_heaps[core.0].push(Reverse((wake_at_ns, tid)));
                        sys.tracer.record(TraceEvent::Sleep {
                            at_ns: now,
                            task: tid,
                            wake_at_ns,
                        });
                    }
                }
            }
            sys.tracer.record(TraceEvent::Slice {
                at_ns: t,
                task: tid,
                core,
                duration_ns: work_ns,
                instructions: instr,
            });
            if newly_dirty {
                self.dirty.push(tid);
            }
        }

        // 4. Update vruntime and requeue if still runnable.
        let task = &mut sys.tasks[tid.0];
        // vruntime_delta(c, NICE_0_WEIGHT) == c exactly — skip the
        // u128 widening for the overwhelmingly common default weight.
        let delta = if weight == NICE_0_WEIGHT {
            consumed
        } else {
            CfsRunQueue::vruntime_delta(consumed, weight)
        };
        task.vruntime_ns += delta;
        let new_v = task.vruntime_ns;
        sys.queues[core.0].advance_min_vruntime(new_v);
        if matches!(sys.tasks[tid.0].state, TaskState::Runnable) {
            let v = sys.queues[core.0].enqueue(tid, new_v, weight);
            sys.tasks[tid.0].vruntime_ns = v;
        }
        consumed
    }

    /// Delivers every deferred counter add. `u64` accumulation is
    /// exact and commutative, so one `scaled(pending)` multiply per
    /// template lands the same final values as per-slice adds.
    ///
    /// A task that exited ran a slice in this period, so it is on the
    /// dirty list; once its counters are delivered its state is
    /// dropped (an exited task is never dispatched again).
    fn flush(&mut self, sys: &mut System) {
        for tid in self.dirty.drain(..) {
            if let Some(fs) = self.fast[tid.0].as_mut() {
                Self::flush_task(sys, tid, fs);
            }
            if sys.tasks[tid.0].is_exited() {
                self.fast[tid.0] = None;
            }
        }
    }

    /// Number of tasks the engine holds memoized state for.
    #[cfg(test)]
    fn tracked_tasks(&self) -> usize {
        self.fast.iter().filter(|fs| fs.is_some()).count()
    }

    fn flush_task(sys: &mut System, tid: TaskId, fs: &mut TaskFast) {
        for tpl in &mut fs.templates {
            if tpl.pending == 0 {
                continue;
            }
            let scaled = tpl.counters.scaled(tpl.pending);
            sys.tasks[tid.0].epoch.counters += scaled;
            sys.core_epoch[fs.core.0].counters += scaled;
            sys.sensors.record_counters(fs.core, scaled);
            tpl.pending = 0;
        }
        if !fs.deferred.is_empty() {
            let d = fs.deferred;
            sys.tasks[tid.0].epoch.counters += d;
            sys.core_epoch[fs.core.0].counters += d;
            sys.sensors.record_counters(fs.core, d);
            fs.deferred = CounterSample::default();
        }
        fs.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::NullBalancer;
    use crate::system::SystemConfig;
    use archsim::Platform;
    use workloads::SyntheticGenerator;

    #[test]
    fn kinds_roundtrip_serde_and_default_to_reference() {
        assert_eq!(EngineKind::default(), EngineKind::Reference);
        let json = serde_json::to_string(&EngineKind::Batched).unwrap();
        assert_eq!(json, "\"batched\"");
        let back: EngineKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, EngineKind::Batched);
        assert_eq!(EngineKind::Reference.as_str(), "reference");
        assert_eq!(format!("{}", EngineKind::Batched), "batched");
    }

    #[test]
    fn config_without_engine_field_deserializes_to_reference() {
        // Pre-engine serialized configs must keep loading unchanged.
        let json = r#"{"period_ns":6000000,"epoch_periods":10,
                       "migration_cost_ns":50000,"migration_activity":0.3}"#;
        let cfg: SystemConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.engine, EngineKind::Reference);
    }

    #[test]
    fn instantiated_engines_report_their_kind() {
        for kind in [EngineKind::Reference, EngineKind::Batched] {
            assert_eq!(kind.instantiate().kind(), kind);
        }
    }

    /// Module-local smoke parity (the full adversarial scenario lives
    /// in `tests/engine_parity.rs`): a mixed CPU-bound/interactive
    /// multi-phase workload must produce bit-identical totals and
    /// telemetry under both engines.
    #[test]
    fn batched_matches_reference_bitwise_on_mixed_workload() {
        let run = |kind: EngineKind| {
            let cfg = SystemConfig {
                engine: kind,
                ..SystemConfig::default()
            };
            let mut sys = System::new(Platform::quad_heterogeneous(), cfg);
            let mut gen = SyntheticGenerator::new(0xE6E6);
            for i in 0..6 {
                sys.spawn(gen.profile(format!("m{i}"), 4, 40_000_000, i % 2 == 0));
            }
            let mut nb = NullBalancer;
            for _ in 0..4 {
                sys.run_epoch(&mut nb);
            }
            (
                sys.sensors().total_instructions(),
                sys.sensors().total_energy_j().to_bits(),
                sys.total_slices(),
                sys.estimate_cache().hits(),
                sys.estimate_cache().misses(),
            )
        };
        assert_eq!(run(EngineKind::Reference), run(EngineKind::Batched));
    }

    #[test]
    fn batched_state_is_held_for_live_tasks_only() {
        const POPULATION: usize = 8;
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let mut gen = SyntheticGenerator::new(0xC4);
        let mut spawned = 0usize;
        let mut engine = BatchedEngine::default();
        let period = sys.config().period_ns;
        for k in 0..300 {
            while sys.live_tasks() < POPULATION {
                sys.spawn(gen.profile(
                    format!("c{spawned}"),
                    4,
                    3_000_000,
                    spawned.is_multiple_of(3),
                ));
                spawned += 1;
            }
            let start = k * period;
            for j in 0..sys.platform().num_cores() {
                engine.run_core_period(&mut sys, CoreId(j), start, start + period);
                assert!(
                    engine.tracked_tasks() <= sys.live_tasks(),
                    "period {k} core {j}: state for {} tasks, {} live",
                    engine.tracked_tasks(),
                    sys.live_tasks()
                );
            }
        }
        assert!(spawned > 10 * POPULATION, "premise: the run churned");
        assert!(engine.tracked_tasks() > 0, "premise: live tasks keep state");
    }

    #[test]
    fn switching_engines_mid_run_stays_consistent() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let mut gen = SyntheticGenerator::new(0xABCD);
        for i in 0..4 {
            sys.spawn(gen.profile(format!("s{i}"), 3, u64::MAX / 64, i == 0));
        }
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        assert_eq!(sys.engine_kind(), EngineKind::Reference);
        sys.set_engine(EngineKind::Batched);
        assert_eq!(sys.engine_kind(), EngineKind::Batched);
        sys.run_epoch(&mut nb);
        sys.set_engine(EngineKind::Reference);
        sys.run_epoch(&mut nb);
        // The invariant every engine must uphold regardless of when it
        // was swapped in: each dispatched slice consults the cache once.
        let cache = sys.estimate_cache();
        assert_eq!(cache.hits() + cache.misses(), sys.total_slices());
    }
}
