//! # telemetry — deterministic observability for the closed loop
//!
//! SmartBalance is a *sense → predict → balance* feedback loop; this
//! crate is the layer that watches the loop watch the workload. It
//! provides:
//!
//! - a **metrics registry** ([`MetricsRegistry`]): counters, gauges and
//!   fixed-bucket histograms on ordered maps, keyed by pre-rendered
//!   `name{label="value"}` strings;
//! - **epoch spans** ([`EpochObs`]): one record per `run_epoch` with
//!   sense health, degrade rung, annealer trajectory, a rolling
//!   predicted-vs-realized accuracy audit, estimate-cache deltas and
//!   migration churn;
//! - **scheduler events** ([`TraceEvent`]): spawn, slice, sleep, wake,
//!   exit, migration and epoch-boundary events from the simulated
//!   kernel, gated by a [`TraceLevel`] and kept in a bounded ring next
//!   to the spans — one timeline for the scheduler and the controller;
//! - **exporters**: per-epoch JSONL ([`export::spans_jsonl`]), the event CSV
//!   ([`Telemetry::trace_csv`]), Chrome `trace_events` JSON of both
//!   ([`Telemetry::chrome_events`], [`chrome_trace_json`]) and a
//!   Prometheus text snapshot ([`MetricsRegistry::prometheus_text`]).
//!
//! ## Determinism rules
//!
//! Telemetry must never perturb the simulation and must itself be
//! bit-reproducible: **simulation-ns timestamps only** (no
//! `Instant`/`SystemTime` — enforced by smartlint D2, which covers this
//! crate), ordered containers only (D1), and recording is pure
//! accumulation — no sampling, no thresholds that feed back into the
//! loop. The same seeds therefore produce byte-identical JSONL, trace
//! and Prometheus output on every rerun and any worker count.
//!
//! Host time enters only through a clock the caller attaches
//! ([`Telemetry::set_clock`]; no library crate implements one), and
//! only into the `sb_stage_host_ns_total{stage}` counters.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]

pub mod export;
pub mod live;
pub mod registry;
mod ring;
pub mod span;
pub mod trace;

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

pub use export::{chrome_trace_json, ChromeEvent};
pub use live::SnapshotCell;
use registry::{labeled, MetricsRegistry};
use ring::Ring;
pub use span::EpochObs;
pub use trace::{TraceEvent, TraceLevel};

/// The rebalance pipeline stages profiled by [`Telemetry::record_stage`],
/// in pipeline order.
pub const STAGES: &[&str] = &["sense", "predict", "anneal", "exchange", "apply"];

/// Shared handle to one [`Telemetry`] hub. The system and the balancer
/// each hold a clone and borrow it at disjoint points of `run_epoch`
/// (system: epoch start/end, scheduler events and allocation
/// application; balancer: inside `rebalance`), so the `RefCell` borrows
/// never overlap.
pub type TelemetryHandle = Rc<RefCell<Telemetry>>;

/// Creates a fresh hub and returns its shared handle.
pub fn shared() -> TelemetryHandle {
    Rc::new(RefCell::new(Telemetry::new()))
}

/// Relative-error histogram bounds shared by the IPS and power audits.
pub const ERROR_BOUNDS: &[f64] = &[0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0];

/// A host clock attached with [`Telemetry::set_clock`]: nanoseconds
/// since any fixed origin, read at SmartBalance's stage boundaries.
#[derive(Clone)]
pub struct HostClock(Rc<dyn Fn() -> u64>);

impl HostClock {
    /// The clock's current reading, ns.
    pub fn now_ns(&self) -> u64 {
        (self.0)()
    }
}

impl fmt::Debug for HostClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HostClock")
    }
}

/// A one-epoch-ahead prediction for a thread: the core the balancer
/// placed it on plus the model's predicted rates there.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Prediction {
    core: u64,
    ips: f64,
    power_w: f64,
}

/// The telemetry hub: accumulates spans, scheduler events, registry
/// series and the prediction audit for one simulated system.
///
/// Spans and events live in two separate bounded rings: the span ring
/// is the flight recorder, whose capacity counts epochs, and a shared
/// ring would let `Full`-level slices evict the spans.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: MetricsRegistry,
    spans: Ring<EpochObs>,
    trace_level: TraceLevel,
    events: Ring<TraceEvent>,
    current: EpochObs,
    prev_mode: String,
    prev_slices: u64,
    prev_hits: u64,
    prev_misses: u64,
    pending: BTreeMap<u64, Prediction>,
    cur_ips_err_sum: f64,
    cur_power_err_sum: f64,
    audit_samples: u64,
    audit_ips_err_sum: f64,
    audit_power_err_sum: f64,
    clock: Option<HostClock>,
}

impl Telemetry {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the retained span history at `capacity` epochs, turning the
    /// span store into a flight-recorder ring: once full, closing an
    /// epoch evicts the oldest span and bumps [`Telemetry::dropped_spans`].
    /// Registry series and the prediction audit are unaffected — only
    /// the per-epoch history is bounded. Uncapped by default.
    pub fn set_span_capacity(&mut self, capacity: usize) {
        self.spans.set_capacity(capacity);
    }

    /// Spans evicted by the capacity ring since attach.
    pub fn dropped_spans(&self) -> u64 {
        self.spans.dropped()
    }

    /// Sets which scheduler events the hub records and how many it
    /// keeps, starting an empty event ring: once `capacity` events are
    /// held, each new one evicts the oldest and bumps
    /// [`Telemetry::dropped_events`]. Events are off by default.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` while `level` is not `Off`.
    pub fn set_trace(&mut self, level: TraceLevel, capacity: usize) {
        assert!(
            level == TraceLevel::Off || capacity > 0,
            "an enabled trace needs capacity"
        );
        self.trace_level = level;
        self.events = Ring::new(capacity);
    }

    /// The scheduler-event level set by [`Telemetry::set_trace`].
    pub fn trace_level(&self) -> TraceLevel {
        self.trace_level
    }

    /// Records a batch of scheduler events in order, keeping those the
    /// trace level covers.
    pub fn record_events(&mut self, events: impl IntoIterator<Item = TraceEvent>) {
        for event in events {
            if self.trace_level >= event.level() {
                self.events.push(event);
            }
        }
    }

    /// The retained scheduler events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }

    /// Scheduler events evicted because the event ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.events.dropped()
    }

    /// The retained scheduler events as CSV
    /// (`time_ns,event,task,detail`), oldest first.
    pub fn trace_csv(&self) -> String {
        let mut out = String::from("time_ns,event,task,detail\n");
        for event in self.events.iter() {
            out.push_str(&event.csv_row());
            out.push('\n');
        }
        out
    }

    /// Credits `work` units to a named rebalance pipeline stage (one of
    /// [`STAGES`]). Stage accounting is deterministic sim-side work
    /// counting — evaluated candidates, annealer iterations, matrix
    /// cells — never wall time. The sense/anneal/exchange/apply stages
    /// are credited internally by their respective `record_*` methods;
    /// balancers credit `predict` explicitly with the number of
    /// predictor-matrix cells they evaluated.
    pub fn record_stage(&mut self, stage: &str, work: u64) {
        if stage == "predict" {
            self.current.stage_predict_cells += work;
        }
        let label = [("stage", stage)];
        self.registry
            .counter_add(&labeled("sb_stage_invocations_total", &label), 1);
        self.registry
            .counter_add(&labeled("sb_stage_work_total", &label), work);
    }

    /// Attaches the host clock the balancer times its stages with.
    pub fn set_clock(&mut self, clock: impl Fn() -> u64 + 'static) {
        self.clock = Some(HostClock(Rc::new(clock)));
    }

    /// The attached host clock, if any.
    pub fn clock(&self) -> Option<HostClock> {
        self.clock.clone()
    }

    /// Adds `ns` of host time to a stage's `sb_stage_host_ns_total`.
    pub fn record_stage_host_ns(&mut self, stage: &str, ns: u64) {
        self.registry
            .counter_add(&labeled("sb_stage_host_ns_total", &[("stage", stage)]), ns);
    }

    /// Per-stage invocation and work totals for every profiled stage,
    /// in [`STAGES`] order (all-zero rows included so the schema is
    /// stable across runs and policies).
    pub fn stage_profile(&self) -> Vec<StageProfile> {
        STAGES
            .iter()
            .map(|stage| {
                let label = [("stage", *stage)];
                StageProfile {
                    stage: (*stage).to_string(),
                    invocations: self
                        .registry
                        .counter(&labeled("sb_stage_invocations_total", &label)),
                    work: self
                        .registry
                        .counter(&labeled("sb_stage_work_total", &label)),
                }
            })
            .collect()
    }

    /// Opens the span for `epoch` at simulation time `now_ns`.
    pub fn epoch_start(&mut self, epoch: u64, now_ns: u64) {
        self.current = EpochObs::begin(epoch, now_ns);
        self.cur_ips_err_sum = 0.0;
        self.cur_power_err_sum = 0.0;
    }

    /// Records the sensing phase's health tally for the open span.
    #[allow(clippy::too_many_arguments)]
    pub fn record_sense(
        &mut self,
        candidates: u64,
        fresh: u64,
        invalid: u64,
        replayed: u64,
        expired: u64,
        priors: u64,
        blind: u64,
    ) {
        let c = &mut self.current;
        c.sense_candidates = candidates;
        c.sense_fresh = fresh;
        c.sense_invalid = invalid;
        c.sense_replayed = replayed;
        c.sense_expired = expired;
        c.sense_priors = priors;
        c.sense_blind = blind;
        self.registry
            .counter_add("sb_sense_candidates_total", candidates);
        self.registry.counter_add("sb_sense_blind_total", blind);
        self.registry.counter_add("sb_sense_invalid_total", invalid);
        self.record_stage("sense", candidates);
    }

    /// Records the degrade-ladder rung chosen for the open span.
    /// `transitions_total` is the controller's cumulative rung-change
    /// count; the per-epoch transition flag is derived from the
    /// previously recorded mode.
    pub fn record_degrade(&mut self, mode: &str, rank: u64, transitions_total: u64) {
        let c = &mut self.current;
        c.mode_transition = !self.prev_mode.is_empty() && self.prev_mode != mode;
        c.mode = mode.to_string();
        c.mode_rank = rank;
        c.mode_transitions_total = transitions_total;
        self.prev_mode = mode.to_string();
        self.registry
            .counter_add(&labeled("sb_degrade_epochs_total", &[("mode", mode)]), 1);
        self.registry
            .gauge_set("sb_degrade_rung", rank_as_f64(rank));
        if c.mode_transition {
            self.registry.counter_add("sb_mode_transitions_total", 1);
        }
    }

    /// Records the annealer's outcome for the open span.
    pub fn record_anneal(&mut self, iterations: u64, accepted: u64, initial: f64, objective: f64) {
        let c = &mut self.current;
        c.anneal_ran = true;
        c.anneal_iterations = iterations;
        c.anneal_accepted = accepted;
        c.anneal_initial_objective = initial;
        c.anneal_objective = objective;
        self.registry.counter_add("sb_anneal_epochs_total", 1);
        self.registry
            .counter_add("sb_anneal_iterations_total", iterations);
        self.registry
            .counter_add("sb_anneal_accepted_total", accepted);
        self.registry.gauge_set("sb_anneal_objective", objective);
        self.record_stage("anneal", iterations);
    }

    /// Records one cluster-local annealer's outcome for the open span
    /// (sharded balancer only; one call per non-empty cluster).
    pub fn record_shard_anneal(
        &mut self,
        cluster: u64,
        iterations: u64,
        accepted: u64,
        objective: f64,
    ) {
        self.current.shard_clusters += 1;
        let cluster = cluster.to_string();
        let label = [("cluster", cluster.as_str())];
        self.registry.counter_add(
            &labeled("sb_shard_anneal_iterations_total", &label),
            iterations,
        );
        self.registry
            .counter_add(&labeled("sb_shard_anneal_accepted_total", &label), accepted);
        self.registry
            .gauge_set(&labeled("sb_shard_anneal_objective", &label), objective);
        self.record_stage("anneal", iterations);
    }

    /// Records the sharded balancer's global exchange stage for the
    /// open span: clusters annealed, candidate threads considered and
    /// cross-cluster moves committed.
    pub fn record_shard_exchange(&mut self, clusters: u64, candidates: u64, moves: u64) {
        let c = &mut self.current;
        c.shard_clusters = clusters;
        c.shard_exchange_candidates = candidates;
        c.shard_exchange_moves = moves;
        self.registry.counter_add("sb_shard_epochs_total", 1);
        self.registry
            .counter_add("sb_shard_exchange_candidates_total", candidates);
        self.registry
            .counter_add("sb_shard_exchange_moves_total", moves);
        self.record_stage("exchange", candidates);
    }

    /// Stores the model's one-epoch-ahead prediction for `task`: it was
    /// placed on `core` and is expected to run at `ips` / `power_w`.
    /// Overwrites any unresolved prediction for the same task.
    pub fn record_prediction(&mut self, task: u64, core: u64, ips: f64, power_w: f64) {
        self.pending.insert(task, Prediction { core, ips, power_w });
    }

    /// Resolves a pending prediction against the realized rates for
    /// `task`, now measured on `core`. The sample only counts when the
    /// task actually ran where it was placed (a rejected or re-routed
    /// migration invalidates the prediction) and both realized rates
    /// are positive. Pending entries are consumed either way.
    pub fn resolve_prediction(&mut self, task: u64, core: u64, ips: f64, power_w: f64) {
        let Some(pred) = self.pending.remove(&task) else {
            return;
        };
        let usable = ips.is_finite() && power_w.is_finite() && ips > 0.0 && power_w > 0.0;
        if pred.core != core || !usable {
            return;
        }
        let ips_err = (pred.ips - ips).abs() / ips;
        let power_err = (pred.power_w - power_w).abs() / power_w;
        self.current.audit_samples += 1;
        self.cur_ips_err_sum += ips_err;
        self.cur_power_err_sum += power_err;
        self.audit_samples += 1;
        self.audit_ips_err_sum += ips_err;
        self.audit_power_err_sum += power_err;
        self.registry
            .histogram_observe("sb_prediction_abs_rel_error_ips", ERROR_BOUNDS, ips_err);
        self.registry.histogram_observe(
            "sb_prediction_abs_rel_error_power",
            ERROR_BOUNDS,
            power_err,
        );
    }

    /// Records the outcome of applying an allocation: `requested`
    /// entries, `migrated` moves performed, and per-reason rejection
    /// counts as `(reason, count)` pairs in a fixed order.
    pub fn record_apply(&mut self, requested: u64, migrated: u64, rejected: &[(&str, u64)]) {
        let c = &mut self.current;
        c.alloc_requested += requested;
        c.migrated += migrated;
        self.registry
            .counter_add("sb_alloc_requested_total", requested);
        self.registry.counter_add("sb_migrations_total", migrated);
        for (reason, count) in rejected {
            if *count == 0 {
                continue;
            }
            c.rejected += count;
            self.registry.counter_add(
                &labeled("sb_migrations_rejected_total", &[("reason", reason)]),
                *count,
            );
        }
        self.record_stage("apply", requested);
    }

    /// Registers every campaign lifecycle counter at zero. Called once
    /// at run start so the very first `/metrics` scrape already
    /// exposes the full `sb_campaign_*` series set — scrapers never
    /// have to distinguish "no cells resolved yet" from "counter does
    /// not exist".
    pub fn record_campaign_started(&mut self) {
        for key in [
            "sb_campaign_completed_total",
            "sb_campaign_quarantined_total",
            "sb_campaign_retried_total",
            "sb_campaign_resumed_total",
        ] {
            self.registry.counter_add(key, 0);
        }
    }

    /// Records a campaign cell that ran to completion, after
    /// `attempts` total tries (1 = first-try success). Campaign events
    /// sit above the per-epoch span model, so these touch only the
    /// counter registry.
    pub fn record_campaign_completed(&mut self, attempts: u64) {
        self.registry.counter_add("sb_campaign_completed_total", 1);
        if attempts > 1 {
            self.registry
                .counter_add("sb_campaign_retried_total", attempts - 1);
        }
    }

    /// Records a campaign cell quarantined after exhausting its retry
    /// ladder with `attempts` failed tries.
    pub fn record_campaign_quarantined(&mut self, attempts: u64) {
        self.registry
            .counter_add("sb_campaign_quarantined_total", 1);
        if attempts > 1 {
            self.registry
                .counter_add("sb_campaign_retried_total", attempts - 1);
        }
    }

    /// Records `cells` campaign cells skipped on resume because the
    /// checkpoint journal already carried their outcomes.
    pub fn record_campaign_resumed(&mut self, cells: u64) {
        self.registry
            .counter_add("sb_campaign_resumed_total", cells);
    }

    /// Closes the open span at simulation time `now_ns`. The cumulative
    /// slice and estimate-cache totals are diffed against the previous
    /// close to produce per-epoch deltas.
    pub fn epoch_end(&mut self, now_ns: u64, slices: u64, cache_hits: u64, cache_misses: u64) {
        let c = &mut self.current;
        c.end_ns = now_ns;
        c.slices = slices.saturating_sub(self.prev_slices);
        c.cache_hits = cache_hits.saturating_sub(self.prev_hits);
        c.cache_misses = cache_misses.saturating_sub(self.prev_misses);
        self.prev_slices = slices;
        self.prev_hits = cache_hits;
        self.prev_misses = cache_misses;
        if c.audit_samples > 0 {
            c.audit_mean_abs_ips_err = self.cur_ips_err_sum / count_as_f64(c.audit_samples);
            c.audit_mean_abs_power_err = self.cur_power_err_sum / count_as_f64(c.audit_samples);
        }
        self.registry.counter_add("sb_epochs_total", 1);
        self.registry.counter_add("sb_slices_total", c.slices);
        self.registry
            .counter_add("sb_estimate_cache_hits_total", c.cache_hits);
        self.registry
            .counter_add("sb_estimate_cache_misses_total", c.cache_misses);
        let finished = std::mem::take(&mut self.current);
        self.spans.push(finished);
    }

    /// Every retained span, in epoch order.
    pub fn spans(&self) -> Vec<EpochObs> {
        self.spans.iter().cloned().collect()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Per-epoch JSONL stream (one `EpochObs` object per line).
    pub fn jsonl(&self) -> String {
        export::spans_jsonl(self.spans.iter())
    }

    /// Chrome `trace_events` for the whole timeline: first the epoch
    /// lane, one `"X"` pid-0 event per retained span annotated with
    /// mode, audit and churn figures; then the retained scheduler
    /// events, oldest first ([`TraceEvent::to_chrome`]).
    pub fn chrome_events(&self) -> Vec<ChromeEvent> {
        let spans = self.spans.iter().map(|s| {
            let name = format!("epoch {}", s.epoch);
            let mut ev = ChromeEvent::complete(&name, "epoch", s.start_ns, s.end_ns, 0, 0);
            if !s.mode.is_empty() {
                ev = ev.with_arg("mode", s.mode.clone());
            }
            ev.with_arg("slices", s.slices.to_string())
                .with_arg("audit_samples", s.audit_samples.to_string())
                .with_arg("migrated", s.migrated.to_string())
                .with_arg("rejected", s.rejected.to_string())
        });
        spans
            .chain(self.events.iter().map(TraceEvent::to_chrome))
            .collect()
    }

    /// Controller-health summary over every retained span.
    pub fn summary(&self) -> ObsSummary {
        let epochs = self.spans.iter().len() as u64;
        let mut anneal_epochs = 0u64;
        let mut anneal_improved = 0u64;
        let mut mode_epochs = 0u64;
        let mut degrade_epochs = 0u64;
        let mut transitions = 0u64;
        let mut migrations = 0u64;
        let mut rejected = 0u64;
        let mut hits = 0u64;
        let mut misses = 0u64;
        for s in self.spans.iter() {
            if s.anneal_ran {
                anneal_epochs += 1;
                if s.anneal_objective > s.anneal_initial_objective {
                    anneal_improved += 1;
                }
            }
            if !s.mode.is_empty() {
                mode_epochs += 1;
                if s.mode != "full" {
                    degrade_epochs += 1;
                }
            }
            if s.mode_transition {
                transitions += 1;
            }
            migrations += s.migrated;
            rejected += s.rejected;
            hits += s.cache_hits;
            misses += s.cache_misses;
        }
        ObsSummary {
            epochs,
            prediction_samples: self.audit_samples,
            mean_abs_ips_error: mean(self.audit_ips_err_sum, self.audit_samples),
            mean_abs_power_error: mean(self.audit_power_err_sum, self.audit_samples),
            anneal_epochs,
            anneal_convergence_rate: ratio(anneal_improved, anneal_epochs),
            degrade_epochs,
            degrade_epoch_fraction: ratio(degrade_epochs, mode_epochs),
            mode_transitions: transitions,
            migrations,
            rejected_migrations: rejected,
            cache_hit_rate: ratio(hits, hits + misses),
        }
    }

    /// Snapshot bundle for embedding in suite reports.
    pub fn capture(&self) -> ObsCapture {
        ObsCapture {
            summary: self.summary(),
            jsonl: self.jsonl(),
            prometheus: self.registry.prometheus_text(),
        }
    }
}

/// Deterministic work accounting for one rebalance pipeline stage —
/// one row per [`STAGES`] entry in `BENCH_obs.json`'s stage profile.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StageProfile {
    /// Stage name (`sense`, `predict`, `anneal`, `exchange`, `apply`).
    pub stage: String,
    /// Times the stage was credited work.
    pub invocations: u64,
    /// Stage-specific work units: sense candidates, predictor-matrix
    /// cells, annealer iterations, exchange candidates, apply requests.
    pub work: u64,
}

/// Controller-health figures aggregated over a run — the payload CI
/// tracks in `BENCH_obs.json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSummary {
    /// Closed epoch spans.
    pub epochs: u64,
    /// Predicted-vs-realized samples resolved over the run.
    pub prediction_samples: u64,
    /// Mean |relative IPS prediction error| over all samples.
    pub mean_abs_ips_error: f64,
    /// Mean |relative power prediction error| over all samples.
    pub mean_abs_power_error: f64,
    /// Epochs in which the annealer ran.
    pub anneal_epochs: u64,
    /// Fraction of anneal epochs that improved on the initial objective.
    pub anneal_convergence_rate: f64,
    /// Epochs spent below the full-capability rung.
    pub degrade_epochs: u64,
    /// `degrade_epochs` over epochs where a rung was reported.
    pub degrade_epoch_fraction: f64,
    /// Per-epoch rung changes observed.
    pub mode_transitions: u64,
    /// Balancer migrations performed.
    pub migrations: u64,
    /// Balancer migrations rejected.
    pub rejected_migrations: u64,
    /// Estimate-cache hit rate over the observed epochs.
    pub cache_hit_rate: f64,
}

/// A serializable observability bundle: summary plus the JSONL and
/// Prometheus exports, ready to embed in a `SuiteReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsCapture {
    /// Aggregated controller-health figures.
    pub summary: ObsSummary,
    /// Per-epoch JSONL stream.
    pub jsonl: String,
    /// Prometheus text snapshot.
    pub prometheus: String,
}

/// `sum / n`, or 0 when `n` is 0.
fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / count_as_f64(n)
    }
}

/// `num / den` as a fraction, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        count_as_f64(num) / count_as_f64(den)
    }
}

/// Widens an event count for averaging (exact below 2^53).
fn count_as_f64(n: u64) -> f64 {
    n as f64
}

/// Widens a rung rank for the gauge.
fn rank_as_f64(rank: u64) -> f64 {
    rank as f64
}

/// Widens simulation nanoseconds for µs conversion (exact below 2^53).
pub(crate) fn ns_as_f64(ns: u64) -> f64 {
    ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_two_epochs(t: &mut Telemetry) {
        t.epoch_start(0, 0);
        t.record_sense(4, 4, 0, 0, 0, 0, 0);
        t.record_degrade("full", 0, 0);
        t.record_anneal(100, 20, 1.0, 1.5);
        t.record_prediction(7, 2, 100.0, 1.0);
        t.record_apply(4, 2, &[("offline_core", 1)]);
        t.epoch_end(60, 10, 6, 4);

        t.epoch_start(1, 60);
        t.record_degrade("predict-free", 1, 1);
        t.resolve_prediction(7, 2, 80.0, 1.1);
        t.epoch_end(120, 25, 16, 8);
    }

    #[test]
    fn spans_capture_phases_and_deltas() {
        let mut t = Telemetry::new();
        run_two_epochs(&mut t);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].slices, 10);
        assert_eq!(spans[1].slices, 15, "second span is a delta");
        assert_eq!(spans[1].cache_hits, 10);
        assert!(spans[0].anneal_ran);
        assert_eq!(spans[0].rejected, 1);
        assert!(!spans[0].mode_transition);
        assert!(spans[1].mode_transition, "full → predict-free");
        assert_eq!(spans[1].audit_samples, 1);
        assert!((spans[1].audit_mean_abs_ips_err - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_aggregates_controller_health() {
        let mut t = Telemetry::new();
        run_two_epochs(&mut t);
        let s = t.summary();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.prediction_samples, 1);
        assert!((s.mean_abs_ips_error - 0.25).abs() < 1e-12);
        assert_eq!(s.anneal_epochs, 1);
        assert!((s.anneal_convergence_rate - 1.0).abs() < 1e-12);
        assert_eq!(s.degrade_epochs, 1);
        assert!((s.degrade_epoch_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.mode_transitions, 1);
        assert_eq!(s.migrations, 2);
        assert_eq!(s.rejected_migrations, 1);
    }

    #[test]
    fn campaign_counters_accumulate() {
        let mut t = Telemetry::new();
        t.record_campaign_completed(1); // first-try success: no retries
        t.record_campaign_completed(3); // succeeded on the third try
        t.record_campaign_quarantined(4); // gave up after four tries
        t.record_campaign_resumed(7);
        let text = t.registry().prometheus_text();
        assert!(text.contains("sb_campaign_completed_total 2"), "{text}");
        assert!(text.contains("sb_campaign_retried_total 5"), "{text}");
        assert!(text.contains("sb_campaign_quarantined_total 1"), "{text}");
        assert!(text.contains("sb_campaign_resumed_total 7"), "{text}");
    }

    #[test]
    fn stage_profile_accumulates_pipeline_work() {
        let mut t = Telemetry::new();
        run_two_epochs(&mut t);
        t.record_stage("predict", 16);
        let profile = t.stage_profile();
        let names: Vec<&str> = profile.iter().map(|p| p.stage.as_str()).collect();
        assert_eq!(names, STAGES, "stable row order, zero rows included");
        let by_name = |n: &str| {
            profile
                .iter()
                .find(|p| p.stage == n)
                .expect("stage present")
                .clone()
        };
        assert_eq!(by_name("sense").work, 4, "sense work = candidates");
        assert_eq!(by_name("anneal").work, 100, "anneal work = iterations");
        assert_eq!(by_name("predict").work, 16);
        assert_eq!(by_name("predict").invocations, 1);
        assert_eq!(by_name("apply").work, 4, "apply work = requested");
        assert_eq!(by_name("exchange").work, 0, "flat run: exchange idle");
        let text = t.registry().prometheus_text();
        assert!(
            text.contains("sb_stage_work_total{stage=\"anneal\"} 100"),
            "{text}"
        );
    }

    #[test]
    fn span_capacity_turns_history_into_a_ring() {
        let mut t = Telemetry::new();
        t.set_span_capacity(2);
        for epoch in 0..5 {
            t.epoch_start(epoch, epoch * 60);
            t.epoch_end(epoch * 60 + 60, 0, 0, 0);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2, "ring holds the newest N spans");
        assert_eq!(spans[0].epoch, 3);
        assert_eq!(spans[1].epoch, 4);
        assert_eq!(t.dropped_spans(), 3);
        let text = t.registry().prometheus_text();
        assert!(
            text.contains("sb_epochs_total 5"),
            "registry series stay cumulative: {text}"
        );
    }

    #[test]
    fn mismatched_core_invalidates_prediction() {
        let mut t = Telemetry::new();
        t.epoch_start(0, 0);
        t.record_prediction(3, 1, 50.0, 0.5);
        t.epoch_end(60, 0, 0, 0);
        t.epoch_start(1, 60);
        // Task 3 ended up on core 0 (migration rejected) — no sample.
        t.resolve_prediction(3, 0, 50.0, 0.5);
        t.epoch_end(120, 0, 0, 0);
        assert_eq!(t.summary().prediction_samples, 0);
    }

    #[test]
    fn exports_are_deterministic_across_reruns() {
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        run_two_epochs(&mut a);
        run_two_epochs(&mut b);
        assert_eq!(a.jsonl(), b.jsonl());
        assert_eq!(
            a.registry().prometheus_text(),
            b.registry().prometheus_text()
        );
        assert_eq!(
            chrome_trace_json(&a.chrome_events()),
            chrome_trace_json(&b.chrome_events())
        );
        assert_eq!(a.capture(), b.capture());
    }
}
