//! Parallel experiment-suite engine: the harness behind every figure
//! and table of the evaluation.
//!
//! A suite is an ordered list of [`SuiteJob`]s — one `(spec, policy)`
//! pair each — fanned out across a fixed pool of worker threads. The
//! simulator is fully deterministic, so the only state a job needs to
//! be reproducible is its seed; the suite derives one from the job's
//! index (splitmix64), which makes results independent of worker
//! count, scheduling order and re-runs:
//!
//! ```
//! use archsim::{Platform, WorkloadCharacteristics};
//! use smartbalance::{ExperimentSpec, ExperimentSuite, Policy};
//! use workloads::WorkloadProfile;
//!
//! let spec = ExperimentSpec::new(
//!     "demo",
//!     Platform::quad_heterogeneous(),
//!     vec![WorkloadProfile::uniform(
//!         "t0",
//!         WorkloadCharacteristics::balanced(),
//!         20_000_000,
//!     )],
//! );
//! let mut suite = ExperimentSuite::new();
//! suite.push(spec.clone(), Policy::Vanilla);
//! suite.push(spec, Policy::Smart);
//! let report = suite.run();
//! assert_eq!(report.jobs.len(), 2);
//! let gains = report.gains_vs(Policy::Vanilla);
//! assert_eq!(gains.len(), 1, "one non-baseline job");
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use kernelsim::{parallel_indexed, LoadBalancer};
use serde::{Deserialize, Serialize};

use crate::config::SmartBalanceConfig;
use crate::runner::{
    run_experiment_into_hub, run_experiment_with, ExperimentSpec, Policy, PredictorCache,
    RunOptions, RunResult, TraceCapture, TraceRequest,
};
use crate::shard::ShardConfig;
use telemetry::{ObsCapture, TelemetryHandle};

/// splitmix64: the standard 64-bit seed expander; maps a job index to
/// an independent, well-mixed seed. Also reused by the sharded
/// balancer to derive per-cluster anneal seeds from the epoch seed, so
/// shard results are worker-count-invariant by construction.
pub fn splitmix64(index: u64) -> u64 {
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of suite work: a spec run under a policy, with the seed
/// the suite derived from the job's index.
#[derive(Debug, Clone)]
pub struct SuiteJob {
    /// The experiment to run.
    pub spec: ExperimentSpec,
    /// The balancing policy to run it under.
    pub policy: Policy,
    /// Deterministic seed (splitmix64 of the job index). Feeds the
    /// annealer unless the spec's policy config pins its own seed.
    pub seed: u64,
    /// Optional scheduler-event trace to capture during the run.
    pub trace: Option<TraceRequest>,
    /// When set, the job runs with a telemetry hub attached and its
    /// [`ObsCapture`] lands in the [`JobResult`].
    pub observe: bool,
    /// Hierarchical-sharding override for this job; `Some(..)` makes a
    /// [`Policy::Smart`] job run the cluster-sharded balancer
    /// regardless of the spec's policy config.
    pub shard: Option<ShardConfig>,
}

impl SuiteJob {
    /// Requests a scheduler-event trace for this job (builder style).
    pub fn with_trace(mut self, trace: TraceRequest) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Requests closed-loop observability for this job (builder style).
    pub fn with_observability(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Enables hierarchical sharding for this job (builder style);
    /// wins over the spec's `policy_config.shard`.
    pub fn with_shard(mut self, shard: ShardConfig) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The SmartBalance configuration this job actually runs with: the
    /// spec's `policy_config` (or defaults) with the job seed filled
    /// into `anneal_seed` and `sensor_seed` when the config doesn't
    /// pin them.
    pub fn effective_config(&self) -> SmartBalanceConfig {
        let mut cfg = self.spec.policy_config.clone().unwrap_or_default();
        if cfg.anneal_seed.is_none() {
            cfg.anneal_seed = Some(self.seed as u32);
        }
        if cfg.sensor_seed.is_none() {
            cfg.sensor_seed = Some(self.seed);
        }
        if let Some(shard) = self.shard {
            cfg.shard = Some(shard);
        }
        cfg
    }

    /// Builds this job's balancer exactly as the suite will — the
    /// canonical constructor for serial reruns and parity checks. A
    /// SmartBalance job trains its own predictor set here; the suite
    /// shares one per training key, which builds the same balancer.
    pub fn build_balancer(&self) -> Box<dyn LoadBalancer> {
        self.build_balancer_with(&PredictorCache::default())
    }

    /// [`build_balancer`](Self::build_balancer) with SmartBalance's
    /// predictor set taken from `predictors` ([`Policy::build_with`]).
    fn build_balancer_with(&self, predictors: &PredictorCache) -> Box<dyn LoadBalancer> {
        self.policy.build_with(
            &self.spec.platform,
            Some(&self.effective_config()),
            predictors,
        )
    }

    /// Runs the job to completion, training its own predictor set —
    /// the serial oracle for a pooled run of the same job, which
    /// produces exactly these measurements.
    pub fn execute(&self, index: usize) -> JobResult {
        self.execute_with(index, None, &PredictorCache::default())
    }

    /// The one job execution path: runs the job to completion, taking
    /// SmartBalance's predictor set from `predictors` and recording
    /// into `hub` when one is given. Public so orchestration layers
    /// above the suite (the campaign runner) can execute a single job
    /// under their own isolation/retry policy and still get the exact
    /// byte-stream a pooled run would have produced. `wall_s` includes
    /// the balancer's construction, so the job that trains a shared set
    /// carries that training.
    pub fn execute_with(
        &self,
        index: usize,
        hub: Option<&TelemetryHandle>,
        predictors: &PredictorCache,
    ) -> JobResult {
        // smartlint: allow(nondeterminism, "feeds only wall_s execution metadata, zeroed by canonicalized() before any fingerprint")
        let start = Instant::now();
        let mut balancer = self.build_balancer_with(predictors);
        let options = RunOptions {
            trace: self.trace,
            observe: self.observe,
        };
        let outcome = match hub {
            Some(hub) => run_experiment_into_hub(&self.spec, balancer.as_mut(), options, hub),
            None => run_experiment_with(&self.spec, balancer.as_mut(), options),
        };
        JobResult {
            job_index: index,
            seed: self.seed,
            policy: self.policy,
            result: outcome.result,
            trace: outcome.trace,
            obs: outcome.observability,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// The outcome of one suite job, in job order inside [`SuiteReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobResult {
    /// Index of the job in the suite (also the seed's source).
    pub job_index: usize,
    /// The seed the job ran with.
    pub seed: u64,
    /// The policy the job ran under.
    pub policy: Policy,
    /// The experiment measurements.
    pub result: RunResult,
    /// Captured scheduler trace, if the job requested one.
    pub trace: Option<TraceCapture>,
    /// Captured observability bundle, if the job requested one.
    pub obs: Option<ObsCapture>,
    /// Wall-clock duration of this job alone, seconds, balancer
    /// construction included. Within a suite or campaign run, the first
    /// SmartBalance job of each training key also carries the training
    /// of the set its siblings share.
    pub wall_s: f64,
}

/// Why one suite job failed, without taking the rest of the pool down.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobFailure {
    /// Index of the job in the suite.
    pub job_index: usize,
    /// The seed the job ran with.
    pub seed: u64,
    /// The policy the job ran under.
    pub policy: Policy,
    /// The experiment label from the job's spec.
    pub experiment: String,
    /// The panic payload, rendered as text (`<non-string panic>` when
    /// the payload was not a string).
    pub panic: String,
}

/// The typed outcome of one suite job: the measurements, or the
/// isolated failure. A panicking job no longer poisons the pool — it
/// becomes a [`JobOutcome::Failed`] entry that callers (chaos sweeps,
/// the campaign runner) can account for and continue past.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The job ran to completion (boxed: results dwarf failures).
    Completed(Box<JobResult>),
    /// The job panicked; the payload is captured, the pool kept going.
    Failed(JobFailure),
}

impl JobOutcome {
    /// The completed result, if the job did not fail.
    pub fn result(&self) -> Option<&JobResult> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            JobOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if the job panicked.
    pub fn failure(&self) -> Option<&JobFailure> {
        match self {
            JobOutcome::Completed(_) => None,
            JobOutcome::Failed(f) => Some(f),
        }
    }
}

/// Renders a `catch_unwind` payload as text for [`JobFailure::panic`].
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// A progress tick, delivered to the suite's callback as each job
/// finishes (from the worker thread that ran it).
#[derive(Debug, Clone)]
pub struct SuiteProgress {
    /// Jobs finished so far, including this one.
    pub completed: usize,
    /// Total jobs in the suite.
    pub total: usize,
    /// Which job just finished.
    pub job_index: usize,
    /// Its experiment label.
    pub experiment: String,
    /// Its policy.
    pub policy: Policy,
    /// Its wall-clock duration, seconds.
    pub wall_s: f64,
}

/// A baseline-relative efficiency summary row (the y-axis of the
/// paper's Fig. 4/5 bar charts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EfficiencyGain {
    /// Experiment label shared by the compared runs.
    pub experiment: String,
    /// The policy being compared against the baseline.
    pub policy: Policy,
    /// Its absolute energy efficiency, instructions/J.
    pub efficiency: f64,
    /// Ratio of its efficiency to the baseline's (>1 = better).
    pub gain: f64,
}

/// Everything a suite run produced, serializable for `--json` dumps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Per-job results, in job (push) order.
    pub jobs: Vec<JobResult>,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Wall-clock duration of the whole suite, seconds.
    pub wall_s: f64,
    /// Sum of per-job wall-clock durations — what a serial run of the
    /// same jobs would have cost. Each training key's predictor set is
    /// trained once per run, and that time sits in the job that
    /// trained it (see [`JobResult::wall_s`]).
    pub serial_wall_s: f64,
}

impl SuiteReport {
    /// Parallel speedup: serial cost over actual wall-clock.
    pub fn speedup(&self) -> f64 {
        if self.wall_s <= 0.0 {
            1.0
        } else {
            self.serial_wall_s / self.wall_s
        }
    }

    /// A copy with every execution-metadata field zeroed — wall-clock
    /// durations and the worker count, i.e. *how* the suite ran rather
    /// than what it computed. Everything left is required to be
    /// bit-identical across runs of the same jobs, whatever the pool
    /// size, so two canonicalized reports must serialize to the same
    /// bytes. The determinism regression tests compare exactly this.
    pub fn canonicalized(&self) -> SuiteReport {
        let mut report = self.clone();
        report.workers = 0;
        report.wall_s = 0.0;
        report.serial_wall_s = 0.0;
        for job in &mut report.jobs {
            job.wall_s = 0.0;
        }
        report
    }

    /// Jobs completed per wall-clock second.
    pub fn throughput_jobs_per_s(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.jobs.len() as f64 / self.wall_s
        }
    }

    /// The result of the `baseline` run of `experiment`, if present.
    pub fn baseline_for(&self, experiment: &str, baseline: Policy) -> Option<&RunResult> {
        self.jobs
            .iter()
            .find(|j| j.policy == baseline && j.result.experiment == experiment)
            .map(|j| &j.result)
    }

    /// Baseline-relative efficiency of every non-baseline job whose
    /// experiment also ran under `baseline`, in job order — the
    /// suite-level generalization of [`RunResult::efficiency_vs`].
    pub fn gains_vs(&self, baseline: Policy) -> Vec<EfficiencyGain> {
        self.jobs
            .iter()
            .filter(|j| j.policy != baseline)
            .filter_map(|j| {
                let base = self.baseline_for(&j.result.experiment, baseline)?;
                Some(EfficiencyGain {
                    experiment: j.result.experiment.clone(),
                    policy: j.policy,
                    efficiency: j.result.energy_efficiency(),
                    gain: j.result.efficiency_vs(base),
                })
            })
            .collect()
    }

    /// Geometric-mean gain of `policy` over `baseline` across every
    /// experiment both ran (the "average improvement" headline).
    pub fn mean_gain_vs(&self, baseline: Policy, policy: Policy) -> Option<f64> {
        let gains: Vec<f64> = self
            .gains_vs(baseline)
            .into_iter()
            .filter(|g| g.policy == policy && g.gain > 0.0)
            .map(|g| g.gain)
            .collect();
        if gains.is_empty() {
            return None;
        }
        let log_sum: f64 = gains.iter().map(|g| g.ln()).sum();
        Some((log_sum / gains.len() as f64).exp())
    }
}

/// Callback invoked as jobs finish; runs on worker threads.
type ProgressHook = Box<dyn Fn(&SuiteProgress) + Send + Sync>;

/// The suite engine: collects jobs, then fans them out over a worker
/// pool. See the module docs for an end-to-end example.
pub struct ExperimentSuite {
    jobs: Vec<SuiteJob>,
    workers: usize,
    progress: Option<ProgressHook>,
}

impl Default for ExperimentSuite {
    fn default() -> Self {
        Self::new()
    }
}

/// The machine's available parallelism (≥ 1): the default worker-pool
/// size for the suite and the sharded balancer's anneal fan-out. Pool
/// size never affects results — only wall-clock time — so this is the
/// one place simulation code may consult the environment.
pub fn default_workers() -> usize {
    // smartlint: allow(nondeterminism, "the one sanctioned environment read: pool size affects wall-clock only, results are worker-count-invariant")
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl ExperimentSuite {
    /// An empty suite sized to the machine's available parallelism.
    pub fn new() -> Self {
        ExperimentSuite {
            jobs: Vec::new(),
            workers: default_workers(),
            progress: None,
        }
    }

    /// Overrides the worker-pool size (builder style). Clamped to at
    /// least one; results never depend on it.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Installs a progress callback, invoked once per finished job
    /// from the worker that ran it (builder style).
    pub fn on_progress(mut self, hook: impl Fn(&SuiteProgress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Box::new(hook));
        self
    }

    /// Queues `spec` to run under `policy` and returns the job's
    /// index. The job's seed is derived from that index.
    pub fn push(&mut self, spec: ExperimentSpec, policy: Policy) -> usize {
        self.push_job(spec, policy, None)
    }

    /// [`push`](Self::push) with a scheduler-trace request attached.
    pub fn push_traced(
        &mut self,
        spec: ExperimentSpec,
        policy: Policy,
        trace: TraceRequest,
    ) -> usize {
        self.push_job(spec, policy, Some(trace))
    }

    /// [`push`](Self::push) with closed-loop observability: the job
    /// runs with a telemetry hub attached and its [`ObsCapture`]
    /// (summary + JSONL + Prometheus snapshot) lands in the report.
    pub fn push_observed(&mut self, spec: ExperimentSpec, policy: Policy) -> usize {
        let index = self.push_job(spec, policy, None);
        self.jobs[index].observe = true;
        index
    }

    /// [`push`](Self::push) with a sharding override: the job runs the
    /// cluster-sharded balancer under [`Policy::Smart`].
    pub fn push_with_shard(
        &mut self,
        spec: ExperimentSpec,
        policy: Policy,
        shard: ShardConfig,
    ) -> usize {
        let index = self.push_job(spec, policy, None);
        self.jobs[index].shard = Some(shard);
        index
    }

    fn push_job(
        &mut self,
        spec: ExperimentSpec,
        policy: Policy,
        trace: Option<TraceRequest>,
    ) -> usize {
        let index = self.jobs.len();
        self.jobs.push(SuiteJob {
            spec,
            policy,
            seed: splitmix64(index as u64),
            trace,
            observe: false,
            shard: None,
        });
        index
    }

    /// The queued jobs, in push order.
    pub fn jobs(&self) -> &[SuiteJob] {
        &self.jobs
    }

    /// Runs every queued job across the worker pool and returns the
    /// typed per-job outcomes in job order. A panicking job is caught
    /// on its worker, surfaced as [`JobOutcome::Failed`], and the rest
    /// of the pool keeps draining the queue — one poisoned cell never
    /// aborts a sweep. Jobs are handed out through a shared counter,
    /// so workers stay busy regardless of per-job cost; the per-job
    /// seeds make the outcomes identical for any pool size.
    /// SmartBalance jobs share one predictor set per training key for
    /// the length of the run ([`PredictorCache`]); a training that
    /// panics fails only the jobs of its key.
    pub fn run_outcomes(&self) -> Vec<JobOutcome> {
        self.run_pool().0
    }

    fn run_pool(&self) -> (Vec<JobOutcome>, usize, f64) {
        // smartlint: allow(nondeterminism, "suite wall-clock metadata only; job results come from seeded execute_with()")
        let start = Instant::now();
        let total = self.jobs.len();
        let workers = self.workers.min(total).max(1);
        let done = AtomicUsize::new(0);
        let predictors = PredictorCache::for_cells(self.jobs.iter().map(|j| (&j.spec, j.policy)));
        let outcomes = parallel_indexed(total, workers, |index| {
            let job = &self.jobs[index];
            let execute = || job.execute_with(index, None, &predictors);
            let outcome = match catch_unwind(AssertUnwindSafe(execute)) {
                Ok(result) => JobOutcome::Completed(Box::new(result)),
                Err(payload) => JobOutcome::Failed(JobFailure {
                    job_index: index,
                    seed: job.seed,
                    policy: job.policy,
                    experiment: job.spec.name.clone(),
                    panic: panic_message(payload.as_ref()),
                }),
            };
            // smartlint: allow(worker-capture, "progress counter feeds the UI hook only, never results")
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let (Some(hook), JobOutcome::Completed(result)) = (&self.progress, &outcome) {
                hook(&SuiteProgress {
                    completed,
                    total,
                    job_index: index,
                    experiment: result.result.experiment.clone(),
                    policy: result.policy,
                    wall_s: result.wall_s,
                });
            }
            outcome
        });
        (outcomes, workers, start.elapsed().as_secs_f64())
    }

    /// Runs every queued job and collects the results in job order.
    ///
    /// # Panics
    ///
    /// Re-raises the first job failure (in job order) once the whole
    /// pool has drained — callers that need to survive poisoned cells
    /// use [`run_outcomes`](Self::run_outcomes) instead.
    pub fn run(&self) -> SuiteReport {
        let (outcomes, workers, wall_s) = self.run_pool();
        let mut jobs = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                JobOutcome::Completed(result) => jobs.push(*result),
                #[expect(
                    clippy::panic,
                    reason = "run() documents abort-on-failure semantics; failure-tolerant callers use run_outcomes"
                )]
                JobOutcome::Failed(failure) => {
                    panic!(
                        "suite job {} ({} under {:?}) panicked: {}",
                        failure.job_index, failure.experiment, failure.policy, failure.panic
                    );
                }
            }
        }
        let serial_wall_s = jobs.iter().map(|j| j.wall_s).sum();
        SuiteReport {
            jobs,
            workers,
            wall_s,
            serial_wall_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{Platform, WorkloadCharacteristics};
    use workloads::WorkloadProfile;

    fn tiny_spec(name: &str) -> ExperimentSpec {
        ExperimentSpec::new(
            name,
            Platform::quad_heterogeneous(),
            vec![WorkloadProfile::uniform(
                "t0",
                WorkloadCharacteristics::balanced(),
                5_000_000,
            )],
        )
    }

    #[test]
    fn seeds_depend_on_index_not_contents() {
        let mut suite = ExperimentSuite::new();
        let a = suite.push(tiny_spec("a"), Policy::Vanilla);
        let b = suite.push(tiny_spec("a"), Policy::Vanilla);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        let seeds: Vec<u64> = suite.jobs().iter().map(|j| j.seed).collect();
        assert_ne!(seeds[0], seeds[1], "identical jobs get distinct seeds");
        assert_eq!(seeds[0], splitmix64(0));
        assert_eq!(seeds[1], splitmix64(1));
    }

    #[test]
    fn report_collects_in_job_order() {
        let mut suite = ExperimentSuite::new().with_workers(3);
        for i in 0..5 {
            suite.push(tiny_spec(&format!("e{i}")), Policy::Vanilla);
        }
        let report = suite.run();
        assert_eq!(report.jobs.len(), 5);
        assert_eq!(report.workers, 3);
        for (i, job) in report.jobs.iter().enumerate() {
            assert_eq!(job.job_index, i);
            assert_eq!(job.result.experiment, format!("e{i}"));
            assert!(job.wall_s >= 0.0);
        }
        // serial_wall_s is defined as the sum of per-job durations
        // (wall-clock relations are asserted in tests/suite.rs, where
        // the jobs are big enough to dominate pool overhead).
        let sum: f64 = report.jobs.iter().map(|j| j.wall_s).sum();
        assert!((report.serial_wall_s - sum).abs() < 1e-12);
        assert!(report.throughput_jobs_per_s() > 0.0);
    }

    #[test]
    fn progress_reports_every_job() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ticks);
        let mut suite = ExperimentSuite::new()
            .with_workers(2)
            .on_progress(move |p| {
                assert_eq!(p.total, 4);
                assert!(p.completed >= 1 && p.completed <= 4);
                seen.fetch_add(1, Ordering::Relaxed);
            });
        for i in 0..4 {
            suite.push(tiny_spec(&format!("e{i}")), Policy::Vanilla);
        }
        suite.run();
        assert_eq!(ticks.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn gains_compare_against_baseline_runs() {
        let mut suite = ExperimentSuite::new().with_workers(2);
        suite.push(tiny_spec("w"), Policy::Vanilla);
        suite.push(tiny_spec("w"), Policy::Smart);
        let report = suite.run();
        let gains = report.gains_vs(Policy::Vanilla);
        assert_eq!(gains.len(), 1);
        assert_eq!(gains[0].policy, Policy::Smart);
        assert!(gains[0].gain > 0.0);
        let mean = report
            .mean_gain_vs(Policy::Vanilla, Policy::Smart)
            .expect("smart ran");
        assert!((mean - gains[0].gain).abs() < 1e-12, "single-run geomean");
        assert!(report.mean_gain_vs(Policy::Vanilla, Policy::Gts).is_none());
    }

    #[test]
    fn pinned_anneal_seed_wins_over_job_seed() {
        let mut suite = ExperimentSuite::new();
        let spec = tiny_spec("w").with_policy_config(SmartBalanceConfig {
            anneal_seed: Some(7),
            ..SmartBalanceConfig::default()
        });
        suite.push(spec, Policy::Smart);
        assert_eq!(suite.jobs()[0].effective_config().anneal_seed, Some(7));
        let unpinned_spec = tiny_spec("w");
        suite.push(unpinned_spec, Policy::Smart);
        let job = &suite.jobs()[1];
        assert_eq!(job.effective_config().anneal_seed, Some(job.seed as u32));
    }

    #[test]
    fn job_seed_threads_into_sensor_seed() {
        let mut suite = ExperimentSuite::new();
        let pinned = tiny_spec("w").with_policy_config(SmartBalanceConfig {
            sensor_seed: Some(0xFEED),
            ..SmartBalanceConfig::default()
        });
        suite.push(pinned, Policy::Smart);
        assert_eq!(suite.jobs()[0].effective_config().sensor_seed, Some(0xFEED));
        suite.push(tiny_spec("w"), Policy::Smart);
        let job = &suite.jobs()[1];
        assert_eq!(job.effective_config().sensor_seed, Some(job.seed));
    }

    #[test]
    fn failed_job_is_isolated_and_typed() {
        // IKS asserts a 2-type big.LITTLE platform; on the 4-type quad
        // it panics deterministically — the canonical poisoned cell.
        let mut suite = ExperimentSuite::new().with_workers(2);
        suite.push(tiny_spec("ok0"), Policy::Vanilla);
        suite.push(tiny_spec("bad"), Policy::Iks);
        suite.push(tiny_spec("ok1"), Policy::Vanilla);
        let outcomes = suite.run_outcomes();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].result().is_some(), "sibling job survived");
        assert!(outcomes[2].result().is_some(), "later job still ran");
        let failure = outcomes[1].failure().expect("IKS on quad must fail");
        assert_eq!(failure.job_index, 1);
        assert_eq!(failure.policy, Policy::Iks);
        assert_eq!(failure.experiment, "bad");
        assert_eq!(failure.seed, splitmix64(1));
        assert!(
            failure.panic.contains("exactly 2 core types"),
            "payload text captured: {failure:?}"
        );
    }

    #[test]
    fn run_outcomes_matches_run_on_clean_suites() {
        let mut suite = ExperimentSuite::new().with_workers(2);
        suite.push(tiny_spec("w"), Policy::Vanilla);
        suite.push(tiny_spec("w"), Policy::Smart);
        let outcomes = suite.run_outcomes();
        let report = suite.run();
        assert_eq!(outcomes.len(), report.jobs.len());
        for (o, j) in outcomes.iter().zip(&report.jobs) {
            let r = o.result().expect("clean suite: no failures");
            assert_eq!(
                serde_json::to_string(&r.result).expect("serialize"),
                serde_json::to_string(&j.result).expect("serialize"),
                "outcome path and report path must measure identically"
            );
        }
    }

    #[test]
    fn parallel_indexed_preserves_order() {
        let squares = parallel_indexed(17, 4, |i| i * i);
        assert_eq!(squares.len(), 17);
        for (i, v) in squares.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert!(parallel_indexed(0, 4, |i| i).is_empty());
    }
}
