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
use crate::runner::{run_experiment_with, ExperimentSpec, Policy, PredictorCache, RunResult};
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
    /// When set and no hub is handed to
    /// [`execute_with`](Self::execute_with), the job runs with a hub of
    /// its own attached and its [`ObsCapture`] lands in the
    /// [`JobResult`].
    pub observe: bool,
}

impl SuiteJob {
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
    /// into `hub` when one is given (the caller reads the hub; the
    /// result's `obs` stays `None`). Public so orchestration layers
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
        let own = (hub.is_none() && self.observe).then(telemetry::shared);
        let result = run_experiment_with(&self.spec, balancer.as_mut(), hub.or(own.as_ref()));
        JobResult {
            job_index: index,
            seed: self.seed,
            policy: self.policy,
            result,
            obs: own.map(|hub| hub.borrow().capture()),
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
    /// Captured observability bundle, if the job requested one.
    pub obs: Option<ObsCapture>,
    /// Wall-clock duration of this job alone, seconds, balancer
    /// construction included. Within a suite or campaign run, the first
    /// SmartBalance job of each training key also carries the training
    /// of the set its siblings share.
    pub wall_s: f64,
}

/// Renders a `catch_unwind` payload as text: the panic message, or
/// `<non-string panic>` when the payload was not a string.
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
#[derive(Debug, Clone)]
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

/// Everything a suite run produced. It serializes so that parity tests
/// can compare two runs byte for byte ([`SuiteReport::canonicalized`]).
#[derive(Debug, Clone, Serialize)]
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
        self.push_job(spec, policy, false)
    }

    /// [`push`](Self::push) with closed-loop observability: the job
    /// runs with a telemetry hub attached and its [`ObsCapture`]
    /// (summary + JSONL + Prometheus snapshot) lands in the report.
    pub fn push_observed(&mut self, spec: ExperimentSpec, policy: Policy) -> usize {
        self.push_job(spec, policy, true)
    }

    fn push_job(&mut self, spec: ExperimentSpec, policy: Policy, observe: bool) -> usize {
        let index = self.jobs.len();
        self.jobs.push(SuiteJob {
            spec,
            policy,
            seed: splitmix64(index as u64),
            observe,
        });
        index
    }

    /// The queued jobs, in push order.
    pub fn jobs(&self) -> &[SuiteJob] {
        &self.jobs
    }

    /// Runs every queued job across the worker pool and collects the
    /// results in job order. Jobs are handed out through a shared
    /// counter, so workers stay busy regardless of per-job cost; the
    /// per-job seeds make the results identical for any pool size.
    /// SmartBalance jobs share one predictor set per training key for
    /// the length of the run ([`PredictorCache`]).
    ///
    /// # Panics
    ///
    /// A panicking job is caught on its worker and the pool keeps
    /// draining the queue; once every job has run, the first failure in
    /// job order is re-raised as `suite job <index> (<experiment> under
    /// <policy>) panicked: <message>` (a training that panics fails the
    /// jobs of its key). The `campaign` crate is the runner that
    /// survives failing cells.
    pub fn run(&self) -> SuiteReport {
        // smartlint: allow(nondeterminism, "suite wall-clock metadata only; job results come from seeded execute_with()")
        let start = Instant::now();
        let total = self.jobs.len();
        let workers = self.workers.min(total).max(1);
        let done = AtomicUsize::new(0);
        let predictors = PredictorCache::for_cells(self.jobs.iter().map(|j| (&j.spec, j.policy)));
        let outcomes = parallel_indexed(total, workers, |index| {
            let job = &self.jobs[index];
            let execute = || job.execute_with(index, None, &predictors);
            let outcome = catch_unwind(AssertUnwindSafe(execute)).map_err(|payload| {
                format!(
                    "suite job {index} ({} under {:?}) panicked: {}",
                    job.spec.name,
                    job.policy,
                    panic_message(payload.as_ref())
                )
            });
            // smartlint: allow(worker-capture, "progress counter feeds the UI hook only, never results")
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let (Some(hook), Ok(result)) = (&self.progress, &outcome) {
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
        let wall_s = start.elapsed().as_secs_f64();
        // The first failure in job order, once the whole pool has run.
        let jobs: Vec<JobResult> = match outcomes.into_iter().collect() {
            Ok(jobs) => jobs,
            #[expect(
                clippy::panic,
                reason = "run() documents abort-on-failure semantics; failure-tolerant sweeps use the campaign runner"
            )]
            Err(failure) => panic!("{failure}"),
        };
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
    #[should_panic(
        expected = "suite job 1 (bad under Iks) panicked: assertion `left == right` failed: IKS only supports big.LITTLE (exactly 2 core types)"
    )]
    fn failed_job_fails_the_run_after_the_pool_drains() {
        // IKS asserts a 2-type big.LITTLE platform; on the 4-type quad
        // it panics deterministically — the canonical poisoned cell.
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        let seen = std::sync::Arc::clone(&ran);
        let mut suite = ExperimentSuite::new()
            .with_workers(2)
            .on_progress(move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
            });
        suite.push(tiny_spec("ok0"), Policy::Vanilla);
        suite.push(tiny_spec("bad"), Policy::Iks);
        suite.push(tiny_spec("ok1"), Policy::Vanilla);
        let failure = catch_unwind(AssertUnwindSafe(|| suite.run())).expect_err("IKS on quad");
        assert_eq!(ran.load(Ordering::Relaxed), 2, "both healthy jobs ran");
        std::panic::resume_unwind(failure);
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
