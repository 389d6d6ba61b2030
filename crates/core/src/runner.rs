//! End-to-end experiment runner: platform + workload set + policy →
//! measured energy efficiency. This is the harness behind every
//! evaluation figure; the bench crate's binaries are thin wrappers
//! around it.

use std::sync::OnceLock;

use archsim::{CoreConfig, Platform};
use kernelsim::{LoadBalancer, NullBalancer, System, SystemConfig, SystemStats};
use serde::{Deserialize, Serialize};
use workloads::WorkloadProfile;

use crate::balance::smart::train_predictors;
use crate::balance::{GtsBalancer, IksBalancer, SmartBalance, VanillaBalancer};
use crate::config::SmartBalanceConfig;
use crate::predict::PredictorSet;
use crate::shard::ShardConfig;
use telemetry::TelemetryHandle;

/// Which balancing policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// No balancing at all (tasks stay where fork placed them).
    None,
    /// The vanilla Linux weight-equalizing balancer.
    Vanilla,
    /// ARM GTS (requires a 2-core-type platform).
    Gts,
    /// Linaro IKS (requires a paired big.LITTLE platform).
    Iks,
    /// SmartBalance.
    Smart,
}

impl Policy {
    /// Instantiates the policy for `platform`. A configuration only
    /// affects [`Policy::Smart`]; `None` (or any config handed to a
    /// baseline policy) selects the defaults. SmartBalance trains its
    /// predictor set here.
    pub fn build(
        &self,
        platform: &Platform,
        cfg: Option<&SmartBalanceConfig>,
    ) -> Box<dyn LoadBalancer> {
        self.build_with(platform, cfg, &PredictorCache::default())
    }

    /// [`build`](Self::build), with SmartBalance's predictor set taken
    /// from `predictors`: the run's shared set when the cache holds a
    /// slot for its training key, a fresh training otherwise. The
    /// balancer is the same either way.
    pub(crate) fn build_with(
        &self,
        platform: &Platform,
        cfg: Option<&SmartBalanceConfig>,
        predictors: &PredictorCache,
    ) -> Box<dyn LoadBalancer> {
        match self {
            Policy::None => Box::new(NullBalancer),
            Policy::Vanilla => Box::new(VanillaBalancer::new()),
            Policy::Gts => Box::new(GtsBalancer::new()),
            Policy::Iks => Box::new(IksBalancer::new()),
            Policy::Smart => {
                let cfg = cfg.cloned().unwrap_or_default();
                let set = predictors.predictors_for(platform, &cfg);
                Box::new(SmartBalance::with_predictors(platform, cfg, set))
            }
        }
    }
}

/// The predictor sets one suite or campaign run shares.
///
/// Training (Section 4.2.2's offline profiling) is a pure function of
/// its key: the platform's core-type configurations plus the config's
/// `train_corpus`, `train_seed` and `sparse_sensing`. A run lists the
/// distinct keys of its pending [`Policy::Smart`] cells before its
/// workers start and makes one empty once-cell per key; nothing trains
/// then. The first cell that needs a key trains it on its own worker,
/// under its own panic isolation, and every later cell takes a clone.
/// A training that panics leaves its once-cell empty, so only that
/// key's cells fail, each exactly as it would alone.
///
/// The cache lives for one run, not for the process: a process-wide
/// memo would hide the training from every later run in the process,
/// although each run on its own pays for it. An empty cache (the
/// [`Default`]) shares nothing: every lookup trains afresh.
#[derive(Debug, Default)]
pub struct PredictorCache {
    slots: Vec<(TrainingKey, OnceLock<PredictorSet>)>,
}

/// What a trained predictor set is a pure function of.
#[derive(Debug, PartialEq)]
struct TrainingKey {
    type_configs: Vec<CoreConfig>,
    corpus: usize,
    seed: u64,
    sparse: bool,
}

impl TrainingKey {
    fn new(platform: &Platform, config: &SmartBalanceConfig) -> Self {
        TrainingKey {
            type_configs: platform.types().map(|(_, c)| c.clone()).collect(),
            corpus: config.train_corpus,
            seed: config.train_seed,
            sparse: config.sparse_sensing,
        }
    }
}

impl PredictorCache {
    /// One empty slot per distinct training key among the
    /// [`Policy::Smart`] cells of `cells`. Trains nothing.
    pub fn for_cells<'a>(cells: impl IntoIterator<Item = (&'a ExperimentSpec, Policy)>) -> Self {
        let default = SmartBalanceConfig::default();
        let mut cache = PredictorCache::default();
        for (spec, _) in cells.into_iter().filter(|&(_, p)| p == Policy::Smart) {
            let config = spec.policy_config.as_ref().unwrap_or(&default);
            let key = TrainingKey::new(&spec.platform, config);
            if cache.slot(&key).is_none() {
                cache.slots.push((key, OnceLock::new()));
            }
        }
        cache
    }

    /// Number of distinct training keys the cache has a slot for.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache has no slot, and so shares nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of slots trained so far.
    pub fn trained(&self) -> usize {
        self.slots
            .iter()
            .filter(|(_, set)| set.get().is_some())
            .count()
    }

    /// The predictor set for `platform` under `config`: a clone of the
    /// key's shared set, trained here by the first caller, or a fresh
    /// training when the cache has no slot for the key.
    pub fn predictors_for(&self, platform: &Platform, config: &SmartBalanceConfig) -> PredictorSet {
        let train = || train_predictors(platform, config);
        match self.slot(&TrainingKey::new(platform, config)) {
            Some(set) => set.get_or_init(train).clone(),
            None => train(),
        }
    }

    fn slot(&self, key: &TrainingKey) -> Option<&OnceLock<PredictorSet>> {
        self.slots
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, set)| set)
    }
}

/// One experiment: a platform, a set of task profiles and run limits.
///
/// Serializable so orchestration layers (the campaign runner) can
/// derive content-addressed job identities from a canonical JSON
/// rendering and persist grids to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Label for reports.
    pub name: String,
    /// The platform to simulate.
    pub platform: Platform,
    /// One task is spawned per profile.
    pub profiles: Vec<WorkloadProfile>,
    /// Kernel-simulator timing configuration.
    pub sys_config: SystemConfig,
    /// Hard stop after this many epochs even if tasks are still live.
    pub max_epochs: u64,
    /// SmartBalance configuration used when this spec runs under
    /// [`Policy::Smart`]; `None` = defaults. Baseline policies ignore
    /// it.
    pub policy_config: Option<SmartBalanceConfig>,
}

impl ExperimentSpec {
    /// Creates a spec with default timing and a 2 000-epoch (2-minute)
    /// safety limit.
    pub fn new(
        name: impl Into<String>,
        platform: Platform,
        profiles: Vec<WorkloadProfile>,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            platform,
            profiles,
            sys_config: SystemConfig::default(),
            max_epochs: 2_000,
            policy_config: None,
        }
    }

    /// Overrides the epoch safety limit.
    pub fn with_max_epochs(mut self, max_epochs: u64) -> Self {
        self.max_epochs = max_epochs;
        self
    }

    /// Overrides the kernel-simulator timing configuration.
    pub fn with_sys_config(mut self, sys_config: SystemConfig) -> Self {
        self.sys_config = sys_config;
        self
    }

    /// Enables hierarchical sharding for this spec's [`Policy::Smart`]
    /// runs (creates a default policy config when none is set yet).
    pub fn with_shard(mut self, shard: ShardConfig) -> Self {
        self.policy_config
            .get_or_insert_with(SmartBalanceConfig::default)
            .shard = Some(shard);
        self
    }

    /// Sets the SmartBalance configuration used when this spec runs
    /// under [`Policy::Smart`].
    pub fn with_policy_config(mut self, config: SmartBalanceConfig) -> Self {
        self.policy_config = Some(config);
        self
    }

    /// Splits `profile` into `threads` parallel worker tasks — the
    /// paper's "different levels of parallelization (2, 4, 8 threads)".
    /// The first `threads - 1` workers each take `1/threads` of every
    /// phase; the last worker takes whatever remains, so no
    /// instructions are dropped when the split is uneven.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn parallelize(profile: &WorkloadProfile, threads: usize) -> Vec<WorkloadProfile> {
        profile.split_among(threads)
    }
}

/// Result of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Experiment label.
    pub experiment: String,
    /// Policy name (from [`LoadBalancer::name`]).
    pub policy: String,
    /// Epochs executed.
    pub epochs: u64,
    /// Whether every task completed within the epoch limit.
    pub completed: bool,
    /// Final system statistics.
    pub stats: SystemStats,
}

impl RunResult {
    /// Energy efficiency in instructions per joule (≡ IPS/Watt).
    pub fn energy_efficiency(&self) -> f64 {
        self.stats.instructions_per_joule()
    }

    /// Ratio of this run's energy efficiency to `baseline`'s (>1 means
    /// better than baseline; Fig. 4/5's y-axis).
    pub fn efficiency_vs(&self, baseline: &RunResult) -> f64 {
        let b = baseline.energy_efficiency();
        if b <= 0.0 {
            0.0
        } else {
            self.energy_efficiency() / b
        }
    }
}

/// Runs `spec` under the given balancer until all tasks complete (or
/// the epoch limit hits) and returns the measurements.
///
/// This is the single experiment entry point. With a hub, the system
/// and the balancer both record into it: epoch spans, registry series,
/// the prediction audit and the scheduler events its trace level asks
/// for ([`telemetry::Telemetry::set_trace`]). The caller keeps the
/// handle and reads the run off it afterwards. Attaching a hub never
/// perturbs the run: the result is bit-identical with or without one.
pub fn run_experiment_with(
    spec: &ExperimentSpec,
    balancer: &mut dyn LoadBalancer,
    hub: Option<&TelemetryHandle>,
) -> RunResult {
    let mut sys = System::new(spec.platform.clone(), spec.sys_config);
    if let Some(hub) = hub {
        sys.set_telemetry(hub.clone());
        balancer.attach_telemetry(hub);
    }
    for profile in &spec.profiles {
        sys.spawn(profile.clone());
    }
    let epochs = sys.run_to_completion(balancer, spec.max_epochs);
    let stats = sys.stats();
    RunResult {
        experiment: spec.name.clone(),
        policy: balancer.name().to_owned(),
        epochs,
        completed: stats.live_tasks == 0,
        stats,
    }
}

/// Runs `spec` under each policy and returns the results in the same
/// order. SmartBalance honours the spec's `policy_config`.
pub fn compare_policies(spec: &ExperimentSpec, policies: &[Policy]) -> Vec<RunResult> {
    policies
        .iter()
        .map(|p| {
            let mut balancer = p.build(&spec.platform, spec.policy_config.as_ref());
            run_experiment_with(spec, balancer.as_mut(), None)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::WorkloadCharacteristics;

    fn small_spec() -> ExperimentSpec {
        let profiles = vec![
            WorkloadProfile::uniform("a", WorkloadCharacteristics::compute_bound(), 30_000_000),
            WorkloadProfile::uniform("b", WorkloadCharacteristics::memory_bound(), 10_000_000),
        ];
        ExperimentSpec::new("test", Platform::quad_heterogeneous(), profiles)
    }

    #[test]
    fn run_completes_and_reports() {
        let spec = small_spec();
        let mut b = Policy::Vanilla.build(&spec.platform, None);
        let r = run_experiment_with(&spec, b.as_mut(), None);
        assert!(r.completed);
        assert_eq!(r.policy, "vanilla");
        assert!(r.energy_efficiency() > 0.0);
        assert!(r.stats.total_instructions >= 40_000_000);
    }

    #[test]
    fn parallelize_splits_work_exactly() {
        // Evenly divisible and remainder cases both conserve the
        // instruction total exactly — no work is dropped.
        for (instructions, threads) in [(1_000_000u64, 4usize), (1_000_003, 4), (999_999, 8)] {
            let p =
                WorkloadProfile::uniform("x", WorkloadCharacteristics::balanced(), instructions);
            let parts = ExperimentSpec::parallelize(&p, threads);
            assert_eq!(parts.len(), threads);
            let total: u64 = parts.iter().map(|q| q.total_instructions()).sum();
            assert_eq!(total, instructions, "{instructions} over {threads} threads");
        }
    }

    #[test]
    fn policy_builders_report_names() {
        let quad = Platform::quad_heterogeneous();
        let bl = Platform::octa_big_little();
        assert_eq!(Policy::None.build(&quad, None).name(), "none");
        assert_eq!(Policy::Vanilla.build(&quad, None).name(), "vanilla");
        assert_eq!(Policy::Gts.build(&bl, None).name(), "gts");
        assert_eq!(Policy::Iks.build(&bl, None).name(), "iks");
        assert_eq!(Policy::Smart.build(&quad, None).name(), "smartbalance");
    }

    #[test]
    fn edp_goal_runs_end_to_end() {
        use crate::config::SmartBalanceConfig;
        use crate::objective::Goal;
        let spec = small_spec().with_policy_config(SmartBalanceConfig {
            goal: Goal::EnergyDelayProduct,
            ..SmartBalanceConfig::default()
        });
        let mut policy = Policy::Smart.build(&spec.platform, spec.policy_config.as_ref());
        let r = run_experiment_with(&spec, policy.as_mut(), None);
        assert!(r.completed);
        assert!(r.energy_efficiency() > 0.0);
    }

    #[test]
    fn instrumented_run_observes_the_loop() {
        let spec = small_spec();
        let mut policy = Policy::Smart.build(&spec.platform, None);
        let hub = telemetry::shared();
        hub.borrow_mut()
            .set_trace(telemetry::TraceLevel::Lifecycle, 64);
        let r = run_experiment_with(&spec, policy.as_mut(), Some(&hub));
        let obs = hub.borrow().capture();
        assert!(r.completed);
        assert_eq!(obs.summary.epochs, r.epochs, "one span per epoch");
        assert!(!obs.jsonl.is_empty());
        assert!(!obs.prometheus.is_empty());
        assert!(obs.prometheus.contains("sb_epochs_total"));
        assert!(!hub.borrow().events().is_empty(), "scheduler events");

        let mut policy = Policy::Smart.build(&spec.platform, None);
        let bare = run_experiment_with(&spec, policy.as_mut(), None);
        assert_eq!(r, bare, "observability must not perturb the run");
    }

    #[test]
    fn run_result_surfaces_migration_totals() {
        let spec = small_spec();
        let mut policy = Policy::Smart.build(&spec.platform, None);
        let r = run_experiment_with(&spec, policy.as_mut(), None);
        let totals = r.stats.migration_totals;
        assert_eq!(totals.migrated, r.stats.migrations);
        assert_eq!(
            totals.rejected,
            totals.unknown_task
                + totals.unknown_core
                + totals.exited
                + totals.affinity_forbidden
                + totals.offline_core
                + totals.transient_failure
        );
    }

    #[test]
    fn compare_runs_all_policies() {
        let spec = small_spec();
        let results = compare_policies(&spec, &[Policy::None, Policy::Vanilla, Policy::Smart]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].policy, "none");
        assert_eq!(results[1].policy, "vanilla");
        assert_eq!(results[2].policy, "smartbalance");
        for r in &results {
            assert!(r.completed, "{} did not finish", r.policy);
        }
        // Efficiency ratio helper.
        let ratio = results[2].efficiency_vs(&results[1]);
        assert!(ratio > 0.0);
    }
}
