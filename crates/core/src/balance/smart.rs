//! SmartBalance itself: the closed-loop sense → predict → balance
//! policy (paper Section 4, Fig. 1(b)), packaged as a
//! [`LoadBalancer`] plug-in for the kernel simulator.
//!
//! Per epoch:
//! 1. **sense** — distil the epoch's per-thread counters into workload
//!    signatures ([`crate::sense::Sensor`]);
//! 2. **estimate/predict** — predict each sensed thread's IPC on every
//!    core type once (reusing last epoch's row when its signature
//!    repeats), then build the full `S(k)`/`P(k)` characterization
//!    matrices, measuring on the current core type and predicting
//!    every other type ([`crate::estimate::build_matrices`]);
//! 3. **balance** — run Algorithm 1 ([`crate::anneal::anneal`]) from
//!    the current allocation, over all cores at once or, with
//!    [`SmartBalanceConfig::shard`] set, per cluster plus a
//!    cross-cluster exchange, and emit the migrations it decides on.
//!
//! With a host clock on the hub ([`telemetry::Telemetry::set_clock`]),
//! each pass adds its stages' host time to `sb_stage_host_ns_total`;
//! the prediction audit, the thermal step and hub records fall between
//! the stage spans.

use archsim::{CoreId, CoreTypeId, Platform};
use kernelsim::{Allocation, EpochReport, LoadBalancer, TaskId, TelemetryHandle};
use mcpat::ThermalModel;
use telemetry::{HostClock, Telemetry};

use crate::anneal::{anneal, AnnealOutcome, AnnealParams};
use crate::balance::sharded::Sharding;
use crate::balance::vanilla::VanillaBalancer;
use crate::config::SmartBalanceConfig;
use crate::degrade::QuarantineTracker;
use crate::degrade::{predict_free_greedy, DegradeController, DegradeMode, EpochHealth};
use crate::estimate::build_matrices_with_rows;
use crate::objective::Objective;
use crate::predict::PredictorSet;
use crate::sense::{SenseHealth, Sensor, ThreadSense, NUM_FEATURES};

/// Minimum per-epoch runtime for a thread's sample to be trusted
/// (below this the cached signature is replayed), ns.
const MIN_SAMPLE_RUNTIME_NS: u64 = 100_000;

/// Outcome of the per-epoch preamble (audit, thermal step, sensing,
/// degradation ladder, affinity constriction): either the epoch is
/// already settled, or the balance step should run on the sensed
/// threads.
enum Preamble {
    /// Nothing left for the balance step: an idle epoch (`None`) or a
    /// degraded-mode fallback that already produced the allocation.
    Skip(Option<Allocation>),
    /// Full-capability epoch: balance these sensed threads, whose
    /// prediction rows the policy's row table now holds.
    Proceed {
        /// Sensed, constriction-adjusted per-thread rows.
        senses: Vec<ThreadSense>,
        /// Per-core availability (`online[j]`), from the epoch report.
        online: Vec<bool>,
    },
}

/// What a prediction row is a pure function of, for a fixed
/// [`PredictorSet`]: the thread, its source core type and the bit
/// patterns of its signature.
type RowKey = (TaskId, CoreTypeId, [u64; NUM_FEATURES]);

/// The epoch's prediction rows: one
/// [`PredictorSet::predict_ipc_by_type`] row per sensed thread, the only
/// predictions an epoch makes. The quarantine residual and the
/// characterization matrices (flat or sharded) read them.
///
/// The table is rebuilt from every epoch's senses, so it holds exactly
/// the live sensed threads. A thread whose key equals last epoch's
/// takes last epoch's row instead of inverting its signature again: a
/// `SmartBalance` never changes its predictor set, so the row is a
/// pure function of the key. A DVFS change moves the signature's
/// frequency feature and so the key.
#[derive(Debug, Default)]
struct PredictionRows {
    /// One key per row, in sense order.
    keys: Vec<RowKey>,
    /// The rows, flat: `platform.num_types()` entries per key.
    rows: Vec<f64>,
}

impl PredictionRows {
    /// Rebuilds the table for `senses` and returns how many rows came
    /// from last epoch's table. Last epoch's entry is found by binary
    /// search on the task id, which relies on senses arriving in
    /// ascending task order (the kernel's live list is ascending); a
    /// hit also requires the whole key to be equal, so an unordered
    /// epoch only misses, never serves a wrong row. Misses are
    /// predicted here, serially.
    fn refresh(
        &mut self,
        platform: &Platform,
        senses: &[ThreadSense],
        predictors: &PredictorSet,
    ) -> usize {
        let q = platform.num_types();
        let mut keys = Vec::with_capacity(senses.len());
        let mut rows = Vec::with_capacity(senses.len() * q);
        let mut reused = 0;
        for sense in senses {
            let src = platform.core_type(sense.core);
            let key = (sense.task, src, sense.features.map(f64::to_bits));
            match self.keys.binary_search_by(|k| k.0.cmp(&sense.task)) {
                Ok(p) if self.keys[p] == key => {
                    rows.extend_from_slice(&self.rows[p * q..(p + 1) * q]);
                    reused += 1;
                }
                _ => {
                    let row = predictors.predict_ipc_by_type(&sense.features, src);
                    rows.extend_from_slice(&row[..q]);
                }
            }
            keys.push(key);
        }
        self.keys = keys;
        self.rows = rows;
        reused
    }
}

/// The host time of one rebalance pass's stages, read from the clock
/// the caller attached to the hub (fetched once per pass); without one,
/// nothing is read or recorded.
#[derive(Debug, Default)]
pub(super) struct StageClock {
    clock: Option<HostClock>,
    /// The reading that opened the current span.
    since: u64,
    /// Closed spans not yet recorded: stage and host ns.
    closed: Vec<(&'static str, u64)>,
}

impl StageClock {
    /// The clock's reading, when one is attached.
    fn now(&self) -> Option<u64> {
        // smartlint: allow(nondeterminism, "host time reaches only sb_stage_host_ns_total on the hub; no balancing decision reads it")
        self.clock.as_ref().map(HostClock::now_ns)
    }

    /// Opens a span.
    pub(super) fn start(&mut self) {
        self.since = self.now().unwrap_or(0);
    }

    /// Closes the open span and bills it to `stage`; a clock that ran
    /// backwards bills nothing.
    pub(super) fn stop(&mut self, stage: &'static str) {
        if let Some(now) = self.now() {
            self.closed.push((stage, now.saturating_sub(self.since)));
        }
    }

    /// Adds the closed spans to the hub's `sb_stage_host_ns_total`.
    fn record(&mut self, tel: &mut Telemetry) {
        for (stage, ns) in self.closed.drain(..) {
            tel.record_stage_host_ns(stage, ns);
        }
    }
}

/// The SmartBalance policy: one anneal over all cores, or, with
/// [`SmartBalanceConfig::shard`] set, one per cluster plus a
/// cross-cluster exchange.
///
/// # Examples
///
/// ```
/// use archsim::{Platform, WorkloadCharacteristics};
/// use kernelsim::{System, SystemConfig};
/// use smartbalance::SmartBalance;
/// use workloads::WorkloadProfile;
///
/// let platform = Platform::quad_heterogeneous();
/// let mut policy = SmartBalance::new(&platform);
/// let mut sys = System::new(platform, SystemConfig::default());
/// sys.spawn(WorkloadProfile::uniform(
///     "w",
///     WorkloadCharacteristics::compute_bound(),
///     40_000_000,
/// ));
/// sys.run_epoch(&mut policy);
/// ```
#[derive(Debug)]
pub struct SmartBalance {
    config: SmartBalanceConfig,
    predictors: PredictorSet,
    sensor: Sensor,
    seed: u32,
    epochs_balanced: u64,
    last_outcome: Option<AnnealOutcome>,
    thermal: Option<ThermalModel>,
    degrade: DegradeController,
    quarantine: QuarantineTracker,
    predictions: PredictionRows,
    fallback: VanillaBalancer,
    /// The sharded back half, when `config.shard` is set.
    sharding: Option<Sharding>,
    /// Shared observability hub, when the host system attached one.
    /// Purely write-only from the policy's perspective: recording never
    /// changes a balancing decision.
    telemetry: Option<TelemetryHandle>,
}

/// Builds the sensing stage from the configuration.
fn sensor_from_config(config: &SmartBalanceConfig) -> Sensor {
    Sensor::new(MIN_SAMPLE_RUNTIME_NS)
        .with_power_noise(
            config.power_noise_sigma,
            config.sensor_seed.unwrap_or(0xBAD_5EED),
        )
        .with_signature_ttl(config.degrade.signature_ttl_epochs)
}

/// The offline training step (Section 4.2.2) for `platform` under
/// `config`: a pure function of the platform's core types and the
/// config's `train_corpus`, `train_seed` and `sparse_sensing`.
pub(crate) fn train_predictors(platform: &Platform, config: &SmartBalanceConfig) -> PredictorSet {
    PredictorSet::train_with_sparsity(
        platform,
        config.train_corpus,
        config.train_seed,
        config.sparse_sensing,
    )
}

impl SmartBalance {
    /// Creates the policy for `platform` with default configuration,
    /// performing the offline predictor training (Section 4.2.2's
    /// profiling step) immediately.
    pub fn new(platform: &Platform) -> Self {
        Self::with_config(platform, SmartBalanceConfig::default())
    }

    /// Creates the policy with an explicit configuration, training its
    /// predictor set from `config.train_corpus`, `config.train_seed`
    /// and `config.sparse_sensing`.
    ///
    /// # Panics
    ///
    /// Panics when `config.core_weights` does not fit `platform`, as
    /// [`with_predictors`](Self::with_predictors) does.
    pub fn with_config(platform: &Platform, config: SmartBalanceConfig) -> Self {
        let predictors = train_predictors(platform, &config);
        Self::with_predictors(platform, config, predictors)
    }

    /// Creates the policy around an already trained predictor set, for
    /// example one set shared by every run of a suite. Given the set
    /// [`with_config`](Self::with_config) would train, the policy is
    /// exactly the one `with_config` builds.
    ///
    /// # Panics
    ///
    /// Panics if `predictors` was trained on other core types than
    /// `platform`'s, or on the sparse counter set when
    /// `config.sparse_sensing` is off (or the reverse). Panics if
    /// `config.core_weights` is set and does not hold exactly one
    /// finite, non-negative weight per core of `platform`.
    pub fn with_predictors(
        platform: &Platform,
        config: SmartBalanceConfig,
        predictors: PredictorSet,
    ) -> Self {
        let trained = predictors.type_configs();
        assert!(
            platform.types().map(|(_, c)| c).eq(trained),
            "predictor set was trained on core types {:?}, but the platform has {:?}",
            trained.iter().map(|c| &c.name).collect::<Vec<_>>(),
            platform.types().map(|(_, c)| &c.name).collect::<Vec<_>>(),
        );
        assert!(
            predictors.is_sparse() == config.sparse_sensing,
            "predictor set sparse = {}, but config.sparse_sensing = {}",
            predictors.is_sparse(),
            config.sparse_sensing,
        );
        if let Some(weights) = &config.core_weights {
            assert!(
                weights.len() == platform.num_cores(),
                "core_weights holds {} weights, but the platform has {} cores",
                weights.len(),
                platform.num_cores(),
            );
            for (j, &w) in weights.iter().enumerate() {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "core_weights[{j}] = {w}: ω must be finite and >= 0"
                );
            }
        }
        SmartBalance {
            sensor: sensor_from_config(&config),
            predictors,
            seed: config.anneal_seed.unwrap_or(0x5A17_B0B5),
            epochs_balanced: 0,
            thermal: config.thermal.map(|_| ThermalModel::new(platform)),
            degrade: DegradeController::new(config.degrade),
            quarantine: QuarantineTracker::new(),
            predictions: PredictionRows::default(),
            fallback: VanillaBalancer::new(),
            sharding: config.shard.map(|shard| Sharding::new(platform, shard)),
            config,
            last_outcome: None,
            telemetry: None,
        }
    }

    /// The thermal tracker's current estimate for a core, if thermal
    /// awareness is enabled.
    pub fn temperature_c(&self, core: archsim::CoreId) -> Option<f64> {
        self.thermal.as_ref().map(|t| t.temperature_c(core))
    }

    /// The trained predictor set (the Θ/α coefficients).
    pub fn predictors(&self) -> &PredictorSet {
        &self.predictors
    }

    /// The active configuration.
    pub fn config(&self) -> &SmartBalanceConfig {
        &self.config
    }

    /// Diagnostics from the most recent balancing pass.
    pub fn last_outcome(&self) -> Option<&AnnealOutcome> {
        self.last_outcome.as_ref()
    }

    /// Number of epochs this policy has balanced.
    pub fn epochs_balanced(&self) -> u64 {
        self.epochs_balanced
    }

    /// Current rung of the degradation ladder.
    pub fn mode(&self) -> DegradeMode {
        self.degrade.mode()
    }

    /// Total degradation-ladder transitions (both directions) since
    /// construction.
    pub fn mode_transitions(&self) -> u64 {
        self.degrade.transitions()
    }

    /// Threads whose predictions are currently quarantined.
    pub fn quarantined_threads(&self) -> Vec<kernelsim::TaskId> {
        self.quarantine.quarantined_tasks()
    }

    /// The sensing stage's classification tally for the last epoch.
    pub fn sense_health(&self) -> SenseHealth {
        self.sensor.health()
    }

    /// This epoch's annealer seed; advances the internal LCG so
    /// successive epochs explore differently (deterministically across
    /// runs).
    fn next_epoch_seed(&mut self) -> u32 {
        let seed = self.seed;
        self.seed = self
            .seed
            .wrapping_mul(0x0019_660D)
            .wrapping_add(0x3C6E_F35F);
        seed
    }

    /// The per-core objective weights `ω_j` in effect this epoch:
    /// explicit `core_weights` win, else thermal derating when the
    /// tracker is enabled, else `None` (all ones).
    fn effective_core_weights(&self, platform: &Platform) -> Option<Vec<f64>> {
        if let Some(w) = &self.config.core_weights {
            return Some(w.clone());
        }
        if let (Some(thermal), Some(tc)) = (&self.thermal, self.config.thermal) {
            // Thermal ω derating: steer work away from hot cores.
            return Some(
                platform
                    .cores()
                    .map(|c| tc.weight_for(thermal.temperature_c(c)))
                    .collect(),
            );
        }
        None
    }

    /// The front half of every rebalance pass: prediction audit,
    /// thermal step, sensing, prediction rows, quarantine/degradation
    /// bookkeeping and affinity-mask constriction — everything up to
    /// (but excluding) the matrix build. See [`Preamble`]. Fetches the
    /// hub's clock into `stages`.
    fn preamble(
        &mut self,
        platform: &Platform,
        report: &EpochReport,
        stages: &mut StageClock,
    ) -> Preamble {
        self.epochs_balanced += 1;

        // --- Prediction audit: settle last epoch's forecasts against
        // what the threads actually achieved. Samples only count when
        // the thread still runs on the core it was predicted for.
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            for ts in &report.tasks {
                tel.resolve_prediction(ts.task.0 as u64, ts.core.0 as u64, ts.ips(), ts.power_w());
            }
            stages.clock = tel.clock();
        }

        // --- Thermal tracking (optional): advance the RC model with
        // this epoch's measured per-core power.
        if let Some(thermal) = &mut self.thermal {
            for c in &report.cores {
                thermal.step(c.core, c.power_w(report.duration_ns), report.duration_ns);
            }
        }

        // --- Sense -----------------------------------------------------
        // Kernel threads never take part: the paper balances user
        // threads ("the impact of the user level threads dominates that
        // of the kernel threads").
        stages.start();
        let mut senses = self.sensor.sense(platform, report);
        senses.retain(|s| !s.kernel_thread);
        stages.stop("sense");
        // --- Predict: one row per sensed thread, reused while its
        // signature repeats ----------------------------------------------
        stages.start();
        self.predictions
            .refresh(platform, &senses, &self.predictors);
        if senses.is_empty() {
            self.last_outcome = None;
            return Preamble::Skip(None);
        }

        // --- Degradation ladder: distrust what failed --------------------
        self.quarantine
            .observe(platform, &senses, &self.predictions.rows);
        let sense_health = self.sensor.health();
        let health = EpochHealth {
            candidates: sense_health.candidates,
            invalid: sense_health.invalid,
            blind: sense_health.blind,
            quarantined: self.quarantine.quarantined_count(),
        };
        let mode = self.degrade.step(&health);
        stages.stop("predict");
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            tel.record_sense(
                sense_health.candidates as u64,
                sense_health.fresh as u64,
                sense_health.invalid as u64,
                sense_health.replayed as u64,
                sense_health.expired as u64,
                sense_health.priors as u64,
                sense_health.blind as u64,
            );
            tel.record_degrade(
                mode.name(),
                u64::from(mode.rank()),
                self.degrade.transitions(),
            );
            stages.record(&mut tel);
        }

        // Per-core availability from the report (missing entries are
        // treated as online, matching older reports).
        let n = platform.num_cores();
        let mut online = vec![true; n];
        for c in &report.cores {
            if c.core.0 < n {
                online[c.core.0] = c.online;
            }
        }

        match mode {
            DegradeMode::LoadOnly => {
                // Sensing itself is distrusted: fall back to the
                // heterogeneity-blind load-equalizing spread, which only
                // needs run-queue weights.
                self.last_outcome = None;
                return Preamble::Skip(self.fallback.rebalance(platform, report));
            }
            DegradeMode::PredictFree => {
                // Predictions are distrusted but measurements are not:
                // greedy IPS/Watt packing on static core efficiency.
                self.last_outcome = None;
                return Preamble::Skip(predict_free_greedy(platform, &senses, &online));
            }
            DegradeMode::Full => {}
        }

        // Constrain the annealer's search: quarantined threads stay
        // put (their signatures cannot be trusted to propose moves)
        // and offline cores are excluded from every affinity mask.
        let any_offline = online.iter().any(|&o| !o);
        if any_offline || self.quarantine.quarantined_count() > 0 {
            let online_bits: u64 = online
                .iter()
                .enumerate()
                .filter(|&(j, &o)| o && j < 64)
                .fold(0u64, |acc, (j, _)| acc | (1 << j));
            for s in &mut senses {
                if s.core.0 >= 64 {
                    continue; // masks cannot express cores beyond 64
                }
                if self.quarantine.is_quarantined(s.task) {
                    s.allowed = 1 << s.core.0;
                } else if any_offline && n <= 64 {
                    // Never leave the mask empty: the current core is
                    // always representable.
                    s.allowed = (s.allowed & online_bits) | (1 << s.core.0);
                }
            }
        }

        Preamble::Proceed { senses, online }
    }
}

impl LoadBalancer for SmartBalance {
    fn name(&self) -> &str {
        if self.sharding.is_some() {
            "smartbalance-sharded"
        } else {
            "smartbalance"
        }
    }

    fn attach_telemetry(&mut self, handle: &TelemetryHandle) {
        self.telemetry = Some(handle.clone());
        if let Some(sharding) = &mut self.sharding {
            sharding.telemetry = Some(handle.clone());
        }
    }

    /// 1, or [`ShardConfig::workers`](crate::ShardConfig::workers) when
    /// sharded, with `0` resolved to the machine's available
    /// parallelism: the per-cluster anneal's pool size, and the slice
    /// loop's.
    fn workers(&self) -> usize {
        self.sharding.as_ref().map_or(1, Sharding::workers)
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let mut stages = StageClock::default();
        let (senses, online) = match self.preamble(platform, report, &mut stages) {
            Preamble::Skip(alloc) => return alloc,
            Preamble::Proceed { senses, online } => (senses, online),
        };

        // --- Estimate: S(k), P(k) from the epoch's prediction rows ----
        stages.start();
        let matrices =
            build_matrices_with_rows(platform, &senses, &self.predictions.rows, &self.predictors);
        let mut objective = Objective::new(&matrices, self.config.goal);
        if let Some(weights) = self.effective_core_weights(platform) {
            objective = objective.with_weights(weights);
        }
        let seed = self.next_epoch_seed();
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        stages.stop("predict");

        // --- Balance: Algorithm 1 from the current allocation, over all
        // cores or per cluster plus the exchange ------------------------
        stages.start();
        let (outcome, predict_cells) = match &self.sharding {
            None => {
                let params = AnnealParams::scaled_for(platform.num_cores(), senses.len());
                // Predict-stage work = the dense S/P matrices just
                // built: one cell per (thread, core) pair.
                let cells = (senses.len() * platform.num_cores()) as u64;
                let outcome = anneal(&objective, &initial, params, seed);
                stages.stop("anneal");
                (outcome, cells)
            }
            Some(sharding) => match sharding.balance(
                &objective,
                &senses,
                &online,
                &self.quarantine,
                seed,
                &mut stages,
            ) {
                Some(pass) => pass,
                None => {
                    self.last_outcome = None;
                    return None;
                }
            },
        };

        // --- Emit the diff and the books ------------------------------
        let mut alloc = Allocation::new();
        for (sense, (&new_core, &old_core)) in senses
            .iter()
            .zip(outcome.allocation.iter().zip(initial.iter()))
        {
            if new_core != old_core {
                alloc.assign(sense.task, CoreId(new_core));
            }
        }
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            tel.record_stage("predict", predict_cells);
            tel.record_anneal(
                u64::from(outcome.iterations),
                u64::from(outcome.accepted_moves),
                outcome.initial_objective,
                outcome.objective,
            );
            // Forecast next epoch: thread i should achieve the S/P
            // matrix entries of its chosen core.
            for (i, sense) in senses.iter().enumerate() {
                let dest = outcome.allocation[i];
                tel.record_prediction(
                    sense.task.0 as u64,
                    dest as u64,
                    matrices.ips(i, dest),
                    matrices.power(i, dest),
                );
            }
            stages.record(&mut tel);
        }
        self.last_outcome = Some(outcome);

        if alloc.is_empty() {
            None
        } else {
            Some(alloc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::WorkloadCharacteristics;
    use kernelsim::{System, SystemConfig};
    use workloads::WorkloadProfile;

    /// End-to-end smoke: a mixed workload on the quad-heterogeneous
    /// platform; SmartBalance must place compute-bound work on strong
    /// cores and memory-bound work on weak ones within a few epochs.
    #[test]
    fn separates_compute_from_memory_threads() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        // Large budgets so nothing exits during the test.
        let compute = sys.spawn_on(
            WorkloadProfile::uniform(
                "compute",
                WorkloadCharacteristics::compute_bound(),
                u64::MAX / 4,
            ),
            archsim::CoreId(3), // deliberately start on the Small core
        );
        let memory = sys.spawn_on(
            WorkloadProfile::uniform(
                "memory",
                WorkloadCharacteristics::memory_bound(),
                u64::MAX / 4,
            ),
            archsim::CoreId(0), // deliberately start on the Huge core
        );
        for _ in 0..6 {
            sys.run_epoch(&mut policy);
        }
        let c_core = sys.task(compute).core().0;
        let m_core = sys.task(memory).core().0;
        // Energy-efficiency goal: the memory-bound thread must leave
        // the Huge core (its IPS/W there is terrible).
        assert_ne!(m_core, 0, "memory-bound thread must not stay on Huge");
        assert!(
            policy.epochs_balanced() == 6,
            "balanced every epoch: {}",
            policy.epochs_balanced()
        );
        // The two threads end up on different cores.
        assert_ne!(c_core, m_core);
    }

    #[test]
    fn idle_system_is_noop() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        let report = sys.run_epoch(&mut policy);
        assert!(report.tasks.is_empty());
        assert!(policy.last_outcome().is_none());
    }

    #[test]
    fn kernel_threads_excluded_by_default() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        let ktid = sys.next_task_id();
        sys.spawn_task(
            kernelsim::Task::new(
                ktid,
                WorkloadProfile::uniform(
                    "kworker",
                    WorkloadCharacteristics::balanced(),
                    u64::MAX / 4,
                ),
                archsim::CoreId(0),
            )
            .as_kernel_thread(),
        );
        for _ in 0..3 {
            sys.run_epoch(&mut policy);
        }
        assert_eq!(
            sys.task(ktid).migrations(),
            0,
            "kernel threads stay put by default"
        );
    }

    #[test]
    fn sensing_blackout_walks_the_ladder_down_and_back() {
        use archsim::{FaultClass, FaultKind, FaultPlan};

        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        // All counters stuck from epoch 0; sensors heal at epoch 6.
        sys.set_fault_plan(
            FaultPlan::new()
                .inject(0, None, FaultKind::StuckCounters { prob: 1.0 })
                .clear(6, None, FaultClass::Stuck),
            0xC0FFEE,
        );
        for _ in 0..4 {
            sys.spawn(WorkloadProfile::uniform(
                "w",
                WorkloadCharacteristics::balanced(),
                u64::MAX / 4,
            ));
        }
        let mut saw_load_only = false;
        for _ in 0..18 {
            sys.run_epoch(&mut policy);
            saw_load_only |= policy.mode() == crate::degrade::DegradeMode::LoadOnly;
        }
        assert!(
            saw_load_only,
            "stuck counters must demote all the way to load-only"
        );
        assert_eq!(
            policy.mode(),
            crate::degrade::DegradeMode::Full,
            "healed sensors must recover the full loop"
        );
        // Down (1 jump) + up (2 rungs) = at least 3 transitions.
        assert!(
            policy.mode_transitions() >= 3,
            "transitions: {}",
            policy.mode_transitions()
        );
    }

    /// A scripted sense of `task` on `core`, with the signature of `w`
    /// sampled on that core.
    fn scripted_sense(
        platform: &Platform,
        task: usize,
        core: usize,
        w: &WorkloadCharacteristics,
    ) -> ThreadSense {
        let cfg = platform.core_config(archsim::CoreId(core));
        let slice = archsim::run_slice(w, cfg, 10_000_000);
        ThreadSense {
            task: TaskId(task),
            core: archsim::CoreId(core),
            features: crate::sense::features_from_counters(&slice.counters, cfg.freq_hz),
            measured_ips: slice.ips(),
            measured_power_w: 1.0,
            utilization: 0.8,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh: true,
        }
    }

    /// Epochs of scripted senses through the prediction row table: a
    /// row is reused only when the thread's whole key repeats, every
    /// row equals a fresh prediction bit for bit, the table holds
    /// exactly the epoch's senses, and the flat matrices built from it
    /// equal the public `build_matrices`.
    #[test]
    fn prediction_rows_are_reused_only_while_the_key_repeats() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 150, 0xDAC_2015);
        let q = platform.num_types();
        let a = scripted_sense(&platform, 0, 0, &WorkloadCharacteristics::compute_bound());
        let b = scripted_sense(&platform, 1, 1, &WorkloadCharacteristics::memory_bound());
        let c = scripted_sense(&platform, 2, 2, &WorkloadCharacteristics::balanced());
        let d = scripted_sense(&platform, 3, 0, &WorkloadCharacteristics::memory_bound());
        // Thread 1's signature changes in one feature.
        let mut b2 = b;
        b2.features[3] += 0.01;
        // Thread 2 migrates to another core type; its features stay.
        let c2 = ThreadSense {
            core: archsim::CoreId(3),
            ..c
        };
        // Thread 0 is replayed from the sensing cache: first on its
        // core, then after a migration to another core type.
        let a_replayed = ThreadSense { fresh: false, ..a };
        let a_moved = ThreadSense {
            core: archsim::CoreId(1),
            ..a_replayed
        };
        let epochs: [(Vec<ThreadSense>, usize); 4] = [
            (vec![a, b, c], 0),
            // Repeat; changed feature; migration with equal features.
            (vec![a, b2, c2], 1),
            // Replay in place; repeat; thread 2 exits; thread 3 starts.
            (vec![a_replayed, b2, d], 2),
            // Replay after a migration; repeat; thread 2 is back with
            // its last key, but its row left the table when it exited.
            (vec![a_moved, b2, c2, d], 2),
        ];

        let mut table = PredictionRows::default();
        for (k, (senses, want_reused)) in epochs.iter().enumerate() {
            let reused = table.refresh(&platform, senses, &predictors);
            assert_eq!(reused, *want_reused, "epoch {k}: reused rows");
            let tasks: Vec<TaskId> = table.keys.iter().map(|key| key.0).collect();
            let sensed: Vec<TaskId> = senses.iter().map(|s| s.task).collect();
            assert_eq!(tasks, sensed, "epoch {k}: the table holds the senses");
            assert_eq!(table.rows.len(), senses.len() * q, "epoch {k}");
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (i, s) in senses.iter().enumerate() {
                let fresh = predictors.predict_ipc_by_type(&s.features, platform.core_type(s.core));
                let row = &table.rows[i * q..(i + 1) * q];
                assert_eq!(bits(row), bits(&fresh), "epoch {k}: thread {i}'s row");
            }
            // Every value here is finite, so equal matrices hold equal
            // values.
            let shared = build_matrices_with_rows(&platform, senses, &table.rows, &predictors);
            let public = crate::estimate::build_matrices(&platform, senses, &predictors);
            assert_eq!(shared, public, "epoch {k}: matrices from the table's rows");
        }
        // An idle epoch empties the table.
        assert_eq!(table.refresh(&platform, &[], &predictors), 0);
        assert!(table.keys.is_empty() && table.rows.is_empty());
    }

    #[test]
    #[should_panic(
        expected = r#"predictor set was trained on core types ["bigA15", "littleA7"], but the platform has ["Huge", "Big", "Medium", "Small"]"#
    )]
    fn a_set_trained_for_other_core_types_is_rejected() {
        let big_little = PredictorSet::train(&Platform::octa_big_little(), 20, 1);
        SmartBalance::with_predictors(
            &Platform::quad_heterogeneous(),
            SmartBalanceConfig::default(),
            big_little,
        );
    }

    #[test]
    #[should_panic(expected = "predictor set sparse = false, but config.sparse_sensing = true")]
    fn a_dense_set_is_rejected_by_a_sparse_config() {
        let platform = Platform::quad_heterogeneous();
        let dense = PredictorSet::train(&platform, 20, 1);
        let sparse = SmartBalanceConfig {
            sparse_sensing: true,
            ..SmartBalanceConfig::default()
        };
        SmartBalance::with_predictors(&platform, sparse, dense);
    }

    /// A config with explicit per-core weights, sharded or not.
    fn weighted(weights: Vec<f64>, shard: Option<crate::ShardConfig>) -> SmartBalanceConfig {
        SmartBalanceConfig {
            core_weights: Some(weights),
            shard,
            ..SmartBalanceConfig::default()
        }
    }

    #[test]
    #[should_panic(expected = "core_weights holds 3 weights, but the platform has 4 cores")]
    fn a_weight_vector_of_the_wrong_length_is_rejected() {
        let config = weighted(vec![1.0; 3], None);
        SmartBalance::with_config(&Platform::quad_heterogeneous(), config);
    }

    #[test]
    #[should_panic(expected = "core_weights[1] = -0.5: ω must be finite and >= 0")]
    fn a_negative_weight_is_rejected() {
        let config = weighted(vec![1.0, -0.5, 1.0, 1.0], None);
        SmartBalance::with_config(&Platform::quad_heterogeneous(), config);
    }

    #[test]
    #[should_panic(expected = "core_weights holds 3 weights, but the platform has 8 cores")]
    fn a_sharded_policy_rejects_a_short_weight_vector() {
        let config = weighted(vec![1.0; 3], Some(crate::ShardConfig::default()));
        SmartBalance::with_config(&Platform::clustered_heterogeneous(2, 4), config);
    }

    #[test]
    fn outcome_diagnostics_exposed() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        for _ in 0..3 {
            sys.spawn(WorkloadProfile::uniform(
                "w",
                WorkloadCharacteristics::balanced(),
                u64::MAX / 4,
            ));
        }
        sys.run_epoch(&mut policy);
        let out = policy.last_outcome().expect("ran");
        assert!(out.iterations > 0);
        assert!(out.objective >= out.initial_objective);
    }
}
