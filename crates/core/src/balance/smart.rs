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
//!    the current allocation and emit the migrations it decides on.

use archsim::{CoreTypeId, Platform};
use kernelsim::{Allocation, EpochReport, LoadBalancer, TaskId, TelemetryHandle};
use mcpat::ThermalModel;

use crate::anneal::{anneal, AnnealOutcome, AnnealParams};
use crate::balance::vanilla::VanillaBalancer;
use crate::config::SmartBalanceConfig;
use crate::degrade::QuarantineTracker;
use crate::degrade::{predict_free_greedy, DegradeController, DegradeMode, EpochHealth};
use crate::estimate::build_matrices_with_rows;
use crate::objective::Objective;
use crate::predict::PredictorSet;
use crate::sense::{SenseHealth, Sensor, ThreadSense, NUM_FEATURES};

/// Outcome of the shared per-epoch preamble (audit, thermal step,
/// sensing, degradation ladder, affinity constriction): either the
/// epoch is already settled, or the optimizer should run on the sensed
/// threads. Shared between the flat annealer and the sharded balancer
/// so both walk an identical sense/degrade path.
pub(crate) enum PreambleOutcome {
    /// Nothing left for the optimizer: an idle epoch (`None`) or a
    /// degraded-mode fallback that already produced the allocation.
    Skip(Option<Allocation>),
    /// Full-capability epoch: optimize these sensed threads.
    Proceed {
        /// Sensed, constriction-adjusted per-thread rows.
        senses: Vec<ThreadSense>,
        /// Each sensed thread's predicted IPC on every core type
        /// ([`PredictorSet::predict_ipc_by_type`]), flat,
        /// `platform.num_types()` entries per thread in sense order.
        rows: Vec<f64>,
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

/// The SmartBalance policy.
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
    /// Shared observability hub, when the host system attached one.
    /// Purely write-only from the policy's perspective: recording never
    /// changes a balancing decision.
    telemetry: Option<TelemetryHandle>,
}

/// Builds the sensing stage from the configuration.
fn sensor_from_config(config: &SmartBalanceConfig) -> Sensor {
    Sensor::new(config.min_sample_runtime_ns)
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
    /// `config.sparse_sensing` is off (or the reverse).
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

    /// The attached telemetry hub, if any.
    pub(crate) fn telemetry_handle(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    /// Attaches the telemetry hub (shared with wrapping balancers).
    pub(crate) fn set_telemetry_handle(&mut self, handle: &TelemetryHandle) {
        self.telemetry = Some(handle.clone());
    }

    /// Whether `task`'s predictions are currently quarantined.
    pub(crate) fn is_quarantined(&self, task: kernelsim::TaskId) -> bool {
        self.quarantine.is_quarantined(task)
    }

    /// Publishes the diagnostics of the pass that just ran.
    pub(crate) fn set_last_outcome(&mut self, outcome: Option<AnnealOutcome>) {
        self.last_outcome = outcome;
    }

    /// This epoch's annealer seed; advances the internal LCG so
    /// successive epochs explore differently (deterministically across
    /// runs).
    pub(crate) fn next_epoch_seed(&mut self) -> u32 {
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
    pub(crate) fn effective_core_weights(&self, platform: &Platform) -> Option<Vec<f64>> {
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

    /// The shared front half of every rebalance pass: prediction audit,
    /// thermal step, sensing, quarantine/degradation bookkeeping and
    /// affinity-mask constriction — everything up to (but excluding)
    /// the optimizer itself. See [`PreambleOutcome`].
    pub(crate) fn preamble(
        &mut self,
        platform: &Platform,
        report: &EpochReport,
    ) -> PreambleOutcome {
        self.epochs_balanced += 1;

        // --- Prediction audit: settle last epoch's forecasts against
        // what the threads actually achieved. Samples only count when
        // the thread still runs on the core it was predicted for.
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            for ts in &report.tasks {
                tel.resolve_prediction(ts.task.0 as u64, ts.core.0 as u64, ts.ips(), ts.power_w());
            }
        }

        // --- Thermal tracking (optional): advance the RC model with
        // this epoch's measured per-core power.
        if let Some(thermal) = &mut self.thermal {
            for c in &report.cores {
                thermal.step(c.core, c.power_w(report.duration_ns), report.duration_ns);
            }
        }

        // --- Sense -----------------------------------------------------
        let mut senses = self.sensor.sense(platform, report);
        if !self.config.include_kernel_threads {
            senses.retain(|s| !s.kernel_thread);
        }
        // --- Predict: one row per sensed thread, reused while its
        // signature repeats ----------------------------------------------
        self.predictions
            .refresh(platform, &senses, &self.predictors);
        if senses.is_empty() {
            self.last_outcome = None;
            return PreambleOutcome::Skip(None);
        }

        // --- Degradation ladder: distrust what failed --------------------
        self.quarantine.observe(
            platform,
            &senses,
            &self.predictions.rows,
            &self.config.degrade,
        );
        let sense_health = self.sensor.health();
        let health = EpochHealth {
            candidates: sense_health.candidates,
            invalid: sense_health.invalid,
            blind: sense_health.blind,
            quarantined: self.quarantine.quarantined_count(),
        };
        let mode = self.degrade.step(&health);
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
                return PreambleOutcome::Skip(self.fallback.rebalance(platform, report));
            }
            DegradeMode::PredictFree => {
                // Predictions are distrusted but measurements are not:
                // greedy IPS/Watt packing on static core efficiency.
                self.last_outcome = None;
                return PreambleOutcome::Skip(predict_free_greedy(platform, &senses, &online));
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

        PreambleOutcome::Proceed {
            senses,
            rows: self.predictions.rows.clone(),
            online,
        }
    }

    /// The flat (single-domain) back half: build the dense matrices
    /// from the preamble's prediction `rows`, run Algorithm 1 over all
    /// cores at once and emit the diff.
    fn flat_balance(
        &mut self,
        platform: &Platform,
        senses: &[ThreadSense],
        rows: &[f64],
    ) -> Option<Allocation> {
        // --- Estimate: S(k), P(k) --------------------------------------
        let matrices = build_matrices_with_rows(platform, senses, rows, &self.predictors);

        // --- Balance: Algorithm 1 from the current allocation ----------
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let params = self
            .config
            .anneal
            .unwrap_or_else(|| AnnealParams::scaled_for(platform.num_cores(), senses.len()));
        let mut objective = Objective::new(&matrices, self.config.goal);
        if let Some(weights) = self.effective_core_weights(platform) {
            objective = objective.with_weights(weights);
        }
        let seed = self.next_epoch_seed();
        let outcome = anneal(&objective, &initial, params, seed);

        let mut alloc = Allocation::new();
        for (sense, (&new_core, &old_core)) in senses
            .iter()
            .zip(outcome.allocation.iter().zip(initial.iter()))
        {
            if new_core != old_core {
                alloc.assign(sense.task, archsim::CoreId(new_core));
            }
        }
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            // Predict-stage work = the dense S/P matrices just built:
            // one cell per (thread, core) pair.
            tel.record_stage("predict", (senses.len() * platform.num_cores()) as u64);
            tel.record_anneal(
                u64::from(outcome.iterations),
                u64::from(outcome.accepted_moves),
                outcome.initial_objective,
                outcome.objective,
            );
            // Forecast next epoch: thread i should achieve the S/P
            // matrix entries of its chosen column.
            for (i, sense) in senses.iter().enumerate() {
                let dest = outcome.allocation[i];
                tel.record_prediction(
                    sense.task.0 as u64,
                    dest as u64,
                    matrices.ips(i, dest),
                    matrices.power(i, dest),
                );
            }
        }
        self.last_outcome = Some(outcome);

        if alloc.is_empty() {
            None
        } else {
            Some(alloc)
        }
    }
}

impl LoadBalancer for SmartBalance {
    fn name(&self) -> &str {
        "smartbalance"
    }

    fn attach_telemetry(&mut self, handle: &TelemetryHandle) {
        self.telemetry = Some(handle.clone());
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        match self.preamble(platform, report) {
            PreambleOutcome::Skip(alloc) => alloc,
            PreambleOutcome::Proceed { senses, rows, .. } => {
                self.flat_balance(platform, &senses, &rows)
            }
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
