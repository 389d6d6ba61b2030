//! Hierarchical (sharded) balancing machinery: the configuration knob
//! plus the incremental cross-cluster exchange state used by
//! [`crate::balance::ShardedBalancer`].
//!
//! The sharded balancer splits Algorithm 1 across the platform's
//! cluster topology: one annealer per cluster over that cluster's
//! threads and cores (each an `m_c × n_c` problem instead of the flat
//! `m × n`), followed by a global *exchange* stage that moves a few
//! candidate threads between clusters. The exchange never rebuilds the
//! dense matrices — it works on the compact per-type rows of
//! [`crate::estimate::TypeRates`] and evaluates every candidate move as
//! an O(1) two-core patch through the same per-core ledger the flat
//! [`crate::objective::IncrementalObjective`] is built on, so the two
//! paths share one source of numeric truth — including the split of
//! each move into a from-core half computed once per thread and a
//! to-core half per candidate destination.

use archsim::CoreTypeId;
use serde::{Deserialize, Serialize};

use crate::estimate::TypeRates;
use crate::objective::{CoreLedger, Goal, Leave};

/// Configuration of the sharded balancer: worker pool for the
/// per-cluster anneal fan-out and the global-exchange budget.
///
/// Setting [`crate::SmartBalanceConfig::shard`] to `Some(..)` is what
/// selects the sharded balancer; `None` keeps the flat annealer
/// bit-identical to every previous release.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Worker threads for the per-cluster anneal fan-out; `0` sizes
    /// the pool to the machine's available parallelism. Results never
    /// depend on it (per-cluster splitmix64 seeds, index-ordered
    /// collection — the `ExperimentSuite` discipline).
    pub workers: usize,
    /// Candidate threads *per cluster* the global exchange stage
    /// considers per round (the highest-gain moves first).
    pub exchange_top_k: usize,
    /// Maximum exchange rounds per epoch; the stage stops early the
    /// first round that commits no move. Each round scores every
    /// movable thread against every foreign cluster, so per-epoch
    /// exchange work is bounded at `rounds × m × (C − 1)` O(1) delta
    /// evaluations for `m` threads and `C` clusters (plus one from-core
    /// half per thread per round), with the commit pass over at most
    /// `top_k × C` candidates per round on top.
    pub exchange_rounds: usize,
    /// Minimum objective gain (in goal units, e.g. GIPS/W) a
    /// cross-cluster move must deliver to commit.
    pub min_gain: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 0,
            exchange_top_k: 4,
            exchange_rounds: 8,
            min_gain: 1.0e-9,
        }
    }
}

/// Whether an affinity mask allows core `j` — the same semantics as
/// [`crate::matrices::CharacterizationMatrices::is_allowed`] and the
/// kernel's `Task::allows_core` (cores beyond bit 63 are only
/// reachable through the full mask).
pub(crate) fn mask_allows(mask: u64, j: usize) -> bool {
    j < 64 && mask & (1 << j) != 0 || j >= 64 && mask == u64::MAX
}

/// Incrementally maintained *global* objective state for the exchange
/// stage: per-core demand/rate sums over all `n` cores, fed by compact
/// per-type thread rows instead of dense matrices. The arithmetic is
/// [`crate::objective::IncrementalObjective`]'s own shared ledger —
/// same per-core model, same goal combination, O(1) per candidate move.
#[derive(Debug, Clone)]
pub(crate) struct ExchangeState<'a> {
    rates: &'a [TypeRates],
    util: &'a [f64],
    types: &'a [CoreTypeId],
    alloc: Vec<usize>,
    ledger: CoreLedger,
}

impl<'a> ExchangeState<'a> {
    /// Builds the state for `alloc` (`alloc[i]` = global core index of
    /// thread `i`). `util` must already carry the matrices' `(0, 1]`
    /// clamp; `weights` of `None` means all ones.
    ///
    /// # Panics
    ///
    /// Panics if the per-thread slices disagree in length or any
    /// allocation entry is out of core range.
    pub(crate) fn new(
        goal: Goal,
        rates: &'a [TypeRates],
        util: &'a [f64],
        types: &'a [CoreTypeId],
        sleep_w: &[f64],
        weights: Option<Vec<f64>>,
        alloc: &[usize],
    ) -> Self {
        let m = rates.len();
        let n = types.len();
        assert_eq!(util.len(), m, "one utilization per thread");
        assert_eq!(alloc.len(), m, "one core per thread");
        assert_eq!(sleep_w.len(), n, "one sleep power per core");
        let weights = weights.unwrap_or_else(|| vec![1.0; n]);
        assert_eq!(weights.len(), n, "one ω per core");
        let placed = alloc.iter().enumerate().map(|(i, &j)| {
            assert!(j < n, "thread {i} assigned to non-existent core {j}");
            let t = types[j];
            (j, util[i], rates[i].ips(t), rates[i].power_w(t))
        });
        ExchangeState {
            rates,
            util,
            types,
            alloc: alloc.to_vec(),
            ledger: CoreLedger::new(goal, weights, sleep_w.to_vec(), placed),
        }
    }

    /// Current global objective value.
    pub(crate) fn value(&self) -> f64 {
        self.ledger.value()
    }

    /// The core thread `i` currently sits on.
    pub(crate) fn core_of(&self, i: usize) -> usize {
        self.alloc[i]
    }

    /// Total demand currently placed on core `j`.
    pub(crate) fn load_of(&self, j: usize) -> f64 {
        self.ledger.load_of(j)
    }

    /// The from-core half of moving thread `i` off its current core.
    pub(crate) fn leave(&self, i: usize) -> Leave {
        let from = self.alloc[i];
        let t = self.types[from];
        self.ledger.leave(
            i,
            from,
            self.util[i],
            self.rates[i].ips(t),
            self.rates[i].power_w(t),
        )
    }

    /// The objective delta if `leave`'s thread moved to core `to` (no
    /// state change); 0 for a self-move.
    pub(crate) fn delta_to(&self, leave: &Leave, to: usize) -> f64 {
        let (r, t) = (&self.rates[leave.thread], self.types[to]);
        self.ledger.delta_to(leave, to, r.ips(t), r.power_w(t))
    }

    /// Commits the move of thread `i` to core `to`, returning the
    /// realized delta.
    pub(crate) fn commit_move(&mut self, i: usize, to: usize) -> f64 {
        if self.alloc[i] == to {
            return 0.0;
        }
        let (r, t) = (&self.rates[i], self.types[to]);
        let mv = self
            .ledger
            .evaluate(&self.leave(i), to, r.ips(t), r.power_w(t));
        self.alloc[i] = to;
        self.ledger.apply(&mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::CharacterizationMatrices;
    use crate::objective::{IncrementalObjective, Objective};
    use crate::predict::PredictorSet;
    use crate::sense::{features_from_counters, ThreadSense};
    use archsim::{run_slice, CoreId, Platform, WorkloadCharacteristics};
    use kernelsim::TaskId;
    use mcpat::CorePowerModel;

    /// Each sense's compact rates, from a fresh prediction row.
    fn rates_of(
        platform: &Platform,
        senses: &[ThreadSense],
        predictors: &PredictorSet,
    ) -> Vec<TypeRates> {
        senses
            .iter()
            .map(|s| {
                let row = predictors.predict_ipc_by_type(&s.features, platform.core_type(s.core));
                TypeRates::build(platform, s, &row, predictors)
            })
            .collect()
    }

    fn sense_for(platform: &Platform, core: CoreId, w: &WorkloadCharacteristics) -> ThreadSense {
        let cfg = platform.core_config(core);
        let slice = run_slice(w, cfg, 10_000_000);
        ThreadSense {
            task: TaskId(core.0),
            core,
            features: features_from_counters(&slice.counters, cfg.freq_hz),
            measured_ips: slice.ips(),
            measured_power_w: 1.0,
            utilization: 0.8,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh: true,
        }
    }

    /// The exchange state and the dense incremental objective are two
    /// representations of the same function: identical totals and
    /// identical deltas for every goal, on every move.
    #[test]
    fn exchange_state_matches_dense_incremental_objective() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 9);
        let senses: Vec<ThreadSense> = platform
            .cores()
            .map(|c| {
                let w = if c.0 % 2 == 0 {
                    WorkloadCharacteristics::compute_bound()
                } else {
                    WorkloadCharacteristics::memory_bound()
                };
                sense_for(&platform, c, &w)
            })
            .collect();
        let matrices = crate::estimate::build_matrices(&platform, &senses, &predictors);
        let rates = rates_of(&platform, &senses, &predictors);
        let util: Vec<f64> = (0..senses.len()).map(|i| matrices.utilization(i)).collect();
        let types: Vec<CoreTypeId> = platform.cores().map(|c| platform.core_type(c)).collect();
        let sleep: Vec<f64> = platform
            .cores()
            .map(|c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
            .collect();
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let moves = [(0usize, 3usize), (1, 3), (2, 0), (0, 1), (3, 2)];
        for goal in [
            Goal::EnergyEfficiency,
            Goal::PerCoreEfficiencySum,
            Goal::Throughput,
            Goal::MinPower,
            Goal::EnergyDelayProduct,
        ] {
            let objective = Objective::new(&matrices, goal);
            let mut dense = IncrementalObjective::new(&objective, &initial);
            let mut compact =
                ExchangeState::new(goal, &rates, &util, &types, &sleep, None, &initial);
            assert!(
                (dense.value() - compact.value()).abs() < 1e-12,
                "{goal:?}: initial totals diverge"
            );
            for (i, to) in moves {
                let dd = dense.delta_for_move(i, to);
                let cd = compact.delta_to(&compact.leave(i), to);
                assert!((dd - cd).abs() < 1e-12, "{goal:?}: move ({i},{to}) delta");
                dense.commit_move(i, to);
                compact.commit_move(i, to);
                assert!(
                    (dense.value() - compact.value()).abs() < 1e-12,
                    "{goal:?}: totals diverge after ({i},{to})"
                );
                assert_eq!(dense.alloc()[i], compact.core_of(i));
            }
        }
    }

    #[test]
    fn weighted_exchange_state_matches_weighted_objective() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 9);
        let senses: Vec<ThreadSense> = platform
            .cores()
            .map(|c| sense_for(&platform, c, &WorkloadCharacteristics::balanced()))
            .collect();
        let matrices = crate::estimate::build_matrices(&platform, &senses, &predictors);
        let rates = rates_of(&platform, &senses, &predictors);
        let util: Vec<f64> = (0..senses.len()).map(|i| matrices.utilization(i)).collect();
        let types: Vec<CoreTypeId> = platform.cores().map(|c| platform.core_type(c)).collect();
        let sleep: Vec<f64> = platform
            .cores()
            .map(|c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
            .collect();
        let weights = vec![2.0, 1.0, 0.5, 0.05];
        let initial = vec![0, 0, 2, 3];
        let objective =
            Objective::new(&matrices, Goal::EnergyEfficiency).with_weights(weights.clone());
        let dense = IncrementalObjective::new(&objective, &initial);
        let compact = ExchangeState::new(
            Goal::EnergyEfficiency,
            &rates,
            &util,
            &types,
            &sleep,
            Some(weights),
            &initial,
        );
        assert!((dense.value() - compact.value()).abs() < 1e-12);
    }

    /// The exchange state's split evaluation reproduces the one-shot
    /// two-core patch bit for bit — every goal, with and without ω,
    /// every (thread, core) pair along a scripted commit sequence, per
    /// destination and as one scan over the thread's per-core rows —
    /// and each evaluated commit returns the predicted delta and
    /// leaves the per-core aggregate cache fresh.
    #[test]
    fn split_exchange_delta_is_bit_identical_to_the_one_shot_patch() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 9);
        let demand = [1.0, 0.35, 0.8, 0.55, 0.2, 0.9, 0.6, 0.45];
        let senses: Vec<ThreadSense> = (0..8)
            .map(|k| {
                let w = match k % 3 {
                    0 => WorkloadCharacteristics::compute_bound(),
                    1 => WorkloadCharacteristics::memory_bound(),
                    _ => WorkloadCharacteristics::balanced(),
                };
                let mut s = sense_for(&platform, CoreId(k % 4), &w);
                s.utilization = demand[k];
                s
            })
            .collect();
        let rates = rates_of(&platform, &senses, &predictors);
        let util: Vec<f64> = senses.iter().map(|s| s.utilization).collect();
        let types: Vec<CoreTypeId> = platform.cores().map(|c| platform.core_type(c)).collect();
        let sleep: Vec<f64> = platform
            .cores()
            .map(|c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
            .collect();
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let script = [
            (0, 3),
            (5, 3),
            (2, 0),
            (7, 1),
            (0, 1),
            (3, 2),
            (6, 0),
            (4, 0),
        ];
        for goal in [
            Goal::EnergyEfficiency,
            Goal::PerCoreEfficiencySum,
            Goal::Throughput,
            Goal::MinPower,
            Goal::EnergyDelayProduct,
        ] {
            for weights in [None, Some(vec![2.0, 1.0, 0.5, 0.05])] {
                let mut state = ExchangeState::new(
                    goal,
                    &rates,
                    &util,
                    &types,
                    &sleep,
                    weights.clone(),
                    &initial,
                );
                state.ledger.assert_cache_is_fresh();
                let mut scanned = [f64::NAN; 4];
                for (mi, mto) in script {
                    for (i, r) in rates.iter().enumerate() {
                        let leave = state.leave(i);
                        let from = state.core_of(i);
                        let tf = types[from];
                        let ips_row: Vec<f64> = types.iter().map(|&t| r.ips(t)).collect();
                        let pow_row: Vec<f64> = types.iter().map(|&t| r.power_w(t)).collect();
                        state.ledger.scan(&leave, &ips_row, &pow_row, &mut scanned);
                        for (to, &tt) in types.iter().enumerate() {
                            let one_shot = state.ledger.one_shot_delta(
                                from,
                                to,
                                util[i],
                                (r.ips(tf), r.power_w(tf)),
                                (r.ips(tt), r.power_w(tt)),
                            );
                            assert_eq!(
                                state.delta_to(&leave, to).to_bits(),
                                one_shot.to_bits(),
                                "{goal:?} {weights:?}: move ({i},{to})"
                            );
                            assert_eq!(
                                scanned[to].to_bits(),
                                one_shot.to_bits(),
                                "{goal:?} {weights:?}: scan ({i},{to})"
                            );
                        }
                    }
                    let predicted = state.delta_to(&state.leave(mi), mto);
                    let realized = state.commit_move(mi, mto);
                    assert_eq!(
                        realized.to_bits(),
                        predicted.to_bits(),
                        "{goal:?} {weights:?}"
                    );
                    state.ledger.assert_cache_is_fresh();
                }
            }
        }
    }

    #[test]
    fn mask_semantics_match_the_matrices() {
        let mut m =
            CharacterizationMatrices::new(vec![TaskId(0)], vec![CoreTypeId(0); 3], vec![0.1; 3]);
        m.set_allowed(0, 0b101);
        for j in 0..3 {
            assert_eq!(mask_allows(0b101, j), m.is_allowed(0, j), "core {j}");
        }
        assert!(
            mask_allows(u64::MAX, 100),
            "wide platforms use the full mask"
        );
        assert!(!mask_allows(0b101, 100));
    }

    #[test]
    fn default_shard_config_is_sane() {
        let c = ShardConfig::default();
        assert_eq!(c.workers, 0, "auto-sized pool");
        assert!(c.exchange_top_k > 0);
        assert!(c.min_gain >= 0.0);
    }
}
