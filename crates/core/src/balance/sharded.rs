//! The cluster-sharded back half of [`SmartBalance`], for 256–4096-core
//! platforms: per-cluster annealers in parallel plus a global exchange
//! stage.
//!
//! Flat SmartBalance anneals over all cores at once — fine at 4–32
//! cores, painful at 1024. With [`SmartBalanceConfig::shard`] set, the
//! policy keeps everything else of its epoch: the sensing front half,
//! the global characterization matrices (one entry per thread and core
//! type, built from the epoch's prediction rows), the weighted objective
//! and the epoch seed before the balance step, and the allocation diff
//! and telemetry tail after it. Only the balance step differs:
//!
//! 1. partitions the sensed threads by the cluster of their current
//!    core ([`kernelsim::Topology`]),
//! 2. runs one task per occupied cluster on a deterministic scoped
//!    worker pool: copy the cluster's rows out of the global matrices
//!    into an `m_c × n_c` sub-problem over its online cores and anneal
//!    it (per-cluster splitmix64 seeds, index-ordered collection:
//!    results never depend on the worker count),
//! 3. runs a global *exchange* stage over an
//!    [`IncrementalObjective`] of the global matrices that moves the
//!    top-K most misplaced threads per cluster toward the least-loaded
//!    core of a better cluster, each candidate evaluated as an O(1)
//!    incremental patch — never a full re-evaluation — with each
//!    thread's from-core half shared across its candidate destinations.
//!
//! With `config.shard == None` the policy runs one anneal over all
//! cores instead, bit-identical to every previous release.
//!
//! [`SmartBalance`]: super::SmartBalance
//! [`SmartBalanceConfig::shard`]: crate::SmartBalanceConfig::shard

use archsim::{CoreId, CoreTypeId, Platform};
use kernelsim::{affinity_allows, parallel_indexed, ClusterId, Topology};
use telemetry::TelemetryHandle;

use super::smart::StageClock;
use crate::anneal::{anneal, AnnealOutcome, AnnealParams};
use crate::degrade::QuarantineTracker;
use crate::matrices::CharacterizationMatrices;
use crate::objective::{IncrementalObjective, Objective};
use crate::sense::ThreadSense;
use crate::shard::ShardConfig;
use crate::suite::{default_workers, splitmix64};

/// One cluster's solved anneal, handed back by its pool task.
struct ClusterSolution {
    /// Cluster index in the topology.
    cluster: usize,
    /// Global core ids backing the local columns (online cores only).
    columns: Vec<CoreId>,
    /// Sense indices backing the local rows.
    rows: Vec<usize>,
    /// The anneal over those rows and columns.
    outcome: AnnealOutcome,
}

/// The read-only epoch inputs every per-cluster pool task shares.
struct ClusterTasks<'s> {
    topology: &'s Topology,
    senses: &'s [ThreadSense],
    /// The epoch's objective over its global matrices, one row per
    /// sense.
    objective: &'s Objective<'s>,
    online: &'s [bool],
    /// Per thread: not quarantined, so free to leave its core.
    movable: &'s [bool],
    epoch_seed: u32,
}

impl ClusterTasks<'_> {
    /// Cluster `c`'s share of the pass, run as one pool task: copies the
    /// rows of its `group` of threads into cluster-local matrices and
    /// anneals them. The matrices die with the task; the solution is
    /// `None` when no thread's constraint is expressible locally.
    fn solve(&self, c: usize, group: &[usize]) -> Option<ClusterSolution> {
        let senses = self.senses;
        let columns: Vec<CoreId> = self
            .topology
            .cores_of(ClusterId(c))
            .iter()
            .copied()
            .filter(|&core| self.online[core.0])
            .collect();
        let wide = columns.len() > 64;
        // Translate each thread's global affinity mask into the
        // cluster-local column space (same bit semantics as the dense
        // matrices); threads whose constraint cannot be expressed
        // locally are pinned or skipped. Kept as (sense index, current
        // column, local mask).
        let mut kept: Vec<(usize, usize, u64)> = Vec::new();
        for &i in group {
            // `columns` ascends like `cores_of`, and a row's current
            // core is online and in this cluster, so the search finds it.
            let Ok(cur) = columns.binary_search(&senses[i].core) else {
                continue;
            };
            let mask = if !wide {
                let mut mk = 0u64;
                if self.movable[i] {
                    for (j, &core) in columns.iter().enumerate() {
                        if affinity_allows(senses[i].allowed, core) {
                            mk |= 1 << j;
                        }
                    }
                }
                // The current column is always representable — the
                // same never-empty discipline the flat mask
                // constriction applies.
                mk | (1 << cur)
            } else if self.movable[i] && senses[i].allowed == u64::MAX {
                u64::MAX
            } else if cur < 64 {
                1 << cur
            } else {
                // Quarantined/affine thread beyond bit 63 of a
                // >64-core cluster: no expressible pin, leave it be.
                continue;
            };
            kept.push((i, cur, mask));
        }
        if kept.is_empty() {
            return None;
        }
        let global = self.objective.matrices();
        let core_types: Vec<CoreTypeId> = columns.iter().map(|c| global.core_type(c.0)).collect();
        let sleep = columns.iter().map(|c| global.sleep_power_w(c.0)).collect();
        let tasks = kept.iter().map(|&(i, ..)| senses[i].task).collect();
        let mut matrices = CharacterizationMatrices::new(tasks, core_types, sleep);
        let mut initial = Vec::with_capacity(kept.len());
        for (r, &(i, cur, mask)) in kept.iter().enumerate() {
            matrices.copy_row(r, global, i);
            matrices.set_allowed(r, mask);
            initial.push(cur);
        }
        let params = AnnealParams::scaled_for(columns.len(), kept.len());
        // Per-cluster seed derived from the epoch seed: identical
        // regardless of which worker solves which cluster.
        let seed = splitmix64((u64::from(self.epoch_seed) << 32) | c as u64) as u32;
        let objective = self.objective.for_columns(&matrices, &columns);
        let outcome = anneal(&objective, &initial, params, seed);
        Some(ClusterSolution {
            cluster: c,
            columns,
            rows: kept.iter().map(|&(i, ..)| i).collect(),
            outcome,
        })
    }
}

/// The sharded back half's state: the shard configuration, its
/// resolved worker count, the platform's cluster topology and the
/// policy's hub, on which it records its cluster anneals and exchange.
#[derive(Debug)]
pub(super) struct Sharding {
    shard: ShardConfig,
    /// `shard.workers`, with `0` resolved at construction to the
    /// machine's available parallelism.
    workers: usize,
    topology: Topology,
    pub(super) telemetry: Option<TelemetryHandle>,
}

impl Sharding {
    /// Shards `platform` by its cluster topology under `shard`.
    pub(super) fn new(platform: &Platform, shard: ShardConfig) -> Self {
        Sharding {
            shard,
            workers: match shard.workers {
                0 => default_workers(),
                w => w,
            },
            topology: Topology::from_platform(platform),
            telemetry: None,
        }
    }

    /// The resolved worker count.
    pub(super) fn workers(&self) -> usize {
        self.workers
    }

    /// The balance step: per-cluster anneal fan-out plus the global
    /// exchange stage, over `objective`'s global matrices (one row per
    /// sense). Threads `quarantine` distrusts stay on their cores.
    /// Closes the anneal span `stages` holds open after the pool, then
    /// times the exchange.
    ///
    /// Returns the combined outcome and the predict-stage work (the
    /// cluster-local matrix cells annealed), or `None` when no cluster
    /// had a thread to place.
    pub(super) fn balance(
        &self,
        objective: &Objective<'_>,
        senses: &[ThreadSense],
        online: &[bool],
        quarantine: &QuarantineTracker,
        epoch_seed: u32,
        stages: &mut StageClock,
    ) -> Option<(AnnealOutcome, u64)> {
        let m = senses.len();
        let n = online.len();

        // --- Partition threads by the cluster of their current core --
        let clusters = self.topology.num_clusters();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); clusters];
        let mut movable = vec![false; m];
        for (i, s) in senses.iter().enumerate() {
            if s.core.0 >= n || !online[s.core.0] {
                // A thread stranded on an offline (or phantom) core is
                // left alone this epoch; the kernel will re-home it.
                continue;
            }
            groups[self.topology.cluster_of(s.core).0].push(i);
            movable[i] = !quarantine.is_quarantined(s.task);
        }

        // --- One pool task per occupied cluster ----------------------
        // The global matrices hold O(m·q) entries, one per thread and
        // core type; each task copies its threads' rows into the
        // cluster-local matrices and anneals.
        let occupied: Vec<usize> = (0..clusters).filter(|&c| !groups[c].is_empty()).collect();
        let tasks = ClusterTasks {
            topology: &self.topology,
            senses,
            objective,
            online,
            movable: &movable,
            epoch_seed,
        };
        // Outcomes stay in cluster order.
        let solutions: Vec<ClusterSolution> = parallel_indexed(occupied.len(), self.workers, |k| {
            tasks.solve(occupied[k], &groups[occupied[k]])
        })
        .into_iter()
        .flatten()
        .collect();
        if solutions.is_empty() {
            return None;
        }
        stages.stop("anneal");

        // --- Global exchange stage ------------------------------------
        stages.start();
        // Replay the per-cluster results onto the incrementally
        // maintained *global* objective, then move the most misplaced
        // threads across cluster boundaries while each move pays.
        let current: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let mut state = IncrementalObjective::new(objective, &current);
        let initial_total = state.value();
        // Replay each cluster's annealed allocation onto the global
        // objective, keeping it only when it pays globally: under the
        // ratio goals a locally better cluster can still drag the
        // system aggregate down, and the contract is that sharding
        // never regresses the objective it reports.
        for p in &solutions {
            let mut applied: Vec<(usize, usize)> = Vec::new();
            let mut net = 0.0;
            for (r, &i) in p.rows.iter().enumerate() {
                let dest = p.columns[p.outcome.allocation[r]].0;
                let from = state.alloc()[i];
                if dest != from {
                    net += state.commit_move(i, dest);
                    applied.push((i, from));
                }
            }
            if net < 0.0 {
                for &(i, from) in applied.iter().rev() {
                    state.commit_move(i, from);
                }
            }
        }

        // Least-loaded online core per cluster (deterministic: strict
        // load-then-index ordering), refreshed after each commit.
        let least_loaded = |state: &IncrementalObjective<'_, '_>, c: usize| -> Option<CoreId> {
            self.topology
                .cores_of(ClusterId(c))
                .iter()
                .copied()
                .filter(|&core| online[core.0])
                .min_by(|a, b| {
                    state
                        .load_of(a.0)
                        .total_cmp(&state.load_of(b.0))
                        .then(a.0.cmp(&b.0))
                })
        };
        let mut least: Vec<Option<CoreId>> =
            (0..clusters).map(|c| least_loaded(&state, c)).collect();

        // Exchange stage: up to `exchange_rounds` rounds, each picking
        // per cluster the top-K threads by the aggregate-objective gain
        // of hopping to a foreign cluster's least-loaded core —
        // delta-GIPS/W per candidate, each an O(1) incremental patch
        // (never a full re-evaluation). This scores both type mismatch
        // ("compute work stuck on little cores") and overload relief
        // ("a saturated cluster next to an idle one") with the same
        // number the annealer optimizes. The stage stops early the
        // first round nothing pays.
        let mut exchange_moves: u64 = 0;
        let mut exchange_candidates: u64 = 0;
        for _round in 0..self.shard.exchange_rounds {
            // Selection against each thread's *current* cluster (it
            // may have hopped in an earlier round).
            let mut per_cluster: Vec<Vec<(f64, usize)>> = vec![Vec::new(); clusters];
            for i in 0..m {
                if !movable[i] {
                    continue;
                }
                let c = self.topology.cluster_of(CoreId(state.alloc()[i])).0;
                let leave = state.leave(i);
                let mut best = f64::NEG_INFINITY;
                for (c2, dest) in least.iter().enumerate() {
                    if c2 == c {
                        continue;
                    }
                    let Some(dest) = *dest else { continue };
                    if !affinity_allows(senses[i].allowed, dest) {
                        continue;
                    }
                    best = best.max(state.delta_to(&leave, dest.0));
                }
                if best > self.shard.min_gain {
                    per_cluster[c].push((best, i));
                }
            }
            let mut candidates: Vec<(f64, usize)> = Vec::new();
            for scored in &mut per_cluster {
                scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                scored.truncate(self.shard.exchange_top_k);
                candidates.extend(scored.iter().copied());
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            exchange_candidates += candidates.len() as u64;

            let mut round_moves: u64 = 0;
            for &(_, i) in &candidates {
                let from_cluster = self.topology.cluster_of(CoreId(state.alloc()[i])).0;
                let leave = state.leave(i);
                let mut best: Option<(f64, CoreId)> = None;
                for (c2, dest) in least.iter().enumerate() {
                    if c2 == from_cluster {
                        continue;
                    }
                    let Some(dest) = *dest else { continue };
                    if !affinity_allows(senses[i].allowed, dest) {
                        continue;
                    }
                    let delta = state.delta_to(&leave, dest.0);
                    if best.is_none_or(|(bd, _)| delta > bd) {
                        best = Some((delta, dest));
                    }
                }
                if let Some((delta, dest)) = best {
                    if delta > self.shard.min_gain {
                        let to_cluster = self.topology.cluster_of(dest).0;
                        state.commit_move(i, dest.0);
                        round_moves += 1;
                        // Only the two touched clusters' load minima
                        // moved.
                        least[from_cluster] = least_loaded(&state, from_cluster);
                        least[to_cluster] = least_loaded(&state, to_cluster);
                    }
                }
            }
            exchange_moves += round_moves;
            if round_moves == 0 {
                break;
            }
        }
        stages.stop("exchange");

        // --- The books ------------------------------------------------
        let total_iterations: u64 = solutions
            .iter()
            .map(|p| u64::from(p.outcome.iterations))
            .sum();
        let total_accepted: u64 = solutions
            .iter()
            .map(|p| u64::from(p.outcome.accepted_moves))
            .sum::<u64>()
            + exchange_moves;
        // Predict-stage work = per-cluster matrix cells annealed:
        // Σ rows × columns over the solved clusters.
        let predict_cells: u64 = solutions
            .iter()
            .map(|p| (p.rows.len() * p.columns.len()) as u64)
            .sum();
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            for p in &solutions {
                tel.record_shard_anneal(
                    p.cluster as u64,
                    u64::from(p.outcome.iterations),
                    u64::from(p.outcome.accepted_moves),
                    p.outcome.objective,
                );
            }
            tel.record_shard_exchange(solutions.len() as u64, exchange_candidates, exchange_moves);
        }
        let outcome = AnnealOutcome {
            allocation: state.alloc().to_vec(),
            objective: state.value(),
            initial_objective: initial_total,
            // At most 4000 iterations per cluster (the scaled budget's
            // cap), so the sums fit u32; saturate defensively.
            iterations: u32::try_from(total_iterations).unwrap_or(u32::MAX),
            accepted_moves: u32::try_from(total_accepted).unwrap_or(u32::MAX),
        };
        Some((outcome, predict_cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SmartBalance, SmartBalanceConfig};
    use archsim::WorkloadCharacteristics;
    use kernelsim::{System, SystemConfig};
    use workloads::WorkloadProfile;

    /// SmartBalance on the sharded back half, default shard settings.
    fn sharded(platform: &Platform) -> SmartBalance {
        let config = SmartBalanceConfig {
            shard: Some(ShardConfig::default()),
            ..SmartBalanceConfig::default()
        };
        SmartBalance::with_config(platform, config)
    }

    fn mixed_system(platform: &Platform, tasks: usize) -> System {
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        for k in 0..tasks {
            let w = match k % 3 {
                0 => WorkloadCharacteristics::compute_bound(),
                1 => WorkloadCharacteristics::memory_bound(),
                _ => WorkloadCharacteristics::balanced(),
            };
            sys.spawn_on(
                WorkloadProfile::uniform(format!("t{k}"), w, u64::MAX / 8),
                CoreId(k % platform.num_cores()),
            );
        }
        sys
    }

    /// The sharded balancer runs end-to-end on a clustered platform
    /// and improves achieved efficiency over the initial scatter.
    #[test]
    fn sharded_balancer_runs_on_clustered_platform() {
        let platform = Platform::clustered_heterogeneous(8, 8);
        let mut sys = mixed_system(&platform, 96);
        let mut policy = sharded(&platform);
        for _ in 0..6 {
            sys.run_epoch(&mut policy);
        }
        let outcome = policy.last_outcome().expect("annealed");
        assert!(outcome.iterations > 0);
        assert!(
            outcome.objective >= outcome.initial_objective,
            "anneal + exchange never regress the objective"
        );
        assert!(sys.stats().migrations > 0, "work actually moved");
    }

    /// Exchange moves exist and cross cluster boundaries when threads
    /// start in the wrong cluster for their character.
    #[test]
    fn exchange_crosses_cluster_boundaries() {
        let platform = Platform::clustered_heterogeneous(4, 4);
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        // All compute-bound work dumped on the weakest (last) cluster.
        for k in 0..8 {
            sys.spawn_on(
                WorkloadProfile::uniform(
                    format!("c{k}"),
                    WorkloadCharacteristics::compute_bound(),
                    u64::MAX / 8,
                ),
                CoreId(12 + (k % 4)),
            );
        }
        let mut policy = sharded(&platform);
        for _ in 0..8 {
            sys.run_epoch(&mut policy);
        }
        assert!(
            sys.stats().cross_cluster_migrations > 0,
            "misplaced compute work must escape the small cluster"
        );
    }

    #[test]
    fn topology_is_cached_from_the_platform() {
        let platform = Platform::clustered_heterogeneous(4, 16);
        let sharding = Sharding::new(&platform, ShardConfig::default());
        assert_eq!(sharding.topology.num_clusters(), 4);
        assert_eq!(sharding.topology.num_cores(), 64);
        assert_eq!(sharding.shard.exchange_top_k, 4);
    }
}
