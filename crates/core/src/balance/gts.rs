//! ARM's Global Task Scheduling (GTS) policy — the state-of-the-art
//! baseline of paper Section 6.1.
//!
//! GTS improves over the In-Kernel Switcher by selecting an individual
//! big or little *core* (not a whole cluster) per thread, but it
//! remains restricted to exactly two core types and decides purely on
//! a **fixed utilization threshold**: a thread whose tracked load
//! exceeds the up-migration threshold is moved to the big cluster, one
//! whose load falls below the down-migration threshold is moved to the
//! little cluster. "The lack of joint per-thread ... and per-core
//! accurate power as well as performance awareness limits GTS from
//! achieving (near) optimal energy efficiency" — which is exactly what
//! Fig. 5 measures.

use archsim::{CoreId, CoreTypeId, Platform};
use kernelsim::{affinity_allows, Allocation, EpochReport, LoadBalancer};

/// Up-migration threshold: tracked load at or above this sends a
/// thread to the big cluster.
///
/// The Linaro/ARM reference implementation's thresholds scale the
/// NICE_0 load; as fractions of a CPU they are ~0.9 up and ~0.23 down.
/// The reproduction's 0.6 and 0.25 differ from those, and the Fig. 5
/// numbers in `results/paper.json` are pinned on them.
const UP_THRESHOLD: f64 = 0.6;

/// Down-migration threshold: tracked load at or below this sends a
/// thread to the little cluster.
const DOWN_THRESHOLD: f64 = 0.25;

/// ARM GTS: utilization-threshold up/down migration between a big and
/// a little cluster, with least-loaded placement inside each cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GtsBalancer;

impl GtsBalancer {
    /// Creates a GTS balancer.
    pub fn new() -> Self {
        GtsBalancer
    }

    /// Splits the platform into (big cluster, little cluster) by peak
    /// throughput.
    ///
    /// # Panics
    ///
    /// Panics if the platform does not have exactly two core types —
    /// GTS "can not directly support architectures with more than two
    /// core types" (paper Section 2); this panic is that limitation.
    fn clusters(platform: &Platform) -> (Vec<CoreId>, Vec<CoreId>) {
        assert_eq!(
            platform.num_types(),
            2,
            "GTS only supports big.LITTLE (exactly 2 core types), got {}",
            platform.num_types()
        );
        let t0 = platform.type_config(CoreTypeId(0));
        let t1 = platform.type_config(CoreTypeId(1));
        let (big_ty, little_ty) = if t0.peak_ips() >= t1.peak_ips() {
            (CoreTypeId(0), CoreTypeId(1))
        } else {
            (CoreTypeId(1), CoreTypeId(0))
        };
        (
            platform.cores_of_type(big_ty),
            platform.cores_of_type(little_ty),
        )
    }
}

impl LoadBalancer for GtsBalancer {
    fn name(&self) -> &str {
        "gts"
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let (big, little) = Self::clusters(platform);
        let big_set: Vec<bool> = platform.cores().map(|c| big.contains(&c)).collect();

        // Sort live tasks by descending utilization so heavy threads
        // claim big cores first (deterministic placement).
        let mut live: Vec<_> = report.tasks.iter().filter(|t| t.alive).collect();
        if live.is_empty() {
            return None;
        }
        live.sort_by(|a, b| {
            b.utilization
                .partial_cmp(&a.utilization)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.task.cmp(&b.task))
        });

        let mut cluster_load: Vec<f64> = vec![0.0; platform.num_cores()];
        let mut alloc = Allocation::new();
        for t in live {
            let currently_big = big_set[t.core.0];
            // Threshold decision with hysteresis: between the two
            // thresholds a thread stays in its current cluster.
            let want_big = if t.utilization >= UP_THRESHOLD {
                true
            } else if t.utilization <= DOWN_THRESHOLD {
                false
            } else {
                currently_big
            };
            let cluster = if want_big { &big } else { &little };
            // Least-loaded *allowed* core within the chosen cluster,
            // falling back to the other cluster if affinity forbids
            // every core here, and finally to the current core.
            let pick_allowed = |cores: &[CoreId], load: &[f64]| {
                cores
                    .iter()
                    .copied()
                    .filter(|&c| affinity_allows(t.allowed, c))
                    .min_by(|a, b| {
                        load[a.0]
                            .partial_cmp(&load[b.0])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
            };
            let fallback = if want_big { &little } else { &big };
            let target = pick_allowed(cluster, &cluster_load)
                .or_else(|| pick_allowed(fallback, &cluster_load))
                .unwrap_or(t.core);
            cluster_load[target.0] += t.utilization;
            if target != t.core {
                alloc.assign(t.task, target);
            }
        }

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
    use archsim::CounterSample;
    use kernelsim::{CoreEpochStats, TaskEpochStats, TaskId};

    fn task_stat(id: usize, core: usize, utilization: f64) -> TaskEpochStats {
        TaskEpochStats {
            task: TaskId(id),
            core: CoreId(core),
            counters: CounterSample::default(),
            runtime_ns: (utilization * 60.0e6) as u64,
            energy_j: 1e-4,
            utilization,
            alive: true,
            kernel_thread: false,
            weight: 1024,
            allowed: u64::MAX,
        }
    }

    fn report(tasks: Vec<TaskEpochStats>) -> EpochReport {
        EpochReport {
            epoch: 0,
            duration_ns: 60_000_000,
            now_ns: 60_000_000,
            tasks,
            cores: (0..8)
                .map(|j| CoreEpochStats {
                    core: CoreId(j),
                    counters: CounterSample::default(),
                    busy_ns: 0,
                    sleep_ns: 0,
                    energy_j: 0.0,
                    online: true,
                })
                .collect(),
        }
    }

    #[test]
    fn heavy_thread_up_migrates() {
        let platform = Platform::octa_big_little();
        let mut gts = GtsBalancer::new();
        // A busy thread sitting on a little core (4..7 are little).
        let r = report(vec![task_stat(0, 5, 0.95)]);
        let alloc = gts.rebalance(&platform, &r).expect("up-migration");
        let target = alloc.core_of(TaskId(0)).expect("moved");
        assert!(target.0 < 4, "must land on a big core, got {target}");
    }

    #[test]
    fn light_thread_down_migrates() {
        let platform = Platform::octa_big_little();
        let mut gts = GtsBalancer::new();
        let r = report(vec![task_stat(0, 1, 0.05)]);
        let alloc = gts.rebalance(&platform, &r).expect("down-migration");
        let target = alloc.core_of(TaskId(0)).expect("moved");
        assert!(target.0 >= 4, "must land on a little core, got {target}");
    }

    #[test]
    fn hysteresis_keeps_middling_threads_in_place() {
        let platform = Platform::octa_big_little();
        let mut gts = GtsBalancer::new();
        // Utilization between the thresholds: stays in its cluster
        // (and is already on the least-loaded core of it).
        let r = report(vec![task_stat(0, 0, 0.4)]);
        assert!(gts.rebalance(&platform, &r).is_none());
    }

    #[test]
    fn spreads_within_cluster() {
        let platform = Platform::octa_big_little();
        let mut gts = GtsBalancer::new();
        // Four heavy threads stacked on one big core.
        let r = report((0..4).map(|i| task_stat(i, 0, 0.9)).collect());
        let alloc = gts.rebalance(&platform, &r).expect("spread");
        let mut targets: Vec<usize> = (0..4)
            .map(|i| alloc.core_of(TaskId(i)).map_or(0, |c| c.0))
            .collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1, 2, 3], "one heavy thread per big core");
    }

    #[test]
    fn utilization_blindness_is_reproduced() {
        // The defining GTS weakness: a high-utilization but
        // memory-bound thread (which gains nothing from a big core)
        // still gets up-migrated, because utilization is the only
        // signal. This test pins that (intentional) behaviour.
        let platform = Platform::octa_big_little();
        let mut gts = GtsBalancer::new();
        let mut t = task_stat(0, 6, 0.99);
        // Mark it as extremely memory-bound via counters; GTS must not
        // care.
        t.counters.instructions = 1_000;
        t.counters.mem_instructions = 700;
        let alloc = gts.rebalance(&platform, &report(vec![t])).expect("moves");
        assert!(alloc.core_of(TaskId(0)).expect("moved").0 < 4);
    }

    #[test]
    #[should_panic(expected = "exactly 2 core types")]
    fn rejects_four_type_platform() {
        let platform = Platform::quad_heterogeneous();
        let mut gts = GtsBalancer::new();
        gts.rebalance(&platform, &report(vec![task_stat(0, 0, 0.5)]));
    }
}
