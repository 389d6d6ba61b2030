//! The baseline: vanilla Linux load balancing.
//!
//! "The vanilla Linux kernel load balancer evenly distributes the
//! workload among cores even if the cores have distinct processing
//! capabilities" (paper Section 1, Fig. 1(a)). This policy reproduces
//! that behaviour: it equalizes run-queue *load* (the sum of CFS task
//! weights) across all cores, completely blind to core types, per-thread
//! IPC or power.

use archsim::{CoreId, Platform};
use kernelsim::{Allocation, EpochReport, LoadBalancer, TaskId};

/// Upper bound on migrations per invocation (the kernel also rate
/// limits its balancing passes).
const MAX_MOVES: usize = 64;

/// Heterogeneity-blind weight-equalizing balancer (the `find_busiest_
/// group` / `pull task` loop of the stock kernel, epoch-granular).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VanillaBalancer;

impl VanillaBalancer {
    /// Creates the balancer.
    pub fn new() -> Self {
        VanillaBalancer
    }
}

impl LoadBalancer for VanillaBalancer {
    fn name(&self) -> &str {
        "vanilla"
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let n = platform.num_cores();
        // Working copy: (task, weight, core-index, affinity) for live
        // tasks.
        let mut placement: Vec<(TaskId, u64, usize, u64)> = report
            .tasks
            .iter()
            .filter(|t| t.alive)
            .map(|t| (t.task, t.weight, t.core.0, t.allowed))
            .collect();
        if placement.is_empty() {
            return None;
        }

        let mut load = vec![0u64; n];
        for &(_, w, c, _) in &placement {
            load[c] += w;
        }

        // Hotplugged-out cores never receive tasks; they may still
        // donate (stale attributions drain off them). Reports that
        // predate the `online` flag default to all-online.
        let mut online = vec![true; n];
        for c in &report.cores {
            if c.core.0 < n {
                online[c.core.0] = c.online;
            }
        }
        if !online.iter().any(|&o| o) {
            return None;
        }

        let mut moved = Allocation::new();
        // Cores that proved unable to donate a useful task this pass.
        let mut exhausted = vec![false; n];
        for _ in 0..MAX_MOVES {
            let Some(busiest) = (0..n).filter(|&j| !exhausted[j]).max_by_key(|&j| load[j]) else {
                break;
            };
            let Some(idlest) = (0..n).filter(|&j| online[j]).min_by_key(|&j| load[j]) else {
                break;
            };
            let imbalance = load[busiest].saturating_sub(load[idlest]);
            if imbalance < 2 {
                break;
            }
            // Pull the largest task that still fits in half the
            // imbalance (the kernel's "don't overshoot" rule), or the
            // smallest task when none fits — but only if moving it
            // strictly reduces the imbalance.
            let allows = |mask: u64, core: usize| {
                core < 64 && mask & (1 << core) != 0 || core >= 64 && mask == u64::MAX
            };
            let candidates: Vec<usize> = placement
                .iter()
                .enumerate()
                .filter(|(_, &(_, _, c, mask))| c == busiest && allows(mask, idlest))
                .map(|(idx, _)| idx)
                .collect();
            let pick = candidates
                .iter()
                .copied()
                .filter(|&idx| placement[idx].1 <= imbalance / 2)
                .max_by_key(|&idx| placement[idx].1)
                .or_else(|| {
                    candidates
                        .iter()
                        .copied()
                        .min_by_key(|&idx| placement[idx].1)
                })
                .filter(|&idx| placement[idx].1 < imbalance);
            let Some(idx) = pick else {
                // This core can't donate; let the next-busiest try.
                exhausted[busiest] = true;
                continue;
            };
            let (task, w, _, _) = placement[idx];
            load[busiest] -= w;
            load[idlest] += w;
            placement[idx].2 = idlest;
            moved.assign(task, CoreId(idlest));
        }

        if moved.is_empty() {
            None
        } else {
            Some(moved)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::CounterSample;
    use kernelsim::{CoreEpochStats, TaskEpochStats};

    fn task_stat(id: usize, core: usize, weight: u64) -> TaskEpochStats {
        TaskEpochStats {
            task: TaskId(id),
            core: CoreId(core),
            counters: CounterSample::default(),
            runtime_ns: 1_000_000,
            energy_j: 1e-4,
            utilization: 0.5,
            alive: true,
            kernel_thread: false,
            weight,
            allowed: u64::MAX,
        }
    }

    fn report(tasks: Vec<TaskEpochStats>, cores: usize) -> EpochReport {
        EpochReport {
            epoch: 0,
            duration_ns: 60_000_000,
            now_ns: 60_000_000,
            tasks,
            cores: (0..cores)
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
    fn spreads_stacked_tasks() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        // Four equal tasks stacked on core 0.
        let r = report((0..4).map(|i| task_stat(i, 0, 1024)).collect(), 4);
        let alloc = vb.rebalance(&platform, &r).expect("must rebalance");
        // After balancing each core should hold exactly one task.
        let mut final_core: Vec<usize> = (0..4)
            .map(|i| alloc.core_of(TaskId(i)).map_or(0, |c| c.0))
            .collect();
        final_core.sort_unstable();
        assert_eq!(final_core, vec![0, 1, 2, 3]);
    }

    #[test]
    fn balanced_system_untouched() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        let r = report((0..4).map(|i| task_stat(i, i, 1024)).collect(), 4);
        assert!(vb.rebalance(&platform, &r).is_none());
    }

    #[test]
    fn respects_weights_not_counts() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        // One heavy task (4096) on core 0, four light (1024) on core 1.
        let mut tasks = vec![task_stat(0, 0, 4096)];
        tasks.extend((1..5).map(|i| task_stat(i, 1, 1024)));
        let alloc = vb.rebalance(&platform, &r2(tasks)).expect("rebalance");
        // The heavy task should stay; light tasks spread to cores 2/3.
        assert_eq!(alloc.core_of(TaskId(0)), None, "heavy task stays put");
        let moved: Vec<_> = alloc.iter().collect();
        assert!(!moved.is_empty());
        for (_, c) in moved {
            assert!(c.0 >= 2, "light tasks move to the empty cores");
        }
        fn r2(tasks: Vec<TaskEpochStats>) -> EpochReport {
            report(tasks, 4)
        }
    }

    #[test]
    fn empty_report_is_noop() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        assert!(vb.rebalance(&platform, &report(vec![], 4)).is_none());
    }

    #[test]
    fn ignores_dead_tasks() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        let mut t = task_stat(0, 0, 1024);
        t.alive = false;
        let mut t2 = task_stat(1, 0, 1024);
        t2.alive = false;
        assert!(vb.rebalance(&platform, &report(vec![t, t2], 4)).is_none());
    }

    #[test]
    fn offline_cores_never_receive_tasks() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        // Six equal tasks stacked on core 0; cores 2 and 3 offline.
        let mut r = report((0..6).map(|i| task_stat(i, 0, 1024)).collect(), 4);
        r.cores[2].online = false;
        r.cores[3].online = false;
        let alloc = vb.rebalance(&platform, &r).expect("must spread to core 1");
        assert!(!alloc.is_empty());
        for (_, core) in alloc.iter() {
            assert_eq!(core, CoreId(1), "only online core 1 may receive");
        }
    }

    #[test]
    fn offline_core_drains_even_when_busiest() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        // Stale attribution: tasks still accounted to offline core 0.
        let mut r = report((0..4).map(|i| task_stat(i, 0, 1024)).collect(), 4);
        r.cores[0].online = false;
        let alloc = vb.rebalance(&platform, &r).expect("drain the dead core");
        for (_, core) in alloc.iter() {
            assert_ne!(core, CoreId(0));
        }
        // All four must leave (their host is gone, targets balanced).
        assert!(alloc.len() >= 3, "most tasks drain: {}", alloc.len());
    }

    #[test]
    fn all_cores_offline_is_noop() {
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        let mut r = report((0..4).map(|i| task_stat(i, 0, 1024)).collect(), 4);
        for c in &mut r.cores {
            c.online = false;
        }
        assert!(vb.rebalance(&platform, &r).is_none());
    }

    #[test]
    fn move_budget_bounds_migrations() {
        // 200 equal tasks stacked on core 0 would take 150 moves to
        // balance; one pass makes exactly the budget's 64.
        let platform = Platform::quad_heterogeneous();
        let mut vb = VanillaBalancer::new();
        let r = report((0..200).map(|i| task_stat(i, 0, 1024)).collect(), 4);
        let alloc = vb.rebalance(&platform, &r).expect("rebalance");
        assert_eq!(alloc.len(), 64);
    }

    #[test]
    fn default_migrates_like_new() {
        let platform = Platform::quad_heterogeneous();
        let r = report((0..8).map(|i| task_stat(i, 0, 1024)).collect(), 4);
        let mut from_default: VanillaBalancer = Default::default();
        let by_default = from_default.rebalance(&platform, &r);
        let by_new = VanillaBalancer::new().rebalance(&platform, &r);
        assert!(by_default.is_some(), "the default balancer migrates");
        assert_eq!(by_default, by_new);
    }
}
