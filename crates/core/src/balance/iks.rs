//! Linaro's In-Kernel Switcher (IKS) — the older big.LITTLE baseline
//! (paper ref.\[23\], compared in Table 1).
//!
//! IKS is *coarser* than GTS: cores are paired into virtual CPUs (one
//! big + one little each), and the decision is per-pair — a virtual
//! CPU runs its threads on either its big half or its little half,
//! switching on a utilization threshold. There is no per-thread choice
//! within a pair: when the pair's aggregate load is high, everything on
//! it runs big; otherwise everything runs little. This reproduces
//! Table 1's characterization (core-cluster selection, per-core
//! utilization awareness only).

use archsim::{CoreId, CoreTypeId, Platform};
use kernelsim::{affinity_allows, Allocation, EpochReport, LoadBalancer};

/// Aggregate pair utilization at or above which a pair switches to its
/// big core.
const UP_THRESHOLD: f64 = 0.7;

/// Aggregate pair utilization at or below which a pair switches to its
/// little core.
const DOWN_THRESHOLD: f64 = 0.3;

/// The IKS policy: paired big/little virtual CPUs with a per-pair
/// utilization switch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IksBalancer;

impl IksBalancer {
    /// Creates the policy.
    pub fn new() -> Self {
        IksBalancer
    }

    /// Pairs big and little cores into virtual CPUs.
    ///
    /// # Panics
    ///
    /// Panics unless the platform has exactly two core types with the
    /// same number of cores of each (the configuration IKS shipped
    /// for).
    fn pairs(platform: &Platform) -> Vec<(CoreId, CoreId)> {
        assert_eq!(
            platform.num_types(),
            2,
            "IKS only supports big.LITTLE (exactly 2 core types)"
        );
        let t0 = platform.type_config(CoreTypeId(0));
        let t1 = platform.type_config(CoreTypeId(1));
        let (big_ty, little_ty) = if t0.peak_ips() >= t1.peak_ips() {
            (CoreTypeId(0), CoreTypeId(1))
        } else {
            (CoreTypeId(1), CoreTypeId(0))
        };
        let big = platform.cores_of_type(big_ty);
        let little = platform.cores_of_type(little_ty);
        assert_eq!(
            big.len(),
            little.len(),
            "IKS pairs one big with one little core"
        );
        big.into_iter().zip(little).collect()
    }
}

impl LoadBalancer for IksBalancer {
    fn name(&self) -> &str {
        "iks"
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let pairs = Self::pairs(platform);
        // Map every core to its pair index.
        let mut pair_of = vec![usize::MAX; platform.num_cores()];
        for (k, &(b, l)) in pairs.iter().enumerate() {
            pair_of[b.0] = k;
            pair_of[l.0] = k;
        }

        // Aggregate utilization per virtual CPU.
        let mut pair_util = vec![0.0f64; pairs.len()];
        for t in report.tasks.iter().filter(|t| t.alive) {
            let k = pair_of[t.core.0];
            if k != usize::MAX {
                pair_util[k] += t.utilization;
            }
        }

        // Per-pair switch decision, then move every thread of the pair
        // to the selected half (no per-thread discrimination — the IKS
        // limitation).
        let mut alloc = Allocation::new();
        for t in report.tasks.iter().filter(|t| t.alive) {
            let k = pair_of[t.core.0];
            if k == usize::MAX {
                continue;
            }
            let (big, little) = pairs[k];
            let on_big = t.core == big;
            let want_big = if pair_util[k] >= UP_THRESHOLD {
                true
            } else if pair_util[k] <= DOWN_THRESHOLD {
                false
            } else {
                on_big
            };
            let target = if want_big { big } else { little };
            if target != t.core && affinity_allows(t.allowed, target) {
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
    fn busy_pair_switches_to_big() {
        let platform = Platform::octa_big_little();
        let mut iks = IksBalancer::new();
        // Core 4 is the little half of pair 0 (big core 0).
        let r = report(vec![task_stat(0, 4, 0.95)]);
        let alloc = iks.rebalance(&platform, &r).expect("switch up");
        assert_eq!(alloc.core_of(TaskId(0)), Some(CoreId(0)));
    }

    #[test]
    fn idle_pair_switches_to_little() {
        let platform = Platform::octa_big_little();
        let mut iks = IksBalancer::new();
        let r = report(vec![task_stat(0, 0, 0.1)]);
        let alloc = iks.rebalance(&platform, &r).expect("switch down");
        assert_eq!(alloc.core_of(TaskId(0)), Some(CoreId(4)));
    }

    #[test]
    fn whole_pair_moves_together() {
        // The IKS limitation: both threads of a busy pair go big, even
        // the one that would be fine on little.
        let platform = Platform::octa_big_little();
        let mut iks = IksBalancer::new();
        let r = report(vec![task_stat(0, 4, 0.8), task_stat(1, 4, 0.1)]);
        let alloc = iks.rebalance(&platform, &r).expect("switch up");
        assert_eq!(alloc.core_of(TaskId(0)), Some(CoreId(0)));
        assert_eq!(
            alloc.core_of(TaskId(1)),
            Some(CoreId(0)),
            "no per-thread choice"
        );
    }

    #[test]
    fn hysteresis_band_keeps_current_half() {
        let platform = Platform::octa_big_little();
        let mut iks = IksBalancer::new();
        let r = report(vec![task_stat(0, 0, 0.5)]);
        assert!(iks.rebalance(&platform, &r).is_none());
    }

    #[test]
    #[should_panic(expected = "exactly 2 core types")]
    fn rejects_quad_heterogeneous() {
        let platform = Platform::quad_heterogeneous();
        let mut iks = IksBalancer::new();
        iks.rebalance(&platform, &report(vec![task_stat(0, 0, 0.5)]));
    }
}
