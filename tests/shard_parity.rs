//! Parity and determinism contracts for SmartBalance's cluster-sharded
//! back half:
//!
//! * with sharding off, the [`Policy::Smart`] path stays bit-identical
//!   to the flat `SmartBalance` oracle;
//! * with sharding on, the policy dispatch is bit-identical to a
//!   directly-constructed sharded [`SmartBalance`];
//! * offline (hotplugged) cores are honored inside every cluster
//!   shard — no placement ever targets them;
//! * a thread whose predictions are quarantined never moves;
//! * shard worker count (1 vs N) never changes results, also under
//!   hotplug, sensor noise and threads stranded on offline cores;
//! * after a DVFS change the sharded objective uses the same sleep
//!   power as the flat one.

use std::collections::BTreeSet;

use archsim::{CoreId, CoreTypeId, FaultKind, FaultPlan, Platform};
use kernelsim::{
    Allocation, EpochReport, LoadBalancer, NullBalancer, System, SystemConfig, TaskId,
};
use smartbalance::{
    AnnealOutcome, DegradeMode, ExperimentSpec, ExperimentSuite, Policy, ShardConfig, SmartBalance,
    SmartBalanceConfig,
};
use workloads::{SyntheticGenerator, WorkloadProfile};

/// Serialized fingerprint of one epoch — string equality implies bit
/// equality of every field the report carries.
fn fingerprint(report: &EpochReport) -> String {
    serde_json::to_string(report).expect("epoch report serializes")
}

fn mixed_profiles(count: usize, seed: u64, budget: u64) -> Vec<WorkloadProfile> {
    let mut gen = SyntheticGenerator::new(seed);
    (0..count)
        .map(|i| gen.profile(format!("t{i}"), 2, budget, i % 3 == 0))
        .collect()
}

fn spawn_all(sys: &mut System, profiles: &[WorkloadProfile]) {
    for p in profiles {
        sys.spawn(p.clone());
    }
}

/// A sharded balancer with `workers` anneal workers (`0`: the machine's
/// available parallelism) and otherwise default configuration.
fn sharded(platform: &Platform, workers: usize) -> SmartBalance {
    let config = SmartBalanceConfig {
        shard: Some(ShardConfig {
            workers,
            ..ShardConfig::default()
        }),
        ..SmartBalanceConfig::default()
    };
    SmartBalance::with_config(platform, config)
}

/// Sensor noise (σ = 3) on cores 0–3 from the first epoch: enough to
/// quarantine a few threads' predictions while the degradation ladder
/// stays in full mode.
fn noisy_first_cores(sys: &mut System) {
    let mut plan = FaultPlan::new();
    for core in 0..4 {
        plan = plan.inject(0, Some(core), FaultKind::Noise { sigma: 3.0 });
    }
    sys.set_fault_plan(plan, 0x5EED_0001);
}

/// Runs `epochs` epochs of the same workload under `balancer` and
/// returns (per-epoch fingerprints, final-stats fingerprint, energy
/// bits).
fn run_fingerprinted(
    platform: &Platform,
    profiles: &[WorkloadProfile],
    balancer: &mut dyn LoadBalancer,
    epochs: usize,
) -> (Vec<String>, String, u64) {
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    spawn_all(&mut sys, profiles);
    let mut prints = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        prints.push(fingerprint(&sys.run_epoch(balancer)));
    }
    let stats = sys.stats();
    let energy_bits = stats.total_energy_j.to_bits();
    let stats_print = serde_json::to_string(&stats).expect("stats serialize");
    (prints, stats_print, energy_bits)
}

#[test]
fn sharding_off_is_bit_identical_to_the_flat_oracle() {
    // `shard: None` must leave the Policy::Smart path exactly the flat
    // balancer — same epoch reports, same stats, same energy bits.
    let platform = Platform::clustered_heterogeneous(4, 8);
    let profiles = mixed_profiles(48, 11, 400_000_000);

    let cfg = SmartBalanceConfig::default();
    assert!(cfg.shard.is_none(), "default config must not shard");
    let mut via_policy = Policy::Smart.build(&platform, Some(&cfg));
    let mut oracle = SmartBalance::with_config(&platform, cfg.clone());

    let a = run_fingerprinted(&platform, &profiles, via_policy.as_mut(), 10);
    let b = run_fingerprinted(&platform, &profiles, &mut oracle, 10);
    assert_eq!(a.0, b.0, "per-epoch reports diverged from the flat oracle");
    assert_eq!(a.1, b.1, "final stats diverged from the flat oracle");
    assert_eq!(a.2, b.2, "energy bits diverged from the flat oracle");
}

#[test]
fn sharding_on_policy_dispatch_matches_direct_construction() {
    let platform = Platform::clustered_heterogeneous(4, 8);
    let profiles = mixed_profiles(48, 13, 400_000_000);

    let cfg = SmartBalanceConfig {
        shard: Some(ShardConfig::default()),
        ..SmartBalanceConfig::default()
    };
    let mut via_policy = Policy::Smart.build(&platform, Some(&cfg));
    assert_eq!(via_policy.name(), "smartbalance-sharded");
    let mut direct = SmartBalance::with_config(&platform, cfg.clone());

    let a = run_fingerprinted(&platform, &profiles, via_policy.as_mut(), 10);
    let b = run_fingerprinted(&platform, &profiles, &mut direct, 10);
    assert_eq!(a.0, b.0, "policy-built sharded run diverged from direct");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn offline_cores_are_honored_in_every_cluster_shard() {
    // Take down one core in cluster 0, the whole of cluster 1, and one
    // core in cluster 2: the sharded balancer must never place or
    // migrate a task onto any of them, in any shard, on any epoch.
    let platform = Platform::clustered_heterogeneous(4, 4);
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    spawn_all(&mut sys, &mixed_profiles(24, 17, u64::MAX / 64));

    let offline: Vec<usize> = vec![2, 4, 5, 6, 7, 9];
    for &c in &offline {
        sys.set_core_online(CoreId(c), false);
    }

    let mut policy = sharded(&platform, 0);
    for _ in 0..6 {
        sys.run_epoch(&mut policy);
        for t in sys.tasks() {
            assert!(
                !offline.contains(&t.core().0),
                "task placed on offline core {}",
                t.core().0
            );
        }
    }
    // The balancer must respect the mask up front, not rely on the
    // kernel rejecting bad migrations after the fact.
    let stats = sys.stats();
    assert_eq!(
        stats.migration_totals.offline_core, 0,
        "balancer requested migrations onto offline cores"
    );

    // Bring cluster 1 back; the shards must pick it up again.
    for c in [4, 5, 6, 7] {
        sys.set_core_online(CoreId(c), true);
    }
    for _ in 0..6 {
        sys.run_epoch(&mut policy);
        for t in sys.tasks() {
            assert!(
                t.core().0 != 2 && t.core().0 != 9,
                "still-offline core used"
            );
        }
    }
    assert_eq!(sys.stats().migration_totals.offline_core, 0);
}

#[test]
fn shard_worker_count_never_changes_results() {
    // 1 shard worker vs 4 must produce byte-identical canonicalized
    // suite reports: worker count is an execution detail, not an input.
    let platform = Platform::clustered_heterogeneous(4, 4);
    let spec = ExperimentSpec::new(
        "shard-workers",
        platform,
        mixed_profiles(24, 19, 300_000_000),
    )
    .with_max_epochs(40);

    let report_for = |workers: usize| {
        let mut suite = ExperimentSuite::new().with_workers(1);
        let sharded = spec.clone().with_shard(ShardConfig {
            workers,
            ..ShardConfig::default()
        });
        suite.push(sharded, Policy::Smart);
        let report = suite.run().canonicalized();
        serde_json::to_string(&report).expect("suite report serializes")
    };

    let one = report_for(1);
    let four = report_for(4);
    assert_eq!(one, four, "shard worker count changed the suite report");
}

/// Wraps a sharded balancer and checks every allocation it emits
/// against the threads quarantined in the same epoch.
struct QuarantineAudit {
    inner: SmartBalance,
    quarantined: BTreeSet<TaskId>,
    requested: usize,
    modes: Vec<DegradeMode>,
}

impl LoadBalancer for QuarantineAudit {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let alloc = self.inner.rebalance(platform, report);
        let quarantined = self.inner.quarantined_threads();
        if let Some(alloc) = &alloc {
            for &task in &quarantined {
                assert_eq!(
                    alloc.core_of(task),
                    None,
                    "epoch {}: quarantined {task:?} was moved",
                    report.epoch
                );
            }
            self.requested += alloc.len();
        }
        self.quarantined.extend(quarantined);
        self.modes.push(self.inner.mode());
        alloc
    }
}

/// Quarantine pinning survives sharding: a thread the tracker
/// distrusts never moves (mirrors the flat balancer's contract).
#[test]
fn quarantined_threads_never_move_under_sharding() {
    let platform = Platform::clustered_heterogeneous(4, 16);
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    noisy_first_cores(&mut sys);
    spawn_all(&mut sys, &mixed_profiles(96, 29, u64::MAX / 64));
    let mut audit = QuarantineAudit {
        inner: sharded(&platform, 2),
        quarantined: BTreeSet::new(),
        requested: 0,
        modes: Vec::new(),
    };
    for _ in 0..8 {
        sys.run_epoch(&mut audit);
    }
    assert!(
        audit.modes.iter().all(|&m| m == DegradeMode::Full),
        "the noise must not push the ladder off full mode: {:?}",
        audit.modes
    );
    assert!(
        (2..=4).contains(&audit.quarantined.len()),
        "expected a few quarantined threads, got {:?}",
        audit.quarantined
    );
    assert!(
        audit.requested >= 50,
        "the other threads keep being balanced: {} migrations requested",
        audit.requested
    );
}

/// Shard worker count stays invisible where the per-cluster tasks and
/// the split deltas do their work: a core toggled every few epochs,
/// noisy sensors with quarantined threads, and a report with a thread
/// stranded on an offline core (its rates are predicted outside the
/// pool).
#[test]
fn shard_worker_count_is_invisible_under_hotplug_noise_and_stranding() {
    let platform = Platform::clustered_heterogeneous(4, 16);
    let profiles = mixed_profiles(96, 31, u64::MAX / 64);
    let run = |workers: usize| -> Vec<String> {
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        noisy_first_cores(&mut sys);
        spawn_all(&mut sys, &profiles);
        let mut policy = sharded(&platform, workers);
        let mut prints = Vec::new();
        let mut online = true;
        let mut last = None;
        for epoch in 0..16 {
            if epoch % 3 == 2 {
                online = !online;
                sys.set_core_online(CoreId(21), online);
            }
            let report = sys.run_epoch(&mut policy);
            prints.push(fingerprint(&report));
            last = Some(report);
        }
        // Hand-built epoch: the core of the first task goes offline in
        // the report while the task is still on it.
        let mut report = last.expect("sixteen epochs ran");
        let stranded = report.tasks[0].core;
        for c in &mut report.cores {
            if c.core == stranded {
                c.online = false;
            }
        }
        let alloc = policy.rebalance(&platform, &report);
        prints.push(format!("{alloc:?} {:?}", policy.last_outcome()));
        prints
    };
    let one = run(1);
    for workers in [2, 4] {
        assert_eq!(one, run(workers), "{workers} shard workers changed results");
    }
}

/// The sharded path reads sleep power from the live platform, as the
/// flat path does: the same report, fed to both each epoch, gives
/// bit-equal initial objectives before and after a DVFS change of one
/// cluster's core type (`System::set_operating_point` rescales its
/// sleep power).
#[test]
fn sharded_sleep_power_follows_a_dvfs_change_like_the_flat_path() {
    let platform = Platform::clustered_heterogeneous(2, 4);
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    spawn_all(&mut sys, &mixed_profiles(5, 41, u64::MAX / 64));
    let mut flat = SmartBalance::new(&platform);
    let mut sharded = sharded(&platform, 0);
    for epoch in 0..6 {
        if epoch == 3 {
            sys.set_operating_point(CoreTypeId(1), 1.0e9, 0.72);
        }
        let report = sys.run_epoch(&mut NullBalancer);
        flat.rebalance(sys.platform(), &report);
        sharded.rebalance(sys.platform(), &report);
        let initial = |outcome: Option<&AnnealOutcome>| {
            outcome
                .expect("every epoch anneals")
                .initial_objective
                .to_bits()
        };
        assert_eq!(
            initial(flat.last_outcome()),
            initial(sharded.last_outcome()),
            "epoch {epoch}: initial objectives differ"
        );
    }
}
