//! Scalability integration tests: the full stack on larger platforms
//! (the Fig. 7(b)/Fig. 8 regime) — correctness at scale, not speed.

use archsim::{CoreId, Platform, WorkloadCharacteristics};
use kernelsim::{System, SystemConfig};
use smartbalance::{
    anneal, known_optimum_case, AnnealParams, Goal, Objective, Policy, ShardConfig, SmartBalance,
    SmartBalanceConfig,
};
use workloads::{SyntheticGenerator, WorkloadProfile};

#[test]
fn thirty_two_core_platform_runs_end_to_end() {
    let platform = Platform::scaled_heterogeneous(32);
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let mut gen = SyntheticGenerator::new(99);
    for i in 0..64 {
        sys.spawn(gen.profile(format!("t{i}"), 2, 100_000_000, i % 4 == 0));
    }
    let mut policy = SmartBalance::new(&platform);
    for _ in 0..6 {
        sys.run_epoch(&mut policy);
    }
    // Every live task sits on a valid core; accounting still balances.
    let cores = platform.num_cores();
    for t in sys.tasks() {
        assert!(t.core().0 < cores);
    }
    let stats = sys.stats();
    let per_core: u64 = stats.per_core.iter().map(|c| c.instructions).sum();
    assert_eq!(per_core, stats.total_instructions);
    assert!(stats.total_instructions > 0);
}

#[test]
fn clustered_256_core_platform_runs_end_to_end_sharded() {
    // The hierarchical regime: 8 clusters × 32 cores under the
    // cluster-sharded balancer.
    let platform = Platform::clustered_heterogeneous(8, 32);
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let mut gen = SyntheticGenerator::new(7);
    for i in 0..384 {
        sys.spawn(gen.profile(format!("t{i}"), 2, 50_000_000, i % 4 == 0));
    }
    let config = SmartBalanceConfig {
        shard: Some(ShardConfig::default()),
        ..SmartBalanceConfig::default()
    };
    let mut policy = SmartBalance::with_config(&platform, config);
    for _ in 0..5 {
        sys.run_epoch(&mut policy);
    }
    let cores = platform.num_cores();
    assert_eq!(cores, 256);
    for t in sys.tasks() {
        assert!(t.core().0 < cores);
    }
    let stats = sys.stats();
    let per_core: u64 = stats.per_core.iter().map(|c| c.instructions).sum();
    assert_eq!(per_core, stats.total_instructions);
    assert!(stats.total_instructions > 0);
    // The sharded balancer must actually exchange across clusters on a
    // mixed synthetic workload.
    assert!(stats.migrations > 0);
}

/// Achieved IPS/W of SmartBalance (flat, or sharded with `shard`) on
/// `platform`: 1.5 threads per core, compute/memory/balanced dealt
/// round-robin onto the cores, budgets no task exhausts, 24 epochs.
fn smart_ips_per_w(platform: &Platform, shard: Option<ShardConfig>) -> f64 {
    let cfg = SmartBalanceConfig {
        shard,
        ..SmartBalanceConfig::default()
    };
    let mut balancer = Policy::Smart.build(platform, Some(&cfg));
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let cores = platform.num_cores();
    for k in 0..cores + cores / 2 {
        let w = match k % 3 {
            0 => WorkloadCharacteristics::compute_bound(),
            1 => WorkloadCharacteristics::memory_bound(),
            _ => WorkloadCharacteristics::balanced(),
        };
        sys.spawn_on(
            WorkloadProfile::uniform(format!("t{k}"), w, u64::MAX / 64),
            CoreId(k % cores),
        );
    }
    for _ in 0..24 {
        sys.run_epoch(balancer.as_mut());
    }
    sys.stats().instructions_per_joule()
}

#[test]
fn sharded_balancer_keeps_95_percent_of_flat_ips_per_watt() {
    // The price of sharding in allocation quality, at the 64- and
    // 256-core clustered tiers. Without the cross-cluster exchange
    // (`exchange_rounds: 0`) the 64-core tier falls to ~0.57.
    for (clusters, per_cluster) in [(4, 16), (8, 32)] {
        let platform = Platform::clustered_heterogeneous(clusters, per_cluster);
        let flat = smart_ips_per_w(&platform, None);
        let sharded = smart_ips_per_w(&platform, Some(ShardConfig::default()));
        let ratio = sharded / flat;
        assert!(
            ratio >= 0.95,
            "{clusters}x{per_cluster}: sharded/flat IPS/W {ratio:.4}"
        );
    }
}

#[test]
fn annealer_stays_near_optimal_across_scales() {
    // The Fig. 8(a) measurement as a regression gate: with the scaled
    // iteration budgets, distance to the known optimum stays small.
    for &cores in &[2usize, 8, 32] {
        let threads = cores * 2;
        let case = known_optimum_case(cores, 2, 7 * cores as u64);
        let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
        let params = AnnealParams::scaled_for(cores, threads);
        let out = anneal(&objective, &vec![0usize; threads], params, 5);
        let distance = 1.0 - out.objective / case.optimal_value;
        assert!(
            distance < 0.05,
            "{cores} cores: distance to optimal {distance:.3}"
        );
    }
}

#[test]
fn iteration_budget_rule_is_monotone_and_capped() {
    let mut prev = 0;
    for &(n, m) in &[(2usize, 4usize), (4, 8), (8, 16), (32, 64), (128, 256)] {
        let p = AnnealParams::scaled_for(n, m);
        assert!(p.max_iter >= prev, "budget must not shrink with size");
        assert!(p.max_iter <= 4_000, "budget must stay capped");
        prev = p.max_iter;
    }
}

#[test]
fn predictor_training_scales_to_more_core_types() {
    // 6 distinct core types (the aggressive-heterogeneity pitch):
    // training covers all 36 ordered pairs.
    use archsim::{CoreConfig, CoreTypeId};
    let mut types = vec![
        CoreConfig::huge(),
        CoreConfig::big(),
        CoreConfig::medium(),
        CoreConfig::small(),
        CoreConfig::a15_like(),
        CoreConfig::a7_like(),
    ];
    // Make names unique (cosmetic).
    for (i, t) in types.iter_mut().enumerate() {
        t.name = format!("{}_{i}", t.name);
    }
    let gamma = (0..6).map(CoreTypeId).collect();
    let platform = Platform::new(types, gamma);
    let predictors = smartbalance::PredictorSet::train(&platform, 150, 5);
    assert_eq!(predictors.num_types(), 6);
    // Spot-check a cross-type prediction is physical.
    let corpus = SyntheticGenerator::new(1).corpus(20);
    let (err, _) = smartbalance::predict::evaluate_pair(
        &predictors,
        &platform,
        &corpus,
        CoreTypeId(0),
        CoreTypeId(5),
    );
    assert!(err < 0.2, "6-type cross prediction error {err}");
}
