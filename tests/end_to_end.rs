//! End-to-end integration tests: the full sense → predict → balance
//! pipeline running on the kernel simulator over real workloads,
//! checking the paper's headline directional claims.

use archsim::Platform;
use smartbalance::{compare_policies, ExperimentSpec, Policy};

/// A heterogeneous Table 3-style mix at a given scale.
fn mixed_spec(platform: Platform, scale: f64, threads: usize) -> ExperimentSpec {
    let mut profiles = Vec::new();
    for name in ["blackscholes", "canneal", "bodytrack", "streamcluster"] {
        let bench = workloads::parsec::by_name(name).expect("benchmark");
        profiles.extend(ExperimentSpec::parallelize(&bench.scaled(scale), threads));
    }
    ExperimentSpec::new("e2e", platform, profiles)
}

#[test]
fn smartbalance_beats_vanilla_on_heterogeneous_mix() {
    // The Fig. 4 headline: SmartBalance improves measured energy
    // efficiency over the vanilla balancer on the 4-type platform.
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.3, 2);
    let results = compare_policies(&spec, &[Policy::Vanilla, Policy::Smart]);
    assert!(results.iter().all(|r| r.completed), "both runs finish");
    let ratio = results[1].efficiency_vs(&results[0]);
    assert!(
        ratio > 1.10,
        "SmartBalance should clearly beat vanilla, got {ratio:.3}"
    );
}

#[test]
fn smartbalance_beats_gts_on_big_little() {
    // The Fig. 5 headline on the octa-core big.LITTLE platform.
    let spec = mixed_spec(Platform::octa_big_little(), 0.3, 2);
    let results = compare_policies(&spec, &[Policy::Gts, Policy::Smart]);
    assert!(results.iter().all(|r| r.completed));
    let ratio = results[1].efficiency_vs(&results[0]);
    assert!(ratio > 1.05, "SmartBalance should beat GTS, got {ratio:.3}");
}

#[test]
fn all_work_is_conserved_across_policies() {
    // Every policy must commit the same total instructions — balancing
    // may change *where* and *when*, never *how much*.
    // Note: GTS is excluded — it (correctly) refuses the 4-type
    // platform; its conservation is covered by the big.LITTLE tests.
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.1, 2);
    let results = compare_policies(&spec, &[Policy::None, Policy::Vanilla, Policy::Smart]);
    let baseline = results[0].stats.total_instructions as f64;
    for r in &results[1..] {
        let diff = (r.stats.total_instructions as f64 - baseline).abs() / baseline;
        assert!(
            diff < 0.01,
            "{} committed {} vs {} instructions",
            r.policy,
            r.stats.total_instructions,
            baseline
        );
    }
}

#[test]
fn full_runs_are_deterministic() {
    let run = || {
        let spec = mixed_spec(Platform::quad_heterogeneous(), 0.1, 2);
        let results = compare_policies(&spec, &[Policy::Smart]);
        (
            results[0].stats.total_instructions,
            results[0].stats.total_energy_j.to_bits(),
            results[0].stats.migrations,
        )
    };
    assert_eq!(run(), run(), "simulation + balancing must be reproducible");
}

#[test]
fn energy_accounting_is_consistent() {
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.1, 4);
    let results = compare_policies(&spec, &[Policy::Smart]);
    let stats = &results[0].stats;
    let per_core_sum: f64 = stats.per_core.iter().map(|c| c.energy_j).sum();
    assert!((per_core_sum - stats.total_energy_j).abs() < 1e-9);
    let per_core_instr: u64 = stats.per_core.iter().map(|c| c.instructions).sum();
    assert_eq!(per_core_instr, stats.total_instructions);
    // Busy + sleep accounts for the whole run on every core.
    for c in &stats.per_core {
        assert_eq!(c.busy_ns + c.sleep_ns, stats.elapsed_ns);
    }
}

#[test]
fn literal_eq11_goal_loses_to_vanilla_where_the_system_ratio_wins() {
    // DESIGN.md deviation 4: the per-core ratio sum of Eq. 11 lets the
    // annealer park hopeless threads on a "dump site" core and lowers
    // the measured instructions/joule below vanilla; the system ratio
    // `Goal::EnergyEfficiency` does not.
    use smartbalance::{run_experiment_with, Goal, SmartBalance, SmartBalanceConfig};
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.2, 2);
    let vanilla = compare_policies(&spec, &[Policy::Vanilla]).remove(0);
    assert!(vanilla.completed, "vanilla run finishes");
    let ratio = |goal| {
        let cfg = SmartBalanceConfig {
            goal,
            ..SmartBalanceConfig::default()
        };
        let mut policy = SmartBalance::with_config(&spec.platform, cfg);
        let result = run_experiment_with(&spec, &mut policy, None);
        assert!(result.completed, "{goal:?} run finishes");
        result.efficiency_vs(&vanilla)
    };
    let per_core_sum = ratio(Goal::PerCoreEfficiencySum);
    let system_ratio = ratio(Goal::EnergyEfficiency);
    assert!(
        per_core_sum < 1.0,
        "literal Eq. 11 should end below vanilla, got {per_core_sum:.3}"
    );
    assert!(
        system_ratio > 1.10,
        "the system ratio should beat vanilla by >10%, got {system_ratio:.3}"
    );
}

#[test]
fn throughput_goal_finishes_faster_than_energy_goal() {
    use smartbalance::{run_experiment_with, Goal, SmartBalance, SmartBalanceConfig};
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.2, 2);
    let mut results = Vec::new();
    for goal in [Goal::Throughput, Goal::EnergyEfficiency] {
        let cfg = SmartBalanceConfig {
            goal,
            ..SmartBalanceConfig::default()
        };
        let mut policy = SmartBalance::with_config(&spec.platform, cfg);
        results.push(run_experiment_with(&spec, &mut policy, None));
    }
    assert!(
        results[0].stats.elapsed_ns <= results[1].stats.elapsed_ns,
        "throughput goal must not be slower: {} vs {}",
        results[0].stats.elapsed_ns,
        results[1].stats.elapsed_ns
    );
    assert!(
        results[1].energy_efficiency() >= results[0].energy_efficiency(),
        "energy goal must not be less efficient"
    );
}
