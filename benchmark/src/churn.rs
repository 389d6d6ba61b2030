//! `task-churn`: the hotloop's layers under churn. A closed population
//! of 32 short seeded tasks (up to 8 phases, 20M–200M instructions, a
//! third interactive) is replaced task for task as tasks exit, under
//! flat SmartBalance with stuck counters, failing migrations and a
//! core hotplugged off and on. The estimate memo now misses, and
//! spawn/exit, apply rejections and the degrade ladder all run. Exited
//! tasks stay in the system's task table, so per-epoch scans grow over
//! the round.

use archsim::{CoreId, FaultKind, FaultPlan, Platform};
use kernelsim::{System, SystemConfig};
use smartbalance::Policy;
use workloads::{SyntheticGenerator, WorkloadProfile};

use crate::host::Clock;
use crate::probe::{Shadow, Spans};
use crate::run::{input_seed, run_sim, Round, Workload};

const POPULATION: usize = 32;
const SALT: u64 = 0xC4_0211;
const FAULT_SALT: u64 = 0xFA_0175;
const MIGRATION_SALT: u64 = 0x316_2A7E;
const STUCK_PROB: f64 = 0.1;
const MIGRATION_FAIL_PROB: f64 = 0.1;
const HOTPLUG_CORE: CoreId = CoreId(3);
const HOTPLUG_EVERY: u64 = 50;

/// The task-churn workload.
pub struct Churn {
    seed: u64,
    epochs: u64,
    /// Predictor set for the traced run's shadow, trained once.
    shadow_predictors: Option<smartbalance::PredictorSet>,
}

impl Churn {
    /// 10 000 epochs per round (400 at smoke size).
    pub fn new(seed: u64, smoke: bool) -> Self {
        Churn {
            seed,
            epochs: if smoke { 400 } else { 10_000 },
            shadow_predictors: None,
        }
    }
}

/// Draws the next task of the population.
fn next_task(gen: &mut SyntheticGenerator, id: usize) -> WorkloadProfile {
    let instructions = 20_000_000 + gen.below(180_000_001);
    let interactive = gen.below(3) == 0;
    gen.profile(format!("c{id}"), 8, instructions, interactive)
}

/// The system of one round: the first population, with the fault plan
/// and the migration failure model installed.
fn setup(seed: u64) -> (System, SyntheticGenerator) {
    let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
    sys.set_fault_plan(
        FaultPlan::new().inject(0, None, FaultKind::StuckCounters { prob: STUCK_PROB }),
        input_seed(seed, FAULT_SALT),
    );
    sys.set_migration_failure(MIGRATION_FAIL_PROB, input_seed(seed, MIGRATION_SALT));
    let mut gen = SyntheticGenerator::new(input_seed(seed, SALT));
    for id in 0..POPULATION {
        sys.spawn(next_task(&mut gen, id));
    }
    (sys, gen)
}

/// One epoch of the churn: the hotplug toggle, the epoch, and one new
/// task for every task that exited in it.
fn step(
    sys: &mut System,
    balancer: &mut dyn kernelsim::LoadBalancer,
    gen: &mut SyntheticGenerator,
    epoch: u64,
) {
    if epoch > 0 && epoch.is_multiple_of(HOTPLUG_EVERY) {
        let online = sys.core_online(HOTPLUG_CORE);
        sys.set_core_online(HOTPLUG_CORE, !online);
    }
    let report = sys.run_epoch(balancer);
    let exited = report.tasks.iter().filter(|t| !t.alive).count();
    for _ in 0..exited {
        let id = sys.tasks().len();
        sys.spawn(next_task(gen, id));
    }
}

impl Workload for Churn {
    fn samples_per_round(&self) -> usize {
        self.epochs as usize
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Round {
        let mut clock = Clock::start(1);
        let (mut sys, mut gen) = setup(self.seed);
        let balancer = Policy::Smart.build(sys.platform(), None);
        clock.lap();
        let shadow = spans.is_some().then(|| {
            let predictors = self
                .shadow_predictors
                .get_or_insert_with(|| Shadow::train(sys.platform()));
            Shadow::full(predictors.clone())
        });
        let mut round = run_sim(
            clock,
            &mut sys,
            balancer,
            self.epochs,
            1,
            spans.map(|s| (s, shadow)),
            &mut |sys, balancer, e| step(sys, balancer, &mut gen, e),
        );
        let live = sys.live_tasks();
        if live != POPULATION {
            round.problems.push(format!(
                "{live} live tasks after the round, not {POPULATION}"
            ));
        }
        round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_wrapper_leaves_the_fingerprint_unchanged() {
        let mut churn = Churn {
            seed: 3,
            epochs: 50,
            shadow_predictors: None,
        };
        let plain = churn.round(None);
        let mut spans = Spans::new();
        let traced = churn.round(Some(&mut spans));
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        let layers = traced.layers.expect("a traced round measures layers");
        assert_eq!(layers.rebalance_ns.len(), 50, "one timed call per epoch");
        assert!(
            layers.shadow_ns.iter().all(|&ns| ns > 0.0),
            "every stage replayed"
        );
        assert_eq!(plain.fingerprint, traced.fingerprint);
    }
}
