//! `hotloop`: the slice loop alone. A quad-heterogeneous platform runs
//! 24 synthetic 4-phase tasks under the null balancer, so `kernelsim`
//! dispatch, CFS and wake handling, `archsim`'s estimate memo (almost
//! only hits) and `mcpat` accounting do all the work, and the balancer,
//! suite and campaign layers do none.

use archsim::Platform;
use kernelsim::{NullBalancer, System, SystemConfig};
use workloads::SyntheticGenerator;

use crate::host::Clock;
use crate::probe::Spans;
use crate::run::{input_seed, jittered, run_sim, Round, Workload};

const TASKS: usize = 24;
/// The task set of the former `perfstat` hot-loop scenario.
const TASK_SET_SEED: u64 = 0xB007;
const SALT: u64 = 0x407_1009;
/// Epoch-time samples per round. One epoch takes ~40 us, so a sample
/// is the mean over a chunk of epochs (1 000 of them at full size):
/// over single epochs that short, the p90's spread between runs reached
/// the 25% bound.
const SAMPLES: u64 = 30;

/// The hotloop workload.
pub struct Hotloop {
    seed: u64,
    epochs: u64,
}

impl Hotloop {
    /// 30 000 epochs per round (3 000 at smoke size).
    pub fn new(seed: u64, smoke: bool) -> Self {
        Hotloop {
            seed,
            epochs: if smoke { 3_000 } else { 30_000 },
        }
    }
}

impl Workload for Hotloop {
    fn samples_per_round(&self) -> usize {
        SAMPLES as usize
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Round {
        let mut clock = Clock::start(1);
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let mut tasks = SyntheticGenerator::new(TASK_SET_SEED);
        let mut jitter = SyntheticGenerator::new(input_seed(self.seed, SALT));
        for i in 0..TASKS {
            // Budgets far beyond the horizon: nothing exits mid-round.
            let task = tasks.profile(format!("t{i}"), 4, u64::MAX / 64, i % 2 == 0);
            sys.spawn(jittered(&task, &mut jitter));
        }
        clock.lap();
        run_sim(
            clock,
            &mut sys,
            Box::new(NullBalancer),
            self.epochs,
            self.epochs / SAMPLES,
            spans.map(|s| (s, None)),
            &mut |sys, balancer, _| {
                sys.run_epoch(balancer);
            },
        )
    }
}
