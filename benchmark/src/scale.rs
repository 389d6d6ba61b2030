//! `scale-1024`: the balancer at scale. 1 024 cores in 16 clusters run
//! 1 536 synthetic tasks (a fixed set, jittered by the seed) under the
//! sharded SmartBalance, so the rebalance pass (sense, per-cluster
//! anneal, global exchange) dominates each epoch, the layer the hotloop
//! never exercises.

use archsim::{CoreId, Platform};
use kernelsim::{System, SystemConfig};
use smartbalance::{Policy, ShardConfig, SmartBalanceConfig};
use workloads::SyntheticGenerator;

use crate::host::Clock;
use crate::probe::{Shadow, Spans};
use crate::run::{input_seed, jittered, run_sim, Round, Workload};

const CLUSTERS: usize = 16;
const CORES_PER_CLUSTER: usize = 64;
/// The task set; the seed jitters it.
const TASK_SET_SEED: u64 = 0x0005_CA1E;
const SALT: u64 = 0x5CA1_E001;
/// Shard anneal workers, fixed: with "auto" the measured times would
/// follow the machine's core count.
const SHARD_WORKERS: usize = 2;

/// The scale-1024 workload.
pub struct Scale {
    seed: u64,
    epochs: u64,
}

impl Scale {
    /// 80 epochs per round (25 at smoke size).
    pub fn new(seed: u64, smoke: bool) -> Self {
        Scale {
            seed,
            epochs: if smoke { 25 } else { 80 },
        }
    }
}

impl Workload for Scale {
    fn samples_per_round(&self) -> usize {
        self.epochs as usize
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Round {
        let mut clock = Clock::start(SHARD_WORKERS);
        let platform = Platform::clustered_heterogeneous(CLUSTERS, CORES_PER_CLUSTER);
        let cores = platform.num_cores();
        let tasks = cores + cores / 2;
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        let mut gen = SyntheticGenerator::new(TASK_SET_SEED);
        let mut jitter = SyntheticGenerator::new(input_seed(self.seed, SALT));
        for k in 0..tasks {
            let task = gen.profile(format!("t{k}"), 4, u64::MAX / 64, k % 3 == 0);
            // Round-robin placement: every cluster starts loaded, and
            // `spawn`'s least-loaded scan (cores × tasks per spawn)
            // stays out of the set-up time.
            sys.spawn_on(jittered(&task, &mut jitter), CoreId(k % cores));
        }
        let config = SmartBalanceConfig {
            shard: Some(ShardConfig {
                workers: SHARD_WORKERS,
                ..ShardConfig::default()
            }),
            ..SmartBalanceConfig::default()
        };
        let balancer = Policy::Smart.build(&platform, Some(&config));
        clock.lap();
        run_sim(
            clock,
            &mut sys,
            balancer,
            self.epochs,
            1,
            spans.map(|s| (s, Some(Shadow::sense_only()))),
            &mut |sys, balancer, _| {
                sys.run_epoch(balancer);
            },
        )
    }
}
