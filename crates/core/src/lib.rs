//! # smartbalance — sensing-driven load balancing for heterogeneous MPSoCs
//!
//! A from-scratch reproduction of **SmartBalance** (Sarma, Muck,
//! Bathen, Dutt, Nicolau — DAC 2015): a closed-loop
//! **sense → predict → balance** load balancer for aggressively
//! heterogeneous multi-processor systems-on-chip, replacing the
//! heterogeneity-blind vanilla Linux balancer.
//!
//! Every epoch (tens of milliseconds, spanning many CFS scheduling
//! periods) the policy:
//!
//! 1. **senses** per-thread hardware counters and per-core power
//!    ([`sense`]),
//! 2. **estimates** each thread's throughput/power on its current core
//!    and **predicts** both on every other core type via per-type-pair
//!    linear regression ([`predict`], [`estimate`]) — filling the
//!    `S(k)`/`P(k)` characterization matrices ([`matrices`]),
//! 3. **balances** by searching the thread-to-core allocation space
//!    with a lightweight online simulated annealer using fixed-point
//!    probability arithmetic ([`anneal`](mod@anneal), [`fixed`]), maximizing total
//!    energy efficiency `Σ_j IPS_j / P_j` ([`objective`]),
//!
//! then migrates threads accordingly ([`balance::SmartBalance`]
//! implements the kernel simulator's [`kernelsim::LoadBalancer`] hook).
//! On large clustered platforms the same policy balances per cluster
//! plus a cross-cluster exchange instead of annealing over all cores
//! at once ([`SmartBalanceConfig::shard`], [`shard`]).
//!
//! The crate also ships the paper's two comparison baselines — the
//! vanilla Linux balancer ([`balance::VanillaBalancer`]) and ARM's
//! Global Task Scheduling ([`balance::GtsBalancer`]) — plus ground-truth
//! optimal allocators for evaluating solution quality ([`optimal`]),
//! a single-experiment [`runner`] and a parallel experiment-[`suite`]
//! engine that fans `(spec, policy)` jobs out over a worker pool with
//! deterministic per-job seeds.
//!
//! ## Quick start
//!
//! Build an [`ExperimentSpec`] with the fluent builders
//! ([`with_max_epochs`](ExperimentSpec::with_max_epochs),
//! [`with_sys_config`](ExperimentSpec::with_sys_config),
//! [`with_policy_config`](ExperimentSpec::with_policy_config)), queue
//! it on an [`ExperimentSuite`] under each policy of interest, and
//! read baseline-relative gains off the [`SuiteReport`]:
//!
//! ```
//! use archsim::Platform;
//! use smartbalance::{ExperimentSpec, ExperimentSuite, Policy};
//! use workloads::parsec;
//!
//! // Paper Fig. 4(b)-style measurement, one benchmark, 2 threads:
//! let spec = ExperimentSpec::new(
//!     "quickstart",
//!     Platform::quad_heterogeneous(),
//!     ExperimentSpec::parallelize(&parsec::blackscholes().scaled(0.02), 2),
//! )
//! .with_max_epochs(2_000);
//!
//! let mut suite = ExperimentSuite::new();
//! for policy in [Policy::Vanilla, Policy::Smart] {
//!     suite.push(spec.clone(), policy);
//! }
//! let report = suite.run(); // both jobs run in parallel
//! let gain = report.gains_vs(Policy::Vanilla)[0].gain;
//! println!("SmartBalance/vanilla energy efficiency: {gain:.2}x");
//! ```
//!
//! Results are bit-identical however many workers run them: every job
//! gets a seed derived from its queue index (`tests/suite.rs` pins
//! this down).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]

pub mod anneal;
pub mod balance;
pub mod config;
pub mod degrade;
pub mod estimate;
pub mod fixed;
pub mod matrices;
pub mod objective;
pub mod optimal;
pub mod predict;
pub mod runner;
pub mod sense;
pub mod shard;
pub mod suite;

pub use anneal::{anneal, AnnealOutcome, AnnealParams};
pub use balance::{GtsBalancer, SmartBalance, VanillaBalancer};
pub use config::{SmartBalanceConfig, ThermalConfig};
pub use degrade::{DegradeConfig, DegradeMode};
pub use estimate::build_matrices;
pub use kernelsim::{parallel_indexed, parallel_map};
pub use matrices::CharacterizationMatrices;
pub use objective::{Goal, Objective};
pub use optimal::{exhaustive_best, known_optimum_case};
pub use predict::PredictorSet;
pub use runner::{compare_policies, run_experiment_with, ExperimentSpec, Policy, PredictorCache};
pub use sense::Sensor;
pub use shard::ShardConfig;
pub use suite::{
    default_workers, panic_message, splitmix64, ExperimentSuite, JobResult, SuiteJob,
    SuiteProgress, SuiteReport,
};
pub use telemetry::ObsSummary;
