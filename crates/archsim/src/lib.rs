//! # archsim — analytical heterogeneous-MPSoC architecture simulator
//!
//! This crate is the Gem5 substitute of the SmartBalance reproduction:
//! it models *aggressively heterogeneous* single-ISA cores (the Huge /
//! Big / Medium / Small types of paper Table 2, plus big.LITTLE-class
//! presets) and synthesizes the hardware-performance-counter values the
//! SmartBalance kernel samples.
//!
//! Rather than executing real instruction streams cycle-by-cycle, the
//! crate evaluates an analytical pipeline/cache/branch model over a
//! workload's intrinsic characteristics ([`WorkloadCharacteristics`]).
//! That preserves exactly what the load balancer observes — counter
//! values whose relationships across core types are learnable — at a
//! cost that permits full scheduling-epoch simulations in microseconds.
//!
//! ## Quick start
//!
//! ```
//! use archsim::{run_slice, CoreConfig, Platform, WorkloadCharacteristics};
//!
//! let platform = Platform::quad_heterogeneous();
//! let workload = WorkloadCharacteristics::compute_bound();
//!
//! // Run 1 ms of the workload on each core and compare throughput.
//! let mut last_ips = f64::INFINITY;
//! for core in platform.cores() {
//!     let slice = run_slice(&workload, platform.core_config(core), 1_000_000);
//!     assert!(slice.ips() < last_ips, "cores are ordered strongest-first");
//!     last_ips = slice.ips();
//! }
//! ```
//!
//! ## Modules
//!
//! - [`core_type`]: core-type / platform definitions (Table 2)
//! - [`counters`]: the ten hardware performance counters of Section 4.1
//! - [`workload`]: intrinsic workload characteristics
//! - [`cache`], [`branch`], [`pipeline`]: the analytical models
//! - [`execution`]: slice execution (the scheduler-facing API)
//! - [`faults`]: deterministic seeded sensor fault injection, applied by
//!   the scheduler to the epoch report it hands the balancer

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]

pub mod branch;
pub mod cache;
pub mod core_type;
pub mod counters;
pub mod execution;
pub mod faults;
pub mod memo;
pub mod pipeline;
pub mod workload;

pub use core_type::{CoreConfig, CoreId, CoreTypeId, Platform};
pub use counters::{count_to_f64, CounterSample};
pub use execution::{run_slice, synthesize, time_to_complete_ns_with};
pub use faults::{FaultClass, FaultHarness, FaultKind, FaultPlan};
pub use memo::{EstimateCache, EstimateKey, MemoStats};
pub use pipeline::estimate;
pub use workload::WorkloadCharacteristics;
