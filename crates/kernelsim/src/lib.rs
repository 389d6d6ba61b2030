//! # kernelsim — Linux scheduling substrate
//!
//! The modified-kernel substitute of the SmartBalance reproduction: a
//! deterministic discrete-event simulator of the Linux scheduling
//! subsystem with per-core CFS run queues (vruntime, load weights,
//! proportional timeslices), sleep/wake interactivity, context-switch
//! granular counter sampling, pluggable epoch-boundary load balancers
//! (the `rebalance_domains()` hook of paper Section 5.1) and explicit
//! thread migration with a cold-cache cost (`set_cpus_allowed_ptr()`).
//!
//! A system is observed through one attach point,
//! [`System::set_telemetry`]: the hub gets the epoch spans and the
//! allocation outcomes, and — at the level its
//! [`telemetry::Telemetry::set_trace`] selects — the scheduler events
//! ([`telemetry::TraceEvent`]), so scheduler and controller share one
//! timeline.
//!
//! ## Quick start
//!
//! ```
//! use archsim::{Platform, WorkloadCharacteristics};
//! use kernelsim::{NullBalancer, System, SystemConfig};
//! use workloads::WorkloadProfile;
//!
//! let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
//! for _ in 0..4 {
//!     sys.spawn(WorkloadProfile::uniform(
//!         "worker",
//!         WorkloadCharacteristics::balanced(),
//!         50_000_000,
//!     ));
//! }
//! let mut policy = NullBalancer; // plug SmartBalance/GTS/vanilla here
//! sys.run_to_completion(&mut policy, 1_000);
//! let stats = sys.stats();
//! assert_eq!(stats.completed_tasks, 4);
//! println!("efficiency: {:.3e} instr/J", stats.instructions_per_joule());
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]

pub mod balancer;
pub mod cfs;
pub mod pool;
pub mod stats;
pub mod system;
pub mod task;
pub mod topology;

pub use balancer::{
    Allocation, CoreEpochStats, EpochReport, LoadBalancer, MigrationReject, NullBalancer,
    TaskEpochStats,
};
pub use pool::{parallel_indexed, parallel_map};
pub use stats::SystemStats;
pub use system::{System, SystemConfig};
pub use task::{affinity_allows, Task, TaskId};
pub use telemetry::TelemetryHandle;
pub use topology::{ClusterId, Topology};
