//! # workloads — benchmark profiles for the SmartBalance reproduction
//!
//! The PARSEC substitute: phase-structured synthetic workload profiles
//! matching the published characterisation of each PARSEC benchmark
//! (plus the paper's four x264 variants), the Table 3 benchmark mixes,
//! the Interactive Micro-Benchmarks (IMB) of Section 6, and a seeded
//! synthetic generator for predictor training and property tests.
//!
//! ## Quick start
//!
//! ```
//! use workloads::{parsec, ImbConfig, Level, MixId};
//!
//! // A PARSEC benchmark profile...
//! let bs = parsec::blackscholes();
//! assert!(bs.total_instructions() > 0);
//!
//! // ...a Table 3 mix...
//! assert_eq!(MixId(5).members().len(), 2);
//!
//! // ...and an interactive micro-benchmark.
//! let hthi = ImbConfig::new(Level::High, Level::High);
//! assert_eq!(hthi.name(), "HTHI");
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]

pub mod imb;
pub mod mixes;
pub mod parsec;
pub mod profile;
pub mod synthetic;

pub use imb::{ImbConfig, Level};
pub use mixes::MixId;
pub use profile::{Phase, PhaseCursor, SleepPattern, WorkloadProfile};
pub use synthetic::SyntheticGenerator;
