//! # mcpat — activity-based power and energy model
//!
//! The McPAT substitute of the SmartBalance reproduction: per-core-type
//! power models calibrated so each Table 2 core's peak power is matched
//! exactly, and a first-order thermal model. The scheduler (`kernelsim`)
//! prices every slice with a core's model and keeps the energy account
//! the IPS/Watt evaluation metric is computed from.
//!
//! ## Quick start
//!
//! ```
//! use archsim::CoreConfig;
//! use mcpat::{CorePowerModel, PowerState};
//!
//! let small = CorePowerModel::calibrated(&CoreConfig::small());
//! let huge = CorePowerModel::calibrated(&CoreConfig::huge());
//!
//! // The Huge core pays ~90x the power of the Small core at peak —
//! // the asymmetry that makes energy-aware balancing worthwhile.
//! let ratio = huge.active_power_w(1.0) / small.active_power_w(1.0);
//! assert!(ratio > 80.0);
//!
//! // Sleeping cores are power-gated.
//! assert!(huge.power_w(PowerState::Sleeping) < 0.2);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::as_conversions))]

pub mod model;
pub mod thermal;

pub use model::{
    CorePowerModel, PowerState, IDLE_DYNAMIC_FLOOR, LEAKAGE_FRACTION, SLEEP_POWER_FRACTION,
};
pub use thermal::{ThermalModel, AMBIENT_C};
