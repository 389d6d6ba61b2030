//! Load-balancing policies: SmartBalance (one policy, which anneals
//! over all cores or per cluster; `sharded` holds its cluster back
//! half) plus the two baselines the paper evaluates against (vanilla
//! Linux in Fig. 4, ARM GTS in Fig. 5).

pub mod gts;
pub mod iks;
mod sharded;
pub mod smart;
pub mod vanilla;

pub use gts::GtsBalancer;
pub use iks::IksBalancer;
pub use smart::SmartBalance;
pub use vanilla::VanillaBalancer;
