//! The cluster-sharding knob of [`crate::SmartBalance`].
//!
//! With [`crate::SmartBalanceConfig::shard`] set, SmartBalance splits
//! Algorithm 1 across the platform's cluster topology: one annealer per
//! cluster over that cluster's threads and cores (each an `m_c × n_c`
//! problem instead of the flat `m × n`), followed by a global
//! *exchange* stage that moves a few candidate threads between
//! clusters. Both read the epoch's one set of characterization
//! matrices, one entry per thread and core type, and its one objective:
//! each cluster copies its threads' rows, and the exchange evaluates
//! every candidate move as an O(1) two-core patch of one
//! [`crate::objective::IncrementalObjective`] over the global matrices,
//! with the move's from-core half computed once per thread and its
//! to-core half per candidate destination.

use serde::{Deserialize, Serialize};

/// Configuration of SmartBalance's sharded back half: worker pool for
/// the per-cluster anneal fan-out and the global-exchange budget.
///
/// Setting [`crate::SmartBalanceConfig::shard`] to `Some(..)` is what
/// shards the balance step; `None` keeps one anneal over all cores,
/// bit-identical to every previous release.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Worker threads for the per-cluster anneal fan-out; `0` sizes
    /// the pool to the machine's available parallelism. Results never
    /// depend on it (per-cluster splitmix64 seeds, index-ordered
    /// collection — the `ExperimentSuite` discipline).
    pub workers: usize,
    /// Candidate threads *per cluster* the global exchange stage
    /// considers per round (the highest-gain moves first).
    pub exchange_top_k: usize,
    /// Maximum exchange rounds per epoch; the stage stops early the
    /// first round that commits no move. Each round scores every
    /// movable thread against every foreign cluster, so per-epoch
    /// exchange work is bounded at `rounds × m × (C − 1)` O(1) delta
    /// evaluations for `m` threads and `C` clusters (plus one from-core
    /// half per thread per round), with the commit pass over at most
    /// `top_k × C` candidates per round on top.
    pub exchange_rounds: usize,
    /// Minimum objective gain (in goal units, e.g. GIPS/W) a
    /// cross-cluster move must deliver to commit.
    pub min_gain: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 0,
            exchange_top_k: 4,
            exchange_rounds: 8,
            min_gain: 1.0e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shard_config_is_sane() {
        let c = ShardConfig::default();
        assert_eq!(c.workers, 0, "auto-sized pool");
        assert!(c.exchange_top_k > 0);
        assert!(c.min_gain >= 0.0);
    }
}
