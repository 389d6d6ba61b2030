//! Content-addressed campaign cells.
//!
//! A cell's identity is derived from what it *means* — the canonical
//! JSON of its spec, policy and seed — not from where it sits in the
//! grid. Reordering or extending a campaign
//! therefore never invalidates completed work: unchanged cells keep
//! their IDs and are skipped on resume.

use serde::{Deserialize, Serialize};
use smartbalance::{splitmix64, ExperimentSpec, Policy, SuiteJob};

/// One campaign cell: an experiment spec bound to a policy and a
/// deterministic seed, at a fixed grid index. A sharded cell asks for
/// sharding in its spec ([`ExperimentSpec::with_shard`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignJob {
    /// Position in the expanded grid; the seed's source and the
    /// report's ordering key.
    pub index: usize,
    /// The experiment to run.
    pub spec: ExperimentSpec,
    /// The balancing policy to run it under.
    pub policy: Policy,
    /// Deterministic seed (splitmix64 of the grid index by default) —
    /// part of the cell's identity, so retries replay the exact run.
    pub seed: u64,
}

impl CampaignJob {
    /// Creates a cell at `index` with the suite's standard
    /// index-derived seed.
    pub fn new(index: usize, spec: ExperimentSpec, policy: Policy) -> Self {
        CampaignJob {
            index,
            spec,
            policy,
            seed: splitmix64(index as u64),
        }
    }

    /// The cell's content-addressed identity: 16 hex digits, stable
    /// across grid reordering, process restarts and machines.
    pub fn id(&self) -> String {
        job_id(&self.spec, self.policy, self.seed)
    }

    /// Lowers the cell to the suite's execution unit. Campaign cells
    /// run without an observability capture: that is a
    /// per-investigation knob, and keeping it out of the cell keeps
    /// journal entries small and identities stable.
    pub fn to_suite_job(&self) -> SuiteJob {
        SuiteJob {
            spec: self.spec.clone(),
            policy: self.policy,
            seed: self.seed,
            observe: false,
        }
    }
}

/// Computes the content-addressed identity for a cell described by its
/// parts: FNV-1a 64 over the canonical JSON rendering, as 16 hex
/// digits. Serde derives emit fields in declaration order, so the
/// rendering — and therefore the hash — is deterministic.
pub fn job_id(spec: &ExperimentSpec, policy: Policy, seed: u64) -> String {
    let canonical = format!(
        "{{\"spec\":{},\"policy\":{},\"seed\":{seed}}}",
        canonical_json(spec),
        canonical_json(&policy),
    );
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// Compact JSON of plain in-memory data: the rendering cell ids hash
/// and journal lines store.
#[expect(
    clippy::expect_used,
    reason = "serializing in-memory plain-data structs cannot fail"
)]
pub(crate) fn canonical_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("plain data serializes")
}

/// FNV-1a, 64-bit: tiny, dependency-free and stable across platforms —
/// exactly what a content address needs (this is an identity, not a
/// defense against adversarial collisions).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{Platform, WorkloadCharacteristics};
    use smartbalance::ShardConfig;
    use workloads::WorkloadProfile;

    fn spec(name: &str) -> ExperimentSpec {
        ExperimentSpec::new(
            name,
            Platform::quad_heterogeneous(),
            vec![WorkloadProfile::uniform(
                "t0",
                WorkloadCharacteristics::balanced(),
                1_000_000,
            )],
        )
        .with_max_epochs(20)
    }

    #[test]
    fn identity_is_stable_and_content_driven() {
        let a = CampaignJob::new(0, spec("x"), Policy::Vanilla);
        let b = CampaignJob::new(0, spec("x"), Policy::Vanilla);
        assert_eq!(a.id(), b.id(), "same content, same id");
        assert_eq!(a.id().len(), 16);
        assert!(a.id().chars().all(|c| c.is_ascii_hexdigit()));

        let other_policy = CampaignJob::new(0, spec("x"), Policy::Smart);
        assert_ne!(a.id(), other_policy.id(), "policy is part of identity");
        let other_spec = CampaignJob::new(0, spec("y"), Policy::Vanilla);
        assert_ne!(a.id(), other_spec.id(), "spec is part of identity");
        let other_seed = CampaignJob::new(1, spec("x"), Policy::Vanilla);
        assert_ne!(a.id(), other_seed.id(), "seed is part of identity");
        let sharded = CampaignJob::new(
            0,
            spec("x").with_shard(ShardConfig::default()),
            Policy::Vanilla,
        );
        assert_ne!(a.id(), sharded.id(), "shard is part of identity");
    }

    #[test]
    fn identity_ignores_grid_position() {
        // Same content at a different index but with the seed pinned:
        // the id must not change, which is what lets a reordered or
        // extended grid keep its completed cells on resume.
        let a = CampaignJob::new(3, spec("x"), Policy::Vanilla);
        let mut moved = CampaignJob::new(9, spec("x"), Policy::Vanilla);
        moved.seed = a.seed;
        assert_eq!(a.id(), moved.id());
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
