//! Content-addressed campaign cells.
//!
//! A cell's identity is derived from what it *means* — the canonical
//! JSON of its spec, policy and seed — not from where it sits in the
//! grid. Reordering or extending a campaign
//! therefore never invalidates completed work: unchanged cells keep
//! their IDs and are skipped on resume.
//!
//! The id is FNV-1a 64 over `{"spec":…,"policy":…,"seed":…}`, so the
//! hash state after `{"spec":…,"policy":` depends on the spec alone.
//! [`Campaign::run`](crate::Campaign::run) names its cells in one pass
//! that walks the grid in order and carries that state from one cell
//! to the next while the spec's value tree renders identically: same
//! shape, keys, strings and integers, and floats equal bit for bit.
//! `==` on the spec is not enough, because `0.0 == -0.0` while the two
//! render as `0` and `-0`. The two cells of a vanilla and SmartBalance
//! pair share one spec, so each such pair renders it once.

use serde::{Serialize, Value};
use smartbalance::{parallel_map, splitmix64, ExperimentSpec, Policy, SuiteJob};

/// One campaign cell: an experiment spec bound to a policy and a
/// deterministic seed, at a fixed grid index. A sharded cell asks for
/// sharding in its spec ([`ExperimentSpec::with_shard`]).
#[derive(Debug, Clone)]
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
    finish_id(spec_prefix(&spec.serialize_value()), policy, seed)
}

/// Cells per block of [`grid_ids`]: blocks are small enough that the
/// workers share out specs of uneven size (a Table 3 mix renders to
/// several times the JSON of an IMB configuration), and even, so a
/// vanilla and SmartBalance pair at an even index never straddles two
/// blocks.
const ID_BLOCK: usize = 8;

/// The ids of `jobs` in grid order, each equal to [`CampaignJob::id`].
/// The workers claim blocks of [`ID_BLOCK`] cells in grid order. Each
/// walks its block in order, builds each cell's spec tree once and
/// renders and hashes it only when it differs from the previous cell's
/// tree ([`renders_identically`]), so a worker holds at most that one
/// previous tree.
pub(crate) fn grid_ids(jobs: &[CampaignJob], workers: usize) -> Vec<String> {
    let blocks: Vec<&[CampaignJob]> = jobs.chunks(ID_BLOCK).collect();
    parallel_map(blocks, workers, |_, block| {
        let mut previous: Option<(Value, u64)> = None;
        let mut ids = Vec::with_capacity(block.len());
        for job in block {
            let tree = job.spec.serialize_value();
            let prefix = match &previous {
                Some((last, prefix)) if renders_identically(last, &tree) => *prefix,
                _ => spec_prefix(&tree),
            };
            ids.push(finish_id(prefix, job.policy, job.seed));
            previous = Some((tree, prefix));
        }
        ids
    })
    .concat()
}

/// Whether `a` and `b` render to the same JSON bytes: the same shape,
/// keys, strings and integers, and floats equal bit for bit. Any other
/// pair of trees may still render alike (`Int(1)` and `UInt(1)`, two
/// NaNs); they only cost a fresh rendering.
fn renders_identically(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| renders_identically(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && renders_identically(x, y))
        }
        // Scalars without floats inside compare exactly.
        _ => a == b,
    }
}

/// The FNV-1a state after `{"spec":<spec>,"policy":`, where `spec` is
/// the spec's value tree.
fn spec_prefix(spec: &Value) -> u64 {
    let state = fnv1a64(FNV_OFFSET, br#"{"spec":"#);
    let state = fnv1a64(state, canonical_json(spec).as_bytes());
    fnv1a64(state, br#","policy":"#)
}

/// Completes an id from its spec prefix state: hashes
/// `<policy>,"seed":<seed>}` and renders the hash as 16 hex digits.
fn finish_id(prefix: u64, policy: Policy, seed: u64) -> String {
    let tail = format!(r#"{},"seed":{seed}}}"#, canonical_json(&policy));
    format!("{:016x}", fnv1a64(prefix, tail.as_bytes()))
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

/// FNV-1a 64's initial state, the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit, continued from `state` over `bytes`: tiny,
/// dependency-free and stable across platforms — exactly what a
/// content address needs (this is an identity, not a defense against
/// adversarial collisions).
fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a64(fnv1a64(FNV_OFFSET, b"fo"), b"o"),
            fnv1a64(FNV_OFFSET, b"foo")
        );
    }

    #[test]
    fn grid_ids_equal_each_cells_own_id_on_any_worker_count() {
        let zero = |activity: f64| {
            spec("z").with_sys_config(kernelsim::SystemConfig {
                migration_activity: activity,
                ..kernelsim::SystemConfig::default()
            })
        };
        let cells = [
            (spec("x"), Policy::Vanilla),
            (spec("x"), Policy::Smart),
            (spec("y"), Policy::Vanilla),
            (spec("x"), Policy::Smart),
            (spec("x").with_shard(ShardConfig::default()), Policy::Smart),
            (spec("x"), Policy::Smart),
            (zero(0.0), Policy::Vanilla),
            (zero(-0.0), Policy::Vanilla),
            (zero(0.0), Policy::Vanilla),
        ];
        // One spec over cells 9..18, across the block boundary at 16.
        let run = (0..9).map(|k| (spec("w"), [Policy::Vanilla, Policy::Smart][k % 2]));
        let mut jobs: Vec<CampaignJob> = cells
            .into_iter()
            .chain(run)
            .enumerate()
            .map(|(i, (spec, policy))| CampaignJob::new(i, spec, policy))
            .collect();
        for job in &mut jobs[6..9] {
            job.seed = 7;
        }
        let own: Vec<String> = jobs.iter().map(CampaignJob::id).collect();
        assert_ne!(own[6], own[7], "-0.0 renders apart from 0.0");
        assert_eq!(own[6], own[8]);
        for workers in 1..=10 {
            assert_eq!(grid_ids(&jobs, workers), own, "{workers} workers");
        }
        assert!(grid_ids(&[], 2).is_empty());
    }

    #[test]
    fn identical_renderings_need_equal_float_bits() {
        let tree = |x: f64| Value::Map(vec![("a".into(), Value::Array(vec![Value::Float(x)]))]);
        assert!(renders_identically(&tree(0.5), &tree(0.5)));
        assert!(!renders_identically(&tree(0.0), &tree(-0.0)));
        assert!(!renders_identically(&tree(f64::NAN), &tree(-f64::NAN)));
        let keyed = |k: &str| Value::Map(vec![(k.to_owned(), Value::Null)]);
        assert!(!renders_identically(&keyed("a"), &keyed("b")));
        assert!(!renders_identically(
            &Value::Array(vec![]),
            &Value::Map(vec![])
        ));
        assert!(!renders_identically(&Value::Int(1), &Value::Int(2)));
        assert!(renders_identically(
            &Value::Str("s".into()),
            &Value::Str("s".into())
        ));
    }
}
