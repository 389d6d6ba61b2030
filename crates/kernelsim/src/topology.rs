//! Cluster topology: the grouping of cores into homogeneous
//! cluster/NUMA domains that the hierarchical (sharded) balancer
//! optimizes within, with a cheap global exchange across them.
//!
//! A cluster is a maximal **contiguous run of same-type cores** — the
//! shape of every real big.LITTLE/DynamIQ part and of the
//! [`archsim::Platform::clustered_heterogeneous`] scaling platforms.
//! The quad-heterogeneous evaluation platform degenerates to four
//! single-core clusters and the octa big.LITTLE to two four-core
//! clusters, so the model covers the paper's platforms unchanged.
//!
//! The topology is purely descriptive: it never changes how the
//! scheduler places or wakes threads (keeping the flat-balancer path
//! bit-identical), it only gives balancers and accounting a shared
//! notion of migration domains.

use archsim::{CoreId, Platform};

/// Identifier of a cluster (an index into the topology's domains).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId(pub usize);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster{}", self.0)
    }
}

/// The cluster decomposition of a platform's cores.
///
/// # Examples
///
/// ```
/// use archsim::Platform;
/// use kernelsim::Topology;
///
/// let topo = Topology::from_platform(&Platform::octa_big_little());
/// assert_eq!(topo.num_clusters(), 2, "big cluster + LITTLE cluster");
/// assert_eq!(topo.cores_of(kernelsim::ClusterId(0)).len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `cluster_of[j]` is the cluster of core `c_j`.
    cluster_of: Vec<ClusterId>,
    /// Per-cluster core lists, each ascending and contiguous.
    cores: Vec<Vec<CoreId>>,
}

impl Topology {
    /// A single flat domain containing all `n` cores (the degenerate
    /// topology every pre-cluster code path implicitly assumed).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn single(n: usize) -> Self {
        assert!(n > 0, "topology needs at least one core");
        Topology {
            cluster_of: vec![ClusterId(0); n],
            cores: vec![(0..n).map(CoreId).collect()],
        }
    }

    /// Derives the topology from a platform by grouping maximal
    /// contiguous runs of same-type cores into clusters.
    pub fn from_platform(platform: &Platform) -> Self {
        let n = platform.num_cores();
        let mut cluster_of = Vec::with_capacity(n);
        let mut cores: Vec<Vec<CoreId>> = Vec::new();
        for c in platform.cores() {
            let start_new = match cores.last() {
                None => true,
                Some(run) => {
                    // `run` is non-empty by construction.
                    let prev = run[run.len() - 1];
                    platform.core_type(prev) != platform.core_type(c)
                }
            };
            if start_new {
                cores.push(Vec::new());
            }
            let cluster = ClusterId(cores.len() - 1);
            cluster_of.push(cluster);
            if let Some(run) = cores.last_mut() {
                run.push(c);
            }
        }
        Topology { cluster_of, cores }
    }

    /// Number of cores covered by the topology.
    pub fn num_cores(&self) -> usize {
        self.cluster_of.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.cores.len()
    }

    /// The cluster containing `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cluster_of(&self, core: CoreId) -> ClusterId {
        self.cluster_of[core.0]
    }

    /// The cores of `cluster`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cores_of(&self, cluster: ClusterId) -> &[CoreId] {
        &self.cores[cluster.0]
    }

    /// Iterator over all cluster ids.
    pub fn clusters(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.cores.len()).map(ClusterId)
    }

    /// Whether two cores share a cluster (wake/migration domain).
    ///
    /// # Panics
    ///
    /// Panics if either core is out of range.
    pub fn same_domain(&self, a: CoreId, b: CoreId) -> bool {
        self.cluster_of[a.0] == self.cluster_of[b.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_domain_covers_everything() {
        let t = Topology::single(5);
        assert_eq!(t.num_cores(), 5);
        assert_eq!(t.num_clusters(), 1);
        assert_eq!(t.cores_of(ClusterId(0)).len(), 5);
        assert!(t.same_domain(CoreId(0), CoreId(4)));
    }

    #[test]
    fn quad_heterogeneous_is_four_singletons() {
        let t = Topology::from_platform(&Platform::quad_heterogeneous());
        assert_eq!(t.num_clusters(), 4);
        for j in 0..4 {
            assert_eq!(t.cluster_of(CoreId(j)), ClusterId(j));
            assert_eq!(t.cores_of(ClusterId(j)), &[CoreId(j)]);
        }
    }

    #[test]
    fn octa_big_little_is_two_quads() {
        let t = Topology::from_platform(&Platform::octa_big_little());
        assert_eq!(t.num_clusters(), 2);
        assert_eq!(
            t.cores_of(ClusterId(0)),
            &[CoreId(0), CoreId(1), CoreId(2), CoreId(3)]
        );
        assert_eq!(
            t.cores_of(ClusterId(1)),
            &[CoreId(4), CoreId(5), CoreId(6), CoreId(7)]
        );
        assert!(t.same_domain(CoreId(4), CoreId(7)));
        assert!(!t.same_domain(CoreId(3), CoreId(4)));
    }

    #[test]
    fn clustered_platform_round_trips() {
        let p = Platform::clustered_heterogeneous(16, 16);
        let t = Topology::from_platform(&p);
        assert_eq!(t.num_cores(), 256);
        assert_eq!(t.num_clusters(), 16);
        for cl in t.clusters() {
            let cores = t.cores_of(cl);
            assert_eq!(cores.len(), 16);
            // Contiguous and homogeneous.
            for w in cores.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1);
                assert_eq!(p.core_type(w[0]), p.core_type(w[1]));
            }
        }
    }

    #[test]
    fn cluster_map_is_consistent_with_core_lists() {
        let p = Platform::clustered_heterogeneous(8, 32);
        let t = Topology::from_platform(&p);
        for cl in t.clusters() {
            for &c in t.cores_of(cl) {
                assert_eq!(t.cluster_of(c), cl);
            }
        }
        let covered: usize = t.clusters().map(|cl| t.cores_of(cl).len()).sum();
        assert_eq!(covered, t.num_cores());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_single_rejected() {
        Topology::single(0);
    }
}
