//! Evaluation platform profiles (§6.1 of the paper) and the concrete
//! [`Topology`] the runtime places its workers on.
//!
//! The paper evaluates on three machines. We encode them as *profiles*
//! (worker count + NUMA topology for the scheduler's SPSC partitioning)
//! and scale the worker count down to whatever the host offers — the
//! documented substitution: the reproduction targets the *shape* of the
//! curves, not absolute hardware numbers.
//!
//! A [`Platform`] is a *description*; a [`Topology`] is the realized
//! worker→NUMA-node placement a [`crate::Runtime`] owns: every layer
//! that needs placement (the schedulers' per-node add buffers, the
//! replay engine's graph partitioner, benchmark harnesses) reads the one
//! map instead of re-deriving its own.

/// A machine profile: name, core count, NUMA-node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Platform {
    /// Display name used in benchmark output.
    pub name: &'static str,
    /// Worker threads the paper used on this machine.
    pub cores: usize,
    /// NUMA nodes (→ SPSC add-buffer partitioning, §3.1).
    pub numa_nodes: usize,
}

impl Platform {
    /// 2× Intel Xeon Platinum 8160 (Skylake), 48 cores, 2 sockets.
    pub const XEON: Platform = Platform {
        name: "intel-xeon-8160",
        cores: 48,
        numa_nodes: 2,
    };

    /// AWS Graviton2, 64 Neoverse N1 cores, single NUMA domain
    /// ("the lack of NUMA effects on this platform", §6.2).
    pub const GRAVITON2: Platform = Platform {
        name: "arm-graviton2",
        cores: 64,
        numa_nodes: 1,
    };

    /// 2× AMD EPYC 7H12 (Rome), 128 cores / 256 threads, 8 NUMA nodes.
    pub const ROME: Platform = Platform {
        name: "amd-rome-7h12",
        cores: 128,
        numa_nodes: 8,
    };

    /// All three paper platforms.
    pub const ALL: [Platform; 3] = [Platform::XEON, Platform::ROME, Platform::GRAVITON2];

    /// Scale the profile to at most `max_workers` workers, preserving the
    /// NUMA-node count (clamped to the worker count).
    pub fn scaled_to(&self, max_workers: usize) -> Platform {
        let cores = self.cores.min(max_workers).max(1);
        Platform {
            name: self.name,
            cores,
            numa_nodes: self.numa_nodes.min(cores),
        }
    }

    /// Host parallelism (hardware threads visible to this process).
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The profile scaled to the host, allowing a bounded amount of
    /// oversubscription (factor 4 by default is still responsive thanks
    /// to yielding spin loops).
    pub fn for_host(&self, oversubscribe: usize) -> Platform {
        self.scaled_to(Self::host_parallelism() * oversubscribe.max(1))
    }
}

/// The realized worker→NUMA-node placement of one runtime instance.
///
/// Workers are assigned to nodes in contiguous blocks (worker `w` of `W`
/// on node `w·N/W` of `N`), which is both what `numactl --cpunodebind`
/// style pinning produces and what the delegation scheduler's per-node
/// SPSC partitioning has always assumed. The map is stored explicitly so
/// future non-contiguous placements only have to change the
/// constructors, not the consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `node_of[w]` = NUMA node of worker `w`. Non-decreasing.
    node_of: Vec<usize>,
    /// Number of NUMA nodes (≥ 1, ≤ workers).
    nodes: usize,
}

impl Topology {
    /// Contiguous block placement of `workers` workers over `nodes` NUMA
    /// nodes (`nodes` is clamped to `1..=workers`).
    pub fn contiguous(workers: usize, nodes: usize) -> Self {
        let workers = workers.max(1);
        let nodes = nodes.clamp(1, workers);
        Self {
            node_of: (0..workers).map(|w| w * nodes / workers).collect(),
            nodes,
        }
    }

    /// Number of NUMA nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of workers placed.
    pub fn workers(&self) -> usize {
        self.node_of.len()
    }

    /// NUMA node of `worker` (out-of-range workers wrap, so helper
    /// threads beyond the placed set still get a valid node).
    pub fn node_of(&self, worker: usize) -> usize {
        self.node_of[worker % self.node_of.len()]
    }

    /// The workers placed on `node`, in id order.
    pub fn workers_of(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.node_of
            .iter()
            .enumerate()
            .filter(move |&(_, &n)| n == node)
            .map(|(w, _)| w)
    }

    /// The lowest-id worker on `node` (falls back to worker 0 for an
    /// empty or out-of-range node).
    pub fn first_worker_of(&self, node: usize) -> usize {
        self.workers_of(node).next().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper() {
        assert_eq!(Platform::XEON.cores, 48);
        assert_eq!(Platform::ROME.cores, 128);
        assert_eq!(Platform::ROME.numa_nodes, 8);
        assert_eq!(Platform::GRAVITON2.numa_nodes, 1);
    }

    #[test]
    fn scaling_clamps_cores_and_numa() {
        let p = Platform::ROME.scaled_to(4);
        assert_eq!(p.cores, 4);
        assert_eq!(p.numa_nodes, 4);
        let p1 = Platform::ROME.scaled_to(1);
        assert_eq!(p1.cores, 1);
        assert_eq!(p1.numa_nodes, 1);
    }

    #[test]
    fn host_parallelism_positive() {
        assert!(Platform::host_parallelism() >= 1);
        let p = Platform::XEON.for_host(2);
        assert!(p.cores >= 1 && p.cores <= 48);
    }

    #[test]
    fn topology_contiguous_blocks() {
        let t = Topology::contiguous(8, 2);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.workers(), 8);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(7), 1);
        assert_eq!(t.workers_of(0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(t.workers_of(1).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        assert_eq!(t.first_worker_of(1), 4);
    }

    #[test]
    fn topology_uneven_split_covers_every_worker() {
        // 7 workers over 3 nodes: every worker has a node, every node has
        // at least one worker, blocks are contiguous.
        let t = Topology::contiguous(7, 3);
        let mut per_node = vec![0usize; t.nodes()];
        let mut prev = 0;
        for w in 0..t.workers() {
            let n = t.node_of(w);
            assert!(n >= prev, "placement is non-decreasing");
            prev = n;
            per_node[n] += 1;
        }
        assert!(per_node.iter().all(|&c| c >= 1), "{per_node:?}");
        assert_eq!(per_node.iter().sum::<usize>(), 7);
    }

    #[test]
    fn topology_clamps_nodes_to_workers() {
        let t = Topology::contiguous(2, 8);
        assert_eq!(t.nodes(), 2);
        let t1 = Topology::contiguous(4, 0);
        assert_eq!(t1.nodes(), 1);
        assert_eq!(t1.node_of(3), 0);
    }

    #[test]
    fn topology_out_of_range_worker_wraps() {
        let t = Topology::contiguous(4, 2);
        assert_eq!(t.node_of(4), t.node_of(0));
    }
}
