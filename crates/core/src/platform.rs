//! Evaluation platform profiles (§6.1 of the paper).
//!
//! The paper evaluates on three machines. We encode them as *profiles*
//! (worker count + NUMA topology for the scheduler's SPSC partitioning)
//! and scale the worker count down to whatever the host offers — the
//! documented substitution: the reproduction targets the *shape* of the
//! curves, not absolute hardware numbers.

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
}
