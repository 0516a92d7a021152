//! What charges memory: the [`MemoryBus`] trait, a fixed-cost bus for tests
//! that need one, and the hierarchy's counters.
//!
//! The jam VM and the message runtime charge every byte they touch through a
//! [`MemoryBus`]. The runtime's bus is the sharded hierarchy's per-core
//! [`crate::sharded::CoreBus`]: it owns that core's private L1/L2 and
//! prefetcher outright (zero locks on a private hit) and escalates misses to the
//! [`crate::sharded::SharedHierarchy`]'s lock-striped L3/LLC/DRAM levels, which
//! also take the NIC's deliveries (stashed into the LLC, or written to DRAM, per
//! the paper's firmware knob). [`FlatMemory`] charges a constant per access, for
//! tests whose assertions are not about timing. [`HierarchyStats`] is the
//! one picture of hits, misses, stashes and prefetches that the shared levels
//! and every core's private counters fold into.

use crate::cache::AccessKind;
use crate::clock::SimTime;

/// Anything that can charge memory accesses. The jam VM and the message runtime are
/// written against this trait so they can run over the real hierarchy, or over
/// [`FlatMemory`] (a fixed-cost stub) in unit tests that do not care about timing.
pub trait MemoryBus {
    /// Charge an access of `len` bytes at `addr` performed by `core` and return its cost.
    fn access(&mut self, core: usize, addr: u64, len: usize, kind: AccessKind) -> SimTime;
}

/// A trivial [`MemoryBus`] with a constant per-access cost. Useful in unit tests of
/// components that need *a* bus but whose assertions are not about timing.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    /// Cost charged per access regardless of size.
    pub per_access: SimTime,
    /// Number of accesses observed.
    pub accesses: u64,
}

impl FlatMemory {
    /// A flat memory with zero cost per access.
    pub fn free() -> Self {
        FlatMemory {
            per_access: SimTime::ZERO,
            accesses: 0,
        }
    }
}

impl MemoryBus for FlatMemory {
    fn access(&mut self, _core: usize, _addr: u64, _len: usize, _kind: AccessKind) -> SimTime {
        self.accesses += 1;
        self.per_access
    }
}

/// Aggregated statistics across the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Demand accesses that hit in a private L1.
    pub l1_hits: u64,
    /// Demand accesses that hit in a private L2.
    pub l2_hits: u64,
    /// Demand accesses that hit in a cluster L3.
    pub l3_hits: u64,
    /// Demand accesses that hit in the shared LLC.
    pub llc_hits: u64,
    /// Demand accesses that had to go to DRAM.
    pub dram_accesses: u64,
    /// Lines installed through the stash port by the DMA engine.
    pub stashed_lines: u64,
    /// Lines written by DMA directly to DRAM (stashing disabled path).
    pub dma_dram_lines: u64,
    /// Prefetches issued.
    pub prefetches_issued: u64,
    /// Demand accesses that were satisfied by a previously prefetched line.
    pub prefetch_hits: u64,
    /// Dirty write-backs charged.
    pub writebacks: u64,
}

impl HierarchyStats {
    /// Fold one core's private-cache counters into this (shared-level) view —
    /// how the sharded hierarchy's per-core [`crate::sharded::CoreCacheStats`]
    /// merge into one global picture of the memory system.
    pub fn absorb_core(&mut self, core: &crate::sharded::CoreCacheStats) {
        self.l1_hits += core.l1_hits;
        self.l2_hits += core.l2_hits;
        self.writebacks += core.writebacks;
        self.prefetches_issued += core.prefetches_issued;
        self.prefetch_hits += core.prefetch_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_memory_counts_accesses() {
        let mut f = FlatMemory::free();
        f.access(0, 0, 64, AccessKind::Read);
        f.access(0, 64, 64, AccessKind::Write);
        assert_eq!(f.accesses, 2);
    }
}
