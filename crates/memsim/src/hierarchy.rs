//! The full cache hierarchy: per-core L1/L2, per-cluster L3, shared LLC, DRAM.
//!
//! [`CacheHierarchy`] here is the *monolithic, single-threaded* reference model: one
//! object, `&mut self` everywhere, no interior locking. The simulated NIC's DMA
//! engine calls [`CacheHierarchy::dma_write`] when a message lands (stashing into the
//! LLC or pushing to DRAM depending on configuration), and the receiving core's
//! message handler and the jam VM charge every byte they touch through
//! [`CacheHierarchy::access`]. The hierarchy consults the per-core stride prefetcher
//! on demand misses so that long sequential footprints (large payloads) progressively
//! hide DRAM latency, which is what narrows the stash/non-stash gap in Figs. 9–10.
//!
//! # The per-core / shared split (multi-shard draining)
//!
//! The runtime's hot path no longer funnels through this type behind one global
//! lock: the fabric hands each receiver shard a [`crate::sharded::CoreBus`], which
//! owns that core's **private L1/L2 and prefetcher outright** (zero locks on a
//! private hit) and escalates misses to the [`crate::sharded::SharedHierarchy`]'s
//! lock-striped L3/LLC/DRAM levels. The two models charge identical costs for
//! identical access streams — `sharded::tests` pins that equivalence — so the
//! monolithic form stays as the easy-to-reason-about reference and as the
//! convenient `&mut`-style bus for unit tests.
//!
//! **Invalidation contract:** inbound DMA makes the LLC (stash path) or DRAM
//! (non-stash path) copy authoritative, so any private L1/L2 copy of a delivered
//! line is stale. The monolithic model invalidates private levels inline in
//! [`CacheHierarchy::dma_write`]; the sharded model posts those of the same lines that
//! a level above its LLC can still hold (it keeps one held-above flag per LLC way to
//! know), as runs, to each core's invalidation inbox, drained at the start of that
//! core's next access — before the core can observe a stale line.

use std::collections::HashSet;

use crate::cache::{AccessKind, CacheStats, SetAssocCache};
use crate::clock::SimTime;
use crate::config::TestbedConfig;
use crate::latency::DramModel;
use crate::prefetch::StridePrefetcher;
use crate::stress::MemoryStressor;

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
    /// merge into the same global picture the monolithic model reports.
    pub fn absorb_core(&mut self, core: &crate::sharded::CoreCacheStats) {
        self.l1_hits += core.l1_hits;
        self.l2_hits += core.l2_hits;
        self.writebacks += core.writebacks;
        self.prefetches_issued += core.prefetches_issued;
        self.prefetch_hits += core.prefetch_hits;
    }
}

/// The simulated cache hierarchy for one host.
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: TestbedConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: Vec<SetAssocCache>,
    llc: SetAssocCache,
    prefetchers: Vec<StridePrefetcher>,
    dram: DramModel,
    stressor: Option<MemoryStressor>,
    /// LLC-resident lines that were brought in by a prefetch and have not yet been
    /// demanded; used for prefetch-usefulness accounting.
    prefetched: HashSet<u64>,
    stats: HierarchyStats,
    line_size: usize,
}

impl CacheHierarchy {
    /// Build an empty (cold) hierarchy for the given machine description.
    pub fn new(cfg: TestbedConfig) -> Self {
        let l1 = (0..cfg.caches.num_cores)
            .map(|_| SetAssocCache::new(cfg.caches.l1))
            .collect();
        let l2 = (0..cfg.caches.num_cores)
            .map(|_| SetAssocCache::new(cfg.caches.l2))
            .collect();
        let l3 = (0..cfg.num_clusters())
            .map(|_| SetAssocCache::new(cfg.caches.l3))
            .collect();
        let llc = SetAssocCache::new(cfg.caches.llc);
        let prefetchers = (0..cfg.caches.num_cores)
            .map(|_| StridePrefetcher::new(cfg.prefetch))
            .collect();
        let dram = DramModel::new(cfg.latency.dram, cfg.dram);
        let line_size = cfg.caches.llc.line_size;
        CacheHierarchy {
            cfg,
            l1,
            l2,
            l3,
            llc,
            prefetchers,
            dram,
            stressor: None,
            prefetched: HashSet::new(),
            stats: HierarchyStats::default(),
            line_size,
        }
    }

    /// The machine description this hierarchy models.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// Whether inbound DMA is stashed into the LLC.
    pub fn stashing_enabled(&self) -> bool {
        self.cfg.llc_stashing
    }

    /// Toggle LLC stashing (the paper's firmware knob).
    pub fn set_stashing(&mut self, enabled: bool) {
        self.cfg.llc_stashing = enabled;
    }

    /// Toggle the hardware prefetcher (the paper's kernel knob).
    pub fn set_prefetching(&mut self, enabled: bool) {
        self.cfg.prefetch.enabled = enabled;
        for p in &mut self.prefetchers {
            *p = StridePrefetcher::new(self.cfg.prefetch);
        }
    }

    /// Attach (or detach, with `None`) a memory stressor. The stressor both consumes
    /// DRAM bandwidth and injects heavy-tailed queueing delays.
    pub fn set_stressor(&mut self, stressor: Option<MemoryStressor>) {
        let util = stressor
            .as_ref()
            .map(|s| s.bandwidth_share())
            .unwrap_or(0.0);
        self.dram.set_background_utilization(util);
        self.stressor = stressor;
    }

    /// Whether a stressor is currently attached.
    pub fn stressed(&self) -> bool {
        self.stressor.is_some()
    }

    /// Per-message software-visible jitter from the loaded system (scheduler noise);
    /// zero when no stressor is attached.
    pub fn scheduler_jitter(&mut self) -> SimTime {
        match &mut self.stressor {
            Some(s) => s.scheduler_jitter(),
            None => SimTime::ZERO,
        }
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Reset statistics (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        for c in &mut self.l3 {
            c.reset_stats();
        }
        self.llc.reset_stats();
    }

    /// Drop all cached lines (cold caches) as well as statistics.
    pub fn clear(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        for c in &mut self.l3 {
            c.clear();
        }
        self.llc.clear();
        for p in &mut self.prefetchers {
            p.reset();
        }
        self.prefetched.clear();
        self.stats = HierarchyStats::default();
    }

    /// LLC statistics (used by tests to check stash behaviour).
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    #[inline]
    fn lines_covering(&self, addr: u64, len: usize) -> (u64, u64) {
        let first = addr / self.line_size as u64;
        // A range that wraps the address space (a jam computes addresses
        // freely) is charged up to the top line, never around to line 0.
        let last = addr.saturating_add(len.max(1) as u64 - 1) / self.line_size as u64;
        (first, last)
    }

    /// Charge a single-line demand access from `core`.
    fn access_line(&mut self, core: usize, line: u64, kind: AccessKind) -> SimTime {
        let cluster = self.cfg.cluster_of(core);
        let byte_addr = line * self.line_size as u64;
        let lat = self.cfg.latency;

        // L1
        let l1 = &mut self.l1[core];
        let out1 = l1.access_line(line, kind);
        if out1.hit {
            self.stats.l1_hits += 1;
            return lat.l1_hit;
        }
        let mut cost = lat.l1_hit; // the L1 lookup that missed still costs its access time
        if out1.dirty_victim.is_some() {
            cost += lat.writeback;
            self.stats.writebacks += 1;
        }

        // L2
        let l2 = &mut self.l2[core];
        let out = l2.access_line(line, kind);
        if out.hit {
            self.stats.l2_hits += 1;
            return cost + lat.l2_hit;
        }
        cost += lat.l2_hit;
        if out.dirty_victim.is_some() {
            cost += lat.writeback;
            self.stats.writebacks += 1;
        }

        // L3
        let l3 = &mut self.l3[cluster];
        let out3 = l3.access_line(line, kind);
        if out3.hit {
            self.stats.l3_hits += 1;
            return cost + lat.l3_hit;
        }
        cost += lat.l3_hit;
        if out3.dirty_victim.is_some() {
            cost += lat.writeback;
            self.stats.writebacks += 1;
        }

        // LLC
        let outl = self.llc.access_line(line, kind);
        if outl.hit {
            self.stats.llc_hits += 1;
            if self.prefetched.remove(&line) {
                self.stats.prefetch_hits += 1;
                self.prefetchers[core].record_useful();
                // Keep the stream trained: real prefetchers observe the demand
                // stream, so hitting a prefetched line extends the lookahead instead
                // of letting the stream go cold after `degree` lines.
                let issued = self.prefetchers[core].observe_miss(line);
                if !issued.is_empty() {
                    self.stats.prefetches_issued += issued.len() as u64;
                    for pline in issued {
                        if self.llc.stash_line(pline).is_some() {
                            self.stats.writebacks += 1;
                        }
                        self.prefetched.insert(pline);
                    }
                }
            }
            return cost + lat.llc_hit;
        }
        cost += lat.llc_hit;
        if let Some(victim) = outl.dirty_victim {
            cost += self.dram.writeback();
            self.stats.writebacks += 1;
            self.prefetched.remove(&victim);
        }

        // DRAM + prefetcher training.
        self.stats.dram_accesses += 1;
        cost += self.dram.line_access(self.stressor.as_mut());
        let issued = self.prefetchers[core].observe_miss(line);
        if !issued.is_empty() {
            self.stats.prefetches_issued += issued.len() as u64;
            for pline in issued {
                // Prefetches land in the LLC in the background; the demand path does
                // not pay for them, but evicted dirty victims still generate traffic.
                if let Some(_victim) = self.llc.stash_line(pline) {
                    self.stats.writebacks += 1;
                }
                self.prefetched.insert(pline);
            }
        }
        let _ = byte_addr;
        cost
    }

    /// Write `len` bytes arriving from the NIC DMA engine at `addr`.
    ///
    /// With stashing enabled the lines are installed directly into the LLC (the
    /// paper's ConnectX-6 + PCIe root complex path); otherwise they are written to
    /// DRAM and any stale cached copies are invalidated, so the receiver's first
    /// touch will miss all the way to memory. The returned time is the DMA engine's
    /// own cost, which overlaps with (and is charged to) the NIC timeline, not the
    /// receiving core.
    pub fn dma_write(&mut self, addr: u64, len: usize) -> SimTime {
        let (first, last) = self.lines_covering(addr, len);
        let mut cost = SimTime::ZERO;
        for line in first..=last {
            if self.cfg.llc_stashing {
                if self.llc.stash_line(line).is_some() {
                    cost += self.dram.writeback();
                    self.stats.writebacks += 1;
                }
                self.stats.stashed_lines += 1;
                cost += self.cfg.latency.stash_install;
                // The copy in LLC is now the authoritative one; private caches on the
                // receiving side may hold stale data for reused mailbox buffers.
                for l1 in &mut self.l1 {
                    l1.invalidate(line * self.line_size as u64);
                }
                for l2 in &mut self.l2 {
                    l2.invalidate(line * self.line_size as u64);
                }
                for l3 in &mut self.l3 {
                    l3.invalidate(line * self.line_size as u64);
                }
            } else {
                // DMA to DRAM: invalidate everywhere so demand accesses miss to DRAM.
                let byte = line * self.line_size as u64;
                for l1 in &mut self.l1 {
                    l1.invalidate(byte);
                }
                for l2 in &mut self.l2 {
                    l2.invalidate(byte);
                }
                for l3 in &mut self.l3 {
                    l3.invalidate(byte);
                }
                self.llc.invalidate(byte);
                self.prefetched.remove(&line);
                self.stats.dma_dram_lines += 1;
                cost += self.dram.writeback();
            }
        }
        cost
    }

    /// Warm the given range into the LLC (e.g. a "local function" library that has
    /// been executed before and is resident). Charged to nobody.
    pub fn warm_llc(&mut self, addr: u64, len: usize) {
        let (first, last) = self.lines_covering(addr, len);
        for line in first..=last {
            self.llc.stash_line(line);
        }
    }

    /// Warm the given range into a specific core's private L1/L2 (and the LLC
    /// beneath them), modelling code/data that the receiver thread keeps hot.
    pub fn warm_l2(&mut self, core: usize, addr: u64, len: usize) {
        let (first, last) = self.lines_covering(addr, len);
        for line in first..=last {
            self.llc.stash_line(line);
            self.l2[core].access_line(line, AccessKind::Read);
            self.l1[core].access_line(line, AccessKind::Read);
        }
    }

    /// Check whether the line containing `addr` currently resides in the LLC.
    pub fn llc_contains(&self, addr: u64) -> bool {
        self.llc.contains(addr)
    }
}

impl MemoryBus for CacheHierarchy {
    fn access(&mut self, core: usize, addr: u64, len: usize, kind: AccessKind) -> SimTime {
        assert!(core < self.cfg.caches.num_cores, "core {core} out of range");
        let (first, last) = self.lines_covering(addr, len);
        let mut total = SimTime::ZERO;
        for line in first..=last {
            total += self.access_line(core, line, kind);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestbedConfig;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(TestbedConfig::tiny_for_tests())
    }

    #[test]
    fn repeated_access_gets_cheaper() {
        let mut h = hierarchy();
        let cold = h.access(0, 0x1000, 64, AccessKind::Read);
        let warm = h.access(0, 0x1000, 64, AccessKind::Read);
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
        assert_eq!(h.stats().l1_hits, 1, "re-touch hits the private L1");
        assert_eq!(h.stats().dram_accesses, 1);
    }

    #[test]
    fn multi_line_access_charges_each_line() {
        let mut h = hierarchy();
        let one = h.access(0, 0, 64, AccessKind::Read);
        h.clear();
        let four = h.access(0, 0, 256, AccessKind::Read);
        assert!(four > one);
        assert_eq!(h.stats().dram_accesses, 4);
    }

    #[test]
    fn stashed_dma_turns_first_touch_into_llc_hit() {
        let mut h = hierarchy();
        h.set_stashing(true);
        h.dma_write(0x4000, 128);
        let t = h.access(1, 0x4000, 128, AccessKind::Read);
        assert_eq!(h.stats().llc_hits, 2);
        assert_eq!(h.stats().dram_accesses, 0);
        // Cost should be roughly 2 * (l2 miss + l3 miss + llc hit), far below DRAM.
        assert!(t < SimTime::from_ns(2 * 100));
    }

    #[test]
    fn unstashed_dma_forces_dram_access() {
        let mut h = hierarchy();
        h.set_stashing(false);
        // Even if the receiver had the mailbox cached from a previous message...
        h.access(1, 0x4000, 128, AccessKind::Read);
        h.reset_stats();
        // ...a non-stashed arrival invalidates it.
        h.dma_write(0x4000, 128);
        h.access(1, 0x4000, 128, AccessKind::Read);
        assert_eq!(h.stats().dram_accesses, 2);
        assert_eq!(h.stats().llc_hits, 0);
    }

    #[test]
    fn stash_vs_nonstash_latency_gap() {
        let cfg = TestbedConfig::tiny_for_tests();
        let mut stash = CacheHierarchy::new(cfg.clone());
        stash.set_stashing(true);
        let mut nostash = CacheHierarchy::new(cfg);
        nostash.set_stashing(false);
        stash.dma_write(0, 1024);
        nostash.dma_write(0, 1024);
        let t_stash = stash.access(0, 0, 1024, AccessKind::Read);
        let t_nostash = nostash.access(0, 0, 1024, AccessKind::Read);
        assert!(
            t_nostash > t_stash,
            "non-stashed first touch ({t_nostash}) must be slower than stashed ({t_stash})"
        );
    }

    #[test]
    fn prefetcher_reduces_dram_trips_on_long_streams() {
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.prefetch.enabled = true;
        cfg.llc_stashing = false;
        let mut h = CacheHierarchy::new(cfg);
        // Stream through 64 consecutive lines.
        for i in 0..64u64 {
            h.access(0, i * 64, 64, AccessKind::Read);
        }
        let with_pf = h.stats().dram_accesses;
        assert!(h.stats().prefetches_issued > 0);
        assert!(
            h.stats().prefetch_hits > 0,
            "some demand accesses should hit prefetched lines"
        );

        let mut cfg2 = TestbedConfig::tiny_for_tests();
        cfg2.prefetch.enabled = false;
        cfg2.llc_stashing = false;
        let mut h2 = CacheHierarchy::new(cfg2);
        for i in 0..64u64 {
            h2.access(0, i * 64, 64, AccessKind::Read);
        }
        assert!(
            with_pf < h2.stats().dram_accesses,
            "prefetching should cut DRAM trips ({} vs {})",
            with_pf,
            h2.stats().dram_accesses
        );
    }

    #[test]
    fn warm_llc_makes_local_library_cheap() {
        let mut h = hierarchy();
        h.warm_llc(0x9000, 512);
        h.reset_stats();
        h.access(2, 0x9000, 512, AccessKind::Fetch);
        assert_eq!(h.stats().dram_accesses, 0);
    }

    #[test]
    fn warm_l2_is_cheaper_than_warm_llc() {
        let mut h = hierarchy();
        h.warm_l2(0, 0x9000, 64);
        let t_l2 = h.access(0, 0x9000, 64, AccessKind::Read);
        let mut h2 = hierarchy();
        h2.warm_llc(0x9000, 64);
        let t_llc = h2.access(0, 0x9000, 64, AccessKind::Read);
        assert!(t_l2 < t_llc);
    }

    #[test]
    fn stressor_inflates_dram_latency() {
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.llc_stashing = false;
        let mut h = CacheHierarchy::new(cfg);
        let mut idle_total = SimTime::ZERO;
        for i in 0..200u64 {
            idle_total += h.access(0, i * 64, 64, AccessKind::Read);
        }
        h.clear();
        h.set_stressor(Some(MemoryStressor::fully_loaded(11)));
        let mut loaded_total = SimTime::ZERO;
        for i in 0..200u64 {
            loaded_total += h.access(0, i * 64, 64, AccessKind::Read);
        }
        assert!(loaded_total > idle_total);
        assert!(h.stressed());
        h.set_stressor(None);
        assert!(!h.stressed());
    }

    #[test]
    fn flat_memory_counts_accesses() {
        let mut f = FlatMemory::free();
        f.access(0, 0, 64, AccessKind::Read);
        f.access(0, 64, 64, AccessKind::Write);
        assert_eq!(f.accesses, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_bounds_are_checked() {
        let mut h = hierarchy();
        h.access(99, 0, 64, AccessKind::Read);
    }
}
