//! The monolithic cache hierarchy: per-core L1/L2, per-cluster L3, shared LLC,
//! DRAM, in one object.
//!
//! [`CacheHierarchy`] is the single-threaded reference for the shipped sharded
//! model ([`twochains_memsim::SharedHierarchy`] and its per-core
//! [`twochains_memsim::CoreBus`]): `&mut self` everywhere, no interior locking,
//! every level walked in one function. [`CacheHierarchy::dma_write`] stashes an
//! inbound message into the LLC (or writes it to DRAM) and invalidates every
//! private copy of its lines inline, where the sharded model posts them to
//! per-core inboxes; [`CacheHierarchy::access`](MemoryBus::access) charges a
//! demand access level by level and trains the per-core stride prefetcher on
//! its misses. For the same access stream the two charge identical costs,
//! which is what the tests below pin.

use std::collections::HashSet;

use twochains_memsim::cache::{AccessKind, SetAssocCache};
use twochains_memsim::{
    DramModel, HierarchyStats, MemoryBus, MemoryStressor, SimTime, StridePrefetcher, TestbedConfig,
};

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

    /// Toggle LLC stashing (the paper's firmware knob).
    pub fn set_stashing(&mut self, enabled: bool) {
        self.cfg.llc_stashing = enabled;
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
    #[should_panic(expected = "out of range")]
    fn core_bounds_are_checked() {
        let mut h = hierarchy();
        h.access(99, 0, 64, AccessKind::Read);
    }
}

/// The sharded hierarchy against this model: the same access and delivery
/// streams charge the same costs and count the same hits and misses.
#[cfg(test)]
mod against_sharded {
    use super::*;
    use std::sync::Arc;
    use twochains_memsim::SharedHierarchy;

    #[test]
    fn parity_with_monolithic_model() {
        // The same single-core access stream charges identical costs and
        // produces identical hit/miss totals in both models (footprint chosen
        // to avoid LLC capacity pressure, where the stripe split may diverge
        // from the monolithic set mapping).
        let cfg = TestbedConfig::tiny_for_tests();
        let mut mono = CacheHierarchy::new(cfg.clone());
        let sh = Arc::new(SharedHierarchy::new(cfg));
        let mut bus = sh.core_bus(0);
        let pattern: Vec<(u64, usize, AccessKind)> = (0..32u64)
            .map(|i| (i * 64, 64, AccessKind::Read))
            .chain((0..32u64).map(|i| (i * 64, 8, AccessKind::Write)))
            .chain((0..8u64).map(|i| (0x9000 + i * 128, 256, AccessKind::Fetch)))
            .collect();
        let mut t_mono = SimTime::ZERO;
        let mut t_shard = SimTime::ZERO;
        for &(addr, len, kind) in &pattern {
            t_mono += mono.access(0, addr, len, kind);
            t_shard += bus.access(0, addr, len, kind);
        }
        assert_eq!(t_mono, t_shard, "cost models diverged");
        let mut merged = sh.stats();
        merged.absorb_core(&bus.stats());
        let mono_stats = mono.stats();
        assert_eq!(merged.l1_hits, mono_stats.l1_hits);
        assert_eq!(merged.l2_hits, mono_stats.l2_hits);
        assert_eq!(merged.llc_hits, mono_stats.llc_hits);
        assert_eq!(merged.dram_accesses, mono_stats.dram_accesses);
    }

    #[test]
    fn dma_parity_with_monolithic_model() {
        for stashing in [true, false] {
            let cfg = TestbedConfig::tiny_for_tests();
            let mut mono = CacheHierarchy::new(cfg.clone());
            mono.set_stashing(stashing);
            let sh = Arc::new(SharedHierarchy::new(cfg));
            sh.set_stashing(stashing);
            let mut bus = sh.core_bus(2);
            // Pre-touch, deliver, re-touch: the classic stash/non-stash probe.
            let mut t_mono = mono.access(2, 0x4000, 128, AccessKind::Read);
            let mut t_shard = bus.access(2, 0x4000, 128, AccessKind::Read);
            mono.dma_write(0x4000, 128);
            sh.dma_write(0x4000, 128);
            t_mono += mono.access(2, 0x4000, 128, AccessKind::Read);
            t_shard += bus.access(2, 0x4000, 128, AccessKind::Read);
            assert_eq!(t_mono, t_shard, "stashing={stashing}");
        }
    }

    #[test]
    fn dram_channel_striping_keeps_parity_with_monolithic_model() {
        // A DRAM-heavy stream (every access a distinct line, far beyond the
        // tiny caches) must charge exactly the monolithic model's costs: the
        // channel split relocates the lock, not the latency. Write traffic
        // forces dirty evictions so the victim-writeback channel routing is
        // exercised too.
        let cfg = TestbedConfig::tiny_for_tests();
        let mut mono = CacheHierarchy::new(cfg.clone());
        let sh = Arc::new(SharedHierarchy::new(cfg));
        let mut bus = sh.core_bus(0);
        let mut t_mono = SimTime::ZERO;
        let mut t_shard = SimTime::ZERO;
        for i in 0..512u64 {
            let addr = i * 64 * 3; // stride across sets, stripes and channels
            t_mono += mono.access(0, addr, 64, AccessKind::Write);
            t_shard += bus.access(0, addr, 64, AccessKind::Write);
        }
        assert_eq!(t_mono, t_shard, "striped DRAM cost diverged");
        let mut merged = sh.stats();
        merged.absorb_core(&bus.stats());
        assert_eq!(merged.dram_accesses, mono.stats().dram_accesses);
        assert_eq!(merged.writebacks, mono.stats().writebacks);
    }
}
