//! Machine / testbed description.
//!
//! [`TestbedConfig`] describes the simulated platform's memory system: cache
//! geometry, hit latencies, DRAM, prefetcher and stashing. The default
//! configuration, [`TestbedConfig::cluster2021`], reproduces the paper's evaluation
//! testbed (§VI-C): a 4-core Arm server with 1 MiB private L2 per core, 1 MiB L3
//! shared per 2-core cluster, an 8 MiB shared LLC, DDR4-2666 DRAM, an
//! LLC-stashing-capable PCIe root complex, and toggleable hardware prefetchers; its
//! latencies and bandwidth are rows of [`crate::cost`]. The core clock is the
//! table's [`CORE_FREQ_GHZ`](crate::cost::CORE_FREQ_GHZ) row, whatever the preset.

use crate::clock::SimTime;
use crate::cost;

/// Cache line size used throughout the simulator (bytes).
pub(crate) const CACHE_LINE: usize = 64;

/// Geometry of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (number of ways per set).
    pub(crate) ways: usize,
    /// Line size in bytes.
    pub line_size: usize,
}

impl CacheLevelConfig {
    /// Create a level description. Panics if the geometry is inconsistent
    /// (capacity not divisible into whole sets of `ways` lines).
    pub fn new(capacity: usize, ways: usize, line_size: usize) -> Self {
        assert!(
            capacity > 0 && ways > 0 && line_size > 0,
            "cache geometry must be non-zero"
        );
        assert!(
            capacity.is_multiple_of(ways * line_size),
            "capacity {} not divisible by ways*line {}",
            capacity,
            ways * line_size
        );
        CacheLevelConfig {
            capacity,
            ways,
            line_size,
        }
    }

    /// Number of sets in this cache.
    pub(crate) fn sets(&self) -> usize {
        self.capacity / (self.ways * self.line_size)
    }

    /// Total number of lines this cache can hold.
    pub fn lines(&self) -> usize {
        self.capacity / self.line_size
    }
}

/// Full cache hierarchy geometry: private L1/L2 per core, L3 per cluster, shared LLC.
///
/// The paper's evaluation reasons mostly about L2/L3/LLC/DRAM; the small private L1
/// mainly shifts constants for re-touched lines, but it matters for the sharded
/// hierarchy: L1 and L2 are the *per-core private* levels that the per-shard
/// [`crate::sharded::CoreBus`] owns without a lock, while L3/LLC/DRAM are the
/// *shared* levels reached through lock striping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Private first-level cache, one per core (the innermost private level).
    pub l1: CacheLevelConfig,
    /// Private second-level cache, one per core.
    pub l2: CacheLevelConfig,
    /// Cluster-shared third-level cache, one per `cores_per_cluster` cores.
    pub l3: CacheLevelConfig,
    /// Chip-wide shared last level cache (the stash target).
    pub llc: CacheLevelConfig,
    /// Number of cores sharing one L3 slice.
    pub(crate) cores_per_cluster: usize,
    /// Number of cores in the package.
    pub num_cores: usize,
}

/// Latencies charged for hits at each level and for control overheads.
///
/// The paper's testbed reads its values from [`crate::cost`]'s rows; the tiny test
/// machine sets its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyConfig {
    /// L1 hit latency (also the lookup charge paid on an L1 miss).
    pub l1_hit: SimTime,
    /// L2 hit latency.
    pub l2_hit: SimTime,
    /// L3 (cluster cache) hit latency.
    pub l3_hit: SimTime,
    /// LLC hit latency (includes the interconnect hop).
    pub llc_hit: SimTime,
    /// DRAM access latency on an idle memory system (row-buffer mix averaged).
    pub dram: SimTime,
    /// Additional cost for a dirty-line write-back that must happen on eviction.
    pub writeback: SimTime,
    /// Cost of installing a stashed line into the LLC (paid by the DMA engine, not the core).
    pub stash_install: SimTime,
}

/// DRAM device/channel parameters used by the contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Peak sustainable bandwidth of the memory system in GiB/s
    /// ([`DRAM_BANDWIDTH_GIB_S`](crate::cost::DRAM_BANDWIDTH_GIB_S) on the paper's
    /// testbed: below the ~21.3 GB/s peak of one DDR4-2666 channel).
    pub(crate) bandwidth_gib_s: f64,
    /// Fraction of peak bandwidth consumed by background traffic when the
    /// memory stressor is active (0.0 = idle machine).
    pub(crate) background_utilization: f64,
}

/// Hardware prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Master enable (the paper's firmware/kernel toggle).
    pub enabled: bool,
    /// Number of consecutive-line misses required before the stream is trained.
    pub(crate) train_threshold: usize,
    /// Number of lines fetched ahead once trained.
    pub(crate) degree: usize,
    /// Maximum number of concurrently tracked streams.
    pub streams: usize,
}

/// Complete description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedConfig {
    /// Cache geometry.
    pub caches: CacheGeometry,
    /// Latency table.
    pub latency: LatencyConfig,
    /// DRAM / memory-system parameters.
    pub dram: DramConfig,
    /// Prefetcher parameters.
    pub prefetch: PrefetchConfig,
    /// Whether the PCIe root complex stashes inbound DMA traffic into the LLC.
    pub llc_stashing: bool,
}

impl TestbedConfig {
    /// The paper's evaluation platform (§VI-C), with stashing and prefetching enabled.
    pub fn cluster2021() -> Self {
        TestbedConfig {
            caches: CacheGeometry {
                l1: CacheLevelConfig::new(64 << 10, 4, CACHE_LINE),
                l2: CacheLevelConfig::new(1 << 20, 8, CACHE_LINE),
                l3: CacheLevelConfig::new(1 << 20, 16, CACHE_LINE),
                llc: CacheLevelConfig::new(8 << 20, 16, CACHE_LINE),
                cores_per_cluster: 2,
                num_cores: 4,
            },
            latency: LatencyConfig {
                l1_hit: cost::L1_HIT,
                l2_hit: cost::L2_HIT,
                l3_hit: cost::L3_HIT,
                llc_hit: cost::LLC_HIT,
                dram: cost::DRAM_LATENCY,
                writeback: cost::WRITEBACK,
                stash_install: cost::STASH_INSTALL,
            },
            dram: DramConfig {
                bandwidth_gib_s: cost::DRAM_BANDWIDTH_GIB_S,
                background_utilization: 0.0,
            },
            prefetch: PrefetchConfig {
                enabled: true,
                train_threshold: 3,
                degree: 8,
                streams: 16,
            },
            llc_stashing: true,
        }
    }

    /// A deliberately tiny machine used by unit and property tests: small caches make
    /// evictions and write-backs easy to trigger without touching megabytes of state.
    pub fn tiny_for_tests() -> Self {
        TestbedConfig {
            caches: CacheGeometry {
                l1: CacheLevelConfig::new(1024, 2, CACHE_LINE),
                l2: CacheLevelConfig::new(4 * 1024, 2, CACHE_LINE),
                l3: CacheLevelConfig::new(8 * 1024, 2, CACHE_LINE),
                llc: CacheLevelConfig::new(16 * 1024, 4, CACHE_LINE),
                cores_per_cluster: 2,
                num_cores: 4,
            },
            latency: LatencyConfig {
                l1_hit: SimTime::from_ns(1),
                l2_hit: SimTime::from_ns(2),
                l3_hit: SimTime::from_ns(6),
                llc_hit: SimTime::from_ns(20),
                dram: SimTime::from_ns(100),
                writeback: SimTime::from_ns(5),
                stash_install: SimTime::from_ns(3),
            },
            dram: DramConfig {
                bandwidth_gib_s: 10.0,
                background_utilization: 0.0,
            },
            prefetch: PrefetchConfig {
                enabled: false,
                train_threshold: 2,
                degree: 4,
                streams: 4,
            },
            llc_stashing: true,
        }
    }

    /// Which cluster a core belongs to.
    pub fn cluster_of(&self, core: usize) -> usize {
        core / self.caches.cores_per_cluster
    }

    /// Number of L3 cluster slices on the chip.
    pub fn num_clusters(&self) -> usize {
        self.caches
            .num_cores
            .div_ceil(self.caches.cores_per_cluster)
    }
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self::cluster2021()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_geometry_matches_section_vi_c() {
        let c = TestbedConfig::cluster2021();
        assert_eq!(c.caches.l1.capacity, 64 << 10);
        assert_eq!(c.caches.l2.capacity, 1 << 20);
        assert_eq!(c.caches.l3.capacity, 1 << 20);
        assert_eq!(c.caches.llc.capacity, 8 << 20);
        assert_eq!(c.caches.num_cores, 4);
        assert_eq!(c.caches.cores_per_cluster, 2);
        assert!(c.llc_stashing);
        assert!(c.prefetch.enabled);
    }

    #[test]
    fn level_config_derives_sets_and_lines() {
        let l = CacheLevelConfig::new(8 << 20, 16, 64);
        assert_eq!(l.lines(), (8 << 20) / 64);
        assert_eq!(l.sets(), (8 << 20) / (16 * 64));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_is_rejected() {
        let _ = CacheLevelConfig::new(1000, 3, 64);
    }

    #[test]
    fn cluster_mapping() {
        let c = TestbedConfig::cluster2021();
        assert_eq!(c.cluster_of(0), 0);
        assert_eq!(c.cluster_of(1), 0);
        assert_eq!(c.cluster_of(2), 1);
        assert_eq!(c.cluster_of(3), 1);
        assert_eq!(c.num_clusters(), 2);
    }
}
