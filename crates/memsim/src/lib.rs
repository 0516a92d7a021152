//! # twochains-memsim
//!
//! Cache-hierarchy and cycle-accounting simulator used as the hardware substrate for
//! the Two-Chains reproduction.
//!
//! The paper's evaluation platform is a pair of Arm servers with a 4-core superscalar
//! CPU (1 MiB private L2 per core, 1 MiB L3 per 2-core cluster, 8 MiB shared LLC),
//! DDR4-2666 main memory and the core clock of [`cost::CORE_FREQ_GHZ`].
//! Crucially the platform supports *LLC stashing*: traffic arriving from the
//! ConnectX-6 HCA through the PCIe root complex can be written directly into the last
//! level cache instead of DRAM, and the hardware prefetchers can be toggled from user
//! space (custom Linux 5.4 kernel).
//!
//! None of that hardware is available here, so this crate models it:
//!
//! * [`config::TestbedConfig`] — the machine description, with the paper's testbed as
//!   the default ([`config::TestbedConfig::cluster2021`]).
//! * [`cache::SetAssocCache`] — a generic set-associative LRU cache.
//! * [`sharded::SharedHierarchy`] and its per-core [`sharded::CoreBus`] — L1 → L2 →
//!   L3 → LLC → DRAM lookup, write-back, the *stash port* used by the simulated NIC,
//!   and hit/miss statistics ([`hierarchy::HierarchyStats`]), charged through the
//!   [`hierarchy::MemoryBus`] trait.
//! * [`prefetch::StridePrefetcher`] — a trainable stride prefetcher that hides DRAM
//!   latency on long sequential footprints (this is what narrows the stash/non-stash
//!   gap at large message sizes in Figs. 9–10 of the paper).
//! * [`stress::MemoryStressor`] — an at-capacity memory system model standing in for
//!   `stress-ng --class vm --all 1` in the tail-latency experiments (Figs. 11–12).
//! * [`cycles`] — the Polling-vs-WFE cycle accounting used by Figs. 13–14.
//! * [`cost`] — every modelled constant of the workspace, one row each with its
//!   provenance: the core clock ([`cost::CORE_FREQ_GHZ`]), the testbed's hit
//!   latencies, the link, NIC and UCX-baseline timings, and the runtime's
//!   dispatch, packing and hardening costs.
//! * [`clock::SimTime`] — the virtual-time base used everywhere.
//!
//! All benchmark numbers produced by the workspace are *virtual time* computed from
//! these models; the functional code paths (linking, GOT patching, message packing,
//! execution) run for real on top of them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod clock;
pub mod config;
pub mod cost;
pub mod cycles;
pub mod hierarchy;
pub mod latency;
pub mod prefetch;
pub mod sharded;
pub mod stress;

pub use cache::{AccessKind, SetAssocCache};
pub use clock::SimTime;
pub use config::{
    CacheGeometry, CacheLevelConfig, DramConfig, LatencyConfig, PrefetchConfig, TestbedConfig,
};
pub use cycles::{CycleCounter, WaitMode, WaitOutcome};
pub use hierarchy::{HierarchyStats, MemoryBus};
pub use latency::DramModel;
pub use prefetch::StridePrefetcher;
pub use sharded::{CoreBus, CoreCacheStats, SharedHierarchy};
pub use stress::MemoryStressor;
