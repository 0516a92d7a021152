//! The cost model: every modelled constant of the reproduction, declared once.
//!
//! Each row of the `cost_model!` list is one constant: its name, its typed value, the
//! unit it is written in and one provenance.
//!
//! * **paper** — the section or figure of the paper that states the value,
//!   with the quote the model's module docs carry;
//! * **fitted** — chosen so that one of the paper's figures keeps its shape,
//!   naming the figure and what was matched;
//! * **assumed** — a plausible value for the paper's hardware that nothing in
//!   the paper pins down.
//!
//! The list generates one constant per row, which every model layer reads
//! instead of a literal of its own, and [`rows`], which walks the table in
//! declaration order. A row is `pub` when another crate reads it and
//! `pub(crate)` when only this crate's testbed and stressor do.
//! `tests/golden/cost_model.txt` holds the table as [`Row`]'s `Display`
//! renders it, written by hand from the sources before the constants were
//! gathered here.
//!
//! The testbed's cache geometry stays in [`crate::config::TestbedConfig`],
//! whose [`cluster2021`](crate::config::TestbedConfig::cluster2021) preset
//! reads its latencies and bandwidth from here; policy thresholds (batching
//! horizons, watermarks, stall and retry bounds, fuel) stay with the policy
//! they bound.

use std::fmt;

use crate::clock::SimTime;

/// Where a row's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Provenance {
    /// Stated by the paper.
    Paper {
        /// Section or figure.
        at: &'static str,
        /// The paper's words.
        quote: &'static str,
    },
    /// Chosen so that the named figure keeps its shape.
    Fitted(&'static str),
    /// Plausible for the paper's hardware, pinned by nothing in the paper.
    Assumed,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Paper { at, quote } => write!(f, "paper {at}: \"{quote}\""),
            Provenance::Fitted(to) => write!(f, "fitted to {to}"),
            Provenance::Assumed => write!(f, "assumed"),
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// The constant's name.
    pub name: &'static str,
    /// Its value, in `unit`.
    pub value: f64,
    /// The unit the value is written in.
    pub unit: &'static str,
    /// Where the value comes from.
    pub(crate) provenance: Provenance,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:>6} {:<11} {}",
            self.name, self.value, self.unit, self.provenance
        )
    }
}

/// Declares the table: one row per line, `vis NAME: type = value => "unit",
/// provenance;` with the provenance `paper "§" "quote"`, `fitted "figure"` or
/// `assumed`, under a doc line saying what the constant charges.
macro_rules! cost_model {
    (@prov paper $at:literal $quote:literal) => {
        Provenance::Paper { at: $at, quote: $quote }
    };
    (@prov fitted $to:literal) => {
        Provenance::Fitted($to)
    };
    (@prov assumed) => {
        Provenance::Assumed
    };
    (@value SimTime $v:expr) => {
        $v.as_ns()
    };
    (@value f64 $v:expr) => {
        $v
    };
    (@value $ty:ident $v:expr) => {
        $v as f64
    };
    ($($(#[doc = $doc:literal])* $vis:vis $name:ident: $ty:ident = $value:expr => $unit:literal, $kind:ident $($arg:literal)*;)*) => {
        $(
            $(#[doc = $doc])*
            ///
            #[doc = concat!("In ", $unit, "; ", stringify!($kind) $(, " — ", $arg)*, ".")]
            $vis const $name: $ty = $value;
        )*

        /// Every row of the table, in declaration order.
        pub fn rows() -> impl Iterator<Item = Row> {
            [$(Row {
                name: stringify!($name),
                value: cost_model!(@value $ty $name),
                unit: $unit,
                provenance: cost_model!(@prov $kind $($arg)*),
            }),*]
            .into_iter()
        }
    };
}

const fn ns(ns: u64) -> SimTime {
    SimTime::from_ns(ns)
}

cost_model! {
    // The receiving core: its clock, the Polling/WFE wait (`cycles`) and the jam VM's issue rate.
    /// Core clock: cycles are charged at this rate, spinning or working.
    pub CORE_FREQ_GHZ: f64 = 2.6 => "GHz", paper "§VI-C" "a 2.6 GHz core clock";
    /// Polling granularity: a tight acquire-load loop on a cached line turns around in a few cycles.
    pub POLL_INTERVAL: SimTime = ns(4) => "ns", assumed;
    /// Extra wake-up latency WFE pays: the event signal, then the pipeline restart.
    pub WFE_WAKE_LATENCY: SimTime = ns(14) => "ns", assumed;
    /// Cycles spent entering the WFE state (arming the monitor) and leaving it.
    pub WFE_OVERHEAD_CYCLES: u64 = 40 => "cycles", assumed;
    /// Cycles retired per WFE wake-up: spurious wake-up filtering, the re-check of the signal word.
    pub WFE_RECHECK_CYCLES: u64 = 24 => "cycles", assumed;
    /// Instructions the paper's "modern superscalar" core retires per cycle on straight-line jam code.
    pub INSTRS_PER_CYCLE: f64 = 2.0 => "instr/cycle", assumed;
    /// Fixed cost of one extern call: call and return through the GOT indirection.
    pub EXTERN_CALL_OVERHEAD: SimTime = ns(6) => "ns", assumed;

    // The memory system of `TestbedConfig::cluster2021`: typical of an Arm server part at the paper's clock.
    /// L1 hit latency (also the lookup charge paid on an L1 miss).
    pub(crate) L1_HIT: SimTime = ns(1) => "ns", assumed;
    /// L2 hit latency.
    pub(crate) L2_HIT: SimTime = ns(4) => "ns", assumed;
    /// L3 (cluster cache) hit latency.
    pub(crate) L3_HIT: SimTime = ns(12) => "ns", assumed;
    /// LLC hit latency, the interconnect hop included.
    pub(crate) LLC_HIT: SimTime = ns(30) => "ns", assumed;
    /// DRAM access latency on an idle memory system (row-buffer mix averaged).
    pub(crate) DRAM_LATENCY: SimTime = ns(95) => "ns", assumed;
    /// A dirty line's write-back on eviction.
    pub(crate) WRITEBACK: SimTime = ns(8) => "ns", assumed;
    /// Installing a stashed line into the LLC, paid by the DMA engine, not the core.
    pub(crate) STASH_INSTALL: SimTime = ns(6) => "ns", assumed;
    /// Sustained DRAM bandwidth: one loaded DDR4-2666 channel, below its ~21.3 GB/s peak.
    pub(crate) DRAM_BANDWIDTH_GIB_S: f64 = 19.0 => "GiB/s", assumed;

    // The `stress-ng --class vm` stand-in (`stress`), at full intensity.
    /// Share of DRAM bandwidth the stressor's vm workers occupy.
    pub(crate) STRESS_BANDWIDTH_SHARE: f64 = 0.70 => "share", assumed;
    /// Chance that a DRAM access queues behind a page sweep or reclaim stall (one in 500).
    pub(crate) STRESS_BURST_PROBABILITY: f64 = 0.002 => "1/access", assumed;
    /// Shortest burst collision.
    pub(crate) STRESS_BURST_MIN_US: f64 = 1.0 => "µs", assumed;
    /// Longest burst collision.
    pub(crate) STRESS_BURST_MAX_US: f64 = 12.0 => "µs", assumed;
    /// Longest bank/row-conflict delay of an access that misses the bursts.
    pub(crate) STRESS_CONFLICT_MAX_NS: f64 = 60.0 => "ns", assumed;
    /// Longest scheduler jitter (TLB shootdowns and the like) on a loaded machine's wake-up.
    pub(crate) STRESS_JITTER_MAX_NS: f64 = 150.0 => "ns", assumed;

    // The back-to-back ConnectX-6 link (`twochains_fabric::link`) and its UCX-like protocol thresholds.
    /// Sender software overhead to build and post a work request.
    pub POST_OVERHEAD: SimTime = ns(90) => "ns", fitted "Fig. 5, one-way latency ≈1 µs at 256 B rising to a few µs at 32 KiB";
    /// MMIO doorbell write reaching the HCA.
    pub DOORBELL: SimTime = ns(150) => "ns", fitted "Fig. 5, one-way latency ≈1 µs at 256 B rising to a few µs at 32 KiB";
    /// HCA descriptor and payload fetch over PCIe on the sending side.
    pub PCIE_READ: SimTime = ns(200) => "ns", fitted "Fig. 5, one-way latency ≈1 µs at 256 B rising to a few µs at 32 KiB";
    /// Cable propagation and switchless port-to-port forwarding.
    pub WIRE_LATENCY: SimTime = ns(300) => "ns", fitted "Fig. 5, one-way latency ≈1 µs at 256 B rising to a few µs at 32 KiB";
    /// Receiver-side PCIe write and delivery.
    pub DELIVERY: SimTime = ns(250) => "ns", fitted "Fig. 5, one-way latency ≈1 µs at 256 B rising to a few µs at 32 KiB";
    /// Line rate of the ConnectX-6 HCAs.
    pub LINE_RATE_GBPS: f64 = 200.0 => "Gb/s", paper "§VI-C" "ConnectX-6 200 Gb/s InfiniBand HCAs connected back-to-back";
    /// Share of the line rate one stream achieves end to end (framing, the small servers' PCIe slot).
    pub LINK_EFFICIENCY: f64 = 0.55 => "share", fitted "Fig. 5, one-way latency ≈1 µs at 256 B rising to a few µs at 32 KiB";
    /// Eager-short to bcopy switch: the Injected frame for a handful of integers (≈1.5 KiB) lands just above it.
    pub EAGER_THRESHOLD: usize = 1498 => "B", fitted "Fig. 7, the Injected curve's step at 8 integers";
    /// Extra latency just above [`EAGER_THRESHOLD`] ("a slight performance degradation", §VII-A).
    pub EAGER_PENALTY: SimTime = ns(90) => "ns", assumed;
    /// Bcopy fragmentation boundary: the ≈2.5 KiB Injected frame for 256 integers lands just above it.
    pub FRAGMENT_THRESHOLD: usize = 2490 => "B", fitted "Fig. 7, the Injected curve's step at 256 integers";
    /// Extra latency just above [`FRAGMENT_THRESHOLD`].
    pub FRAGMENT_PENALTY: SimTime = ns(110) => "ns", assumed;
    /// Width of the penalised window above each protocol threshold.
    pub THRESHOLD_WINDOW: usize = 32 => "B", assumed;
    /// Size from which the rendezvous protocol adds a control round trip.
    pub RENDEZVOUS_THRESHOLD: usize = 64 * 1024 => "B", assumed;
    /// The exposed tail of a cut-through DMA install: the last line's installation.
    pub DMA_EXPOSED_TAIL: SimTime = ns(12) => "ns", assumed;

    // The plain UCX put that Figs. 5–6 compare against (`twochains_fabric::baseline`): a tuned UCX's overheads.
    /// Per-operation library bookkeeping on the latency path.
    pub UCX_LATENCY_OVERHEAD: SimTime = ns(90) => "ns", assumed;
    /// Per-operation flow-control and completion-harvest cost on the streaming path.
    pub UCX_STREAM_OVERHEAD: SimTime = ns(600) => "ns", fitted "Fig. 6, Two-Chains streams 1.79x-4.48x the UCX put's bandwidth";
    /// Send-side bounce-buffer copy bandwidth for bcopy-eligible sizes.
    pub UCX_BCOPY_BYTES_PER_NS: f64 = 7.0 => "B/ns", assumed;
    /// Largest size that takes the copy-based eager path.
    pub UCX_BCOPY_MAX: usize = 8192 => "B", assumed;
    /// Share of the bounce copy exposed on the latency path; the rest overlaps the DMA read.
    pub UCX_BCOPY_EXPOSED: f64 = 0.08 => "share", assumed;

    // The receiver's dispatch path (`twochains::runtime::host`).
    /// Injected Function dispatch: frame parse and the jump through the mailbox code pointer.
    pub INJECTED_DISPATCH: SimTime = ns(28) => "ns", assumed;
    /// Local Function dispatch: frame parse and the element's function-pointer lookup, per chain stage.
    pub LOCAL_DISPATCH: SimTime = ns(18) => "ns", assumed;
    /// Content hash of an uncached injected image: the arrived bytes streamed at near line rate.
    pub HASH_NS_PER_BYTE: f64 = 0.01 => "ns/B", assumed;
    /// Decode on a code-cache miss (~2 GB/s: byte-at-a-time opcode dispatch).
    pub DECODE_NS_PER_BYTE: f64 = 0.6 => "ns/B", assumed;
    /// Verify on a code-cache miss (~4 GB/s: register, branch and GOT-slot bound checks).
    pub VERIFY_NS_PER_BYTE: f64 = 0.25 => "ns/B", assumed;
    /// GOT image parse on a GOT-cache miss.
    pub GOT_PARSE_NS_PER_BYTE: f64 = 0.05 => "ns/B", assumed;
    /// Lowering an uncached image: one walk of the decoded program, cheaper than the decode before it.
    pub RESOLVE_NS_PER_BYTE: f64 = 0.15 => "ns/B", assumed;

    // The sender: §III-A's message packing and the transmit-window harvest.
    /// Packing cost per frame (the message packing routines of §III-A).
    pub PACK_FIXED: SimTime = ns(35) => "ns", assumed;
    /// Packing cost per byte.
    pub PACK_NS_PER_BYTE: f64 = 0.002 => "ns/B", assumed;
    /// Harvesting one transmit-window entry: the per-completion bookkeeping the UCX-like baseline pays.
    pub HARVEST_COST: SimTime = ns(55) => "ns", assumed;

    // The hardened policy's GOT re-resolution (`twochains::security`): a handful of hash lookups.
    /// Fixed part of the per-message re-resolution.
    pub GOT_RESOLVE_FIXED: SimTime = ns(20) => "ns", assumed;
    /// Re-resolution cost per GOT slot.
    pub GOT_RESOLVE_PER_SLOT: SimTime = ns(12) => "ns", assumed;
    /// Ceiling of the per-message re-resolution.
    pub GOT_RESOLVE_CAP: SimTime = ns(400) => "ns", assumed;
}
