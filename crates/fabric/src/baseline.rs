//! The UCX-put baseline ("Data put") that Figs. 5–6 compare against.
//!
//! The paper's first experiment verifies that the Two-Chains reactive mailbox adds no
//! latency over a plain `ucp_put`, and actually *improves* streaming bandwidth by
//! 1.79×–4.48× because "the standard UCX put operation has more library overhead for
//! flow control and detecting message completion" (§VII).
//!
//! This module models that software overhead on top of the same [`crate::link`]
//! timing the Two-Chains path uses, with the overheads as rows of
//! [`twochains_memsim::cost`] (`UCX_*`):
//!
//! * **Latency path** — a put measured by the perftest needs the remote data to be
//!   observable; the library adds a small per-operation bookkeeping cost
//!   ([`UCX_LATENCY_OVERHEAD`]) and, for eager copy-based (bcopy) sizes up to
//!   [`UCX_BCOPY_MAX`], a bounce-buffer copy on the send side, a slice of which
//!   ([`UCX_BCOPY_EXPOSED`]) lands on the critical path, the rest overlapping the
//!   DMA read.
//! * **Streaming path** — every posted put eventually requires harvesting a
//!   completion and running the library's flow-control window logic
//!   ([`UCX_STREAM_OVERHEAD`], fitted to Fig. 6); this per-message software gap,
//!   not the wire, is what bounds the baseline's message rate for small and
//!   medium messages.

use twochains_memsim::cost::{
    UCX_BCOPY_BYTES_PER_NS, UCX_BCOPY_EXPOSED, UCX_BCOPY_MAX, UCX_LATENCY_OVERHEAD,
    UCX_STREAM_OVERHEAD,
};
use twochains_memsim::SimTime;

use crate::link;

/// Bounce-buffer copy time for a message of `size` bytes (zero for zcopy sizes).
fn bcopy_time(size: usize) -> SimTime {
    if size <= UCX_BCOPY_MAX {
        SimTime::from_ns_f64(size as f64 / UCX_BCOPY_BYTES_PER_NS)
    } else {
        SimTime::ZERO
    }
}

/// One-way latency of a UCX data put of `size` bytes, as the perftest measures it.
pub fn put_latency(size: usize) -> SimTime {
    let t = link::put_timing(size);
    t.one_way() + UCX_LATENCY_OVERHEAD + bcopy_time(size) * UCX_BCOPY_EXPOSED
}

/// Minimum inter-message gap in a streaming (bandwidth / message-rate) test:
/// the software per-message cost or the wire serialization, whichever is larger.
pub(crate) fn stream_gap(size: usize) -> SimTime {
    let wire_gap = link::put_timing(size).gap;
    let software_gap = UCX_STREAM_OVERHEAD + bcopy_time(size);
    wire_gap.max(software_gap)
}

/// Streaming bandwidth in MiB/s for messages of `size` bytes.
pub fn bandwidth_mib_s(size: usize) -> f64 {
    let gap = stream_gap(size);
    let bytes_per_ns = size as f64 / gap.as_ns();
    bytes_per_ns * 1e9 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_close_to_raw_link_latency() {
        for &size in &[256usize, 1024, 4096, 32768] {
            let raw = link::put_timing(size).one_way();
            let ucx = put_latency(size);
            let overhead = (ucx.as_ns() - raw.as_ns()) / raw.as_ns();
            assert!(
                overhead > 0.0 && overhead < 0.15,
                "size {size}: overhead {overhead}"
            );
        }
    }

    #[test]
    fn small_message_rate_is_software_bound() {
        let gap = stream_gap(256);
        assert!(
            gap >= SimTime::from_ns(500),
            "small messages pay the library overhead: {gap}"
        );
    }

    #[test]
    fn bandwidth_grows_with_message_size() {
        let bw_small = bandwidth_mib_s(256);
        let bw_large = bandwidth_mib_s(32 * 1024);
        assert!(bw_large > bw_small * 5.0, "{bw_small} vs {bw_large}");
        // Order of magnitude check against the paper's Fig. 6 (10^3..10^4 MB/s band).
        assert!(bw_small > 100.0 && bw_small < 2_000.0, "got {bw_small}");
        assert!(bw_large > 3_000.0 && bw_large < 20_000.0, "got {bw_large}");
    }

    #[test]
    fn zcopy_sizes_skip_the_bounce_copy() {
        // Just below and just above the bcopy threshold: the larger message should
        // not pay proportionally more software time.
        let below = stream_gap(8192);
        let above = stream_gap(16384);
        // 16KiB wire time is ~1.2us which exceeds software gap; ensure the software
        // component did not balloon.
        assert!(above.as_ns() < below.as_ns() * 2.0);
    }
}
