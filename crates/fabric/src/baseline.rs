//! The UCX-put baseline ("Data put") that Figs. 5–6 compare against.
//!
//! The paper's first experiment verifies that the Two-Chains reactive mailbox adds no
//! latency over a plain `ucp_put`, and actually *improves* streaming bandwidth by
//! 1.79×–4.48× because "the standard UCX put operation has more library overhead for
//! flow control and detecting message completion" (§VII).
//!
//! [`UcxPutBaseline`] models that software overhead on top of the same
//! [`LinkModel`] the Two-Chains path uses:
//!
//! * **Latency path** — a put measured by the perftest needs the remote data to be
//!   observable; the library adds a small per-operation bookkeeping cost and, for
//!   eager copy-based (bcopy) sizes, a bounce-buffer copy on the send side, a slice
//!   of which lands on the critical path.
//! * **Streaming path** — every posted put eventually requires harvesting a
//!   completion and running the library's flow-control window logic; this per-message
//!   software gap, not the wire, is what bounds the baseline's message rate for small
//!   and medium messages.

use twochains_memsim::SimTime;

use crate::link::LinkModel;

/// Model of the plain UCX `ucp_put_nbi` + completion path.
#[derive(Debug, Clone)]
pub struct UcxPutBaseline {
    link: LinkModel,
    /// Per-operation library bookkeeping on the critical (latency) path.
    lat_overhead: SimTime,
    /// Per-operation flow-control + completion-harvest cost on the streaming path.
    stream_overhead: SimTime,
    /// Send-side bounce-buffer copy bandwidth for bcopy-eligible sizes (bytes/ns).
    bcopy_bytes_per_ns: f64,
    /// Sizes at or below this use the copy-based eager path.
    bcopy_max: usize,
    /// Fraction of the bounce copy that is exposed on the latency critical path
    /// (the rest overlaps with the DMA read).
    bcopy_exposed: f64,
}

impl UcxPutBaseline {
    /// Baseline with overheads representative of a tuned UCX over the given link.
    pub fn new(link: LinkModel) -> Self {
        UcxPutBaseline {
            link,
            lat_overhead: SimTime::from_ns(90),
            stream_overhead: SimTime::from_ns(600),
            bcopy_bytes_per_ns: 7.0,
            bcopy_max: 8192,
            bcopy_exposed: 0.08,
        }
    }

    /// The underlying link model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Bounce-buffer copy time for a message of `size` bytes (zero for zcopy sizes).
    fn bcopy_time(&self, size: usize) -> SimTime {
        if size <= self.bcopy_max {
            SimTime::from_ns_f64(size as f64 / self.bcopy_bytes_per_ns)
        } else {
            SimTime::ZERO
        }
    }

    /// One-way latency of a UCX data put of `size` bytes, as the perftest measures it.
    pub fn put_latency(&self, size: usize) -> SimTime {
        let t = self.link.put_timing(size);
        t.one_way() + self.lat_overhead + self.bcopy_time(size) * self.bcopy_exposed
    }

    /// Minimum inter-message gap in a streaming (bandwidth / message-rate) test:
    /// the software per-message cost or the wire serialization, whichever is larger.
    pub fn stream_gap(&self, size: usize) -> SimTime {
        let wire_gap = self.link.put_timing(size).gap;
        let software_gap = self.stream_overhead + self.bcopy_time(size);
        wire_gap.max(software_gap)
    }

    /// Streaming bandwidth in MiB/s for messages of `size` bytes.
    pub fn bandwidth_mib_s(&self, size: usize) -> f64 {
        let gap = self.stream_gap(size);
        let bytes_per_ns = size as f64 / gap.as_ns();
        bytes_per_ns * 1e9 / (1024.0 * 1024.0)
    }

    /// Streaming message rate in messages/s for messages of `size` bytes.
    pub fn message_rate(&self, size: usize) -> f64 {
        1e9 / self.stream_gap(size).as_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> UcxPutBaseline {
        UcxPutBaseline::new(LinkModel::connectx6_back_to_back())
    }

    #[test]
    fn latency_close_to_raw_link_latency() {
        let b = baseline();
        for &size in &[256usize, 1024, 4096, 32768] {
            let raw = b.link().put_timing(size).one_way();
            let ucx = b.put_latency(size);
            let overhead = (ucx.as_ns() - raw.as_ns()) / raw.as_ns();
            assert!(
                overhead > 0.0 && overhead < 0.15,
                "size {size}: overhead {overhead}"
            );
        }
    }

    #[test]
    fn small_message_rate_is_software_bound() {
        let b = baseline();
        let gap = b.stream_gap(256);
        assert!(
            gap >= SimTime::from_ns(500),
            "small messages pay the library overhead: {gap}"
        );
    }

    #[test]
    fn bandwidth_grows_with_message_size() {
        let b = baseline();
        let bw_small = b.bandwidth_mib_s(256);
        let bw_large = b.bandwidth_mib_s(32 * 1024);
        assert!(bw_large > bw_small * 5.0, "{bw_small} vs {bw_large}");
        // Order of magnitude check against the paper's Fig. 6 (10^3..10^4 MB/s band).
        assert!(bw_small > 100.0 && bw_small < 2_000.0, "got {bw_small}");
        assert!(bw_large > 3_000.0 && bw_large < 20_000.0, "got {bw_large}");
    }

    #[test]
    fn message_rate_is_inverse_of_gap() {
        let b = baseline();
        let rate = b.message_rate(1024);
        let gap = b.stream_gap(1024);
        assert!((rate * gap.as_ns() / 1e9 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zcopy_sizes_skip_the_bounce_copy() {
        let b = baseline();
        // Just below and just above the bcopy threshold: the larger message should
        // not pay proportionally more software time.
        let below = b.stream_gap(8192);
        let above = b.stream_gap(16384);
        // 16KiB wire time is ~1.2us which exceeds software gap; ensure the software
        // component did not balloon.
        assert!(above.as_ns() < below.as_ns() * 2.0);
    }
}
