//! Wire / protocol timing model for the simulated interconnect.
//!
//! The model is LogGP-flavoured: a one-sided put costs a fixed sender-side software
//! overhead, a doorbell + PCIe descriptor fetch, the wire time of the payload at the
//! effective line rate, and the receiver-side PCIe/DMA delivery. On top of that sit
//! *protocol thresholds*: like UCX, the simulated transport switches code paths as the
//! message size crosses configured boundaries, and a message that has *just* crossed a
//! boundary pays a small penalty. The paper calls this out explicitly when explaining
//! the latency irregularities of the Injected Function curve at the 8- and 256-integer
//! payloads (§VII-A): "When a message is just over the threshold size to move into a
//! new code path, there will be a slight performance degradation".
//!
//! Every constant is a row of [`twochains_memsim::cost`]: the posting, PCIe, wire
//! and delivery timings and the link efficiency are fitted so that the one-way
//! latency lands in the regime the paper reports for its back-to-back ConnectX-6
//! testbed (Fig. 5), [`LINE_RATE_GBPS`] is the paper's, and the two
//! protocol-threshold sizes are fitted to Fig. 7's steps.

use twochains_memsim::cost::{
    DELIVERY, DOORBELL, EAGER_PENALTY, EAGER_THRESHOLD, FRAGMENT_PENALTY, FRAGMENT_THRESHOLD,
    LINE_RATE_GBPS, LINK_EFFICIENCY, PCIE_READ, POST_OVERHEAD, RENDEZVOUS_THRESHOLD,
    THRESHOLD_WINDOW, WIRE_LATENCY,
};
use twochains_memsim::SimTime;

// The boundaries ascend: the two penalised ones (their windows disjoint), then
// rendezvous.
const _: () = assert!(
    EAGER_THRESHOLD + THRESHOLD_WINDOW <= FRAGMENT_THRESHOLD
        && FRAGMENT_THRESHOLD + THRESHOLD_WINDOW <= RENDEZVOUS_THRESHOLD
);

/// Decomposed timing of a single one-sided put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTiming {
    /// Time the sending CPU is busy posting the operation (software overhead +
    /// doorbell). The sender can do other work after this.
    pub sender_cpu: SimTime,
    /// Time from the doorbell ringing until the last byte has been delivered into the
    /// destination memory system (PCIe + wire + DMA), excluding the DMA engine's
    /// cache-installation cost which the memory hierarchy charges separately.
    pub(crate) network: SimTime,
    /// Minimum spacing between successive messages of this size on the wire
    /// (the LogGP "gap"); determines streaming bandwidth / message rate.
    pub gap: SimTime,
}

impl LinkTiming {
    /// Total one-way latency contribution of the link (sender CPU + network).
    pub(crate) fn one_way(&self) -> SimTime {
        self.sender_cpu + self.network
    }
}

/// Effective single-stream bandwidth in bytes per nanosecond: the line rate
/// scaled by the achievable fraction of it (protocol/framing efficiency and the
/// small servers' PCIe slot).
pub(crate) fn effective_bytes_per_ns() -> f64 {
    // Gb/s -> bytes/ns: eight bits a byte.
    LINE_RATE_GBPS / 8.0 * LINK_EFFICIENCY
}

/// Pure serialization time of `size` bytes on the wire.
pub(crate) fn wire_time(size: usize) -> SimTime {
    SimTime::from_ns_f64(size as f64 / effective_bytes_per_ns())
}

/// The "just crossed a threshold" penalty for a message of `size` bytes: one
/// in `[threshold, threshold + THRESHOLD_WINDOW)` of either boundary pays it.
pub(crate) fn threshold_penalty(size: usize) -> SimTime {
    if (EAGER_THRESHOLD..EAGER_THRESHOLD + THRESHOLD_WINDOW).contains(&size) {
        EAGER_PENALTY
    } else if (FRAGMENT_THRESHOLD..FRAGMENT_THRESHOLD + THRESHOLD_WINDOW).contains(&size) {
        FRAGMENT_PENALTY
    } else {
        SimTime::ZERO
    }
}

/// Timing of one one-sided put of `size` bytes.
pub fn put_timing(size: usize) -> LinkTiming {
    let sender_cpu = POST_OVERHEAD + DOORBELL;
    let serialization = wire_time(size);
    let mut network = PCIE_READ + WIRE_LATENCY + DELIVERY + serialization;
    network += threshold_penalty(size);
    if size >= RENDEZVOUS_THRESHOLD {
        // Rendezvous adds a control round trip before the bulk transfer.
        network += (WIRE_LATENCY + DELIVERY) * 2;
    }
    // The wire gap bounds streaming rate; per-message posting + doorbell cost
    // bounds it when messages are tiny.
    let gap = serialization.max(POST_OVERHEAD + DOORBELL);
    LinkTiming {
        sender_cpu,
        network,
        gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_is_about_a_microsecond() {
        let t = put_timing(64).one_way();
        assert!(
            t >= SimTime::from_ns(800) && t <= SimTime::from_ns(1300),
            "got {t}"
        );
    }

    #[test]
    fn latency_grows_with_size() {
        let small = put_timing(256).one_way();
        let large = put_timing(32 * 1024).one_way();
        assert!(
            large > small * 2,
            "32KiB ({large}) should be much slower than 256B ({small})"
        );
        assert!(
            large < SimTime::from_us(6),
            "but still in the microsecond regime: {large}"
        );
    }

    #[test]
    fn wire_time_matches_line_rate() {
        // 200Gb/s * 0.55 = 13.75 B/ns -> 13750 bytes take ~1000ns
        let t = wire_time(13_750);
        assert!((t.as_ns() - 1000.0).abs() < 1.0, "got {t}");
    }

    #[test]
    fn threshold_penalty_applies_just_past_the_boundary() {
        assert_eq!(threshold_penalty(1400), SimTime::ZERO);
        assert!(
            threshold_penalty(1500) > SimTime::ZERO,
            "1500B just crossed 1498"
        );
        assert_eq!(
            threshold_penalty(1600),
            SimTime::ZERO,
            "well past the window"
        );
        assert!(
            threshold_penalty(2492) > SimTime::ZERO,
            "2492B just crossed 2490"
        );
        assert_eq!(threshold_penalty(3000), SimTime::ZERO);
    }

    #[test]
    fn injected_frame_sizes_hit_the_paper_artifacts() {
        // The Injected Function Indirect Put frame is 1468 + 4*n bytes before rounding
        // (1472 bytes for one integer). The paper observes artifacts at n=8 and n=256.
        let frame = |n: usize| 1468 + 4 * n;
        assert!(threshold_penalty(frame(8)) > SimTime::ZERO);
        assert!(threshold_penalty(frame(256)) > SimTime::ZERO);
        assert_eq!(threshold_penalty(frame(4)), SimTime::ZERO);
        assert_eq!(threshold_penalty(frame(64)), SimTime::ZERO);
        assert_eq!(threshold_penalty(frame(1024)), SimTime::ZERO);
    }

    #[test]
    fn local_frame_sizes_avoid_the_artifacts() {
        // Local Function frames are 60 + 4*n bytes (64 B for one integer); none of the
        // swept payload sizes should land in a penalty window.
        for n in [
            1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
        ] {
            assert_eq!(threshold_penalty(60 + 4 * n), SimTime::ZERO, "n={n}");
        }
    }

    #[test]
    fn gap_is_wire_bound_for_large_and_cpu_bound_for_small() {
        let small = put_timing(64);
        let large = put_timing(64 * 1024);
        assert_eq!(small.gap, POST_OVERHEAD + DOORBELL);
        assert!(large.gap > small.gap);
    }

    #[test]
    fn rendezvous_adds_a_control_round_trip() {
        let below = put_timing(RENDEZVOUS_THRESHOLD - 1);
        let above = put_timing(RENDEZVOUS_THRESHOLD);
        assert!(above.network > below.network + SimTime::from_ns(500));
    }
}
