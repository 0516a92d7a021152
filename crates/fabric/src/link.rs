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
//! Default constants are calibrated so that the small-message one-way latency and the
//! large-message latency land in the same regime the paper reports for its
//! back-to-back ConnectX-6 testbed (≈1 µs at 256 B rising to a few µs at 32 KiB).

use twochains_memsim::SimTime;

/// The protocol (code path) the transport selects for a given message size. Mirrors
/// the UCX short / bcopy (eager copy-based) / zcopy (registered eager) / rendezvous
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Tiny messages inlined into the work request.
    Short,
    /// Eager, copy-based send through a bounce buffer.
    Bcopy,
    /// Eager zero-copy from registered memory.
    Zcopy,
    /// Rendezvous (RTS/CTS) for very large transfers.
    Rendezvous,
}

/// One threshold in the protocol ladder: crossing `size` switches code paths; messages
/// in `[size, size + window)` pay `penalty` extra latency (the paper's "just over the
/// threshold" effect).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolThreshold {
    /// Boundary size in bytes.
    pub size: usize,
    /// Width of the penalized window just above the boundary.
    pub window: usize,
    /// Extra latency charged inside the window.
    pub penalty: SimTime,
}

/// Decomposed timing of a single one-sided put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTiming {
    /// Time the sending CPU is busy posting the operation (software overhead +
    /// doorbell). The sender can do other work after this.
    pub sender_cpu: SimTime,
    /// Time from the doorbell ringing until the last byte has been delivered into the
    /// destination memory system (PCIe + wire + DMA), excluding the DMA engine's
    /// cache-installation cost which the memory hierarchy charges separately.
    pub network: SimTime,
    /// Minimum spacing between successive messages of this size on the wire
    /// (the LogGP "gap"); determines streaming bandwidth / message rate.
    pub gap: SimTime,
}

impl LinkTiming {
    /// Total one-way latency contribution of the link (sender CPU + network).
    pub fn one_way(&self) -> SimTime {
        self.sender_cpu + self.network
    }
}

/// Link and protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// Sender software overhead to build/post a work request (ns-scale).
    pub post_overhead: SimTime,
    /// MMIO doorbell write reaching the HCA.
    pub doorbell: SimTime,
    /// HCA descriptor + payload fetch over PCIe on the sending side.
    pub pcie_read: SimTime,
    /// Cable propagation + switchless port-to-port forwarding.
    pub wire_latency: SimTime,
    /// Receiver-side PCIe write / delivery overhead.
    pub delivery: SimTime,
    /// Line rate in gigabits per second (200 for ConnectX-6).
    pub line_rate_gbps: f64,
    /// Fraction of the line rate achievable end to end for a single stream
    /// (protocol/framing efficiency and the small servers' PCIe Gen4 x? slot).
    pub efficiency: f64,
    /// Protocol ladder boundaries.
    pub thresholds: Vec<ProtocolThreshold>,
    /// Size above which the rendezvous protocol kicks in.
    pub rendezvous_threshold: usize,
}

impl LinkModel {
    /// Parameters modelling the paper's back-to-back ConnectX-6 / PCIe Gen4 testbed.
    pub fn connectx6_back_to_back() -> Self {
        LinkModel {
            post_overhead: SimTime::from_ns(90),
            doorbell: SimTime::from_ns(150),
            pcie_read: SimTime::from_ns(200),
            wire_latency: SimTime::from_ns(300),
            delivery: SimTime::from_ns(250),
            line_rate_gbps: 200.0,
            efficiency: 0.55,
            thresholds: vec![
                // UCX-like eager-short -> bcopy switch; the Injected Function frame
                // for a handful of integers (≈1.5 KiB) lands just above it.
                ProtocolThreshold {
                    size: 1498,
                    window: 32,
                    penalty: SimTime::from_ns(90),
                },
                // bcopy fragmentation boundary; the ≈2.5 KiB Injected frame for 256
                // integers lands just above it.
                ProtocolThreshold {
                    size: 2490,
                    window: 32,
                    penalty: SimTime::from_ns(110),
                },
            ],
            rendezvous_threshold: 64 * 1024,
        }
    }

    /// Effective single-stream bandwidth in bytes per nanosecond.
    pub fn effective_bytes_per_ns(&self) -> f64 {
        // Gb/s -> bytes/ns: 200 Gb/s = 25 B/ns.
        self.line_rate_gbps / 8.0 * self.efficiency
    }

    /// Pure serialization time of `size` bytes on the wire.
    pub fn wire_time(&self, size: usize) -> SimTime {
        SimTime::from_ns_f64(size as f64 / self.effective_bytes_per_ns())
    }

    /// Which protocol a message of `size` bytes selects.
    pub fn protocol(&self, size: usize) -> Protocol {
        if size >= self.rendezvous_threshold {
            return Protocol::Rendezvous;
        }
        let mut crossed = 0;
        for t in &self.thresholds {
            if size > t.size {
                crossed += 1;
            }
        }
        match crossed {
            0 => {
                if size <= 92 {
                    Protocol::Short
                } else {
                    Protocol::Bcopy
                }
            }
            1 => Protocol::Bcopy,
            _ => Protocol::Zcopy,
        }
    }

    /// The "just crossed a threshold" penalty for a message of `size` bytes.
    pub fn threshold_penalty(&self, size: usize) -> SimTime {
        for t in &self.thresholds {
            if size >= t.size && size < t.size + t.window {
                return t.penalty;
            }
        }
        SimTime::ZERO
    }

    /// Timing of one one-sided put of `size` bytes.
    pub fn put_timing(&self, size: usize) -> LinkTiming {
        let sender_cpu = self.post_overhead + self.doorbell;
        let serialization = self.wire_time(size);
        let mut network = self.pcie_read + self.wire_latency + self.delivery + serialization;
        network += self.threshold_penalty(size);
        if size >= self.rendezvous_threshold {
            // Rendezvous adds a control round trip before the bulk transfer.
            network += (self.wire_latency + self.delivery) * 2;
        }
        // The wire gap bounds streaming rate; per-message posting + doorbell cost
        // bounds it when messages are tiny.
        let gap = serialization.max(self.post_overhead + self.doorbell);
        LinkTiming {
            sender_cpu,
            network,
            gap,
        }
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::connectx6_back_to_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_is_about_a_microsecond() {
        let m = LinkModel::connectx6_back_to_back();
        let t = m.put_timing(64).one_way();
        assert!(
            t >= SimTime::from_ns(800) && t <= SimTime::from_ns(1300),
            "got {t}"
        );
    }

    #[test]
    fn latency_grows_with_size() {
        let m = LinkModel::connectx6_back_to_back();
        let small = m.put_timing(256).one_way();
        let large = m.put_timing(32 * 1024).one_way();
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
        let m = LinkModel::connectx6_back_to_back();
        // 200Gb/s * 0.55 = 13.75 B/ns -> 13750 bytes take ~1000ns
        let t = m.wire_time(13_750);
        assert!((t.as_ns() - 1000.0).abs() < 1.0, "got {t}");
    }

    #[test]
    fn protocol_ladder() {
        let m = LinkModel::connectx6_back_to_back();
        assert_eq!(m.protocol(32), Protocol::Short);
        assert_eq!(m.protocol(1024), Protocol::Bcopy);
        assert_eq!(m.protocol(2000), Protocol::Bcopy);
        assert_eq!(m.protocol(4096), Protocol::Zcopy);
        assert_eq!(m.protocol(128 * 1024), Protocol::Rendezvous);
    }

    #[test]
    fn threshold_penalty_applies_just_past_the_boundary() {
        let m = LinkModel::connectx6_back_to_back();
        assert_eq!(m.threshold_penalty(1400), SimTime::ZERO);
        assert!(
            m.threshold_penalty(1500) > SimTime::ZERO,
            "1500B just crossed 1498"
        );
        assert_eq!(
            m.threshold_penalty(1600),
            SimTime::ZERO,
            "well past the window"
        );
        assert!(
            m.threshold_penalty(2492) > SimTime::ZERO,
            "2492B just crossed 2490"
        );
        assert_eq!(m.threshold_penalty(3000), SimTime::ZERO);
    }

    #[test]
    fn injected_frame_sizes_hit_the_paper_artifacts() {
        // The Injected Function Indirect Put frame is 1468 + 4*n bytes before rounding
        // (1472 bytes for one integer). The paper observes artifacts at n=8 and n=256.
        let m = LinkModel::connectx6_back_to_back();
        let frame = |n: usize| 1468 + 4 * n;
        assert!(m.threshold_penalty(frame(8)) > SimTime::ZERO);
        assert!(m.threshold_penalty(frame(256)) > SimTime::ZERO);
        assert_eq!(m.threshold_penalty(frame(4)), SimTime::ZERO);
        assert_eq!(m.threshold_penalty(frame(64)), SimTime::ZERO);
        assert_eq!(m.threshold_penalty(frame(1024)), SimTime::ZERO);
    }

    #[test]
    fn local_frame_sizes_avoid_the_artifacts() {
        // Local Function frames are 60 + 4*n bytes (64 B for one integer); none of the
        // swept payload sizes should land in a penalty window.
        let m = LinkModel::connectx6_back_to_back();
        for n in [
            1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
        ] {
            assert_eq!(m.threshold_penalty(60 + 4 * n), SimTime::ZERO, "n={n}");
        }
    }

    #[test]
    fn gap_is_wire_bound_for_large_and_cpu_bound_for_small() {
        let m = LinkModel::connectx6_back_to_back();
        let small = m.put_timing(64);
        let large = m.put_timing(64 * 1024);
        assert_eq!(small.gap, m.post_overhead + m.doorbell);
        assert!(large.gap > small.gap);
    }

    #[test]
    fn rendezvous_adds_a_control_round_trip() {
        let mut m = LinkModel::connectx6_back_to_back();
        m.rendezvous_threshold = 8192;
        let below = m.put_timing(8191);
        let above = m.put_timing(8192);
        assert!(above.network > below.network + SimTime::from_ns(500));
    }
}
