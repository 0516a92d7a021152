//! NIC (HCA) model: doorbells, DMA delivery, and the stash port.
//!
//! On the paper's platform the PCIe root complex controlling the ConnectX-6 HCA is
//! connected into the on-chip interconnect, and traffic arriving from the network is
//! stashed into the LLC (and eventually written back to main memory). The NIC model
//! here owns that decision: when a message is delivered, the DMA engine either
//! installs the arriving cache lines into the destination LLC through the stash port
//! of the memory hierarchy, or writes them to DRAM (invalidating stale cached
//! copies), depending on whether stashing is enabled for the device.
//!
//! The NIC also serializes transmissions: two puts posted back to back cannot occupy
//! the wire at the same time, which is what bounds streaming message rate.

use parking_lot::Mutex;
use std::sync::Arc;

use twochains_memsim::{SharedHierarchy, SimTime};

use crate::link::{LinkModel, LinkTiming};

/// Per-host NIC state: transmit/receive serialization points. The stashing toggle
/// for inbound DMA (the firmware toggle for the ConnectX-6 device in the paper's
/// experiments) is the destination hierarchy's own: [`NicModel::stashing`] reads it.
#[derive(Debug)]
pub struct NicModel {
    link: LinkModel,
    /// Time until which the transmit path is busy.
    tx_busy_until: Mutex<SimTime>,
    /// Time until which the receive/DMA path is busy.
    rx_busy_until: Mutex<SimTime>,
    /// The destination memory hierarchy this NIC delivers into (internally
    /// synchronized: the DMA engine stripes into the shared LLC without a
    /// hierarchy-wide lock).
    hierarchy: Arc<SharedHierarchy>,
}

impl NicModel {
    /// Create a NIC attached to `hierarchy`, whose stashing setting is the NIC's.
    pub fn new(link: LinkModel, hierarchy: Arc<SharedHierarchy>) -> Self {
        NicModel {
            link,
            tx_busy_until: Mutex::new(SimTime::ZERO),
            rx_busy_until: Mutex::new(SimTime::ZERO),
            hierarchy,
        }
    }

    /// The link model used by this NIC.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Enable or disable LLC stashing for inbound traffic (the per-device low-level
    /// control the paper uses to toggle the feature for the ConnectX-6).
    pub fn set_stashing(&self, enabled: bool) {
        self.hierarchy.set_stashing(enabled);
    }

    /// Whether inbound stashing is currently enabled.
    pub fn stashing(&self) -> bool {
        self.hierarchy.stashing_enabled()
    }

    /// The destination memory hierarchy (shared with the host's compute side).
    pub fn hierarchy(&self) -> &Arc<SharedHierarchy> {
        &self.hierarchy
    }

    /// Reset the serialization points (between benchmark phases).
    pub fn reset(&self) {
        *self.tx_busy_until.lock() = SimTime::ZERO;
        *self.rx_busy_until.lock() = SimTime::ZERO;
    }

    /// Account for the transmit side of a put posted at `now` on the *sending* NIC:
    /// returns (time the wire transfer starts, time the tx path frees up).
    pub fn acquire_tx(&self, now: SimTime, timing: &LinkTiming) -> (SimTime, SimTime) {
        let mut busy = self.tx_busy_until.lock();
        let start = now.max(*busy);
        let free = start + timing.gap;
        *busy = free;
        (start, free)
    }

    /// Deliver `len` bytes at simulated destination address `dst_addr`, arriving at
    /// the receive path at `arrival`. Returns when the data is visible and how much
    /// DMA work it took. This is called on the *receiving* NIC.
    ///
    /// The install engine (stash port or DRAM write path) is cut-through: it keeps up
    /// with the line rate, so only the tail of the final cache line is exposed on the
    /// latency path, and back-to-back messages are spaced by the smaller of the
    /// install cost and the wire-serialization time.
    pub fn deliver(&self, arrival: SimTime, dst_addr: u64, len: usize) -> (SimTime, SimTime) {
        let mut busy = self.rx_busy_until.lock();
        let start = arrival.max(*busy);
        let dma_cost = self.hierarchy.dma_write(dst_addr, len);
        // Exposed tail: the last line's installation.
        let tail = dma_cost.min(SimTime::from_ns(12));
        let done = start + tail;
        // Throughput: the install engine is at least as fast as the wire.
        let wire_equiv = self.link.wire_time(len);
        *busy = start + dma_cost.min(wire_equiv).max(tail);
        (done, dma_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twochains_memsim::TestbedConfig;

    fn nic(stash: bool) -> NicModel {
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.llc_stashing = stash;
        let h = Arc::new(SharedHierarchy::new(cfg));
        NicModel::new(LinkModel::connectx6_back_to_back(), h)
    }

    #[test]
    fn nic_inherits_stash_setting_from_hierarchy() {
        assert!(nic(true).stashing());
        assert!(!nic(false).stashing());
    }

    #[test]
    fn toggling_stash_propagates_to_hierarchy() {
        let n = nic(true);
        n.set_stashing(false);
        assert!(!n.stashing());
        assert!(!n.hierarchy().stashing_enabled());
        n.set_stashing(true);
        assert!(n.hierarchy().stashing_enabled());
    }

    #[test]
    fn a_toggle_made_on_the_hierarchy_is_the_nics_answer_too() {
        // The hierarchy is handed out (`HostHandle::hierarchy()`) and its toggle is
        // public: the NIC keeps no copy that could disagree with the path
        // deliveries actually take.
        let n = nic(true);
        n.hierarchy().set_stashing(false);
        n.deliver(SimTime::ZERO, 0x8000, 256);
        assert_eq!(n.hierarchy().stats().dma_dram_lines, 4);
        assert!(!n.stashing(), "deliveries took the DRAM path");
        n.hierarchy().set_stashing(true);
        assert!(n.stashing());
    }

    #[test]
    fn tx_serialization_spaces_out_messages() {
        let n = nic(true);
        let timing = n.link().put_timing(16 * 1024);
        let now = SimTime::from_ns(100);
        let (s1, f1) = n.acquire_tx(now, &timing);
        let (s2, _f2) = n.acquire_tx(now, &timing);
        assert_eq!(s1, now);
        assert_eq!(s2, f1, "second message waits for the gap of the first");
        assert!(f1 > s1);
    }

    #[test]
    fn delivery_installs_lines_and_charges_dma() {
        let n = nic(true);
        let (done, cost) = n.deliver(SimTime::from_ns(500), 0x8000, 256);
        assert!(done >= SimTime::from_ns(500));
        assert!(cost > SimTime::ZERO);
        assert!(n.hierarchy().llc_contains(0x8000));
        assert_eq!(n.hierarchy().stats().stashed_lines, 4);
    }

    #[test]
    fn delivery_without_stash_goes_to_dram() {
        let n = nic(false);
        n.deliver(SimTime::ZERO, 0x8000, 256);
        assert!(!n.hierarchy().llc_contains(0x8000));
        assert_eq!(n.hierarchy().stats().dma_dram_lines, 4);
    }

    #[test]
    fn rx_serialization_orders_back_to_back_deliveries() {
        let n = nic(true);
        let (done1, _) = n.deliver(SimTime::from_ns(100), 0x0, 4096);
        let (done2, _) = n.deliver(SimTime::from_ns(100), 0x2000, 4096);
        assert!(done2 > done1, "second delivery queues behind the first");
    }

    #[test]
    fn reset_clears_serialization_points() {
        let n = nic(true);
        let timing = n.link().put_timing(64 * 1024);
        n.acquire_tx(SimTime::from_us(5), &timing);
        n.reset();
        let (s, _) = n.acquire_tx(SimTime::ZERO, &timing);
        assert_eq!(s, SimTime::ZERO);
    }
}
