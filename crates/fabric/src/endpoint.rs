//! Endpoints (queue pairs) and one-sided operations.
//!
//! An [`Endpoint`] connects a source host to a destination host and exposes the
//! one-sided operations Two-Chains relies on: `put` (RDMA write), `get` (RDMA read),
//! a fetch-and-add atomic, `fence` and `flush`. Data movement is real — the bytes are
//! copied into the destination's registered region — and every operation returns the
//! virtual-time accounting the benchmarks use.
//!
//! ## Thread placement
//!
//! An `Endpoint` is `Send`: every shared structure it references (host region
//! table, NIC serialization points, the cache hierarchy the DMA engine installs
//! into) is internally synchronized, so a multi-sender runtime can park one
//! endpoint per sender thread over the same [`SimFabric`](crate::fabric::SimFabric).
//! Puts issued concurrently from different endpoints of the same source host
//! still serialize on that host's transmit pipeline
//! ([`NicModel::acquire_tx`](crate::nic::NicModel::acquire_tx)) in virtual
//! time — overlapped puts are charged the wire contention they would really
//! cost, never a free ride.
//!
//! ## Write ordering and signals
//!
//! The paper's mailbox protocol relies on the receiver observing the *last* byte of
//! the frame (the `SIG MAG` magic) only after all preceding bytes are visible. On
//! fabrics that guarantee ordering (the paper's testbed does) the whole frame can go
//! in one put; otherwise the signal must be a separate put preceded by a fence. Both
//! modes are supported: [`Endpoint::put`] publishes the final byte of every write
//! with `Release` ordering, and [`Endpoint::put_unordered`] + [`Endpoint::fence`] +
//! separate signal puts model the conservative path.

use std::sync::Arc;

use twochains_memsim::SimTime;

use crate::error::{FabricError, FabricResult};
use crate::fabric::HostState;
use crate::fault::{DeferredPut, EndpointFaults, FaultAction};
use crate::link::LinkModel;
use crate::region::{MemoryRegion, RegionDescriptor};
use crate::rkey::check_permission;

/// Timing outcome of a one-sided operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// When the initiating CPU is free again (posting overhead done).
    pub sender_free: SimTime,
    /// When the data (including the signal byte, if any) is visible to the
    /// destination CPU.
    pub delivered: SimTime,
    /// DMA-engine time spent installing the data (stash or DRAM path); already
    /// included in `delivered`, broken out for statistics.
    pub dma_cost: SimTime,
    /// Number of payload bytes moved.
    pub bytes: usize,
}

/// A one-sided communication endpoint from a source host to a destination host.
pub struct Endpoint {
    link: LinkModel,
    src: Arc<HostState>,
    dst: Arc<HostState>,
    /// Completion horizon: when every operation issued so far is delivered.
    last_delivered: SimTime,
    /// Statistics: operations and bytes issued.
    ops: u64,
    bytes: u64,
    /// Fault-injection state captured at creation time when a
    /// [`FaultPlan`](crate::fault::FaultPlan) is installed on this link.
    faults: Option<EndpointFaults>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("src", &self.src.id)
            .field("dst", &self.dst.id)
            .field("ops", &self.ops)
            .finish()
    }
}

impl Endpoint {
    pub(crate) fn new(
        link: LinkModel,
        src: Arc<HostState>,
        dst: Arc<HostState>,
        faults: Option<EndpointFaults>,
    ) -> Self {
        Endpoint {
            link,
            src,
            dst,
            last_delivered: SimTime::ZERO,
            ops: 0,
            bytes: 0,
            faults,
        }
    }

    /// Whether this endpoint was created under an installed
    /// [`FaultPlan`](crate::fault::FaultPlan) — i.e. its puts may be dropped,
    /// duplicated or reordered. Senders use this to arm their retransmit
    /// machinery only when it can ever be needed.
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// The link model this endpoint uses.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Number of operations issued.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Number of payload bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn validate(
        &self,
        desc: &RegionDescriptor,
        offset: usize,
        len: usize,
        op: &'static str,
    ) -> FabricResult<Arc<crate::region::MemoryRegion>> {
        if desc.host != self.dst.id.index() {
            return Err(FabricError::NotConnected {
                from: self.src.id.index(),
                to: desc.host,
            });
        }
        let region = self.dst.find_region(desc.base_addr, desc.len)?;
        // The HCA validates the presented rkey against the memory region's key and
        // checks the granted permissions before touching memory.
        region.rkey().validate(desc.rkey)?;
        check_permission(region.flags(), op)?;
        // Checked before any model state moves: an offset that wraps must not
        // slip past as a small sum, charge the pipelines and stash lines at a
        // wrapped address before the region refuses it.
        if offset.checked_add(len).is_none_or(|end| end > region.len()) {
            return Err(FabricError::OutOfBounds {
                offset,
                len,
                region_len: region.len(),
            });
        }
        Ok(region)
    }

    /// One-sided put of `data` into the remote region described by `desc`, at
    /// `offset`, issued at virtual time `now`. The final byte is published with
    /// `Release` ordering so a receiver polling it with `Acquire` observes the whole
    /// frame — the ordered-delivery fast path (§III-A, "Modern servers ... enforce
    /// ordering ... so we can send the entire message in one put operation").
    pub fn put(
        &mut self,
        now: SimTime,
        data: &[u8],
        desc: &RegionDescriptor,
        offset: usize,
    ) -> FabricResult<PutOutcome> {
        self.put_inner(now, data, desc, offset, true)
    }

    /// A put that does *not* publish its last byte with release ordering, modelling a
    /// fabric without inter-put ordering guarantees. Use [`Endpoint::fence`] and a
    /// separate signal put ([`Endpoint::put`] of the signal byte) to build the
    /// conservative protocol.
    pub fn put_unordered(
        &mut self,
        now: SimTime,
        data: &[u8],
        desc: &RegionDescriptor,
        offset: usize,
    ) -> FabricResult<PutOutcome> {
        self.put_inner(now, data, desc, offset, false)
    }

    fn put_inner(
        &mut self,
        now: SimTime,
        data: &[u8],
        desc: &RegionDescriptor,
        offset: usize,
        publish: bool,
    ) -> FabricResult<PutOutcome> {
        if data.is_empty() {
            return Err(FabricError::InvalidArgument("empty put"));
        }
        let region = self.validate(desc, offset, data.len(), "put")?;
        let timing = self.link.put_timing(data.len());

        // Sender CPU posts the work request, rings the doorbell.
        let sender_free = now + timing.sender_cpu;
        // The transmit pipeline serializes messages (streaming gap).
        let (wire_start, _tx_free) = self.src.nic.acquire_tx(sender_free, &timing);
        let arrival = wire_start + timing.network;
        // Receiver-side DMA installs the data (stash or DRAM) and serializes with
        // other inbound traffic.
        let dst_addr = desc.base_addr + offset as u64;
        let (delivered, dma_cost) = match self.faults.as_mut() {
            None => {
                let (delivered, dma_cost) = self.dst.nic.deliver(arrival, dst_addr, data.len());
                Self::land(&region, offset, data, publish)?;
                (delivered, dma_cost)
            }
            Some(faults) => {
                let at = DeferredPut {
                    region,
                    offset,
                    dst_addr,
                    data: Vec::new(),
                    publish,
                };
                Self::deliver_faulty(faults, &self.dst, at, data, arrival)?
            }
        };

        self.ops += 1;
        self.bytes += data.len() as u64;
        self.last_delivered = self.last_delivered.max(delivered);
        Ok(PutOutcome {
            sender_free,
            delivered,
            dma_cost,
            bytes: data.len(),
        })
    }

    /// Move the actual bytes into the destination region, publishing the final
    /// byte with `Release` ordering when asked.
    fn land(
        region: &Arc<MemoryRegion>,
        offset: usize,
        data: &[u8],
        publish: bool,
    ) -> FabricResult<()> {
        if !publish {
            return region.write(offset, data);
        }
        // The signal byte is written once, by the release: a relaxed copy of it
        // would let a reader's acquire load pair with that copy instead.
        let (signal, body) = data.split_last().expect("puts are never empty");
        region.write(offset, body)?;
        region.store_release_u8(offset + body.len(), *signal)
    }

    /// The delivery half of a put on a faulty link. The transmit side has
    /// already been charged (a dropped put consumes its tx-pipeline time like
    /// any other), so this decides what actually lands and when:
    ///
    /// 1. duplicate copies deferred by earlier puts land first (they can never
    ///    clobber the current put's bytes),
    /// 2. the current put rolls the die — delivered, dropped, duplicated (copy
    ///    deferred) or held (deferred whole),
    /// 3. originals held by earlier reorder faults land last, completing the
    ///    adjacent-delivery swap.
    ///
    /// `at` is where `data` goes (its own `data` stays empty until deferred).
    fn deliver_faulty(
        faults: &mut EndpointFaults,
        dst: &HostState,
        at: DeferredPut,
        data: &[u8],
        arrival: SimTime,
    ) -> FabricResult<(SimTime, SimTime)> {
        let (dups, held) = (
            std::mem::take(&mut faults.dups),
            std::mem::take(&mut faults.held),
        );
        Self::redeliver(faults, dst, dups, arrival)?;
        let outcome = match faults.roll() {
            FaultAction::Drop => (arrival, SimTime::ZERO),
            FaultAction::Hold => {
                faults.held.push(DeferredPut {
                    data: data.to_vec(),
                    ..at
                });
                // The sender observes the timing it would have seen: it cannot
                // tell a held (or lost) put from a delivered one.
                (arrival, SimTime::ZERO)
            }
            FaultAction::Duplicate => {
                let outcome = dst.nic.deliver(arrival, at.dst_addr, data.len());
                Self::land(&at.region, at.offset, data, at.publish)?;
                faults.dups.push(DeferredPut {
                    data: data.to_vec(),
                    ..at
                });
                outcome
            }
            FaultAction::Deliver => {
                let outcome = dst.nic.deliver(arrival, at.dst_addr, data.len());
                Self::land(&at.region, at.offset, data, at.publish)?;
                outcome
            }
        };
        Self::redeliver(faults, dst, held, arrival)?;
        Ok(outcome)
    }

    /// Land puts an earlier fault deferred, counting each one redelivered.
    fn redeliver(
        faults: &EndpointFaults,
        dst: &HostState,
        puts: Vec<DeferredPut>,
        arrival: SimTime,
    ) -> FabricResult<()> {
        for p in puts {
            dst.nic.deliver(arrival, p.dst_addr, p.data.len());
            Self::land(&p.region, p.offset, &p.data, p.publish)?;
            faults.note_redelivered();
        }
        Ok(())
    }

    /// One-sided get (RDMA read) of `len` bytes from the remote region.
    pub fn get(
        &mut self,
        now: SimTime,
        desc: &RegionDescriptor,
        offset: usize,
        len: usize,
    ) -> FabricResult<(Vec<u8>, PutOutcome)> {
        if len == 0 {
            return Err(FabricError::InvalidArgument("empty get"));
        }
        let region = self.validate(desc, offset, len, "get")?;
        let timing = self.link.get_timing(len);
        let sender_free = now + timing.sender_cpu;
        let (wire_start, _tx_free) = self.src.nic.acquire_tx(sender_free, &timing);
        let delivered = wire_start + timing.network;
        let data = region.read(offset, len)?;
        self.ops += 1;
        self.bytes += len as u64;
        self.last_delivered = self.last_delivered.max(delivered);
        Ok((
            data,
            PutOutcome {
                sender_free,
                delivered,
                dma_cost: SimTime::ZERO,
                bytes: len,
            },
        ))
    }

    /// Remote fetch-and-add on an 8-byte-aligned offset. Returns the previous value.
    pub fn atomic_add(
        &mut self,
        now: SimTime,
        desc: &RegionDescriptor,
        offset: usize,
        operand: u64,
    ) -> FabricResult<(u64, PutOutcome)> {
        let region = self.validate(desc, offset, 8, "atomic")?;
        let timing = self.link.get_timing(8); // atomics are round-trip operations
        let sender_free = now + timing.sender_cpu;
        let (wire_start, _tx_free) = self.src.nic.acquire_tx(sender_free, &timing);
        let delivered = wire_start + timing.network;
        let old = region.fetch_add_u64(offset, operand)?;
        self.ops += 1;
        self.bytes += 8;
        self.last_delivered = self.last_delivered.max(delivered);
        Ok((
            old,
            PutOutcome {
                sender_free,
                delivered,
                dma_cost: SimTime::ZERO,
                bytes: 8,
            },
        ))
    }

    /// Issue a fence: subsequent operations are not delivered before all preceding
    /// ones. On an ordered fabric this is free; on an unordered one it costs a small
    /// fixed overhead and pushes the ordering horizon forward.
    pub fn fence(&mut self, now: SimTime) -> SimTime {
        if self.link.ordered_delivery {
            now
        } else {
            // The fence forces the initiator to wait for prior deliveries before
            // posting the next operation.
            self.last_delivered.max(now) + SimTime::from_ns(40)
        }
    }

    /// Wait (in virtual time) until every operation issued so far has been delivered.
    pub fn flush(&self, now: SimTime) -> SimTime {
        self.last_delivered.max(now)
    }

    /// Reset timing/ordering state between benchmark phases (the data already written
    /// to remote regions is untouched).
    pub fn reset(&mut self) {
        self.last_delivered = SimTime::ZERO;
        self.ops = 0;
        self.bytes = 0;
        self.src.nic.reset();
        self.dst.nic.reset();
        if let Some(f) = self.faults.as_mut() {
            f.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{HostId, SimFabric};
    use crate::rkey::{AccessFlags, RKey};
    use twochains_memsim::TestbedConfig;

    fn setup() -> (SimFabric, HostId, HostId) {
        SimFabric::back_to_back(TestbedConfig::tiny_for_tests())
    }

    #[test]
    fn put_moves_bytes_and_reports_timing() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rwx())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let out = ep
            .put(SimTime::ZERO, b"function injection", &desc, 100)
            .unwrap();
        assert_eq!(dst_region.read(100, 18).unwrap(), b"function injection");
        assert!(out.delivered > out.sender_free);
        assert!(
            out.delivered > SimTime::from_ns(900),
            "one-way should be ~1us, got {}",
            out.delivered
        );
        assert_eq!(out.bytes, 18);
        assert_eq!(ep.ops(), 1);
        assert_eq!(ep.bytes(), 18);
    }

    #[test]
    fn put_with_wrong_rkey_is_rejected() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rwx())
            .unwrap();
        let mut desc = dst_region.descriptor();
        desc.rkey = RKey(desc.rkey.raw() ^ 0xFFFF);
        let mut ep = fabric.endpoint(a, b).unwrap();
        let err = ep.put(SimTime::ZERO, b"x", &desc, 0).unwrap_err();
        assert!(matches!(err, FabricError::InvalidRkey { .. }));
    }

    #[test]
    fn put_to_readonly_region_is_rejected() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::ro())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        assert!(matches!(
            ep.put(SimTime::ZERO, b"x", &desc, 0),
            Err(FabricError::PermissionDenied { .. })
        ));
        // but gets are fine
        assert!(ep.get(SimTime::ZERO, &desc, 0, 16).is_ok());
    }

    #[test]
    fn out_of_bounds_put_is_rejected() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(64, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        assert!(matches!(
            ep.put(SimTime::ZERO, &[0u8; 65], &desc, 0),
            Err(FabricError::OutOfBounds { .. })
        ));
        assert!(ep.put(SimTime::ZERO, &[0u8; 64], &desc, 0).is_ok());
    }

    #[test]
    fn a_wrapping_offset_is_refused_before_any_model_state_moves() {
        // `offset + len` wraps to 1, 1 and 6: unchecked, the sum passes in a
        // release build (tx pipeline charged, two lines stashed at a wrapped
        // address, then `MemoryRegion::write` refuses) and panics in a debug one.
        let valid_put_delivered = |poisoned: bool| {
            let (fabric, a, b) = setup();
            let host = fabric.host(b).unwrap();
            let desc = host.register(64, AccessFlags::rwx()).unwrap().descriptor();
            let mut ep = fabric.endpoint(a, b).unwrap();
            if poisoned {
                let at = usize::MAX - 1;
                let refused = [
                    ep.put(SimTime::ZERO, b"abc", &desc, at).err(),
                    ep.get(SimTime::ZERO, &desc, at, 3).err(),
                    ep.atomic_add(SimTime::ZERO, &desc, at, 1).err(),
                ];
                for err in refused {
                    assert!(
                        matches!(err, Some(FabricError::OutOfBounds { .. })),
                        "{err:?}"
                    );
                }
                assert_eq!(host.hierarchy().stats().stashed_lines, 0);
                assert_eq!(ep.ops(), 0);
            }
            ep.put(SimTime::ZERO, b"abc", &desc, 0).unwrap().delivered
        };
        assert_eq!(valid_put_delivered(true), valid_put_delivered(false));
    }

    #[test]
    fn get_reads_remote_memory() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(128, AccessFlags::rw())
            .unwrap();
        dst_region.write(0, b"remote state").unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let (data, out) = ep.get(SimTime::ZERO, &desc, 0, 12).unwrap();
        assert_eq!(data, b"remote state");
        assert!(
            out.delivered > SimTime::from_ns(1000),
            "get is a round trip"
        );
    }

    #[test]
    fn atomic_add_round_trips() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(64, AccessFlags::rwx())
            .unwrap();
        dst_region.store_u64(8, 100).unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let (old, _) = ep.atomic_add(SimTime::ZERO, &desc, 8, 5).unwrap();
        assert_eq!(old, 100);
        assert_eq!(dst_region.load_u64(8).unwrap(), 105);
        assert!(matches!(
            ep.atomic_add(SimTime::ZERO, &desc, 3, 1),
            Err(FabricError::Misaligned { .. })
        ));
    }

    #[test]
    fn larger_puts_take_longer() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(64 * 1024, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let small = ep.put(SimTime::ZERO, &[1u8; 64], &desc, 0).unwrap();
        ep.reset();
        let large = ep.put(SimTime::ZERO, &[1u8; 32 * 1024], &desc, 0).unwrap();
        assert!(large.delivered > small.delivered);
    }

    #[test]
    fn flush_reports_completion_horizon() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(8192, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        assert_eq!(ep.flush(SimTime::from_ns(5)), SimTime::from_ns(5));
        let o1 = ep.put(SimTime::ZERO, &[0u8; 4096], &desc, 0).unwrap();
        let o2 = ep.put(o1.sender_free, &[0u8; 4096], &desc, 4096).unwrap();
        assert_eq!(ep.flush(SimTime::ZERO), o2.delivered.max(o1.delivered));
    }

    /// The sender fleet moves one endpoint per sender thread; this does not
    /// compile unless every host structure an endpoint references is `Sync`.
    #[test]
    fn endpoint_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Endpoint>();
    }

    #[test]
    fn concurrent_puts_share_the_tx_pipeline_honestly() {
        // Two sender threads, each with its own endpoint from the same source
        // host, blast puts "simultaneously" (all posted at virtual time zero).
        // The shared NIC must serialize them in virtual time: a put issued
        // after both threads join cannot start before ~2N transmit gaps have
        // been consumed, i.e. overlapped puts are charged wire contention
        // instead of each stream pretending it owns the NIC.
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(64 * 1024, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let n = 25usize;
        let size = 1024usize;
        std::thread::scope(|s| {
            for t in 0..2usize {
                let mut ep = fabric.endpoint(a, b).unwrap();
                s.spawn(move || {
                    for i in 0..n {
                        ep.put(
                            SimTime::ZERO,
                            &vec![t as u8; size],
                            &desc,
                            (t * n + i) * size,
                        )
                        .unwrap();
                    }
                });
            }
        });
        let mut ep = fabric.endpoint(a, b).unwrap();
        let out = ep.put(SimTime::ZERO, &[9u8; 1024], &desc, 0).unwrap();
        let gap = ep.link().put_timing(size).gap;
        assert!(
            out.delivered >= gap * (2 * n) as u64,
            "the 51st put must queue behind 50 transmit gaps ({} < {})",
            out.delivered,
            gap * (2 * n) as u64
        );
    }

    #[test]
    fn fence_is_free_on_ordered_fabric() {
        let (fabric, a, b) = setup();
        let mut ep = fabric.endpoint(a, b).unwrap();
        assert_eq!(ep.fence(SimTime::from_ns(10)), SimTime::from_ns(10));
    }

    #[test]
    fn fence_waits_on_unordered_fabric() {
        use crate::fabric::FabricConfig;
        let mut cfg = FabricConfig::default();
        cfg.link.ordered_delivery = false;
        let fabric = SimFabric::new(cfg);
        let a = fabric.add_host(TestbedConfig::tiny_for_tests());
        let b = fabric.add_host(TestbedConfig::tiny_for_tests());
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let out = ep
            .put_unordered(SimTime::ZERO, &[7u8; 1024], &desc, 0)
            .unwrap();
        let after_fence = ep.fence(out.sender_free);
        assert!(
            after_fence >= out.delivered,
            "fence must wait for outstanding puts"
        );
    }

    /// Satellite contract: `put`s issued on one endpoint become visible in
    /// issue order — later puts are never delivered earlier — which is the
    /// foundation the receiver's sequence-gap detection stands on.
    #[test]
    fn puts_on_one_endpoint_deliver_in_issue_order() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let mut now = SimTime::ZERO;
        let mut prev = SimTime::ZERO;
        for i in 0..8u8 {
            let out = ep.put(now, &[i; 64], &desc, 0).unwrap();
            assert!(
                out.delivered >= prev,
                "put {i} delivered before its predecessor"
            );
            prev = out.delivered;
            now = out.sender_free;
        }
        // Last writer wins at the destination: issue order is delivery order.
        assert_eq!(dst_region.read(0, 1).unwrap(), vec![7]);
        // On the ordered fabric the visibility guarantee costs no fence.
        assert_eq!(ep.fence(now), now);
    }

    /// Satellite contract: `put_unordered` moves the bytes but grants no
    /// inter-put ordering — the initiator must fence before the signal put, and
    /// the fence is what waits for outstanding deliveries.
    #[test]
    fn put_unordered_requires_a_fence_before_the_signal() {
        use crate::fabric::FabricConfig;
        let mut cfg = FabricConfig::default();
        cfg.link.ordered_delivery = false;
        let fabric = SimFabric::new(cfg);
        let a = fabric.add_host(TestbedConfig::tiny_for_tests());
        let b = fabric.add_host(TestbedConfig::tiny_for_tests());
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let body = ep
            .put_unordered(SimTime::ZERO, &[1u8; 256], &desc, 0)
            .unwrap();
        // The bytes themselves move (data path is real)...
        assert_eq!(dst_region.read(0, 1).unwrap(), vec![1]);
        // ...but the signal may not be posted until a fence has waited for the
        // body: the fence horizon covers the body's delivery.
        let fenced = ep.fence(body.sender_free);
        assert!(fenced >= body.delivered);
        let sig = ep.put(fenced, &[0xC3], &desc, 255).unwrap();
        assert!(sig.delivered > body.delivered);
    }

    #[test]
    fn dropped_puts_charge_tx_time_but_never_land() {
        use crate::fault::FaultPlan;
        let (fabric, a, b) = setup();
        fabric
            .install_fault_plan(a, b, FaultPlan::drop_only(1.0, 11))
            .unwrap();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        assert!(ep.faults_enabled());
        let out = ep.put(SimTime::ZERO, &[9u8; 128], &desc, 0).unwrap();
        // The sender cannot tell: timing looks like any other put.
        assert!(out.delivered > out.sender_free);
        assert_eq!(ep.ops(), 1);
        // But nothing landed.
        assert_eq!(dst_region.read(0, 128).unwrap(), vec![0u8; 128]);
        let snap = fabric.fault_counters(a, b).unwrap();
        assert_eq!(snap.dropped, 1);
        // The tx pipeline was still consumed: a follow-up put queues behind it.
        let timing = ep.link().put_timing(128);
        let next = ep.put(SimTime::ZERO, &[1u8; 128], &desc, 256).unwrap();
        assert!(next.delivered >= out.sender_free + timing.gap);
    }

    #[test]
    fn duplicated_put_replays_after_the_receiver_consumed_it() {
        use crate::fault::FaultPlan;
        let (fabric, a, b) = setup();
        fabric
            .install_fault_plan(
                a,
                b,
                FaultPlan {
                    drop: 0.0,
                    duplicate: 1.0,
                    reorder: 0.0,
                    seed: 5,
                },
            )
            .unwrap();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let o1 = ep.put(SimTime::ZERO, b"AAAA", &desc, 0).unwrap();
        assert_eq!(dst_region.read(0, 4).unwrap(), b"AAAA");
        // The receiver consumes and clears the slot...
        dst_region.fill(0, 4, 0).unwrap();
        // ...and the next put on the endpoint flushes the late copy first: the
        // stale frame is revived, exactly the replay the receiver must suppress.
        ep.put(o1.sender_free, b"BBBB", &desc, 64).unwrap();
        assert_eq!(dst_region.read(0, 4).unwrap(), b"AAAA");
        assert_eq!(dst_region.read(64, 4).unwrap(), b"BBBB");
        let snap = fabric.fault_counters(a, b).unwrap();
        assert_eq!(snap.duplicated, 2);
        assert_eq!(snap.redelivered, 1);
    }

    #[test]
    fn reordered_puts_swap_adjacent_deliveries() {
        use crate::fault::FaultPlan;
        let (fabric, a, b) = setup();
        fabric
            .install_fault_plan(
                a,
                b,
                FaultPlan {
                    drop: 0.0,
                    duplicate: 0.0,
                    reorder: 1.0,
                    seed: 5,
                },
            )
            .unwrap();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(4096, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        let o1 = ep.put(SimTime::ZERO, b"AAAA", &desc, 0).unwrap();
        // Held: nothing visible yet.
        assert_eq!(dst_region.read(0, 4).unwrap(), vec![0u8; 4]);
        let o2 = ep.put(o1.sender_free, b"BBBB", &desc, 0).unwrap();
        // The second put is held in turn, but flushing the first happens after
        // the second's (withheld) landing slot: the earlier put is now the one
        // visible — a swapped pair, as a later lossless write would show BBBB.
        assert_eq!(dst_region.read(0, 4).unwrap(), b"AAAA");
        ep.put(o2.sender_free, b"CCCC", &desc, 64).unwrap();
        assert_eq!(dst_region.read(0, 4).unwrap(), b"BBBB");
        let snap = fabric.fault_counters(a, b).unwrap();
        assert_eq!(snap.reordered, 3);
        assert_eq!(snap.redelivered, 2);
    }

    #[test]
    fn lossless_links_carry_no_fault_state() {
        let (fabric, a, b) = setup();
        let ep = fabric.endpoint(a, b).unwrap();
        assert!(!ep.faults_enabled());
        assert_eq!(fabric.fault_counters(a, b), None);
    }

    #[test]
    fn fault_plan_applies_only_to_its_direction() {
        use crate::fault::FaultPlan;
        let (fabric, a, b) = setup();
        fabric
            .install_fault_plan(a, b, FaultPlan::drop_only(1.0, 1))
            .unwrap();
        // The reverse link — where credits and NACKs travel — stays pristine.
        let reverse = fabric.endpoint(b, a).unwrap();
        assert!(!reverse.faults_enabled());
        let forward = fabric.endpoint(a, b).unwrap();
        assert!(forward.faults_enabled());
    }

    #[test]
    fn back_to_back_streaming_is_gap_limited() {
        let (fabric, a, b) = setup();
        let dst_region = fabric
            .host(b)
            .unwrap()
            .register(1 << 20, AccessFlags::rw())
            .unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        // Fire 16 x 32KiB puts back to back; delivery of the last should be roughly
        // first-latency + 15 gaps, i.e. wire-limited rather than latency x 16.
        let size = 32 * 1024;
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for i in 0..16usize {
            let out = ep
                .put(now, &vec![0u8; size], &desc, (i % 4) * size)
                .unwrap();
            now = out.sender_free;
            last = out.delivered;
        }
        let one = ep.link().put_timing(size);
        let serial_estimate = one.one_way() + one.gap * 15;
        assert!(last.as_ns() < serial_estimate.as_ns() * 1.5);
        assert!(last > one.gap * 15);
    }
}
