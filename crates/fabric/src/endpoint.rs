//! Endpoints (queue pairs) and the one-sided put.
//!
//! An [`Endpoint`] connects a source host to a destination host and exposes the
//! one operation Two-Chains posts: an ordered `put` (RDMA write). Data movement is
//! real — the bytes are copied into the destination's registered region — and every
//! put returns the virtual-time accounting the benchmarks use.
//!
//! ## Thread placement
//!
//! An `Endpoint` is `Send`: every shared structure it references (host region
//! table, NIC serialization points, the cache hierarchy the DMA engine installs
//! into) is internally synchronized, so a multi-sender runtime can park one
//! endpoint per sender thread over the same [`SimFabric`](crate::fabric::SimFabric).
//! Puts issued concurrently from different endpoints of the same source host
//! still serialize on that host's transmit pipeline
//! (`NicModel::acquire_tx`) in virtual
//! time — overlapped puts are charged the wire contention they would really
//! cost, never a free ride.
//!
//! ## Write ordering and signals
//!
//! The paper's mailbox protocol relies on the receiver observing the *last* byte of
//! the frame (the `SIG MAG` magic) only after all preceding bytes are visible. The
//! paper's testbed guarantees ordering, so the whole frame goes in one put:
//! [`Endpoint::put`] publishes the final byte of every write with `Release` ordering.

use std::sync::Arc;

use twochains_memsim::SimTime;

use crate::error::{FabricError, FabricResult};
use crate::fabric::HostState;
use crate::fault::{DeferredPut, EndpointFaults, FaultAction};
use crate::link;
use crate::region::{MemoryRegion, RegionDescriptor};

/// Timing outcome of a put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// When the initiating CPU is free again (posting overhead done).
    pub sender_free: SimTime,
    /// When the data (including the signal byte, if any) is visible to the
    /// destination CPU.
    pub delivered: SimTime,
    /// DMA-engine time spent installing the data (stash or DRAM path); already
    /// included in `delivered`, broken out for statistics.
    pub(crate) dma_cost: SimTime,
    /// Number of payload bytes moved.
    pub bytes: usize,
}

/// A one-sided communication endpoint from a source host to a destination host.
pub struct Endpoint {
    src: Arc<HostState>,
    dst: Arc<HostState>,
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
        src: Arc<HostState>,
        dst: Arc<HostState>,
        faults: Option<EndpointFaults>,
    ) -> Self {
        Endpoint {
            src,
            dst,
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
    ) -> FabricResult<Arc<MemoryRegion>> {
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
        if !region.flags().remote_write {
            return Err(FabricError::PermissionDenied { op: "put" });
        }
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
        if data.is_empty() {
            return Err(FabricError::InvalidArgument("empty put"));
        }
        let region = self.validate(desc, offset, data.len())?;
        let timing = link::put_timing(data.len());

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
                Self::land(&region, offset, data)?;
                (delivered, dma_cost)
            }
            Some(faults) => {
                let at = DeferredPut {
                    region,
                    offset,
                    dst_addr,
                    data: Vec::new(),
                };
                Self::deliver_faulty(faults, &self.dst, at, data, arrival)?
            }
        };

        self.ops += 1;
        self.bytes += data.len() as u64;
        Ok(PutOutcome {
            sender_free,
            delivered,
            dma_cost,
            bytes: data.len(),
        })
    }

    /// Move the actual bytes into the destination region, publishing the final
    /// byte with `Release` ordering.
    fn land(region: &MemoryRegion, offset: usize, data: &[u8]) -> FabricResult<()> {
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
                Self::land(&at.region, at.offset, data)?;
                faults.dups.push(DeferredPut {
                    data: data.to_vec(),
                    ..at
                });
                outcome
            }
            FaultAction::Deliver => {
                let outcome = dst.nic.deliver(arrival, at.dst_addr, data.len());
                Self::land(&at.region, at.offset, data)?;
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
            Self::land(&p.region, p.offset, &p.data)?;
            faults.note_redelivered();
        }
        Ok(())
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
        desc.rkey = RKey(desc.rkey.0 ^ 0xFFFF);
        let mut ep = fabric.endpoint(a, b).unwrap();
        let err = ep.put(SimTime::ZERO, b"x", &desc, 0).unwrap_err();
        assert!(matches!(err, FabricError::InvalidRkey { .. }));
    }

    #[test]
    fn put_to_readonly_region_is_rejected() {
        let (fabric, a, b) = setup();
        let read_only = AccessFlags {
            remote_write: false,
            remote_atomic: false,
            remote_execute: false,
            ..AccessFlags::rw()
        };
        let dst_region = fabric.host(b).unwrap().register(4096, read_only).unwrap();
        let desc = dst_region.descriptor();
        let mut ep = fabric.endpoint(a, b).unwrap();
        assert!(matches!(
            ep.put(SimTime::ZERO, b"x", &desc, 0),
            Err(FabricError::PermissionDenied { .. })
        ));
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
        // `offset + len` wraps to 1: unchecked, the sum passes in a
        // release build (tx pipeline charged, two lines stashed at a wrapped
        // address, then `MemoryRegion::write` refuses) and panics in a debug one.
        let valid_put_delivered = |poisoned: bool| {
            let (fabric, a, b) = setup();
            let host = fabric.host(b).unwrap();
            let desc = host.register(64, AccessFlags::rwx()).unwrap().descriptor();
            let mut ep = fabric.endpoint(a, b).unwrap();
            if poisoned {
                let err = ep.put(SimTime::ZERO, b"abc", &desc, usize::MAX - 1).err();
                assert!(
                    matches!(err, Some(FabricError::OutOfBounds { .. })),
                    "{err:?}"
                );
                assert_eq!(host.hierarchy().stats().stashed_lines, 0);
                assert_eq!(ep.ops(), 0);
            }
            ep.put(SimTime::ZERO, b"abc", &desc, 0).unwrap().delivered
        };
        assert_eq!(valid_put_delivered(true), valid_put_delivered(false));
    }

    #[test]
    fn larger_puts_take_longer() {
        // Each put goes through a fresh endpoint on a fresh fabric, so neither
        // queues behind the other on a NIC.
        let delivered = |len: usize| {
            let (fabric, a, b) = setup();
            let host = fabric.host(b).unwrap();
            let desc = host
                .register(64 * 1024, AccessFlags::rw())
                .unwrap()
                .descriptor();
            let mut ep = fabric.endpoint(a, b).unwrap();
            ep.put(SimTime::ZERO, &vec![1u8; len], &desc, 0)
                .unwrap()
                .delivered
        };
        assert!(delivered(32 * 1024) > delivered(64));
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
        let gap = link::put_timing(size).gap;
        assert!(
            out.delivered >= gap * (2 * n) as u64,
            "the 51st put must queue behind 50 transmit gaps ({} < {})",
            out.delivered,
            gap * (2 * n) as u64
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
        let timing = link::put_timing(128);
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
        let one = link::put_timing(size);
        let serial_estimate = one.one_way() + one.gap * 15;
        assert!(last.as_ns() < serial_estimate.as_ns() * 1.5);
        assert!(last > one.gap * 15);
    }
}
