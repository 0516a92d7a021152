//! Per-shard receive contexts.
//!
//! A [`ReceiverShard`] is the per-invocation-stream state of the sharded receive
//! path: its own scratch buffer (frames are parsed by borrow, never copied), its
//! own [`RuntimeStats`], its own **per-core cache bus** (the private L1/L2 the
//! shard's drain thread charges through, lock-free), its own **shard-local
//! address space** (per-message ARGS/USR plus private instances of writable
//! ried objects, used in [`SpaceMode::ShardLocal`](crate::config::SpaceMode)),
//! and an `Arc` handle to the shared
//! [`InjectionCache`](super::injection_cache::InjectionCache). Everything heavy —
//! the linker namespace, the Local Function library, the mailbox banks, the
//! exclusive jam address space — stays in the host and is reached read-mostly
//! (or through a lock, for the exclusive space), so shards never contend on
//! per-message state.
//!
//! Bank ownership is deterministic: shard `s` of `S` owns exactly the banks with
//! `bank % S == s` ([`ShardMask`]), so two shards never poll the same mailbox.
//!
//! [`ShardDrain`] is the borrowed form handed out by
//! [`TwoChainsHost::shard_drains`](super::TwoChainsHost::shard_drains): one
//! `&mut ReceiverShard` plus a shared `&` to the host internals. The borrows are
//! disjoint per shard and every shared structure is sync (atomics-backed mailbox
//! region, striped cache levels, `Mutex`ed exclusive space and caches), so the
//! drains can be moved to OS threads and drained in parallel — the bench
//! crate's multi-threaded drain driver does exactly that with
//! `std::thread::scope`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use twochains_jamvm::{hash64_bytes, Segment, ShardSpace};
use twochains_memsim::{CoreBus, SimTime};

use super::credit::CreditReturn;
use super::host::HostCore;
use super::injection_cache::InjectionCache;
use super::{BurstOutcome, ReceiveOutcome};
use crate::bank::ShardMask;
use crate::error::AmResult;
use crate::stats::RuntimeStats;

/// The per-shard receive context: scratch buffer, statistics, per-core cache
/// bus, shard-local address space, shared-cache handle and the shard's slice of
/// the bank ownership map.
#[derive(Debug)]
pub struct ReceiverShard {
    pub(crate) shard_id: usize,
    pub(crate) num_shards: usize,
    /// The core this shard drains on (`shard_id % num_cores`).
    pub(crate) core: usize,
    /// This core's private L1/L2 over the host's shared cache levels. Owned
    /// outright: a private-cache hit charges zero locks.
    pub(crate) bus: CoreBus,
    /// Shard-local execution view: per-message ARGS/USR and per-shard writable
    /// ried instances over the `Arc`-shared read-only base.
    pub(crate) space: ShardSpace,
    pub(crate) cache: Arc<InjectionCache>,
    /// Persistent receive buffer: frames are read into it and parsed by borrow.
    pub(crate) scratch: Vec<u8>,
    pub(crate) stats: RuntimeStats,
    /// The one-sided credit-return path for this shard's paired sender stream
    /// (§VI-A2): installed as the reverse half of
    /// [`SenderFleet::connect_fleet`](super::SenderFleet::connect_fleet);
    /// `None` until then (pre-fleet drains and raw-sender benchmarks pay no
    /// credit traffic). Owned by the shard so drain threads return credits
    /// without a lock — the endpoint serializes on the NIC models like any
    /// other put.
    pub(crate) credit: Option<CreditReturn>,
    /// Per-slot last-executed sequence number, indexed `bank_row * per_bank +
    /// slot` and lazily sized on first use (idempotent replay suppression).
    /// `0` means "nothing executed yet" — the sender's sequence space starts
    /// at 1, so the sentinel can never collide with a real frame. Like the
    /// credit drain counters, this state persists across stats resets: a
    /// benchmark-phase reset must not re-open the window to a stale replay.
    pub(crate) replay: Vec<u32>,
    /// Sequence-gap watcher for this shard's paired sender stream (armed only
    /// when the stream's handshake carried a NACK table). Persists across
    /// stats resets for the same reason `replay` does.
    pub(crate) watch: SeqWatch,
    /// The code section this shard hashed last, and its digest.
    pub(crate) code_digest: CodeDigest,
    /// Unmapped message sections (`msg.*`, `chain.*`), kept for their buffers:
    /// the execute stage refills one per section it maps, so a warm message
    /// allocates nothing. At most as many as one stage maps at once.
    pub(crate) spare_sections: Vec<Segment>,
}

/// The digest of the code section a shard saw last. A hot function arrives as
/// the same bytes message after message (eight times in one batch container),
/// so comparing them to the last section hashed — all of them, never a length
/// or an address — replaces all but the first hash. Host time only: the model
/// charges the digest wherever it always did, hit or miss.
#[derive(Debug)]
pub(crate) struct CodeDigest {
    code: Vec<u8>,
    digest: u64,
}

impl CodeDigest {
    fn new() -> Self {
        CodeDigest {
            code: Vec::new(),
            digest: hash64_bytes(&[]),
        }
    }

    /// `hash64_bytes(code)`.
    pub(crate) fn of(&mut self, code: &[u8]) -> u64 {
        if self.code != code {
            self.code.clear();
            self.code.extend_from_slice(code);
            self.digest = hash64_bytes(code);
        }
        self.digest
    }
}

/// One shard's parts as the receive pipeline's stages borrow them for a scan:
/// everything a stage charges or mutates, split off from the scratch buffer
/// the parsed frame borrows (see [`ReceiverShard::stages`]).
pub(crate) struct DrainCtx<'s> {
    pub(crate) core: usize,
    pub(crate) bus: &'s mut CoreBus,
    pub(crate) space: &'s mut ShardSpace,
    pub(crate) cache: &'s InjectionCache,
    pub(crate) stats: &'s mut RuntimeStats,
    pub(crate) code_digest: &'s mut CodeDigest,
    pub(crate) spare_sections: &'s mut Vec<Segment>,
    /// The replay filter — `Some` only while the reliability layer is armed.
    replay: Option<&'s mut Vec<u32>>,
    num_shards: usize,
}

impl DrainCtx<'_> {
    /// The replay-filter entry guarding mailbox (`bank`, `slot`) of a bank
    /// with `per_bank` slots, growing the filter on first touch; `None` when
    /// the filter is not armed. Rows are indexed like `CreditReturn`'s
    /// ([`ShardMask::row_of`]). `slot` must be below `per_bank`, or the index
    /// is another mailbox's.
    pub(crate) fn replay_entry(
        &mut self,
        per_bank: usize,
        bank: usize,
        slot: usize,
    ) -> Option<&mut u32> {
        let filter = self.replay.as_deref_mut()?;
        let idx = ShardMask::row_of(bank, self.num_shards) * per_bank + slot;
        if filter.len() <= idx {
            filter.resize(idx + 1, 0);
        }
        Some(&mut filter[idx])
    }
}

/// Receiver-side sequence-gap detection for one shard's paired sender stream.
///
/// Sequence numbers are observed in *scan* order, not send order: one full
/// bank scan can legitimately process sn 7 before sn 5 when both landed
/// between polls. A gap is therefore only *suspected* when first seen, and
/// only *reported* (NACKed) after it survives two further full scans — by
/// then, any frame that had landed before the gap was noticed would have been
/// drained (a scan visits every owned bank), so the frame is genuinely
/// missing, not merely jumbled. On a lossless fabric this watcher never posts
/// a NACK.
#[derive(Debug, Default)]
pub(crate) struct SeqWatch {
    /// Highest sequence number processed so far (executed or suppressed).
    hi: u32,
    /// Suspected-missing sns → the scan generation that first recorded them.
    pending: HashMap<u32, u64>,
    /// Sns already reported; kept so one loss produces one NACK (the sender's
    /// watchdog, not repeated NACKs, backstops a lost NACK put).
    nacked: HashSet<u32>,
    /// Completed full scans (bumped by `end_scan`).
    generation: u64,
}

impl SeqWatch {
    /// A frame must outlive this many completed scans as a suspected gap
    /// before it is reported. One scan absorbs scan-order jumbles (anything
    /// delivered before the gap was noticed drains in the very next full
    /// scan); the second is margin for a frame that landed mid-scan after its
    /// bank was already polled.
    const NACK_AGE: u64 = 2;
    /// Largest believable gap. The in-flight window is bounded by the lane's
    /// slot count, so a jump beyond this indicates a foreign sequence space
    /// (or a hostile header) — recording millions of "missing" sns from one
    /// frame would be a one-put memory DoS, so oversized jumps advance `hi`
    /// without recording.
    const MAX_GAP: u32 = 1 << 16;

    /// Note one processed frame (executed *or* suppressed as a replay): clear
    /// it from the suspect lists and record any new gap it reveals.
    pub(crate) fn note(&mut self, sn: u32) {
        self.pending.remove(&sn);
        self.nacked.remove(&sn);
        if sn_newer(sn, self.hi) {
            // The sender's sequence space starts at 1, so the initial
            // `hi == 0` state records a genuine gap too: seeing sn 3 first
            // means sns 1 and 2 are outstanding (jumbled or lost).
            let gap = sn.wrapping_sub(self.hi).wrapping_sub(1);
            if gap > 0 && gap <= Self::MAX_GAP {
                for d in 1..=gap {
                    let missing = self.hi.wrapping_add(d);
                    self.pending.entry(missing).or_insert(self.generation);
                }
            }
            self.hi = sn;
        }
    }

    /// Close one full bank scan: entries that have now outlived
    /// [`Self::NACK_AGE`] completed scans are returned (sorted, for
    /// deterministic NACK order) and moved to the reported set.
    pub(crate) fn end_scan(&mut self) -> Vec<u32> {
        self.generation += 1;
        let generation = self.generation;
        let mut due: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, born)| generation - **born >= Self::NACK_AGE)
            .map(|(sn, _)| *sn)
            .collect();
        due.sort_unstable();
        for sn in &due {
            self.pending.remove(sn);
            self.nacked.insert(*sn);
        }
        due
    }
}

/// Whether sequence number `a` is strictly newer than `b` in the wrapping
/// 32-bit sequence space (same half-space rule TCP uses).
pub(crate) fn sn_newer(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < u32::MAX / 2
}

impl ReceiverShard {
    pub(crate) fn new(
        shard_id: usize,
        num_shards: usize,
        core: usize,
        bus: CoreBus,
        space: ShardSpace,
        cache: Arc<InjectionCache>,
    ) -> Self {
        ReceiverShard {
            shard_id,
            num_shards,
            core,
            bus,
            space,
            cache,
            scratch: Vec::new(),
            stats: RuntimeStats::new(),
            credit: None,
            replay: Vec::new(),
            watch: SeqWatch::default(),
            code_digest: CodeDigest::new(),
            spare_sections: Vec::new(),
        }
    }

    /// Split the shard for one pass of the receive pipeline: the scratch
    /// buffer (frames are read into it and parsed by borrow) and a
    /// [`DrainCtx`] over everything else the stages touch. The replay filter
    /// is handed over only when this shard's stream handshake carried a NACK
    /// table: flows without the reliability layer keep their exact
    /// pre-reliability semantics, including re-executing a slot a test
    /// refills with the same sequence number.
    pub(crate) fn stages(&mut self) -> (&mut Vec<u8>, DrainCtx<'_>) {
        let armed = self.nack_armed();
        let ctx = DrainCtx {
            core: self.core,
            bus: &mut self.bus,
            space: &mut self.space,
            cache: &self.cache,
            stats: &mut self.stats,
            code_digest: &mut self.code_digest,
            spare_sections: &mut self.spare_sections,
            replay: armed.then_some(&mut self.replay),
            num_shards: self.num_shards,
        };
        (&mut self.scratch, ctx)
    }

    /// Whether the receiver half of the reliability layer is armed for this
    /// shard (its stream's handshake carried a NACK table).
    pub(crate) fn nack_armed(&self) -> bool {
        self.credit.as_ref().is_some_and(|c| c.nack_armed())
    }

    /// This shard's index.
    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// The core this shard drains on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The bank-ownership mask of this shard (`bank % num_shards == shard_id`).
    pub fn mask(&self) -> ShardMask {
        ShardMask::new(self.shard_id, self.num_shards)
    }

    /// Statistics accumulated by receives routed through this shard.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }
}

/// A borrowed per-shard drain handle: the shard's mutable context plus a shared
/// reference to the host internals. Obtained from
/// [`TwoChainsHost::shard_drains`](super::TwoChainsHost::shard_drains); one handle
/// per shard, each independently movable to its own thread.
#[derive(Debug)]
pub struct ShardDrain<'h> {
    pub(crate) core: &'h HostCore,
    pub(crate) shard: &'h mut ReceiverShard,
}

impl ShardDrain<'_> {
    /// The shard this handle drains.
    pub fn shard_id(&self) -> usize {
        self.shard.shard_id
    }

    /// Drain up to `max_frames` ready frames from this shard's banks in one scan.
    /// Identical semantics to
    /// [`TwoChainsHost::receive_burst`](super::TwoChainsHost::receive_burst) for
    /// this shard.
    pub fn receive_burst(&mut self, max_frames: usize, now: SimTime) -> AmResult<BurstOutcome> {
        self.core.receive_burst(self.shard, max_frames, now)
    }

    /// Process one specific mailbox through this shard (the single-frame case of
    /// the burst engine, with the wait model applied). The mailbox's bank must be
    /// owned by this shard: draining another shard's bank from here could race
    /// that shard on the same slot, so it is rejected.
    pub fn receive(
        &mut self,
        bank: usize,
        slot: usize,
        frame_len: Option<usize>,
        arrival: SimTime,
        ready_since: SimTime,
    ) -> AmResult<ReceiveOutcome> {
        if !self.shard.mask().owns(bank) {
            return Err(crate::error::AmError::InvalidConfig(format!(
                "bank {bank} is not owned by shard {} of {}",
                self.shard.shard_id, self.shard.num_shards
            )));
        }
        self.core
            .receive_owned(self.shard, bank, slot, frame_len, arrival, ready_since)
    }

    /// Statistics accumulated by this shard so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.shard.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twochains_jamvm::AddressSpace;
    use twochains_memsim::{SharedHierarchy, TestbedConfig};

    /// The whole point of `ShardDrain` is that it can cross a thread boundary:
    /// this does not compile unless every shared host structure is `Sync`.
    #[test]
    fn shard_drain_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardDrain<'static>>();
        assert_send::<ReceiverShard>();
    }

    /// The memo may only ever answer `hash64_bytes(code)`: for two programs
    /// of one length taking turns, a single flipped byte, the empty section
    /// (a fresh memo holds no bytes and must not invent a digest for that),
    /// and seeded random sections with seeded repeats.
    #[test]
    fn the_code_digest_memo_answers_hash64_bytes_of_the_code_it_is_asked_about() {
        let mut x = 0x2C4A_1B5Eu64;
        let mut next = || {
            x = twochains_jamvm::hash64(x);
            x
        };
        let mut section = |len: usize| (0..len).map(|_| next() as u8).collect::<Vec<u8>>();
        let (a, b) = (section(1408), section(1408));
        let mut flipped = a.clone();
        flipped[1407] ^= 1;
        let mut sequence: Vec<Vec<u8>> = vec![vec![]];
        for _ in 0..4 {
            sequence.extend([a.clone(), a.clone(), b.clone(), flipped.clone(), a.clone()]);
        }
        sequence.extend([
            vec![],
            vec![],
            vec![0],
            vec![0, 0],
            a[..1407].to_vec(),
            a.clone(),
        ]);
        for i in 0..200 {
            let len = i % 97;
            let fresh = section(len);
            sequence.extend([fresh.clone(), fresh]);
        }
        let mut memo = CodeDigest::new();
        for (i, code) in sequence.iter().enumerate() {
            assert_eq!(memo.of(code), hash64_bytes(code), "section {i}");
        }
    }

    #[test]
    fn shard_mask_matches_ownership_map() {
        let cache = Arc::new(InjectionCache::new());
        let hierarchy = Arc::new(SharedHierarchy::new(TestbedConfig::tiny_for_tests()));
        let space = ShardSpace::new(Arc::new(AddressSpace::new())).unwrap();
        let shard = ReceiverShard::new(1, 4, 1, hierarchy.core_bus(1), space, cache);
        assert_eq!(shard.shard_id(), 1);
        assert_eq!(shard.core(), 1);
        assert!(shard.mask().owns(5));
        assert!(!shard.mask().owns(4));
    }
}
