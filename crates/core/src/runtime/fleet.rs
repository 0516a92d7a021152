//! The initiator-side multi-sender runtime: a [`SenderFleet`] of per-stream
//! [`TwoChainsSender`]s that fills mailbox banks concurrently with shard
//! draining.
//!
//! # Why a fleet
//!
//! The receiver has been sharded since PR 2 (`bank % num_shards` ownership,
//! per-shard scratch/stats, parallel [`ShardDrain`](super::ShardDrain)s), but
//! the initiator stayed a single [`TwoChainsSender`] filling every bank from
//! one thread — so end-to-end wall measurements serialized the whole send phase
//! in front of the parallel drain. The fleet gives the sender the same
//! per-shard treatment: **stream `s` of `S` owns exactly the banks with
//! `bank % S == s`**, the same deterministic map the receiver shards drain by,
//! and a fleet has one stream per shard, so every drain shard has one
//! dedicated initiator and no stream ever crosses another.
//!
//! Each [`SenderLane`] is a complete, independently movable sender context:
//!
//! * its **own [`Endpoint`](twochains_fabric::Endpoint)** over the shared
//!   fabric (endpoints are `Send`; puts issued concurrently from different
//!   lanes still serialize honestly on the source host's NIC transmit pipeline
//!   in virtual time),
//! * its **own sequence space** and reusable encode buffer,
//! * its **own frame-template cache** (per-lane warm fast path),
//! * its **own [`RuntimeStats`]**, folded into a fleet-wide view by
//!   [`SenderFleet::stats`] via [`RuntimeStats::merge`].
//!
//! # Connecting
//!
//! [`SenderFleet::connect_fleet`] is the paper's one exchange before the
//! first put (§VI-A2): the fleet reads every mailbox's address from the
//! host's [`MailboxBank`](crate::bank::MailboxBank) and each installed
//! element's receiver-resolved GOT from
//! [`export_got`](super::TwoChainsHost::export_got) (the "GOT redirect ...
//! set by the sender after an exchange with the receiver"), and the host
//! learns the two tables it writes back into. There is one lane per
//! receiver shard. Per lane, in stream order: its forward endpoint, then
//! its [`BankFlags`] credit table, then its [`NackFlags`] table, both
//! registered in the sender's address space; after every lane, the host's
//! reverse endpoints, in stream order. The order is part of the model: an
//! endpoint's creation index seeds its fault stream, and a region's
//! address places the cache lines its polls touch.
//!
//! # The credit wire format (§VI-A2: flow control as fabric traffic)
//!
//! Mailbox credits do not travel over a host-side side channel; the receiver
//! *puts* them back into the sender's registered memory, so flow control
//! contends for the NIC and is charged in virtual time like every other byte
//! on the wire.
//!
//! * **Word layout.** Each lane's flag region holds one row per owned bank
//!   (bank `b` of stream `s` of `S` is row `b / S`), each row a word-aligned
//!   run of `per_bank` one-byte slot *tokens*
//!   ([`BankFlags::row_stride`](crate::bank::BankFlags::row_stride) pads rows
//!   to 8-byte words). The token of (`row`, `slot`) lives at byte
//!   `row * row_stride(per_bank) + slot`.
//! * **Token sequence.** The k-th retire of a slot (drained,
//!   dispatch-rejected or quarantined — k counted from 0 on the receiver)
//!   writes token `(k % 255) + 1`: never the fresh-region 0, and adjacent
//!   tokens always differ, so *token ≠ last-consumed* means exactly one new
//!   credit. The sender never writes the region — single-writer bytes cannot
//!   tear or race.
//! * **Release/acquire pairing.** Credits travel as row-span
//!   [`Endpoint::put`](twochains_fabric::Endpoint::put)s — the receiver
//!   batches retired slots per row and flushes one put covering the dirty
//!   span (1..=`per_bank` bytes), issued strictly *after* every covered
//!   slot's mailbox was cleared. `put` publishes its *final* byte with
//!   release ordering and a flushed span always ends on a freshly minted
//!   token, so a lane whose acquire load
//!   ([`BankFlags::try_acquire`](crate::bank::BankFlags::try_acquire))
//!   observes any token in the span also sees its cleared slot before the
//!   refill put. Gap slots inside a span are rewritten byte-identically;
//!   tokens are value-compared, so an idempotent rewrite can never mint a
//!   credit. The span put is its own signal. One flush can refill several
//!   of a lane's slots at once — the wakeup harvests them all and counts
//!   the extras in [`RuntimeStats::credit_refills_coalesced`].
//! * **Ordering vs frame puts.** Credit puts ride the receiver→sender
//!   direction while frame puts ride sender→receiver; the two directions
//!   share no ordering and need none — the only edge that matters is
//!   clear → credit-put (drain thread program order + release) →
//!   credit-acquire → refill-put (lane program order), which the pairing
//!   above provides. On the simulated testbed the credit put's DMA delivery
//!   installs the token on the sender host and posts invalidations to the
//!   sender cores' inboxes (`memsim::sharded`) exactly like inbound frames do
//!   on the receiver, so the lane's next poll of its flag word re-fetches the
//!   freshly stashed line and is charged accordingly.
//!
//! # The flow-control contract
//!
//! A lane's transmit window is the delivery times of its own unharvested
//! puts, oldest first: every put a lane posts adds its delivery time, and
//! [`RuntimeConfig::completion_window`] bounds how many it may hold. A lane
//! whose window is full waits (in lane-virtual time) until its oldest put is
//! delivered, then harvests every entry delivered by then, oldest first and
//! stopping at the first still in flight — the cost model's `HARVEST_COST` of
//! software bookkeeping an entry, the UCX-like baseline's per-completion cost —
//! before posting more
//! (counted in [`RuntimeStats::sends_backpressured`] /
//! [`RuntimeStats::completions_harvested`]). No lane can reach another's
//! window, so back-pressure pauses only the affected stream.
//!
//! # The send pipeline
//!
//! The paper's initiator is as short as its receiver — pack, one put into a
//! mailbox bank, wait for the slot's flag to come back (§III-A, §VI-A2). Here
//! it is six stages, each a function on [`SenderLane`] or on the pipeline's
//! per-lane state machine; a stage boundary is where a per-layer charge or a
//! trace hook belongs:
//!
//! | stage | function | what happens |
//! |---|---|---|
//! | 1 build | `SenderLane::build` | the payload generator turns a [`SlotCtx`] into a [`MessageSpec`] |
//! | 2 encode | `TwoChainsSender::encode_next` | sections validated, template looked up, sequence number stamped, wire bytes written into the lane's scratch |
//! | 3 accumulate | `SenderLane::post` | flush triggers (bank boundary, `BATCH_FILL`, latency watermark, then carrier capacity), append to the open container — or hand a frame that may not share one to stage 4 alone |
//! | 4 post | `post_standalone` / `flush` → `post_container` | the lane's window (`harvest_if_full`), one put (`put_frame` / `put_batch`) whose delivery time joins the window, `remember` on an armed lane |
//! | 5 await credit | `LaneRun::acquire` / `collect_final_credits` (`try_acquire_slot`), and while starved `LaneRun::starved` (`poll_nacks`, the watchdog on fruitless steps) | which slots may be refilled, and when a silent loss is retried |
//! | 6 retransmit | `SenderLane::retransmit` | live posted entries re-put byte-identically: the one a NACK names, or all of them |
//!
//! [`SenderLane::fill`] (the phased, deterministic schedule) is stages 1–4
//! over every owned slot and a closing flush. A pipeline run is all six with
//! fill and drain overlapping, over one set of *parties*: one `LaneRun` per
//! lane, then one `DrainRun` per shard (`parties`, after `check_paired`).
//! Each party's `step()` never blocks — it reports `Progressed`, `Starved`
//! or `Done` — so *waiting* is the driver's business. A lane's whole
//! reliability protocol is inside its `step`: a starved step answers NACKs
//! and runs the retransmit watchdog, whose deadlines count the stall
//! episode's fruitless steps, so the sender side reads no clock. A drain's
//! step is one `receive_burst`, with the frame quota and the give-up. Two
//! drivers step the same parties:
//!
//! * [`drive_pipeline`] gives each party an OS thread and steps it to `Done`.
//!   Only the thread side waits between starved steps (`run_party`, the one
//!   place the pipeline yields or parks) and polls the abort flag.
//! * [`step_pipeline`] steps them on the calling thread in the order a seeded
//!   generator picks, on clean or lossy links, and reproduces a run bit for
//!   bit. A run in which nothing moves any more fails there, where the
//!   threads would wait forever.
//!
//! Lanes and drains are coupled only by the one-sided credit path — no
//! channels, no shared queues. As each frame retires, the drain puts the
//! slot's next credit token into the paired lane's flag region, and the lane
//! refills a slot the moment its token changes. Under either driver, results
//! and order-independent runtime counters are observationally equal to the
//! sequential fill-then-drain schedule (pinned by `tests/fleet_pipeline.rs`);
//! *time* counters are not comparable, because the pipelined drain polls its
//! banks repeatedly (each scan charges one poll) where the phased schedule
//! scans once per round.
//!
//! [`RuntimeConfig::completion_window`]: crate::config::RuntimeConfig::completion_window
//! [`RuntimeStats::sends_backpressured`]: crate::stats::RuntimeStats::sends_backpressured
//! [`RuntimeStats::completions_harvested`]: crate::stats::RuntimeStats::completions_harvested

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use twochains_fabric::{AccessFlags, HostId, SimFabric};
use twochains_linker::{ElementId, Package};
use twochains_memsim::cost::HARVEST_COST;
use twochains_memsim::{AccessKind, CoreBus, MemoryBus, SimTime};

use super::spec::MessageSpec;
use super::{AmSendOutcome, ShardDrain, TwoChainsHost, TwoChainsSender};
use crate::bank::{BankFlags, NackFlags, ShardMask};
use crate::config::{AggregationPolicy, InvocationMode};
use crate::error::{AmError, AmResult};
use crate::frame::FrameBatch;
use crate::mailbox::MailboxTarget;
use crate::stats::RuntimeStats;

/// A lane posts its open container once it holds this many frames (the wire
/// format itself carries up to [`BATCH_MAX_FRAMES`](crate::frame::BATCH_MAX_FRAMES)).
const BATCH_FILL: usize = 8;
const _: () = assert!(BATCH_FILL >= 1 && BATCH_FILL <= crate::frame::BATCH_MAX_FRAMES);
/// A lane posts its open container before accepting another frame once the
/// first one has waited this long, in lane-virtual nanoseconds.
const BATCH_LATENCY_NS: f64 = 2_000.0;
/// Fruitless credit scans a starved lane thread only yields through before
/// it starts parking, and how long it parks between scans after that.
const SPIN_SCANS: u32 = 128;
const PARK: Duration = Duration::from_micros(20);
/// The retransmit watchdog's base delay and clamp, in fruitless steps of one
/// stall episode with frames in flight. It first fires [`SPIN_SCANS`] + base
/// steps into the episode, when a lane thread has parked base times. A
/// firing or a NACK then sets the next deadline base × 1, 1, 2, 3, 5, …
/// steps ahead (the term the episode's firings so far index), clamped: a
/// persistently lossy link keeps being probed at a bounded rate instead of
/// backing off into silence. A park asks for 20 µs and sleeps ≈ 75 µs on a
/// 2-core Linux host, so the base is ≈ 5 ms there, long enough that a NACK
/// or a late credit nearly always comes first: on `fastpath`'s threaded 1 %
/// loss row, a 32-step base re-put more frames than were lost in 4 of 5
/// runs, this one in 5 of 20.
const WATCHDOG_BASE: u32 = 64;
const WATCHDOG_CLAMP: u32 = 192;
/// Watchdog firings a single stall episode may consume before the lane fails
/// loudly: a link that eats 32 consecutive retransmits of the same frames is
/// broken, not lossy, and stepping forever would deadlock the pipeline with
/// no diagnosis. An episode that exhausts it has taken 6 144 fruitless
/// steps: ≈ 0.5 s of a lane thread's parks on the host above.
pub(crate) const RETRY_BUDGET: u32 = 32;

/// One mailbox a sender stream owns: its coordinates on the receiver and the
/// target descriptor to aim the one-sided put at.
#[derive(Debug)]
struct StreamTarget {
    bank: usize,
    slot: usize,
    target: MailboxTarget,
}

/// Coordinates of one fill: which stream is packing, which mailbox it aims at,
/// and the per-slot round number — everything a payload generator needs to
/// produce a deterministic message for that slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotCtx {
    /// The sending stream.
    pub stream: usize,
    /// Destination bank.
    pub bank: usize,
    /// Destination slot within the bank.
    pub slot: usize,
    /// How many times this slot has been filled before (0 for the first fill).
    pub round: u64,
}

/// One data-path put an armed lane keeps for retransmission. A batch
/// container is the retransmit unit — re-putting it re-delivers every inner
/// frame, and the receiver's per-slot replay filters retire the ones that did
/// land — and a standalone frame is simply the one-member entry.
#[derive(Debug)]
pub(super) struct Posted {
    /// The exact wire bytes that were put.
    pub(super) bytes: Vec<u8>,
    /// The sequence numbers the bytes carry (the NACK lookup key).
    pub(super) sns: Vec<u32>,
    /// Target indices whose *current* frame travelled in this put; the entry
    /// is live while any of them is in flight.
    pub(super) members: Vec<usize>,
    /// Target index of the mailbox the bytes were put into.
    pub(super) carrier: usize,
}

/// Stage *post*, last step: record a put that was just issued and mark its
/// members in flight. A slot is only re-sent after its credit came back, so
/// the new put ends every older entry's claim on the slots it covers (without
/// this a container stays "alive" through a *newer* frame on one of its slots
/// and the watchdog re-puts it over a live mailbox). Entries left with no
/// member in flight have nothing to repair and are dropped — before the new
/// members are marked, or nothing would ever die.
pub(super) fn remember(posted: &mut Vec<Posted>, in_flight: &mut [bool], entry: Posted) {
    posted.retain_mut(|old| {
        old.members.retain(|m| !entry.members.contains(m));
        old.members.iter().any(|&m| in_flight[m])
    });
    for &m in &entry.members {
        in_flight[m] = true;
    }
    posted.push(entry);
}

/// The open (not yet posted) batch container of a lane: frames destined for
/// one bank accumulate here until a flush trigger posts them with one put
/// into the mailbox of the first (`members[0]`, the carrier). Open exactly
/// when `members` is non-empty.
#[derive(Debug, Default)]
struct OpenBatch {
    frames: FrameBatch,
    /// Sequence number and target index of each accumulated frame.
    sns: Vec<u32>,
    members: Vec<usize>,
    /// Lane-virtual time the first frame was accepted (the latency watermark
    /// bounds how long the container may stay open).
    opened: SimTime,
}

/// One stream's complete sender context: its own [`TwoChainsSender`] (endpoint,
/// sequence space, template cache, statistics), the mailbox targets it owns,
/// its `BankFlags` credit table (the flag region the receiver's credit puts
/// land in, registered in this sender's address space), its transmit window
/// (the delivery times of its unharvested puts), the core bus its credit
/// polls are charged through, and its private virtual clock.
/// `Send`, so a fleet can park one lane per OS thread.
#[derive(Debug)]
pub struct SenderLane {
    stream: usize,
    streams: usize,
    sender: TwoChainsSender,
    targets: Vec<StreamTarget>,
    /// `(bank, slot)` → index into `targets` (single-slot sends and credit
    /// probes arrive as coordinates).
    index: HashMap<(usize, usize), usize>,
    /// The lane's credit table: per-bank rows of per-slot tokens the receiver
    /// writes with one-sided puts (see the module docs for the wire format).
    flags: BankFlags,
    /// The lane's NACK table: one row per owned bank, written by the
    /// receiver's sequence-gap reports ([`NackFlags`]). Registered right
    /// after the credit table, and handed to the host with it.
    nacks: NackFlags,
    /// Whether this lane's endpoint was created under a fault plan — the
    /// switch that arms the sender half of the reliability layer. On a
    /// pristine link nothing is remembered, and a starved [`LaneRun`] step
    /// polls no NACK row and runs no watchdog, so the lossless path pays
    /// nothing for the machinery.
    armed: bool,
    /// The lane's transmit window: the delivery time of every data-path put
    /// not yet harvested, oldest first. Holding `window` of them, the lane
    /// harvests before its next put.
    completions: VecDeque<SimTime>,
    window: usize,
    /// Every put still owed a credit, oldest first (armed lanes only).
    pub(super) posted: Vec<Posted>,
    /// Whether the most recent frame sent to each owned slot is still
    /// awaiting its credit (armed lanes only).
    pub(super) in_flight: Vec<bool>,
    /// The sender-host core this lane runs on; its private L1/L2 cache the
    /// flag words between credit puts (each put's DMA invalidates the line
    /// through the core's inbox, so the next poll re-fetches honestly).
    bus: CoreBus,
    clock: SimTime,
    /// Whether frames may share a container: the host's
    /// `aggregation_policy`, copied at connect time.
    policy: AggregationPolicy,
    open: OpenBatch,
    /// Scratch buffers (one encoded frame / one finished container), so
    /// steady-state sending never allocates.
    frame_buf: Vec<u8>,
    batch_buf: Vec<u8>,
}

impl SenderLane {
    /// Index into `targets` of owned mailbox (`bank`, `slot`); rejected when
    /// the mailbox is not one of this stream's.
    fn owned(&self, bank: usize, slot: usize) -> AmResult<usize> {
        self.index.get(&(bank, slot)).copied().ok_or_else(|| {
            AmError::InvalidConfig(format!(
                "mailbox ({bank}, {slot}) is not owned by stream {}",
                self.stream
            ))
        })
    }

    /// Stage *await credit*, acquire: consume one pending credit for the
    /// `idx`-th owned slot — an acquire load of the slot's token byte, charged
    /// through this lane's core bus when a fresh token is observed (after the
    /// credit put's DMA invalidated the cached line, the observing poll is the
    /// one that re-fetches it). The credit retires the frame in flight on the
    /// slot: its posted entry stops being a retransmit candidate.
    fn try_acquire_slot(&mut self, idx: usize) -> AmResult<bool> {
        let t = &self.targets[idx];
        let row = ShardMask::row_of(t.bank, self.streams);
        if !self.flags.try_acquire(row, t.slot)? {
            return Ok(false);
        }
        let addr = self.flags.slot_addr(row, t.slot)?;
        self.clock += self.bus.access(self.bus.core(), addr, 1, AccessKind::Read);
        self.in_flight[idx] = false;
        Ok(true)
    }

    /// Whether a credit is pending for owned mailbox (`bank`, `slot`), without
    /// consuming it. Rejected when the mailbox is not one of this stream's
    /// targets.
    pub fn credit_pending(&self, bank: usize, slot: usize) -> AmResult<bool> {
        let t = &self.targets[self.owned(bank, slot)?];
        self.flags
            .credit_pending(ShardMask::row_of(t.bank, self.streams), t.slot)
    }

    /// Snapshot the credit table, discarding stale credits (`BankFlags::sync`),
    /// and likewise the NACK table (a gap report aimed at an earlier run's
    /// frames must not trigger a retransmit now). A pipeline run starts with
    /// this: credits earned by earlier phased schedules (which consume none)
    /// must not leak in as phantom refill permissions.
    pub fn sync_credits(&mut self) -> AmResult<()> {
        self.flags.sync()?;
        self.nacks.sync()
    }

    /// Stage *build*: the message for the `idx`-th owned slot's `round`-th
    /// fill, from the caller's payload generator.
    fn build<F>(
        &self,
        elem: ElementId,
        mode: InvocationMode,
        idx: usize,
        round: u64,
        make: &F,
    ) -> MessageSpec
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        let t = &self.targets[idx];
        let (args, usr) = make(SlotCtx {
            stream: self.stream,
            bank: t.bank,
            slot: t.slot,
            round,
        });
        super::spec::spec(elem).mode(mode).args(args).usr(usr)
    }

    /// Stages *encode → accumulate*: encode the next message for owned slot
    /// `idx` and append it to the open container, posting the container first
    /// whenever a flush trigger fires — before encoding: bank boundary (inner
    /// slots are declared within the carrier's bank), [`BATCH_FILL`], the
    /// latency watermark; after it (the frame's length is needed): carrier
    /// capacity. A frame that may not share a container — the lane does not
    /// aggregate, or the frame would overrun its mailbox even as a
    /// container's only member — is posted standalone. Returns the outcome of
    /// whichever put this call performed (the later-delivered when it made
    /// two), `None` when the frame only accumulated.
    fn post(&mut self, idx: usize, spec: &MessageSpec) -> AmResult<Option<AmSendOutcome>> {
        let mut flushed = None;
        if let Some(&carrier) = self.open.members.first() {
            if self.targets[carrier].bank != self.targets[idx].bank
                || self.open.frames.len() >= BATCH_FILL
                || (self.clock - self.open.opened).as_ns() >= BATCH_LATENCY_NS
            {
                flushed = self.flush()?;
            }
        }
        let sn = self.sender.encode_next(spec, &mut self.frame_buf)?;
        let len = self.frame_buf.len();
        if let Some(&carrier) = self.open.members.first() {
            if self.open.frames.wire_size_with(len) > self.targets[carrier].target.capacity {
                flushed = self.flush()?;
            }
        }
        if self.open.members.is_empty() {
            let fits = FrameBatch::new().wire_size_with(len) <= self.targets[idx].target.capacity;
            if !(fits && matches!(self.policy, AggregationPolicy::Adaptive)) {
                let sent = self.post_standalone(idx, sn)?;
                return Ok(Some(match flushed {
                    Some(f) if f.delivered() > sent.delivered() => f,
                    _ => sent,
                }));
            }
            self.open.opened = self.clock;
        }
        let slot = self.targets[idx].slot;
        let declared = u16::try_from(slot).map_err(|_| {
            AmError::InvalidConfig(format!("slot {slot} does not fit a batch prefix's u16"))
        })?;
        self.open.frames.push(declared, &self.frame_buf)?;
        self.open.sns.push(sn);
        self.open.members.push(idx);
        Ok(flushed)
    }

    /// Stage *post*, standalone: the frame in `frame_buf` (sequence number
    /// `sn`) goes into the `idx`-th owned mailbox with a put of its own —
    /// window, put, remember.
    fn post_standalone(&mut self, idx: usize, sn: u32) -> AmResult<AmSendOutcome> {
        self.harvest_if_full();
        let target = &self.targets[idx].target;
        let sent = self.sender.put_frame(self.clock, &self.frame_buf, target)?;
        self.completions.push_back(sent.delivered());
        self.clock = sent.sender_free();
        if self.armed {
            let entry = Posted {
                bytes: self.frame_buf.clone(),
                sns: vec![sn],
                members: vec![idx],
                carrier: idx,
            };
            remember(&mut self.posted, &mut self.in_flight, entry);
        }
        Ok(sent)
    }

    /// Stage *post*, container: close the open container with one put into
    /// its carrier mailbox (no-op when none is open). Posted or refused, the
    /// container is closed afterwards.
    fn flush(&mut self) -> AmResult<Option<AmSendOutcome>> {
        let Some(&carrier) = self.open.members.first() else {
            return Ok(None);
        };
        let sent = self.post_container(carrier);
        self.open.frames.clear();
        self.open.sns.clear();
        self.open.members.clear();
        sent.map(Some)
    }

    /// Finish the open container and post it — window, put, remember.
    fn post_container(&mut self, carrier: usize) -> AmResult<AmSendOutcome> {
        self.open.frames.finish_into(&mut self.batch_buf)?;
        self.harvest_if_full();
        let sent = self.sender.put_batch(
            self.clock,
            &self.batch_buf,
            self.open.frames.len(),
            &self.targets[carrier].target,
        )?;
        self.completions.push_back(sent.delivered());
        self.clock = sent.sender_free();
        if self.armed {
            let entry = Posted {
                bytes: self.batch_buf.clone(),
                sns: self.open.sns.clone(),
                members: self.open.members.clone(),
                carrier,
            };
            remember(&mut self.posted, &mut self.in_flight, entry);
        }
        Ok(sent)
    }

    /// Stage *await credit*, NACK: drain this lane's NACK table and retransmit
    /// the put carrying each reported sequence number. Returns how many puts
    /// were re-posted. A report matching no live entry is ignored: its
    /// frame's credit already arrived (the NACK raced the recovery), so there
    /// is nothing left to repair.
    fn poll_nacks(&mut self) -> AmResult<usize> {
        let mut retransmitted = 0usize;
        for row in 0..self.nacks.rows() {
            while let Some(missing) = self.nacks.poll(row)? {
                // The observing poll pays the read of the freshly DMA'd row,
                // mirroring the credit-acquire charge.
                let addr = self.nacks.row_addr(row)?;
                self.clock += self.bus.access(self.bus.core(), addr, 8, AccessKind::Read);
                retransmitted += self.retransmit(Some(missing))?;
            }
        }
        Ok(retransmitted)
    }

    /// Stage *retransmit*: re-put live posted entries byte-identically — the
    /// first one carrying sequence number `only` (a NACK names a lost frame
    /// precisely), or every one (`None`: the watchdog, each container once
    /// however many of its members are outstanding). The receiver's replay
    /// filter makes a spuriously early firing harmless: the duplicate is
    /// suppressed and its credit re-published idempotently.
    pub(super) fn retransmit(&mut self, only: Option<u32>) -> AmResult<usize> {
        let mut retransmitted = 0usize;
        for entry in &self.posted {
            let live = entry.members.iter().any(|&m| self.in_flight[m]);
            if !live || only.is_some_and(|sn| !entry.sns.contains(&sn)) {
                continue;
            }
            let target = &self.targets[entry.carrier].target;
            self.clock = self
                .sender
                .retransmit_frame(self.clock, &entry.bytes, target)?;
            retransmitted += 1;
            if only.is_some() {
                break;
            }
        }
        Ok(retransmitted)
    }

    /// The stream this lane fills (`bank % streams == stream`).
    pub fn stream_id(&self) -> usize {
        self.stream
    }

    /// Number of mailboxes this lane owns.
    pub fn slots(&self) -> usize {
        self.targets.len()
    }

    /// This lane's virtual clock (advanced by every send's `sender_free`).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// This lane's sender-side counters (template hits, back-pressure stalls,
    /// bytes sent, ...).
    pub fn stats(&self) -> &RuntimeStats {
        self.sender.stats()
    }

    /// Stage *post*, window: per-stream flow control shared by every put. A
    /// full window is harvested once before the put, and the stall counted.
    fn harvest_if_full(&mut self) {
        if self.completions.len() >= self.window {
            self.sender.stats_mut().sends_backpressured += 1;
            self.harvest_oldest();
        }
    }

    /// Wait (in lane time) until the oldest put in the window is delivered,
    /// then harvest every entry delivered by then, oldest first, at
    /// [`HARVEST_COST`] each. Returns how many were harvested (0 when the
    /// window is empty).
    fn harvest_oldest(&mut self) -> usize {
        let Some(&oldest) = self.completions.front() else {
            return 0;
        };
        let horizon = self.clock.max(oldest);
        let mut done = 0;
        while self.completions.front().is_some_and(|&t| t <= horizon) {
            self.completions.pop_front();
            done += 1;
        }
        self.sender.stats_mut().completions_harvested += done as u64;
        self.clock = horizon + HARVEST_COST * done as u64;
        done
    }

    /// Send one [`MessageSpec`] — single-element or chained — to a specific
    /// owned mailbox with a put of its own, under the same per-stream flow
    /// control as a fill. Rejected when (`bank`, `slot`) is not one of this
    /// stream's targets.
    pub fn send_spec(
        &mut self,
        bank: usize,
        slot: usize,
        spec: &MessageSpec,
    ) -> AmResult<AmSendOutcome> {
        let idx = self.owned(bank, slot)?;
        let sn = self.sender.encode_next(spec, &mut self.frame_buf)?;
        self.post_standalone(idx, sn)
    }

    /// Fill every owned slot once (round `round`), returning this stream's
    /// delivery horizon — when its last frame became visible at the receiver.
    ///
    /// Under the `Adaptive` aggregation policy the bank-major target walk
    /// accumulates into batch containers — contiguous same-bank slots share
    /// one put, closed on bank boundary, batch-fill, capacity or the latency
    /// watermark, and unconditionally at the end of the round (the burst
    /// boundary). Under `PerFrame` every frame is posted standalone.
    pub fn fill<F>(
        &mut self,
        elem: ElementId,
        mode: InvocationMode,
        round: u64,
        make: &F,
    ) -> AmResult<SimTime>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        let mut horizon = SimTime::ZERO;
        for idx in 0..self.targets.len() {
            let spec = self.build(elem, mode, idx, round, make);
            if let Some(sent) = self.post(idx, &spec)? {
                horizon = horizon.max(sent.delivered());
            }
        }
        if let Some(sent) = self.flush()? {
            horizon = horizon.max(sent.delivered());
        }
        Ok(horizon)
    }
}

/// The first-class multi-sender runtime object: one [`SenderLane`] per
/// receiver shard, each owning its transmit window. See the module docs for
/// how it connects and the flow-control contract.
#[derive(Debug)]
pub struct SenderFleet {
    pub(super) lanes: Vec<SenderLane>,
}

impl SenderFleet {
    /// Connect a fleet to `host` from fabric host `src`: one lane per
    /// receiver shard, each aimed at the mailboxes of the banks its shard
    /// drains and holding the receiver-resolved GOT of every installed
    /// element, with its credit and NACK tables registered sender-side and
    /// the host's credit returns installed against them before this returns
    /// (the module docs give the order). A connected fleet is ready for
    /// [`drive_pipeline`]; connecting again replaces the host's credit
    /// returns, so only the newest fleet can be driven.
    ///
    /// `package` is the sender-side copy of the package the fleet injects
    /// from (same source the receiver installed). The bank geometry is the
    /// host's [`MailboxBank`](crate::bank::MailboxBank); each lane's window
    /// is the host configuration's
    /// [`completion_window`](crate::config::RuntimeConfig::completion_window).
    /// Refused when the host has no package installed.
    pub fn connect_fleet(
        fabric: &SimFabric,
        src: HostId,
        host: &mut TwoChainsHost,
        package: Package,
    ) -> AmResult<Self> {
        let Some(installed) = host.package() else {
            return Err(AmError::InvalidConfig(
                "connect_fleet cannot wire the session: no package installed \
                 (install_package on the receiver before connecting)"
                    .into(),
            ));
        };
        let gots = installed
            .jams()
            .map(|(id, _)| Ok((id, host.export_got(id)?)))
            .collect::<AmResult<Vec<_>>>()?;
        let window = host.config().completion_window;
        if window == 0 {
            return Err(AmError::InvalidConfig(
                "completion window needs at least one entry".into(),
            ));
        }
        let (streams, banks) = (host.num_shards(), host.banks());
        let per_bank = banks.per_bank();
        let sender_host = fabric.host(src)?;
        let num_cores = sender_host.hierarchy().num_cores();
        let lanes = (0..streams)
            .map(|stream| {
                let mut sender =
                    TwoChainsSender::new(fabric.endpoint(src, host.host_id())?, package.clone());
                for (id, got) in &gots {
                    sender.set_remote_got(*id, got);
                }
                // Both tables live in *this sender's* address space, one row
                // per owned bank, so the receiver can write them with
                // one-sided puts.
                let rows = ShardMask::rows_owned(stream, streams, banks.banks());
                let region = sender_host
                    .register(BankFlags::table_len(rows, per_bank), AccessFlags::rw())?;
                let flags = BankFlags::new(region, rows, per_bank)?;
                let nack_region =
                    sender_host.register(NackFlags::table_len(rows), AccessFlags::rw())?;
                let nacks = NackFlags::new(nack_region, rows)?;
                let targets: Vec<StreamTarget> = banks
                    .iter()
                    .filter(|&(bank, _, _)| ShardMask::owner_of(bank, streams) == stream)
                    .map(|(bank, slot, mailbox)| StreamTarget {
                        bank,
                        slot,
                        target: mailbox.target(),
                    })
                    .collect();
                let index = targets
                    .iter()
                    .enumerate()
                    .map(|(i, t)| ((t.bank, t.slot), i))
                    .collect();
                Ok(SenderLane {
                    stream,
                    streams,
                    armed: sender.endpoint_mut().faults_enabled(),
                    sender,
                    in_flight: vec![false; targets.len()],
                    targets,
                    index,
                    flags,
                    nacks,
                    posted: Vec::new(),
                    completions: VecDeque::with_capacity(window),
                    window,
                    // Lane `s` polls its flag region on sender core
                    // `s % cores`, through that core's own private L1/L2
                    // (with more lanes than cores the surplus lanes alias
                    // cores — a cost-model approximation only; credit
                    // *values* always come from the region's real atomics).
                    bus: sender_host.core_bus(stream % num_cores),
                    clock: SimTime::ZERO,
                    policy: host.config().aggregation_policy,
                    open: OpenBatch::default(),
                    frame_buf: Vec::new(),
                    batch_buf: Vec::new(),
                })
            })
            .collect::<AmResult<Vec<_>>>()?;
        let tables = lanes
            .iter()
            .map(|lane| (lane.flags.descriptor(), lane.nacks.descriptor()))
            .collect();
        host.install_credit_returns(fabric, tables)?;
        Ok(SenderFleet { lanes })
    }

    /// Number of sender lanes (streams).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// One lane, by stream index.
    pub fn lane(&self, stream: usize) -> Option<&SenderLane> {
        self.lanes.get(stream)
    }

    /// Element id of a builtin benchmark jam (delegates to lane 0's package
    /// copy — every lane injects from the same package source).
    pub fn builtin_id(&self, jam: crate::builtin::BuiltinJam) -> AmResult<ElementId> {
        self.lanes
            .first()
            .ok_or_else(|| AmError::InvalidConfig("fleet has no lanes".into()))?
            .sender
            .builtin_id(jam)
    }

    /// Fleet-wide sender statistics: every lane's counters folded through
    /// [`RuntimeStats::merge`] (per-lane views stay available via
    /// [`SenderFleet::lane`]).
    pub fn stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats::new();
        for lane in &self.lanes {
            total.merge(lane.sender.stats());
        }
        total
    }

    /// Zero every lane's counters (template caches and clocks are preserved).
    pub fn reset_stats(&mut self) {
        for lane in &mut self.lanes {
            lane.sender.stats_mut().reset();
        }
    }

    /// Empty every stream's transmit window (bench housekeeping between
    /// phases). Each lane's clock waits to each entry's own delivery and pays
    /// the per-entry harvest cost, same as a back-pressure harvest; the
    /// counts land in
    /// [`RuntimeStats::completions_harvested`](crate::stats::RuntimeStats::completions_harvested).
    /// Returns the number harvested across the fleet.
    pub fn harvest_completions(&mut self) -> usize {
        let mut harvested = 0usize;
        for lane in &mut self.lanes {
            while !lane.completions.is_empty() {
                harvested += lane.harvest_oldest();
            }
        }
        harvested
    }

    /// Every lane, mutably, by stream index: the borrows are disjoint per
    /// stream and a lane is `Send`, so `iter_mut` hands one to each sender
    /// thread (caller-managed threading).
    pub fn lanes_mut(&mut self) -> &mut [SenderLane] {
        &mut self.lanes
    }

    /// Fill every stream's slots once, lane after lane on the calling thread
    /// (the deterministic schedule the modelled benchmarks use). Returns each
    /// stream's delivery horizon.
    pub fn fill_all<F>(
        &mut self,
        elem: ElementId,
        mode: InvocationMode,
        round: u64,
        make: &F,
    ) -> AmResult<Vec<SimTime>>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        self.lanes
            .iter_mut()
            .map(|lane| lane.fill(elem, mode, round, make))
            .collect()
    }

    /// What a pipeline run requires of the session: one lane per shard, the
    /// one-sided credit path installed, and installed for *this* fleet's
    /// tables — a later connect replaces the credit returns, and driving an
    /// earlier fleet would put every token into the newer fleet's regions
    /// while these lanes spin forever.
    fn check_paired(&self, host: &TwoChainsHost) -> AmResult<()> {
        let shards = host.num_shards();
        if self.lane_count() != shards {
            return Err(AmError::InvalidConfig(format!(
                "pipeline needs one sender lane per shard ({} lanes, {shards} shards)",
                self.lane_count()
            )));
        }
        if !host.credit_path_installed() {
            return Err(AmError::InvalidConfig(
                "pipeline needs the one-sided credit path: connect the fleet with \
                 SenderFleet::connect_fleet so the credit tables are installed"
                    .into(),
            ));
        }
        for lane in &self.lanes {
            if host.credit_descriptor(lane.stream) != Some(lane.flags.descriptor()) {
                return Err(AmError::InvalidConfig(format!(
                    "the host's credit path targets another fleet's tables (stream {}): \
                     a later connect replaced the credit returns — drive the most \
                     recently connected fleet, or re-connect this one",
                    lane.stream
                )));
            }
        }
        Ok(())
    }
}

/// One frame a pipeline run drained, with the mailbox it came from so
/// callers can attribute results (e.g. map a slot back to the key that was
/// written there).
#[derive(Debug, Clone, Copy)]
pub struct PipelineFrame {
    /// Bank the frame was drained from.
    pub bank: usize,
    /// Slot within the bank.
    pub slot: usize,
    /// The value the jam returned.
    pub result: u64,
}

/// Outcome of one [`drive_pipeline`] or [`step_pipeline`] run.
#[derive(Debug, Clone, Default)]
pub struct PipelineOutcome {
    /// Per-message outcomes, in per-shard drain order (shard-major). Order
    /// within a shard depends on the fill/drain interleave; compare results as
    /// a multiset against a sequential schedule.
    pub results: Vec<PipelineFrame>,
    /// Frames successfully drained (equals `results.len()`).
    pub drained: usize,
    /// Frames the dispatch rejected (their slots were credited back, so the
    /// pipeline completes regardless). A rejected frame the NACK path later
    /// redelivers also appears in `results`, so on a faulted link
    /// `drained..=drained + rejected` brackets the offered frame count from
    /// both sides rather than summing to it exactly.
    pub rejected: usize,
    /// Each shard's final drain clock, by shard index: where its last
    /// non-empty burst finished, in shard-virtual time.
    pub drained_at: Vec<SimTime>,
}

/// What one step of a pipeline party ([`LaneRun`] or [`DrainRun`]) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Step {
    /// Frames were posted, credits collected or frames drained: step again.
    Progressed,
    /// Nothing arrived: a lane's fruitless step of a stall episode (which on
    /// an armed lane answered NACKs and ran the watchdog), or a drain's empty
    /// scan. Waiting is the caller's business: a thread yields or parks, a
    /// single-threaded driver steps something else.
    Starved,
    /// Every frame is sent and, on an armed lane, every final credit is in;
    /// or the drain has executed its quota, or given up on the rest.
    Done,
}

/// One lane's side of a pipeline run, as a state machine: each
/// [`step`](LaneRun::step) does a bounded amount of work — it never blocks,
/// sleeps or reads a clock — so any driver can interleave lanes and shards
/// in any order. Its NACK answers and watchdog retransmits are steps too,
/// timed in the run's own count of fruitless steps, so a seeded schedule
/// repeats exactly on a lossy link as well.
pub(super) struct LaneRun<'a, F> {
    pub(super) lane: &'a mut SenderLane,
    elem: ElementId,
    mode: InvocationMode,
    rounds: u64,
    make: &'a F,
    /// How many times each owned slot has been filled.
    rounds_sent: Vec<u64>,
    /// Slots whose credit is in hand, in the order they will be sent.
    free: VecDeque<usize>,
    /// Where the next credit scan starts (round-robin over the slots).
    cursor: usize,
    /// Frames still to send.
    unsent: usize,
    /// Fruitless steps in the current stall episode (0 while progressing).
    fruitless: u32,
    /// The watchdog: the fruitless step at which it next fires, and how many
    /// times it has fired this episode.
    deadline: u32,
    fired: u32,
    /// The slots one step sends together (scratch).
    group: Vec<usize>,
}

impl<'a, F> LaneRun<'a, F>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
{
    /// Start a run of `rounds` fills of every slot `lane` owns. Credits and
    /// NACK records left over from earlier phased schedules (which consume
    /// none) are discarded: every slot starts empty, so round 0 needs no
    /// credit and anything pending in the tables is stale.
    fn new(
        lane: &'a mut SenderLane,
        elem: ElementId,
        mode: InvocationMode,
        rounds: usize,
        make: &'a F,
    ) -> AmResult<Self> {
        lane.sync_credits()?;
        lane.in_flight.fill(false);
        let slots = lane.targets.len();
        Ok(LaneRun {
            lane,
            elem,
            mode,
            rounds: rounds as u64,
            make,
            rounds_sent: vec![0; slots],
            free: (0..slots).collect(),
            cursor: 0,
            unsent: rounds * slots,
            fruitless: 0,
            deadline: 0,
            fired: 0,
            group: Vec::new(),
        })
    }

    /// Advance the run: send the next group of frames if a credit is in hand
    /// or a scan of the credit table finds one, otherwise report starvation;
    /// once everything is sent, collect the final credits.
    pub(super) fn step(&mut self) -> AmResult<Step> {
        if self.unsent == 0 {
            return self.collect_final_credits();
        }
        let first = match self.free.pop_front() {
            None => self.acquire()?,
            in_hand => in_hand,
        };
        let Some(first) = first else {
            return self.starved();
        };
        self.fruitless = 0;
        self.send_group(first)?;
        Ok(Step::Progressed)
    }

    /// Stage *await credit*, acquire: one round-robin scan of the slots that
    /// still owe rounds. One coalesced credit flush can refill several slots
    /// at once, so the scan harvests every token it finds — the first is
    /// returned (sent first, and the cursor moves behind it), the rest queue
    /// up — and one wakeup never costs more stall episodes than the flush
    /// that caused it.
    fn acquire(&mut self) -> AmResult<Option<usize>> {
        let slots = self.rounds_sent.len();
        let mut first = None;
        for step in 0..slots {
            // The origin is read every step, so it jumps with the cursor when
            // the first token is found and the slot right behind that one
            // waits for the next scan. Kept as `drive_pipeline` always had it:
            // the scan order decides how credits group into containers, and
            // with that every schedule-dependent counter of a pipelined run.
            let i = (self.cursor + step) % slots;
            if self.rounds_sent[i] < self.rounds && self.lane.try_acquire_slot(i)? {
                if first.is_none() {
                    first = Some(i);
                    self.cursor = (i + 1) % slots;
                } else {
                    self.free.push_back(i);
                    self.lane.sender.stats_mut().credit_refills_coalesced += 1;
                }
            }
        }
        Ok(first)
    }

    /// Stages *build → post*: opportunistic grouping — every already-free
    /// slot of `first`'s bank rides along (their credits are in hand), up to
    /// the batch-fill bound, so one coalesced credit span refilling a row
    /// turns into one put. Ends on the burst boundary: the lane goes back to
    /// waiting on credits next, and frames must not sit unpublished across a
    /// wait.
    fn send_group(&mut self, first: usize) -> AmResult<()> {
        let targets = &self.lane.targets;
        let bank = targets[first].bank;
        let group = &mut self.group;
        group.clear();
        group.push(first);
        self.free.retain(|&j| {
            let joins = group.len() < BATCH_FILL && targets[j].bank == bank;
            if joins {
                group.push(j);
            }
            !joins
        });
        for &j in &self.group {
            let spec = self
                .lane
                .build(self.elem, self.mode, j, self.rounds_sent[j], self.make);
            self.lane.post(j, &spec)?;
            self.rounds_sent[j] += 1;
            self.unsent -= 1;
        }
        self.lane.flush()?;
        Ok(())
    }

    /// Every frame is sent, but on an armed lane the last one per slot may
    /// still be in flight — and on a lossy link "in flight" can mean "gone".
    /// A lossless lane is done after its last put (the drain side owes it
    /// nothing it will act on); an armed lane holds the retransmit machinery
    /// open until every final credit lands, or a dropped final frame would
    /// deadlock the drain with no sender left to repair it.
    fn collect_final_credits(&mut self) -> AmResult<Step> {
        if !self.lane.in_flight.contains(&true) {
            return Ok(Step::Done);
        }
        let mut progressed = false;
        for i in 0..self.lane.in_flight.len() {
            if self.lane.in_flight[i] && self.lane.try_acquire_slot(i)? {
                progressed = true;
            }
        }
        if !progressed {
            return self.starved();
        }
        self.fruitless = 0;
        Ok(Step::Progressed)
    }

    /// Stage *await credit*, starved: one fruitless step. The episode's first
    /// counts one credit stall, however many steps it takes. On an armed lane
    /// a NACK names a lost frame precisely — it is retransmitted now and
    /// pushes the (coarser) watchdog back — and a deadline passed with
    /// neither a credit nor a NACK re-puts every live posted entry, on a
    /// budget of [`RETRY_BUDGET`] firings an episode.
    fn starved(&mut self) -> AmResult<Step> {
        if self.fruitless == 0 {
            self.lane.sender.stats_mut().credit_stall_events += 1;
            self.fired = 0;
            self.deadline = SPIN_SCANS + WATCHDOG_BASE;
        }
        self.fruitless = self.fruitless.saturating_add(1);
        if self.lane.armed {
            if self.lane.poll_nacks()? > 0 {
                self.deadline = self.fruitless.saturating_add(watchdog_delay(self.fired));
            }
            if self.fruitless >= self.deadline {
                if self.fired == RETRY_BUDGET {
                    return Err(AmError::RetryBudgetSpent {
                        lane: self.lane.stream,
                    });
                }
                self.fired += 1;
                self.lane.retransmit(None)?;
                self.deadline = self.fruitless.saturating_add(watchdog_delay(self.fired));
            }
        }
        Ok(Step::Starved)
    }
}

/// The watchdog's delay after its `fired`-th firing, in fruitless steps:
/// [`WATCHDOG_BASE`] times the (`fired` + 1)-th Fibonacci number (1, 1, 2,
/// 3, 5, …), clamped at [`WATCHDOG_CLAMP`].
fn watchdog_delay(fired: u32) -> u32 {
    let (mut prev, mut cur) = (0u32, 1u32);
    for _ in 0..fired {
        (prev, cur) = (cur, prev.saturating_add(cur));
    }
    cur.saturating_mul(WATCHDOG_BASE).min(WATCHDOG_CLAMP)
}

/// Empty scans a drain whose every outstanding frame is accounted for by a
/// rejection takes before it retires the gap as lost.
const GIVE_UP_SCANS: usize = 512;

/// Starved steps in a row after which [`step_pipeline`] calls a run wedged,
/// once every party still running has taken that many. A live run never
/// gets there: a drain gives up after [`GIVE_UP_SCANS`] empty scans, and an
/// armed lane fails loudly before its episode outlasts the watchdog's
/// budget (the assertion below), so only a clean-link wedge, which no
/// watchdog covers, trips it.
const STALL_STEPS: u32 = 16_384;
const _: () = assert!(STALL_STEPS > SPIN_SCANS + WATCHDOG_BASE + RETRY_BUDGET * WATCHDOG_CLAMP);

/// One shard's side of a pipeline run, the mirror of [`LaneRun`]: each
/// [`step`](DrainRun::step) is one `receive_burst` from the clock the last
/// non-empty one left, until `want` frames have executed. Credits for
/// everything a burst retires are put back inside the burst engine itself,
/// the moment each slot is clear.
///
/// The quota counts *executed* frames only. A frame torn by an in-flight
/// fault is rejected (its credit returns immediately), then usually comes
/// back: its sequence gap ages out of the scan-jumble watcher, the coalesced
/// NACK reaches the paired lane, and the retransmit drains like any other
/// frame. Counting the rejection against the quota would end the drain one
/// retirement early when that recovery lands, stranding the final round's
/// credits and starving the lane. When the tear hits the run's tail the lane
/// may already have exited (no credit is owed), so once every outstanding
/// frame is accounted for by a rejection, [`GIVE_UP_SCANS`] empty scans
/// retire the gap as lost instead of spinning.
pub(super) struct DrainRun<'a> {
    drain: ShardDrain<'a>,
    want: usize,
    results: Vec<PipelineFrame>,
    rejected: usize,
    /// The shard's drain clock: where its last non-empty burst finished.
    drained_at: SimTime,
    /// Empty scans since every outstanding frame was accounted for.
    idle_scans: usize,
}

impl DrainRun<'_> {
    /// Drain one burst, or report the quota met or given up on.
    fn step(&mut self) -> AmResult<Step> {
        if self.results.len() >= self.want || self.idle_scans >= GIVE_UP_SCANS {
            return Ok(Step::Done);
        }
        let out = self.drain.receive_burst(usize::MAX, self.drained_at)?;
        if out.is_empty() {
            if self.results.len() + self.rejected >= self.want {
                self.idle_scans += 1;
            }
            return Ok(Step::Starved);
        }
        self.idle_scans = 0;
        self.drained_at = out.drained_at;
        self.results
            .extend(out.frames.iter().map(|f| PipelineFrame {
                bank: f.bank,
                slot: f.slot,
                result: f.outcome.result,
            }));
        self.rejected += out.rejected.len();
        Ok(Step::Progressed)
    }
}

/// One party of a pipeline run: a lane's side or a shard's.
pub(super) enum Party<'a, F> {
    Lane(LaneRun<'a, F>),
    Drain(DrainRun<'a>),
}

impl<F> Party<'_, F>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
{
    fn step(&mut self) -> AmResult<Step> {
        match self {
            Party::Lane(run) => run.step(),
            Party::Drain(run) => run.step(),
        }
    }

    /// The message this party's thread panic propagates with.
    fn panic_text(&self) -> &'static str {
        match self {
            Party::Lane(_) => "sender lane thread panicked",
            Party::Drain(_) => "drain thread panicked",
        }
    }

    /// Whether a starved thread of this party parks rather than yields: a
    /// lane past the first [`SPIN_SCANS`] fruitless steps of an episode.
    fn parks(&self) -> bool {
        matches!(self, Party::Lane(run) if run.fruitless >= SPIN_SCANS)
    }
}

/// Every party of a run of `rounds` fills per slot, once the session is
/// checked ([`SenderFleet::check_paired`]): one [`LaneRun`] per lane, then
/// one [`DrainRun`] per shard owing its lane's `rounds` × slots frames. Both
/// drivers step these; the seeded one picks them by this index.
pub(super) fn parties<'a, F>(
    host: &'a mut TwoChainsHost,
    fleet: &'a mut SenderFleet,
    elem: ElementId,
    mode: InvocationMode,
    rounds: usize,
    make: &'a F,
) -> AmResult<Vec<Party<'a, F>>>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
{
    fleet.check_paired(host)?;
    let wants: Vec<usize> = fleet.lanes.iter().map(|l| rounds * l.slots()).collect();
    let mut parties = fleet
        .lanes
        .iter_mut()
        .map(|lane| LaneRun::new(lane, elem, mode, rounds, make).map(Party::Lane))
        .collect::<AmResult<Vec<_>>>()?;
    for (drain, want) in host.shard_drains().into_iter().zip(wants) {
        parties.push(Party::Drain(DrainRun {
            drain,
            want,
            results: Vec::with_capacity(want),
            rejected: 0,
            drained_at: SimTime::ZERO,
            idle_scans: 0,
        }));
    }
    Ok(parties)
}

/// What the drains of a finished run report.
fn outcome<F>(parties: Vec<Party<'_, F>>) -> PipelineOutcome {
    let mut out = PipelineOutcome::default();
    for party in parties {
        if let Party::Drain(run) = party {
            out.results.extend(run.results);
            out.rejected += run.rejected;
            out.drained_at.push(run.drained_at);
        }
    }
    out.drained = out.results.len();
    out
}

/// A pipeline thread's body: step `party` to `Done`. Between starved steps it
/// bails out if the other side died, then waits: a lane yields for the first
/// [`SPIN_SCANS`] fruitless steps of an episode (credits normally arrive
/// within a burst) and parks after that, so a stalled lane on an
/// oversubscribed host stops stealing quanta from the very drain threads it
/// is waiting on; a drain yields.
fn run_party<'a, F>(mut party: Party<'a, F>, abort: &AtomicBool) -> AmResult<Party<'a, F>>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
{
    loop {
        match party.step()? {
            Step::Done => return Ok(party),
            Step::Progressed => {}
            Step::Starved if abort.load(Ordering::Relaxed) => return Err(AmError::PipelineAborted),
            Step::Starved if party.parks() => std::thread::sleep(PARK),
            Step::Starved => std::thread::yield_now(),
        }
    }
}

/// Run one pipeline thread's `body` with the abort flag armed against both
/// ways it can die. A dead sender leaves the drains with an unreachable frame
/// quota, a dead drain leaves the lanes spinning on credits that will never
/// be put — whichever side is still alive must bail out instead of spinning
/// forever — so the flag is raised on an error *and* on unwinding: a panic in
/// the payload generator (or anywhere in either loop) must release the other
/// side, or `thread::scope` would block on it forever instead of propagating
/// the panic. Clean completion leaves the flag alone: everything this thread
/// owed the other side is already in place.
fn aborting<T>(abort: &AtomicBool, body: impl FnOnce() -> AmResult<T>) -> AmResult<T> {
    struct AbortOnDrop<'a>(&'a AtomicBool);
    impl Drop for AbortOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let guard = AbortOnDrop(abort);
    let result = body();
    if result.is_ok() {
        std::mem::forget(guard);
    }
    result
}

/// Run `rounds` full fill+drain cycles with fill and drain overlapping in wall
/// clock: one thread per party (a sender thread per lane, a drain thread per
/// receiver shard), coupled *only* by the one-sided credit path — as each
/// frame retires, the drain's burst engine puts the slot's next credit token
/// into the paired lane's flag region (`BankFlags`), and the lane spins/parks
/// on acquire loads of its own region until a refillable slot's token changes.
/// No channels, no shared queues: flow control is fabric traffic, charged in
/// virtual time on both the drain core (posting) and the wire/DMA models.
///
/// Requires `fleet.lane_count() == host.num_shards()` *and* the credit path
/// installed — both guaranteed by construction for a fleet connected with
/// [`SenderFleet::connect_fleet`] — so stream `s` and shard `s` form a closed
/// pipeline over the same banks. `make` generates each
/// message's (ARGS, USR) from its [`SlotCtx`]; each slot is filled exactly
/// `rounds` times with rounds `0..rounds`, so a sequential schedule filling
/// with the same generator produces the identical message multiset.
pub fn drive_pipeline<F>(
    host: &mut TwoChainsHost,
    fleet: &mut SenderFleet,
    elem: ElementId,
    mode: InvocationMode,
    rounds: usize,
    make: &F,
) -> AmResult<PipelineOutcome>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>) + Sync,
{
    let parties = parties(host, fleet, elem, mode, rounds, make)?;
    let abort = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        let threads: Vec<_> = parties
            .into_iter()
            .map(|party| {
                let panicked = party.panic_text();
                let thread = scope.spawn(move || aborting(abort, || run_party(party, abort)));
                (panicked, thread)
            })
            .collect();
        // Join *every* party before reporting: after an abort, one side holds
        // the root-cause error and the other holds only the secondary
        // `PipelineAborted` it raised when released, and either side may be
        // the one that actually failed (a lane's send, or a drain's
        // dispatch/credit put).
        let mut errors: Vec<AmError> = Vec::new();
        let mut finished = Vec::new();
        for (panicked, thread) in threads {
            match thread.join().expect(panicked) {
                Ok(party) => finished.push(party),
                Err(e) => errors.push(e),
            }
        }
        if errors.is_empty() {
            return Ok(outcome(finished));
        }
        // Surface the root cause, not a released thread's abort notice.
        let root = errors
            .iter()
            .position(|e| !matches!(e, AmError::PipelineAborted))
            .unwrap_or(0);
        Err(errors.swap_remove(root))
    })
}

/// Run the pipeline [`drive_pipeline`] runs on the calling thread: the same
/// parties, stepped one at a time in an order a linear congruential generator
/// seeded with `seed` picks (a party already `Done` is skipped) — no thread,
/// no sleep, no spin, no wall clock. One seed is one schedule: results,
/// drain order, every clock and counter and, on a faulted link, every NACK
/// and retransmit repeat exactly. It requires and refuses what
/// `drive_pipeline` does, and `make` need not be `Sync`. Where the threaded
/// driver would wait forever, it fails: once every party still running has
/// starved 16 384 steps in a row, the run is wedged and this returns
/// [`AmError::Wedged`].
pub fn step_pipeline<F>(
    host: &mut TwoChainsHost,
    fleet: &mut SenderFleet,
    elem: ElementId,
    mode: InvocationMode,
    rounds: usize,
    make: &F,
    seed: u64,
) -> AmResult<PipelineOutcome>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
{
    let mut parties = parties(host, fleet, elem, mode, rounds, make)?;
    // Each party's starved steps in a row, or `None` once it is done.
    let mut starved = vec![Some(0); parties.len()];
    let mut lcg = seed;
    while starved.iter().any(Option::is_some) {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let pick = (lcg >> 33) as usize % parties.len();
        let Some(steps) = starved[pick] else { continue };
        starved[pick] = match parties[pick].step()? {
            Step::Done => None,
            Step::Progressed => Some(0),
            Step::Starved => Some(steps + 1),
        };
        if starved.iter().flatten().all(|&n| n >= STALL_STEPS) && starved[pick].is_some() {
            return Err(AmError::Wedged);
        }
    }
    Ok(outcome(parties))
}
