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
//! so pairing `sender_streams == num_shards` gives every drain shard one
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
//! # The session handshake
//!
//! Connection setup is one explicit, by-value exchange that cannot be
//! partially wired:
//! [`TwoChainsHost::session_handshake`](super::TwoChainsHost::session_handshake)
//! exports a [`SessionHandshake`] — one [`StreamHandshake`] per receiver
//! shard, each carrying
//!
//! 1. the [`StreamTarget`]s (bank, slot, [`MailboxTarget`]) of every mailbox
//!    the stream owns (plus the bank geometry the credit table mirrors), and
//! 2. the receiver-resolved GOT image of every element in the installed
//!    package (the paper's "GOT redirect ... set by the sender after an
//!    exchange with the receiver").
//!
//! [`SenderFleet::connect_fleet`] consumes the session: one endpoint + sender
//! per stream, GOT images registered, template caches cold until first use —
//! and answers with the *reverse* half in the same call: each lane registers a
//! [`BankFlags`](crate::bank::BankFlags) credit table and a
//! [`NackFlags`](crate::bank::NackFlags) table in its own (sender-side)
//! address space and ships the descriptors back as
//! [`CreditHandshake`](super::CreditHandshake)s, which the host turns into one
//! reverse-direction endpoint per receiver shard. The closed `stream == shard`
//! pairing is a construction invariant of the session: a host whose
//! configuration cannot support it refuses to export the handshake with one
//! error listing everything that is missing, so there is no connected-but-
//! creditless state to discover later.
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
//!   credit. The span put is still its own signal: on an unordered fabric it
//!   *is* the conservative `put_unordered` + fence + signal-put protocol
//!   collapsed into one transfer, so ordered and unordered links behave
//!   identically here. One flush can refill several of a lane's slots at
//!   once — the wakeup harvests them all and counts the extras in
//!   [`RuntimeStats::credit_refills_coalesced`].
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
//! Every lane's send posts the put's delivery into the lane's own
//! [`CompletionQueue`] — one queue per lane, built at connect and owned by the
//! [`SenderLane`] it throttles. The queue depth
//! ([`RuntimeConfig::completion_window`]) is the transmit window: a lane that
//! fills it harvests its completions (charged the per-entry software cost,
//! counted in [`RuntimeStats::sends_backpressured`] /
//! [`RuntimeStats::completions_harvested`]) before posting more. No lane can
//! name another's queue, so back-pressure pauses only the affected stream.
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
//! | 4 post | `post_standalone` / `flush` → `post_container` | the lane's window (`harvest_if_full`), one put tracked by it (`put_frame` / `put_batch`), `remember` on an armed lane |
//! | 5 await credit | `LaneRun::acquire` / `collect_final_credits` (`try_acquire_slot`), and while starved `CreditWait::idle` (`poll_nacks`, watchdog, spin / park) | which slots may be refilled |
//! | 6 retransmit | `SenderLane::retransmit` | live posted entries re-put byte-identically: the one a NACK names, or all of them |
//!
//! [`SenderLane::fill`] (the phased, deterministic schedule) is stages 1–4
//! over every owned slot and a closing flush. [`drive_pipeline`] runs all six
//! with fill and drain overlapping in wall clock: a lane's side of the run is
//! a `LaneRun` whose `step()` never blocks — it reports `Progressed`,
//! `Starved` or `Done` — so *waiting* is the driver's business. The OS-thread
//! driver parks a starved lane in a `CreditWait` (the only place the sender
//! side yields, sleeps or reads wall time); a single-threaded driver can
//! interleave lanes and shards in any order and reproduce a run bit for bit.
//! Sender threads and shard-drain threads are coupled only by the one-sided
//! credit path — no channels, no shared queues. As each frame retires, the
//! drain thread puts the slot's next credit token into the paired lane's flag
//! region, and the lane refills a slot the moment its token changes. Results
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
use std::time::{Duration, Instant};

use twochains_fabric::{AccessFlags, CompletionQueue, HostId, SimFabric};
use twochains_jamvm::GotImage;
use twochains_linker::{ElementId, Package};
use twochains_memsim::{AccessKind, CoreBus, MemoryBus, SimTime};

use super::credit::CreditHandshake;
use super::retry::ClampedFibonacci;
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
/// First watchdog delay after a stall with frames in flight begins; the
/// schedule then follows [`ClampedFibonacci`]. Credit round-trips complete in
/// microseconds of wall clock on a healthy link, so a stall this long with no
/// credit and no NACK means the frame (or its NACK) is probably gone.
const WATCHDOG_BASE: Duration = Duration::from_micros(400);
/// Backoff clamp: a persistently lossy link keeps being probed at this rate
/// instead of backing off into effective silence.
const WATCHDOG_CLAMP: Duration = Duration::from_millis(10);
/// Watchdog firings a single stall episode may consume before the lane fails
/// loudly. At the clamp this bounds a wedged episode to a few hundred
/// milliseconds of retries — a link that eats 32 consecutive retransmits of
/// the same frames is broken, not lossy, and spinning forever would just
/// deadlock the pipeline with no diagnosis.
const RETRY_BUDGET: u32 = 32;

/// One mailbox a sender stream owns: its coordinates on the receiver and the
/// target descriptor to aim the one-sided put at.
#[derive(Debug, Clone)]
pub struct StreamTarget {
    /// Bank index on the receiver.
    pub bank: usize,
    /// Slot within the bank.
    pub slot: usize,
    /// The put target (region descriptor + offset + capacity).
    pub target: MailboxTarget,
}

/// The receiver's half of the multi-sender connection setup for one stream:
/// everything an initiator needs to start injecting, by value.
#[derive(Debug, Clone)]
pub struct StreamHandshake {
    /// The stream this handshake is for (`0..streams`).
    pub stream: usize,
    /// Total number of streams the receiver partitioned its banks over.
    pub streams: usize,
    /// Mailboxes per bank on the receiver — the geometry the stream's credit
    /// table ([`BankFlags`]) mirrors row for row.
    pub per_bank: usize,
    /// The mailboxes this stream owns (`bank % streams == stream`).
    pub targets: Vec<StreamTarget>,
    /// Receiver-resolved GOT image per installed package element.
    pub gots: Vec<(ElementId, GotImage)>,
}

/// The receiver's complete half of a fleet session, exported by
/// [`TwoChainsHost::session_handshake`] and consumed whole by
/// [`SenderFleet::connect_fleet`]: every stream's targets and GOT images plus
/// the shard count the credit and NACK tables must pair with. Bundling the
/// pieces makes partial wiring unrepresentable — a session either connects
/// with its one-sided credit returns and NACK arming installed, or it does not
/// connect at all.
#[derive(Debug, Clone)]
pub struct SessionHandshake {
    /// One forward handshake per stream (`streams.len() == shards` — the
    /// closed pairing is a construction invariant).
    pub streams: Vec<StreamHandshake>,
    /// The receiver's shard count, which the sender's credit/NACK geometry
    /// mirrors row for row.
    pub shards: usize,
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
/// its [`BankFlags`] credit table (the flag region the receiver's credit puts
/// land in, registered in this sender's address space), its transmit window
/// (the [`CompletionQueue`] every put of this lane is tracked by), the core
/// bus its credit polls are charged through, and its private virtual clock.
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
    /// receiver's sequence-gap reports ([`NackFlags`]). Registered alongside
    /// the credit table and handed over in the same [`CreditHandshake`].
    nacks: NackFlags,
    /// Whether this lane's endpoint was created under a fault plan — the
    /// switch that arms the sender half of the reliability layer. On a
    /// pristine link nothing is remembered, no NACK row is polled and no
    /// watchdog fires, so the lossless path pays nothing for the machinery.
    armed: bool,
    /// The lane's transmit window: every data-path put posts its delivery
    /// here, and a full queue is harvested before the next put.
    completions: CompletionQueue,
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
    fn new(
        handshake: StreamHandshake,
        mut sender: TwoChainsSender,
        flags: BankFlags,
        nacks: NackFlags,
        completions: CompletionQueue,
        bus: CoreBus,
        policy: AggregationPolicy,
    ) -> Self {
        for (id, got) in &handshake.gots {
            sender.set_remote_got(*id, got);
        }
        let owns =
            |t: &StreamTarget| ShardMask::owner_of(t.bank, handshake.streams) == handshake.stream;
        debug_assert!(handshake.targets.iter().all(owns), "foreign bank");
        let index = handshake
            .targets
            .iter()
            .enumerate()
            .map(|(i, t)| ((t.bank, t.slot), i))
            .collect();
        SenderLane {
            stream: handshake.stream,
            streams: handshake.streams,
            armed: sender.endpoint_mut().faults_enabled(),
            sender,
            in_flight: vec![false; handshake.targets.len()],
            targets: handshake.targets,
            index,
            flags,
            nacks,
            posted: Vec::new(),
            completions,
            bus,
            clock: SimTime::ZERO,
            policy,
            open: OpenBatch::default(),
            frame_buf: Vec::new(),
            batch_buf: Vec::new(),
        }
    }

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

    /// Snapshot the credit table, discarding stale credits ([`BankFlags::sync`]),
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
        let sent = self.sender.put_frame(
            self.clock,
            &self.frame_buf,
            target,
            Some(&mut self.completions),
        )?;
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
            Some(&mut self.completions),
        )?;
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
    /// full completion window is first harvested at the earliest completion
    /// horizon, charging the harvest cost to this lane's clock and counting
    /// the stall.
    fn harvest_if_full(&mut self) {
        let cq = &mut self.completions;
        if cq.outstanding() >= cq.capacity() {
            let ready_at = cq.earliest_ready(self.clock);
            let (done, cost) = cq.poll(ready_at);
            let stats = self.sender.stats_mut();
            stats.sends_backpressured += 1;
            stats.completions_harvested += done.len() as u64;
            self.clock = ready_at + cost;
        }
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
/// stream, each owning its transmit window. See the module docs for the
/// handshake and flow-control contract.
#[derive(Debug)]
pub struct SenderFleet {
    pub(super) lanes: Vec<SenderLane>,
}

impl SenderFleet {
    /// Connect a fleet to `host` from fabric host `src` in **one session
    /// exchange**: the host exports its [`SessionHandshake`] (stream targets
    /// and GOT images, refused outright with one error listing everything
    /// missing if the session cannot be fully wired), the fleet builds one
    /// lane per stream and registers each lane's [`BankFlags`] credit table
    /// and [`NackFlags`](crate::bank::NackFlags) table sender-side, and the
    /// host installs the reverse-direction credit-return endpoints — all
    /// before this returns. There is no partially wired state: a connected
    /// fleet always has the one-sided credit path and NACK arming installed,
    /// ready for [`drive_pipeline`].
    ///
    /// `package` is the sender-side copy of the package the fleet injects
    /// from (same source the receiver installed). The stream count and
    /// per-stream window come from the host configuration's
    /// [`sender_streams`](crate::config::RuntimeConfig::sender_streams) and
    /// [`completion_window`](crate::config::RuntimeConfig::completion_window)
    /// knobs; `sender_streams` must equal the shard count (the session's
    /// construction invariant).
    pub fn connect_fleet(
        fabric: &SimFabric,
        src: HostId,
        host: &mut TwoChainsHost,
        package: Package,
    ) -> AmResult<Self> {
        let session = host.session_handshake()?;
        let window = host.config().completion_window;
        if window == 0 {
            return Err(AmError::InvalidConfig(
                "completion window needs at least one entry".into(),
            ));
        }
        // One endpoint + sender per forward handshake, each lane's credit and
        // NACK tables registered in the sender's address space, their
        // descriptors collected for the reverse half of the exchange.
        let sender_host = fabric.host(src)?;
        let num_cores = sender_host.hierarchy().num_cores();
        // Per-entry harvest cost: the same software bookkeeping constant the
        // UCX-like baseline pays, taken from its single definition so a
        // retuned baseline can never silently diverge from the fleet.
        let harvest_cost = CompletionQueue::ucx_default().harvest_cost();
        let mut credit_handshakes = Vec::with_capacity(session.streams.len());
        let lanes = session
            .streams
            .into_iter()
            .map(|handshake| {
                let endpoint = fabric.endpoint(src, host.host_id())?;
                // The lane's credit table: one row per owned bank, registered
                // in *this sender's* address space so the receiver can credit
                // it with one-sided puts (the reverse handshake below hands
                // the descriptor over).
                let rows =
                    ShardMask::rows_owned(handshake.stream, handshake.streams, host.config().banks);
                let region = sender_host.register(
                    BankFlags::table_len(rows, handshake.per_bank),
                    AccessFlags::rw(),
                )?;
                let flags = BankFlags::new(region, rows, handshake.per_bank)?;
                // The lane's NACK table rides the same reverse handshake: the
                // receiver posts sequence-gap reports here with one-sided
                // puts, arming the reliability layer for this stream.
                let nack_region =
                    sender_host.register(NackFlags::table_len(rows), AccessFlags::rw())?;
                let nacks = NackFlags::new(nack_region, rows)?;
                credit_handshakes.push(CreditHandshake {
                    stream: handshake.stream,
                    streams: handshake.streams,
                    per_bank: handshake.per_bank,
                    descriptor: flags.descriptor(),
                    nack: Some(nacks.descriptor()),
                });
                // Lane `s` polls its flag region on sender core `s % cores`,
                // through that core's own private L1/L2 (with more lanes than
                // cores the surplus lanes alias cores — a cost-model
                // approximation only; credit *values* always come from the
                // region's real atomics).
                let bus = sender_host.core_bus(handshake.stream % num_cores);
                Ok(SenderLane::new(
                    handshake,
                    TwoChainsSender::new(endpoint, package.clone()),
                    flags,
                    nacks,
                    CompletionQueue::new(window, harvest_cost),
                    bus,
                    host.config().aggregation_policy,
                ))
            })
            .collect::<AmResult<Vec<_>>>()?;
        host.install_credit_returns(fabric, credit_handshakes)?;
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

    /// Harvest every completion on every stream's queue (bench housekeeping
    /// between phases). Each lane's clock waits to each entry's own readiness
    /// horizon and pays the per-entry harvest cost, same as a back-pressure
    /// harvest; the counts land in
    /// [`RuntimeStats::completions_harvested`](crate::stats::RuntimeStats::completions_harvested).
    /// Returns the number harvested across the fleet.
    pub fn harvest_completions(&mut self) -> usize {
        let mut harvested = 0usize;
        for lane in &mut self.lanes {
            let cq = &mut lane.completions;
            while cq.outstanding() > 0 {
                let horizon = cq.earliest_ready(lane.clock);
                let (done, cost) = cq.poll(horizon);
                lane.sender.stats_mut().completions_harvested += done.len() as u64;
                lane.clock = lane.clock.max(horizon) + cost;
                harvested += done.len();
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

    /// Start a pipeline run of `rounds` fills per slot: one steppable
    /// [`LaneRun`] per lane.
    pub(super) fn lane_runs<'a, F>(
        &'a mut self,
        elem: ElementId,
        mode: InvocationMode,
        rounds: usize,
        make: &'a F,
    ) -> AmResult<Vec<LaneRun<'a, F>>>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        self.lanes
            .iter_mut()
            .map(|lane| LaneRun::new(lane, elem, mode, rounds, make))
            .collect()
    }
}

/// One frame drained by [`drive_pipeline`], with the mailbox it came from so
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

/// Outcome of one [`drive_pipeline`] run.
#[derive(Debug, Clone)]
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
}

/// What one [`LaneRun::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Step {
    /// Frames were posted or credits collected: step again.
    Progressed,
    /// Nothing to do until a credit arrives. Waiting is the caller's
    /// business: a thread idles in a [`CreditWait`], a single-threaded driver
    /// steps something else.
    Starved,
    /// Every frame is sent and, on an armed lane, every final credit is in.
    Done,
}

/// One lane's side of a pipeline run, as a state machine: each
/// [`step`](LaneRun::step) does a bounded amount of work — it never blocks,
/// sleeps or reads wall time — so any driver can interleave lanes and shards
/// in any order.
pub(super) struct LaneRun<'a, F> {
    lane: &'a mut SenderLane,
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
    /// Whether the current stall episode has been counted.
    stalled: bool,
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
            stalled: false,
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
            if !self.stalled {
                // One stall *episode*, however many fruitless scans it takes.
                self.lane.sender.stats_mut().credit_stall_events += 1;
                self.stalled = true;
            }
            return Ok(Step::Starved);
        };
        self.stalled = false;
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
        Ok(if progressed {
            Step::Progressed
        } else {
            Step::Starved
        })
    }
}

/// Stage *await credit*, wait: what a lane thread does between fruitless
/// steps of one stall episode — the only place the sender side yields,
/// sleeps or reads wall time. A fresh one per episode (progress ends it).
struct CreditWait {
    fruitless: u32,
    /// Watchdog state (armed lanes only): if neither a credit nor a NACK
    /// shows up for a clamped-Fibonacci backoff interval, every live posted
    /// entry is retransmitted, on a bounded budget.
    backoff: ClampedFibonacci,
    deadline: Instant,
    budget: u32,
}

impl CreditWait {
    fn new() -> Self {
        let mut backoff = ClampedFibonacci::new(WATCHDOG_BASE, WATCHDOG_CLAMP);
        CreditWait {
            fruitless: 0,
            deadline: Instant::now() + backoff.next_delay(),
            backoff,
            budget: RETRY_BUDGET,
        }
    }

    /// One fruitless step: bail out if the other side died, let an armed lane
    /// answer NACKs and run its watchdog, then spin or park. The first
    /// [`SPIN_SCANS`] times the thread only yields (credits normally arrive
    /// within a burst); after that it parks briefly, so a stalled lane on an
    /// oversubscribed host stops stealing quanta from the very drain threads
    /// it is waiting on.
    fn idle(&mut self, lane: &mut SenderLane, abort: &AtomicBool) -> AmResult<()> {
        if abort.load(Ordering::Relaxed) {
            return Err(AmError::Exec(
                "pipeline aborted: a drain shard failed before returning all credits".into(),
            ));
        }
        if lane.armed {
            // A NACK names a lost frame precisely — it was retransmitted just
            // now, so push the (coarser) timeout watchdog back.
            if lane.poll_nacks()? > 0 {
                self.deadline = Instant::now() + self.backoff.next_delay();
            }
            if Instant::now() >= self.deadline {
                if self.budget == 0 {
                    return Err(AmError::Exec(format!(
                        "lane {} exhausted its {RETRY_BUDGET}-retry reliability budget: \
                         frames are being lost faster than the retransmit path can \
                         recover them",
                        lane.stream
                    )));
                }
                self.budget -= 1;
                lane.retransmit(None)?;
                self.deadline = Instant::now() + self.backoff.next_delay();
            }
        }
        self.fruitless = self.fruitless.saturating_add(1);
        if self.fruitless < SPIN_SCANS {
            std::thread::yield_now();
        } else {
            std::thread::sleep(PARK);
        }
        Ok(())
    }
}

/// A sender thread's body: step the lane to completion, idling in a
/// [`CreditWait`] while it is starved.
fn run_lane<F>(mut run: LaneRun<'_, F>, abort: &AtomicBool) -> AmResult<()>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
{
    let mut wait: Option<CreditWait> = None;
    loop {
        match run.step()? {
            Step::Done => return Ok(()),
            Step::Progressed => wait = None,
            Step::Starved => wait
                .get_or_insert_with(CreditWait::new)
                .idle(run.lane, abort)?,
        }
    }
}

/// A drain thread's body: burst-drain `drain`'s banks until `want` frames
/// executed. Credits for everything a burst retires are put back inside the
/// burst engine itself, the moment each slot is clear.
///
/// The quota counts *executed* frames only. A frame torn by an in-flight
/// fault is rejected (its credit returns immediately), then usually comes
/// back: its sequence gap ages out of the scan-jumble watcher, the coalesced
/// NACK reaches the paired lane, and the retransmit drains like any other
/// frame. Counting the rejection against the quota would end the drain one
/// retirement early when that recovery lands, stranding the final round's
/// credits and starving the lane. When the tear hits the run's tail the lane
/// may already have exited (no credit is owed), so once every outstanding
/// frame is accounted for by a rejection, a bounded run of empty scans
/// retires the gap as lost instead of spinning.
fn drain_shard(
    mut drain: ShardDrain<'_>,
    want: usize,
    abort: &AtomicBool,
) -> AmResult<(Vec<PipelineFrame>, usize)> {
    const GIVE_UP_SCANS: usize = 512;
    let mut results = Vec::with_capacity(want);
    let mut rejected = 0usize;
    let mut clock = SimTime::ZERO;
    let mut idle_scans = 0usize;
    while results.len() < want {
        let out = drain.receive_burst(usize::MAX, clock)?;
        if out.is_empty() {
            if abort.load(Ordering::Relaxed) {
                return Err(AmError::Exec(
                    "pipeline aborted: a sender lane failed".into(),
                ));
            }
            if results.len() + rejected >= want {
                idle_scans += 1;
                if idle_scans >= GIVE_UP_SCANS {
                    break;
                }
            }
            std::thread::yield_now();
            continue;
        }
        idle_scans = 0;
        clock = out.drained_at;
        results.extend(out.frames.iter().map(|f| PipelineFrame {
            bank: f.bank,
            slot: f.slot,
            result: f.outcome.result,
        }));
        rejected += out.rejected.len();
    }
    Ok((results, rejected))
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
/// clock: one sender thread per lane, one drain thread per receiver shard,
/// coupled *only* by the one-sided credit path — as each frame retires, the
/// drain's burst engine puts the slot's next credit token into the paired
/// lane's flag region ([`BankFlags`]), and the lane spins/parks on acquire
/// loads of its own region until a refillable slot's token changes. No
/// channels, no shared queues: flow control is fabric traffic, charged in
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
    fleet.check_paired(host)?;
    let wants: Vec<usize> = fleet.lanes.iter().map(|l| rounds * l.slots()).collect();
    let runs = fleet.lane_runs(elem, mode, rounds, make)?;
    let abort = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        let drains: Vec<_> = host
            .shard_drains()
            .into_iter()
            .map(|drain| {
                let want = wants[drain.shard_id()];
                scope.spawn(move || aborting(abort, || drain_shard(drain, want, abort)))
            })
            .collect();
        let lanes: Vec<_> = runs
            .into_iter()
            .map(|run| scope.spawn(move || aborting(abort, || run_lane(run, abort))))
            .collect();
        // Join *both* sides before reporting: after an abort, one side holds
        // the root-cause error and the other holds only the secondary
        // "pipeline aborted: ..." it raised when released, and either side
        // may be the one that actually failed (a lane's send, or a drain's
        // dispatch/credit put).
        let mut errors: Vec<AmError> = Vec::new();
        for h in lanes {
            if let Err(e) = h.join().expect("sender lane thread panicked") {
                errors.push(e);
            }
        }
        let mut results = Vec::new();
        let mut rejected = 0usize;
        for h in drains {
            match h.join().expect("drain thread panicked") {
                Ok((r, rej)) => {
                    results.extend(r);
                    rejected += rej;
                }
                Err(e) => errors.push(e),
            }
        }
        if errors.is_empty() {
            return Ok(PipelineOutcome {
                drained: results.len(),
                results,
                rejected,
            });
        }
        // Surface the root cause, not a released thread's abort notice (the
        // only errors prefixed "pipeline aborted" are the ones raised here on
        // the released side).
        let root = errors
            .iter()
            .position(|e| !matches!(e, AmError::Exec(m) if m.starts_with("pipeline aborted")))
            .unwrap_or(0);
        Err(errors.swap_remove(root))
    })
}
