//! The per-process Two-Chains runtime: host (receiver) side and sender side.
//!
//! A [`TwoChainsHost`] owns everything one process needs to participate: its fabric
//! host handle and registered mailbox region, its linker namespace with loaded rieds,
//! the persistent jam address space holding ried data objects, the Local Function
//! library built from the installed package, and the reactive mailbox banks.
//!
//! A [`TwoChainsSender`] is the initiator-side object: it packs frames (patching in
//! the GOT image the receiver exported during setup), pushes them with one one-sided
//! put, and tracks flow-control credits. A [`SenderFleet`] promotes it to a
//! first-class multi-sender runtime: one sender per *stream* (stream `s` of `S`
//! owns the banks with `bank % S == s`, mirroring the receiver's shard map),
//! each with its own endpoint, sequence space, template cache and statistics,
//! flow-controlled by the completion window it owns and thread-capable — the
//! fleet can fill banks from one OS thread per lane while the receiver shards
//! drain, up to the fully overlapped fill/drain pipeline of [`drive_pipeline`]
//! (the handshake and flow-control contract are documented on [`SenderFleet`]).
//!
//! All methods take and return virtual [`SimTime`]s so a benchmark harness can drive
//! both ends from a single thread deterministically; the same code paths can also be
//! driven by real threads (the examples and the bench drain driver do), in which
//! case the virtual times are simply accounting.
//!
//! # Layered architecture
//!
//! The receive path is layered so per-message state is small and per-shard while
//! everything heavy is shared read-mostly:
//!
//! ```text
//!   senders ──one-sided puts──▶  MailboxBank: M banks × N reactive mailboxes
//!                                      │
//!                    bank b is owned by shard b % S   (ShardMask)
//!            ┌─────────────────┬───────┴─────────┬─────────────────┐
//!            ▼                 ▼                 ▼                 ▼
//!      ReceiverShard 0   ReceiverShard 1       ...          ReceiverShard S-1
//!      scratch buffer    scratch buffer                     scratch buffer
//!      RuntimeStats      RuntimeStats                       RuntimeStats
//!      CoreBus (L1/L2)   CoreBus (L1/L2)                    CoreBus (L1/L2)
//!      ShardSpace        ShardSpace                         ShardSpace
//!            │   probe / insert (one short lock per operation)    │
//!            └───────────────▶ Arc<InjectionCache> ◀──────────────┘
//!                  decoded programs · sender GOTs · resolved GOTs
//!                  (segmented-LRU eviction, hit/miss/evict counters)
//!            ──────────────────────────────────────────────────────
//!            shared read-mostly: linker namespace, Local Function
//!            library, installed package, runtime config, and the
//!            Arc-shared read-only segment base (lock-free reads)
//!            shared striped: L3/LLC/DRAM simulation (per-stripe locks,
//!            reached only on private L1/L2 misses)
//!            shared mutable (Mutex): the *exclusive* jam AddressSpace —
//!            every execution serialises here in SpaceMode::Exclusive;
//!            in SpaceMode::ShardLocal only jams that declare cross-shard
//!            writes do, and everything else executes lock-free against
//!            the shard's own segments
//! ```
//!
//! * `injection_cache` (crate-internal module) — owns the three content-addressed
//!   caches behind one lock, with the segmented-LRU eviction policy documented in
//!   its header. Invalidation (package reinstall, live update) is a single shared
//!   operation, immediately visible to every shard.
//! * [`ReceiverShard`] — the per-shard context: scratch buffer, statistics, `Arc`
//!   handle to the cache, and its slice of the deterministic `bank % num_shards`
//!   ownership map, so shards never contend on a mailbox.
//! * [`TwoChainsHost::receive_burst`] — drains every ready slot in a shard's banks
//!   in one scan ([`MailboxBank::scan_burst`](crate::bank::MailboxBank::scan_burst)),
//!   amortising the poll: the scan's wait is charged once per burst instead of per
//!   message, and poisoned slots are quarantined in the same pass.
//!   [`TwoChainsHost::receive`] is the single-frame case of the same engine, with
//!   the per-message wait model applied.
//! * [`TwoChainsHost::shard_drains`] — splits the host into independently movable
//!   per-shard drain handles for genuinely parallel (multi-threaded) draining.
//!
//! # The receive pipeline (the dispatch contract)
//!
//! Whatever a mailbox holds goes through the same seven stages, whether it
//! was found by a burst scan or waited for on one slot, and whether it is a
//! plain frame or an inner frame of a batch container (`runtime/host.rs`
//! names the function behind each stage):
//!
//! 1. **Scan** — which mailboxes hold a frame: one poll over the shard's
//!    banks (poisoned slots quarantined, their credit returned), or the wait
//!    model on a single slot.
//! 2. **Parse / unbatch** — the slot is re-checked, read into the shard's
//!    scratch buffer and parsed by borrow. A container pays one header-read
//!    prologue and yields its inner frames with their declared destination
//!    slots; only the carrier mailbox is cleared.
//! 3. **Admit** — the destination slot must exist in the bank (it comes off
//!    the wire for an inner frame), then the replay filter is probed (armed
//!    sessions only): a duplicate retires silently. An admitted frame is
//!    accounted and gets its [`ReceiveOutcome`].
//! 4. **Resolve image** — the GOT and the executable image, through the
//!    injection caches for an Injected frame or the Local Function library
//!    otherwise.
//! 5. **Execute** — the address space is picked once
//!    ([`SpaceMode`](crate::config::SpaceMode)), the frame's sections are
//!    mapped as fresh copies, the image runs, the sections are unmapped.
//! 6. **Continue chain** — each continuation stage is stage 5 again, with the
//!    per-chain context cell carrying the running result.
//! 7. **Retire** — per frame: the gap watcher notes its sequence number, the
//!    drain clock moves past its handler, and its slot's credit goes back —
//!    a fresh token for an executed or rejected frame, the current token
//!    re-published for a suppressed replay, none for a slot the bank does not
//!    have. A fresh token is minted into the shard's pending set; *when* a span
//!    put publishes it (a full row, the lane's window running out of headroom,
//!    the end of the scan) is `credit.rs`'s decision alone. A container
//!    executes all its inner frames before any is retired.
//!
//! A frame that fails in stages 2–6 is *rejected*, never dropped on the
//! floor: its mailbox is cleared, it counts in `frames_rejected`, it is
//! reported ([`BurstOutcome::rejected`], or as `receive`'s error) and its
//! credit is returned, so a hostile or torn frame can neither wedge a bank
//! nor starve a lane.
//!
//! # Fast-path architecture (zero-copy steady state)
//!
//! The send→receive hot path is allocation-free in steady state. Both sides keep
//! content-addressed caches so the per-message work degenerates to hashing, a lookup
//! and one memcpy:
//!
//! **Receiver.**
//! * *Injected-code cache* — keyed by `(elem_id, hash64_bytes(code))`. The first
//!   message for a key pays `decode_program` + `verify` (and their modelled cost);
//!   every later message hits a decoded `Arc<[Instr]>` and executes it directly.
//!   [`RuntimeStats::injected_code_cache_hits`]/`_misses` count the split.
//! * *GOT cache* — keyed by `(elem_id, hash64_bytes(got_bytes))` when the policy
//!   accepts sender GOT images, or by `elem_id` alone when the hardened policy
//!   re-resolves locally. Hits reuse an `Arc<GotImage>`; no per-message slot vector
//!   is built. [`RuntimeStats::got_cache_hits`]/`_misses` count the split.
//! * *Borrowed frame parsing* — arrived bytes land in the shard's persistent scratch
//!   buffer ([`ReactiveMailbox::read_frame_into`](crate::mailbox::ReactiveMailbox::read_frame_into))
//!   and are parsed as a [`FrameView`](crate::frame::FrameView) whose sections
//!   borrow that buffer. Only ARGS and USR are copied out (the jam may mutate
//!   them), into the buffers of segments the shard unmapped earlier; GOT and
//!   code bytes are hashed in place — a code section once per distinct
//!   section per shard, see the `host` module docs — and never cloned.
//! * *Register-seeded entry* — the jam entry convention (`r0`=ARGS, `r1`=USR,
//!   `r2`=USR length) is passed through `VmConfig::entry_regs`, so the cached
//!   program runs as-is instead of being re-materialised with a prologue per message.
//!
//! **Sender.**
//! * *Frame-template cache* — per element, the patched GOT image and encoded code
//!   are captured once as `Arc<[u8]>`; later sends memcpy them straight into the
//!   wire buffer. [`RuntimeStats::template_hits`]/`_misses` count the split.
//! * *Scratch encode buffer* — [`TwoChainsSender::send`] and
//!   [`TwoChainsSender::send_spec`] encode into one reusable `Vec<u8>`
//!   ([`Frame::encode_into`](crate::frame::Frame::encode_into)), so a steady-state
//!   send performs a single memcpy into the mailbox put and no heap allocation.
//!
//! # Receiver-side chains (the chain dispatch contract)
//!
//! A [`MessageSpec`] built with [`MessageSpec::then`] names an ordered pipeline
//! of installed package elements; the wire carries it as a versioned chain
//! descriptor between the header and the GOT section (see
//! [`ChainDescriptor`](crate::frame::ChainDescriptor)), so unchained frames are
//! byte-identical to the legacy format and old receivers reject — not
//! misparse — chained ones. Dispatch executes the primary element exactly as
//! an unchained send would, then runs each continuation stage through the
//! same stage executor, in descriptor order, under this contract:
//!
//! * **Result threading.** Stage *k*'s result registers feed stage *k+1*'s
//!   entry registers through a *per-chain context cell* in the executing
//!   core's scratch address range: the running 64-bit result is published
//!   there (one charged 8-byte write), and the next stage's entry registers
//!   point at it. Under the default
//!   [`ChainArgMap::Result`](crate::frame::ChainArgMap) mapping the stage
//!   sees `r0 = context cell` exactly where a standalone send would hand it
//!   the ARGS block — a stage observes bit-identical operands whether it
//!   rides a chain or its own frame. `KeepArgs` instead preserves `r0 = ARGS`
//!   and passes the context cell in `r1`.
//! * **Context lifetime.** The context cell and the stage's private copies of
//!   ARGS/USR are mapped immediately before the stage runs and unmapped
//!   immediately after (with rollback on a partial map), so no chain state
//!   survives the frame: chains communicate *forward* through the cell and
//!   *persistently* only through ried data, never with a later frame. Each
//!   core uses a disjoint context address, so shard-parallel drains never
//!   alias cells.
//! * **One frame, one credit, one verdict.** Continuation stages dispatch
//!   through the Local Function library for the per-stage table-lookup cost —
//!   no new frame, no new mailbox wait, no re-parse; that is the amortization
//!   the fastpath bench's chain row measures. The frame stays in its mailbox
//!   until the whole chain retires: a failing stage (unknown element, VM
//!   fault) aborts the remaining stages and retires the frame through the
//!   ordinary rejection path as
//!   [`AmError::ChainStageFailed`] naming the stage index — exactly one `frames_rejected`, exactly one
//!   returned credit, like every other retirement.
//! * **Counters.** Each stage increments `executions` (and
//!   `local_executions`) as if sent alone; `chain_frames` and
//!   `chain_stages_executed` record the chaining itself, so
//!   `messages_received` is the only counter a chained schedule shrinks.
//!
//! # Frame aggregation (the batch wire format and flush-policy contract)
//!
//! The fleet's data path amortises the per-put NIC posting cost (descriptor
//! build + doorbell — size-independent, so it dominates small-frame rates) by
//! packing consecutive same-bank frames into one *batch container* put.
//! [`RuntimeConfig::aggregation_policy`](crate::config::RuntimeConfig)
//! selects the behaviour:
//!
//! * [`AggregationPolicy::PerFrame`](crate::config::AggregationPolicy) — the
//!   compatibility contract: one tracked put per frame, byte-identical on the
//!   wire to a pre-aggregation [`TwoChainsSender`] (pinned by
//!   `tests/frame_aggregation.rs`).
//! * [`AggregationPolicy::Adaptive`](crate::config::AggregationPolicy) (the
//!   default) — each lane accumulates spec-built frames per `(stream, bank)`
//!   and posts one contiguous put per batch.
//!
//! **Wire format.** A container is a 36-byte outer header (frame magic; `sn` =
//! the first inner frame's sequence number; `frame_len` = total container
//! bytes; byte 32 = batch version, nonzero — the discriminant `is_batch`
//! sniffs, since a plain frame keeps those bytes zero; byte 33 = inner-frame
//! count, 1..=255), then per inner frame an 8-byte prefix (`u32` LE wire
//! length, `u16` LE destination slot, 2 reserved zero bytes) followed by the
//! complete, unmodified inner wire frame, and finally the standard 4-byte
//! trailer (sn echo + signal magic) so the receiver's readiness scan is
//! unchanged. See [`FrameBatch`](crate::frame::FrameBatch) and
//! [`BatchView`](crate::frame::BatchView); a container truncated mid-frame is
//! rejected with an error naming the victim inner frame's sn.
//!
//! **Flush policy.** An adaptive lane flushes its open batch when any of
//! these trips: the batch holds eight frames (the fill bound — the wire
//! format itself carries up to
//! [`BATCH_MAX_FRAMES`](crate::frame::BATCH_MAX_FRAMES)); appending the next
//! frame would exceed the destination mailbox capacity
//! (`frame_capacity`); the next frame targets a *different bank* (a container
//! lands in one contiguous mailbox span, never straddling banks); the oldest
//! buffered frame has waited 2 µs of lane-virtual time (the latency
//! watermark); and unconditionally at a burst boundary —
//! `fill_all`/`drive_pipeline` never return with frames still buffered, so
//! aggregation is invisible to the phased schedules. Both bounds are
//! constants beside their one user in `fleet.rs`. A frame too large to share
//! a container even alone is posted standalone, exactly as under `PerFrame`.
//!
//! **Reliability contract.** Each inner frame retires individually — its own
//! credit token, its own `SeqWatch` entry — so token conservation holds
//! frame-by-frame, while NACK/retransmit treats the container as the unit of
//! loss: a dropped container is NACKed via its outer sn and retransmitted
//! whole, and replay suppression keeps a duplicated container from
//! double-executing any inner frame (pinned by `tests/chaos_fabric.rs`).
//! `bytes_sent` counts inner-frame bytes only, making the payload ledger
//! policy-invariant; the container envelope shows up solely in the shape
//! counters (`batch_puts`, `batched_frames`, `batches_received`,
//! `batch_frames_received`).
//!
//! **Invalidation.** All receiver caches are dropped on [`TwoChainsHost::install_package`]
//! and [`TwoChainsHost::load_ried`] (package reinstall / live update may rebind
//! symbols or change code), and can be dropped explicitly with
//! [`TwoChainsHost::invalidate_injection_caches`] (cold-path benchmarking). The
//! caches are shared by every shard, so one invalidation covers them all. The
//! sender's template for an element is dropped when [`TwoChainsSender::set_remote_got`]
//! replaces that element's GOT image.
//!
//! [`RuntimeStats::injected_code_cache_hits`]: crate::stats::RuntimeStats::injected_code_cache_hits
//! [`RuntimeStats::got_cache_hits`]: crate::stats::RuntimeStats::got_cache_hits
//! [`RuntimeStats::template_hits`]: crate::stats::RuntimeStats::template_hits

mod credit;
mod fleet;
mod host;
mod injection_cache;
mod retry;
mod sender;
mod shard;
mod spec;
#[cfg(test)]
mod tests;

pub(crate) use injection_cache::MAX_INJECTION_CACHE_ENTRIES;

pub use credit::CreditHandshake;
pub use fleet::{
    drive_pipeline, PipelineFrame, PipelineOutcome, SenderFleet, SenderLane, SessionHandshake,
    SlotCtx, StreamHandshake, StreamTarget,
};
pub use host::TwoChainsHost;
pub use retry::ClampedFibonacci;
pub use sender::TwoChainsSender;
pub use shard::{ReceiverShard, ShardDrain};
pub use spec::{spec, MessageSpec};

use twochains_fabric::PutOutcome;
use twochains_jamvm::ExecStats;
use twochains_memsim::cycles::WaitOutcome;
use twochains_memsim::SimTime;

use crate::error::AmError;

/// Outcome of processing one received active message.
#[derive(Debug, Clone)]
pub struct ReceiveOutcome {
    /// When the receiver observed the signal byte (wait included).
    pub detected_at: SimTime,
    /// When the handler finished (dispatch + execution included).
    pub handler_done: SimTime,
    /// The wait accounting (elapsed time and cycles burned). Zero for frames
    /// drained by a burst, whose single scan observed their readiness.
    pub wait: WaitOutcome,
    /// Execution statistics (absent in the without-execution configuration).
    pub exec: Option<ExecStats>,
    /// The value the jam returned (0 when execution was skipped).
    pub result: u64,
    /// Receiver-side time excluding the wait (header read, dispatch, execution).
    pub handler_time: SimTime,
    /// The dispatch-only portion of `handler_time`: header read, security checks,
    /// cache probes and (on a miss) decode/verify — everything except the jam's own
    /// execution. This is the quantity the fast path shrinks.
    pub dispatch_time: SimTime,
}

/// One frame drained by [`TwoChainsHost::receive_burst`], with the mailbox it came
/// from.
#[derive(Debug, Clone)]
pub struct BurstFrame {
    /// Bank the frame was drained from.
    pub bank: usize,
    /// Slot within the bank.
    pub slot: usize,
    /// The per-message outcome (same shape as the single-slot `receive`).
    pub outcome: ReceiveOutcome,
}

/// Outcome of one [`TwoChainsHost::receive_burst`] call: every frame drained from
/// the shard's banks in one scan, processed back-to-back in shard-virtual time.
#[derive(Debug, Clone)]
pub struct BurstOutcome {
    /// Successfully dispatched frames, in scan order (bank-major).
    pub frames: Vec<BurstFrame>,
    /// Frames the dispatch rejected (malformed code, policy violation, ...) and
    /// poisoned slots quarantined by the scan (header magic present but an
    /// out-of-range declared length). Their slots were cleared — a bad frame must
    /// not wedge its bank — and the error is reported here instead of aborting
    /// the rest of the burst.
    pub rejected: Vec<(usize, usize, AmError)>,
    /// Shard-virtual time when the last frame's handler finished (equals the burst
    /// start plus one poll when nothing was ready).
    pub drained_at: SimTime,
}

impl BurstOutcome {
    /// Number of successfully drained frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the burst drained nothing (and rejected nothing).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.rejected.is_empty()
    }
}

/// Outcome of sending one active message.
#[derive(Debug, Clone, Copy)]
pub struct AmSendOutcome {
    /// Frame-packing cost on the sending CPU.
    pub pack_cost: SimTime,
    /// The underlying one-sided put timing.
    pub put: PutOutcome,
    /// Total bytes on the wire.
    pub wire_bytes: usize,
}

impl AmSendOutcome {
    /// When the message (including its signal byte) is visible at the receiver.
    pub fn delivered(&self) -> SimTime {
        self.put.delivered
    }

    /// When the sending CPU is free again.
    pub fn sender_free(&self) -> SimTime {
        self.pack_cost + self.put.sender_free
    }
}
