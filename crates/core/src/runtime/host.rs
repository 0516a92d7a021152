//! The receiver-side host: shared state, the receive pipeline, and the public
//! [`TwoChainsHost`] facade over the sharded receive path.
//!
//! The pipeline lives on [`HostCore`] and takes `&self` plus one
//! `&mut ReceiverShard`: everything shared is either read-mostly (namespace,
//! Local Function library, banks, config, the `Arc`-shared read-only segment
//! base) or behind its own fine-grained synchronisation (striped cache levels,
//! the injection caches), so any number of shards can run it concurrently.
//! Simulated memory is charged through the shard's own per-core bus (private
//! L1/L2, no lock on a private hit), and every
//! execution runs against the shard's own address space — its private
//! instances of the writable ried objects over the lock-free, `Arc`-shared
//! read-only base — with no address-space lock at all. There is no
//! process-global writable instance: a jam reaches ried state only through
//! its GOT, the only instruction that consults the GOT is `CallExtern`, and
//! both engines refuse a `Data` slot there as not callable.
//!
//! # The receive pipeline
//!
//! The paper's receiver is a short fixed path — wait on the signal byte, read
//! the header, patch the GOT, jump (§IV–§VI). Here it is seven stages over
//! one borrowed [`DrainCtx`] (the shard's core, bus, space, cache handle,
//! stats and armed replay filter — [`ReceiverShard::stages`] splits it off
//! from the scratch buffer the parsed frame borrows), each a function on
//! [`HostCore`]; a stage boundary is where a per-layer charge or a trace
//! hook belongs:
//!
//! | stage | function | what happens |
//! |---|---|---|
//! | 1 scan | `receive_burst_inner` (one poll over the shard's banks, poisoned slots quarantined) or `receive_owned` (one mailbox, the wait model charged) | which mailboxes hold a frame |
//! | 2 parse / unbatch | `drain_slot` | readiness check, read into scratch, a plain frame or a batch container's header prologue and inner frames |
//! | 3 admit | `admit` | destination slot validated, replay filter probed, the frame accounted and its [`ReceiveOutcome`] built |
//! | 4 resolve image | `resolve_image` (`injected_got`) | GOT and lowered image, through one GOT-cache and one code-cache probe, or the Local Function library |
//! | 5 execute | `execute_stage` | sections mapped or refilled in the shard's space, image run |
//! | 6 continue chain | `continue_chain` | each continuation stage is stage 5 again, with the context cell behind the frame's sections |
//! | 7 retire | `retire` | gap watcher noted, drain clock advanced, credit returned (`return_credit` / `return_replay_credit`): the token is `credit.rs`'s to mint and to flush, the host charges what was posted |
//!
//! Stages 2–6 leave one `Retired` entry per frame; both callers loop over
//! what a slot produced and retire each entry the same way. Three orderings
//! are part of the model (the golden trace in `tests/receive_trace.rs` pins
//! them): the bus is charged header read → GOT probe → code probe / slab
//! write → execution → per chain stage context-cell write → execution; cycle
//! counts round once per frame (plus once for a container's prologue); and a
//! container executes all its inner frames before any is retired.
//!
//! # What a warm message costs the host
//!
//! The model charges a warm injected message a header read, two cache probes
//! and the jump; the stages do no host work per message beyond that which
//! the model does not charge for either.
//!
//! *Resolve.* The code digest that keys the injection caches is computed
//! once per distinct code section per shard: the shard remembers the section
//! it hashed last ([`CodeDigest`](super::shard::CodeDigest)) and a frame
//! whose code bytes are equal reuses its digest — the eight frames of a
//! container, and every put of the same function after it. That is what the
//! model assumed all along: the warm path is keyed by a digest the NIC
//! computed at delivery (see `resolve_image`), so the receiver core never
//! streams a warm code section, and the simulator should not either. The
//! memo stands in for the hash only — every cache is still probed, because a
//! probe moves recency and promotion state that later evictions depend on —
//! and it compares all the bytes, so the digest it returns is
//! `hash64_bytes(code)` for any input.
//!
//! *Execute.* A frame's sections are mapped in segments the shard unmapped
//! earlier (`ReceiverShard::spare_sections`), refilled whole by
//! `Section::segment`: name, base, permissions and bytes are all replaced, so
//! nothing of a previous message is readable through a recycled segment, and
//! a warm map → run → unmap allocates nothing.
//!
//! In the shard's own space a frame's sections are mapped once per frame
//! (`Placed`): the primary maps ARGS and USR with `AddressSpace::map`'s name
//! and overlap checks. Each continuation stage refills them in place with a
//! fresh copy of the frame's bytes (`AddressSpace::refill`, which scans
//! nothing); the first maps the context cell behind them and later ones
//! refill it with the running result. The sections are unmapped when the
//! frame's dispatch returns, on every exit. Isolation is the fresh copy, not
//! a new mapping: a stage sees the bytes that arrived whatever the stage
//! before it wrote, and for a `chain3` frame that is 40 bytes over its three
//! stages, where mapping and unmapping three sections per stage cost more
//! than the stage's jam.
//!
//! The run itself is `Vm::execute_resolved` compiled against the types it
//! is handed — the shard's `CoreBus` and its `ShardSpace` — not against two
//! trait objects: a jam's loop is where a payload-sized message spends its
//! host time (a load per four bytes, a block fetch per iteration), and with
//! the types named the bus's private-hit path and the space's scalar read
//! are inlined into that loop. Extern functions
//! still get both as `dyn`. It is the only engine the receiver runs: the interpreter,
//! `Vm::execute`, is the reference the differential suites compare it against.
//!
//! # What a cold message costs the host
//!
//! A cold injected message — one whose code misses the code cache, as every
//! `cold_churn` message does — is translated: its code section is decoded
//! into a [`Program`](twochains_jamvm::Program), verified and lowered against
//! the message's GOT into a resolved image, and both are cached in the
//! function's one entry, the decoded program moved into its `Arc`, not
//! copied. A message whose code hits but whose GOT is not the one the image
//! was lowered against skips decode and verify, and is lowered again. Each
//! step costs the function's own instructions, not its padding: a run of
//! `Nop`s is one length from decode to the image (a `Nops` op), so the
//! Indirect Put jam's 1 359 instructions translate as its 14 that are not
//! `Nop`s and the runs between them.
//!
//! The model is unchanged by that. It charges decode, verify and lowering by
//! the code section's bytes, and it still charges line by line the two reads
//! of the code section (the hash's and the translation's) and the write of
//! the image into its slab at the image's modelled size — one
//! `RESOLVED_OP_BYTES` op per instruction or fused pair, 340 lines for that
//! jam — whatever the host holds the image as.

use std::collections::HashMap;
use std::sync::Arc;

use twochains_fabric::{
    AccessFlags, HostHandle, HostId, MemoryRegion, RegionDescriptor, SimFabric,
};
use twochains_jamvm::memory::MemFault;
use twochains_jamvm::{
    decode_program, hash64, hash64_bytes, resolve, verify_with_floor, AddressSpace, ExecStats,
    GotImage, ResolvedProgram, Segment, SegmentKind, ShardSpace, Vm, VmConfig,
};
use twochains_linker::{ElementId, LinkerNamespace, Package, Ried};
use twochains_memsim::cycles::{WaitModel, WaitOutcome};
use twochains_memsim::{
    AccessKind, CoreCacheStats, HierarchyStats, MemoryBus, MemoryStressor, SharedHierarchy, SimTime,
};

use super::credit::{CreditPutOutcome, CreditReturn, FlushOutcome};
use super::injection_cache::{CachedCode, CachedGot, CodeHit, InjectionCache};
use super::shard::{DrainCtx, ReceiverShard, ShardDrain};
use super::{BurstFrame, BurstOutcome, ReceiveOutcome};
use crate::bank::MailboxBank;
use crate::builtin::BuiltinJam;
use crate::config::RuntimeConfig;
use crate::error::{AmError, AmResult};
use crate::frame::{
    is_batch, BatchView, ChainArgMap, ChainDescriptor, FrameView, FRAME_HEADER_SIZE,
};
use crate::mailbox::MailboxTarget;
use crate::security::SecurityPolicy;
use crate::stats::RuntimeStats;

/// Fixed receiver-side dispatch overhead for an Injected Function (frame parse +
/// jump through the mailbox code pointer).
const INJECTED_DISPATCH: SimTime = SimTime::from_ns(28);
/// Fixed receiver-side dispatch overhead for a Local Function (frame parse +
/// function-pointer table lookup by element ID). A chain's continuation
/// stages pay it once each.
const LOCAL_DISPATCH: SimTime = SimTime::from_ns(18);

/// Software cost models for the receiver's injected-dispatch path, in ns per byte.
///
/// The content hash and lowering are charged on every injected message whose
/// image is not cached (the hash streams the arrived bytes at near line rate);
/// decode and verify only when its code misses, GOT-image parsing only when its
/// GOT misses. On an image hit the receiver jumps straight to the cached image,
/// which is the point of the fast path.
const HASH_NS_PER_BYTE: f64 = 0.01;
/// Bytecode decode cost on a code-cache miss (~2 GB/s: byte-at-a-time opcode
/// dispatch building the instruction vector).
const DECODE_NS_PER_BYTE: f64 = 0.6;
/// Verifier cost on a code-cache miss (~4 GB/s: register/branch/GOT-slot bound
/// checks over the decoded program).
const VERIFY_NS_PER_BYTE: f64 = 0.25;
/// GOT image parse cost on a GOT-cache miss.
const GOT_PARSE_NS_PER_BYTE: f64 = 0.05;
/// Lowering cost when the image is not cached (walking the decoded program once
/// to flatten operands, resolve GOT call sites, fuse pairs and lay out blocks —
/// cheaper than the byte-at-a-time decode it follows).
const RESOLVE_NS_PER_BYTE: f64 = 0.15;

/// Base simulated address of the receiver's resolved-image slab area (the
/// software code cache the threaded executor fetches from). Distinct from the
/// Local Function code area, the chain-context cells and the shard data
/// windows, so resolved-image fetch traffic never aliases hot runtime lines.
const RESOLVED_CODE_BASE: u64 = 0xD000_0000;
/// Bytes reserved per resolved-image slab (a lowered image larger than this
/// simply charges across slab boundaries — harmless, the slabs exist only to
/// give each image a stable, reusable line range).
const RESOLVED_SLAB_STRIDE: u64 = 32 * 1024;
/// Number of slabs; keys hash onto one deterministically, so a warm image is
/// re-executed from the same (cache-hot) lines every time.
const RESOLVED_SLAB_COUNT: u64 = 1024;

/// Simulated install address for the resolved image of cache key `key`.
fn resolved_slab_base(key: (u32, u64, usize)) -> u64 {
    let mix = hash64(key.1 ^ (key.0 as u64).rotate_left(32) ^ (key.2 as u64).rotate_left(48));
    RESOLVED_CODE_BASE + (mix % RESOLVED_SLAB_COUNT) * RESOLVED_SLAB_STRIDE
}

/// Base simulated address of the per-chain context cells: one 8-byte cell per
/// drain core holding the running result a chain threads from stage to stage.
/// The cell lives in shard scratch address space (each shard owns its core, so
/// cores never share a cell) and is refilled with the running result for
/// every stage — its lifetime is exactly one frame's chain.
const CHAIN_CTX_BASE: u64 = 0x9E00_0000;
/// Address stride between consecutive cores' chain-context cells.
const CHAIN_CTX_STRIDE: u64 = 0x100;

/// What the receive pipeline did with one frame, tagged with the slot whose
/// flow-control credit it retires: its own mailbox for a plain frame, its
/// *declared* destination slot for an inner frame of a batch container.
#[derive(Debug)]
pub(super) enum Retired {
    /// The frame was dispatched (and executed, unless execution is skipped).
    Executed {
        slot: usize,
        /// The frame's header sequence number, for the shard's gap watcher.
        sn: u32,
        outcome: ReceiveOutcome,
    },
    /// The frame was a duplicate or stale replay of a sequence number this
    /// slot already executed: retired silently (credit re-published
    /// idempotently, nothing executed). Only produced when the shard's
    /// reliability layer is armed.
    Replayed { slot: usize, sn: u32 },
    /// The frame could not be admitted or its dispatch failed. `slot` is
    /// reported as declared, even when the bank has no such slot (in which
    /// case there is no credit to return).
    Rejected { slot: usize, err: AmError },
}

/// One occupied mailbox as a caller hands it to the pipeline: coordinates
/// plus the frame length its scan observed (`None`: discover it with the
/// variable-frame two-step protocol).
#[derive(Debug, Clone, Copy)]
struct Slot {
    bank: usize,
    slot: usize,
    frame_len: Option<usize>,
}

/// The wait of a frame whose readiness somebody else already paid for: a
/// burst scan's single poll, or the container an inner frame arrived in.
const NO_WAIT: WaitOutcome = WaitOutcome {
    elapsed: SimTime::ZERO,
    cycles: 0,
};

/// The dispatch stages' answer for one admitted frame: everything `admit`
/// needs to account the frame and build its [`ReceiveOutcome`].
#[derive(Debug)]
struct DispatchedFrame {
    handler_time: SimTime,
    exec_time: SimTime,
    result: u64,
    exec_stats: Option<ExecStats>,
}

impl DispatchedFrame {
    /// Account one finished execution of the frame (its primary jam or a
    /// chain stage): its time, its result — the running value a chain
    /// threads forward — and its counters.
    fn ran(&mut self, stats: &mut RuntimeStats, exec: &ExecStats) {
        self.exec_time += exec.total_time();
        self.handler_time += exec.total_time();
        self.result = exec.result;
        stats.superinstructions_executed += exec.superinstructions;
        stats.executions += 1;
    }
}

/// The resolve stage's answer, and the execute stage's input: the lowered
/// image to run and where its code lives in simulated memory. A Local
/// Function library entry is one too, lowered against the GOT this process's
/// namespace resolves at install time, so Local Function dispatch (and every
/// chain continuation stage) runs without a per-message lowering step; its
/// code lines are kept warm in the receiver's caches. The image is reference-counted so dispatch shares it
/// instead of deep-cloning it per message.
#[derive(Debug, Clone)]
struct StageImage {
    image: Arc<ResolvedProgram>,
    code_base: u64,
}

/// One section of the frame as a stage sees it: a fresh copy of its bytes,
/// so a stage cannot corrupt another's view, at the mailbox address the NIC
/// delivered it to.
#[derive(Clone, Copy)]
struct Section<'a> {
    base: u64,
    bytes: &'a [u8],
    writable: bool,
    kind: SegmentKind,
}

/// The names a stage's sections are mapped under, in the order it lists
/// them: ARGS and USR, then — for a chain's continuation stages — the
/// context cell.
const SECTION_NAMES: [&str; 3] = ["msg.args", "msg.usr", "chain.ctx"];

impl Section<'_> {
    /// This section as a segment named `name`, built in `spare`'s buffers
    /// when there is one. Every field is set and the bytes replaced whole:
    /// nothing of the section the spare last held can be read through the
    /// new one.
    fn segment(&self, name: &str, spare: Option<Segment>) -> Segment {
        let mut seg = spare.unwrap_or_else(|| Segment::new("", 0, Vec::new(), false, self.kind));
        seg.name.clear();
        seg.name.push_str(name);
        seg.base = self.base;
        seg.data.clear();
        seg.data.extend_from_slice(self.bytes);
        seg.writable = self.writable;
        seg.kind = self.kind;
        seg
    }
}

/// How many of a frame's sections the shard's space holds, and the mapping
/// index of the first. The execute stage maps the sections the space lacks
/// and refills those it has; the frame's dispatch keeps one `Placed` for
/// the whole frame, so a chain's stages refill what its primary mapped, and
/// unmaps them when it returns.
#[derive(Debug, Default)]
struct Placed {
    first: usize,
    count: usize,
}

impl Placed {
    /// Give `space` a fresh copy of every section in `sections`: refill the
    /// ones this space already holds in place, map the rest behind them
    /// (with `map`'s name and overlap checks). What was mapped before a
    /// failure stays counted, for [`Placed::unmap`].
    fn place(
        &mut self,
        space: &mut AddressSpace,
        sections: &[Section<'_>],
        spare: &mut Vec<Segment>,
    ) -> Result<(), MemFault> {
        if self.count == 0 {
            self.first = space.len();
        }
        for (i, s) in sections.iter().enumerate() {
            if i < self.count {
                space.refill(self.first + i, s.bytes)?;
            } else {
                space.map(s.segment(SECTION_NAMES[i], spare.pop()))?;
                self.count += 1;
            }
        }
        Ok(())
    }

    /// Unmap every section placed in `space`, last first, keeping their
    /// buffers in `spare` for the next frame's.
    fn unmap(&mut self, space: &mut AddressSpace, spare: &mut Vec<Segment>) {
        for name in SECTION_NAMES[..self.count].iter().rev() {
            spare.extend(space.unmap(name));
        }
        self.count = 0;
    }
}

/// Everything the receive path shares between shards. Split out of
/// [`TwoChainsHost`] so a `&HostCore` can coexist with disjoint
/// `&mut ReceiverShard` borrows (that split is what [`ShardDrain`] packages).
#[derive(Debug)]
pub(crate) struct HostCore {
    handle: HostHandle,
    /// The host's shared cache levels (striped L3/LLC/DRAM); per-core private
    /// L1/L2 live on each shard's `CoreBus`.
    hierarchy: Arc<SharedHierarchy>,
    config: RuntimeConfig,
    /// Wait-model constants of the testbed (poll interval, WFE wake latency,
    /// core frequency); `config.wait_mode` picks how the receiver waits.
    wait_model: WaitModel,
    namespace: LinkerNamespace,
    /// `Arc`-shared read-only segments (rodata, read-only data exports), read
    /// by every shard without any lock. Rebuilt on package install/live update.
    shared_ro: Arc<AddressSpace>,
    package: Option<Package>,
    local_lib: HashMap<u32, StageImage>,
    mailbox_region: Arc<MemoryRegion>,
    banks: MailboxBank,
    local_code_cursor: u64,
}

/// The receiver-side (and library-owner) runtime for one process.
pub struct TwoChainsHost {
    core: HostCore,
    cache: Arc<InjectionCache>,
    shards: Vec<ReceiverShard>,
}

impl std::fmt::Debug for TwoChainsHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoChainsHost")
            .field("host", &self.core.handle.id())
            .field("mailboxes", &self.core.banks.total())
            .field("local_lib", &self.core.local_lib.len())
            .field("shards", &self.shards.len())
            .field("injected_cache", &self.cache.code_len())
            .finish()
    }
}

impl TwoChainsHost {
    /// Base simulated address at which Local Function library code is laid out.
    const LOCAL_CODE_BASE: u64 = 0x7000_0000;
    /// Base simulated address of shard 0's private writable ried instances;
    /// shard `s` starts at `SHARD_DATA_BASE + s * SHARD_DATA_STRIDE`.
    const SHARD_DATA_BASE: u64 = 0xA000_0000;
    /// Address stride between consecutive shards' private data ranges.
    const SHARD_DATA_STRIDE: u64 = 0x0400_0000;

    /// Create a host runtime on fabric host `id`.
    pub fn new(fabric: &SimFabric, id: HostId, config: RuntimeConfig) -> AmResult<Self> {
        config.validate().map_err(AmError::InvalidConfig)?;
        let handle = fabric.host(id)?;
        let hierarchy = handle.hierarchy();
        let num_cores = hierarchy.num_cores();
        // One live CoreBus per core is a SharedHierarchy invariant (two buses
        // would drain the same invalidation inbox and one could serve stale
        // private lines), so a shard count beyond the core count is rejected
        // rather than silently aliasing cores.
        if config.num_shards > num_cores {
            return Err(AmError::InvalidConfig(format!(
                "{} shards but the testbed has {num_cores} cores: each shard needs its own core",
                config.num_shards
            )));
        }
        let flags = AccessFlags::rwx();
        let region_len = config
            .total_mailboxes()
            .checked_mul(config.frame_capacity)
            .ok_or_else(|| AmError::InvalidConfig("mailbox region size overflows".into()))?;
        let mailbox_region = handle.register(region_len, flags)?;
        let banks = MailboxBank::new(
            Arc::clone(&mailbox_region),
            config.banks,
            config.mailboxes_per_bank,
            config.frame_capacity,
        )?;
        let cache = Arc::new(InjectionCache::new());
        let shared_ro = Arc::new(AddressSpace::new());
        let shards = (0..config.num_shards)
            .map(|i| {
                // Shard i drains on core i, with that core's private L1/L2
                // bus (shard count <= core count was checked above, so no two
                // shards alias a core's bus or invalidation inbox).
                let core = i % num_cores;
                let space = ShardSpace::new(Arc::clone(&shared_ro))
                    .map_err(|e| AmError::InvalidConfig(e.to_string()))?;
                Ok(ReceiverShard::new(
                    i,
                    config.num_shards,
                    core,
                    hierarchy.core_bus(core),
                    space,
                    Arc::clone(&cache),
                ))
            })
            .collect::<AmResult<Vec<_>>>()?;
        Ok(TwoChainsHost {
            core: HostCore {
                handle,
                hierarchy,
                config,
                wait_model: WaitModel::cluster2021(),
                namespace: LinkerNamespace::new(),
                shared_ro,
                package: None,
                local_lib: HashMap::new(),
                mailbox_region,
                banks,
                local_code_cursor: Self::LOCAL_CODE_BASE,
            },
            cache,
            shards,
        })
    }

    /// This host's fabric id.
    pub fn host_id(&self) -> HostId {
        self.core.handle.id()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.core.config
    }

    /// Mutable access to the configuration (wait mode, skip-execution, security) —
    /// used by benchmarks to flip knobs between runs. The geometry is fixed at
    /// construction: changing `banks`, `mailboxes_per_bank` or `num_shards` here
    /// reshapes neither the receiver's [`MailboxBank`] nor a fleet, because
    /// [`SenderFleet::connect_fleet`](super::SenderFleet::connect_fleet) reads
    /// the geometry from [`banks`](Self::banks). `completion_window` is read
    /// once, at connect time, to size the lanes' windows and the credit path's
    /// watermark.
    pub fn config_mut(&mut self) -> &mut RuntimeConfig {
        &mut self.core.config
    }

    /// Number of receiver shards (fixed at construction from
    /// [`RuntimeConfig::num_shards`]).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Accumulated statistics, aggregated over every shard. Each call merges the
    /// per-shard counters (O(num_shards)); bind the result once when reading
    /// several fields.
    pub fn stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats::new();
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }

    /// Per-shard statistics (introspection for the scaling benchmarks).
    pub fn shard_stats(&self, shard: usize) -> Option<&RuntimeStats> {
        self.shards.get(shard).map(|s| &s.stats)
    }

    /// One shard's private-cache (L1/L2) counters.
    pub fn shard_cache_stats(&self, shard: usize) -> Option<CoreCacheStats> {
        self.shards.get(shard).map(|s| s.bus.stats())
    }

    /// The global simulated-cache view: shared-level counters (L3/LLC/DRAM/DMA)
    /// merged with every shard's private L1/L2 counters.
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        let mut stats = self.core.hierarchy.stats();
        for shard in &self.shards {
            stats.absorb_core(&shard.bus.stats());
        }
        stats
    }

    /// Reset statistics on every shard (runtime counters and the private-cache
    /// counters) and the shared hierarchy levels, so
    /// [`TwoChainsHost::hierarchy_stats`] never mixes pre- and post-reset
    /// epochs. Cache *contents* are preserved everywhere.
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.stats.reset();
            shard.bus.reset_stats();
        }
        self.core.hierarchy.reset_stats();
    }

    /// Toggle LLC stashing for traffic arriving at this host.
    pub fn set_stashing(&self, enabled: bool) {
        self.core.handle.set_stashing(enabled);
    }

    /// Attach or remove a memory stressor (tail-latency experiments).
    pub fn set_stressor(&self, stressor: Option<MemoryStressor>) {
        self.core.handle.set_stressor(stressor);
    }

    /// Drop every cached injected function and GOT image. Called automatically when a
    /// package is (re)installed or a ried is loaded (live update may rebind symbols
    /// or change code); exposed publicly so benchmarks can measure the cold path.
    /// The caches are shared, so the invalidation is visible to every shard at its
    /// very next probe.
    pub fn invalidate_injection_caches(&mut self) {
        self.cache.invalidate_all();
    }

    /// Number of injected functions currently cached, one entry each for its
    /// program and image (introspection for tests and benchmarks).
    pub fn injected_cache_len(&self) -> usize {
        self.cache.code_len()
    }

    /// Load a ried into this process's namespace and map its data objects.
    ///
    /// Loading a ried is a live update: symbolic names may now resolve differently,
    /// so every cached GOT resolution (and, conservatively, cached programs) is
    /// invalidated. The next message per element repopulates the caches.
    pub fn load_ried(&mut self, ried: &Ried, replace: bool) -> AmResult<()> {
        self.core.namespace.load_ried(ried, replace)?;
        self.sync_spaces()?;
        self.invalidate_injection_caches();
        Ok(())
    }

    /// Propagate the namespace's data objects into every shard's view: the
    /// `Arc`-shared read-only base (rebuilt from scratch — its contents never
    /// change after publication), and each shard's private instances of the
    /// writable objects (created on first sight, existing shard state kept
    /// across live updates).
    fn sync_spaces(&mut self) -> AmResult<()> {
        let objects = self.core.namespace.data_objects();
        let mut ro = AddressSpace::new();
        for o in objects.iter().filter(|o| !o.writable) {
            ro.map(Segment::new(&o.name, o.addr, o.init.clone(), false, o.kind))
                .map_err(|e| AmError::Exec(e.to_string()))?;
        }
        let ro = Arc::new(ro);
        self.core.shared_ro = Arc::clone(&ro);
        for shard in &mut self.shards {
            shard
                .space
                .set_shared_ro(Arc::clone(&ro))
                .map_err(|e| AmError::Exec(e.to_string()))?;
            for o in objects.iter().filter(|o| o.writable) {
                if shard.space.local.segment(&o.name).is_some() {
                    continue;
                }
                let offset = o.addr - LinkerNamespace::DATA_BASE;
                if offset + o.init.len() as u64 > Self::SHARD_DATA_STRIDE {
                    return Err(AmError::InvalidConfig(format!(
                        "data object {} does not fit a shard's private data range",
                        o.name
                    )));
                }
                let base = Self::SHARD_DATA_BASE
                    + shard.shard_id as u64 * Self::SHARD_DATA_STRIDE
                    + offset;
                shard
                    .space
                    .local
                    .map(Segment::new(&o.name, base, o.init.clone(), true, o.kind))
                    .map_err(|e| AmError::Exec(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// Install a package: load its rieds, then build the Local Function library from
    /// its jams (resolving each jam's GOT against this process's namespace and
    /// keeping the resident code warm in the receiver's caches).
    ///
    /// Reinstalling invalidates the injection caches: element ids may now name
    /// different code, so cached decodes keyed by the old content must not survive —
    /// on any shard; the shared-cache invalidation covers all of them atomically.
    pub fn install_package(&mut self, package: Package) -> AmResult<()> {
        for (_, ried) in package.rieds() {
            self.core.namespace.load_ried(ried, true)?;
        }
        self.sync_spaces()?;
        for (id, jam) in package.jams() {
            let program = jam.program()?;
            let got = self.core.namespace.resolve_got(&jam.got)?;
            // Pre-lower at install time: resident functions never pay a
            // per-message lowering, and chain continuation stages run the
            // threaded executor from their first invocation.
            let resolved = Arc::new(resolve(&program, &got));
            let code_len = jam.code_size().max(resolved.image_bytes());
            let code_base = self.core.local_code_cursor;
            self.core.local_code_cursor += (code_len.div_ceil(4096) * 4096) as u64 + 4096;
            // The Local Function library is resident: it has been executed before (or
            // at least loaded and touched), so keep it warm in every drain core's
            // private L1/L2 (any shard may run the local jam); `CoreBus::warm`
            // stashes the range into the shared LLC as well. The warmed span
            // covers whichever image (encoded or resolved) is larger, and the
            // cursor advances by it: it places every later entry's code lines.
            for shard in &mut self.shards {
                shard.bus.warm(code_base, code_len);
            }
            self.core.local_lib.insert(
                id.0,
                StageImage {
                    image: resolved,
                    code_base,
                },
            );
        }
        self.core.package = Some(package);
        self.invalidate_injection_caches();
        Ok(())
    }

    /// The installed package.
    pub fn package(&self) -> Option<&Package> {
        self.core.package.as_ref()
    }

    /// Element id of a builtin benchmark jam in the installed package. Fails
    /// with [`AmError::UnknownElementName`] carrying the missing name when no
    /// package is installed or the package lacks the jam.
    pub fn builtin_id(&self, jam: BuiltinJam) -> AmResult<ElementId> {
        let name = jam.element_name();
        self.core
            .package
            .as_ref()
            .and_then(|p| p.id_of(name))
            .ok_or_else(|| AmError::UnknownElementName(name.to_string()))
    }

    /// The GOT image for `elem`, resolved against *this* process's namespace. A
    /// receiver exports this to senders during connection setup; senders embed it in
    /// Injected Function frames (the paper's "GOT redirect ... is set by the sender
    /// after an exchange with the receiver").
    pub fn export_got(&self, elem: ElementId) -> AmResult<GotImage> {
        let pkg = self
            .core
            .package
            .as_ref()
            .ok_or(AmError::UnknownElement(elem.0))?;
        let jam = pkg.jam(elem)?;
        Ok(self.core.namespace.resolve_got(&jam.got)?)
    }

    /// The mailbox target a sender should aim at for (`bank`, `slot`).
    pub fn mailbox_target(&self, bank: usize, slot: usize) -> AmResult<MailboxTarget> {
        Ok(self.core.banks.mailbox(bank, slot)?.target())
    }

    /// Install the host's half of a fleet connection, the one-sided
    /// credit-return path (§VI-A2): `tables` holds, in stream order, the
    /// descriptors of the credit and NACK tables each lane registered in the
    /// *sender's* address space. The host opens one reverse-direction
    /// endpoint per shard, in the same order, and from then on every retired
    /// frame (drained, dispatch-rejected or quarantined) mints a credit token
    /// into the paired lane's table, coalesced into per-row span puts (the
    /// triggers are [`credit`](super::credit)'s) — flow control riding the
    /// fabric and charged in virtual time, not a host-side side channel.
    /// Only [`SenderFleet::connect_fleet`](super::SenderFleet::connect_fleet)
    /// calls this, right after it registered the tables against this host's
    /// banks, so there is nothing here to re-check.
    pub(crate) fn install_credit_returns(
        &mut self,
        fabric: &SimFabric,
        tables: Vec<(RegionDescriptor, RegionDescriptor)>,
    ) -> AmResult<()> {
        let streams = self.shards.len();
        debug_assert_eq!(tables.len(), streams, "one lane per shard");
        let returns = tables
            .into_iter()
            .enumerate()
            .map(|(stream, (credit, nack))| {
                let endpoint = fabric.endpoint(self.host_id(), HostId(credit.host))?;
                Ok(CreditReturn::new(
                    endpoint,
                    stream,
                    streams,
                    self.core.banks.banks(),
                    self.core.banks.per_bank(),
                    (credit, nack),
                    self.core.config.completion_window,
                ))
            })
            .collect::<AmResult<Vec<_>>>()?;
        for (shard, credit) in self.shards.iter_mut().zip(returns) {
            // A new connection means a new sender sequence space (a freshly
            // connected fleet's lanes count from 1 again): stale replay
            // watermarks or suspected gaps from the previous pairing would
            // silently suppress — or spuriously NACK — the new lanes' frames.
            // The watcher holds at most one suspect per slot the stream owns.
            shard.watch = super::shard::SeqWatch::new(credit.slots());
            shard.credit = Some(credit);
            shard.replay.clear();
        }
        Ok(())
    }

    /// Whether every shard has its one-sided credit-return path installed
    /// (the precondition for [`drive_pipeline`](super::drive_pipeline)).
    pub fn credit_path_installed(&self) -> bool {
        self.shards.iter().all(|s| s.credit.is_some())
    }

    /// The sender-side table descriptor shard `shard`'s credit return targets
    /// (`None` when not installed). `drive_pipeline` checks these against the
    /// fleet it was handed: a later `connect` replaces the credit returns, so
    /// driving an *earlier* fleet would put every token into another fleet's
    /// tables and spin forever — the identity check turns that into an error.
    pub(crate) fn credit_descriptor(
        &self,
        shard: usize,
    ) -> Option<twochains_fabric::RegionDescriptor> {
        self.shards
            .get(shard)
            .and_then(|s| s.credit.as_ref().map(|c| c.descriptor()))
    }

    /// Shard `shard`'s lifetime credit-flush totals `(flush puts, wire bytes,
    /// largest span)` — cumulative since the credit path was installed and
    /// deliberately immune to [`TwoChainsHost::reset_stats`] (the flush
    /// engine's state must survive benchmark-phase resets; see
    /// `CreditReturn::lifetime_flush_totals`). `None` when the credit path
    /// is not installed.
    pub fn credit_flush_lifetime(&self, shard: usize) -> Option<(u64, u64, u64)> {
        self.shards
            .get(shard)
            .and_then(|s| s.credit.as_ref().map(CreditReturn::lifetime_flush_totals))
    }

    /// The receiver's mailbox banks.
    pub fn banks(&self) -> &MailboxBank {
        &self.core.banks
    }

    /// Read `shard`'s private instance of a writable ried object, or a
    /// read-only one from the shared base (for tests and examples that verify
    /// server-side effects, e.g. the Server-Side Sum result array). Each shard
    /// holds its own instance of every writable object, and a message writes
    /// the instance of the shard that drains it.
    pub fn read_shard_data(
        &self,
        shard: usize,
        symbol: &str,
        offset: usize,
        len: usize,
    ) -> AmResult<Vec<u8>> {
        let s = self
            .shards
            .get(shard)
            .ok_or_else(|| AmError::InvalidConfig(format!("no shard {shard}")))?;
        let seg = s
            .space
            .local
            .segment(symbol)
            .or_else(|| s.space.shared_ro().segment(symbol))
            .ok_or_else(|| AmError::Link(format!("no data symbol {symbol} in shard {shard}")))?;
        seg.data
            .get(offset..offset + len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| AmError::Exec(format!("read past the end of {symbol}")))
    }

    /// Names of the segments mapped in `shard`'s own space, in mapping
    /// order: the writable ried objects the shard instances. A frame's
    /// sections are mapped only while it is dispatched, so they never show
    /// here.
    pub fn mapped_segments(&self, shard: usize) -> AmResult<Vec<String>> {
        let s = self
            .shards
            .get(shard)
            .ok_or_else(|| AmError::InvalidConfig(format!("no shard {shard}")))?;
        Ok(s.space
            .local
            .segment_names()
            .into_iter()
            .map(str::to_owned)
            .collect())
    }

    /// Process the message sitting in mailbox (`bank`, `slot`).
    ///
    /// This is the single-frame case of the burst engine: the frame is waited for
    /// under the configured wait model, then dispatched through exactly the same
    /// per-shard path [`TwoChainsHost::receive_burst`] uses (the request is routed
    /// to the shard owning `bank`, so its counters land in that shard's stats).
    ///
    /// * `arrival` — when the frame's signal byte became visible (from the sender's
    ///   [`AmSendOutcome::delivered`](super::AmSendOutcome::delivered)).
    /// * `ready_since` — when the receiver thread started waiting on this mailbox.
    /// * `frame_len` — the fixed frame size, or `None` to use the variable-frame
    ///   two-step protocol.
    pub fn receive(
        &mut self,
        bank: usize,
        slot: usize,
        frame_len: Option<usize>,
        arrival: SimTime,
        ready_since: SimTime,
    ) -> AmResult<ReceiveOutcome> {
        let shard_idx = crate::bank::ShardMask::owner_of(bank, self.shards.len());
        self.core.receive_owned(
            &mut self.shards[shard_idx],
            bank,
            slot,
            frame_len,
            arrival,
            ready_since,
        )
    }

    /// Drain up to `max_frames` frames that are ready in the banks owned by shard
    /// `shard`, in one scan ([`MailboxBank::scan_burst`]). The scan's poll is
    /// charged once for the whole burst; the drained frames are then processed
    /// back-to-back in shard-virtual time starting at `now`. Frames that fail
    /// dispatch (malformed code, policy rejection, ...) are dropped — their slot is
    /// cleared so the bank cannot wedge — and reported in
    /// [`BurstOutcome::rejected`].
    pub fn receive_burst(
        &mut self,
        shard: usize,
        max_frames: usize,
        now: SimTime,
    ) -> AmResult<BurstOutcome> {
        if shard >= self.shards.len() {
            return Err(AmError::InvalidConfig(format!(
                "no shard {shard} (host has {})",
                self.shards.len()
            )));
        }
        self.core
            .receive_burst(&mut self.shards[shard], max_frames, now)
    }

    /// Split the host into one [`ShardDrain`] per shard. Each handle owns its
    /// shard's mutable context and shares the host internals, so the returned
    /// handles can be moved to OS threads (e.g. with `std::thread::scope`) and
    /// drained in parallel.
    pub fn shard_drains(&mut self) -> Vec<ShardDrain<'_>> {
        let core = &self.core;
        self.shards
            .iter_mut()
            .map(|shard| ShardDrain { core, shard })
            .collect()
    }
}

impl HostCore {
    // ---- callers: the two scans that feed the pipeline ---------------------

    /// Single-slot receive through `shard`, charging the wait model: a scan
    /// of one. Whatever the slot held is retired — its credit returned (see
    /// [`HostCore::return_credit`]) and the pending set flushed — before the
    /// call returns, so its token is never left withheld. The credit posting
    /// cost is charged to the shard's counters but not folded into the
    /// returned outcome's handler time — it belongs to the drain core's next
    /// activity, exactly like the burst path's clock advance.
    ///
    /// The single-outcome contract: the caller sees the *last executed*
    /// frame's outcome (for a container, its `handler_done` is when the whole
    /// batch finished on the drain core); if nothing executed, the first
    /// rejection — the frame is still retired: slot cleared, counted in
    /// `frames_rejected`, credited; and [`AmError::Empty`] when the slot held
    /// nothing (which retires nothing) or only suppressed replays — a
    /// duplicate must be observationally invisible.
    pub(crate) fn receive_owned(
        &self,
        shard: &mut ReceiverShard,
        bank: usize,
        slot: usize,
        frame_len: Option<usize>,
        arrival: SimTime,
        ready_since: SimTime,
    ) -> AmResult<ReceiveOutcome> {
        let wait = self
            .wait_model
            .wait(self.config.wait_mode, arrival.saturating_sub(ready_since));
        let at = Slot {
            bank,
            slot,
            frame_len,
        };
        let mut retired = std::mem::take(&mut shard.retired);
        let (scratch, mut ctx) = shard.stages();
        if let Err(err) = self.drain_slot(scratch, &mut ctx, at, ready_since, wait, &mut retired) {
            shard.retired = retired;
            return Err(err);
        }
        let mut clock = arrival;
        let credited = retired
            .iter()
            .try_for_each(|r| self.retire(shard, &mut clock, bank, r));
        // The abort-safe flush runs whatever happened above: a retired
        // frame's token must not stay withheld behind an error.
        let flushed = Self::flush_credits(shard, &mut clock);
        let mut answer = Err(AmError::Empty);
        for r in retired.drain(..) {
            match r {
                Retired::Executed { outcome, .. } => answer = Ok(outcome),
                Retired::Rejected { err, .. } if matches!(answer, Err(AmError::Empty)) => {
                    answer = Err(err)
                }
                _ => {}
            }
        }
        shard.retired = retired;
        // A rejection is the caller's answer; a credit-put failure on top of
        // it would only mask the root cause.
        if matches!(answer, Ok(_) | Err(AmError::Empty)) {
            credited?;
            flushed?;
        }
        answer
    }

    /// One-scan burst drain of the banks `shard` owns (see
    /// [`TwoChainsHost::receive_burst`]).
    ///
    /// Every exit — drained, empty scan, or a propagated credit error — runs
    /// the idle/abort credit flush, so a token accumulated for any retired
    /// frame is published before control leaves the burst engine: an aborted
    /// burst may drop its already-executed outcomes, but never a credit. On
    /// an error the original error takes precedence over any flush failure.
    pub(crate) fn receive_burst(
        &self,
        shard: &mut ReceiverShard,
        max_frames: usize,
        now: SimTime,
    ) -> AmResult<BurstOutcome> {
        let mut clock = now;
        let result = self.receive_burst_inner(shard, max_frames, &mut clock);
        let flushed = Self::flush_credits(shard, &mut clock);
        let mut outcome = result?;
        flushed?;
        outcome.drained_at = clock;
        Ok(outcome)
    }

    /// The burst scan proper: poll, quarantine, then drain and retire slot by
    /// slot. `clock` tracks drain-virtual time even across an error return,
    /// so the caller's abort-safe flush charges its posting at the right
    /// instant.
    fn receive_burst_inner(
        &self,
        shard: &mut ReceiverShard,
        max_frames: usize,
        clock: &mut SimTime,
    ) -> AmResult<BurstOutcome> {
        // A single poll pass over the shard's banks: ready frames to drain, plus
        // poisoned slots (header magic set but an out-of-range declared length)
        // quarantined on the spot — a burst-only receiver would otherwise never
        // reclaim them.
        let (ready, mut rejected) = self.banks.scan_burst(shard.mask(), max_frames);
        // Quarantined poisoned slots are counted in the shard's stats (and so
        // survive the host-wide merge) as well as reported per burst.
        shard.stats.poisoned_quarantined += rejected.len() as u64;
        // That one scan observes readiness for every frame at once: charge a
        // single zero-length wait (one poll boundary) instead of the per-message
        // wait the single-slot path pays.
        let scan = self.wait_model.wait(self.config.wait_mode, SimTime::ZERO);
        shard.stats.wait_time += scan.elapsed;
        shard.stats.cycles.add_wait(scan.cycles);
        *clock += scan.elapsed;
        // A quarantined slot was cleared by the scan, so its credit goes back
        // right away: the paired lane must be able to reuse the slot even
        // though no frame was ever dispatched from it — otherwise a single
        // poisoning put would wedge the lane forever.
        for (bank, slot, _) in &rejected {
            Self::return_credit(shard, clock, *bank, *slot)?;
        }
        let mut frames = Vec::with_capacity(ready.len());
        // What one slot retired, in the shard's buffer (an error exit leaves
        // it to be grown again): a plain frame yields one entry, a container
        // one per inner frame.
        let mut retired = std::mem::take(&mut shard.retired);
        for (bank, slot, frame_len) in ready {
            let at = Slot {
                bank,
                slot,
                frame_len: Some(frame_len),
            };
            let (scratch, mut ctx) = shard.stages();
            if let Err(err) = self.drain_slot(scratch, &mut ctx, at, *clock, NO_WAIT, &mut retired)
            {
                // The scan saw a frame here; if it is gone again the slot
                // still has to earn its flow-control credit back.
                self.reject_slot(at, err, &mut retired);
            }
            // Each entry gets the bookkeeping a standalone frame gets — its
            // own gap-watch note, its own credit token the moment the slot is
            // clear again, its own rejection record — against the slot it
            // names. A suppressed replay is invisible to the burst outcome.
            for r in retired.drain(..) {
                self.retire(shard, clock, bank, &r)?;
                match r {
                    Retired::Executed { slot, outcome, .. } => frames.push(BurstFrame {
                        bank,
                        slot,
                        outcome,
                    }),
                    Retired::Rejected { slot, err } => rejected.push((bank, slot, err)),
                    Retired::Replayed { .. } => {}
                }
            }
        }
        shard.retired = retired;
        // The scan is complete: age the gap watcher and report anything that
        // has now outlived the scan-jumble horizon.
        Self::post_due_nacks(shard, clock)?;
        Ok(BurstOutcome {
            frames,
            rejected,
            drained_at: *clock,
        })
    }

    // ---- stages 1–3: scan → parse/unbatch → admit --------------------------

    /// Drain one mailbox: observe it (the caller's `wait` plus scheduler
    /// jitter), check and read it into `scratch`, parse it — a plain frame or
    /// a batch container — and admit every frame it carries, pushing what
    /// became of each onto `out`. `Err` means nothing was retired: no such
    /// mailbox, or nothing in it ([`AmError::Empty`]). Anything else the
    /// slot held that cannot be admitted is retired as a rejection.
    ///
    /// A plain frame is the one-frame case: its own wait, its own mailbox
    /// cleared. A container pays one readiness check and one header-read
    /// prologue for all its inner frames, each then admitted back-to-back
    /// against its *declared* destination slot (the slot whose credit the
    /// sender consumed for it). Only the carrier mailbox is cleared, once:
    /// the declared slots were never written. All inner frames execute before
    /// any is retired, so a credit flush in the middle of a container cannot
    /// delay the next inner frame. A retransmitted container re-executes
    /// nothing — every inner frame hits its slot's replay filter.
    fn drain_slot(
        &self,
        scratch: &mut Vec<u8>,
        ctx: &mut DrainCtx<'_>,
        at: Slot,
        ready_since: SimTime,
        wait: WaitOutcome,
        out: &mut Vec<Retired>,
    ) -> AmResult<()> {
        let mailbox = self.banks.mailbox(at.bank, at.slot)?;
        // `stressed()` is one atomic load; the stressor lock is only taken when
        // a stressor is actually attached. Drawn before anything is charged:
        // jitter and DRAM queueing share the stressor's random stream.
        let detected_at = ready_since + wait.elapsed + self.hierarchy.scheduler_jitter();
        let admitted = (|| -> AmResult<()> {
            let frame_len = match at.frame_len {
                Some(len) => {
                    if !mailbox.poll_fixed(len)? {
                        return Err(AmError::Empty);
                    }
                    len
                }
                None => mailbox.poll_variable()?.ok_or(AmError::Empty)?,
            };
            mailbox.read_frame_into(frame_len, scratch)?;
            let base = mailbox.base_addr();
            if !is_batch(scratch) {
                let frame = FrameView::parse(scratch)?;
                let retired = self.admit(ctx, at.bank, at.slot, &frame, base, detected_at, wait)?;
                mailbox.clear(frame_len)?;
                out.push(retired);
                return Ok(());
            }
            let view = BatchView::parse(scratch)?;
            // One container-header read is the whole prologue: inner headers
            // are still read per frame (that work is real), but readiness was
            // checked once and the outer parse validated the whole envelope.
            let prologue = ctx
                .bus
                .access(ctx.core, base, FRAME_HEADER_SIZE, AccessKind::Read);
            ctx.stats.exec_time += prologue;
            ctx.stats.wait_time += wait.elapsed;
            ctx.stats.cycles.add_wait(wait.cycles);
            ctx.stats
                .cycles
                .add_work_time(prologue, self.wait_model.core_freq_ghz);
            let mut clock = detected_at + prologue;
            for (ix, &(dest, bytes)) in view.frames().iter().enumerate() {
                let dest = dest as usize;
                // The inner frame's bytes live inside the carrier slot's
                // memory, so its charged addresses are carrier-relative.
                let inner_base =
                    base + (bytes.as_ptr() as usize - scratch.as_ptr() as usize) as u64;
                let retired = FrameView::parse(bytes)
                    .map_err(|err| AmError::BadFrame(format!("batch inner frame {ix}: {err}")))
                    .and_then(|frame| {
                        self.admit(ctx, at.bank, dest, &frame, inner_base, clock, NO_WAIT)
                    })
                    .unwrap_or_else(|err| Retired::Rejected { slot: dest, err });
                if let Retired::Executed { outcome, .. } = &retired {
                    ctx.stats.batch_frames_received += 1;
                    clock = outcome.handler_done;
                }
                out.push(retired);
            }
            // One clear retires the whole container: the release header the
            // sender published covers every inner frame.
            mailbox.clear(frame_len)?;
            ctx.stats.batches_received += 1;
            Ok(())
        })();
        match admitted {
            Err(AmError::Empty) => Err(AmError::Empty),
            Err(err) => {
                self.reject_slot(at, err, out);
                Ok(())
            }
            Ok(()) => Ok(()),
        }
    }

    /// Retire a mailbox whose contents the pipeline refused (malformed
    /// header or envelope, policy violation, unknown element, a failed chain
    /// stage, ...): free it so the bank cannot wedge. Without a trustworthy
    /// length, clearing the header magic alone makes the slot poll empty
    /// again (the same gate the quarantine path clears).
    fn reject_slot(&self, at: Slot, err: AmError, out: &mut Vec<Retired>) {
        if let Ok(mailbox) = self.banks.mailbox(at.bank, at.slot) {
            let _ = mailbox.clear(at.frame_len.unwrap_or(FRAME_HEADER_SIZE));
        }
        out.push(Retired::Rejected { slot: at.slot, err });
    }

    /// Admit one parsed frame whose wire bytes live at `base_addr` and whose
    /// credit belongs to (`bank`, `slot`), and account it: validate the
    /// slot, probe the replay filter, run the dispatch stages from `start`,
    /// charge the shard's counters, and build the frame's [`ReceiveOutcome`].
    /// `wait` is charged only if the frame executes. `Err` is a rejection
    /// (the frame's slot is the caller's to free).
    ///
    /// The slot comes off the wire for an inner frame of a container, so it
    /// is checked before anything is indexed by it: a slot the bank does not
    /// have would otherwise land in another mailbox's replay entry.
    ///
    /// Idempotent replay suppression (armed flows only): a frame whose
    /// sequence number is not strictly newer than the last one executed from
    /// its slot is a duplicate delivery or a stale retransmit — the original
    /// already executed and was credited, so the copy retires silently (no
    /// dispatch, no stats that would diverge from the lossless run). `0` is
    /// the never-executed sentinel; the sender's sequence space starts at 1,
    /// so it cannot collide.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        ctx: &mut DrainCtx<'_>,
        bank: usize,
        slot: usize,
        frame: &FrameView<'_>,
        base_addr: u64,
        start: SimTime,
        wait: WaitOutcome,
    ) -> AmResult<Retired> {
        let per_bank = self.banks.per_bank();
        if slot >= per_bank {
            return Err(AmError::BadFrame(format!(
                "frame declares destination slot {slot} of a {per_bank}-slot bank"
            )));
        }
        let sn = frame.header.sn;
        if let Some(&mut last) = ctx.replay_entry(per_bank, bank, slot) {
            if last != 0 && !super::shard::sn_newer(sn, last) {
                ctx.stats.replays_suppressed += 1;
                return Ok(Retired::Replayed { slot, sn });
            }
        }
        let dispatched = self.dispatch(ctx, frame, base_addr)?;
        ctx.stats.messages_received += 1;
        ctx.stats.wait_time += wait.elapsed;
        ctx.stats.exec_time += dispatched.handler_time;
        ctx.stats.cycles.add_wait(wait.cycles);
        // One rounding per frame: cycles are charged on the whole handler time.
        ctx.stats
            .cycles
            .add_work_time(dispatched.handler_time, self.wait_model.core_freq_ghz);
        if let Some(last) = ctx.replay_entry(per_bank, bank, slot) {
            *last = sn;
        }
        Ok(Retired::Executed {
            slot,
            sn,
            outcome: ReceiveOutcome {
                detected_at: start,
                handler_done: start + dispatched.handler_time,
                wait,
                exec: dispatched.exec_stats,
                result: dispatched.result,
                handler_time: dispatched.handler_time,
                dispatch_time: dispatched.handler_time - dispatched.exec_time,
            },
        })
    }

    // ---- stages 4–6: resolve image → execute → continue chain --------------

    /// The dispatch stages for one admitted frame: header read, mode split,
    /// policy check, image resolution, the primary execution and the chain's
    /// continuation stages. Charges everything to `ctx.stats` except the
    /// per-frame accounting (`messages_received`, wait, cycles), which is
    /// [`HostCore::admit`]'s.
    ///
    /// The frame's sections stay mapped in the shard's own space from the
    /// first stage that runs there until this returns, on every exit.
    fn dispatch(
        &self,
        ctx: &mut DrainCtx<'_>,
        frame: &FrameView<'_>,
        base_addr: u64,
    ) -> AmResult<DispatchedFrame> {
        let mut held = Placed::default();
        let done = self.run_stages(ctx, frame, base_addr, &mut held);
        held.unmap(&mut ctx.space.local, ctx.spare_sections);
        done
    }

    /// [`HostCore::dispatch`] with the frame's sections in the shard's own
    /// space counted in `held`.
    fn run_stages(
        &self,
        ctx: &mut DrainCtx<'_>,
        frame: &FrameView<'_>,
        base_addr: u64,
        held: &mut Placed,
    ) -> AmResult<DispatchedFrame> {
        // Read the header, charged through this shard's own core bus —
        // private L1/L2 lookups take no lock; only misses touch the striped
        // shared levels.
        let header = ctx
            .bus
            .access(ctx.core, base_addr, FRAME_HEADER_SIZE, AccessKind::Read);
        let injected = frame.header.injected;
        let mut done = DispatchedFrame {
            handler_time: header
                + if injected {
                    INJECTED_DISPATCH
                } else {
                    LOCAL_DISPATCH
                },
            exec_time: SimTime::ZERO,
            result: 0,
            exec_stats: None,
        };
        if self.config.skip_execution {
            return Ok(done);
        }
        if injected
            && self.config.security == SecurityPolicy::Hardened
            && !self.mailbox_region.flags().remote_execute
        {
            return Err(AmError::PolicyViolation(
                "mailbox region lacks remote-execute permission".into(),
            ));
        }
        let primary = self.resolve_image(ctx, frame, base_addr, &mut done.handler_time)?;

        // The message's ARGS and USR sections map at their mailbox addresses
        // so every access is charged against the lines the NIC delivered.
        // These are the only sections copied out of the receive buffer — the
        // jam may write to them (subject to policy), so they need their own
        // backing store.
        let args = Section {
            base: base_addr + frame.args_offset() as u64,
            bytes: frame.args,
            writable: self.config.security == SecurityPolicy::Permissive,
            kind: SegmentKind::Args,
        };
        let usr = Section {
            base: base_addr + frame.usr_offset() as u64,
            bytes: frame.usr,
            writable: self.config.security == SecurityPolicy::Permissive,
            kind: SegmentKind::Payload,
        };
        // The primary jam: the first call of the stage executor.
        let exec = self.execute_stage(
            ctx,
            held,
            &primary,
            &[args, usr],
            [args.base, usr.base, usr.bytes.len() as u64],
        )?;
        done.ran(ctx.stats, &exec);
        if injected {
            ctx.stats.injected_executions += 1;
        } else {
            ctx.stats.local_executions += 1;
        }
        done.exec_stats = Some(exec);
        if let Some(chain) = frame.chain.filter(|c| !c.is_empty()) {
            self.continue_chain(ctx, held, &chain, args, usr, &mut done)?;
        }
        Ok(done)
    }

    /// The chain stage: run a frame's continuation stages after its primary
    /// jam — each the same call of the stage executor, with the frame's
    /// sections under the names the primary saw and the context cell behind
    /// them. Jam k's result registers feed jam k+1's entry registers through
    /// the per-chain context cell: the running result is stored there (one
    /// charged 8-byte write), the next stage is resolved through the Local
    /// Function library and dispatched for the per-stage table-lookup cost —
    /// no new frame, no new wait, no re-parse. The frame stays in its mailbox
    /// until the whole chain retires, so a failing stage propagates
    /// `ChainStageFailed` (stages counted from the first *continuation*) into
    /// the ordinary rejection path: the frame is retired as a whole, one
    /// `frames_rejected`, one credit.
    fn continue_chain(
        &self,
        ctx: &mut DrainCtx<'_>,
        held: &mut Placed,
        chain: &ChainDescriptor,
        args: Section<'_>,
        usr: Section<'_>,
        done: &mut DispatchedFrame,
    ) -> AmResult<()> {
        let ctx_base = CHAIN_CTX_BASE + ctx.core as u64 * CHAIN_CTX_STRIDE;
        for (idx, stage) in chain.stages().iter().enumerate() {
            let fail = |cause| AmError::ChainStageFailed {
                stage: idx,
                cause: Box::new(cause),
            };
            let entry = self
                .local_lib
                .get(&stage.elem_id)
                .ok_or_else(|| fail(AmError::UnknownElement(stage.elem_id)))?;
            // Per-stage dispatch: a function-pointer table lookup by element
            // id, exactly the Local Function dispatch cost.
            done.handler_time += LOCAL_DISPATCH;
            // Publish the running result into the chain context cell.
            done.handler_time += ctx.bus.access(ctx.core, ctx_base, 8, AccessKind::Write);
            let cell = done.result.to_le_bytes();
            let context = Section {
                base: ctx_base,
                bytes: &cell,
                writable: true,
                kind: SegmentKind::Args,
            };
            // Entry-register contract (see `runtime` module docs): the
            // default Result map hands the stage the context cell where a
            // standalone send would hand it the ARGS block, so a stage
            // observes bit-identical operands either way.
            let entry_regs = match stage.map {
                ChainArgMap::Result => [ctx_base, usr.base, usr.bytes.len() as u64],
                ChainArgMap::KeepArgs => [args.base, ctx_base, 8],
            };
            let exec = self
                .execute_stage(ctx, held, entry, &[args, usr, context], entry_regs)
                .map_err(fail)?;
            done.ran(ctx.stats, &exec);
            ctx.stats.local_executions += 1;
            ctx.stats.chain_stages_executed += 1;
        }
        ctx.stats.chain_frames += 1;
        Ok(())
    }

    /// The resolve stage: the GOT and the lowered image a frame's primary
    /// element runs as — through the shared injection caches for an Injected
    /// frame, by `Arc`-shared Local Function entry otherwise. Resolution work
    /// is charged to `handler_time`.
    ///
    /// The warm injected path is keyed by the *NIC delivery digest*: the DMA
    /// engine hashes the code section as the bytes stream through at delivery
    /// (receive-side hash offload — the same cut-through install engine that
    /// keeps up with line rate), so a warm dispatch never reads the code
    /// section on the receiver core at all. The digest is receiver-computed
    /// (by the receiver's own NIC) and a hit still compares the cached code
    /// bytes with the frame's — host work the model does not charge — so
    /// trusting it is security-equivalent to hashing on the core; the GOT
    /// section is still read and hashed per message.
    fn resolve_image(
        &self,
        ctx: &mut DrainCtx<'_>,
        frame: &FrameView<'_>,
        base_addr: u64,
        handler_time: &mut SimTime,
    ) -> AmResult<StageImage> {
        let elem_id = frame.header.elem_id;
        if !frame.header.injected {
            let entry = self
                .local_lib
                .get(&elem_id)
                .ok_or(AmError::UnknownElement(elem_id))?;
            return Ok(entry.clone());
        }
        let got = self.injected_got(ctx, frame, base_addr, handler_time)?;
        let key = (elem_id, ctx.code_digest.of(frame.code), frame.code.len());
        let cached = match ctx.cache.probe(key, &got, frame.code) {
            Some(CodeHit::Image(image, code_base)) => {
                // The image subsumes the program: an image hit is a code hit.
                ctx.stats.resolved_cache_hits += 1;
                ctx.stats.injected_code_cache_hits += 1;
                return Ok(StageImage { image, code_base });
            }
            Some(CodeHit::Program(program, min_got_slots)) => Some((program, min_got_slots)),
            None => None,
        };
        ctx.stats.resolved_cache_misses += 1;
        let code_base = base_addr + frame.code_offset() as u64;
        let code_len = frame.code.len().max(1);
        // Content hash over the arrived code: the cache-key computation. The hash
        // streams every code byte through the receiver core, so it is charged as a
        // full read of the section — these reads hit the LLC when the frame was
        // stashed and go to DRAM otherwise, which keeps the stash benefit visible
        // (and leaves the lines hot for the VM's fetches).
        *handler_time += SimTime::from_ns_f64(frame.code.len() as f64 * HASH_NS_PER_BYTE);
        *handler_time += ctx
            .bus
            .access(ctx.core, code_base, code_len, AccessKind::Read);
        let (program, min_got_slots) = match cached {
            Some((program, min_got_slots)) => {
                // Verification depends on the GOT size, which varies per message:
                // the verifier's floor admits *this* message's GOT in O(1), and
                // below it the verifier refuses with the error a cold cache gives.
                if got.len() < min_got_slots {
                    verify_with_floor(&program, got.len()).map_err(AmError::Verify)?;
                }
                ctx.stats.injected_code_cache_hits += 1;
                (program, min_got_slots)
            }
            // Miss, or a 64-bit hash collision with different bytes: decode and
            // (re)place the entry.
            None => {
                ctx.stats.injected_code_cache_misses += 1;
                // The receiver walks the freshly arrived code (relocation check +
                // landing-pad setup), then decodes and verifies the bytecode.
                // Together with the hash stream above, these reads are the
                // dominant term of the stash benefit for Injected Function
                // messages (Figs. 9–10).
                *handler_time += ctx
                    .bus
                    .access(ctx.core, code_base, code_len, AccessKind::Fetch);
                let program =
                    decode_program(frame.code).map_err(|e| AmError::Decode(e.to_string()))?;
                // The verifier's pass also yields the smallest GOT this program
                // verifies against: a message with another GOT re-checks it in O(1).
                let min_got_slots =
                    verify_with_floor(&program, got.len()).map_err(AmError::Verify)?;
                *handler_time += SimTime::from_ns_f64(
                    frame.code.len() as f64 * (DECODE_NS_PER_BYTE + VERIFY_NS_PER_BYTE),
                );
                (Arc::new(program), min_got_slots)
            }
        };
        let image = Arc::new(resolve(&program, &got));
        let slab = resolved_slab_base(key);
        // Lowering walks the program once, then the image is written into its
        // slab (which installs its lines hot for the execution that follows and
        // every warm re-run).
        *handler_time += SimTime::from_ns_f64(frame.code.len() as f64 * RESOLVE_NS_PER_BYTE);
        *handler_time += ctx.bus.access(
            ctx.core,
            slab,
            image.image_bytes().max(1),
            AccessKind::Write,
        );
        ctx.stats.injected_code_cache_evictions += ctx.cache.store(
            key,
            CachedCode {
                code: frame.code.into(),
                program,
                min_got_slots,
                got,
                image: Arc::clone(&image),
                code_base: slab,
            },
        );
        Ok(StageImage {
            image,
            code_base: slab,
        })
    }

    /// The execute stage: give the shard's own space a fresh copy of each of
    /// `sections` and run `jam`'s image with `entry_regs`, with no lock at
    /// all — reads of ried rodata go through the `Arc`-shared read-only base,
    /// writes land in the shard's private instances. What `held`, the
    /// frame's [`Placed`], already holds is refilled in place and the rest is
    /// mapped (in the shard's spare segments); the sections outlive the stage
    /// and are unmapped when the frame's dispatch returns.
    fn execute_stage(
        &self,
        ctx: &mut DrainCtx<'_>,
        held: &mut Placed,
        jam: &StageImage,
        sections: &[Section<'_>],
        entry_regs: [u64; 3],
    ) -> AmResult<ExecStats> {
        let vm_cfg = VmConfig {
            core: ctx.core,
            code_base: jam.code_base,
            fuel: 50_000_000,
            freq_ghz: self.wait_model.core_freq_ghz,
            ipc: 2.0,
            extern_call_overhead: SimTime::from_ns(6),
            entry_regs,
        };
        held.place(&mut ctx.space.local, sections, ctx.spare_sections)
            .map_err(|e| AmError::Exec(e.to_string()))?;
        Vm::execute_resolved(
            &jam.image,
            self.namespace.externs(),
            ctx.space,
            ctx.bus,
            &vm_cfg,
        )
        .map_err(AmError::from)
    }

    /// Resolve the GOT image of an injected frame, through the shared GOT caches.
    fn injected_got(
        &self,
        ctx: &mut DrainCtx<'_>,
        frame: &FrameView<'_>,
        mailbox_base: u64,
        handler_time: &mut SimTime,
    ) -> AmResult<Arc<GotImage>> {
        let elem_id = frame.header.elem_id;
        if self.config.security == SecurityPolicy::Permissive {
            // Hash (and, on a candidate hit, compare) the sender-provided image in
            // place; like the code hash this streams the arrived bytes, so it is
            // charged as a read of the section wherever the frame landed.
            *handler_time += SimTime::from_ns_f64(frame.got.len() as f64 * HASH_NS_PER_BYTE);
            *handler_time += ctx.bus.access(
                ctx.core,
                mailbox_base + frame.got_offset() as u64,
                frame.got.len().max(1),
                AccessKind::Read,
            );
            let key = (elem_id, hash64_bytes(frame.got));
            if let Some(image) = ctx.cache.lookup_sender_got(key, frame.got) {
                ctx.stats.got_cache_hits += 1;
                return Ok(image);
            }
            // Miss, or a 64-bit hash collision with different bytes: re-parse and
            // (re)place the entry.
            ctx.stats.got_cache_misses += 1;
            let image = Arc::new(GotImage::from_bytes(frame.got).ok_or(AmError::GotImage)?);
            *handler_time += SimTime::from_ns_f64(frame.got.len() as f64 * GOT_PARSE_NS_PER_BYTE);
            ctx.stats.got_cache_evictions += ctx.cache.store_sender_got(
                key,
                CachedGot {
                    bytes: frame.got.into(),
                    image: Arc::clone(&image),
                },
            );
            Ok(image)
        } else {
            // Hardened mode: ignore the sender's GOT, re-resolve locally. The cache
            // amortises the resolution *work* (building the slot vector), but the
            // policy's modelled per-message cost is charged on every message — the
            // hardening of §V is a per-message check, and the cost model must keep
            // saying so whether or not the host reuses the resolved image.
            if let Some(got) = ctx.cache.lookup_resolved_got(elem_id) {
                ctx.stats.got_cache_hits += 1;
                *handler_time += self.config.security.per_message_overhead(got.len());
                return Ok(got);
            }
            ctx.stats.got_cache_misses += 1;
            let pkg = self
                .package
                .as_ref()
                .ok_or(AmError::UnknownElement(elem_id))?;
            let jam = pkg.jam(ElementId(elem_id))?;
            *handler_time += self.config.security.per_message_overhead(jam.got.len());
            let got = Arc::new(self.namespace.resolve_got(&jam.got)?);
            ctx.stats.got_cache_evictions +=
                ctx.cache.store_resolved_got(elem_id, Arc::clone(&got));
            Ok(got)
        }
    }

    // ---- stage 7: retire (sequence, credit) --------------------------------

    /// Retire one frame of `bank`: feed its sequence number to the gap
    /// watcher, advance the drain clock past its handler, and return its
    /// slot's credit — a fresh token for an executed or rejected frame, the
    /// current one re-published for a suppressed replay. A rejected frame
    /// naming a slot the bank does not have returns none: there is no such
    /// slot to free.
    ///
    /// An executed frame *resets* `clock` to its `handler_done`: the frames
    /// of a container execute back-to-back before any is retired, so a credit
    /// flush posted while retiring one does not push the next one's (already
    /// final) times back — its cost still lands in `credit_put_time`.
    fn retire(
        &self,
        shard: &mut ReceiverShard,
        clock: &mut SimTime,
        bank: usize,
        retired: &Retired,
    ) -> AmResult<()> {
        match *retired {
            Retired::Executed {
                slot,
                sn,
                ref outcome,
            } => {
                Self::note_sequence(shard, sn);
                *clock = outcome.handler_done;
                Self::return_credit(shard, clock, bank, slot)
            }
            Retired::Replayed { slot, sn } => {
                Self::note_sequence(shard, sn);
                Self::return_replay_credit(shard, clock, bank, slot)
            }
            Retired::Rejected { slot, .. } => {
                shard.stats.frames_rejected += 1;
                if slot < self.banks.per_bank() {
                    Self::return_credit(shard, clock, bank, slot)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Feed one processed sequence number (executed or suppressed) to the
    /// shard's gap watcher, when a fleet is connected.
    fn note_sequence(shard: &mut ReceiverShard, sn: u32) {
        if shard.credit.is_some() {
            shard.watch.note(sn);
        }
    }

    /// Return the flow-control credit for a just-retired slot: mint its next
    /// token into the shard's pending row and charge whatever that flushed —
    /// [`CreditReturn::accumulate`] decides (row-fill, the headroom watermark;
    /// the idle/abort flush at the end of every scan is the caller's job).
    /// No-op when the credit path is not installed. Must be called *after*
    /// the slot's mailbox was cleared — the flush put's release publication
    /// is what orders the sender's refill behind the clear.
    ///
    /// The token is counted (`credits_returned`, one wire byte in
    /// `credit_put_bytes`) at mint time — token accounting, one per retired
    /// frame regardless of how flushes batch them — while the posting cost
    /// (`credit_put_time`) and the flush-shape counters (`credit_flushes`,
    /// `credit_flush_bytes`, `credit_flush_max_span`) land when a flush
    /// actually posts, advancing `clock` to the puts' `sender_free`.
    ///
    /// A failure here is an invariant break, not a routine condition: the
    /// table was registered writable against this host's banks by the connect
    /// that installed it, and the admit stage never lets a slot the bank does
    /// not have this far, so the only ways a drain-time credit put can fail
    /// are things like a region deregistered mid-flight.
    /// Callers propagate it (even at the cost of dropping a burst's
    /// already-executed outcomes) — losing a credit silently would wedge the
    /// paired lane with no trace, which is strictly worse.
    fn return_credit(
        shard: &mut ReceiverShard,
        clock: &mut SimTime,
        bank: usize,
        slot: usize,
    ) -> AmResult<()> {
        let Some(credit) = shard.credit.as_mut() else {
            return Ok(());
        };
        let flushed = credit.accumulate(*clock, bank, slot)?;
        shard.stats.credits_returned += 1;
        shard.stats.credit_put_bytes += 1;
        for flush in flushed.into_iter().flatten() {
            Self::fold_flush(&mut shard.stats, clock, flush);
        }
        Ok(())
    }

    /// Post every pending credit token of `shard` now (no-op when nothing is
    /// pending or no credit path is installed), folding the flush traffic
    /// into the shard's stats and advancing `clock` past the posting cost.
    /// This is the idle/abort trigger of the flush state machine: the host
    /// calls it at the end of every scan and on every error exit, so a token
    /// can never be stranded by an empty bank or a failed dispatch.
    fn flush_credits(shard: &mut ReceiverShard, clock: &mut SimTime) -> AmResult<()> {
        if let Some(credit) = shard.credit.as_mut() {
            if let Some(flush) = credit.flush(*clock)? {
                Self::fold_flush(&mut shard.stats, clock, flush);
            }
        }
        Ok(())
    }

    /// Fold one flush's traffic into the resettable stats: the posting cost
    /// charged to the drain core's clock, plus the flush-shape counters
    /// (`credit_flush_max_span` merges with `max`, like the host-wide merge).
    fn fold_flush(stats: &mut RuntimeStats, clock: &mut SimTime, flush: FlushOutcome) {
        stats.credit_flushes += flush.puts;
        stats.credit_flush_bytes += flush.bytes;
        stats.credit_flush_max_span = stats.credit_flush_max_span.max(flush.max_span);
        stats.credit_put_time += flush.sender_free - *clock;
        *clock = flush.sender_free;
    }

    /// Return the credit for a slot retired as a suppressed *replay*: the
    /// slot's current token is re-published without advancing the drain count
    /// ([`CreditReturn::put_credit_replay`]), so the duplicate can neither
    /// leak the slot (the sender still sees it free) nor mint an extra credit
    /// (the token byte is unchanged). Not counted in `credits_returned` — the
    /// put carries no *new* credit — but its traffic and posting cost are
    /// charged like any other put.
    fn return_replay_credit(
        shard: &mut ReceiverShard,
        clock: &mut SimTime,
        bank: usize,
        slot: usize,
    ) -> AmResult<()> {
        if let Some(credit) = shard.credit.as_mut() {
            let out = credit.put_credit_replay(*clock, bank, slot)?;
            Self::fold_put(&mut shard.stats, clock, out);
        }
        Ok(())
    }

    /// Close one full bank scan for the gap watcher and post every suspected
    /// loss that outlived the scan-jumble horizon as **one** coalesced NACK
    /// put ([`CreditReturn::put_nacks`]) — `nacks_posted` counts flushes, not
    /// gaps, since the coalescing. On a lossless fabric the watcher never
    /// ages anything out, so this posts nothing.
    fn post_due_nacks(shard: &mut ReceiverShard, clock: &mut SimTime) -> AmResult<()> {
        let Some(credit) = shard.credit.as_mut() else {
            return Ok(());
        };
        let due = shard.watch.end_scan();
        if due.is_empty() {
            return Ok(());
        }
        let out = credit.put_nacks(*clock, &due)?;
        shard.stats.nacks_posted += 1;
        Self::fold_put(&mut shard.stats, clock, out);
        Ok(())
    }

    /// Charge one credit-path put that is not a token flush (a replay
    /// re-publication, a NACK span): its wire bytes and its posting cost.
    fn fold_put(stats: &mut RuntimeStats, clock: &mut SimTime, put: CreditPutOutcome) {
        stats.credit_put_bytes += put.bytes as u64;
        stats.credit_put_time += put.sender_free - *clock;
        *clock = put.sender_free;
    }
}
