//! The sharded cache hierarchy: per-core private L1/L2 over lock-striped shared
//! levels.
//!
//! A monolithic hierarchy is a single-threaded model: putting one behind a
//! global `Mutex` made every receiver shard serialise on every simulated byte,
//! which is exactly the wall-clock ceiling the multi-shard drain hit. This
//! module is the hierarchy the workspace ships, split along the same line real
//! hardware does; the monolithic model survives as the test-only reference of
//! the `twochains-oracle` crate, which charges identical costs for identical
//! access streams:
//!
//! * [`CoreBus`] — one per core (one per receiver shard). It **owns** that
//!   core's private L1, L2 and stride prefetcher outright: a private-cache hit
//!   costs zero locks and zero atomic RMWs — the only synchronisation on the
//!   hot path is two `Acquire` loads, of the prefetcher generation and of the
//!   core's invalidation-inbox flag (see "The private-hit path").
//! * [`SharedHierarchy`] — the shared outer levels. The per-cluster L3 slices
//!   each sit behind their own mutex, the LLC is split into
//!   `LLC_STRIPES` lock stripes selected by line index, and the DRAM model is
//!   striped into `DRAM_CHANNELS` independently locked channels keyed by line
//!   address (`line % DRAM_CHANNELS`), modelling a multi-channel part. Misses
//!   from different cores only contend when they genuinely collide on the same
//!   stripe or channel.
//!
//! # Invalidation contract
//!
//! A delivery is a *run*: the consecutive cache lines `first..first + count` that
//! one put covers. Inbound DMA ([`SharedHierarchy::dma_write`]) makes the LLC
//! (stash path) or DRAM (non-stash path) copy of every line of the run
//! authoritative; any copy above the LLC — in an L3 slice, in a private L1/L2 — is
//! stale from that instant. It takes each LLC stripe's lock once and walks that
//! stripe's lines of the run in ascending order — the order a line-by-line walk
//! would have visited that stripe, so LRU state, victims and cost are those of the
//! line-by-line model — and in the same touch learns from the line's *held-above
//! flag* (next section) whether any level above can hold a copy at all. Only if
//! some line of the run is held does it take each L3 slice's lock, once, to evict
//! those lines; it charges the displaced dirty lines' write-backs in line order.
//! Because the private levels are lock-free, DMA cannot reach into them — instead
//! it posts the held lines, 64 consecutive lines to a `(first line, mask)` word, to
//! the *invalidation inbox* of every core that has a bus and raises that core's
//! flag. [`CoreBus::access`] drains its inbox before touching its private caches,
//! evicting each posted line from L1 and L2, so a core can never observe a line it
//! cached before the DMA overwrote it. This is the same hook the receiver's
//! cross-shard injection-cache invalidation rides on: package reinstalls
//! invalidate the (shared) decoded-program caches directly, and the per-core
//! *hardware* state follows through the inbox on the next access. An inbox counts
//! every *delivered* line, held or not, and once the count passes
//! `INVAL_INBOX_LIMIT` it degrades to a full private-cache flush — correct, just
//! conservatively slow. The count and the flag are the unfiltered model's on
//! purpose: where an inbox overflows, and when a core drains it, are part of the
//! model.
//!
//! An inbox no bus drains is not posted to at all. It is *attached* when
//! [`SharedHierarchy::core_bus`] first builds a bus for its core, and stays
//! attached if that bus is dropped. Until then its core's deliveries are only
//! counted, in one host-wide line count, and attaching charges the inbox that
//! count: it overflows into a flush exactly where an inbox posted to from the
//! start would have. Below the limit nothing is lost, because a new bus's
//! caches are empty and the held lines it missed had nothing to evict. A
//! [`SharedHierarchy::clear`] still posts its flush to every inbox.
//!
//! # The held-above flag
//!
//! A warm receiver reads a frame's header and arguments and never its code
//! section, so most delivered lines are held by nothing above the LLC when the
//! next delivery overwrites them, and an eviction probe for them finds nothing.
//! Each LLC way therefore carries the one bit a home node keeps (the way's *mark*
//! in [`SetAssocCache`], under its stripe's lock): *set* means an L3 slice or some
//! core's L1/L2 may hold the line in that way; *clear* means none can without an
//! invalidation for it already sitting in that core's inbox. The invariant
//! (checked slot by slot after every step of the interleaving test against the
//! always-snooping line-by-line model):
//!
//! > If an L3 slice holds line `L`, or a core's L1 or L2 holds `L` while no
//! > posted, undrained word (or pending flush-all) of that core's inbox covers
//! > `L`, then `L` is absent from the LLC or its way's flag is set.
//!
//! A skipped probe is then a probe that would have found nothing, and evicting an
//! absent line changes no state (no tick, no counter): every cost, counter, LRU
//! order and residency is the unfiltered model's. The transitions that keep it:
//!
//! | event | flag of the way that holds the line afterwards |
//! |---|---|
//! | demand access that reaches the stripe, hit or fill | set: whoever asked now holds it (a second core of the cluster that then hits L3 never reaches the stripe, and need not) |
//! | delivery, stash path | `held = !hit \|\| flag`, then cleared — a line the LLC did not track may have outlived its LLC copy above (a capacity victim), so a stash that *fills* always snoops |
//! | delivery, non-stash path | the line leaves the LLC, and its way's flag goes with it; `held = !was_resident \|\| flag` |
//! | prefetch install | set if the install *filled* (same reason), untouched on a hit |
//! | [`CoreBus::warm`] | set: it fills L1/L2 right after, without a shared-level access |
//! | [`SharedHierarchy::clear`] | none left: the LLC is empty (and every level above is flushed) |
//!
//! A flag never outlives its line: a fill starts its way unmarked, before the row
//! above that made the fill applies, and an eviction takes the mark with the line.
//! The flag is read and written only under its stripe's lock, and the
//! lock order (stripe → L3 slice → inbox) is unchanged; a core that demands a line
//! between a delivery's stash and its post sets the flag again after the delivery
//! cleared it, which is conservative.
//!
//! **Warm-ups.** [`CoreBus::warm`] is the one private fill that does not drain the
//! inbox first. When every delivered line was posted, a delivery still pending
//! from *before* the warm-up took the freshly warmed lines at the core's next
//! access, although they were the delivered data; a line that was never posted (it
//! was not held when it was delivered) is not taken, and that copy survives — the
//! one sequence on which the filter shows
//! (`a_warm_up_behind_an_unposted_delivery_keeps_its_lines`). A bus built after
//! deliveries and warmed before its first access keeps its lines the same way:
//! its inbox was never sent those deliveries' runs. The runtime warms only the
//! Local Function library's range, which no delivery covers.
//!
//! **What a delivery costs the host.** Per delivered line: one LLC touch (the
//! stash, or the drop), which also reads and clears the flag. Per *held* line: one
//! eviction probe in each L3 slice and, at the next access of each core, one in
//! its L1 and one in its L2. Per delivery: one lock round-trip per touched stripe
//! and per attached inbox (a receiver host with one drain shard has one of four),
//! one atomic add to the host-wide line count, the slice locks only if a line is
//! held, and no heap allocation
//! (a run is walked 512 consecutive lines at a time over a mask on the stack)
//! unless a stash displaces a dirty victim or an inbox's buffer, which keeps its
//! capacity across drains, has to grow.
//! [`SharedHierarchy::delivery_stats`] counts both kinds of line (the held ones
//! under the stripe lock the touch already holds).
//!
//! # The private-hit path
//!
//! Most accesses a jam makes are to one line its core already holds, so
//! [`CoreBus::access`](MemoryBus::access) is a fast path that is always
//! inlined: its callers (the resolved executor's loop above all) compile it
//! into themselves. Per access it does, in this order: one `Acquire` load of the
//! prefetcher generation, one `Acquire` load of the core's inbox flag, the
//! first and last line of the range by shift, and — for a single line — one
//! scan of the L1 set's tags ([`SetAssocCache`]'s own inlined hit: bump the
//! tick, stamp the way, OR the dirty bit, count the hit). Everything else is a
//! call: rebuilding the prefetcher when the generation moved, draining the
//! inbox when the flag is up, an L1 miss's fill and its walk through L2 and the
//! shared levels, and a range of more than one line.
//!
//! What the fast path may never skip is the two loads: both are observed
//! *before any private look-up, on every access*, single-line or not. A hit
//! served before the inbox flag was read could be a line a delivery has
//! already overwritten (the contract above); one served before the generation
//! was read could train a prefetcher that was switched off. Nothing is
//! remembered between accesses — no last line, no last way — so a hit costs
//! what it costs whatever came before it.
//!
//! # Statistics
//!
//! Shared-level counters live in relaxed atomics on the [`SharedHierarchy`];
//! private-level counters accumulate lock-free in each [`CoreBus`] as
//! [`CoreCacheStats`]. [`HierarchyStats::absorb_core`] folds the per-core view
//! back into the global one, so the merged picture matches what the monolithic
//! reference model reports (the oracle crate's `parity_with_monolithic_model`
//! test pins this).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cache::{AccessKind, FillOutcome, SetAssocCache};
use crate::clock::SimTime;
use crate::config::TestbedConfig;
use crate::hierarchy::{HierarchyStats, MemoryBus};
use crate::latency::DramModel;
use crate::prefetch::StridePrefetcher;
use crate::stress::MemoryStressor;

/// Number of lock stripes the shared LLC is split into.
pub(crate) const LLC_STRIPES: usize = 8;

/// Number of independently locked DRAM channels at the bottom of the shared
/// levels. Line `l` is served by channel `l % DRAM_CHANNELS` (consecutive
/// lines interleave across channels, like real multi-channel parts), so DRAM
/// misses from different cores only contend when they genuinely collide on a
/// channel. Every channel runs the same [`DramModel`] configuration, so the
/// per-access *cost* is identical to the single-model monolithic hierarchy —
/// the split removes lock contention, not latency (pinned by the oracle
/// crate's parity tests).
pub(crate) const DRAM_CHANNELS: usize = 4;

/// Past this many pending line invalidations a core's inbox degrades to a full
/// private-cache flush (bounded memory, conservative correctness).
pub(crate) const INVAL_INBOX_LIMIT: usize = 4096;

/// Private-cache counters owned (lock-free) by one [`CoreBus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCacheStats {
    /// Demand accesses that hit this core's private L1.
    pub l1_hits: u64,
    /// Demand accesses that hit this core's private L2.
    pub l2_hits: u64,
    /// Dirty write-backs generated by this core's private evictions.
    pub writebacks: u64,
    /// Prefetches issued by this core's stride prefetcher.
    pub prefetches_issued: u64,
    /// Demand accesses satisfied by a previously prefetched LLC line.
    pub prefetch_hits: u64,
    /// Stale lines dropped from the private levels by DMA invalidation.
    pub invalidations_applied: u64,
}

/// One core's pending-invalidation inbox: written by the DMA engine (short
/// lock), drained by the owning [`CoreBus`] at its next access. Deliveries
/// post to it only once it is *attached*, which it is from the first time
/// [`SharedHierarchy::core_bus`] builds a bus for its core.
#[derive(Debug, Default)]
struct InvalInbox {
    flag: AtomicBool,
    attached: AtomicBool,
    pending: Mutex<PendingInvals>,
}

#[derive(Debug, Default)]
struct PendingInvals {
    /// The delivered lines to invalidate: those some level above the LLC may hold.
    held: Vec<HeldLines>,
    /// Lines delivered since the last drain, held or not, against
    /// [`INVAL_INBOX_LIMIT`].
    lines: u64,
    /// Drop everything (hierarchy clear, or an overflowed inbox).
    flush_all: bool,
}

impl PendingInvals {
    /// Count `lines` more delivered lines; one past [`INVAL_INBOX_LIMIT`] the
    /// inbox degrades to a full flush, and a flush counts nothing more.
    /// Returns whether the delivery's held lines are still to be pushed.
    fn charge(&mut self, lines: u64) -> bool {
        if self.flush_all {
            return false;
        }
        self.lines += lines;
        if self.lines > INVAL_INBOX_LIMIT as u64 {
            self.held.clear();
            self.lines = 0;
            self.flush_all = true;
        }
        !self.flush_all
    }
}

/// One lock stripe of the shared LLC, with its slice of the
/// prefetched-but-not-yet-demanded line set.
///
/// Stripe `k` owns the lines with `line % LLC_STRIPES == k`, and indexes its
/// backing cache by `line / LLC_STRIPES`. When `LLC_STRIPES` divides the LLC
/// set count, `(stripe, stripe-set)` is a bijection of the monolithic set
/// index, so conflict behaviour matches the unsharded model exactly.
#[derive(Debug)]
struct LlcStripe {
    /// A way's *mark* is its held-above flag: whether an L3 slice or a core's
    /// private levels may hold the line in that way (the invariant of the module
    /// docs). It sits in the byte a touch of the way reads anyway.
    cache: SetAssocCache,
    /// Delivered lines found held ([`DeliveryStats::held_lines`]).
    held_delivered: u64,
    /// Prefetched-not-yet-demanded lines, stored *folded* (like the cache tags,
    /// so victim tags from the cache compare directly).
    prefetched: HashSet<u64>,
}

impl LlcStripe {
    #[inline]
    fn fold(line: u64) -> u64 {
        line / LLC_STRIPES as u64
    }

    /// A demand access, hit or fill: whoever asked holds the line from here on.
    fn access_line(&mut self, line: u64, kind: AccessKind) -> FillOutcome {
        let (out, slot) = self.cache.access_line_slot(Self::fold(line), kind);
        self.cache.set_marked(slot, true);
        out
    }

    /// Stash one delivered line. Returns whether a level above may hold a copy —
    /// which the delivery, about to snoop it or not, leaves no longer true — and
    /// the dirty victim the stash displaced.
    fn deliver_line(&mut self, line: u64) -> (bool, Option<u64>) {
        let (out, slot) = self.cache.stash_line_slot(Self::fold(line));
        // A line the LLC did not track may have outlived its LLC copy above (a
        // capacity victim), so a stash that fills always snoops.
        let held = !out.hit || self.cache.marked(slot);
        self.cache.set_marked(slot, false);
        self.held_delivered += u64::from(held);
        (held, out.dirty_victim)
    }

    /// Drop one line delivered on the non-stash path. Returns whether a level
    /// above may hold a copy; a line the LLC did not track may be held anywhere.
    fn drop_delivered_line(&mut self, line: u64) -> bool {
        let folded = Self::fold(line);
        self.prefetched.remove(&folded);
        let evicted = self.cache.evict_line_marked(folded);
        let held = evicted.is_none_or(|(_, marked)| marked);
        self.held_delivered += u64::from(held);
        held
    }

    /// Install a line off the demand path. `held_above` says the installer fills
    /// a private level without a shared-level access (a warm-up); a prefetch does
    /// not, but a line it *fills* may still be held from before the LLC lost it.
    /// Returns the dirty victim displaced.
    fn install_line(&mut self, line: u64, held_above: bool) -> Option<u64> {
        let (out, slot) = self.cache.stash_line_slot(Self::fold(line));
        if held_above || !out.hit {
            self.cache.set_marked(slot, true);
        }
        out.dirty_victim
    }

    fn contains_line(&self, line: u64) -> bool {
        self.cache.contains_line(Self::fold(line))
    }
}

/// Lines of a delivered run handled at a time: the size of the held-above mask
/// [`SharedHierarchy::dma_write`] keeps on its stack.
const DELIVERY_CHUNK: usize = 512;

/// Up to 64 consecutive delivered lines of which some level above the LLC may
/// hold those whose bit is set: bit `i` stands for line `first + i`.
#[derive(Debug, Clone, Copy)]
struct HeldLines {
    first: u64,
    mask: u64,
}

impl HeldLines {
    /// The held lines of a chunk of a delivered run that starts at line `chunk`,
    /// bit `i % 64` of `masks[i / 64]` standing for its line `i`.
    #[inline]
    fn of_chunk(chunk: u64, masks: &[u64]) -> impl Iterator<Item = HeldLines> + '_ {
        let words = masks.iter().enumerate().filter(|(_, &mask)| mask != 0);
        words.map(move |(k, &mask)| HeldLines {
            first: chunk + 64 * k as u64,
            mask,
        })
    }

    /// The held lines, ascending.
    #[inline]
    fn lines(self) -> impl Iterator<Item = u64> {
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let line = self.first + u64::from(mask.trailing_zeros());
                mask &= mask - 1;
                line
            })
        })
    }
}

/// Outcome of a shared-level (L3 → LLC → DRAM) access, fed back to the core so
/// it can train its own prefetcher without holding any shared lock.
#[derive(Debug, Clone, Copy)]
struct SharedOutcome {
    cost: SimTime,
    /// The access missed all caches and went to DRAM.
    dram: bool,
    /// The access hit an LLC line installed by a prefetch.
    prefetch_hit: bool,
}

#[derive(Debug, Default)]
struct SharedStats {
    l3_hits: AtomicU64,
    llc_hits: AtomicU64,
    dram_accesses: AtomicU64,
    stashed_lines: AtomicU64,
    dma_dram_lines: AtomicU64,
    writebacks: AtomicU64,
}

/// What the held-above filter made of the lines delivered so far
/// ([`SharedHierarchy::delivery_stats`]). Not part of [`HierarchyStats`]: these
/// count host work the model does not charge for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Lines covered by [`SharedHierarchy::dma_write`] calls.
    pub delivered_lines: u64,
    /// Those an L3 slice or a private cache could still hold: evicted from the
    /// slices and posted to the inboxes. The rest cost one LLC touch each.
    pub held_lines: u64,
}

/// The striped DRAM bottom: one short-hold mutex per channel, plus the (rarely
/// attached) stressor behind its own lock. Lock order is always channel →
/// stressor; the stressor lock is only taken when the `stressed` flag says one
/// is attached.
#[derive(Debug)]
struct DramBanks {
    channels: Vec<Mutex<DramModel>>,
    stressor: Mutex<Option<MemoryStressor>>,
}

/// The shared outer levels of the sharded hierarchy. Internally synchronized:
/// every method takes `&self`, and no caller-visible lock wraps the whole
/// object.
#[derive(Debug)]
pub struct SharedHierarchy {
    cfg: TestbedConfig,
    llc_stashing: AtomicBool,
    prefetch_enabled: AtomicBool,
    /// Bumped on every prefetcher reconfiguration; cores reset their private
    /// prefetcher when they observe a new generation.
    prefetch_gen: AtomicU64,
    stressed: AtomicBool,
    l3: Vec<Mutex<SetAssocCache>>,
    llc: Vec<Mutex<LlcStripe>>,
    dram: DramBanks,
    invals: Vec<InvalInbox>,
    /// Lines covered by every [`SharedHierarchy::dma_write`] since the
    /// hierarchy was built: what [`SharedHierarchy::core_bus`] charges an
    /// inbox it attaches.
    delivered_lines: AtomicU64,
    stats: SharedStats,
    /// `log2` of the line size, which every level asserts is a power of two.
    line_shift: u32,
}

impl SharedHierarchy {
    /// Build an empty (cold) shared hierarchy for the given machine description.
    pub fn new(cfg: TestbedConfig) -> Self {
        let l3 = (0..cfg.num_clusters())
            .map(|_| Mutex::new(SetAssocCache::new(cfg.caches.l3)))
            .collect();
        let stripe_cfg = crate::config::CacheLevelConfig::new(
            (cfg.caches.llc.capacity / LLC_STRIPES)
                .max(cfg.caches.llc.ways * cfg.caches.llc.line_size),
            cfg.caches.llc.ways,
            cfg.caches.llc.line_size,
        );
        let llc = (0..LLC_STRIPES)
            .map(|_| {
                Mutex::new(LlcStripe {
                    cache: SetAssocCache::new(stripe_cfg),
                    held_delivered: 0,
                    prefetched: HashSet::new(),
                })
            })
            .collect();
        let dram = DramBanks {
            channels: (0..DRAM_CHANNELS)
                .map(|_| Mutex::new(DramModel::new(cfg.latency.dram, cfg.dram)))
                .collect(),
            stressor: Mutex::new(None),
        };
        let invals = (0..cfg.caches.num_cores)
            .map(|_| InvalInbox::default())
            .collect();
        let line_shift = cfg.caches.llc.line_size.trailing_zeros();
        SharedHierarchy {
            llc_stashing: AtomicBool::new(cfg.llc_stashing),
            prefetch_enabled: AtomicBool::new(cfg.prefetch.enabled),
            prefetch_gen: AtomicU64::new(0),
            stressed: AtomicBool::new(false),
            cfg,
            l3,
            llc,
            dram,
            invals,
            delivered_lines: AtomicU64::new(0),
            stats: SharedStats::default(),
            line_shift,
        }
    }

    /// The machine description this hierarchy models.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// Number of cores (and so of valid [`CoreBus`] slots).
    pub fn num_cores(&self) -> usize {
        self.cfg.caches.num_cores
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        1 << self.line_shift
    }

    /// Build the private-level bus for `core`. One live bus per core: a second
    /// bus for the same core would drain the same invalidation inbox and let
    /// the other one read stale lines.
    ///
    /// The first bus for a core attaches its inbox, which deliveries post to
    /// from then on, dropped bus or not. Attaching charges the inbox every
    /// line delivered before it, so it overflows exactly where an inbox
    /// posted to all along would have (a [`SharedHierarchy::clear`] since has
    /// left it a flush already, which nothing adds to). The held lines it was
    /// not sent could only have been evicted from this bus's caches, which
    /// are empty.
    pub fn core_bus(self: &Arc<Self>, core: usize) -> CoreBus {
        assert!(core < self.num_cores(), "core {core} out of range");
        let inbox = &self.invals[core];
        {
            let mut pending = inbox.pending.lock();
            if !inbox.attached.swap(true, Ordering::SeqCst) {
                pending.charge(self.delivered_lines.load(Ordering::SeqCst));
                inbox.flag.store(true, Ordering::Release);
            }
        }
        // Honour the *current* prefetcher enable state, not the construction
        // config: a set_prefetching() issued before this bus exists must not
        // be silently undone by seeding the already-observed generation.
        let mut prefetch_cfg = self.cfg.prefetch;
        prefetch_cfg.enabled = self.prefetching_enabled();
        CoreBus {
            core,
            l1: SetAssocCache::new(self.cfg.caches.l1),
            l2: SetAssocCache::new(self.cfg.caches.l2),
            prefetcher: StridePrefetcher::new(prefetch_cfg),
            prefetch_gen_seen: self.prefetch_gen.load(Ordering::Acquire),
            stats: CoreCacheStats::default(),
            inval_held: Vec::new(),
            shared: Arc::clone(self),
        }
    }

    /// Whether inbound DMA is stashed into the LLC.
    pub fn stashing_enabled(&self) -> bool {
        self.llc_stashing.load(Ordering::Relaxed)
    }

    /// Toggle LLC stashing (the paper's firmware knob).
    pub fn set_stashing(&self, enabled: bool) {
        self.llc_stashing.store(enabled, Ordering::Relaxed);
    }

    /// Toggle the hardware prefetcher (the paper's kernel knob). Cores reset
    /// their private prefetchers when they observe the new generation.
    pub fn set_prefetching(&self, enabled: bool) {
        self.prefetch_enabled.store(enabled, Ordering::Relaxed);
        self.prefetch_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether the prefetcher is currently enabled.
    pub(crate) fn prefetching_enabled(&self) -> bool {
        self.prefetch_enabled.load(Ordering::Relaxed)
    }

    /// Attach (or detach, with `None`) a memory stressor. Background
    /// utilization applies to every channel — the stressor's traffic spreads
    /// over the whole memory system, exactly as in the monolithic model.
    pub fn set_stressor(&self, stressor: Option<MemoryStressor>) {
        let util = stressor
            .as_ref()
            .map(|s| s.bandwidth_share())
            .unwrap_or(0.0);
        for channel in &self.dram.channels {
            channel.lock().set_background_utilization(util);
        }
        self.stressed.store(stressor.is_some(), Ordering::Relaxed);
        *self.dram.stressor.lock() = stressor;
    }

    /// Whether a stressor is currently attached (one atomic load; safe on the
    /// per-message path).
    pub fn stressed(&self) -> bool {
        self.stressed.load(Ordering::Relaxed)
    }

    /// Per-message software-visible jitter from the loaded system; zero when no
    /// stressor is attached.
    pub fn scheduler_jitter(&self) -> SimTime {
        if !self.stressed() {
            return SimTime::ZERO;
        }
        match &mut *self.dram.stressor.lock() {
            Some(s) => s.scheduler_jitter(),
            None => SimTime::ZERO,
        }
    }

    /// The DRAM channel serving `line` (`line % DRAM_CHANNELS`).
    #[inline]
    fn dram_channel(line: u64) -> usize {
        (line as usize) % DRAM_CHANNELS
    }

    /// One demand line-fill from DRAM, charged on `line`'s channel. The
    /// stressor's queueing jitter (when attached) rides on top, as in the
    /// monolithic model; the `stressed` flag keeps the stressor lock off the
    /// common path.
    fn dram_line_access(&self, line: u64) -> SimTime {
        let mut channel = self.dram.channels[Self::dram_channel(line)].lock();
        if self.stressed() {
            channel.line_access(self.dram.stressor.lock().as_mut())
        } else {
            channel.line_access(None)
        }
    }

    /// One posted write-back, charged on `line`'s channel.
    fn dram_writeback(&self, line: u64) -> SimTime {
        self.dram.channels[Self::dram_channel(line)]
            .lock()
            .writeback()
    }

    /// Total DRAM model accesses (demand fills + write-backs) across every
    /// channel — the striped counterpart of
    /// [`DramModel::accesses`](crate::latency::DramModel::accesses).
    pub fn dram_model_accesses(&self) -> u64 {
        self.dram.channels.iter().map(|c| c.lock().accesses()).sum()
    }

    /// Shared-level statistics (L3/LLC/DRAM/DMA). Private L1/L2 counters live
    /// on each [`CoreBus`]; fold them in with [`HierarchyStats::absorb_core`].
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1_hits: 0,
            l2_hits: 0,
            l3_hits: self.stats.l3_hits.load(Ordering::Relaxed),
            llc_hits: self.stats.llc_hits.load(Ordering::Relaxed),
            dram_accesses: self.stats.dram_accesses.load(Ordering::Relaxed),
            stashed_lines: self.stats.stashed_lines.load(Ordering::Relaxed),
            dma_dram_lines: self.stats.dma_dram_lines.load(Ordering::Relaxed),
            prefetches_issued: 0,
            prefetch_hits: 0,
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
        }
    }

    /// How many delivered lines the held-above filter passed on to the slice and
    /// inbox snoops (see "What a delivery costs the host" in the module docs).
    pub fn delivery_stats(&self) -> DeliveryStats {
        // Every delivered line is counted once already, by the path it took.
        DeliveryStats {
            delivered_lines: self.stats.stashed_lines.load(Ordering::Relaxed)
                + self.stats.dma_dram_lines.load(Ordering::Relaxed),
            held_lines: self.llc.iter().map(|s| s.lock().held_delivered).sum(),
        }
    }

    /// Reset the shared-level statistics (cache contents are preserved).
    /// Per-core counters are reset by [`CoreBus::reset_stats`].
    pub fn reset_stats(&self) {
        self.stats.l3_hits.store(0, Ordering::Relaxed);
        self.stats.llc_hits.store(0, Ordering::Relaxed);
        self.stats.dram_accesses.store(0, Ordering::Relaxed);
        self.stats.stashed_lines.store(0, Ordering::Relaxed);
        self.stats.dma_dram_lines.store(0, Ordering::Relaxed);
        self.stats.writebacks.store(0, Ordering::Relaxed);
        for l3 in &self.l3 {
            l3.lock().reset_stats();
        }
        for stripe in &self.llc {
            let mut s = stripe.lock();
            s.cache.reset_stats();
            s.held_delivered = 0;
        }
    }

    /// Drop every shared-level line and post a full flush to every core's
    /// private caches.
    pub fn clear(&self) {
        for l3 in &self.l3 {
            l3.lock().clear();
        }
        for stripe in &self.llc {
            let mut s = stripe.lock();
            s.cache.clear();
            s.prefetched.clear();
        }
        for inbox in &self.invals {
            let mut pending = inbox.pending.lock();
            pending.held.clear();
            pending.lines = 0;
            pending.flush_all = true;
            inbox.flag.store(true, Ordering::Release);
        }
        self.reset_stats();
    }

    /// Check whether the line containing `addr` currently resides in the LLC.
    pub fn llc_contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        self.llc[Self::stripe_of(line)].lock().contains_line(line)
    }

    #[inline]
    fn stripe_of(line: u64) -> usize {
        (line as usize) % LLC_STRIPES
    }

    #[inline]
    fn lines_covering(&self, addr: u64, len: usize) -> (u64, u64) {
        let first = addr >> self.line_shift;
        // A range that wraps the address space (a jam computes addresses
        // freely) is charged up to the top line, never around to line 0.
        let last = addr.saturating_add(len.max(1) as u64 - 1) >> self.line_shift;
        (first, last)
    }

    /// Post the held lines of one chunk of a delivered run to every attached
    /// inbox — one lock round-trip per attached core per chunk, not per line.
    /// The run's first chunk carries `run_lines`, the *whole* run's line
    /// count: that is what an inbox holds against [`INVAL_INBOX_LIMIT`], held
    /// or not, and the flag goes up even when nothing is pushed — a core
    /// drains, and an inbox overflows, exactly where an unfiltered post would
    /// have made it.
    fn post_invalidations(&self, chunk: u64, masks: &[u64], run_lines: Option<u64>) {
        let attached = self
            .invals
            .iter()
            .filter(|inbox| inbox.attached.load(Ordering::SeqCst));
        for inbox in attached {
            let mut pending = inbox.pending.lock();
            if pending.charge(run_lines.unwrap_or(0)) {
                pending.held.extend(HeldLines::of_chunk(chunk, masks));
            }
            inbox.flag.store(true, Ordering::Release);
        }
    }

    /// Write `len` bytes arriving from the NIC DMA engine at `addr`: with
    /// stashing on the lines are installed into the LLC, otherwise written to
    /// DRAM, and either way every copy above them is stale. The L3 copies are
    /// evicted here, the private ones through the per-core inboxes. The
    /// returned time is the DMA engine's own, charged to the NIC timeline, not
    /// the receiving core. The covered lines are handled as one run, and only
    /// those a level above the LLC may hold are snooped (see the module docs).
    pub fn dma_write(&self, addr: u64, len: usize) -> SimTime {
        let (first, last) = self.lines_covering(addr, len);
        let count = last - first + 1;
        let stashing = self.stashing_enabled();
        // Counted before any inbox is read as attached or not: an inbox
        // attached meanwhile is charged this run or is posted it, or both.
        self.delivered_lines.fetch_add(count, Ordering::SeqCst);

        let mut victims = Vec::new();
        // A chunk of consecutive lines at a time, so the mask is a fixed buffer:
        // a stripe still sees its lines of the run in ascending order.
        for chunk in (first..=last).step_by(DELIVERY_CHUNK) {
            let end = last.min(chunk + DELIVERY_CHUNK as u64 - 1);
            let mut masks = [0u64; DELIVERY_CHUNK / 64];
            // Each stripe once: stripe `k`'s lines of the chunk are every
            // `LLC_STRIPES`-th line from the first one that maps to `k`.
            for start in chunk..=end.min(chunk + LLC_STRIPES as u64 - 1) {
                let mut stripe = self.llc[Self::stripe_of(start)].lock();
                for line in (start..=end).step_by(LLC_STRIPES) {
                    let line_held = if stashing {
                        let (line_held, victim) = stripe.deliver_line(line);
                        if let Some(victim) = victim {
                            // The displaced dirty line shares `line`'s stripe, so
                            // unfolding recovers it.
                            let victim_line =
                                victim * LLC_STRIPES as u64 + line % LLC_STRIPES as u64;
                            victims.push((line, victim_line));
                        }
                        line_held
                    } else {
                        stripe.drop_delivered_line(line)
                    };
                    let at = (line - chunk) as usize;
                    masks[at / 64] |= u64::from(line_held) << (at % 64);
                }
            }
            let masks = &masks[..((end - chunk) / 64 + 1) as usize];
            if masks.iter().any(|&mask| mask != 0) {
                for l3 in &self.l3 {
                    let mut l3 = l3.lock();
                    for held in HeldLines::of_chunk(chunk, masks) {
                        for line in held.lines() {
                            l3.evict_line(line);
                        }
                    }
                }
            }
            self.post_invalidations(chunk, masks, (chunk == first).then_some(count));
        }

        let mut cost = SimTime::ZERO;
        if stashing {
            // Write-backs in line order, each on its victim's own channel.
            victims.sort_unstable();
            for &(_, victim_line) in &victims {
                cost += self.dram_writeback(victim_line);
            }
            let writebacks = victims.len() as u64;
            self.stats
                .writebacks
                .fetch_add(writebacks, Ordering::Relaxed);
            self.stats.stashed_lines.fetch_add(count, Ordering::Relaxed);
            cost += self.cfg.latency.stash_install * count;
        } else {
            for line in first..=last {
                cost += self.dram_writeback(line);
            }
            self.stats
                .dma_dram_lines
                .fetch_add(count, Ordering::Relaxed);
        }
        cost
    }

    /// Warm the given range into the LLC (resident local-function libraries).
    pub fn warm_llc(&self, addr: u64, len: usize) {
        let (first, last) = self.lines_covering(addr, len);
        for line in first..=last {
            // `CoreBus::warm` fills L1/L2 right after, with no shared-level access.
            self.llc[Self::stripe_of(line)]
                .lock()
                .install_line(line, true);
        }
    }

    /// Install prefetched lines into the LLC in the background. Displaced dirty
    /// victims are charged to the shared write-back counter (the installs
    /// themselves happen off the demand path, exactly as in the monolithic
    /// model).
    fn install_prefetches(&self, lines: &[u64]) {
        let mut writebacks = 0;
        for &line in lines {
            let mut stripe = self.llc[Self::stripe_of(line)].lock();
            if stripe.install_line(line, false).is_some() {
                writebacks += 1;
            }
            stripe.prefetched.insert(LlcStripe::fold(line));
        }
        if writebacks > 0 {
            self.stats
                .writebacks
                .fetch_add(writebacks, Ordering::Relaxed);
        }
    }

    /// One shared-level demand access (the private levels already missed).
    fn access_line(&self, core: usize, line: u64, kind: AccessKind) -> SharedOutcome {
        let lat = self.cfg.latency;
        let cluster = self.cfg.cluster_of(core);
        let mut cost = SimTime::ZERO;

        // L3 (per-cluster slice, own mutex).
        {
            let mut l3 = self.l3[cluster].lock();
            let out = l3.access_line(line, kind);
            if out.hit {
                self.stats.l3_hits.fetch_add(1, Ordering::Relaxed);
                return SharedOutcome {
                    cost: cost + lat.l3_hit,
                    dram: false,
                    prefetch_hit: false,
                };
            }
            cost += lat.l3_hit;
            if out.dirty_victim.is_some() {
                cost += lat.writeback;
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }

        // LLC stripe.
        let (llc_hit, prefetch_hit, dirty_victim) = {
            let mut stripe = self.llc[Self::stripe_of(line)].lock();
            let out = stripe.access_line(line, kind);
            let folded = LlcStripe::fold(line);
            let pf = out.hit && stripe.prefetched.remove(&folded);
            if let Some(victim) = out.dirty_victim {
                stripe.prefetched.remove(&victim);
            }
            (out.hit, pf, out.dirty_victim)
        };
        if llc_hit {
            self.stats.llc_hits.fetch_add(1, Ordering::Relaxed);
            return SharedOutcome {
                cost: cost + lat.llc_hit,
                dram: false,
                prefetch_hit,
            };
        }
        cost += lat.llc_hit;

        // DRAM: per-channel mutexes keyed by line address. The dirty victim
        // (an LLC line from the same stripe as `line`) writes back on its own
        // channel; the demand fill charges `line`'s channel.
        if let Some(victim) = dirty_victim {
            let victim_line = victim * LLC_STRIPES as u64 + line % LLC_STRIPES as u64;
            cost += self.dram_writeback(victim_line);
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.dram_accesses.fetch_add(1, Ordering::Relaxed);
        cost += self.dram_line_access(line);
        SharedOutcome {
            cost,
            dram: true,
            prefetch_hit: false,
        }
    }
}

/// The per-core memory bus: private L1/L2 and prefetcher owned lock-free, with
/// misses escalated to the shared striped levels. Implements [`MemoryBus`], so
/// the jam VM and the dispatch engine charge every access through it.
#[derive(Debug)]
pub struct CoreBus {
    core: usize,
    l1: SetAssocCache,
    l2: SetAssocCache,
    prefetcher: StridePrefetcher,
    prefetch_gen_seen: u64,
    stats: CoreCacheStats,
    /// The buffer `drain_invalidations` trades with the inbox's: empty
    /// between drains, its capacity kept.
    inval_held: Vec<HeldLines>,
    shared: Arc<SharedHierarchy>,
}

impl CoreBus {
    /// The core this bus models.
    pub fn core(&self) -> usize {
        self.core
    }

    /// This core's private-cache counters.
    pub fn stats(&self) -> CoreCacheStats {
        self.stats
    }

    /// Zero this core's private-cache counters (cache contents preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CoreCacheStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Warm the given range into this core's private L1/L2 and the shared LLC
    /// (the sharded counterpart of the monolithic `warm_l2`).
    pub fn warm(&mut self, addr: u64, len: usize) {
        self.shared.warm_llc(addr, len);
        let (first, last) = self.shared.lines_covering(addr, len);
        for line in first..=last {
            self.l2.access_line(line, AccessKind::Read);
            self.l1.access_line(line, AccessKind::Read);
        }
    }

    /// Rebuild the prefetcher for the configuration generation `gen`, which
    /// [`MemoryBus::access`] just observed to be newer than this bus's.
    #[cold]
    #[inline(never)]
    fn rebuild_prefetcher(&mut self, gen: u64) {
        self.prefetch_gen_seen = gen;
        let mut cfg = self.shared.cfg.prefetch;
        cfg.enabled = self.shared.prefetching_enabled();
        self.prefetcher = StridePrefetcher::new(cfg);
    }

    /// Apply the pending DMA invalidations [`MemoryBus::access`] just saw
    /// flagged, before it touches the private levels.
    #[inline(never)]
    fn drain_invalidations(&mut self) {
        let inbox = &self.shared.invals[self.core];
        let flush_all = {
            let mut pending = inbox.pending.lock();
            inbox.flag.store(false, Ordering::Release);
            pending.lines = 0;
            // The inbox keeps filling the (empty) buffer this bus applied last
            // time: the two trade places, and neither is reallocated per put.
            std::mem::swap(&mut pending.held, &mut self.inval_held);
            std::mem::replace(&mut pending.flush_all, false)
        };
        if flush_all {
            self.l1.clear();
            self.l2.clear();
            self.prefetcher.reset();
            self.stats.invalidations_applied += 1;
            return;
        }
        for held in self.inval_held.drain(..) {
            for line in held.lines() {
                // Both levels are walked whatever the first one held; the counter
                // reflects every stale line actually dropped.
                let in_l1 = self.l1.evict_line(line).is_some();
                let in_l2 = self.l2.evict_line(line).is_some();
                self.stats.invalidations_applied += u64::from(in_l1 || in_l2);
            }
        }
    }

    /// Charge a single-line demand access: the L1 look-up here, everything an
    /// L1 miss sets off in [`CoreBus::miss_line`].
    #[inline(always)]
    fn access_line(&mut self, line: u64, kind: AccessKind) -> SimTime {
        // L1 (no lock).
        let out1 = self.l1.access_line(line, kind);
        if out1.hit {
            self.stats.l1_hits += 1;
            return self.shared.cfg.latency.l1_hit;
        }
        self.miss_line(line, kind, out1.dirty_victim.is_some())
    }

    /// The rest of a demand access that missed L1 (which has filled the line
    /// already, displacing a dirty victim or not): L2, then the shared levels.
    #[inline(never)]
    fn miss_line(&mut self, line: u64, kind: AccessKind, l1_dirty_victim: bool) -> SimTime {
        let lat = self.shared.cfg.latency;
        let mut cost = lat.l1_hit;
        if l1_dirty_victim {
            cost += lat.writeback;
            self.stats.writebacks += 1;
        }

        // L2 (no lock).
        let out2 = self.l2.access_line(line, kind);
        if out2.hit {
            self.stats.l2_hits += 1;
            return cost + lat.l2_hit;
        }
        cost += lat.l2_hit;
        if out2.dirty_victim.is_some() {
            cost += lat.writeback;
            self.stats.writebacks += 1;
        }

        // Shared levels (striped locks inside).
        let out = self.shared.access_line(self.core, line, kind);
        cost += out.cost;

        // Prefetcher training happens core-locally; installs go to the stripes.
        if out.prefetch_hit {
            self.stats.prefetch_hits += 1;
            // Keep the stream trained, exactly like the monolithic model.
            let issued = self.prefetcher.observe_miss(line);
            if !issued.is_empty() {
                self.stats.prefetches_issued += issued.len() as u64;
                self.shared.install_prefetches(&issued);
            }
        } else if out.dram {
            let issued = self.prefetcher.observe_miss(line);
            if !issued.is_empty() {
                self.stats.prefetches_issued += issued.len() as u64;
                self.shared.install_prefetches(&issued);
            }
        }
        cost
    }

    /// A demand access that covers more than one line, charged line by line.
    #[inline(never)]
    fn access_run(&mut self, first: u64, last: u64, kind: AccessKind) -> SimTime {
        let mut total = SimTime::ZERO;
        for line in first..=last {
            total += self.access_line(line, kind);
        }
        total
    }
}

impl MemoryBus for CoreBus {
    // `always`: the resolved executor charges the bus from a dozen places in
    // one loop, and with a plain hint every one of them stays a call.
    #[inline(always)]
    fn access(&mut self, core: usize, addr: u64, len: usize, kind: AccessKind) -> SimTime {
        debug_assert_eq!(
            core, self.core,
            "CoreBus for core {} charged an access attributed to core {core}",
            self.core
        );
        // Prefetcher reconfiguration (generation bump) and pending DMA
        // invalidations are observed at access boundaries — both, on every
        // access, before any private look-up.
        let gen = self.shared.prefetch_gen.load(Ordering::Acquire);
        if gen != self.prefetch_gen_seen {
            self.rebuild_prefetcher(gen);
        }
        if self.shared.invals[self.core].flag.load(Ordering::Acquire) {
            self.drain_invalidations();
        }
        let (first, last) = self.shared.lines_covering(addr, len);
        if first == last {
            self.access_line(first, kind)
        } else {
            self.access_run(first, last, kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::config::CacheLevelConfig;
    use rand::prelude::*;

    fn shared() -> Arc<SharedHierarchy> {
        Arc::new(SharedHierarchy::new(TestbedConfig::tiny_for_tests()))
    }

    #[test]
    fn private_hit_path_needs_no_shared_state() {
        let h = shared();
        let mut bus = h.core_bus(0);
        let cold = bus.access(0, 0x1000, 64, AccessKind::Read);
        let warm = bus.access(0, 0x1000, 64, AccessKind::Read);
        assert!(cold > warm);
        assert_eq!(bus.stats().l1_hits, 1);
        assert_eq!(h.stats().dram_accesses, 1);
    }

    #[test]
    fn dma_invalidation_reaches_private_caches_through_the_inbox() {
        let h = shared();
        h.set_stashing(true);
        let mut bus = h.core_bus(1);
        // Cache the line privately, then let DMA overwrite it.
        bus.access(1, 0x4000, 64, AccessKind::Read);
        bus.access(1, 0x4000, 64, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1);
        h.dma_write(0x4000, 64);
        // The next access must *not* be a private hit: the stale copy is gone
        // and the authoritative stashed copy is in the LLC.
        let before_llc = h.stats().llc_hits;
        bus.access(1, 0x4000, 64, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1, "no stale private hit");
        assert_eq!(h.stats().llc_hits, before_llc + 1);
        assert!(bus.stats().invalidations_applied >= 1);
    }

    #[test]
    fn one_byte_dma_invalidates_the_polling_core_like_a_frame_does() {
        // The §VI-A2 credit return is a one-byte put into the sender's flag
        // region: its DMA delivery must ride the same inbox contract as a
        // full inbound frame, even though the write is far below a cache
        // line. A core spinning on the flag word caches it privately; the
        // credit's delivery invalidates that line through the core's inbox,
        // and the poll that observes the token is the one that re-fetches
        // the freshly stashed line — which is exactly what the sender lane's
        // per-acquire bus charge models.
        let h = shared();
        h.set_stashing(true);
        let mut bus = h.core_bus(2);
        bus.access(2, 0x6000, 1, AccessKind::Read);
        bus.access(2, 0x6000, 1, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1, "the spin loop hits its own L1");
        let cost = h.dma_write(0x6000, 1);
        assert!(cost > SimTime::ZERO, "a sub-line DMA still installs a line");
        assert_eq!(h.stats().stashed_lines, 1);
        let before_llc = h.stats().llc_hits;
        bus.access(2, 0x6000, 1, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1, "no stale private hit on the token");
        assert_eq!(
            h.stats().llc_hits,
            before_llc + 1,
            "re-read finds the stash"
        );
        assert!(bus.stats().invalidations_applied >= 1);
    }

    #[test]
    fn unstashed_dma_forces_dram_on_every_core() {
        let h = shared();
        h.set_stashing(false);
        let mut a = h.core_bus(0);
        let mut b = h.core_bus(1);
        a.access(0, 0x2000, 64, AccessKind::Read);
        b.access(1, 0x2000, 64, AccessKind::Read);
        h.reset_stats();
        h.dma_write(0x2000, 64);
        a.access(0, 0x2000, 64, AccessKind::Read);
        b.access(1, 0x2000, 64, AccessKind::Read);
        // First re-toucher goes to DRAM; the second finds the refill upstream,
        // but neither sees a stale private copy.
        assert!(h.stats().dram_accesses >= 1);
        assert_eq!(h.stats().dma_dram_lines, 1);
    }

    #[test]
    fn dram_channels_spread_traffic_and_conserve_accesses() {
        let h = shared();
        let mut bus = h.core_bus(0);
        // 64 distinct lines -> every channel serves some fills, and the
        // aggregate model-access count matches the demand-fill counter (no
        // write traffic, so no write-backs inflate it).
        for i in 0..64u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert_eq!(h.dram_model_accesses(), h.stats().dram_accesses);
        assert_eq!(h.stats().dram_accesses, 64);
        let spread: Vec<u64> = h
            .dram
            .channels
            .iter()
            .map(|c| c.lock().accesses())
            .collect();
        assert_eq!(spread.len(), DRAM_CHANNELS);
        assert!(
            spread.iter().all(|&n| n > 0),
            "interleaved lines must touch every channel: {spread:?}"
        );
    }

    #[test]
    fn dram_channels_are_independently_lockable_under_threads() {
        // Four cores hammer disjoint DRAM-missing footprints concurrently;
        // totals must conserve (each access lands at exactly one level) and
        // the channel counters must sum to the shared demand counter plus the
        // write-backs the evictions generated.
        let h = shared();
        let buses: Vec<Mutex<CoreBus>> = (0..4).map(|c| Mutex::new(h.core_bus(c))).collect();
        std::thread::scope(|s| {
            for (c, slot) in buses.iter().enumerate() {
                s.spawn(move || {
                    let mut bus = slot.lock();
                    for i in 0..256u64 {
                        bus.access(c, (c as u64) << 24 | (i * 64), 64, AccessKind::Write);
                    }
                });
            }
        });
        // Each core touched 256 distinct cold lines: every one is a DRAM
        // demand fill, none may be lost or double-counted by the channel
        // split.
        assert_eq!(h.stats().dram_accesses, 4 * 256);
        let spread: Vec<u64> = h
            .dram
            .channels
            .iter()
            .map(|c| c.lock().accesses())
            .collect();
        assert!(
            spread.iter().all(|&n| n > 0),
            "every channel must have served traffic: {spread:?}"
        );
        assert!(
            h.dram_model_accesses() >= h.stats().dram_accesses,
            "channel totals cover at least the demand fills (plus write-backs)"
        );
    }

    #[test]
    fn llc_stripes_are_independently_lockable() {
        // Smoke the concurrency story: four threads, four cores, disjoint and
        // overlapping footprints; totals must conserve accesses.
        let h = shared();
        let buses: Vec<Mutex<CoreBus>> = (0..4).map(|c| Mutex::new(h.core_bus(c))).collect();
        std::thread::scope(|s| {
            for (c, slot) in buses.iter().enumerate() {
                s.spawn(move || {
                    let mut bus = slot.lock();
                    for i in 0..256u64 {
                        bus.access(c, (c as u64) << 20 | (i * 64), 64, AccessKind::Read);
                        bus.access(c, 0xF_0000 + i * 64, 8, AccessKind::Read);
                    }
                });
            }
        });
        let mut merged = h.stats();
        let mut private = 0;
        for slot in &buses {
            let bus = slot.lock();
            merged.absorb_core(&bus.stats());
            private += bus.stats().l1_hits + bus.stats().l2_hits;
        }
        let shared_level = merged.l3_hits + merged.llc_hits + merged.dram_accesses;
        assert_eq!(
            private + shared_level,
            4 * 512,
            "every access lands at exactly one level"
        );
    }

    #[test]
    fn warm_makes_local_library_private_hits() {
        let h = shared();
        let mut bus = h.core_bus(0);
        bus.warm(0x9000, 512);
        bus.reset_stats();
        h.reset_stats();
        bus.access(0, 0x9000, 512, AccessKind::Fetch);
        assert_eq!(h.stats().dram_accesses, 0);
        assert_eq!(bus.stats().l1_hits + bus.stats().l2_hits, 8);
    }

    #[test]
    fn clear_posts_full_flush() {
        let h = shared();
        let mut bus = h.core_bus(0);
        bus.access(0, 0, 64, AccessKind::Read);
        h.clear();
        h.reset_stats();
        bus.reset_stats();
        bus.access(0, 0, 64, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 0, "private copy was flushed");
        assert_eq!(h.stats().dram_accesses, 1);
    }

    #[test]
    fn prefetch_disable_before_bus_creation_is_honoured() {
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.prefetch.enabled = true;
        cfg.llc_stashing = false;
        let h = Arc::new(SharedHierarchy::new(cfg));
        // The toggle lands *before* the bus exists; the bus must still see it.
        h.set_prefetching(false);
        let mut bus = h.core_bus(0);
        for i in 0..64u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert_eq!(bus.stats().prefetches_issued, 0);
    }

    #[test]
    fn prefetch_generation_reset_is_observed() {
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.prefetch.enabled = true;
        cfg.llc_stashing = false;
        let h = Arc::new(SharedHierarchy::new(cfg));
        let mut bus = h.core_bus(0);
        for i in 0..64u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert!(bus.stats().prefetches_issued > 0);
        h.set_prefetching(false);
        bus.reset_stats();
        for i in 64..128u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert_eq!(
            bus.stats().prefetches_issued,
            0,
            "disabled prefetcher issues nothing"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_bounds_are_checked() {
        let h = shared();
        let _ = h.core_bus(99);
    }

    /// The line-by-line model the run-based [`SharedHierarchy::dma_write`] and
    /// inbox replaced, kept as the oracle: every delivered line takes its stripe
    /// and L3 locks on its own, in line order, and the inbox is a list of byte
    /// addresses drained by probing both private levels and then invalidating
    /// them. It never posts to the real inboxes, so its buses' own drain is idle,
    /// and it snoops every delivered line in every slice and both private levels:
    /// it goes to the stripes' caches directly and never reads a held-above flag.
    struct LineByLine {
        shared: Arc<SharedHierarchy>,
        buses: Vec<CoreBus>,
        /// Per core: pending line-aligned byte addresses, and the flush-all mark.
        inboxes: Vec<(Vec<u64>, bool)>,
    }

    impl LineByLine {
        fn new(cfg: TestbedConfig, cores: usize) -> Self {
            let shared = Arc::new(SharedHierarchy::new(cfg));
            LineByLine {
                buses: (0..cores).map(|c| shared.core_bus(c)).collect(),
                inboxes: vec![(Vec::new(), false); shared.num_cores()],
                shared,
            }
        }

        /// Start the next core's bus; its inbox has been filling all along.
        fn add_bus(&mut self) {
            self.buses.push(self.shared.core_bus(self.buses.len()));
        }

        fn clear(&mut self) {
            self.shared.clear();
            // The flush rides this model's inboxes, not the real ones.
            for inbox in &self.shared.invals {
                *inbox.pending.lock() = PendingInvals::default();
                inbox.flag.store(false, Ordering::Release);
            }
            self.inboxes.fill((Vec::new(), true));
        }

        fn dma_write(&mut self, addr: u64, len: usize) -> SimTime {
            let sh = &self.shared;
            let (first, last) = sh.lines_covering(addr, len);
            let mut cost = SimTime::ZERO;
            let stashing = sh.stashing_enabled();
            let mut delivered = Vec::new();
            for line in first..=last {
                let byte = line * sh.line_size() as u64;
                delivered.push(byte);
                if stashing {
                    let victim = sh.llc[SharedHierarchy::stripe_of(line)]
                        .lock()
                        .cache
                        .stash_line(LlcStripe::fold(line));
                    if let Some(victim) = victim {
                        let victim_line = victim * LLC_STRIPES as u64 + line % LLC_STRIPES as u64;
                        cost += sh.dram_writeback(victim_line);
                        sh.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                    }
                    sh.stats.stashed_lines.fetch_add(1, Ordering::Relaxed);
                    cost += sh.cfg.latency.stash_install;
                } else {
                    {
                        let mut stripe = sh.llc[SharedHierarchy::stripe_of(line)].lock();
                        stripe.cache.evict_line(LlcStripe::fold(line));
                        stripe.prefetched.remove(&LlcStripe::fold(line));
                    }
                    sh.stats.dma_dram_lines.fetch_add(1, Ordering::Relaxed);
                    cost += sh.dram_writeback(line);
                }
                for l3 in &sh.l3 {
                    l3.lock().invalidate(byte);
                }
            }
            for (lines, flush_all) in &mut self.inboxes {
                if !*flush_all {
                    if lines.len() + delivered.len() > INVAL_INBOX_LIMIT {
                        lines.clear();
                        *flush_all = true;
                    } else {
                        lines.extend_from_slice(&delivered);
                    }
                }
            }
            cost
        }

        fn access(&mut self, core: usize, addr: u64, len: usize, kind: AccessKind) -> SimTime {
            let bus = &mut self.buses[core];
            let (lines, flush_all) = std::mem::take(&mut self.inboxes[core]);
            if flush_all {
                bus.l1.clear();
                bus.l2.clear();
                bus.prefetcher.reset();
                bus.stats.invalidations_applied += 1;
            }
            for byte in lines {
                let present = bus.l1.contains(byte) || bus.l2.contains(byte);
                bus.l1.invalidate(byte);
                bus.l2.invalidate(byte);
                if present {
                    bus.stats.invalidations_applied += 1;
                }
            }
            bus.access(core, addr, len, kind)
        }
    }

    /// One step of a seeded interleaving: a delivery, an access or a warm-up from
    /// one of the cores that have a bus, or a clear, over a footprint small enough
    /// that deliveries overlap each other and the lines the cores hold, and larger
    /// than the tiny LLC.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Dma {
            addr: u64,
            len: usize,
        },
        Access {
            core: usize,
            addr: u64,
            len: usize,
            kind: AccessKind,
        },
        Warm {
            core: usize,
            addr: u64,
            len: usize,
        },
        Clear,
    }

    fn random_step(rng: &mut StdRng, cores: usize) -> Step {
        // Unaligned starts inside 64 KiB, half of them inside its first 4 KiB (lines
        // delivered again while the LLC still has them are what the filter is
        // about); lengths from one byte to 16 KiB, short ones most often.
        let window = if rng.gen::<bool>() { 0x1000 } else { 0x1_0000 };
        let addr = 0x10_0000 + rng.gen_range(0..window);
        let len = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(1..16 * 1024 + 1usize),
            1 => rng.gen_range(1..2048usize),
            _ => rng.gen_range(1..200usize),
        };
        let core = rng.gen_range(0..cores);
        match rng.gen_range(0..300u32) {
            0 => Step::Clear,
            1..=9 => Step::Warm {
                core,
                addr,
                len: len.min(1024),
            },
            10..=109 => Step::Dma { addr, len },
            _ => {
                let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Fetch]
                    [rng.gen_range(0..3usize)];
                Step::Access {
                    core,
                    addr,
                    len: len.min(1024),
                    kind,
                }
            }
        }
    }

    /// Everything observable about a hierarchy and its buses.
    fn observe(
        sh: &SharedHierarchy,
        buses: &[CoreBus],
    ) -> (
        HierarchyStats,
        Vec<CacheStats>,
        u64,
        Vec<CoreCacheStats>,
        Vec<bool>,
    ) {
        let resident = (0..0x1_0000u64 / 64 + 260)
            .map(|l| sh.llc_contains(0x10_0000 + l * 64))
            .collect();
        (
            sh.stats(),
            sh.llc.iter().map(|s| s.lock().cache.stats()).collect(),
            sh.dram_model_accesses(),
            buses.iter().map(CoreBus::stats).collect(),
            resident,
        )
    }

    /// The held-above invariant, slot by slot: a line in an LLC way whose flag is
    /// clear is in no L3 slice, and in no bus's L1 or L2 unless that core's inbox
    /// holds a posted, undrained word that covers it (or a flush-all).
    fn assert_held_above_invariant(sh: &SharedHierarchy, buses: &[CoreBus], what: &str) {
        for (k, stripe) in sh.llc.iter().enumerate() {
            let stripe = stripe.lock();
            for (folded, _) in stripe.cache.slots().flatten().filter(|way| !way.1) {
                let line = folded * LLC_STRIPES as u64 + k as u64;
                for (cluster, l3) in sh.l3.iter().enumerate() {
                    assert!(
                        !l3.lock().contains_line(line),
                        "{what}: line {line:#x} unheld in the LLC, held by L3 slice {cluster}"
                    );
                }
                for bus in buses {
                    let pending = sh.invals[bus.core].pending.lock();
                    let covered = pending.flush_all
                        || pending
                            .held
                            .iter()
                            .any(|held| held.lines().any(|l| l == line));
                    assert!(
                        covered || !(bus.l1.contains_line(line) || bus.l2.contains_line(line)),
                        "{what}: line {line:#x} unheld in the LLC, held by core {} with no \
                         invalidation pending",
                        bus.core
                    );
                }
            }
        }
    }

    #[test]
    fn run_delivery_matches_the_line_by_line_model() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cfg = TestbedConfig::tiny_for_tests();
            cfg.prefetch.enabled = seed % 2 == 0;
            // Cores 0 and 1 share an L3 slice (the second to ask hits it and never
            // reaches the LLC); core 2, alone under the other, gets its bus mid-run.
            let mut reference = LineByLine::new(cfg.clone(), 2);
            let sh = Arc::new(SharedHierarchy::new(cfg));
            let mut buses = vec![sh.core_bus(0), sh.core_bus(1)];
            let (mut delivered, mut held) = (0, 0);
            for step in 0..3000 {
                if step % 500 == 0 {
                    let stashing = rng.gen::<bool>();
                    sh.set_stashing(stashing);
                    reference.shared.set_stashing(stashing);
                }
                if step == 1000 {
                    buses.push(sh.core_bus(2));
                    reference.add_bus();
                }
                let what = random_step(&mut rng, buses.len());
                let (got, want) = match what {
                    Step::Dma { addr, len } => {
                        let before = sh.delivery_stats();
                        let cost = sh.dma_write(addr, len);
                        let after = sh.delivery_stats();
                        delivered += after.delivered_lines - before.delivered_lines;
                        held += after.held_lines - before.held_lines;
                        (cost, reference.dma_write(addr, len))
                    }
                    Step::Access {
                        core,
                        addr,
                        len,
                        kind,
                    } => (
                        buses[core].access(core, addr, len, kind),
                        reference.access(core, addr, len, kind),
                    ),
                    Step::Warm { core, addr, len } => {
                        // Behind an access by the same core, so nothing is pending
                        // in its inbox: see "Warm-ups" in the module docs.
                        let costs = (
                            buses[core].access(core, addr, 1, AccessKind::Read),
                            reference.access(core, addr, 1, AccessKind::Read),
                        );
                        buses[core].warm(addr, len);
                        reference.buses[core].warm(addr, len);
                        costs
                    }
                    Step::Clear => {
                        sh.clear();
                        reference.clear();
                        (SimTime::ZERO, SimTime::ZERO)
                    }
                };
                assert_eq!(got, want, "seed {seed} step {step}: cost of {what:?}");
                assert_held_above_invariant(&sh, &buses, &format!("seed {seed} step {step}"));
                if step % 50 == 0 {
                    assert_eq!(
                        observe(&sh, &buses),
                        observe(&reference.shared, &reference.buses),
                        "seed {seed} step {step}"
                    );
                }
            }
            assert_eq!(
                observe(&sh, &buses),
                observe(&reference.shared, &reference.buses),
                "seed {seed}"
            );
            assert!(buses.iter().all(|b| b.stats().invalidations_applied > 0));
            // Both sides of the filter saw traffic (most stashes here *fill*: the
            // footprint is five times the LLC).
            assert!(
                held > 1000 && delivered - held > 1000,
                "seed {seed}: {held} of {delivered} delivered lines held"
            );
        }
    }

    #[test]
    fn inbox_overflows_at_the_same_line_count_as_the_address_list_did() {
        // Exactly INVAL_INBOX_LIMIT pending lines are still dropped one by one;
        // one more degrades to the full flush, which counts as one invalidation
        // and also takes the untouched line 0x9000 with it.
        for (extra, flushed) in [(0usize, false), (1, true)] {
            let mut reference = LineByLine::new(TestbedConfig::tiny_for_tests(), 1);
            let sh = shared();
            let mut bus = sh.core_bus(0);
            for addr in [0x9000u64, 0x20_0000] {
                bus.access(0, addr, 64, AccessKind::Read);
                reference.access(0, addr, 64, AccessKind::Read);
            }
            // 2048 + 2047 lines, unaligned, then one line or two.
            let half = INVAL_INBOX_LIMIT / 2 * 64;
            for (addr, len) in [
                (0x20_0010u64, half - 64),
                (0x40_0010, half - 128),
                (0x60_0000, 64 + extra),
            ] {
                assert_eq!(sh.dma_write(addr, len), reference.dma_write(addr, len));
            }
            bus.access(0, 0x9000, 64, AccessKind::Read);
            reference.access(0, 0x9000, 64, AccessKind::Read);
            assert_eq!(bus.stats(), reference.buses[0].stats());
            assert_eq!(bus.stats().invalidations_applied, 1);
            assert_eq!(bus.stats().l1_hits, u64::from(!flushed));
        }
    }

    /// Deliver `INVAL_INBOX_LIMIT + extra` lines (2048 + 2047, then one line
    /// or two) to a hierarchy whose core 0 has a bus and reads a line first.
    fn deliver_to_the_limit(extra: usize) -> (Arc<SharedHierarchy>, CoreBus) {
        let h = shared();
        let mut bus = h.core_bus(0);
        bus.access(0, 0x9000, 64, AccessKind::Read);
        let half = INVAL_INBOX_LIMIT / 2 * 64;
        for (addr, len) in [
            (0x20_0010u64, half - 64),
            (0x40_0010, half - 128),
            (0x60_0000, 64 + extra),
        ] {
            h.dma_write(addr, len);
        }
        (h, bus)
    }

    #[test]
    fn a_bus_built_after_deliveries_overflows_where_a_posted_inbox_would() {
        for (extra, flushes) in [(0usize, 0u64), (1, 1)] {
            let (h, mut bus0) = deliver_to_the_limit(extra);
            // Core 0's inbox took every post; core 3's, with no bus, none.
            assert_eq!(h.invals[0].pending.lock().flush_all, extra > 0);
            assert!(!h.invals[3].flag.load(Ordering::Acquire));
            assert_eq!(h.invals[3].pending.lock().lines, 0);
            let mut bus3 = h.core_bus(3);
            bus3.access(3, 0x9000, 64, AccessKind::Read);
            assert_eq!(bus3.stats().invalidations_applied, flushes, "extra {extra}");
            bus0.access(0, 0x9000, 64, AccessKind::Read);
            assert_eq!(bus0.stats().invalidations_applied, flushes, "extra {extra}");
        }
    }

    #[test]
    fn an_inbox_stays_attached_when_its_bus_is_dropped() {
        let (h, _bus0) = deliver_to_the_limit(0);
        let mut bus3 = h.core_bus(3);
        bus3.access(3, 0x9000, 64, AccessKind::Read);
        assert_eq!(bus3.stats().invalidations_applied, 0);
        drop(bus3);
        // A later delivery is posted to the inbox, and a second bus for the
        // core is not charged the history again.
        h.dma_write(0x9000, 64);
        assert_eq!(h.invals[3].pending.lock().lines, 1);
        let mut bus3 = h.core_bus(3);
        bus3.access(3, 0x9000, 64, AccessKind::Read);
        assert_eq!(bus3.stats().invalidations_applied, 0);
        assert_eq!(h.invals[3].pending.lock().lines, 0);
    }

    #[test]
    fn an_inbox_counts_the_delivered_lines_nobody_holds() {
        // The same traffic, three times, over an LLC that keeps all of it: after
        // the first round no line is held and no run is pushed, and the inbox is
        // still drained at the core's next access and still overflows one line
        // past the limit — not a round later, when the counts would have added up.
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.caches.llc = CacheLevelConfig::new(1 << 20, 4, 64);
        for (extra, flushed) in [(0usize, false), (1, true)] {
            let mut reference = LineByLine::new(cfg.clone(), 1);
            let sh = Arc::new(SharedHierarchy::new(cfg.clone()));
            let mut bus = sh.core_bus(0);
            let read = |bus: &mut CoreBus, reference: &mut LineByLine, addr: u64| {
                bus.access(0, addr, 64, AccessKind::Read);
                reference.access(0, addr, 64, AccessKind::Read);
                assert_eq!(bus.stats(), reference.buses[0].stats());
                assert_held_above_invariant(&sh, std::slice::from_ref(bus), "after a read");
                bus.stats()
            };
            for addr in [0x9000u64, 0xA040, 0x20_0000] {
                read(&mut bus, &mut reference, addr);
            }
            let half = INVAL_INBOX_LIMIT / 2 * 64;
            for round in 0..3 {
                sh.reset_stats();
                for (addr, len) in [
                    (0x20_0010u64, half - 64),
                    (0x40_0010, half - 128),
                    (0x60_0000, 64 + extra),
                ] {
                    assert_eq!(sh.dma_write(addr, len), reference.dma_write(addr, len));
                }
                let stats = sh.delivery_stats();
                assert_eq!(stats.delivered_lines, (INVAL_INBOX_LIMIT + extra) as u64);
                let held = if round == 0 { stats.delivered_lines } else { 0 };
                assert_eq!(stats.held_lines, held, "round {round}");
                assert_eq!(sh.invals[0].pending.lock().flush_all, flushed);
                read(&mut bus, &mut reference, 0x9000);
            }
            // A flush left pending, or one too many, would take the bystander too.
            assert_eq!(sh.dma_write(0x9000, 64), reference.dma_write(0x9000, 64));
            read(&mut bus, &mut reference, 0x9000);
            let stats = read(&mut bus, &mut reference, 0xA040);
            assert_eq!(stats.invalidations_applied, if flushed { 4 } else { 2 });
            assert_eq!(stats.l1_hits, if flushed { 0 } else { 4 });
        }
    }

    /// Deliver the one line at `addr`, check the invariant, and say how many
    /// lines the filter passed on as held.
    fn held_by_delivery(h: &SharedHierarchy, bus: &CoreBus, addr: u64) -> u64 {
        let before = h.delivery_stats().held_lines;
        h.dma_write(addr, 64);
        assert_held_above_invariant(h, std::slice::from_ref(bus), "after a delivery");
        h.delivery_stats().held_lines - before
    }

    /// Whether the core's next read of the line at `addr` is a private hit.
    fn reads_privately(bus: &mut CoreBus, addr: u64) -> bool {
        let before = bus.stats();
        bus.access(bus.core, addr, 64, AccessKind::Read);
        let after = bus.stats();
        assert_held_above_invariant(&bus.shared, std::slice::from_ref(bus), "after a read");
        after.l1_hits + after.l2_hits > before.l1_hits + before.l2_hits
    }

    /// The address of a line that shares the tiny LLC's set with the line at
    /// `addr` (64 sets over the 8 stripes): four of them fill its four ways.
    fn llc_conflict(addr: u64, k: u64) -> u64 {
        addr + k * 64 * 64
    }

    const A: u64 = 0x4000;

    #[test]
    fn a_line_delivered_twice_is_snooped_once_and_its_stale_copy_still_goes() {
        let h = shared();
        let mut bus = h.core_bus(0);
        assert!(!reads_privately(&mut bus, A) && reads_privately(&mut bus, A));
        assert_eq!(held_by_delivery(&h, &bus, A), 1, "the core holds it");
        assert_eq!(held_by_delivery(&h, &bus, A), 0, "nobody touched it since");
        assert!(
            !reads_privately(&mut bus, A),
            "the first delivery's run still takes the stale copy"
        );
        assert_eq!(bus.stats().invalidations_applied, 1);
        assert_eq!(h.stats().stashed_lines, 2);
    }

    #[test]
    fn a_line_the_llc_lost_while_l1_kept_it_is_snooped_when_redelivered() {
        let h = shared();
        let mut bus = h.core_bus(0);
        reads_privately(&mut bus, A);
        // Deliveries touch no private cache but those of the lines they cover.
        for k in 1..=4 {
            h.dma_write(llc_conflict(A, k), 64);
        }
        assert!(!h.llc_contains(A) && reads_privately(&mut bus, A));
        assert_eq!(
            held_by_delivery(&h, &bus, A),
            1,
            "a stash that fills always snoops"
        );
        assert!(!reads_privately(&mut bus, A));
    }

    #[test]
    fn a_prefetch_installed_line_is_snooped_when_delivered() {
        let h = shared();
        let mut bus = h.core_bus(0);
        reads_privately(&mut bus, A);
        for k in 1..=4 {
            h.dma_write(llc_conflict(A, k), 64);
        }
        // The prefetch fills a way whose flag a delivery left clear, with a line
        // the core has held since before the LLC lost it.
        assert!(!h.llc_contains(A));
        h.install_prefetches(&[A / 64]);
        assert!(h.llc_contains(A));
        assert_eq!(held_by_delivery(&h, &bus, A), 1);
        assert!(!reads_privately(&mut bus, A));
        // Over a line the LLC tracks a prefetch fills nothing above it.
        assert_eq!(held_by_delivery(&h, &bus, A), 1, "the core read it");
        h.install_prefetches(&[A / 64]);
        assert_eq!(held_by_delivery(&h, &bus, A), 0);
    }

    #[test]
    fn a_warmed_line_is_snooped_when_delivered() {
        let h = shared();
        let mut bus = h.core_bus(0);
        assert_eq!(held_by_delivery(&h, &bus, A), 1, "cold: the stash fills");
        assert_eq!(held_by_delivery(&h, &bus, A), 0, "tracked and unread");
        // Drained, the core warms a line the LLC tracks with a clear flag.
        reads_privately(&mut bus, 0x9000);
        bus.warm(A, 64);
        assert!(reads_privately(&mut bus, A));
        assert_eq!(
            held_by_delivery(&h, &bus, A),
            1,
            "the warm-up filled L1/L2 without a shared-level access"
        );
        assert!(!reads_privately(&mut bus, A));
    }

    #[test]
    fn a_warm_up_behind_an_unposted_delivery_keeps_its_lines() {
        // The one place the filter shows ("Warm-ups" in the module docs): a run
        // posted for every delivered line, held or not, took this copy at the
        // core's next access although it is the delivered data.
        let h = shared();
        let mut bus = h.core_bus(0);
        h.dma_write(A, 64);
        reads_privately(&mut bus, 0x9000);
        assert_eq!(held_by_delivery(&h, &bus, A), 0);
        bus.warm(A, 64);
        assert!(reads_privately(&mut bus, A));
        assert_eq!(bus.stats().invalidations_applied, 0);
    }

    #[test]
    fn the_flag_follows_a_line_across_the_stashing_toggle() {
        let h = shared();
        let mut bus = h.core_bus(0);
        h.set_stashing(true);
        assert_eq!(held_by_delivery(&h, &bus, A), 1, "cold: the stash fills");
        assert!(!reads_privately(&mut bus, A));
        h.set_stashing(false);
        assert_eq!(held_by_delivery(&h, &bus, A), 1, "tracked, and read since");
        assert!(!h.llc_contains(A) && !reads_privately(&mut bus, A));
        assert_eq!(h.stats().dram_accesses, 1, "re-read from DRAM");

        h.set_stashing(true);
        assert_eq!(held_by_delivery(&h, &bus, A), 1);
        h.set_stashing(false);
        assert_eq!(
            held_by_delivery(&h, &bus, A),
            0,
            "tracked and unread: it leaves the LLC unsnooped"
        );
        assert!(!h.llc_contains(A));
        assert_eq!(
            held_by_delivery(&h, &bus, A),
            1,
            "a line the LLC does not track may be held anywhere"
        );
        assert!(!reads_privately(&mut bus, A));
    }

    #[test]
    fn a_run_longer_than_the_mask_is_delivered_a_chunk_at_a_time() {
        // An LLC that keeps a 1 200-line run (two chunk boundaries), and lines
        // held on both sides of a mask word's edge and of each chunk's; the run
        // starts mid-line, and its words do not start on multiples of 64.
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.caches.llc = CacheLevelConfig::new(256 * 1024, 4, 64);
        let (base, len) = (0x10_0170u64, 1200 * 64 - 0x30);
        let read = [0u64, 63, 64, 65, 510, 511, 512, 513, 1023, 1024, 1199];
        for stashing in [true, false] {
            let mut reference = LineByLine::new(cfg.clone(), 1);
            let sh = Arc::new(SharedHierarchy::new(cfg.clone()));
            let mut buses = vec![sh.core_bus(0)];
            for round in 0..3 {
                // The last round takes the other path, over lines the LLC tracks.
                let stash_now = stashing == (round < 2);
                sh.set_stashing(stash_now);
                reference.shared.set_stashing(stash_now);
                sh.reset_stats();
                reference.shared.reset_stats();
                assert_eq!(sh.dma_write(base, len), reference.dma_write(base, len));
                assert_held_above_invariant(&sh, &buses, "after the run");
                let held: Vec<u64> = if round == 0 || !stashing {
                    // A stash that fills and a line the LLC does not track: held.
                    (0..1200).collect()
                } else {
                    read.to_vec()
                };
                let posted: Vec<u64> = sh.invals[0]
                    .pending
                    .lock()
                    .held
                    .iter()
                    .flat_map(|held| held.lines())
                    .map(|line| line - base / 64)
                    .collect();
                assert_eq!(posted, held, "round {round}");
                assert_eq!(sh.invals[0].pending.lock().lines, 1200);
                assert_eq!(
                    sh.delivery_stats(),
                    DeliveryStats {
                        delivered_lines: 1200,
                        held_lines: held.len() as u64,
                    }
                );
                for at in read {
                    let addr = (base / 64 + at) * 64;
                    assert_eq!(
                        buses[0].access(0, addr, 64, AccessKind::Write),
                        reference.access(0, addr, 64, AccessKind::Write),
                        "round {round} line {at}"
                    );
                }
                assert_eq!(
                    observe(&sh, &buses),
                    observe(&reference.shared, &reference.buses),
                    "stashing {stashing} round {round}"
                );
            }
        }
    }

    #[test]
    fn delivery_stats_count_what_the_receiver_read() {
        // 64 mailboxes of 24 lines in the paper's geometry, whose LLC holds them
        // all; a warm receiver reads a frame's first three lines (`warm_stream`),
        // a summing one reads them all (`payload_sum`).
        const FRAMES: u64 = 64;
        const LINES: u64 = 24;
        let frame = |i: u64| 0x1_0000_0000 + i * LINES * 64;
        for read_lines in [3, LINES] {
            let h = Arc::new(SharedHierarchy::new(TestbedConfig::cluster2021()));
            let mut bus = h.core_bus(0);
            for round in 0..3 {
                h.reset_stats();
                assert_eq!(h.delivery_stats(), DeliveryStats::default());
                for i in 0..FRAMES {
                    h.dma_write(frame(i), (LINES * 64) as usize);
                }
                // Cold, every stash fills; after that, what was read is held.
                let held = if round == 0 { LINES } else { read_lines };
                assert_eq!(
                    h.delivery_stats(),
                    DeliveryStats {
                        delivered_lines: FRAMES * LINES,
                        held_lines: FRAMES * held,
                    },
                    "{read_lines} lines read, round {round}"
                );
                for i in 0..FRAMES {
                    bus.access(0, frame(i), (read_lines * 64) as usize, AccessKind::Read);
                }
            }
        }
    }
}
