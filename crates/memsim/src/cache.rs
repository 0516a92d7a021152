//! Generic set-associative cache with true-LRU replacement.
//!
//! The cache tracks *tags only*; data contents live in the real process memory that
//! the runtime operates on. That is all the timing model needs: whether a line is
//! present at a level, whether it is dirty, and which line a fill evicts.

use crate::config::CacheLevelConfig;

/// What kind of access is being performed. Instruction fetches are distinguished from
/// data reads only for statistics; the paper's platform stashes both code and data
/// into the same LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch (the injected function code path).
    Fetch,
}

impl AccessKind {
    /// True for accesses that mark the line dirty.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Result of a lookup+fill operation on one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Whether the line was already present (hit).
    pub hit: bool,
    /// If a fill evicted a dirty victim, its line address (unit: line index, i.e.
    /// byte address / line size).
    pub dirty_victim: Option<u64>,
}

/// Tag of a way that holds no line. Line indices are byte addresses shifted right
/// by the line size, so no real line reaches it.
const EMPTY: u64 = u64::MAX;

/// The bits of a way's state byte.
const DIRTY: u8 = 1;
const MARKED: u8 = 2;

/// Per-level hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty evictions (write-backs generated).
    pub writebacks: u64,
    /// Number of lines installed through the stash port rather than demand fills.
    pub stashed_lines: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in \[0,1\]; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache model (tags only).
///
/// Way `w` of set `s` is index `s * ways_per_set + w` of three parallel arrays, so a
/// lookup scans one contiguous run of tags; stamps and dirty bits are touched only
/// on a hit or a fill. That index is the way's *slot*: below
/// [`CacheLevelConfig::lines`], and a line's for as long as it stays resident.
///
/// Each way also carries a *mark*: one bit kept for the cache's owner (the LLC
/// stripes' held-above flag) in the byte that holds the dirty bit, so that reading
/// or writing it right after a touch of the same way costs no memory access of its
/// own. A fill leaves its way unmarked and an eviction clears the mark; between the
/// two only [`SetAssocCache::set_marked`] changes it, on the slot that the `*_slot`
/// form of an operation reports.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheLevelConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two and the index is a mask of
    /// the line; `None` when it is the remainder.
    set_mask: Option<usize>,
    ways_per_set: usize,
    line_shift: u32,
    /// Line index held by each way, [`EMPTY`] if none.
    tags: Vec<u64>,
    /// LRU timestamps: larger = more recently used.
    stamps: Vec<u64>,
    /// [`DIRTY`] and [`MARKED`] of each way.
    bits: Vec<u8>,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        let ways_per_set = cfg.ways;
        assert!(
            cfg.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        SetAssocCache {
            cfg,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            ways_per_set,
            line_shift: cfg.line_size.trailing_zeros(),
            tags: vec![EMPTY; sets * ways_per_set],
            stamps: vec![0; sets * ways_per_set],
            bits: vec![0; sets * ways_per_set],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheLevelConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics without touching cache contents (used between benchmark
    /// warm-up and measurement phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drop all lines and statistics.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.bits.fill(0);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The ways of the set `line` maps to, as a range of the parallel arrays.
    #[inline]
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let set = match self.set_mask {
            Some(mask) => line as usize & mask,
            None => line as usize % self.sets,
        };
        set * self.ways_per_set..(set + 1) * self.ways_per_set
    }

    /// Probe for the line containing `addr` without changing LRU state or stats.
    pub fn contains(&self, addr: u64) -> bool {
        self.contains_line(self.line_of(addr))
    }

    /// [`SetAssocCache::contains`] by pre-computed line index.
    pub fn contains_line(&self, line: u64) -> bool {
        self.tags[self.set_of(line)].contains(&line)
    }

    /// Look `line` up and fill it on a miss. Returns whether it hit, the dirty
    /// victim a fill evicted and the slot that holds the line now. The hit — one
    /// scan of the set's tags — is inlined into every caller (`always`: as a hint
    /// it is ignored in the per-line loops); the fill is a call.
    #[inline(always)]
    fn touch(&mut self, line: u64, mark_dirty: bool) -> (FillOutcome, usize) {
        debug_assert_ne!(line, EMPTY, "line index collides with the empty tag");
        self.tick += 1;
        let set = self.set_of(line);
        if let Some(way) = self.tags[set.clone()].iter().position(|&t| t == line) {
            let idx = set.start + way;
            self.stamps[idx] = self.tick;
            self.bits[idx] |= u8::from(mark_dirty) * DIRTY;
            let hit = FillOutcome {
                hit: true,
                dirty_victim: None,
            };
            return (hit, idx);
        }
        self.fill(set, line, mark_dirty)
    }

    /// Install `line`, which `set` does not hold, stamped with the current tick:
    /// in the first invalid way, otherwise over the LRU victim (the smallest
    /// stamp, the first on ties).
    #[inline(never)]
    fn fill(
        &mut self,
        set: std::ops::Range<usize>,
        line: u64,
        mark_dirty: bool,
    ) -> (FillOutcome, usize) {
        let tags = &self.tags[set.clone()];
        let way = tags.iter().position(|&t| t == EMPTY).unwrap_or_else(|| {
            let stamps = &self.stamps[set.clone()];
            (0..stamps.len())
                .min_by_key(|&way| stamps[way])
                .expect("set has at least one way")
        });
        let idx = set.start + way;
        let dirty_victim =
            (self.tags[idx] != EMPTY && self.bits[idx] & DIRTY != 0).then_some(self.tags[idx]);
        self.tags[idx] = line;
        self.stamps[idx] = self.tick;
        self.bits[idx] = u8::from(mark_dirty) * DIRTY;
        if dirty_victim.is_some() {
            self.stats.writebacks += 1;
        }
        let filled = FillOutcome {
            hit: false,
            dirty_victim,
        };
        (filled, idx)
    }

    /// Access the line containing `addr`. On a miss the line is filled (allocate on
    /// read and write); the outcome reports whether a dirty victim was evicted so the
    /// caller can charge a write-back.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> FillOutcome {
        let line = self.line_of(addr);
        self.access_line(line, kind)
    }

    /// Access by pre-computed line index (byte address / line size).
    #[inline(always)]
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> FillOutcome {
        self.access_line_slot(line, kind).0
    }

    /// [`SetAssocCache::access_line`], also reporting the slot that holds `line` now.
    #[inline(always)]
    pub fn access_line_slot(&mut self, line: u64, kind: AccessKind) -> (FillOutcome, usize) {
        let (out, slot) = self.touch(line, kind.is_write());
        if out.hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        (out, slot)
    }

    /// Install a line without it being a demand access — the *stash port*. The line is
    /// installed clean-from-the-core's-perspective but marked dirty, because stashed
    /// data arrived from the device and has not been written back to DRAM yet (the
    /// paper notes stashed traffic is "eventually written back to the main memory").
    /// A line already tracked is refreshed: the device overwrote it.
    ///
    /// Returns the dirty victim line if one had to be evicted.
    pub fn stash_line(&mut self, line: u64) -> Option<u64> {
        self.stash_line_slot(line).0.dirty_victim
    }

    /// [`SetAssocCache::stash_line`], also reporting whether the line was already
    /// tracked (`hit`) and the slot that holds it now.
    #[inline]
    pub fn stash_line_slot(&mut self, line: u64) -> (FillOutcome, usize) {
        self.stats.stashed_lines += 1;
        self.touch(line, true)
    }

    /// Invalidate the line containing `addr` if present; returns true if it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        self.evict_line(self.line_of(addr)) == Some(true)
    }

    /// Drop `line` (a pre-computed line index) if present; reports whether it was
    /// dirty, or `None` if the cache did not hold it.
    pub fn evict_line(&mut self, line: u64) -> Option<bool> {
        self.evict_line_marked(line).map(|(dirty, _)| dirty)
    }

    /// [`SetAssocCache::evict_line`], also reporting whether the way the line just
    /// left was marked.
    #[inline]
    pub fn evict_line_marked(&mut self, line: u64) -> Option<(bool, bool)> {
        let set = self.set_of(line);
        let way = self.tags[set.clone()].iter().position(|&t| t == line)?;
        let idx = set.start + way;
        self.tags[idx] = EMPTY;
        let bits = std::mem::take(&mut self.bits[idx]);
        Some((bits & DIRTY != 0, bits & MARKED != 0))
    }

    /// Whether the way at `slot` is marked.
    #[inline]
    pub fn marked(&self, slot: usize) -> bool {
        self.bits[slot] & MARKED != 0
    }

    /// Mark or unmark the way at `slot`, which holds a line.
    #[inline]
    pub fn set_marked(&mut self, slot: usize, marked: bool) {
        debug_assert_ne!(self.tags[slot], EMPTY, "marking an empty way");
        if marked {
            self.bits[slot] |= MARKED;
        } else {
            self.bits[slot] &= !MARKED;
        }
    }

    /// The line held by each slot and whether it is marked; `None` for an empty way.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> impl Iterator<Item = Option<(u64, bool)>> + '_ {
        let ways = self.tags.iter().zip(&self.bits);
        ways.map(|(&t, &bits)| {
            assert!(t != EMPTY || bits == 0, "an empty way keeps no state");
            (t != EMPTY).then_some((t, bits & MARKED != 0))
        })
    }

    /// Number of valid lines currently resident (for tests and introspection).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.cfg.line_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevelConfig;
    use rand::prelude::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512B
        SetAssocCache::new(CacheLevelConfig::new(512, 2, 64))
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000, AccessKind::Read).hit);
        assert!(c.access(0x1000, AccessKind::Read).hit);
        assert!(
            c.access(0x103F, AccessKind::Read).hit,
            "same line, different byte"
        );
        assert!(!c.access(0x1040, AccessKind::Read).hit, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set count = 4, so stride of 4 lines).
        let a = 0u64;
        let b = 4 * 64u64;
        let d = 8 * 64u64;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        // Touch `a` so `b` becomes LRU.
        c.access(a, AccessKind::Read);
        c.access(d, AccessKind::Read); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = small_cache();
        let a = 0u64;
        let b = 4 * 64u64;
        let d = 8 * 64u64;
        c.access(a, AccessKind::Write);
        c.access(b, AccessKind::Read);
        let out = c.access(d, AccessKind::Read); // evicts a (dirty)
        assert_eq!(out.dirty_victim, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stash_installs_dirty_lines() {
        let mut c = small_cache();
        assert_eq!(c.stash_line(7), None);
        assert!(c.contains(7 * 64));
        assert_eq!(c.stats().stashed_lines, 1);
        // A later demand read of a stashed line is a hit.
        assert!(c.access(7 * 64, AccessKind::Read).hit);
        // Evicting it produces a write-back because stashed lines are dirty.
        let set_stride = 4u64;
        c.stash_line(7 + set_stride);
        let victim = c.stash_line(7 + 2 * set_stride);
        assert_eq!(victim, Some(7));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.access(0x80, AccessKind::Write);
        assert!(c.contains(0x80));
        assert!(c.invalidate(0x80), "dirty line invalidation reports dirty");
        assert!(!c.contains(0x80));
        assert!(!c.invalidate(0x80), "second invalidation is a no-op");
    }

    #[test]
    fn victim_is_an_invalid_way_first_then_the_oldest_stamp() {
        // 4 sets (index masked) and 3 sets (index by remainder), 3 ways each.
        for sets in [4u64, 3] {
            let mut c = SetAssocCache::new(CacheLevelConfig::new(sets as usize * 3 * 64, 3, 64));
            // Five lines of set 1; the neighbouring sets hold a dirty line each
            // that nothing below may disturb.
            let [a, b, d, e, f] = [0, 1, 2, 3, 4].map(|k| 1 + k * sets);
            c.access_line(0, AccessKind::Write);
            c.access_line(2, AccessKind::Write);
            for line in [a, b, d] {
                assert_eq!(c.access_line(line, AccessKind::Write).dirty_victim, None);
            }
            // A hit refreshes `a`, so the full set gives up `b`, its oldest.
            assert!(c.access_line(a, AccessKind::Read).hit);
            assert_eq!(c.access_line(e, AccessKind::Read).dirty_victim, Some(b));
            // A freed way is refilled before any valid line is displaced, however
            // old: `d` is now the oldest and survives the next fill.
            assert_eq!(c.evict_line(a), Some(true));
            assert_eq!(c.evict_line(a), None);
            assert_eq!(c.stash_line(f), None);
            assert!(c.contains_line(d) && c.contains_line(e) && !c.contains_line(a));
            // With the set full again the oldest goes: `d`, then `e` (clean).
            assert_eq!(c.stash_line(a), Some(d));
            assert_eq!(c.stash_line(b), None);
            assert!(!c.contains_line(e));
            assert!(c.contains_line(0) && c.contains_line(2), "{sets} sets");
            assert_eq!(c.resident_lines(), 5);
        }
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut c = small_cache();
        c.access(0, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.contains(0));
        c.clear();
        assert!(!c.contains(0));
    }

    #[test]
    fn hit_rate_math() {
        let mut c = small_cache();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        let s = c.stats();
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bound_respected() {
        let mut c = small_cache(); // 8 lines total
        for i in 0..32u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert!(c.resident_lines() <= 8);
        assert_eq!(c.resident_lines(), 8);
    }

    /// The cache as one list of `(tag, stamp, dirty)` per set, valid lines only:
    /// the model [`SetAssocCache`] is held to, sharing none of its code. Valid
    /// lines never tie on a stamp, so which way a line sits in cannot show.
    struct NaiveCache {
        sets: Vec<Vec<(u64, u64, bool)>>,
        ways: usize,
        tick: u64,
        stats: CacheStats,
    }

    impl NaiveCache {
        fn new(sets: usize, ways: usize) -> Self {
            NaiveCache {
                sets: vec![Vec::new(); sets],
                ways,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_mut(&mut self, line: u64) -> &mut Vec<(u64, u64, bool)> {
            let set = line % self.sets.len() as u64;
            &mut self.sets[set as usize]
        }

        fn touch(&mut self, line: u64, mark_dirty: bool) -> FillOutcome {
            self.tick += 1;
            let (tick, ways) = (self.tick, self.ways);
            let set = self.set_mut(line);
            if let Some(entry) = set.iter_mut().find(|e| e.0 == line) {
                entry.1 = tick;
                entry.2 |= mark_dirty;
                return FillOutcome {
                    hit: true,
                    dirty_victim: None,
                };
            }
            let mut dirty_victim = None;
            if set.len() == ways {
                let oldest = (0..ways).min_by_key(|&i| set[i].1).unwrap();
                let (tag, _, dirty) = set.remove(oldest);
                dirty_victim = dirty.then_some(tag);
            }
            set.push((line, tick, mark_dirty));
            self.stats.writebacks += u64::from(dirty_victim.is_some());
            FillOutcome {
                hit: false,
                dirty_victim,
            }
        }

        fn access_line(&mut self, line: u64, kind: AccessKind) -> FillOutcome {
            let out = self.touch(line, kind == AccessKind::Write);
            if out.hit {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            out
        }

        fn stash_line(&mut self, line: u64) -> Option<u64> {
            self.stats.stashed_lines += 1;
            self.touch(line, true).dirty_victim
        }

        fn evict_line(&mut self, line: u64) -> Option<bool> {
            let set = self.set_mut(line);
            let at = set.iter().position(|e| e.0 == line)?;
            Some(set.remove(at).2)
        }

        fn clear(&mut self) {
            *self = NaiveCache::new(self.sets.len(), self.ways);
        }

        fn contains_line(&self, line: u64) -> bool {
            self.sets[(line % self.sets.len() as u64) as usize]
                .iter()
                .any(|e| e.0 == line)
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    #[test]
    fn random_operations_match_a_naive_model() {
        // (sets, ways): masked and remainder set indices, narrow and wide sets.
        for (sets, ways) in [(4usize, 2usize), (3, 3), (8, 4), (2, 16)] {
            let footprint = 4 * (sets * ways) as u64;
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut cache =
                    SetAssocCache::new(CacheLevelConfig::new(sets * ways * 64, ways, 64));
                let mut naive = NaiveCache::new(sets, ways);
                // The lines the test has marked and the cache still holds.
                let mut marked = std::collections::HashSet::new();
                let (mut hits, mut dirty_victims) = (0, 0);
                for step in 0..5000 {
                    let line = rng.gen_range(0..footprint);
                    let what = format!("{sets}x{ways} seed {seed} step {step} line {line}");
                    match rng.gen_range(0..1000u32) {
                        0..=599 => {
                            let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Fetch]
                                [rng.gen_range(0..3usize)];
                            let (out, slot) = cache.access_line_slot(line, kind);
                            assert_eq!(out, naive.access_line(line, kind), "{what} {kind:?}");
                            let mark = rng.gen::<bool>();
                            cache.set_marked(slot, mark);
                            assert_eq!(cache.marked(slot), mark);
                            if mark {
                                marked.insert(line);
                            } else {
                                marked.remove(&line);
                            }
                            hits += u32::from(out.hit);
                            dirty_victims += u32::from(out.dirty_victim.is_some());
                        }
                        600..=799 => {
                            let resident = naive.contains_line(line);
                            let (out, slot) = cache.stash_line_slot(line);
                            let victim = out.dirty_victim;
                            assert_eq!(victim, naive.stash_line(line), "{what}");
                            assert_eq!(out.hit, resident, "{what}");
                            // A stash keeps the mark of a line it finds; a fill has none.
                            assert_eq!(cache.marked(slot), marked.contains(&line), "{what}");
                            dirty_victims += u32::from(victim.is_some());
                        }
                        800..=997 => {
                            let evicted = cache.evict_line_marked(line);
                            assert_eq!(evicted.map(|e| e.0), naive.evict_line(line), "{what}");
                            assert_eq!(evicted.map(|e| e.1), evicted.map(|_| marked.remove(&line)));
                        }
                        _ => {
                            cache.clear();
                            naive.clear();
                        }
                    }
                    for l in 0..footprint {
                        assert_eq!(
                            cache.contains_line(l),
                            naive.contains_line(l),
                            "{what}: {l}"
                        );
                    }
                    // A mark goes with its line, wherever a fill or an eviction took it.
                    marked.retain(|&l| naive.contains_line(l));
                    let held: Vec<(u64, bool)> = cache.slots().flatten().collect();
                    assert_eq!(held.len(), naive.resident_lines(), "{what}");
                    for (l, mark) in held {
                        assert_eq!(mark, marked.contains(&l), "{what}: mark of {l}");
                    }
                    assert_eq!(cache.resident_lines(), naive.resident_lines(), "{what}");
                    assert_eq!(cache.stats(), naive.stats, "{what}");
                }
                assert!(
                    hits > 100 && dirty_victims > 100,
                    "{sets}x{ways} seed {seed}"
                );
            }
        }
    }
}
