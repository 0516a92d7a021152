//! The receiver's shared injection caches: decoded programs, parsed sender GOT
//! images and locally re-resolved GOT images, behind one lock so any number of
//! [`ReceiverShard`](super::shard::ReceiverShard)s can share them through an `Arc`.
//!
//! # Eviction policy: segmented LRU
//!
//! Cache keys are derived from sender-controlled content, so an adversarial sender
//! churning its code or GOT image per message must not be able to grow receiver
//! memory without bound. Earlier revisions handled this with clear-on-full (cap
//! 1024, drop everything), which also evicted the hot working set and made the
//! next message per element pay a full decode. The policy is now *segmented
//! LRU-ish*, sized by the same [`MAX_INJECTION_CACHE_ENTRIES`] cap:
//!
//! * Every entry lives in one of two segments: **probation** (where inserts land)
//!   or **protected** (where entries are promoted on their first hit). The
//!   protected segment is capped at 4/5 of the capacity; promoting past that cap
//!   demotes the coldest protected entry back to probation.
//! * A logical tick is bumped on every lookup/insert and stamped on the touched
//!   entry, so "coldest" means least-recently-used in tick order.
//! * When the cache is full, the *coldest probation* entry is evicted first; only
//!   if probation is empty does the coldest protected entry go. One insert evicts
//!   at most one entry — churn traffic cycles through probation while the
//!   steady-state working set (entries that have hit at least once) stays
//!   protected.
//!
//! Evictions are counted per cache and surfaced through
//! [`RuntimeStats::injected_code_cache_evictions`](crate::stats::RuntimeStats::injected_code_cache_evictions)
//! and [`RuntimeStats::got_cache_evictions`](crate::stats::RuntimeStats::got_cache_evictions):
//! a nonzero eviction rate with a high miss rate is the signature of a churning
//! (or adversarial) sender.
//!
//! Hits are still byte-compared against the stored content: the 64-bit content
//! hash in the key is not collision-proof, so a candidate whose bytes differ is
//! treated as a miss and re-decoded (replacing the entry).

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use parking_lot::Mutex;
use twochains_jamvm::{GotImage, Program, ResolvedProgram};

/// Upper bound on entries per injection cache (decoded programs, sender GOT
/// images, re-resolved GOTs, resolved images). Keys derive from
/// sender-controlled content, so the bound caps what a churning sender can pin
/// in receiver memory; the module header gives the eviction policy applied at
/// it.
pub(crate) const MAX_INJECTION_CACHE_ENTRIES: usize = 1024;

/// Recency and segment are `Cell`s so a lookup can stamp the entry it found
/// and demote another through shared borrows of the map, under one probe.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: Cell<u64>,
    protected: Cell<bool>,
}

/// A segmented-LRU map, used through four methods — keyed lookup with LRU
/// touch, insert-with-eviction, purge and size — so the eviction policy can
/// change underneath without the dispatch code noticing. Eviction scans are
/// O(n) in the entry count: a working set below capacity never pays them,
/// while a sender churning keys with the cache full pays one bounded scan
/// (≤ cap entries, under the shared lock) per miss-insert — an accepted cost,
/// since that sender is already paying a full decode+verify and a lowering
/// per message: ≈ 3 µs of host time for the 1.4 KB Indirect Put jam,
/// ≈ 7.6 µs for the whole cold drain (measured,
/// `cold_churn`); an O(1) recency list is the upgrade path if
/// churn-resistance ever needs to be cheaper.
#[derive(Debug)]
pub(crate) struct SegmentedCache<K, V> {
    entries: HashMap<K, Entry<V>>,
    cap: usize,
    protected_cap: usize,
    protected_len: usize,
    tick: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> SegmentedCache<K, V> {
    /// An empty cache holding at most `cap` entries.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        SegmentedCache {
            entries: HashMap::new(),
            cap,
            // Protected holds at most 4/5 of capacity (at least one slot stays
            // probationary so churn always has somewhere to cycle).
            protected_cap: (cap * 4 / 5).max(1).min(cap - 1).max(1),
            protected_len: 0,
            tick: 0,
            evictions: 0,
        }
    }

    /// Total entries evicted over the cache's lifetime.
    #[cfg(test)]
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    fn evict_one(&mut self) {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| !e.protected.get())
            .min_by_key(|(_, e)| e.last_used.get())
            .map(|(k, _)| k.clone())
            .or_else(|| {
                self.entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used.get())
                    .map(|(k, _)| k.clone())
            });
        if let Some(key) = victim {
            if let Some(e) = self.entries.remove(&key) {
                if e.protected.get() {
                    self.protected_len -= 1;
                }
                self.evictions += 1;
            }
        }
    }

    /// Look `key` up, marking the entry as recently used (and promoting it to the
    /// protected segment on its first hit).
    fn lookup(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let found = self.entries.get(key)?;
        found.last_used.set(self.tick);
        if !found.protected.replace(true) {
            self.protected_len += 1;
            if self.protected_len > self.protected_cap {
                // Demote the coldest protected entry — never `found`, which
                // carries the newest tick among at least two.
                let coldest = self
                    .entries
                    .values()
                    .filter(|e| e.protected.get())
                    .min_by_key(|e| e.last_used.get());
                if let Some(e) = coldest {
                    e.protected.set(false);
                    self.protected_len -= 1;
                }
            }
        }
        Some(&found.value)
    }

    /// Insert (or replace) `key`, evicting per policy if full. Returns how many
    /// entries were evicted (0 or 1).
    fn store(&mut self, key: K, value: V) -> u64 {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            // Replacement (hash collision with different bytes): keep the entry's
            // segment, refresh its recency.
            e.value = value;
            e.last_used.set(self.tick);
            return 0;
        }
        let before = self.evictions;
        if self.entries.len() >= self.cap {
            self.evict_one();
        }
        self.entries.insert(
            key,
            Entry {
                value,
                last_used: Cell::new(self.tick),
                protected: Cell::new(false),
            },
        );
        self.evictions - before
    }

    /// Drop every entry (invalidation; not counted as eviction).
    fn purge(&mut self) {
        self.entries.clear();
        self.protected_len = 0;
    }

    /// Number of live entries.
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A cached decoded injected program. The exact code bytes it was decoded from are
/// kept and compared on every hit (see the module header).
#[derive(Debug, Clone)]
pub(crate) struct CachedProgram {
    pub(crate) code: Arc<[u8]>,
    pub(crate) program: Arc<Program>,
    /// Smallest GOT slot count the program verifies against (highest `CallExtern`
    /// slot + 1). Hits are re-checked against the message's GOT size so a warm hit
    /// can never execute a program the cold verifier would reject.
    pub(crate) min_got_slots: usize,
}

/// A cached parsed sender GOT image, with the exact bytes it was parsed from.
#[derive(Debug, Clone)]
pub(crate) struct CachedGot {
    pub(crate) bytes: Arc<[u8]>,
    pub(crate) image: Arc<GotImage>,
}

/// A cached resolved image — the second-level entry the threaded executor runs.
///
/// The image was lowered from `code` against `got`, so it is only valid for
/// a message carrying *those* code bytes that resolves to *that same* GOT
/// `Arc` ([`InjectionCache::lookup_resolved`] compares the bytes and enforces
/// pointer identity; the first-level GOT caches hand out stable `Arc`s for
/// unchanged content, so a changed GOT image — new bytes, new namespace
/// resolution — yields a different pointer and a resolved miss). Any package
/// reinstall or namespace change purges the cache wholesale via
/// [`InjectionCache::invalidate_all`].
#[derive(Debug, Clone)]
pub(crate) struct CachedResolved {
    /// The exact code bytes the image was lowered from, compared on every hit.
    pub(crate) code: Arc<[u8]>,
    /// The exact GOT image baked into the lowering, compared by pointer.
    pub(crate) got: Arc<GotImage>,
    /// The lowered image itself.
    pub(crate) image: Arc<ResolvedProgram>,
    /// Simulated install address of the image (fetches are charged here).
    pub(crate) code_base: u64,
    /// Verifier floor carried over from the first-level entry: smallest GOT
    /// slot count the program verifies against.
    pub(crate) min_got_slots: usize,
}

#[derive(Debug)]
struct CacheInner {
    /// Decoded injected programs, keyed by `(elem_id, hash64_bytes(code))`.
    code: SegmentedCache<(u32, u64), CachedProgram>,
    /// Parsed sender GOT images, keyed by `(elem_id, hash64_bytes(got_bytes))`.
    sender_got: SegmentedCache<(u32, u64), CachedGot>,
    /// Locally re-resolved GOT images (hardened policy), keyed by `elem_id`.
    resolved_got: SegmentedCache<u32, Arc<GotImage>>,
    /// Resolved (lowered) images, keyed by `(elem_id, code_digest, code_len)`.
    /// Hits are byte-compared as first-level ones are: the digest is a lane-wise
    /// FNV a sender can steer onto any value with one free 8-byte lane. The
    /// length adds nothing to that, but it stays in the key because the key
    /// places the image's slab (`resolved_slab_base`).
    resolved: SegmentedCache<(u32, u64, usize), CachedResolved>,
}

/// The shared, internally locked bundle of all three receiver-side injection
/// caches. Shards hold it through an `Arc`; every operation takes the lock for the
/// duration of one probe or insert, so invalidation by one shard (or by
/// `install_package`) is immediately visible to all.
#[derive(Debug)]
pub(crate) struct InjectionCache {
    inner: Mutex<CacheInner>,
}

impl InjectionCache {
    /// Empty caches holding at most [`MAX_INJECTION_CACHE_ENTRIES`] each.
    pub(crate) fn new() -> Self {
        Self::with_capacity(MAX_INJECTION_CACHE_ENTRIES)
    }

    /// Empty caches holding at most `cap` entries each.
    fn with_capacity(cap: usize) -> Self {
        InjectionCache {
            inner: Mutex::new(CacheInner {
                code: SegmentedCache::with_capacity(cap),
                sender_got: SegmentedCache::with_capacity(cap),
                resolved_got: SegmentedCache::with_capacity(cap),
                resolved: SegmentedCache::with_capacity(cap),
            }),
        }
    }

    /// Probe the decoded-program cache. A hit requires the stored code bytes to
    /// equal `code` (hash-collision defence).
    pub(crate) fn lookup_program(&self, key: (u32, u64), code: &[u8]) -> Option<CachedProgram> {
        let mut inner = self.inner.lock();
        let cached = inner.code.lookup(&key)?;
        if &*cached.code == code {
            Some(cached.clone())
        } else {
            None
        }
    }

    /// Insert a decoded program; returns the number of entries evicted.
    pub(crate) fn store_program(&self, key: (u32, u64), value: CachedProgram) -> u64 {
        self.inner.lock().code.store(key, value)
    }

    /// Probe the sender-GOT cache (byte-compared, as for programs).
    pub(crate) fn lookup_sender_got(&self, key: (u32, u64), bytes: &[u8]) -> Option<Arc<GotImage>> {
        let mut inner = self.inner.lock();
        let cached = inner.sender_got.lookup(&key)?;
        if &*cached.bytes == bytes {
            Some(Arc::clone(&cached.image))
        } else {
            None
        }
    }

    /// Insert a parsed sender GOT image; returns the number of entries evicted.
    pub(crate) fn store_sender_got(&self, key: (u32, u64), value: CachedGot) -> u64 {
        self.inner.lock().sender_got.store(key, value)
    }

    /// Probe the locally re-resolved GOT cache (hardened policy; keyed by element
    /// alone, no byte comparison needed since the content is receiver-derived).
    pub(crate) fn lookup_resolved_got(&self, elem: u32) -> Option<Arc<GotImage>> {
        self.inner.lock().resolved_got.lookup(&elem).map(Arc::clone)
    }

    /// Insert a locally re-resolved GOT image; returns the number evicted.
    pub(crate) fn store_resolved_got(&self, elem: u32, got: Arc<GotImage>) -> u64 {
        self.inner.lock().resolved_got.store(elem, got)
    }

    /// Probe the resolved-image cache. A hit requires the stored code bytes to
    /// equal `code`, as for programs, and the cached entry's GOT `Arc` to be
    /// pointer-identical to `got` — the image baked that exact GOT's
    /// resolutions into its call sites, so any other image (even
    /// content-equal) forces a re-lower.
    pub(crate) fn lookup_resolved(
        &self,
        key: (u32, u64, usize),
        got: &Arc<GotImage>,
        code: &[u8],
    ) -> Option<CachedResolved> {
        let mut inner = self.inner.lock();
        let cached = inner.resolved.lookup(&key)?;
        if Arc::ptr_eq(&cached.got, got) && &*cached.code == code {
            Some(cached.clone())
        } else {
            None
        }
    }

    /// Insert a resolved image; returns the number of entries evicted.
    pub(crate) fn store_resolved(&self, key: (u32, u64, usize), value: CachedResolved) -> u64 {
        self.inner.lock().resolved.store(key, value)
    }

    /// Drop every cached program and GOT image (package reinstall / live update /
    /// explicit cold-path benchmarking). Not counted as evictions.
    pub(crate) fn invalidate_all(&self) {
        let mut inner = self.inner.lock();
        inner.code.purge();
        inner.sender_got.purge();
        inner.resolved_got.purge();
        inner.resolved.purge();
    }

    /// Number of decoded programs currently cached.
    pub(crate) fn programs_len(&self) -> usize {
        self.inner.lock().code.len()
    }

    /// Lifetime eviction counts `(code, sender_got, resolved_got)` — introspection
    /// for tests; the per-receive deltas flow into `RuntimeStats`.
    #[cfg(test)]
    pub(crate) fn eviction_counts(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock();
        (
            inner.code.evictions(),
            inner.sender_got.evictions(),
            inner.resolved_got.evictions(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_land_in_probation_and_evict_coldest_probation_first() {
        let mut c: SegmentedCache<u32, u32> = SegmentedCache::with_capacity(4);
        for k in 0..4 {
            assert_eq!(c.store(k, k * 10), 0, "no eviction below capacity");
        }
        // Promote 0 and 1 to protected; 2 and 3 stay probationary (2 is coldest).
        assert_eq!(c.lookup(&0), Some(&0));
        assert_eq!(c.lookup(&1), Some(&10));
        assert_eq!(c.store(4, 40), 1, "full cache evicts exactly one");
        assert_eq!(c.lookup(&2), None, "coldest probation entry evicted");
        assert_eq!(c.lookup(&0), Some(&0), "protected entry survives");
        assert_eq!(c.lookup(&1), Some(&10));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn hot_working_set_survives_churn() {
        let mut c: SegmentedCache<u32, u32> = SegmentedCache::with_capacity(8);
        // Two hot keys, hit repeatedly.
        c.store(5000, 1);
        c.store(6000, 2);
        c.lookup(&5000);
        c.lookup(&6000);
        // An adversarial churn of 1000 one-shot keys (disjoint from the hot set).
        let mut evicted = 0;
        for k in 0..1000 {
            evicted += c.store(k, 0);
        }
        assert!(evicted > 900, "churn cycles through probation");
        assert_eq!(c.lookup(&5000), Some(&1), "hot key survives the churn");
        assert_eq!(c.lookup(&6000), Some(&2));
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn replacement_of_existing_key_is_not_an_eviction() {
        let mut c: SegmentedCache<u32, u32> = SegmentedCache::with_capacity(2);
        c.store(1, 10);
        c.store(2, 20);
        assert_eq!(c.store(1, 11), 0, "same-key replace evicts nothing");
        assert_eq!(c.lookup(&1), Some(&11));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn protected_segment_is_capped_by_demotion() {
        let mut c: SegmentedCache<u32, u32> = SegmentedCache::with_capacity(5);
        // protected_cap = 4: promoting a 5th hit entry demotes the coldest.
        for k in 0..5 {
            c.store(k, k);
        }
        for k in 0..5 {
            c.lookup(&k);
        }
        assert!(c.protected_len <= c.protected_cap);
        assert_eq!(
            c.len(),
            5,
            "demotion moves entries between segments, not out"
        );
    }

    #[test]
    fn purge_clears_without_counting_evictions() {
        let mut c: SegmentedCache<u32, u32> = SegmentedCache::with_capacity(4);
        c.store(1, 1);
        c.lookup(&1);
        c.purge();
        assert_eq!(c.len(), 0);
        assert_eq!(c.evictions(), 0);
        // Reusable after a purge.
        c.store(2, 2);
        assert_eq!(c.lookup(&2), Some(&2));
    }

    #[test]
    fn resolved_hits_require_pointer_identical_got() {
        use twochains_jamvm::{resolve, Instr};

        let cache = InjectionCache::with_capacity(8);
        let program = Program::from(vec![Instr::Ret]);
        let got = Arc::new(GotImage::with_slots(1));
        let code = [0x0F, 0, 0, 0];
        let entry = CachedResolved {
            code: code.into(),
            got: Arc::clone(&got),
            image: Arc::new(resolve(&program, &got)),
            code_base: 0xC000_0000,
            min_got_slots: 0,
        };
        let key = (7, 42, 4);
        cache.store_resolved(key, entry);
        assert!(cache.lookup_resolved(key, &got, &code).is_some());
        // A content-equal but distinct GOT image must miss: its resolutions
        // were not the ones baked into the lowering.
        let other = Arc::new(GotImage::with_slots(1));
        assert!(cache.lookup_resolved(key, &other, &code).is_none());
        assert!(cache.lookup_resolved((7, 42, 5), &got, &code).is_none());
        assert!(
            cache.lookup_resolved(key, &got, &[0x0F, 0, 0, 1]).is_none(),
            "a digest collision with different bytes is a miss"
        );
        cache.invalidate_all();
        assert!(
            cache.lookup_resolved(key, &got, &code).is_none(),
            "invalidation purges resolved images too"
        );
    }

    #[test]
    fn shared_cache_byte_compares_on_hit() {
        let cache = InjectionCache::with_capacity(8);
        let image = Arc::new(GotImage::with_slots(2));
        cache.store_sender_got(
            (7, 42),
            CachedGot {
                bytes: vec![1, 2, 3].into(),
                image: Arc::clone(&image),
            },
        );
        assert!(cache.lookup_sender_got((7, 42), &[1, 2, 3]).is_some());
        assert!(
            cache.lookup_sender_got((7, 42), &[9, 9, 9]).is_none(),
            "hash collision with different bytes is a miss"
        );
        assert!(cache.lookup_sender_got((7, 43), &[1, 2, 3]).is_none());
        cache.invalidate_all();
        assert!(cache.lookup_sender_got((7, 42), &[1, 2, 3]).is_none());
        assert_eq!(cache.eviction_counts(), (0, 0, 0));
    }
}
