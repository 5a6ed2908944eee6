//! Per-device data residency: the LRU cache that keeps uploaded buffers
//! (receptor grids, in this workspace) resident in modeled device memory
//! across kernel consumers.
//!
//! The mapping workload re-docks many probes — and, at the serving layer, many
//! *jobs* — against the same receptor. Before this cache existed every
//! `piper_dock::Docking` construction re-charged the full receptor-grid upload
//! to its device, so N jobs against one receptor paid the PCIe cost N times.
//! Like the MD and lattice codes the scheduler borrows from (van Meel et al.;
//! Barros et al.), sustained throughput comes from keeping data **resident**:
//! the first consumer of a buffer on a device uploads it once, every later
//! consumer borrows the resident copy for free.
//!
//! Design:
//!
//! * entries are keyed by a **content hash** of the cached payload (the caller
//!   computes it — see `piper_dock::ReceptorGrids::content_key`), so two
//!   consumers holding equal-valued buffers share one resident copy and a
//!   changed buffer can never alias a stale entry;
//! * the cache is **capacity-aware** against the device's global memory
//!   ([`crate::DeviceSpec::global_mem_bytes`]): inserting past capacity evicts
//!   least-recently-used entries first, and an entry larger than the whole
//!   capacity is refused (reported [`Residency::Uncacheable`], so the caller
//!   falls back to a plain per-use upload);
//! * payloads are type-erased (`Arc<dyn Any + Send + Sync>`) because the
//!   device model cannot depend on the crates that define the cached types;
//!   callers downcast on hit;
//! * hit / miss / eviction counts are tracked as [`CacheStats`] — the
//!   scheduler brackets every item with a snapshot pair and publishes the
//!   deltas per batch ([`crate::sched::BatchReport::cache`]);
//! * an entry can hold **derived** payloads keyed next to it
//!   ([`ResidencyCache::get_or_insert_derived_with`]): buffers computed *from*
//!   the raw entry on the device (forward-transformed grids, a shareable FFT
//!   plan). Derived bytes count against the same capacity budget, derived
//!   events are tracked in their own [`CacheStats`] bucket
//!   ([`ResidencyCache::derived_stats`]), and evicting a raw entry drops its
//!   derived children with it.

use crate::sync::locked;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A type-erased shared handle to a resident buffer.
pub type ResidentPayload = Arc<dyn Any + Send + Sync>;

/// The FNV-1a streaming hasher used for residency-cache content keys.
///
/// One implementation shared by every key producer — the receptor-grid
/// content key (`piper_dock::ReceptorGrids::content_key`) and the serve
/// layer's request fingerprint — so the key scheme can never silently diverge
/// between the host-side grouping and the device-side residency lookups.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Mixes `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// Mixes an `f64`'s bit pattern into the hash (bit-exact: distinguishes
    /// `-0.0` from `0.0` and every NaN payload, as a content key must).
    pub fn write_f64(&mut self, value: f64) {
        self.write(&value.to_bits().to_le_bytes());
    }

    /// The final hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Hit / miss / eviction accounting for a residency cache, as monotonic
/// counters (snapshot and subtract with [`CacheStats::delta_since`] to
/// attribute events to one unit of work, the same pattern
/// [`crate::TransferSnapshot`] uses for transfers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key resident.
    pub hits: u64,
    /// Lookups that did not find the key (including uncacheable refusals).
    pub misses: u64,
    /// Entries evicted to make room for insertions.
    pub evictions: u64,
    /// Successful insertions.
    pub insertions: u64,
}

impl CacheStats {
    /// The events recorded between `earlier` and this snapshot.
    ///
    /// Saturates at zero if a counter moved backwards between the snapshots
    /// (a consumer swapping in a fresh cache — or a future reset — mid-window,
    /// the same hazard [`crate::TransferSnapshot::delta_since`] guards
    /// against). The window's attribution is lost either way, but a stale
    /// snapshot must degrade to an empty delta, not an underflow panic.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            insertions: self.insertions.saturating_sub(earlier.insertions),
        }
    }

    /// Accumulates another stats record into this one.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
    }

    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Outcome of a [`ResidencyCache::get_or_insert_with`] lookup.
pub enum Residency {
    /// The key was resident: borrow the cached payload, pay no upload.
    Hit(ResidentPayload),
    /// The key was not resident; the payload is now cached. The caller charges
    /// exactly one upload for it.
    Miss {
        /// Number of LRU entries evicted to make room.
        evicted: usize,
    },
    /// The payload cannot be cached (larger than the device's capacity, or the
    /// cache is disabled). The caller charges a plain upload, as before the
    /// cache existed.
    Uncacheable,
}

struct Entry {
    key: u64,
    payload: ResidentPayload,
    bytes: usize,
    /// For **derived** entries (buffers computed *from* a resident raw entry —
    /// forward-transformed grids, a shareable FFT plan): the raw parent's key.
    /// `None` for raw entries. Evicting a raw entry drops its derived children
    /// with it — a derived payload must never outlive the buffer it was
    /// derived from.
    parent: Option<u64>,
}

struct CacheInner {
    /// Resident entries, most-recently-used first.
    entries: Vec<Entry>,
    resident_bytes: usize,
    enabled: bool,
    stats: CacheStats,
    /// Derived-entry events, in their own bucket: a derived hit means "skip
    /// straight to the consumer-side work" (e.g. ligand transforms), which is
    /// a different economy than a raw hit ("skip the PCIe upload") and is
    /// reported separately.
    derived_stats: CacheStats,
}

impl CacheInner {
    /// The stats bucket and `hook::cache` label of raw / derived entries.
    fn bucket(&mut self, derived: bool) -> (&mut CacheStats, &'static str) {
        if derived {
            (&mut self.derived_stats, "derived")
        } else {
            (&mut self.stats, "raw")
        }
    }

    /// Removes the least-recently-used entry, cascading to the derived
    /// children of an evicted raw entry. Returns the number of entries
    /// removed (0 when the cache is empty). Raw evictions count in the raw
    /// stats bucket, derived evictions in the derived bucket.
    fn evict_lru(&mut self) -> usize {
        let Some(victim) = self.entries.pop() else {
            return 0;
        };
        self.resident_bytes -= victim.bytes;
        let mut removed = 1;
        let (stats, bucket) = self.bucket(victim.parent.is_some());
        stats.evictions += 1;
        ftmap_trace::hook::cache("evict", bucket, victim.key);
        if victim.parent.is_none() {
            // Cascade: drop every derived child of the evicted raw entry.
            let mut idx = 0;
            while idx < self.entries.len() {
                if self.entries[idx].parent == Some(victim.key) {
                    let child = self.entries.remove(idx);
                    self.resident_bytes -= child.bytes;
                    self.derived_stats.evictions += 1;
                    ftmap_trace::hook::cache("evict", "derived", child.key);
                    removed += 1;
                } else {
                    idx += 1;
                }
            }
        }
        removed
    }
}

/// A capacity-aware LRU cache of device-resident buffers. One per [`crate::Device`].
pub struct ResidencyCache {
    capacity_bytes: usize,
    inner: Mutex<CacheInner>,
}

impl ResidencyCache {
    /// An empty, enabled cache holding at most `capacity_bytes` of payload.
    pub fn new(capacity_bytes: usize) -> Self {
        ResidencyCache {
            capacity_bytes,
            inner: Mutex::new(CacheInner {
                entries: Vec::new(),
                resident_bytes: 0,
                enabled: true,
                stats: CacheStats::default(),
                derived_stats: CacheStats::default(),
            }),
        }
    }

    /// The capacity in bytes (the device's modeled global-memory size).
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        locked(&self.inner).resident_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        locked(&self.inner).entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `key` is resident. Does not promote and does not count as a
    /// lookup (use [`ResidencyCache::get`] on the hot path).
    pub fn contains(&self, key: u64) -> bool {
        locked(&self.inner).entries.iter().any(|e| e.key == key)
    }

    /// Resident keys, most-recently-used first (for tests and reporting).
    pub fn keys_mru(&self) -> Vec<u64> {
        locked(&self.inner).entries.iter().map(|e| e.key).collect()
    }

    /// Enables or disables the cache. Disabling clears residency, and every
    /// subsequent lookup reports [`Residency::Uncacheable`] — the pre-cache
    /// behavior (one upload per consumer), kept for cold-baseline benchmarks.
    pub fn set_enabled(&self, enabled: bool) {
        let mut inner = locked(&self.inner);
        inner.enabled = enabled;
        if !enabled {
            inner.entries.clear();
            inner.resident_bytes = 0;
        }
    }

    /// Drops every resident entry (stats are kept — they are monotonic
    /// counters, not a gauge).
    pub fn clear(&self) {
        let mut inner = locked(&self.inner);
        inner.entries.clear();
        inner.resident_bytes = 0;
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        locked(&self.inner).stats
    }

    /// Looks up `key`, promoting it to most-recently-used on hit. Counts one
    /// hit or one miss.
    pub fn get(&self, key: u64) -> Option<ResidentPayload> {
        hit_payload(self.lookup(key, None, None::<NoFill>))
    }

    /// Looks up `key`; on miss, materializes `(payload, bytes)` with `fill`
    /// and caches it, evicting least-recently-used entries until it fits.
    ///
    /// The lookup, fill and insertion happen under one lock, so concurrent
    /// consumers of the same key race to at most **one** miss — the property
    /// the transfer accounting relies on ("a miss records exactly one grid-set
    /// upload per device").
    pub fn get_or_insert_with<F>(&self, key: u64, fill: F) -> Residency
    where
        F: FnOnce() -> (ResidentPayload, usize),
    {
        self.lookup(key, None, Some(fill))
    }

    /// The key a derived payload is cached under: a content hash of the
    /// parent's key and the derivation `tag` (e.g. `"fft-transforms"`), so
    /// derived entries sit next to their raw parent in the same key space
    /// without the caller hashing the derived bytes.
    fn derived_key(parent_key: u64, tag: &str) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write_u64(parent_key);
        hash.write(tag.as_bytes());
        hash.finish()
    }

    /// A snapshot of the derived-entry hit/miss/eviction counters (separate
    /// bucket from [`ResidencyCache::stats`]).
    pub fn derived_stats(&self) -> CacheStats {
        locked(&self.inner).derived_stats
    }

    /// Looks up the payload derived from `parent_key` under `tag`, promoting
    /// both the derived entry and its raw parent on hit. Counts one derived
    /// hit or miss; does not touch the raw bucket.
    pub fn get_derived(&self, parent_key: u64, tag: &str) -> Option<ResidentPayload> {
        let key = Self::derived_key(parent_key, tag);
        hit_payload(self.lookup(key, Some(parent_key), None::<NoFill>))
    }

    /// Looks up the payload derived from `parent_key` under `tag`; on miss,
    /// materializes `(payload, bytes)` with `fill` and caches it **next to the
    /// raw parent**: derived bytes count against the same capacity budget, and
    /// evicting the parent drops the derived entry with it.
    ///
    /// Events land in the derived stats bucket ([`ResidencyCache::derived_stats`]).
    /// Reports [`Residency::Uncacheable`] when the cache is disabled, the
    /// payload exceeds capacity, or the raw parent is **not resident** — a
    /// derived entry may only be keyed next to an actually-resident parent,
    /// so the caller falls back to using its freshly computed payload without
    /// caching it.
    ///
    /// Like [`ResidencyCache::get_or_insert_with`], the lookup, fill and
    /// insertion happen under one lock: concurrent consumers of the same
    /// derived key race to at most one miss.
    pub fn get_or_insert_derived_with<F>(&self, parent_key: u64, tag: &str, fill: F) -> Residency
    where
        F: FnOnce() -> (ResidentPayload, usize),
    {
        self.lookup(Self::derived_key(parent_key, tag), Some(parent_key), Some(fill))
    }

    /// The one lookup body behind the four public lookups. `parent` is
    /// `Some(raw key)` for a derived entry: events then count in the derived
    /// bucket, a hit drags the raw parent to the slot behind the entry (so a
    /// hot derived payload keeps the buffer it was derived from from aging
    /// out underneath it), and an insertion requires the parent resident.
    /// Without `fill` a miss caches nothing and reports
    /// [`Residency::Uncacheable`].
    fn lookup<F>(&self, key: u64, parent: Option<u64>, fill: Option<F>) -> Residency
    where
        F: FnOnce() -> (ResidentPayload, usize),
    {
        let mut inner = locked(&self.inner);
        let hit = inner.entries.iter().position(|e| e.key == key);
        let (stats, bucket) = inner.bucket(parent.is_some());
        if let Some(pos) = hit {
            stats.hits += 1;
            ftmap_trace::hook::cache("hit", bucket, key);
            let entry = inner.entries.remove(pos);
            let payload = Arc::clone(&entry.payload);
            inner.entries.insert(0, entry);
            if let Some(pos) = parent.and_then(|p| inner.entries.iter().position(|e| e.key == p)) {
                if pos > 1 {
                    let parent_entry = inner.entries.remove(pos);
                    inner.entries.insert(1, parent_entry);
                }
            }
            return Residency::Hit(payload);
        }
        stats.misses += 1;
        ftmap_trace::hook::cache("miss", bucket, key);
        let Some(fill) = fill else {
            return Residency::Uncacheable;
        };
        let parent_resident =
            |inner: &CacheInner| parent.is_none_or(|p| inner.entries.iter().any(|e| e.key == p));
        let (payload, bytes) = fill();
        if !inner.enabled || !parent_resident(&inner) || bytes > self.capacity_bytes {
            return Residency::Uncacheable;
        }
        let mut evicted = 0;
        while inner.resident_bytes + bytes > self.capacity_bytes {
            evicted += inner.evict_lru();
        }
        // Eviction pressure may have taken the parent itself out (it was the
        // LRU tail): a derived entry must not be inserted next to a parent
        // that is no longer resident.
        if !parent_resident(&inner) {
            return Residency::Uncacheable;
        }
        inner.resident_bytes += bytes;
        inner.bucket(parent.is_some()).0.insertions += 1;
        inner.entries.insert(0, Entry { key, payload, bytes, parent });
        Residency::Miss { evicted }
    }
}

/// The `fill` type of the lookups that never insert.
type NoFill = fn() -> (ResidentPayload, usize);

fn hit_payload(residency: Residency) -> Option<ResidentPayload> {
    match residency {
        Residency::Hit(payload) => Some(payload),
        Residency::Miss { .. } | Residency::Uncacheable => None,
    }
}

impl fmt::Debug for ResidencyCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = locked(&self.inner);
        f.debug_struct("ResidencyCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("resident_bytes", &inner.resident_bytes)
            .field("entries", &inner.entries.len())
            .field("enabled", &inner.enabled)
            .field("stats", &inner.stats)
            .field("derived_stats", &inner.derived_stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(v: u64) -> ResidentPayload {
        Arc::new(v)
    }

    #[test]
    fn miss_then_hit_roundtrip() {
        let cache = ResidencyCache::new(1024);
        assert!(cache.is_empty());
        match cache.get_or_insert_with(7, || (payload(42), 100)) {
            Residency::Miss { evicted } => assert_eq!(evicted, 0),
            _ => panic!("expected miss"),
        }
        match cache.get_or_insert_with(7, || panic!("fill must not run on hit")) {
            Residency::Hit(p) => {
                assert_eq!(*p.downcast::<u64>().expect("payload type"), 42);
            }
            _ => panic!("expected hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions, stats.insertions), (1, 1, 0, 1));
        assert_eq!(cache.resident_bytes(), 100);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn panicking_fill_does_not_wedge_the_cache() {
        // `fill` runs under the cache lock, and a real fill can panic (a
        // transform plan on a non-power-of-two grid). One bad request must
        // not poison a pooled device's cache for every later job.
        let cache = ResidencyCache::new(1024);
        cache.get_or_insert_with(1, || (payload(1), 100));
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_insert_with(2, || panic!("fill failed"))
        }));
        assert!(bad.is_err());
        assert!(matches!(
            cache.get_or_insert_with(3, || (payload(3), 100)),
            Residency::Miss { .. }
        ));
        assert!(matches!(cache.get_or_insert_with(1, || panic!("resident")), Residency::Hit(_)));
        assert!(!cache.contains(2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 3, 2));
        assert_eq!(cache.resident_bytes(), 200);
    }

    #[test]
    fn lru_eviction_order_and_promotion() {
        let cache = ResidencyCache::new(300);
        for key in 1..=3u64 {
            cache.get_or_insert_with(key, || (payload(key), 100));
        }
        // Promote 1 to MRU; inserting a fourth entry must now evict 2 (the LRU).
        assert!(cache.get(1).is_some());
        assert_eq!(cache.keys_mru(), vec![1, 3, 2]);
        match cache.get_or_insert_with(4, || (payload(4), 100)) {
            Residency::Miss { evicted } => assert_eq!(evicted, 1),
            _ => panic!("expected miss"),
        }
        assert_eq!(cache.keys_mru(), vec![4, 1, 3]);
        assert!(!cache.contains(2));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.resident_bytes(), 300);
    }

    #[test]
    fn oversized_entries_are_uncacheable() {
        let cache = ResidencyCache::new(100);
        assert!(matches!(
            cache.get_or_insert_with(1, || (payload(1), 101)),
            Residency::Uncacheable
        ));
        assert!(cache.is_empty());
        // A refused entry still counts as a miss (the consumer paid an upload).
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn disabled_cache_refuses_and_clears() {
        let cache = ResidencyCache::new(1000);
        cache.get_or_insert_with(1, || (payload(1), 10));
        assert_eq!(cache.len(), 1);
        cache.set_enabled(false);
        assert!(cache.is_empty());
        assert!(matches!(cache.get_or_insert_with(2, || (payload(2), 10)), Residency::Uncacheable));
        cache.set_enabled(true);
        assert!(matches!(cache.get_or_insert_with(2, || (payload(2), 10)), Residency::Miss { .. }));
    }

    #[test]
    fn clear_keeps_monotonic_stats() {
        let cache = ResidencyCache::new(1000);
        cache.get_or_insert_with(1, || (payload(1), 10));
        cache.get(1);
        let before = cache.stats();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), before);
        // After clearing, the key misses again.
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn stats_delta_saturates_when_counters_moved_backwards() {
        // Regression: a consumer that snapshots one cache and computes the
        // delta against a fresh (or swapped-out) cache's counters used to
        // underflow-panic in release-unchecked arithmetic (wrap) / panic in
        // debug. The window is unattributable, so the delta must be empty.
        let warm = CacheStats { hits: 5, misses: 3, evictions: 2, insertions: 3 };
        let fresh = CacheStats::default();
        assert_eq!(fresh.delta_since(&warm), CacheStats::default());
        // Mixed movement saturates per counter, not wholesale.
        let later = CacheStats { hits: 9, misses: 1, evictions: 2, insertions: 3 };
        let delta = later.delta_since(&warm);
        assert_eq!(delta, CacheStats { hits: 4, misses: 0, evictions: 0, insertions: 0 });
    }

    #[test]
    fn derived_miss_then_hit_shares_budget_and_bucket() {
        let cache = ResidencyCache::new(1000);
        cache.get_or_insert_with(7, || (payload(7), 400));
        match cache.get_or_insert_derived_with(7, "fft", || (payload(77), 300)) {
            Residency::Miss { evicted } => assert_eq!(evicted, 0),
            _ => panic!("expected derived miss"),
        }
        // Derived bytes count against the same budget.
        assert_eq!(cache.resident_bytes(), 700);
        assert_eq!(cache.len(), 2);
        match cache.get_or_insert_derived_with(7, "fft", || panic!("fill must not run on hit")) {
            Residency::Hit(p) => check_payload_value(&p, 77),
            _ => panic!("expected derived hit"),
        }
        assert!(cache.get_derived(7, "fft").is_some());
        assert!(cache.get_derived(7, "other-tag").is_none());
        // Raw and derived events live in separate buckets.
        let raw = cache.stats();
        assert_eq!((raw.hits, raw.misses, raw.insertions), (0, 1, 1));
        let derived = cache.derived_stats();
        assert_eq!((derived.hits, derived.misses, derived.insertions), (2, 2, 1));
        // Distinct tags key distinct derived entries; the derived key scheme
        // is deterministic.
        assert_eq!(ResidencyCache::derived_key(7, "fft"), ResidencyCache::derived_key(7, "fft"));
        assert_ne!(ResidencyCache::derived_key(7, "fft"), ResidencyCache::derived_key(7, "plan"));
    }

    fn check_payload_value(p: &ResidentPayload, expect: u64) {
        assert_eq!(*p.downcast_ref::<u64>().expect("payload type"), expect);
    }

    #[test]
    fn derived_requires_resident_parent() {
        let cache = ResidencyCache::new(1000);
        // No raw parent resident: the derived payload cannot be cached.
        assert!(matches!(
            cache.get_or_insert_derived_with(9, "fft", || (payload(99), 10)),
            Residency::Uncacheable
        ));
        assert!(cache.is_empty());
        assert_eq!(cache.derived_stats().misses, 1);
        assert_eq!(cache.derived_stats().insertions, 0);
        // Disabled cache refuses derived entries too.
        cache.set_enabled(false);
        assert!(matches!(
            cache.get_or_insert_derived_with(9, "fft", || (payload(99), 10)),
            Residency::Uncacheable
        ));
    }

    #[test]
    fn evicting_raw_parent_drops_derived_children() {
        let cache = ResidencyCache::new(1000);
        cache.get_or_insert_with(1, || (payload(1), 300));
        cache.get_or_insert_derived_with(1, "fft", || (payload(11), 200));
        cache.get_or_insert_with(2, || (payload(2), 300));
        // Touch the derived child (which drags its parent to position 1),
        // then touch 2 so raw entry 1 becomes the LRU tail while its derived
        // child stays hotter than it.
        assert!(cache.get_derived(1, "fft").is_some());
        assert!(cache.get(2).is_some());
        // Inserting a large raw entry evicts from the tail until it fits; when
        // the raw parent goes, its derived child goes with it regardless of
        // the child's position in the recency order.
        match cache.get_or_insert_with(3, || (payload(3), 600)) {
            Residency::Miss { evicted } => assert!(evicted >= 2),
            _ => panic!("expected miss"),
        }
        assert!(!cache.contains(1));
        assert!(cache.get_derived(1, "fft").is_none());
        assert!(cache.resident_bytes() <= 1000);
        assert!(cache.stats().evictions >= 1, "raw eviction in raw bucket");
        assert_eq!(cache.derived_stats().evictions, 1, "cascade in derived bucket");
    }

    #[test]
    fn derived_insert_refuses_when_eviction_takes_the_parent() {
        // Parent is resident but is also the LRU tail; making room for an
        // almost-capacity derived payload evicts the parent itself, so the
        // derived entry must be refused rather than left orphaned.
        let cache = ResidencyCache::new(1000);
        cache.get_or_insert_with(1, || (payload(1), 400));
        cache.get_or_insert_with(2, || (payload(2), 400));
        assert!(cache.get(2).is_some()); // parent 1 is now LRU
        assert!(matches!(
            cache.get_or_insert_derived_with(1, "fft", || (payload(11), 900)),
            Residency::Uncacheable
        ));
        assert!(!cache.contains(1), "parent was evicted making room");
        assert_eq!(cache.derived_stats().insertions, 0);
    }

    #[test]
    fn stats_delta_attributes_one_unit_of_work() {
        let cache = ResidencyCache::new(1000);
        cache.get_or_insert_with(1, || (payload(1), 10));
        let snapshot = cache.stats();
        cache.get(1);
        cache.get(2);
        let delta = cache.stats().delta_since(&snapshot);
        assert_eq!(delta, CacheStats { hits: 1, misses: 1, evictions: 0, insertions: 0 });
        let mut acc = snapshot;
        acc.accumulate(&delta);
        assert_eq!(acc, cache.stats());
    }
}
