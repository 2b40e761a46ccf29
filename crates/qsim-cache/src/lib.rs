//! # qsim-cache
//!
//! A memory-budgeted, content-addressed cache for deterministic
//! artifacts: fusion plans and run results in the serve layer, keyed by
//! `Circuit::content_hash` plus whatever configuration axes make the
//! value a pure function of the key.
//!
//! Design points:
//!
//! - **Byte accounting, not entry counting.** Every insert declares the
//!   entry's modeled size; the cache holds at most `budget_bytes` of
//!   value weight and evicts per entry — never wholesale — to stay
//!   under it.
//! - **CLOCK eviction.** Each entry carries a referenced bit set on hit
//!   and cleared as the hand sweeps past. New entries start
//!   *unreferenced*, so one-shot fillers evict before a key that is
//!   re-read under cap pressure — the property the serve plan cache
//!   needs (a hot circuit's plan must survive a parade of cold ones).
//! - **Pluggable budget ledger.** A cache may additionally charge an
//!   external [`BudgetLedger`] for every resident byte. The serve layer
//!   points the result cache at its admission ledger, so cached reports
//!   and live state buffers compete for the same modeled memory: when
//!   admission runs out of budget, the cache [`Cache::shed`]s entries
//!   instead of the service OOM-ing or bouncing jobs.
//!
//! The cache is a single [`std::sync::Mutex`] around an index plus a
//! slot arena. Nothing blocking happens under the lock — ledger charges
//! are atomic compare-and-swap loops — so the lock is held for strictly
//! bounded work per call.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An external byte budget a cache charges for every resident entry.
///
/// `try_charge` must be all-or-nothing: either the full `bytes` are
/// charged and `true` comes back, or nothing is charged. `release` must
/// tolerate over-release (saturate at zero) so a cache dropped mid-churn
/// can return its occupancy unconditionally.
pub trait BudgetLedger: Send + Sync + fmt::Debug {
    /// Try to charge `bytes` against the ledger; `false` means the
    /// ledger is out of budget and nothing was charged.
    fn try_charge(&self, bytes: u64) -> bool;
    /// Return previously charged bytes.
    fn release(&self, bytes: u64);
}

/// Counter snapshot for the `metrics` verb's cache sections.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries accepted by `insert`.
    pub insertions: u64,
    /// Entries evicted to make room (CLOCK victims and shed entries).
    pub evictions: u64,
    /// Inserts dropped because the entry could not be funded even after
    /// evicting everything else (entry over budget, or the external
    /// ledger is exhausted by non-cache holders).
    pub shed_inserts: u64,
    /// Bytes [`Cache::shed`] released back to the ledger on demand.
    pub shed_bytes: u64,
    /// Resident entries.
    pub entries: u64,
    /// Modeled bytes of resident entries.
    pub occupancy_bytes: u64,
    /// The cache's own byte budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Hits over lookups, 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    bytes: u64,
    referenced: bool,
}

#[derive(Debug)]
struct Inner<K, V> {
    /// Slot arena the CLOCK hand sweeps; `None` slots are free.
    slots: Vec<Option<Entry<K, V>>>,
    /// Free slot indices available for reuse.
    free: Vec<usize>,
    /// Key → slot index.
    index: HashMap<K, usize>,
    /// CLOCK hand position (next slot to inspect).
    hand: usize,
    occupancy_bytes: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    shed_inserts: u64,
    shed_bytes: u64,
}

impl<K: Hash + Eq + Clone, V> Inner<K, V> {
    /// Evict one CLOCK victim, returning its freed bytes; `None` when
    /// the cache is empty. Referenced entries get their bit cleared and
    /// a second chance; after one full clearing sweep some entry is
    /// unreferenced, so this terminates in at most two passes.
    fn evict_one(&mut self) -> Option<u64> {
        if self.index.is_empty() {
            return None;
        }
        for _ in 0..self.slots.len() * 2 {
            let at = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            match &mut self.slots[at] {
                None => continue,
                Some(entry) if entry.referenced => entry.referenced = false,
                Some(_) => {
                    let entry = self.slots[at].take().expect("matched Some");
                    self.index.remove(&entry.key);
                    self.free.push(at);
                    self.occupancy_bytes -= entry.bytes;
                    self.evictions += 1;
                    return Some(entry.bytes);
                }
            }
        }
        None
    }

    /// Remove `key` if resident, returning its freed bytes.
    fn remove(&mut self, key: &K) -> Option<u64> {
        let at = self.index.remove(key)?;
        let entry = self.slots[at].take().expect("indexed slot is occupied");
        self.free.push(at);
        self.occupancy_bytes -= entry.bytes;
        Some(entry.bytes)
    }
}

/// A budget-bounded content-addressed cache with CLOCK eviction and
/// per-entry byte accounting.
///
/// `K` is the content address (hash of the inputs the value is a pure
/// function of); `V` is the cached artifact, cloned out on hit — use an
/// `Arc` for anything heavier than a pointer pair.
pub struct Cache<K, V> {
    inner: Mutex<Inner<K, V>>,
    budget_bytes: u64,
    ledger: Option<Arc<dyn BudgetLedger>>,
}

impl<K, V> fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache").field("budget_bytes", &self.budget_bytes).finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// A cache holding at most `budget_bytes` of entry weight, accounted
    /// only against itself.
    pub fn new(budget_bytes: u64) -> Cache<K, V> {
        Cache::with_ledger_opt(budget_bytes, None)
    }

    /// A cache that additionally charges every resident byte to
    /// `ledger`. An insert the ledger cannot fund first evicts the
    /// cache's own entries (returning their bytes to the ledger) and is
    /// shed if that is still not enough — the cache never forces the
    /// ledger's other tenants out.
    pub fn with_ledger(budget_bytes: u64, ledger: Arc<dyn BudgetLedger>) -> Cache<K, V> {
        Cache::with_ledger_opt(budget_bytes, Some(ledger))
    }

    fn with_ledger_opt(budget_bytes: u64, ledger: Option<Arc<dyn BudgetLedger>>) -> Cache<K, V> {
        Cache {
            inner: Mutex::new(Inner {
                slots: Vec::new(),
                free: Vec::new(),
                index: HashMap::new(),
                hand: 0,
                occupancy_bytes: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                shed_inserts: 0,
                shed_bytes: 0,
            }),
            budget_bytes,
            ledger,
        }
    }

    /// Look up `key`, marking it recently used.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_if(key, |_| true)
    }

    /// Look up `key` and keep the entry only if `accept` holds for its
    /// value: a hit (marked recently used) when it does, a miss when the
    /// key is absent or `accept` refuses. For keys that are a hash of
    /// something longer, `accept` compares the full input.
    pub fn get_if(&self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut inner = self.inner();
        let found = inner.index.get(key).copied();
        let entry = found.map(|at| inner.slots[at].as_mut().expect("indexed slot is occupied"));
        match entry.filter(|entry| accept(&entry.value)) {
            Some(entry) => {
                entry.referenced = true;
                let value = entry.value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert `key → value`, declaring `bytes` of modeled weight.
    /// Evicts per entry until both the cache budget and the external
    /// ledger can fund it; returns `false` (and counts a shed insert)
    /// when they cannot — an over-budget entry, or a ledger drained by
    /// its other tenants. Re-inserting a resident key replaces it.
    pub fn insert(&self, key: K, value: V, bytes: u64) -> bool {
        let bytes = bytes.max(1);
        let mut inner = self.inner();
        if let Some(freed) = inner.remove(&key) {
            self.release_ledger(freed);
        }
        if bytes > self.budget_bytes {
            inner.shed_inserts += 1;
            return false;
        }
        // Stay under our own budget first…
        while inner.occupancy_bytes + bytes > self.budget_bytes {
            let Some(freed) = inner.evict_one() else {
                inner.shed_inserts += 1;
                return false;
            };
            self.release_ledger(freed);
        }
        // …then fund the entry through the shared ledger, trading our
        // own coldest entries for room rather than squeezing the
        // ledger's other tenants.
        if let Some(ledger) = &self.ledger {
            while !ledger.try_charge(bytes) {
                let Some(freed) = inner.evict_one() else {
                    inner.shed_inserts += 1;
                    return false;
                };
                ledger.release(freed);
            }
        }
        let at = match inner.free.pop() {
            Some(at) => at,
            None => {
                inner.slots.push(None);
                inner.slots.len() - 1
            }
        };
        inner.index.insert(key.clone(), at);
        inner.slots[at] = Some(Entry { key, value, bytes, referenced: false });
        inner.occupancy_bytes += bytes;
        inner.insertions += 1;
        true
    }

    /// Evict entries (CLOCK order) until at least `bytes` have been
    /// freed back to the ledger, or the cache is empty. Returns the
    /// bytes actually freed. This is the pressure valve the serve layer
    /// pulls when admission would otherwise reject a job while the
    /// cache sits on reclaimable budget.
    pub fn shed(&self, bytes: u64) -> u64 {
        let mut inner = self.inner();
        let mut freed = 0u64;
        while freed < bytes {
            let Some(f) = inner.evict_one() else { break };
            self.release_ledger(f);
            freed += f;
        }
        inner.shed_bytes += freed;
        freed
    }

    /// Drop every entry, returning all bytes to the ledger. Counters
    /// survive (a flush is not a restart).
    pub fn clear(&self) {
        let mut inner = self.inner();
        while let Some(freed) = inner.evict_one() {
            self.release_ledger(freed);
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner().index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is resident, without touching hit/miss counters or
    /// the referenced bit.
    pub fn contains(&self, key: &K) -> bool {
        self.inner().index.contains_key(key)
    }

    /// The cache's own byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            shed_inserts: inner.shed_inserts,
            shed_bytes: inner.shed_bytes,
            entries: inner.index.len() as u64,
            occupancy_bytes: inner.occupancy_bytes,
            budget_bytes: self.budget_bytes,
        }
    }

    /// The index, recovered if a panicking holder poisoned the lock.
    fn inner(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn release_ledger(&self, bytes: u64) {
        if let Some(ledger) = &self.ledger {
            ledger.release(bytes);
        }
    }
}

impl<K, V> Drop for Cache<K, V> {
    fn drop(&mut self) {
        if let Some(ledger) = &self.ledger {
            let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
            if inner.occupancy_bytes > 0 {
                ledger.release(inner.occupancy_bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    fn stats_of(cache: &Cache<u64, u64>) -> CacheStats {
        cache.stats()
    }

    #[test]
    fn hit_miss_and_replacement() {
        let cache: Cache<u64, u64> = Cache::new(1000);
        assert_eq!(cache.get(&1), None);
        assert!(cache.insert(1, 10, 100));
        assert_eq!(cache.get(&1), Some(10));
        // Replacement swaps the value and re-accounts the bytes.
        assert!(cache.insert(1, 11, 200));
        assert_eq!(cache.get(&1), Some(11));
        let s = stats_of(&cache);
        assert_eq!((s.hits, s.misses, s.entries, s.occupancy_bytes), (2, 1, 1, 200));
        assert_eq!(s.hit_rate(), 2.0 / 3.0);
    }

    #[test]
    fn refused_entry_is_a_miss_and_stays_resident() {
        let cache: Cache<u64, u64> = Cache::new(1000);
        assert!(cache.insert(1, 10, 100));
        assert_eq!(cache.get_if(&1, |v| *v == 11), None);
        assert_eq!(cache.get_if(&2, |_| true), None);
        assert_eq!(cache.get_if(&1, |v| *v == 10), Some(10));
        let s = stats_of(&cache);
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn per_entry_eviction_stays_under_budget() {
        let cache: Cache<u64, u64> = Cache::new(300);
        for k in 0..10 {
            assert!(cache.insert(k, k, 100));
            assert!(cache.stats().occupancy_bytes <= 300);
        }
        // 10 inserts of 100 B against 300 B: 7 evictions, 3 resident.
        let s = stats_of(&cache);
        assert_eq!((s.entries, s.evictions, s.occupancy_bytes), (3, 7, 300));
    }

    #[test]
    fn oversized_entry_is_shed_not_inserted() {
        let cache: Cache<u64, u64> = Cache::new(100);
        assert!(cache.insert(1, 1, 60));
        assert!(!cache.insert(2, 2, 101));
        // The resident entry survived the failed insert.
        assert_eq!(cache.get(&1), Some(1));
        assert_eq!(stats_of(&cache).shed_inserts, 1);
    }

    /// The regression the serve plan cache migration exists for: under
    /// sustained cap pressure from one-shot fillers, a key that is
    /// re-read every round must stay resident. The old
    /// `HashMap` + wholesale `clear()` design dropped it with
    /// everything else each time the cap was reached.
    #[test]
    fn hot_key_survives_cap_pressure() {
        let cache: Cache<u64, u64> = Cache::new(400);
        let hot = 999;
        assert!(cache.insert(hot, 1, 100));
        assert_eq!(cache.get(&hot), Some(1));
        for filler in 0..64 {
            assert!(cache.insert(filler, 0, 100));
            // The workload re-reads the hot key between fillers — that
            // touch is what keeps its referenced bit set.
            assert_eq!(cache.get(&hot), Some(1), "hot key evicted after filler {filler}");
        }
        let s = stats_of(&cache);
        assert!(s.evictions >= 60, "fillers should churn: {s:?}");
        assert!(cache.contains(&hot));
    }

    #[test]
    fn cold_fillers_evict_before_the_referenced_entry() {
        let cache: Cache<u64, u64> = Cache::new(200);
        cache.insert(1, 1, 100);
        assert_eq!(cache.get(&1), Some(1)); // referenced
        cache.insert(2, 2, 100); // unreferenced
        cache.insert(3, 3, 100); // must evict 2 (cold), not 1 (hot)
        assert!(cache.contains(&1));
        assert!(!cache.contains(&2));
        assert!(cache.contains(&3));
    }

    #[test]
    fn shed_frees_at_least_the_requested_bytes() {
        let cache: Cache<u64, u64> = Cache::new(1000);
        for k in 0..8 {
            cache.insert(k, k, 100);
        }
        let freed = cache.shed(250);
        assert!(freed >= 250, "{freed}");
        let s = stats_of(&cache);
        assert_eq!(s.occupancy_bytes, 800 - freed);
        assert_eq!(s.shed_bytes, freed);
        // Shedding an empty cache frees nothing and does not spin.
        cache.clear();
        assert_eq!(cache.shed(1 << 40), 0);
    }

    /// A fixed-size ledger another tenant can also charge.
    #[derive(Debug)]
    struct LocalBudget {
        budget_bytes: u64,
        used_bytes: AtomicU64,
    }

    impl LocalBudget {
        fn new(budget_bytes: u64) -> LocalBudget {
            LocalBudget { budget_bytes, used_bytes: AtomicU64::new(0) }
        }

        fn used_bytes(&self) -> u64 {
            self.used_bytes.load(Ordering::Acquire)
        }
    }

    impl BudgetLedger for LocalBudget {
        fn try_charge(&self, bytes: u64) -> bool {
            let fits = |used: u64| used.checked_add(bytes).filter(|&u| u <= self.budget_bytes);
            self.used_bytes.fetch_update(Ordering::AcqRel, Ordering::Acquire, fits).is_ok()
        }

        fn release(&self, bytes: u64) {
            let less = |used: u64| Some(used.saturating_sub(bytes));
            let _ = self.used_bytes.fetch_update(Ordering::AcqRel, Ordering::Acquire, less);
        }
    }

    #[test]
    fn ledger_backed_cache_trades_its_own_entries_for_room() {
        let ledger = Arc::new(LocalBudget::new(300));
        let cache: Cache<u64, u64> = Cache::with_ledger(1 << 20, ledger.clone());
        for k in 0..5 {
            assert!(cache.insert(k, k, 100));
        }
        // The ledger caps residency at 3 entries even though the
        // cache's own budget would hold all 5.
        let s = cache.stats();
        assert_eq!((s.entries, s.occupancy_bytes), (3, 300));
        assert_eq!(ledger.used_bytes(), 300);
        // An outside tenant takes ledger room; the next insert evicts
        // cache entries to fund itself rather than failing.
        cache.shed(100);
        assert!(ledger.try_charge(100), "shed bytes are reusable by other tenants");
        assert!(cache.insert(100, 100, 100));
        assert_eq!(ledger.used_bytes(), 300);
        // When even a fully drained cache cannot fund the entry (the
        // outside tenant's 100 B leave only 200 B), the insert is shed:
        // only the outside tenant's charge remains on the ledger.
        assert!(!cache.insert(101, 101, 250));
        assert_eq!(ledger.used_bytes(), 100);
        assert!(cache.stats().shed_inserts >= 1);
    }

    #[test]
    fn drop_returns_occupancy_to_the_ledger() {
        let ledger = Arc::new(LocalBudget::new(1000));
        {
            let cache: Cache<u64, u64> = Cache::with_ledger(1000, ledger.clone());
            cache.insert(1, 1, 400);
            assert_eq!(ledger.used_bytes(), 400);
        }
        assert_eq!(ledger.used_bytes(), 0);
    }

    #[test]
    fn concurrent_mixed_traffic_keeps_accounting_consistent() {
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new(10_000));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = (t * 131 + i) % 64;
                        if i % 3 == 0 {
                            cache.insert(k, i, 64 + (k % 7) * 16);
                        } else {
                            let _ = cache.get(&k);
                        }
                        if i % 97 == 0 {
                            cache.shed(200);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.occupancy_bytes <= 10_000);
        assert_eq!(s.entries as usize, cache.len());
    }
}
