//! Sharded LRU cache used for the BlockCache, TableCache, and BoLT's
//! file-descriptor cache.
//!
//! Capacity is expressed in abstract *charge* units: bytes for the
//! BlockCache, entry-count for the TableCache (LevelDB sizes its TableCache
//! "by the number of SSTables, not bytes" — a distinction the paper leans on
//! in §2.6 and §4.3). Values are handed out as `Arc`s so evicted entries stay
//! alive while readers still hold them.
//!
//! A reader's [`Memo`] of the [`CacheNode`]s it last used serves a repeat
//! hit without the shard (no lock, no shared counter, no reference count);
//! see [`CacheNode`] for how misses and LRU standing stay what they were.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sync::CachePadded;

const NUM_SHARDS: usize = 16;

/// The hasher of a shard's map: one multiply-rotate per word. Keys are
/// engine-assigned ids (`table_id`, `(file_number, offset)`,
/// `file_number`), never input an adversary picks, so resistance to
/// collision attacks buys nothing here.
///
/// A multiply mixes each bit only upward, so the product's low bits are its
/// worst: block offsets at 4 KiB strides would share their low twelve.
/// `finish` rotates the well-mixed high bits down to where the map picks a
/// bucket.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

/// An odd constant with well-spread bits (2⁶⁴ / φ).
const ID_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(ID_MULTIPLIER);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// Cache hit/miss/eviction counts at one instant: the sum of every shard's
/// own counters (see [`LruCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheStats {
    /// Number of `get` calls that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of `get` calls that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// These counts with the `hits` [`Memo`]s in front of the cache served.
    pub fn with_memo_hits(self, hits: u64) -> CacheStats {
        CacheStats {
            hits: self.hits + hits,
            ..self
        }
    }

    /// Hit ratio in `[0, 1]`; 0 when the cache was never queried.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// One cached value, as the cache and its readers' memos share it. The
/// shard clears `resident` when it evicts, erases or replaces the entry,
/// and a memo never serves a node without it; a memo hit sets `referenced`
/// (only when clear), and eviction gives a referenced tail entry a second
/// chance.
pub struct CacheNode<V> {
    value: Arc<V>,
    resident: AtomicBool,
    referenced: AtomicBool,
}

impl<V> CacheNode<V> {
    fn new(value: Arc<V>, resident: bool) -> Self {
        CacheNode {
            value,
            resident: AtomicBool::new(resident),
            referenced: AtomicBool::new(false),
        }
    }

    /// A node no cache holds: a memo never serves it.
    pub fn detached(value: Arc<V>) -> Arc<Self> {
        Arc::new(CacheNode::new(value, false))
    }

    /// The cached value.
    pub fn value(&self) -> &Arc<V> {
        &self.value
    }

    /// Whether the cache still holds this node.
    fn is_resident(&self) -> bool {
        self.resident.load(Ordering::Relaxed)
    }

    /// A memo hit: `false` once the cache let the node go.
    fn touch(&self) -> bool {
        if !self.is_resident() {
            return false;
        }
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed);
        }
        true
    }
}

struct Entry<K, V> {
    key: K,
    node: Arc<CacheNode<V>>,
    charge: u64,
    prev: usize,
    next: usize,
}

impl<K, V> Entry<K, V> {
    /// Take the entry out of the cache: no memo serves its node after this.
    fn retire(self) -> u64 {
        self.node.resident.store(false, Ordering::Relaxed);
        self.charge
    }
}

const NIL: usize = usize::MAX;

struct Shard<K, V> {
    map: HashMap<K, usize, IdBuildHasher>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    usage: u64,
    capacity: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn new(capacity: u64) -> Self {
        Shard {
            map: HashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            usage: 0,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.slab[idx].as_ref().expect("linked entry");
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev].as_mut().expect("prev").next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].as_mut().expect("next").prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let e = self.slab[idx].as_mut().expect("entry");
            e.prev = NIL;
            e.next = self.head;
        }
        if self.head != NIL {
            self.slab[self.head].as_mut().expect("head").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Evict the least recently used entry no memo served since it was last
    /// promoted: a referenced tail entry loses its mark and moves to the
    /// front instead (its second chance).
    fn evict_lru(&mut self) -> bool {
        loop {
            let victim = self.tail;
            if victim == NIL {
                return false;
            }
            let referenced = &self.slab[victim]
                .as_ref()
                .expect("tail entry")
                .node
                .referenced;
            if referenced.swap(false, Ordering::Relaxed) && self.head != victim {
                self.unlink(victim);
                self.push_front(victim);
                continue;
            }
            self.unlink(victim);
            let entry = self.slab[victim].take().expect("victim entry");
            self.map.remove(&entry.key);
            self.usage -= entry.retire();
            self.free.push(victim);
            return true;
        }
    }

    /// Insert, evicting from the LRU end; returns the new node and how many
    /// entries went.
    fn insert(&mut self, key: K, value: Arc<V>, charge: u64) -> (Arc<CacheNode<V>>, u64) {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            let old = self.slab[idx].take().expect("existing entry");
            self.usage -= old.retire();
            self.free.push(idx);
            self.map.remove(&key);
        }
        let mut evicted = 0;
        while self.usage + charge > self.capacity && self.evict_lru() {
            evicted += 1;
        }
        // Even an oversized entry is admitted (LevelDB semantics): it will be
        // the next eviction victim.
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        let node = Arc::new(CacheNode::new(value, true));
        self.slab[idx] = Some(Entry {
            key: key.clone(),
            node: Arc::clone(&node),
            charge,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.usage += charge;
        self.push_front(idx);
        (node, evicted)
    }

    fn get(&mut self, key: &K) -> Option<&Arc<CacheNode<V>>> {
        let idx = *self.map.get(key)?;
        // The most recent entry stays where it is: a repeated hit writes no
        // list link.
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        // Promoted, the entry's earlier memo hits are behind it: no second
        // chance for them.
        let node = &self.slab[idx].as_ref().expect("entry").node;
        if node.referenced.load(Ordering::Relaxed) {
            node.referenced.store(false, Ordering::Relaxed);
        }
        Some(node)
    }

    fn erase(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.remove(key) else {
            return false;
        };
        self.unlink(idx);
        let entry = self.slab[idx].take().expect("entry");
        self.usage -= entry.retire();
        self.free.push(idx);
        true
    }
}

/// One shard's counters and lock, on cache lines of their own: the counters
/// come first, beside the lock word, and a lookup bumps them before it
/// unlocks, so a hit writes one line its lock already owns.
#[repr(C)]
struct ShardSlot<K, V> {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    shard: Mutex<Shard<K, V>>,
}

/// A sharded, thread-safe LRU cache with charge-based capacity.
pub struct LruCache<K, V> {
    shards: Vec<CachePadded<ShardSlot<K, V>>>,
}

impl<K: Hash + Eq + Clone, V> std::fmt::Debug for LruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("LruCache")
            .field("usage", &self.usage())
            .field("hits", &stats.hits())
            .field("misses", &stats.misses())
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` charge units in total:
    /// `min(16, capacity)` shards (one for a capacity of 0) that split it
    /// exactly, the first `capacity % shards` holding one unit more.
    pub fn new(capacity: u64) -> Self {
        let shards = capacity.clamp(1, NUM_SHARDS as u64);
        LruCache {
            shards: (0..shards)
                .map(|i| {
                    let share = capacity / shards + u64::from(i < capacity % shards);
                    CachePadded(ShardSlot {
                        hits: AtomicU64::new(0),
                        misses: AtomicU64::new(0),
                        evictions: AtomicU64::new(0),
                        shard: Mutex::new(Shard::new(share)),
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &ShardSlot<K, V> {
        &self.shards[self.shard_index(key)]
    }

    /// The shard of `key`. Placement keeps `DefaultHasher`: in a cache of a
    /// few entries per shard (a table cache of a few slots is one slot per
    /// shard) it decides which keys evict each other, so it is part of the
    /// cache's observable hit ratio, not only of its cost.
    fn shard_index(&self, key: &K) -> usize {
        (BuildHasherDefault::<DefaultHasher>::default().hash_one(key) as usize) % self.shards.len()
    }

    /// Insert `value` under `key` with the given `charge`, evicting LRU
    /// entries as needed. Replaces any existing entry for `key`. Returns the
    /// new entry's node, for a reader's [`Memo`].
    pub fn insert(&self, key: K, value: Arc<V>, charge: u64) -> Arc<CacheNode<V>> {
        let slot = self.shard(&key);
        let mut shard = slot.shard.lock();
        let (node, evicted) = shard.insert(key, value, charge);
        slot.evictions.fetch_add(evicted, Ordering::Relaxed);
        node
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.lookup(key, |node| Arc::clone(&node.value))
    }

    /// [`get`](Self::get), handing out the entry's node.
    pub fn get_node(&self, key: &K) -> Option<Arc<CacheNode<V>>> {
        self.lookup(key, Arc::clone)
    }

    /// A counted lookup; `take` copies out what the caller keeps, under the
    /// shard lock.
    fn lookup<T>(&self, key: &K, take: impl FnOnce(&Arc<CacheNode<V>>) -> T) -> Option<T> {
        let slot = self.shard(key);
        let mut shard = slot.shard.lock();
        let result = shard.get(key).map(take);
        let counter = if result.is_some() {
            &slot.hits
        } else {
            &slot.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Remove `key`; returns whether it was present.
    pub fn erase(&self, key: &K) -> bool {
        self.shard(key).shard.lock().erase(key)
    }

    /// The values of the entries whose keys `pred` accepts, read under each
    /// shard's lock without a lookup: no hit or miss is counted and no
    /// entry is promoted.
    pub fn values_where(&self, mut pred: impl FnMut(&K) -> bool) -> Vec<Arc<V>> {
        let mut found = Vec::new();
        for slot in &self.shards {
            let shard = slot.shard.lock();
            for (_, &idx) in shard.map.iter().filter(|(key, _)| pred(key)) {
                found.push(Arc::clone(
                    &shard.slab[idx].as_ref().expect("entry").node.value,
                ));
            }
        }
        found
    }

    /// Total charge currently held.
    pub fn usage(&self) -> u64 {
        self.shards.iter().map(|s| s.shard.lock().usage).sum()
    }

    /// Hit/miss/eviction counters: every shard's, summed now.
    pub fn stats(&self) -> CacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        self.shards
            .iter()
            .fold(CacheStats::default(), |sum, s| CacheStats {
                hits: sum.hits + load(&s.hits),
                misses: sum.misses + load(&s.misses),
                evictions: sum.evictions + load(&s.evictions),
            })
    }
}

/// Slots of a [`Memo`] set: a key may sit in any of its set's four.
const MEMO_WAYS: usize = 4;

/// A key and the node memoized under it, or nothing.
type MemoSlot<K, V> = Option<(K, Arc<CacheNode<V>>)>;

/// A reader's own memo of the [`CacheNode`]s it last used, in front of an
/// [`LruCache`]: it serves and counts a hit while the cache holds the node.
/// Sets of four slots, the oldest of a full set displaced first; it keeps a
/// node alive until displaced, so at most its slots outlive the cache.
pub struct Memo<K, V> {
    slots: Box<[MemoSlot<K, V>]>,
    hits: u64,
}

impl<K: Hash + Eq, V> Memo<K, V> {
    /// A memo of at least `slots` slots (a power of two of sets of four).
    pub fn new(slots: usize) -> Self {
        let sets = slots.div_ceil(MEMO_WAYS).next_power_of_two();
        Memo {
            slots: (0..sets * MEMO_WAYS).map(|_| None).collect(),
            hits: 0,
        }
    }

    /// The slot range of `key`'s set.
    fn set_of(&self, key: &K) -> std::ops::Range<usize> {
        let sets = (self.slots.len() / MEMO_WAYS) as u64;
        let first = (IdBuildHasher::default().hash_one(key) & (sets - 1)) as usize * MEMO_WAYS;
        first..first + MEMO_WAYS
    }

    /// The node memoized under `key`, while its cache holds it: a hit,
    /// counted here. Writes nothing shared but a clear referenced mark.
    pub fn get(&mut self, key: &K) -> Option<&Arc<CacheNode<V>>> {
        let set = self.set_of(key);
        let (_, node) = self.slots[set].iter().flatten().find(|(k, _)| k == key)?;
        if !node.touch() {
            return None;
        }
        self.hits += 1;
        Some(node)
    }

    /// Memoize `node` under `key` in place of an empty, non-resident or
    /// same-key slot of its set, else of the oldest. Returns what left the
    /// memo (`node` itself when no cache holds it), to be dropped off the
    /// memo's lock: it may be a cached value's last reference.
    pub fn fill(&mut self, key: K, node: Arc<CacheNode<V>>) -> Option<Arc<CacheNode<V>>> {
        if !node.is_resident() {
            return Some(node);
        }
        let set = self.set_of(&key);
        let set = &mut self.slots[set];
        let victim = set
            .iter()
            .position(|slot| {
                slot.as_ref()
                    .is_none_or(|(k, held)| !held.is_resident() || *k == key)
            })
            .unwrap_or(MEMO_WAYS - 1);
        set[..=victim].rotate_right(1);
        set[0].replace((key, node)).map(|(_, displaced)| displaced)
    }

    /// Stop holding `key`'s node; returns it, to be dropped off the lock as
    /// [`fill`](Self::fill)'s.
    pub fn forget(&mut self, key: &K) -> Option<Arc<CacheNode<V>>> {
        let set = self.set_of(key);
        let slot = self.slots[set]
            .iter_mut()
            .find(|slot| slot.as_ref().is_some_and(|(k, _)| k == key))?;
        slot.take().map(|(_, node)| node)
    }

    /// Lookups this memo served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The values it keeps alive that no cache holds any more.
    pub fn detached(&self) -> impl Iterator<Item = &V> {
        self.slots
            .iter()
            .flatten()
            .filter(|(_, node)| !node.is_resident())
            .map(|(_, node)| &*node.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: u64) -> LruCache<u64, u64> {
        LruCache::new(capacity)
    }

    #[test]
    fn insert_get_erase() {
        let c = cache(1024);
        c.insert(1, Arc::new(100), 1);
        c.insert(2, Arc::new(200), 1);
        assert_eq!(*c.get(&1).unwrap(), 100);
        assert_eq!(*c.get(&2).unwrap(), 200);
        assert!(c.get(&3).is_none());
        assert!(c.erase(&1));
        assert!(!c.erase(&1));
        assert!(c.get(&1).is_none());
    }

    #[test]
    fn replacement_updates_charge() {
        let c = cache(1024);
        c.insert(1, Arc::new(1), 10);
        c.insert(1, Arc::new(2), 20);
        assert_eq!(*c.get(&1).unwrap(), 2);
        assert_eq!(c.usage(), 20);
    }

    #[test]
    fn eviction_is_lru_within_shard() {
        // Single-key-space trick: all keys map to some shard; use a cache with
        // tiny capacity so per-shard capacity is 1 charge unit.
        let c: LruCache<u64, u64> = LruCache::new(16); // 1 per shard
                                                       // Find two keys in the same shard.
        let base = 0u64;
        let other = (1..10_000u64)
            .find(|candidate| c.shard_index(candidate) == c.shard_index(&base))
            .expect("two keys in one shard");
        c.insert(base, Arc::new(1), 1);
        c.insert(other, Arc::new(2), 1);
        // base should have been evicted (capacity 1 per shard).
        assert!(c.get(&base).is_none());
        assert_eq!(*c.get(&other).unwrap(), 2);
        assert!(c.stats().evictions() >= 1);
    }

    #[test]
    fn get_promotes_entry() {
        let c: LruCache<u64, u64> = LruCache::new(32); // 2 per shard
                                                       // Three keys in one shard: after touching the first, inserting the
                                                       // third should evict the second.
        let mut keys = Vec::new();
        let mut target_shard = None;
        for candidate in 0..100_000u64 {
            let shard = c.shard_index(&candidate);
            match target_shard {
                None => {
                    target_shard = Some(shard);
                    keys.push(candidate);
                }
                Some(t) if shard == t => keys.push(candidate),
                _ => {}
            }
            if keys.len() == 3 {
                break;
            }
        }
        let [a, b, x]: [u64; 3] = keys.try_into().unwrap();
        c.insert(a, Arc::new(1), 1);
        c.insert(b, Arc::new(2), 1);
        assert!(c.get(&a).is_some()); // promote a
        c.insert(x, Arc::new(3), 1); // evicts b, not a
        assert!(c.get(&a).is_some());
        assert!(c.get(&b).is_none());
        assert!(c.get(&x).is_some());
    }

    /// Engine-assigned ids reach every shard evenly: sequential table ids,
    /// and block keys of a few files at about 4 KiB strides.
    #[test]
    fn ids_spread_over_every_shard() {
        fn spread<K: Hash + Eq + Clone>(keys: impl Iterator<Item = K>) {
            let c: LruCache<K, ()> = LruCache::new(NUM_SHARDS as u64);
            let mut counts = [0usize; NUM_SHARDS];
            for key in keys {
                counts[c.shard_index(&key)] += 1;
            }
            let mean = counts.iter().sum::<usize>() as f64 / NUM_SHARDS as f64;
            let max = *counts.iter().max().unwrap() as f64;
            assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
            assert!(max <= 1.3 * mean, "{counts:?}");
        }
        spread(0..2_000u64);
        // Data blocks a little over 4 KiB apart, 2,000 per file.
        spread((0..20_000u64).map(|i| (7 + i / 2_000, (i % 2_000) * 4_101)));
        spread((0..20_000u64).map(|i| (7 + i / 2_000, (i % 2_000) * 4_096)));
    }

    /// A cache holds at most its capacity: the shards' capacities sum to
    /// it, and a cache of fewer entries than shards has one shard per entry.
    #[test]
    fn shard_capacities_sum_to_the_capacity() {
        for capacity in (1..=64u64).chain([2 << 20]) {
            let c = cache(capacity);
            let shares: Vec<u64> = c.shards.iter().map(|s| s.shard.lock().capacity).collect();
            assert_eq!(shares.iter().sum::<u64>(), capacity, "{shares:?}");
            assert_eq!(shares.len() as u64, capacity.min(NUM_SHARDS as u64));
            assert!(shares.iter().all(|&share| share >= 1), "{shares:?}");
        }
        // Filled with unit entries it holds exactly `capacity` of them.
        let c = cache(4);
        for key in 0..1_000u64 {
            c.insert(key, Arc::new(key), 1);
        }
        assert_eq!(c.usage(), 4);
    }

    #[test]
    fn evicted_value_stays_alive_through_arc() {
        let c: LruCache<u64, Vec<u8>> = LruCache::new(16);
        c.insert(7, Arc::new(vec![1, 2, 3]), 1);
        let held = c.get(&7).unwrap();
        for i in 100..200 {
            c.insert(i, Arc::new(vec![0]), 1);
        }
        assert_eq!(*held, vec![1, 2, 3]);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let c = cache(1024);
        c.insert(1, Arc::new(1), 1);
        let _ = c.get(&1);
        let _ = c.get(&2);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
        // Every shard counts its own lookups; `stats` is their sum.
        for k in 10..110 {
            c.insert(k, Arc::new(k), 1);
        }
        for k in 10..160 {
            let _ = c.get(&k);
        }
        let stats = c.stats();
        assert_eq!((stats.hits(), stats.misses()), (101, 51));
        assert_eq!(stats.evictions(), 0);
    }

    /// Keys `n` keys of one shard of `c`.
    fn same_shard(c: &LruCache<u64, u64>, n: usize) -> Vec<u64> {
        let shard = c.shard_index(&0);
        (0..100_000u64)
            .filter(|key| c.shard_index(key) == shard)
            .take(n)
            .collect()
    }

    /// After an evict, an erase or a replace the memo no longer serves the
    /// node: the next lookup goes to the cache, which counts it.
    #[test]
    fn a_memo_serves_no_node_the_cache_let_go() {
        let c: LruCache<u64, u64> = LruCache::new(16); // one entry a shard
        let keys = same_shard(&c, 2);
        let mut memo = Memo::new(8);
        assert!(memo
            .fill(keys[0], c.insert(keys[0], Arc::new(1), 1))
            .is_none());
        assert_eq!(memo.get(&keys[0]).map(|n| **n.value()), Some(1));
        c.insert(keys[1], Arc::new(2), 1); // evicts keys[0]
        assert!(memo.get(&keys[0]).is_none());
        assert_eq!(memo.detached().copied().collect::<Vec<_>>(), [1]);

        let node = c.insert(keys[1], Arc::new(3), 1); // replaces keys[1]
        memo.fill(keys[1], c.get_node(&keys[1]).unwrap());
        c.insert(keys[1], Arc::new(4), 1);
        assert!(memo.get(&keys[1]).is_none() && !node.is_resident());
        memo.fill(keys[1], c.get_node(&keys[1]).unwrap());
        assert_eq!(memo.get(&keys[1]).map(|n| **n.value()), Some(4));
        assert!(c.erase(&keys[1]));
        assert!(memo.get(&keys[1]).is_none());
        assert_eq!(memo.hits(), 2);
        assert_eq!((c.stats().hits(), c.stats().misses()), (2, 0));
        assert!(memo.forget(&keys[1]).is_some());
        assert!(memo.forget(&keys[1]).is_none());
    }

    /// The second chance: an entry hit only through a memo keeps its place
    /// while inserts into its shard evict the entries nobody touched; one
    /// that no memo serves goes first.
    #[test]
    fn a_memo_hit_entry_survives_a_burst_that_evicts_untouched_ones() {
        let c: LruCache<u64, u64> = LruCache::new(3 * NUM_SHARDS as u64);
        let keys = same_shard(&c, 12);
        let (hot, untouched, burst) = (keys[0], keys[1], &keys[2..]);
        let mut memo = Memo::new(8);
        memo.fill(hot, c.insert(hot, Arc::new(0), 1));
        c.insert(untouched, Arc::new(1), 1); // `hot` is the LRU tail now
        for &key in burst {
            assert!(memo.get(&hot).is_some(), "evicted before {key}");
            c.insert(key, Arc::new(key), 1);
        }
        assert!(memo.get(&hot).is_some());
        assert!(c.get(&untouched).is_none());
        assert_eq!(c.stats().evictions(), burst.len() as u64 - 1);

        // Without the memo's hits, the oldest entry is the first to go.
        let c: LruCache<u64, u64> = LruCache::new(3 * NUM_SHARDS as u64);
        let _unserved = c.insert(hot, Arc::new(0), 1);
        c.insert(untouched, Arc::new(1), 1);
        c.insert(burst[0], Arc::new(2), 1);
        c.insert(burst[1], Arc::new(3), 1);
        assert!(c.get(&hot).is_none() && c.get(&untouched).is_some());
    }

    /// More threads than reader slots, each looking up through its slot's
    /// memo and inserting and erasing behind it: every lookup is counted
    /// once — a memo hit, or a shard hit or miss — and the resident charge
    /// never exceeds the capacity.
    #[test]
    fn memo_and_shard_count_every_lookup_once() {
        use crate::sync::{Mutex, PerReader, READER_SLOTS};
        const CAPACITY: u64 = 64;
        let c: LruCache<u64, u64> = LruCache::new(CAPACITY);
        let memos = PerReader::new(|| Mutex::new(Memo::new(16)));
        let lookups: u64 = std::thread::scope(|s| {
            let threads: Vec<_> = (0..READER_SLOTS as u64 + 2)
                .map(|t| {
                    let (c, memos) = (&c, &memos);
                    s.spawn(move || {
                        let mut lookups = 0;
                        for i in 0..20_000u64 {
                            let key = (t * 31 + i * 7) % 96;
                            match i % 8 {
                                0 => {
                                    c.insert(key, Arc::new(key), 1);
                                }
                                1 => {
                                    c.erase(&key);
                                }
                                _ => {
                                    lookups += 1;
                                    let mut memo = memos.mine().lock();
                                    if let Some(node) = memo.get(&key) {
                                        assert_eq!(**node.value(), key);
                                        continue;
                                    }
                                    drop(memo);
                                    if let Some(node) = c.get_node(&key) {
                                        let displaced = memos.mine().lock().fill(key, node);
                                        drop(displaced);
                                    }
                                }
                            }
                            if i % 1_000 == 0 {
                                assert!(c.usage() <= CAPACITY, "{}", c.usage());
                            }
                        }
                        lookups
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        let memo_hits: u64 = memos.all().map(|memo| memo.lock().hits()).sum();
        let stats = c.stats();
        assert!(memo_hits > 0 && stats.hits() > 0 && stats.misses() > 0);
        assert_eq!(memo_hits + stats.hits() + stats.misses(), lookups);
        assert!(c.usage() <= CAPACITY);
    }

    #[test]
    fn concurrent_access() {
        let c = Arc::new(cache(1 << 16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let k = (t * 1000 + i) % 4096;
                        if i % 3 == 0 {
                            c.insert(k, Arc::new(k), 1);
                        } else if i % 3 == 1 {
                            let _ = c.get(&k);
                        } else {
                            let _ = c.erase(&k);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
