//! Sharded LRU cache used for the BlockCache, TableCache, and BoLT's
//! file-descriptor cache.
//!
//! Capacity is expressed in abstract *charge* units: bytes for the
//! BlockCache, entry-count for the TableCache (LevelDB sizes its TableCache
//! "by the number of SSTables, not bytes" — a distinction the paper leans on
//! in §2.6 and §4.3). Values are handed out as `Arc`s so evicted entries stay
//! alive while readers still hold them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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

struct Entry<K, V> {
    key: K,
    value: Arc<V>,
    charge: u64,
    prev: usize,
    next: usize,
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

    fn evict_lru(&mut self) -> bool {
        let victim = self.tail;
        if victim == NIL {
            return false;
        }
        self.unlink(victim);
        let entry = self.slab[victim].take().expect("victim entry");
        self.map.remove(&entry.key);
        self.usage -= entry.charge;
        self.free.push(victim);
        true
    }

    /// Insert, evicting from the LRU end; returns how many entries went.
    fn insert(&mut self, key: K, value: Arc<V>, charge: u64) -> u64 {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            let old = self.slab[idx].take().expect("existing entry");
            self.usage -= old.charge;
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
        self.slab[idx] = Some(Entry {
            key: key.clone(),
            value,
            charge,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, idx);
        self.usage += charge;
        self.push_front(idx);
        evicted
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let idx = *self.map.get(key)?;
        // The most recent entry stays where it is: a repeated hit writes no
        // list link.
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(Arc::clone(&self.slab[idx].as_ref().expect("entry").value))
    }

    fn erase(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.remove(key) else {
            return false;
        };
        self.unlink(idx);
        let entry = self.slab[idx].take().expect("entry");
        self.usage -= entry.charge;
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
    /// entries as needed. Replaces any existing entry for `key`.
    pub fn insert(&self, key: K, value: Arc<V>, charge: u64) {
        let slot = self.shard(&key);
        let mut shard = slot.shard.lock();
        let evicted = shard.insert(key, value, charge);
        slot.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let slot = self.shard(key);
        let mut shard = slot.shard.lock();
        let result = shard.get(key);
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
