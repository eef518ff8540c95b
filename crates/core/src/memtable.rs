//! The MemTable: an arena-backed skiplist of internal-key entries.
//!
//! Entries are encoded as
//! `varint32(internal_key_len) internal_key varint32(value_len) value`
//! and ordered by the internal-key comparator, exactly as in LevelDB's
//! `db/memtable.cc`. Writers are serialized by the engine's write path;
//! readers are lock-free.

use std::cmp::Ordering;
use std::sync::atomic::{self, AtomicBool};
use std::sync::{Arc, RwLock};

use bolt_common::coding::{get_varint32, put_varint32};
use bolt_common::skiplist::{Iter as SkipIter, SkipList};
use bolt_table::comparator::compare_internal;
use bolt_table::ikey::{
    lookup_key, make_internal_key, parse_internal_key, SequenceNumber, ValueType,
};
use bolt_table::rangedel::RangeTombstone;

fn decode_entry(entry: &[u8]) -> (&[u8], &[u8]) {
    let (klen, n) = get_varint32(entry).expect("memtable entry klen");
    let key_end = n + klen as usize;
    let key = &entry[n..key_end];
    let (vlen, m) = get_varint32(&entry[key_end..]).expect("memtable entry vlen");
    let value = &entry[key_end + m..key_end + m + vlen as usize];
    (key, value)
}

/// Orders skiplist entries by their internal keys under [`compare_internal`].
struct EntryComparator;

impl bolt_common::skiplist::KeyComparator for EntryComparator {
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        let (ka, _) = decode_entry(a);
        let (kb, _) = decode_entry(b);
        compare_internal(ka, kb)
    }
}

/// Result of a memtable point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// No entry for the user key at or below the snapshot.
    NotFound,
    /// The key was deleted (tombstone) — stop searching older levels.
    Deleted,
    /// The key has this value.
    Value(Vec<u8>),
    /// The key's value lives in the value log; the payload is an encoded
    /// [`crate::vlog::ValuePointer`] the caller must resolve.
    Pointer(Vec<u8>),
}

/// In-memory write buffer.
pub struct MemTable {
    list: SkipList<EntryComparator>,
    /// Side index of range tombstones inserted into the skiplist, so point
    /// lookups and overlay construction need not scan for them. Guarded by
    /// a lock because `add` runs on the (single) write path while readers
    /// query concurrently.
    range_dels: RwLock<Vec<RangeTombstone>>,
    /// Set by the first range tombstone, so that a memtable that never saw
    /// one answers "none" without the lock. Relaxed is enough: a reader
    /// whose snapshot includes the tombstone chose that snapshot from the
    /// `last_sequence` the write path `Release`-stores after `add` returns,
    /// and its `Acquire` load orders this flag with it.
    has_range_dels: AtomicBool,
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("entries", &self.list.len())
            .field("bytes", &self.approximate_memory_usage())
            .finish()
    }
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MemTable {
    /// Create an empty memtable, ordered by [`compare_internal`].
    pub fn new() -> Self {
        MemTable {
            list: SkipList::new(EntryComparator),
            range_dels: RwLock::new(Vec::new()),
            has_range_dels: AtomicBool::new(false),
        }
    }

    /// Bytes reserved by the backing arena — the flush trigger input.
    pub fn approximate_memory_usage(&self) -> u64 {
        self.list.memory_usage() as u64
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// `true` when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Insert a versioned entry. Callers serialize writers (the group-commit
    /// leader is the only writer at any time).
    pub fn add(&self, seq: SequenceNumber, value_type: ValueType, user_key: &[u8], value: &[u8]) {
        let internal_key = make_internal_key(user_key, seq, value_type);
        let mut entry = Vec::with_capacity(internal_key.len() + value.len() + 10);
        put_varint32(&mut entry, internal_key.len() as u32);
        entry.extend_from_slice(&internal_key);
        put_varint32(&mut entry, value.len() as u32);
        entry.extend_from_slice(value);
        self.list.insert(&entry);
        if value_type == ValueType::RangeTombstone {
            self.range_dels
                .write()
                .expect("range_dels lock")
                .push(RangeTombstone {
                    begin: user_key.to_vec(),
                    end: value.to_vec(),
                    sequence: seq,
                });
            self.has_range_dels.store(true, atomic::Ordering::Relaxed);
        }
    }

    fn has_range_dels(&self) -> bool {
        self.has_range_dels.load(atomic::Ordering::Relaxed)
    }

    /// Snapshot of the range tombstones inserted so far.
    pub fn range_tombstones(&self) -> Vec<RangeTombstone> {
        if !self.has_range_dels() {
            return Vec::new();
        }
        self.range_dels.read().expect("range_dels lock").clone()
    }

    /// Number of range tombstones inserted so far.
    pub fn num_range_tombstones(&self) -> usize {
        self.range_dels.read().expect("range_dels lock").len()
    }

    /// Sequence of the newest range tombstone covering `user_key` visible
    /// at `snapshot`, or 0 when none covers it.
    pub fn max_range_del_seq(&self, user_key: &[u8], snapshot: SequenceNumber) -> SequenceNumber {
        if !self.has_range_dels() {
            return 0;
        }
        let dels = self.range_dels.read().expect("range_dels lock");
        dels.iter()
            .filter(|t| t.sequence <= snapshot && t.covers_key(user_key))
            .map(|t| t.sequence)
            .max()
            .unwrap_or(0)
    }

    /// Point lookup visible at `snapshot`.
    pub fn get(&self, user_key: &[u8], snapshot: SequenceNumber) -> LookupResult {
        self.get_with_seq(user_key, snapshot).0
    }

    /// Point lookup visible at `snapshot`, also returning the sequence
    /// number of the found entry (0 for [`LookupResult::NotFound`]) so the
    /// caller can weigh it against the range-tombstone overlay. Range
    /// tombstone entries themselves are never returned: a tombstone whose
    /// begin key equals `user_key` is skipped in favor of the next older
    /// point entry.
    pub fn get_with_seq(
        &self,
        user_key: &[u8],
        snapshot: SequenceNumber,
    ) -> (LookupResult, SequenceNumber) {
        let lk = lookup_key(user_key, snapshot);
        let mut seek_entry = Vec::with_capacity(lk.len() + 5);
        put_varint32(&mut seek_entry, lk.len() as u32);
        seek_entry.extend_from_slice(&lk);
        // Value length varint is not needed for comparison (the comparator
        // only decodes the key part) but the entry must parse.
        put_varint32(&mut seek_entry, 0);

        let mut iter = self.list.iter();
        iter.seek(&seek_entry);
        while iter.valid() {
            let (ikey, value) = decode_entry(iter.key());
            let parsed = parse_internal_key(ikey).expect("valid internal key in memtable");
            if parsed.user_key != user_key {
                return (LookupResult::NotFound, 0);
            }
            let result = match parsed.value_type {
                ValueType::RangeTombstone => {
                    iter.next();
                    continue;
                }
                ValueType::Deletion => LookupResult::Deleted,
                ValueType::Value => LookupResult::Value(value.to_vec()),
                ValueType::ValuePointer => LookupResult::Pointer(value.to_vec()),
            };
            return (result, parsed.sequence);
        }
        (LookupResult::NotFound, 0)
    }

    /// Iterator over `(internal_key, value)` entries in order.
    pub fn iter(self: &Arc<Self>) -> MemTableIter {
        MemTableIter {
            mem: Arc::clone(self),
            iter: unsafe {
                // SAFETY: `iter` borrows `self.list`, which lives as long as
                // the Arc held in `mem`; the transmute erases that internal
                // borrow (self-referential struct pattern).
                std::mem::transmute::<
                    SkipIter<'_, EntryComparator>,
                    SkipIter<'static, EntryComparator>,
                >(self.list.iter())
            },
        }
    }
}

/// Owning iterator over a [`MemTable`].
pub struct MemTableIter {
    #[allow(dead_code)] // keeps the skiplist alive for the erased borrow
    mem: Arc<MemTable>,
    iter: SkipIter<'static, EntryComparator>,
}

impl std::fmt::Debug for MemTableIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTableIter")
            .field("valid", &self.valid())
            .finish()
    }
}

impl MemTableIter {
    /// `true` when positioned on an entry.
    pub fn valid(&self) -> bool {
        self.iter.valid()
    }

    /// Position at the first entry.
    pub fn seek_to_first(&mut self) {
        self.iter.seek_to_first();
    }

    /// Position at the first entry with internal key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        let mut seek_entry = Vec::with_capacity(target.len() + 10);
        put_varint32(&mut seek_entry, target.len() as u32);
        seek_entry.extend_from_slice(target);
        put_varint32(&mut seek_entry, 0);
        self.iter.seek(&seek_entry);
    }

    /// Advance to the next entry.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    pub fn next(&mut self) {
        self.iter.next();
    }

    /// Current internal key.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    pub fn key(&self) -> &[u8] {
        decode_entry(self.iter.key()).0
    }

    /// Current value.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    pub fn value(&self) -> &[u8] {
        decode_entry(self.iter.key()).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_memtable() {
        let mem = MemTable::new();
        assert!(mem.is_empty());
        assert_eq!(mem.get(b"k", 100), LookupResult::NotFound);
    }

    #[test]
    fn add_and_get_latest_version() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"k", b"v1");
        mem.add(2, ValueType::Value, b"k", b"v2");
        assert_eq!(mem.get(b"k", 100), LookupResult::Value(b"v2".to_vec()));
        assert_eq!(mem.get(b"k", 1), LookupResult::Value(b"v1".to_vec()));
        assert_eq!(mem.get(b"other", 100), LookupResult::NotFound);
    }

    #[test]
    fn deletion_shadows_value() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"k", b"v");
        mem.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(mem.get(b"k", 100), LookupResult::Deleted);
        assert_eq!(mem.get(b"k", 1), LookupResult::Value(b"v".to_vec()));
    }

    #[test]
    fn pointer_entries_surface_as_pointer() {
        let mem = MemTable::new();
        mem.add(1, ValueType::ValuePointer, b"k", b"encoded-pointer");
        assert_eq!(
            mem.get(b"k", 100),
            LookupResult::Pointer(b"encoded-pointer".to_vec())
        );
        // A later inline overwrite shadows the pointer entry.
        mem.add(2, ValueType::Value, b"k", b"inline");
        assert_eq!(mem.get(b"k", 100), LookupResult::Value(b"inline".to_vec()));
        assert_eq!(
            mem.get(b"k", 1),
            LookupResult::Pointer(b"encoded-pointer".to_vec())
        );
    }

    #[test]
    fn range_tombstone_entries_skipped_and_indexed() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"b", b"v1");
        mem.add(2, ValueType::RangeTombstone, b"b", b"f");
        mem.add(3, ValueType::Value, b"c", b"v3");
        // The tombstone entry is never surfaced directly: a get of its begin
        // key falls through to the older point entry (the overlay decides
        // deletion at the Db layer).
        assert_eq!(mem.get(b"b", 100), LookupResult::Value(b"v1".to_vec()));
        assert_eq!(
            mem.get_with_seq(b"b", 100),
            (LookupResult::Value(b"v1".to_vec()), 1)
        );
        assert_eq!(
            mem.get_with_seq(b"c", 100),
            (LookupResult::Value(b"v3".to_vec()), 3)
        );
        // Side index: covering and snapshot-aware.
        assert_eq!(mem.max_range_del_seq(b"b", 100), 2);
        assert_eq!(mem.max_range_del_seq(b"e", 100), 2);
        assert_eq!(mem.max_range_del_seq(b"f", 100), 0, "end exclusive");
        assert_eq!(mem.max_range_del_seq(b"c", 1), 0, "older snapshot");
        assert_eq!(mem.range_tombstones().len(), 1);
        assert_eq!(mem.num_range_tombstones(), 1);
    }

    #[test]
    fn snapshot_isolation() {
        let mem = MemTable::new();
        for seq in 1..=50u64 {
            mem.add(seq, ValueType::Value, b"k", format!("v{seq}").as_bytes());
        }
        for snapshot in [1u64, 10, 25, 50] {
            assert_eq!(
                mem.get(b"k", snapshot),
                LookupResult::Value(format!("v{snapshot}").into_bytes())
            );
        }
        assert_eq!(mem.get(b"k", 0), LookupResult::NotFound);
    }

    #[test]
    fn iterator_yields_sorted_internal_keys() {
        let mem = Arc::new(MemTable::new());
        let keys = [b"delta", b"alpha", b"echo2", b"bravo", b"char1"];
        for (i, k) in keys.iter().enumerate() {
            mem.add(i as u64 + 1, ValueType::Value, *k, b"v");
        }
        let mut iter = mem.iter();
        iter.seek_to_first();
        let mut seen = Vec::new();
        while iter.valid() {
            let parsed = parse_internal_key(iter.key()).unwrap();
            seen.push(parsed.user_key.to_vec());
            iter.next();
        }
        let mut expected: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn iterator_seek() {
        let mem = Arc::new(MemTable::new());
        for i in 0..100u64 {
            mem.add(
                i + 1,
                ValueType::Value,
                format!("key{i:03}").as_bytes(),
                b"v",
            );
        }
        let mut iter = mem.iter();
        iter.seek(&lookup_key(b"key050", u64::MAX >> 8));
        assert!(iter.valid());
        assert_eq!(parse_internal_key(iter.key()).unwrap().user_key, b"key050");
        iter.seek(&lookup_key(b"zzz", u64::MAX >> 8));
        assert!(!iter.valid());
    }

    #[test]
    fn memory_usage_reflects_inserts() {
        let mem = MemTable::new();
        let before = mem.approximate_memory_usage();
        for i in 0..1000u64 {
            mem.add(i + 1, ValueType::Value, b"some-user-key", &[0u8; 100]);
        }
        assert!(mem.approximate_memory_usage() > before + 100_000);
    }

    #[test]
    fn values_with_embedded_separators() {
        let mem = MemTable::new();
        mem.add(1, ValueType::Value, b"k\x00x", b"v\x00\xff");
        assert_eq!(
            mem.get(b"k\x00x", 10),
            LookupResult::Value(b"v\x00\xff".to_vec())
        );
        assert_eq!(mem.get(b"k", 10), LookupResult::NotFound);
    }
}
