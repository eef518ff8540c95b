//! Internal and user-facing iterators.
//!
//! [`MergingIter`] merges any number of sorted internal-key streams
//! (memtables, runs of tables) preferring the newest version of each key;
//! [`DbIter`] layers snapshot visibility and tombstone suppression on top,
//! yielding user keys — the machinery behind range scans (YCSB workload E).

use std::sync::Arc;

use bolt_common::{Error, Result};
use bolt_table::cache::TableCache;
use bolt_table::comparator::{bytewise, compare_internal, Comparator, InternalKeyComparator};
use bolt_table::ikey::{lookup_key, parse_internal_key, SequenceNumber, ValueType};
use bolt_table::rangedel::RangeTombstoneSet;
use bolt_table::seq::{SeqReadStats, SeqReader};

use crate::memtable::MemTableIter;
use crate::version::TableList;

/// A cursor over internal-key entries in sorted order.
pub trait InternalIterator: Send {
    /// `true` when positioned on an entry.
    fn valid(&self) -> bool;
    /// Position at the first entry.
    ///
    /// # Errors
    ///
    /// Returns read errors from the underlying source.
    fn seek_to_first(&mut self) -> Result<()>;
    /// Position at the first entry with internal key >= `target`.
    ///
    /// # Errors
    ///
    /// Returns read errors from the underlying source.
    fn seek(&mut self, target: &[u8]) -> Result<()>;
    /// Advance one entry.
    ///
    /// # Errors
    ///
    /// Returns read errors from the underlying source.
    fn next(&mut self) -> Result<()>;
    /// Current internal key.
    fn key(&self) -> &[u8];
    /// Current value.
    fn value(&self) -> &[u8];
}

impl InternalIterator for MemTableIter {
    fn valid(&self) -> bool {
        MemTableIter::valid(self)
    }
    fn seek_to_first(&mut self) -> Result<()> {
        MemTableIter::seek_to_first(self);
        Ok(())
    }
    fn seek(&mut self, target: &[u8]) -> Result<()> {
        MemTableIter::seek(self, target);
        Ok(())
    }
    fn next(&mut self) -> Result<()> {
        MemTableIter::next(self);
        Ok(())
    }
    fn key(&self) -> &[u8] {
        MemTableIter::key(self)
    }
    fn value(&self) -> &[u8] {
        MemTableIter::value(self)
    }
}

impl InternalIterator for bolt_table::TableIter {
    fn valid(&self) -> bool {
        bolt_table::TableIter::valid(self)
    }
    fn seek_to_first(&mut self) -> Result<()> {
        bolt_table::TableIter::seek_to_first(self)
    }
    fn seek(&mut self, target: &[u8]) -> Result<()> {
        bolt_table::TableIter::seek(self, target)
    }
    fn next(&mut self) -> Result<()> {
        bolt_table::TableIter::next(self)
    }
    fn key(&self) -> &[u8] {
        bolt_table::TableIter::key(self)
    }
    fn value(&self) -> &[u8] {
        bolt_table::TableIter::value(self)
    }
}

/// Concatenating iterator over one run's (sorted, disjoint) tables, opened
/// lazily through the TableCache — or, for a consumer that reads the whole
/// run front to back, through a [`SeqReader`]. It holds the run's own
/// [`TableList`]: creating and dropping one costs nothing per table.
pub struct RunIter {
    cache: Arc<TableCache>,
    db: Arc<str>,
    tables: TableList,
    index: usize,
    iter: Option<bolt_table::TableIter>,
    seq: Option<SeqReader>,
}

impl std::fmt::Debug for RunIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunIter")
            .field("tables", &self.tables.len())
            .field("index", &self.index)
            .finish()
    }
}

impl RunIter {
    /// Iterate `tables` (sorted, pairwise disjoint) in order.
    pub fn new(cache: Arc<TableCache>, db: Arc<str>, tables: TableList) -> Self {
        RunIter {
            cache,
            db,
            tables,
            index: 0,
            iter: None,
            seq: None,
        }
    }

    /// Iterate `tables` for a consumer that reads all of them in order (a
    /// compaction): through a [`SeqReader`] of its own, in large spans read
    /// on this thread, past the block cache and the table LRU, counted in
    /// `reads`.
    pub fn sequential(
        cache: Arc<TableCache>,
        db: Arc<str>,
        tables: TableList,
        reads: &Arc<SeqReadStats>,
    ) -> Self {
        let specs = tables.iter().map(|t| t.spec(&db)).collect();
        let seq = SeqReader::new(Arc::clone(&cache), specs, Arc::clone(reads));
        RunIter {
            seq: Some(seq),
            ..RunIter::new(cache, db, tables)
        }
    }

    fn open_current(&mut self) -> Result<()> {
        self.iter = match self.tables.get(self.index) {
            Some(meta) => {
                let table = match &mut self.seq {
                    Some(seq) => seq.open(self.index)?,
                    None => meta.open(&self.cache, &self.db)?,
                };
                Some(table.iter())
            }
            None => None,
        };
        Ok(())
    }

    fn skip_exhausted(&mut self) -> Result<()> {
        while self.iter.as_ref().is_some_and(|it| !it.valid()) {
            self.index += 1;
            if self.index >= self.tables.len() {
                self.iter = None;
                return Ok(());
            }
            self.open_current()?;
            if let Some(it) = self.iter.as_mut() {
                it.seek_to_first()?;
            }
        }
        Ok(())
    }
}

impl InternalIterator for RunIter {
    fn valid(&self) -> bool {
        self.iter.as_ref().is_some_and(|it| it.valid())
    }

    fn seek_to_first(&mut self) -> Result<()> {
        self.index = 0;
        self.open_current()?;
        if let Some(it) = self.iter.as_mut() {
            it.seek_to_first()?;
        }
        self.skip_exhausted()
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        // First table whose largest >= target.
        self.index = self
            .tables
            .partition_point(|t| compare_internal(&t.largest, target).is_lt());
        self.open_current()?;
        if let Some(it) = self.iter.as_mut() {
            it.seek(target)?;
        }
        self.skip_exhausted()
    }

    fn next(&mut self) -> Result<()> {
        self.iter.as_mut().expect("positioned").next()?;
        self.skip_exhausted()
    }

    fn key(&self) -> &[u8] {
        self.iter.as_ref().expect("positioned").key()
    }

    fn value(&self) -> &[u8] {
        self.iter.as_ref().expect("positioned").value()
    }
}

/// One source of a [`MergingIter`] with its position cached: comparisons read
/// `key`, never the child through its vtable.
struct MergeChild {
    iter: Box<dyn InternalIterator>,
    /// The child's current internal key, meaningful while `valid`. The buffer
    /// is reused across positions.
    key: Vec<u8>,
    valid: bool,
}

impl MergeChild {
    fn refresh(&mut self) {
        self.valid = self.iter.valid();
        if self.valid {
            self.key.clear();
            self.key.extend_from_slice(self.iter.key());
        }
    }
}

/// N-way merge of internal iterators, smallest internal key first (which,
/// under the internal-key order, yields newest-version-first within a user
/// key). A tie goes to the lower child index, so callers list newer sources
/// first.
///
/// The children are the leaves of a loser tree: `next` replays the one
/// root path of the child it advanced, ⌈log₂ k⌉ comparisons, where a scan of
/// all children costs k − 1.
pub struct MergingIter {
    icmp: InternalKeyComparator,
    children: Vec<MergeChild>,
    /// `tree[0]` is the winning child; `tree[n]` for `n` in `1..k` is the
    /// loser of the match at internal node `n`, whose children are nodes
    /// `2n` and `2n + 1`; node `k + i` is leaf `i`. Empty until the first
    /// seek.
    tree: Vec<u32>,
}

impl std::fmt::Debug for MergingIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergingIter")
            .field("children", &self.children.len())
            .field("current", &self.tree.first())
            .finish()
    }
}

impl MergingIter {
    /// Merge `children`.
    pub fn new(icmp: InternalKeyComparator, children: Vec<Box<dyn InternalIterator>>) -> Self {
        let children = children
            .into_iter()
            .map(|iter| MergeChild {
                iter,
                key: Vec::new(),
                valid: false,
            })
            .collect();
        MergingIter {
            icmp,
            children,
            tree: Vec::new(),
        }
    }

    /// The child the merge is positioned on.
    fn current(&self) -> Option<&MergeChild> {
        let winner = self.children.get(*self.tree.first()? as usize)?;
        winner.valid.then_some(winner)
    }

    /// `true` when child `a` comes before child `b`: an exhausted child
    /// loses to everything, equal keys go to the lower index.
    fn beats(&self, a: u32, b: u32) -> bool {
        let (x, y) = (&self.children[a as usize], &self.children[b as usize]);
        match (x.valid, y.valid) {
            (true, true) => self.icmp.compare(&x.key, &y.key).then(a.cmp(&b)).is_lt(),
            (valid, _) => valid,
        }
    }

    /// Play the matches under `node`, storing their losers; returns the
    /// subtree's winner.
    fn play(&mut self, node: usize) -> u32 {
        let k = self.children.len();
        if node >= k {
            return (node - k) as u32;
        }
        let (a, b) = (self.play(2 * node), self.play(2 * node + 1));
        let (winner, loser) = if self.beats(b, a) { (b, a) } else { (a, b) };
        self.tree[node] = loser;
        winner
    }

    /// Play every match, after all children were repositioned.
    fn rebuild(&mut self) {
        if self.children.is_empty() {
            return;
        }
        for child in &mut self.children {
            child.refresh();
        }
        self.tree.resize(self.children.len(), 0);
        self.tree[0] = self.play(1);
    }
}

impl InternalIterator for MergingIter {
    fn valid(&self) -> bool {
        self.current().is_some()
    }

    fn seek_to_first(&mut self) -> Result<()> {
        for child in &mut self.children {
            child.iter.seek_to_first()?;
        }
        self.rebuild();
        Ok(())
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        for child in &mut self.children {
            child.iter.seek(target)?;
        }
        self.rebuild();
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        let k = self.children.len();
        let mut winner = self.tree[0];
        let advanced = &mut self.children[winner as usize];
        advanced.iter.next()?;
        advanced.refresh();
        // Every loser on the path from the advanced leaf to the root lost to
        // the old winner, and to nothing else: replay exactly those matches.
        let mut node = (k + winner as usize) / 2;
        while node > 0 {
            if self.beats(self.tree[node], winner) {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
        self.tree[0] = winner;
        Ok(())
    }

    fn key(&self) -> &[u8] {
        &self.current().expect("positioned").key
    }

    fn value(&self) -> &[u8] {
        self.current().expect("positioned").iter.value()
    }
}

/// Resolves encoded value-log pointers to value bytes for iterators.
///
/// Implemented by the engine (which knows the env and db directory); kept
/// as a trait so iterator machinery stays decoupled from the value log.
pub trait ValueResolver: Send + Sync {
    /// Fetch and verify the value an encoded pointer refers to.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for malformed or dangling pointers and
    /// read errors from the segment file.
    fn resolve(&self, pointer: &[u8]) -> Result<Vec<u8>>;
}

/// User-facing iterator: snapshot visibility, newest version per key,
/// tombstones suppressed, value-log pointers resolved.
pub struct DbIter {
    iter: MergingIter,
    snapshot: SequenceNumber,
    resolver: Option<Arc<dyn ValueResolver>>,
    tombstones: Option<Arc<RangeTombstoneSet>>,
    valid: bool,
    // The three buffers live as long as the iterator and are overwritten in
    // place, so a row costs no allocation after the first.
    key: Vec<u8>,
    value: Vec<u8>,
    /// User key whose remaining (older) versions are hidden: the row `next`
    /// left, or the latest point deletion seen.
    skip: Vec<u8>,
}

impl std::fmt::Debug for DbIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbIter")
            .field("valid", &self.valid)
            .field("snapshot", &self.snapshot)
            .finish()
    }
}

impl DbIter {
    /// Wrap a merged internal iterator at `snapshot`.
    pub fn new(iter: MergingIter, snapshot: SequenceNumber) -> Self {
        DbIter {
            iter,
            snapshot,
            resolver: None,
            tombstones: None,
            valid: false,
            key: Vec::new(),
            value: Vec::new(),
            skip: Vec::new(),
        }
    }

    /// Attach a value-log pointer resolver (engine-created iterators).
    pub fn with_resolver(mut self, resolver: Arc<dyn ValueResolver>) -> Self {
        self.resolver = Some(resolver);
        self
    }

    /// Attach a range-tombstone overlay; entries it covers are treated as
    /// deleted. An empty set is dropped so the per-entry check stays free.
    pub fn with_tombstones(mut self, tombstones: Arc<RangeTombstoneSet>) -> Self {
        self.tombstones = (!tombstones.is_empty()).then_some(tombstones);
        self
    }

    /// `true` when positioned on a live user entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current user key.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    pub fn key(&self) -> &[u8] {
        assert!(self.valid, "iterator not positioned");
        &self.key
    }

    /// Current value.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    pub fn value(&self) -> &[u8] {
        assert!(self.valid, "iterator not positioned");
        &self.value
    }

    /// Position at the first live entry. An error leaves the iterator
    /// invalid, as every positioning call's does.
    ///
    /// # Errors
    ///
    /// Returns read errors from the sources.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.valid = false;
        self.iter.seek_to_first()?;
        self.find_next_user_entry(false)
    }

    /// Position at the first live entry with user key >= `user_key`.
    ///
    /// # Errors
    ///
    /// Returns read errors from the sources.
    pub fn seek(&mut self, user_key: &[u8]) -> Result<()> {
        self.valid = false;
        self.iter.seek(&lookup_key(user_key, self.snapshot))?;
        self.find_next_user_entry(false)
    }

    /// Advance to the next live user key.
    ///
    /// # Errors
    ///
    /// Returns read errors from the sources.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    #[allow(clippy::should_implement_trait)] // LevelDB-style fallible cursor
    pub fn next(&mut self) -> Result<()> {
        assert!(self.valid, "iterator not positioned");
        self.valid = false;
        // The merge stands on the row being left: step past it without
        // looking at it again, and hide its older versions.
        std::mem::swap(&mut self.key, &mut self.skip);
        self.iter.next()?;
        self.find_next_user_entry(true)
    }

    /// Stop on the first visible, live entry at or after the merge's
    /// position; with `skipping`, entries of user key `self.skip` are hidden.
    /// Sets `valid` only once the row is whole.
    fn find_next_user_entry(&mut self, mut skipping: bool) -> Result<()> {
        while self.iter.valid() {
            let parsed = parse_internal_key(self.iter.key())?;
            if parsed.sequence <= self.snapshot {
                match parsed.value_type {
                    ValueType::Deletion => {
                        self.skip.clear();
                        self.skip.extend_from_slice(parsed.user_key);
                        skipping = true;
                    }
                    // A range tombstone entry is never user-visible and
                    // must NOT shadow a point key equal to its begin key —
                    // the overlay below applies its span.
                    ValueType::RangeTombstone => {}
                    ValueType::Value | ValueType::ValuePointer => {
                        let shadowed = (skipping && bytewise(parsed.user_key, &self.skip).is_le())
                            || self.tombstones.as_deref().is_some_and(|t| {
                                t.covers(parsed.user_key, parsed.sequence, self.snapshot)
                            });
                        if !shadowed {
                            self.key.clear();
                            self.key.extend_from_slice(parsed.user_key);
                            if parsed.value_type == ValueType::ValuePointer {
                                let resolver = self.resolver.as_ref().ok_or_else(|| {
                                    Error::corruption(
                                        "value pointer entry but no value-log resolver",
                                    )
                                })?;
                                self.value = resolver.resolve(self.iter.value())?;
                            } else {
                                self.value.clear();
                                self.value.extend_from_slice(self.iter.value());
                            }
                            self.valid = true;
                            return Ok(());
                        }
                    }
                }
            }
            self.iter.next()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::MemTable;
    use bolt_table::ikey::ValueType;

    fn mem_with(entries: &[(u64, ValueType, &[u8], &[u8])]) -> Arc<MemTable> {
        let mem = Arc::new(MemTable::new());
        for (seq, vt, k, v) in entries {
            mem.add(*seq, *vt, k, v);
        }
        mem
    }

    fn merging(children: Vec<Box<dyn InternalIterator>>) -> MergingIter {
        MergingIter::new(InternalKeyComparator::default(), children)
    }

    #[test]
    fn merging_interleaves_sources() {
        let a = mem_with(&[
            (1, ValueType::Value, b"a", b"1"),
            (3, ValueType::Value, b"c", b"3"),
        ]);
        let b = mem_with(&[
            (2, ValueType::Value, b"b", b"2"),
            (4, ValueType::Value, b"d", b"4"),
        ]);
        let mut iter = merging(vec![Box::new(a.iter()), Box::new(b.iter())]);
        iter.seek_to_first().unwrap();
        let mut keys = Vec::new();
        while iter.valid() {
            keys.push(parse_internal_key(iter.key()).unwrap().user_key.to_vec());
            iter.next().unwrap();
        }
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn merging_orders_same_key_newest_first() {
        let old = mem_with(&[(1, ValueType::Value, b"k", b"old")]);
        let new = mem_with(&[(9, ValueType::Value, b"k", b"new")]);
        let mut iter = merging(vec![Box::new(old.iter()), Box::new(new.iter())]);
        iter.seek_to_first().unwrap();
        assert_eq!(iter.value(), b"new");
        iter.next().unwrap();
        assert_eq!(iter.value(), b"old");
    }

    /// The tournament against a sorted list: every child count from one to
    /// nine, empty children, user keys and whole internal keys that collide
    /// across children, seeks and steps interleaved.
    #[test]
    fn merging_matches_a_sorted_model() {
        use bolt_table::ikey::make_internal_key;
        let icmp = InternalKeyComparator::default();
        let mut rng = bolt_common::rng::Rng64::new(0x70C4);
        for k in (1..=9usize).flat_map(|k| [k; 20]) {
            // (internal key, child): the child index is also the value.
            let mut model: Vec<(Vec<u8>, u8)> = Vec::new();
            let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
            for child in 0..k as u8 {
                let mem = Arc::new(MemTable::new());
                let entries = rng.next_below(16).saturating_sub(4);
                let mut seen = std::collections::HashSet::new();
                for _ in 0..entries {
                    let (key, seq) = (rng.next_below(8), 1 + rng.next_below(3));
                    if seen.insert((key, seq)) {
                        let user_key = format!("k{key}").into_bytes();
                        mem.add(seq, ValueType::Value, &user_key, &[child]);
                        model.push((make_internal_key(&user_key, seq, ValueType::Value), child));
                    }
                }
                children.push(Box::new(mem.iter()));
            }
            // Newest version first within a user key; the lower child first
            // among equal internal keys.
            model.sort_by(|a, b| icmp.compare(&a.0, &b.0).then(a.1.cmp(&b.1)));
            let mut iter = MergingIter::new(icmp, children);
            assert!(!iter.valid());
            let mut at = model.len();
            for _ in 0..60 {
                match rng.next_below(6) {
                    0 => {
                        iter.seek_to_first().unwrap();
                        at = 0;
                    }
                    1 => {
                        let user_key = format!("k{}", rng.next_below(9));
                        let target = lookup_key(user_key.as_bytes(), rng.next_below(5));
                        iter.seek(&target).unwrap();
                        at = model.partition_point(|(key, _)| icmp.compare(key, &target).is_lt());
                    }
                    _ if at < model.len() => {
                        iter.next().unwrap();
                        at += 1;
                    }
                    _ => continue,
                }
                assert_eq!(iter.valid(), at < model.len(), "k = {k}");
                if let Some((key, child)) = model.get(at) {
                    assert_eq!((iter.key(), iter.value()), (&key[..], &[*child][..]));
                }
            }
        }
    }

    /// Rows of shrinking and growing lengths through the reused buffers: no
    /// row shows a tail of the one before it, across deletions and a
    /// resolved pointer (whose `Vec` replaces the value buffer).
    #[test]
    fn db_iter_rows_are_exact_across_lengths() {
        struct Fake;
        impl ValueResolver for Fake {
            fn resolve(&self, pointer: &[u8]) -> Result<Vec<u8>> {
                Ok(pointer.repeat(40))
            }
        }
        let long = vec![b'x'; 300];
        let rows: [(&[u8], ValueType, &[u8]); 9] = [
            (b"a-long-first-key", ValueType::Value, &long),
            (b"b", ValueType::Value, b"1"),
            (b"bb-deleted", ValueType::Deletion, b""),
            (b"c", ValueType::ValuePointer, b"ptr"),
            (b"d", ValueType::Value, b""),
            (b"dd-deleted-too", ValueType::Deletion, b""),
            (
                b"e-the-longest-key-of-them-all",
                ValueType::Value,
                b"mid-length",
            ),
            (b"f", ValueType::Value, &long),
            (b"g", ValueType::Value, b"z"),
        ];
        let mem = Arc::new(MemTable::new());
        for (seq, (key, value_type, value)) in rows.iter().enumerate() {
            // An older, longer version under every row, deleted ones too.
            mem.add(1, ValueType::Value, key, &[b'o'; 64]);
            mem.add(seq as u64 + 2, *value_type, key, value);
        }
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut db_iter = DbIter::new(iter, 100).with_resolver(Arc::new(Fake));
        let want: Vec<(Vec<u8>, Vec<u8>)> = rows
            .iter()
            .filter(|(_, value_type, _)| *value_type != ValueType::Deletion)
            .map(|(key, value_type, value)| match value_type {
                ValueType::ValuePointer => (key.to_vec(), value.repeat(40)),
                _ => (key.to_vec(), value.to_vec()),
            })
            .collect();
        for start in [0, 3] {
            db_iter.seek(&want[start].0).unwrap();
            let mut seen = Vec::new();
            while db_iter.valid() {
                seen.push((db_iter.key().to_vec(), db_iter.value().to_vec()));
                db_iter.next().unwrap();
            }
            assert_eq!(seen, want[start..]);
        }
    }

    /// A failing resolver fails the step, and the iterator is invalid after
    /// it; the next seek starts afresh.
    #[test]
    fn db_iter_error_leaves_it_invalid() {
        struct Failing;
        impl ValueResolver for Failing {
            fn resolve(&self, pointer: &[u8]) -> Result<Vec<u8>> {
                match pointer {
                    b"bad" => Err(Error::corruption("unresolvable pointer")),
                    good => Ok(good.to_vec()),
                }
            }
        }
        let mem = mem_with(&[
            (1, ValueType::Value, b"a", b"1"),
            (2, ValueType::ValuePointer, b"b", b"bad"),
            (3, ValueType::ValuePointer, b"c", b"3"),
        ]);
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut db_iter = DbIter::new(iter, 100).with_resolver(Arc::new(Failing));
        db_iter.seek_to_first().unwrap();
        assert_eq!((db_iter.key(), db_iter.value()), (&b"a"[..], &b"1"[..]));
        assert!(db_iter.next().is_err());
        assert!(!db_iter.valid());
        db_iter.seek(b"c").unwrap();
        assert_eq!((db_iter.key(), db_iter.value()), (&b"c"[..], &b"3"[..]));
        assert!(db_iter.seek(b"b").is_err());
        assert!(!db_iter.valid());
        db_iter.seek_to_first().unwrap();
        assert_eq!(db_iter.key(), b"a");
    }

    /// `DbIter` against a model of snapshot reads: multi-version children
    /// with deletions, seeks to random user keys at random snapshots, each
    /// followed by a walk to the end.
    #[test]
    fn db_iter_matches_a_snapshot_model() {
        let mut rng = bolt_common::rng::Rng64::new(0xD81E);
        for _ in 0..40 {
            // (user key, sequence, value); `None` is a deletion.
            let mut model: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = Vec::new();
            let mut children: Vec<Arc<MemTable>> = Vec::new();
            let mut seq = 0;
            for _ in 0..1 + rng.next_below(4) {
                let mem = Arc::new(MemTable::new());
                for _ in 0..rng.next_below(30) {
                    seq += 1;
                    // "k1" is a prefix of "k10" .. "k19".
                    let key = format!("k{}", rng.next_below(24)).into_bytes();
                    if rng.next_below(4) == 0 {
                        mem.add(seq, ValueType::Deletion, &key, b"");
                        model.push((key, seq, None));
                    } else {
                        let value = format!("v{seq}").into_bytes();
                        mem.add(seq, ValueType::Value, &key, &value);
                        model.push((key, seq, Some(value)));
                    }
                }
                children.push(mem);
            }
            for _ in 0..8 {
                let snapshot = rng.next_below(seq + 2);
                // The newest version at or below the snapshot of each key.
                let mut visible = std::collections::BTreeMap::new();
                for (key, at, value) in &model {
                    if *at <= snapshot && visible.get(key).is_none_or(|(newest, _)| at > newest) {
                        visible.insert(key.clone(), (*at, value.clone()));
                    }
                }
                let live: Vec<(Vec<u8>, Vec<u8>)> = visible
                    .into_iter()
                    .filter_map(|(key, (_, value))| Some((key, value?)))
                    .collect();
                let iters = children
                    .iter()
                    .map(|mem| Box::new(mem.iter()) as Box<dyn InternalIterator>)
                    .collect();
                let mut db_iter = DbIter::new(merging(iters), snapshot);
                for _ in 0..3 {
                    let target = format!("k{}", rng.next_below(26)).into_bytes();
                    db_iter.seek(&target).unwrap();
                    let from = live.partition_point(|(key, _)| *key < target);
                    let mut seen = Vec::new();
                    while db_iter.valid() {
                        seen.push((db_iter.key().to_vec(), db_iter.value().to_vec()));
                        db_iter.next().unwrap();
                    }
                    assert_eq!(seen, live[from..], "snapshot {snapshot}");
                }
            }
        }
    }

    #[test]
    fn db_iter_dedups_and_hides_tombstones() {
        let mem = mem_with(&[
            (1, ValueType::Value, b"a", b"a1"),
            (5, ValueType::Value, b"a", b"a5"),
            (2, ValueType::Value, b"b", b"b2"),
            (6, ValueType::Deletion, b"b", b""),
            (3, ValueType::Value, b"c", b"c3"),
        ]);
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut db_iter = DbIter::new(iter, 100);
        db_iter.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while db_iter.valid() {
            seen.push((db_iter.key().to_vec(), db_iter.value().to_vec()));
            db_iter.next().unwrap();
        }
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), b"a5".to_vec()),
                (b"c".to_vec(), b"c3".to_vec()),
            ]
        );
    }

    #[test]
    fn db_iter_respects_snapshot() {
        let mem = mem_with(&[
            (1, ValueType::Value, b"a", b"a1"),
            (5, ValueType::Value, b"a", b"a5"),
            (4, ValueType::Deletion, b"b", b""),
            (2, ValueType::Value, b"b", b"b2"),
        ]);
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut db_iter = DbIter::new(iter, 3);
        db_iter.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while db_iter.valid() {
            seen.push((db_iter.key().to_vec(), db_iter.value().to_vec()));
            db_iter.next().unwrap();
        }
        // At snapshot 3: a@1 visible (a@5 not), b@2 visible (delete@4 not).
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), b"a1".to_vec()),
                (b"b".to_vec(), b"b2".to_vec()),
            ]
        );
    }

    #[test]
    fn db_iter_applies_range_tombstone_overlay() {
        use bolt_table::rangedel::{RangeTombstone, RangeTombstoneSet};
        let mem = mem_with(&[
            (1, ValueType::Value, b"a", b"a1"),
            (2, ValueType::Value, b"b", b"b2"),
            (5, ValueType::RangeTombstone, b"b", b"d"),
            (3, ValueType::Value, b"c", b"c3"),
            (7, ValueType::Value, b"c", b"c7"),
            (4, ValueType::Value, b"d", b"d4"),
        ]);
        let overlay = Arc::new(RangeTombstoneSet::build(vec![RangeTombstone {
            begin: b"b".to_vec(),
            end: b"d".to_vec(),
            sequence: 5,
        }]));
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut db_iter = DbIter::new(iter, 100).with_tombstones(Arc::clone(&overlay));
        db_iter.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while db_iter.valid() {
            seen.push((db_iter.key().to_vec(), db_iter.value().to_vec()));
            db_iter.next().unwrap();
        }
        // b@2 hidden by the tombstone; c@7 written after it survives; the
        // end key d is exclusive.
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), b"a1".to_vec()),
                (b"c".to_vec(), b"c7".to_vec()),
                (b"d".to_vec(), b"d4".to_vec()),
            ]
        );
        // At a snapshot older than the tombstone, everything is visible.
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut old_iter = DbIter::new(iter, 4).with_tombstones(overlay);
        old_iter.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while old_iter.valid() {
            seen.push((old_iter.key().to_vec(), old_iter.value().to_vec()));
            old_iter.next().unwrap();
        }
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), b"a1".to_vec()),
                (b"b".to_vec(), b"b2".to_vec()),
                (b"c".to_vec(), b"c3".to_vec()),
                (b"d".to_vec(), b"d4".to_vec()),
            ]
        );
    }

    #[test]
    fn db_iter_resolves_pointer_entries() {
        struct Fake;
        impl ValueResolver for Fake {
            fn resolve(&self, pointer: &[u8]) -> Result<Vec<u8>> {
                Ok([b"resolved:".as_slice(), pointer].concat())
            }
        }
        let mem = mem_with(&[
            (1, ValueType::ValuePointer, b"big", b"ptr"),
            (2, ValueType::Value, b"small", b"inline"),
        ]);
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut db_iter = DbIter::new(iter, 100).with_resolver(Arc::new(Fake));
        db_iter.seek_to_first().unwrap();
        assert_eq!(db_iter.key(), b"big");
        assert_eq!(db_iter.value(), b"resolved:ptr");
        db_iter.next().unwrap();
        assert_eq!(db_iter.value(), b"inline");

        // Without a resolver a pointer entry is an error, not silent junk.
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut bare = DbIter::new(iter, 100);
        assert!(bare.seek_to_first().is_err());
    }

    #[test]
    fn db_iter_seek_lands_on_next_live_key() {
        let mem = mem_with(&[
            (1, ValueType::Value, b"apple", b"1"),
            (2, ValueType::Deletion, b"banana", b""),
            (3, ValueType::Value, b"cherry", b"3"),
        ]);
        let iter = merging(vec![Box::new(mem.iter())]);
        let mut db_iter = DbIter::new(iter, 100);
        db_iter.seek(b"banana").unwrap();
        assert!(db_iter.valid());
        assert_eq!(db_iter.key(), b"cherry");
        db_iter.seek(b"zzz").unwrap();
        assert!(!db_iter.valid());
    }

    #[test]
    fn run_iter_concatenates_tables() {
        use crate::version::TableMeta;
        use bolt_common::bloom::BloomFilterPolicy;
        use bolt_env::{Env, MemEnv};
        use bolt_table::builder::{FilterKey, TableBuilder, TableFormat};
        use bolt_table::ikey::make_internal_key;
        use bolt_table::{TableCache, TableReadOptions};

        let env: std::sync::Arc<dyn Env> = Arc::new(MemEnv::new());
        env.create_dir_all("db").unwrap();
        // Three disjoint tables in one physical file (a compaction file).
        let mut file = env.new_writable_file("db/000001.sst").unwrap();
        let mut metas = Vec::new();
        for t in 0..3u32 {
            let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
            for i in 0..20u32 {
                let key = make_internal_key(format!("{t}k{i:03}").as_bytes(), 5, ValueType::Value);
                b.add(&key, format!("{t}-{i}").as_bytes()).unwrap();
            }
            let built = b.finish().unwrap();
            metas.push(Arc::new(TableMeta::new(
                t as u64 + 1,
                1,
                built.offset,
                built.size,
                built.num_entries,
                built.smallest,
                built.largest,
            )));
        }
        file.sync().unwrap();
        drop(file);

        let cache = Arc::new(TableCache::new(
            Arc::clone(&env),
            10,
            None,
            TableReadOptions {
                comparator: Arc::new(InternalKeyComparator::default()),
                filter_policy: Some(BloomFilterPolicy::default()),
                filter_key: FilterKey::UserKey,
                block_cache: None,
            },
        ));
        let mut iter = RunIter::new(cache, "db".into(), metas.into());
        iter.seek_to_first().unwrap();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while iter.valid() {
            let k = iter.key().to_vec();
            if let Some(p) = &prev {
                assert!(
                    InternalKeyComparator::default().compare(p, &k).is_lt(),
                    "out of order across table boundary"
                );
            }
            prev = Some(k);
            count += 1;
            iter.next().unwrap();
        }
        assert_eq!(count, 60);

        // Seek into the middle table and across a table boundary.
        iter.seek(&lookup_key(b"1k010", 100)).unwrap();
        assert_eq!(parse_internal_key(iter.key()).unwrap().user_key, b"1k010");
        iter.seek(&lookup_key(b"0k999", 100)).unwrap();
        assert_eq!(
            parse_internal_key(iter.key()).unwrap().user_key,
            b"1k000",
            "seek past the end of table 0 lands on table 1"
        );
        iter.seek(&lookup_key(b"9", 100)).unwrap();
        assert!(!iter.valid());
    }

    #[test]
    fn empty_merge() {
        let mut iter = merging(vec![]);
        iter.seek_to_first().unwrap();
        assert!(!iter.valid());
        let mut db_iter = DbIter::new(iter, 1);
        db_iter.seek_to_first().unwrap();
        assert!(!db_iter.valid());
    }
}
