//! Versions: the logical view of the LSM-tree.
//!
//! A [`Version`] is an immutable snapshot of which logical SSTables live at
//! which level. Levels hold *runs* — sorted, internally disjoint sequences
//! of tables. Every compaction policy maps onto this one structure; they
//! differ only in which levels may stack runs
//! ([`CompactionPolicyKind::single_run_from`]):
//!
//! * **Leveled** — level 0 has one run per flush (runs may overlap each
//!   other); levels ≥ 1 have at most one run (tag 0).
//! * **Fragmented (PebblesDB-shaped)** — every level may hold many runs;
//!   pushing a level down appends a new run to the next level without
//!   rewriting it.
//! * **Size-tiered** — like fragmented, every level stacks runs; merges
//!   take the oldest same-size bucket of runs.
//! * **Lazy-leveled** — tiered stacking everywhere except the last level,
//!   which keeps the single-sorted-run leveled shape.
//!
//! The paper's settled compaction is visible here as a pure metadata move:
//! a [`TableMeta`] changes level without its `(file, offset, size)`
//! changing. "The logical view of the LSM-tree is independent of the
//! physical layout of logical SSTables in compaction files" (§3.4).

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

use bolt_common::coding::{
    put_fixed64, put_length_prefixed_slice, put_varint32, put_varint64, Decoder,
};
use bolt_common::{Error, Result};
use bolt_table::cache::{TableCache, TableSpec};
use bolt_table::comparator::{Comparator, InternalKeyComparator};
use bolt_table::ikey::{
    extract_user_key, lookup_key, parse_internal_key, SequenceNumber, ValueType,
};
use bolt_table::rangedel::RangeTombstoneSet;
use bolt_table::Table;

use crate::filename::table_file;
use crate::memtable::LookupResult;
use crate::options::CompactionPolicyKind;

/// Metadata of one logical SSTable.
#[derive(Debug)]
pub struct TableMeta {
    /// Unique id of the logical table (never reused).
    pub table_id: u64,
    /// Physical file containing the table.
    pub file_number: u64,
    /// Byte offset within the file.
    pub offset: u64,
    /// Byte size of the table.
    pub size: u64,
    /// Number of entries.
    pub num_entries: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Number of range-tombstone entries in the table. Persisted in the
    /// MANIFEST so versions know without any I/O whether a tombstone
    /// overlay must be built.
    pub range_tombstones: u64,
    /// Length of the table's tail (filter, index and footer, back to back at
    /// its end) as its builder recorded it; 0 = unknown (a MANIFEST written
    /// before the length was kept). Persisted so that a table-cache miss
    /// fetches exactly the tail in one device read instead of finding it
    /// footer first.
    pub tail_bytes: u64,
    /// Seek-compaction budget (LevelDB: one seek per 16 KB of size).
    pub allowed_seeks: AtomicI64,
}

impl Clone for TableMeta {
    fn clone(&self) -> Self {
        TableMeta {
            table_id: self.table_id,
            file_number: self.file_number,
            offset: self.offset,
            size: self.size,
            num_entries: self.num_entries,
            smallest: self.smallest.clone(),
            largest: self.largest.clone(),
            range_tombstones: self.range_tombstones,
            tail_bytes: self.tail_bytes,
            allowed_seeks: AtomicI64::new(self.allowed_seeks.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for TableMeta {
    fn eq(&self, other: &Self) -> bool {
        self.table_id == other.table_id
            && self.file_number == other.file_number
            && self.offset == other.offset
            && self.size == other.size
            && self.num_entries == other.num_entries
            && self.smallest == other.smallest
            && self.largest == other.largest
            && self.range_tombstones == other.range_tombstones
            && self.tail_bytes == other.tail_bytes
    }
}
impl Eq for TableMeta {}

impl TableMeta {
    /// Create metadata with the LevelDB seek budget.
    pub fn new(
        table_id: u64,
        file_number: u64,
        offset: u64,
        size: u64,
        num_entries: u64,
        smallest: Vec<u8>,
        largest: Vec<u8>,
    ) -> Self {
        let allowed = ((size / 16384) as i64).max(100);
        TableMeta {
            table_id,
            file_number,
            offset,
            size,
            num_entries,
            smallest,
            largest,
            range_tombstones: 0,
            tail_bytes: 0,
            allowed_seeks: AtomicI64::new(allowed),
        }
    }

    /// Record how many range-tombstone entries the table holds.
    #[must_use]
    pub fn with_range_tombstones(mut self, n: u64) -> Self {
        self.range_tombstones = n;
        self
    }

    /// Record the length of the table's tail (see [`TableMeta::tail_bytes`]).
    #[must_use]
    pub fn with_tail_bytes(mut self, n: u64) -> Self {
        self.tail_bytes = n;
        self
    }

    /// Smallest user key.
    pub fn smallest_user_key(&self) -> &[u8] {
        extract_user_key(&self.smallest)
    }

    /// Largest user key.
    pub fn largest_user_key(&self) -> &[u8] {
        extract_user_key(&self.largest)
    }

    /// Table-cache spec for this table inside database directory `db`.
    pub fn spec(&self, db: &str) -> TableSpec {
        TableSpec {
            table_id: self.table_id,
            file_number: self.file_number,
            path: table_file(db, self.file_number),
            offset: self.offset,
            size: self.size,
            tail_bytes: self.tail_bytes,
        }
    }

    /// The open reader of this table, through `cache`. A cache hit costs one
    /// LRU lookup; only a miss builds the [`spec`](Self::spec) and its path.
    ///
    /// # Errors
    ///
    /// Returns table open/read errors.
    pub fn open(&self, cache: &TableCache, db: &str) -> Result<Arc<Table>> {
        cache.table(self.table_id, || self.spec(db))
    }

    /// The index interval of `run` — a sorted, disjoint table list — that
    /// this table's user-key range overlaps: two binary searches.
    pub(crate) fn overlap_in(
        &self,
        icmp: &InternalKeyComparator,
        run: &[Arc<TableMeta>],
    ) -> Range<usize> {
        overlapping_range(run, icmp, self.smallest_user_key(), self.largest_user_key())
    }

    /// `true` if this table's user-key range overlaps `[begin, end]`.
    pub fn overlaps(&self, icmp: &InternalKeyComparator, begin: &[u8], end: &[u8]) -> bool {
        let ucmp = icmp.user_comparator();
        ucmp.compare(self.smallest_user_key(), end) != std::cmp::Ordering::Greater
            && ucmp.compare(self.largest_user_key(), begin) != std::cmp::Ordering::Less
    }
}

/// The tables of one run — sorted by smallest key, pairwise disjoint —
/// behind one shared pointer. A [`Version`] owns each list once; iterators
/// and whole-run compaction inputs hold the same pointer, so taking a run
/// costs one reference count whatever the number of tables in it.
pub type TableList = Arc<[Arc<TableMeta>]>;

/// A sorted, internally disjoint sequence of tables produced by one flush or
/// compaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Recency tag: higher = newer. Leveled levels ≥ 1 use tag 0.
    pub tag: u64,
    /// Tables sorted by smallest key, pairwise disjoint.
    pub tables: TableList,
}

impl Run {
    /// Total bytes of the run.
    pub fn size(&self) -> u64 {
        self.tables.iter().map(|t| t.size).sum()
    }

    /// Binary-search for the table that may contain `user_key`.
    pub fn find(&self, icmp: &InternalKeyComparator, user_key: &[u8]) -> Option<&Arc<TableMeta>> {
        let ucmp = icmp.user_comparator();
        // First table whose largest user key >= user_key.
        let idx = self
            .tables
            .partition_point(|t| ucmp.compare(t.largest_user_key(), user_key).is_lt());
        let table = self.tables.get(idx)?;
        if ucmp.compare(table.smallest_user_key(), user_key).is_gt() {
            None
        } else {
            Some(table)
        }
    }

    /// The tables overlapping the user-key range `[begin, end]`: a slice of
    /// the sorted run, found by binary search.
    pub fn overlapping(
        &self,
        icmp: &InternalKeyComparator,
        begin: &[u8],
        end: &[u8],
    ) -> &[Arc<TableMeta>] {
        &self.tables[overlapping_range(&self.tables, icmp, begin, end)]
    }
}

/// The index interval of `tables` — sorted by smallest key, pairwise
/// disjoint — that overlaps the user-key range `[begin, end]`: two binary
/// searches.
fn overlapping_range(
    tables: &[Arc<TableMeta>],
    icmp: &InternalKeyComparator,
    begin: &[u8],
    end: &[u8],
) -> Range<usize> {
    let ucmp = icmp.user_comparator();
    let ends_before = |t: &Arc<TableMeta>| ucmp.compare(t.largest_user_key(), begin).is_lt();
    let first = tables.partition_point(ends_before);
    let starts_by = |t: &Arc<TableMeta>| ucmp.compare(t.smallest_user_key(), end).is_le();
    let len = tables[first..].partition_point(starts_by);
    first..first + len
}

/// One level of the tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelState {
    /// Runs ordered newest-first (descending tag).
    pub runs: Vec<Run>,
}

impl LevelState {
    /// Total bytes in the level.
    pub fn size(&self) -> u64 {
        self.runs.iter().map(|r| r.size()).sum()
    }

    /// Number of runs.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.runs.iter().map(|r| r.tables.len()).sum()
    }

    /// The tables of a single-run level (none if it is empty).
    pub(crate) fn single_run(&self) -> &[Arc<TableMeta>] {
        debug_assert!(self.runs.len() <= 1, "{} runs", self.runs.len());
        self.runs.first().map_or(&[], |run| &run.tables)
    }

    /// Every run's table list, newest run first: shared pointers, not copies.
    pub fn table_lists(&self) -> Vec<TableList> {
        self.runs.iter().map(|r| Arc::clone(&r.tables)).collect()
    }

    /// All tables, newest run first.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableMeta>> {
        self.runs.iter().flat_map(|r| r.tables.iter())
    }
}

/// Outcome of a versioned point lookup, plus seek-compaction feedback.
#[derive(Debug)]
pub struct GetResult {
    /// The lookup outcome.
    pub result: LookupResult,
    /// Sequence number of the found entry (0 when not found), so the
    /// caller can weigh the hit against the range-tombstone overlay.
    pub sequence: SequenceNumber,
    /// A table that burned a wasted seek (charge `allowed_seeks`).
    pub seek_charge: Option<(usize, Arc<TableMeta>)>,
}

/// An immutable snapshot of the tree shape.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// Levels, index 0 first.
    pub levels: Vec<LevelState>,
    /// Lazily built overlay of every range tombstone stored in the
    /// version's tables. A tombstone's span can extend past its table's
    /// largest point key, so the overlay must aggregate *all* tables —
    /// the per-table scans are memoized in the readers, and this cache
    /// makes the aggregate a one-time cost per version.
    tombstones: OnceLock<Arc<RangeTombstoneSet>>,
    /// Range tombstones recorded across all tables: the per-table MANIFEST
    /// counts, summed once by [`VersionBuilder::build`] so that no read
    /// walks the tables to learn there are none.
    range_tombstone_count: u64,
    /// Round-robin victim cursor per level (largest internal key of the last
    /// victim), carried from version to version by [`VersionBuilder::apply`]:
    /// the picker reads it from the version it picks on.
    compact_pointers: BTreeMap<u32, Vec<u8>>,
}

impl Version {
    /// An empty tree with `num_levels` levels.
    pub fn empty(num_levels: usize) -> Self {
        Version {
            levels: vec![LevelState::default(); num_levels],
            tombstones: OnceLock::new(),
            range_tombstone_count: 0,
            compact_pointers: BTreeMap::new(),
        }
    }

    /// Where the round-robin picker left off at `level`, if it ever ran there.
    pub fn compact_pointer(&self, level: usize) -> Option<&[u8]> {
        let cursor = self.compact_pointers.get(&(level as u32));
        cursor.map(Vec::as_slice)
    }

    /// Every level's cursor as MANIFEST records (what a snapshot edit carries).
    pub fn compact_pointer_records(&self) -> Vec<(u32, Vec<u8>)> {
        self.compact_pointers.clone().into_iter().collect()
    }

    /// Total number of live logical tables.
    pub fn num_tables(&self) -> usize {
        self.levels.iter().map(|l| l.num_tables()).sum()
    }

    /// All live tables with their level.
    pub fn all_tables(&self) -> impl Iterator<Item = (usize, u64, &Arc<TableMeta>)> {
        self.levels.iter().enumerate().flat_map(|(level, state)| {
            state
                .runs
                .iter()
                .flat_map(move |run| run.tables.iter().map(move |t| (level, run.tag, t)))
        })
    }

    /// Tables in `level` overlapping the user-key range `[begin, end]`,
    /// newest run first and in key order within a run: one binary-searched
    /// slice per run.
    pub fn overlapping<'a>(
        &'a self,
        icmp: &'a InternalKeyComparator,
        level: usize,
        begin: &'a [u8],
        end: &'a [u8],
    ) -> impl Iterator<Item = &'a Arc<TableMeta>> {
        let runs = self.levels[level].runs.iter();
        runs.flat_map(move |run| run.overlapping(icmp, begin, end))
    }

    /// [`Version::overlapping`], collected.
    pub fn overlapping_tables(
        &self,
        icmp: &InternalKeyComparator,
        level: usize,
        begin: &[u8],
        end: &[u8],
    ) -> Vec<Arc<TableMeta>> {
        self.overlapping(icmp, level, begin, end).cloned().collect()
    }

    /// Point lookup through the levels, newest first.
    ///
    /// # Errors
    ///
    /// Returns table open/read errors.
    pub fn get(
        &self,
        icmp: &InternalKeyComparator,
        cache: &TableCache,
        db: &str,
        user_key: &[u8],
        snapshot: SequenceNumber,
    ) -> Result<GetResult> {
        let lookup = lookup_key(user_key, snapshot);
        let mut first_probe: Option<(usize, Arc<TableMeta>)> = None;
        let mut probes = 0usize;

        for (level, state) in self.levels.iter().enumerate() {
            for run in &state.runs {
                let Some(table) = run.find(icmp, user_key) else {
                    continue;
                };
                probes += 1;
                if first_probe.is_none() {
                    first_probe = Some((level, Arc::clone(table)));
                }
                let reader = table.open(cache, db)?;
                // A range tombstone whose begin key equals `user_key` sits
                // in front of the point entries; re-probe just below its
                // sequence to reach them (the overlay, not this lookup,
                // applies the tombstone).
                let mut probe = lookup.clone();
                while let Some((ikey, value)) = reader.internal_get(&probe)? {
                    let parsed = parse_internal_key(&ikey)?;
                    if parsed.user_key != user_key || parsed.sequence > snapshot {
                        break;
                    }
                    if parsed.value_type == ValueType::RangeTombstone {
                        if parsed.sequence == 0 {
                            break;
                        }
                        probe = lookup_key(user_key, parsed.sequence - 1);
                        continue;
                    }
                    let result = match parsed.value_type {
                        ValueType::Deletion => LookupResult::Deleted,
                        ValueType::Value => LookupResult::Value(value),
                        ValueType::ValuePointer => LookupResult::Pointer(value),
                        ValueType::RangeTombstone => unreachable!("skipped above"),
                    };
                    // A lookup that had to probe more than one table
                    // charges the first table (LevelDB seek compaction).
                    let seek_charge = if probes > 1 { first_probe } else { None };
                    return Ok(GetResult {
                        result,
                        sequence: parsed.sequence,
                        seek_charge,
                    });
                }
            }
        }
        Ok(GetResult {
            result: LookupResult::NotFound,
            sequence: 0,
            seek_charge: if probes > 1 { first_probe } else { None },
        })
    }

    /// `true` when any live table holds a range tombstone (one field read;
    /// no I/O). When false, reads can skip the overlay entirely.
    pub fn has_range_tombstones(&self) -> bool {
        self.range_tombstone_count > 0
    }

    /// Total range tombstones recorded across live tables (the MANIFEST
    /// per-table counts summed; no I/O). Exported as the
    /// `bolt_range_tombstones_live` gauge.
    pub fn live_range_tombstones(&self) -> u64 {
        self.range_tombstone_count
    }

    /// The aggregated range-tombstone overlay for this version, built once
    /// and cached. See the field doc for why this scans every table
    /// carrying tombstones; tombstone-free tables are skipped via their
    /// MANIFEST-recorded count.
    ///
    /// # Errors
    ///
    /// Returns table open/read errors from the first build.
    pub fn range_tombstones(&self, cache: &TableCache, db: &str) -> Result<Arc<RangeTombstoneSet>> {
        if let Some(set) = self.tombstones.get() {
            return Ok(Arc::clone(set));
        }
        let mut raw = Vec::new();
        for (_, _, table) in self.all_tables() {
            if table.range_tombstones == 0 {
                continue;
            }
            let reader = table.open(cache, db)?;
            raw.extend(reader.range_tombstones()?.iter().cloned());
        }
        let set = Arc::new(RangeTombstoneSet::build(raw));
        Ok(Arc::clone(self.tombstones.get_or_init(|| set)))
    }
}

/// A record of changes from one version to the next — the MANIFEST payload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionEdit {
    /// WALs numbered below this are obsolete after the edit.
    pub log_number: Option<u64>,
    /// High-water mark for physical file numbers.
    pub next_file_number: Option<u64>,
    /// High-water mark for logical table ids.
    pub next_table_id: Option<u64>,
    /// Last sequence number at edit time.
    pub last_sequence: Option<u64>,
    /// Round-robin compaction cursors `(level, largest internal key)`.
    pub compact_pointers: Vec<(u32, Vec<u8>)>,
    /// Tables removed: `(level, table_id)`.
    pub deleted_tables: Vec<(u32, u64)>,
    /// Tables added: `(level, run_tag, meta)`.
    pub added_tables: Vec<(u32, u64, TableMeta)>,
    /// Compaction policy the tree layout was built under. Written by the
    /// first edit of every MANIFEST; reopen refuses a mismatch, because a
    /// layout shaped by one policy silently violates another's invariants.
    pub compaction_policy: Option<CompactionPolicyKind>,
    /// Value-log dead ranges: `(segment file number, offset, len)`.
    /// Compaction reports the byte range of every pointer it dropped;
    /// recovery unions the ranges into the per-segment liveness ledger.
    /// Ranges, not byte counts: WAL replay after a crash can duplicate an
    /// entry into two SSTables, and dropping the duplicate must not count
    /// its still-live bytes dead twice.
    pub vlog_dead: Vec<(u64, u64, u64)>,
    /// Value-log segments retired (file deleted) by this edit.
    pub vlog_deleted: Vec<u64>,
}

mod tag {
    pub const LOG_NUMBER: u64 = 1;
    pub const NEXT_FILE: u64 = 2;
    pub const NEXT_TABLE_ID: u64 = 3;
    pub const LAST_SEQUENCE: u64 = 4;
    pub const COMPACT_POINTER: u64 = 5;
    pub const DELETED_TABLE: u64 = 6;
    pub const ADDED_TABLE: u64 = 7;
    pub const COMPACTION_POLICY: u64 = 8;
    pub const VLOG_DEAD: u64 = 9;
    pub const VLOG_DELETED: u64 = 10;
    /// `(table_id, count)` — range-tombstone count for a table added by an
    /// earlier ADDED_TABLE record in the *same* edit. A separate optional
    /// tag (emitted only when `count > 0`) rather than a field inside
    /// ADDED_TABLE, so MANIFESTs written before range deletes existed still
    /// parse, and old readers hit a clean "unknown tag" error instead of
    /// silently misparsing new records.
    pub const TABLE_RANGE_TOMBSTONES: u64 = 11;
    /// `(table_id, bytes)` — tail length of a table added earlier in the
    /// same edit; an annotation like [`TABLE_RANGE_TOMBSTONES`], for the
    /// same two reasons. Absent (a MANIFEST from before it existed, or a
    /// table whose length is not known) decodes as 0.
    pub const TABLE_TAIL_BYTES: u64 = 12;
}

impl VersionEdit {
    /// Serialize for the MANIFEST.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            put_varint64(&mut out, tag::LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint64(&mut out, tag::NEXT_FILE);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_table_id {
            put_varint64(&mut out, tag::NEXT_TABLE_ID);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint64(&mut out, tag::LAST_SEQUENCE);
            put_varint64(&mut out, v);
        }
        for (level, key) in &self.compact_pointers {
            put_varint64(&mut out, tag::COMPACT_POINTER);
            put_varint32(&mut out, *level);
            put_length_prefixed_slice(&mut out, key);
        }
        for (level, table_id) in &self.deleted_tables {
            put_varint64(&mut out, tag::DELETED_TABLE);
            put_varint32(&mut out, *level);
            put_varint64(&mut out, *table_id);
        }
        if let Some(policy) = self.compaction_policy {
            put_varint64(&mut out, tag::COMPACTION_POLICY);
            put_varint64(&mut out, policy.manifest_tag());
        }
        for (file_number, offset, len) in &self.vlog_dead {
            put_varint64(&mut out, tag::VLOG_DEAD);
            put_varint64(&mut out, *file_number);
            put_varint64(&mut out, *offset);
            put_varint64(&mut out, *len);
        }
        for file_number in &self.vlog_deleted {
            put_varint64(&mut out, tag::VLOG_DELETED);
            put_varint64(&mut out, *file_number);
        }
        for (level, run_tag, meta) in &self.added_tables {
            put_varint64(&mut out, tag::ADDED_TABLE);
            put_varint32(&mut out, *level);
            put_varint64(&mut out, *run_tag);
            put_varint64(&mut out, meta.table_id);
            put_varint64(&mut out, meta.file_number);
            // Fixed-width offset: the paper notes BoLT's only MANIFEST
            // format cost is "an offset of each SSTable, which is only
            // 8 bytes" (§3.2). The tail-length annotation below adds a tag,
            // the id and a varint (≈ 5 bytes a table); it buys every later
            // open of the table one device read instead of two.
            put_fixed64(&mut out, meta.offset);
            put_varint64(&mut out, meta.size);
            put_varint64(&mut out, meta.num_entries);
            put_length_prefixed_slice(&mut out, &meta.smallest);
            put_length_prefixed_slice(&mut out, &meta.largest);
            if meta.range_tombstones > 0 {
                put_varint64(&mut out, tag::TABLE_RANGE_TOMBSTONES);
                put_varint64(&mut out, meta.table_id);
                put_varint64(&mut out, meta.range_tombstones);
            }
            if meta.tail_bytes > 0 {
                put_varint64(&mut out, tag::TABLE_TAIL_BYTES);
                put_varint64(&mut out, meta.table_id);
                put_varint64(&mut out, meta.tail_bytes);
            }
        }
        out
    }

    /// Parse a MANIFEST record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        let mut dec = Decoder::new(data);
        while !dec.is_empty() {
            match dec.varint64()? {
                tag::LOG_NUMBER => edit.log_number = Some(dec.varint64()?),
                tag::NEXT_FILE => edit.next_file_number = Some(dec.varint64()?),
                tag::NEXT_TABLE_ID => edit.next_table_id = Some(dec.varint64()?),
                tag::LAST_SEQUENCE => edit.last_sequence = Some(dec.varint64()?),
                tag::COMPACT_POINTER => {
                    let level = dec.varint32()?;
                    let key = dec.length_prefixed_slice()?.to_vec();
                    edit.compact_pointers.push((level, key));
                }
                tag::DELETED_TABLE => {
                    let level = dec.varint32()?;
                    let table_id = dec.varint64()?;
                    edit.deleted_tables.push((level, table_id));
                }
                tag::ADDED_TABLE => {
                    let level = dec.varint32()?;
                    let run_tag = dec.varint64()?;
                    let table_id = dec.varint64()?;
                    let file_number = dec.varint64()?;
                    let offset = dec.fixed64()?;
                    let size = dec.varint64()?;
                    let num_entries = dec.varint64()?;
                    let smallest = dec.length_prefixed_slice()?.to_vec();
                    let largest = dec.length_prefixed_slice()?.to_vec();
                    edit.added_tables.push((
                        level,
                        run_tag,
                        TableMeta::new(
                            table_id,
                            file_number,
                            offset,
                            size,
                            num_entries,
                            smallest,
                            largest,
                        ),
                    ));
                }
                annotation @ (tag::TABLE_RANGE_TOMBSTONES | tag::TABLE_TAIL_BYTES) => {
                    let table_id = dec.varint64()?;
                    let value = dec.varint64()?;
                    // The tag annotates an ADDED_TABLE earlier in this same
                    // edit; the writer emits it immediately after the table
                    // record, so search from the back.
                    let meta = edit
                        .added_tables
                        .iter_mut()
                        .rev()
                        .find(|(_, _, m)| m.table_id == table_id)
                        .map(|(_, _, m)| m)
                        .ok_or_else(|| {
                            Error::corruption(format!(
                                "annotation {annotation} for table {table_id} not added by this edit"
                            ))
                        })?;
                    if annotation == tag::TABLE_TAIL_BYTES {
                        meta.tail_bytes = value;
                    } else {
                        meta.range_tombstones = value;
                    }
                }
                tag::VLOG_DEAD => {
                    let file_number = dec.varint64()?;
                    let offset = dec.varint64()?;
                    let len = dec.varint64()?;
                    edit.vlog_dead.push((file_number, offset, len));
                }
                tag::VLOG_DELETED => {
                    edit.vlog_deleted.push(dec.varint64()?);
                }
                tag::COMPACTION_POLICY => {
                    let raw = dec.varint64()?;
                    let policy = CompactionPolicyKind::from_manifest_tag(raw).ok_or_else(|| {
                        Error::corruption(format!("unknown compaction policy tag {raw}"))
                    })?;
                    edit.compaction_policy = Some(policy);
                }
                other => {
                    return Err(Error::corruption(format!("unknown edit tag {other}")));
                }
            }
        }
        Ok(edit)
    }
}

/// Applies a sequence of edits to a base version.
///
/// A table id lives in exactly one place, so a *move* (settled compaction)
/// is expressed as delete + re-add of the same id within one edit: the add
/// always wins over the base placement.
#[derive(Debug)]
pub struct VersionBuilder {
    icmp: InternalKeyComparator,
    base: Arc<Version>,
    /// Levels from this one on may hold at most one run
    /// ([`CompactionPolicyKind::single_run_from`]).
    single_run_from: usize,
    deleted: std::collections::HashSet<u64>,
    /// table_id -> (level, run_tag, meta); later edits replace earlier.
    added: std::collections::BTreeMap<u64, (u32, u64, Arc<TableMeta>)>,
    compact_pointers: BTreeMap<u32, Vec<u8>>,
}

impl VersionBuilder {
    /// Start from `base`, every level free to stack runs.
    pub fn new(icmp: InternalKeyComparator, base: Arc<Version>) -> Self {
        VersionBuilder {
            icmp,
            compact_pointers: base.compact_pointers.clone(),
            base,
            single_run_from: usize::MAX,
            deleted: std::collections::HashSet::new(),
            added: std::collections::BTreeMap::new(),
        }
    }

    /// Set the run-count invariant [`build`](Self::build) enforces: levels
    /// from `level` on hold at most one run. Intra-run disjointness is
    /// enforced regardless.
    pub fn set_single_run_from(&mut self, level: usize) {
        self.single_run_from = level;
    }

    /// Apply one edit's table changes and compaction cursors (edits must
    /// arrive in log order). A cursor for a level the tree does not have is
    /// carried inertly: nothing ever reads it.
    pub fn apply(&mut self, edit: &VersionEdit) {
        let cursors = edit.compact_pointers.iter().cloned();
        self.compact_pointers.extend(cursors);
        for (_, table_id) in &edit.deleted_tables {
            self.deleted.insert(*table_id);
            self.added.remove(table_id);
        }
        for (level, run_tag, meta) in &edit.added_tables {
            self.added
                .insert(meta.table_id, (*level, *run_tag, Arc::new(meta.clone())));
        }
    }

    /// Produce the resulting version.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the resulting shape is invalid —
    /// overlapping tables within one run, or more runs on a level than the
    /// pinned policy allows. Either way the edit sequence being
    /// applied was never a real engine state, e.g. a MANIFEST interleaving
    /// committed and uncommitted edits.
    pub fn build(self) -> Result<Version> {
        let num_levels = self.base.levels.len();
        let mut version = Version::empty(num_levels);
        version.compact_pointers = self.compact_pointers;
        // (level, tag) -> tables
        let mut runs: std::collections::BTreeMap<(usize, u64), Vec<Arc<TableMeta>>> =
            std::collections::BTreeMap::new();
        for (level, state) in self.base.levels.iter().enumerate() {
            for run in &state.runs {
                for table in run.tables.iter() {
                    // Adds override the base placement (moves).
                    if !self.deleted.contains(&table.table_id)
                        && !self.added.contains_key(&table.table_id)
                    {
                        runs.entry((level, run.tag))
                            .or_default()
                            .push(Arc::clone(table));
                    }
                }
            }
        }
        for (_, (level, run_tag, meta)) in self.added {
            runs.entry((level as usize, run_tag))
                .or_default()
                .push(meta);
        }
        let icmp = &self.icmp;
        for ((level, tag), mut tables) in runs {
            if tables.is_empty() {
                continue;
            }
            tables.sort_by(|a, b| icmp.compare(&a.smallest, &b.smallest));
            if !tables.windows(2).all(|w| {
                icmp.user_comparator()
                    .compare(w[0].largest_user_key(), w[1].smallest_user_key())
                    .is_lt()
            }) {
                return Err(Error::corruption(format!(
                    "run {tag} at level {level} has overlapping tables"
                )));
            }
            version.range_tombstone_count += tables.iter().map(|t| t.range_tombstones).sum::<u64>();
            version.levels[level].runs.push(Run {
                tag,
                tables: tables.into(),
            });
        }
        // Newest runs first.
        for state in &mut version.levels {
            state.runs.sort_by_key(|run| std::cmp::Reverse(run.tag));
        }
        let levels = version.levels.iter().enumerate();
        for (level, state) in levels.skip(self.single_run_from) {
            if state.num_runs() > 1 {
                return Err(Error::corruption(format!(
                    "level {level} holds {} runs but the layout allows one beyond level {}",
                    state.num_runs(),
                    self.single_run_from.saturating_sub(1),
                )));
            }
        }
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_table::ikey::make_internal_key;

    fn meta(id: u64, smallest: &[u8], largest: &[u8]) -> TableMeta {
        TableMeta::new(
            id,
            id,
            0,
            1 << 20,
            10,
            make_internal_key(smallest, 100, ValueType::Value),
            make_internal_key(largest, 1, ValueType::Value),
        )
    }

    fn icmp() -> InternalKeyComparator {
        InternalKeyComparator::default()
    }

    #[test]
    fn edit_roundtrip() {
        let mut edit = VersionEdit {
            log_number: Some(9),
            next_file_number: Some(42),
            next_table_id: Some(77),
            last_sequence: Some(123456),
            compaction_policy: Some(CompactionPolicyKind::LazyLeveled),
            ..Default::default()
        };
        edit.compact_pointers
            .push((2, make_internal_key(b"ptr", 5, ValueType::Value)));
        edit.deleted_tables.push((1, 11));
        edit.added_tables.push((2, 0, meta(12, b"a", b"m")));
        edit.added_tables.push((0, 7, meta(13, b"n", b"z")));
        // Tables with range tombstones and a known tail length exercise the
        // optional annotation tags, alone and together, next to plain ones.
        edit.added_tables
            .push((1, 3, meta(14, b"q", b"t").with_range_tombstones(5)));
        edit.added_tables
            .push((1, 3, meta(15, b"u", b"v").with_tail_bytes(357)));
        let both = meta(16, b"w", b"x").with_range_tombstones(2);
        edit.added_tables
            .push((1, 3, both.with_tail_bytes(u64::MAX)));
        edit.vlog_dead.push((21, 0, 65536));
        edit.vlog_dead.push((22, 4096, 128));
        edit.vlog_deleted.push(20);

        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
    }

    #[test]
    fn decode_accepts_added_table_without_annotation_tags() {
        // The exact ADDED_TABLE wire layout from before range deletes and
        // tail lengths existed, hand-encoded: a MANIFEST written by an older
        // build must still parse, with both defaulting to zero.
        let want = meta(12, b"a", b"m");
        let mut data = Vec::new();
        put_varint64(&mut data, 7); // tag::ADDED_TABLE
        put_varint32(&mut data, 2); // level
        put_varint64(&mut data, 0); // run tag
        put_varint64(&mut data, want.table_id);
        put_varint64(&mut data, want.file_number);
        put_fixed64(&mut data, want.offset);
        put_varint64(&mut data, want.size);
        put_varint64(&mut data, want.num_entries);
        put_length_prefixed_slice(&mut data, &want.smallest);
        put_length_prefixed_slice(&mut data, &want.largest);

        let decoded = VersionEdit::decode(&data).unwrap();
        assert_eq!(decoded.added_tables.len(), 1);
        let (level, run_tag, got) = &decoded.added_tables[0];
        assert_eq!((*level, *run_tag), (2, 0));
        assert_eq!(got, &want);
        assert_eq!((got.range_tombstones, got.tail_bytes), (0, 0));
    }

    #[test]
    fn decode_rejects_orphan_annotation_tags() {
        // A TABLE_RANGE_TOMBSTONES or TABLE_TAIL_BYTES record must annotate
        // a table added earlier in the same edit.
        for annotation in [11, 12] {
            let mut data = Vec::new();
            put_varint64(&mut data, annotation);
            put_varint64(&mut data, 999); // table id never added
            put_varint64(&mut data, 3);
            assert!(VersionEdit::decode(&data).is_err(), "tag {annotation}");
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut data = Vec::new();
        put_varint64(&mut data, 99);
        assert!(VersionEdit::decode(&data).is_err());
    }

    #[test]
    fn decode_rejects_unknown_policy_tag() {
        let mut data = Vec::new();
        put_varint64(&mut data, 8); // tag::COMPACTION_POLICY
        put_varint64(&mut data, 42);
        assert!(VersionEdit::decode(&data).is_err());
    }

    #[test]
    fn run_layout_bounds_runs_per_level() {
        // Two overlapping runs at level 1: fine by default, corrupt under
        // the leveled layout.
        let mut edit = VersionEdit::default();
        edit.added_tables.push((1, 1, meta(1, b"a", b"c")));
        edit.added_tables.push((1, 2, meta(2, b"b", b"d")));

        let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
        builder.apply(&edit);
        assert!(builder.build().is_ok());

        let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
        builder.set_single_run_from(1);
        builder.apply(&edit);
        assert!(builder.build().is_err());

        // Lazy-leveled: stacking at level 1 is allowed, at the last is not.
        let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
        builder.set_single_run_from(6);
        builder.apply(&edit);
        assert!(builder.build().is_ok());

        let mut edit_last = VersionEdit::default();
        edit_last.added_tables.push((6, 1, meta(1, b"a", b"c")));
        edit_last.added_tables.push((6, 2, meta(2, b"b", b"d")));
        let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
        builder.set_single_run_from(6);
        builder.apply(&edit_last);
        assert!(builder.build().is_err());

        // L0 always stacks.
        let mut edit_l0 = VersionEdit::default();
        edit_l0.added_tables.push((0, 1, meta(1, b"a", b"c")));
        edit_l0.added_tables.push((0, 2, meta(2, b"b", b"d")));
        let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
        builder.set_single_run_from(1);
        builder.apply(&edit_l0);
        assert!(builder.build().is_ok());
    }

    #[test]
    fn builder_adds_and_deletes() {
        let base = Arc::new(Version::empty(7));
        let mut edit = VersionEdit::default();
        edit.added_tables.push((0, 1, meta(1, b"a", b"c")));
        edit.added_tables.push((0, 2, meta(2, b"b", b"d")));
        edit.added_tables.push((1, 0, meta(3, b"a", b"c")));
        edit.added_tables.push((1, 0, meta(4, b"d", b"f")));
        let mut builder = VersionBuilder::new(icmp(), base);
        builder.apply(&edit);
        let v1 = Arc::new(builder.build().unwrap());
        assert_eq!(v1.levels[0].num_runs(), 2);
        assert_eq!(v1.levels[0].runs[0].tag, 2, "newest run first");
        assert_eq!(v1.levels[1].num_runs(), 1);
        assert_eq!(v1.levels[1].runs[0].tables.len(), 2);

        // Delete one L0 run's table, move an L1 table to L2 (settled move).
        let mut edit2 = VersionEdit::default();
        edit2.deleted_tables.push((0, 1));
        edit2.deleted_tables.push((1, 4));
        edit2.added_tables.push((2, 0, meta(4, b"d", b"f")));
        let mut builder = VersionBuilder::new(icmp(), Arc::clone(&v1));
        builder.apply(&edit2);
        let v2 = builder.build().unwrap();
        assert_eq!(v2.levels[0].num_runs(), 1);
        assert_eq!(v2.levels[1].num_tables(), 1);
        assert_eq!(v2.levels[2].num_tables(), 1);
        assert_eq!(v2.levels[2].runs[0].tables[0].table_id, 4);
        // The moved table kept its physical location.
        assert_eq!(v2.levels[2].runs[0].tables[0].file_number, 4);
    }

    /// The tombstone total a version carries is the sum over its tables,
    /// after any sequence of adds, deletes and settled moves.
    #[test]
    fn cached_tombstone_total_tracks_every_edit() {
        // Table `id` owns the key range `id`, so any set of tables forms a
        // valid run at any level.
        let table = |id: u64, tombstones: u64| {
            let key = |suffix: &str| format!("{id:06}{suffix}").into_bytes();
            meta(id, &key("a"), &key("z")).with_range_tombstones(tombstones)
        };
        let walk =
            |v: &Version| -> u64 { v.all_tables().map(|(_, _, t)| t.range_tombstones).sum() };
        let apply = |base: &Arc<Version>, edit: &VersionEdit| {
            let mut builder = VersionBuilder::new(icmp(), Arc::clone(base));
            builder.apply(edit);
            let next = builder.build().unwrap();
            assert_eq!(next.live_range_tombstones(), walk(&next));
            assert_eq!(next.has_range_tombstones(), walk(&next) > 0);
            Arc::new(next)
        };
        let move_to = |level: u32, id: u64, tombstones: u64, to: u32| VersionEdit {
            deleted_tables: vec![(level, id)],
            added_tables: vec![(to, 0, table(id, tombstones))],
            ..Default::default()
        };

        let mut rng = bolt_common::rng::Rng64::new(0xB017);
        let mut version = Arc::new(Version::empty(4));
        // id -> (level, tombstones)
        let mut live = std::collections::BTreeMap::<u64, (u32, u64)>::new();
        for id in 1..=300u64 {
            let mut edit = VersionEdit::default();
            let victim = live
                .keys()
                .nth(rng.next_below(live.len().max(1) as u64) as usize);
            match (rng.next_below(4), victim.copied()) {
                (1, Some(victim)) => {
                    let (level, _) = live.remove(&victim).unwrap();
                    edit.deleted_tables.push((level, victim));
                }
                (2, Some(victim)) => {
                    let (level, tombstones) = live[&victim];
                    let to = rng.next_below(4) as u32;
                    edit = move_to(level, victim, tombstones, to);
                    live.insert(victim, (to, tombstones));
                }
                _ => {
                    let level = rng.next_below(4) as u32;
                    let tombstones = rng.next_below(4).saturating_sub(1);
                    edit.added_tables.push((level, 0, table(id, tombstones)));
                    live.insert(id, (level, tombstones));
                }
            }
            version = apply(&version, &edit);
            let want: u64 = live.values().map(|(_, tombstones)| tombstones).sum();
            assert_eq!(version.live_range_tombstones(), want, "after edit {id}");
        }

        // Down to the last carrier: a move leaves the total alone, and
        // deleting that table clears the flag.
        let carriers: Vec<_> = live.iter().filter(|(_, (_, n))| *n > 0).collect();
        assert!(carriers.len() > 1, "the sequence left tombstones to delete");
        for (i, (&id, &(level, tombstones))) in carriers.iter().enumerate() {
            assert!(version.has_range_tombstones());
            let total = version.live_range_tombstones();
            let to = (level + 1) % 4;
            version = apply(&version, &move_to(level, id, tombstones, to));
            assert_eq!(version.live_range_tombstones(), total, "a move is neutral");
            let delete = VersionEdit {
                deleted_tables: vec![(to, id)],
                ..Default::default()
            };
            version = apply(&version, &delete);
            assert_eq!(version.live_range_tombstones(), total - tombstones);
            assert_eq!(version.has_range_tombstones(), i + 1 < carriers.len());
        }
        assert!(version.num_tables() > 0, "tombstone-free tables remain");
    }

    #[test]
    fn run_find_binary_search() {
        let run = Run {
            tag: 0,
            tables: Arc::new([
                Arc::new(meta(1, b"a", b"c")),
                Arc::new(meta(2, b"e", b"g")),
                Arc::new(meta(3, b"i", b"k")),
            ]),
        };
        let ic = icmp();
        assert_eq!(run.find(&ic, b"b").unwrap().table_id, 1);
        assert_eq!(run.find(&ic, b"e").unwrap().table_id, 2);
        assert_eq!(run.find(&ic, b"g").unwrap().table_id, 2);
        assert!(run.find(&ic, b"d").is_none());
        assert!(run.find(&ic, b"z").is_none());
        assert_eq!(run.find(&ic, b"k").unwrap().table_id, 3);
    }

    #[test]
    fn overlapping_tables_across_runs() {
        let base = Arc::new(Version::empty(7));
        let mut edit = VersionEdit::default();
        edit.added_tables.push((0, 1, meta(1, b"a", b"f")));
        edit.added_tables.push((0, 2, meta(2, b"d", b"j")));
        edit.added_tables.push((0, 3, meta(3, b"p", b"q")));
        let mut builder = VersionBuilder::new(icmp(), base);
        builder.apply(&edit);
        let v = builder.build().unwrap();
        let overlapping = v.overlapping_tables(&icmp(), 0, b"e", b"g");
        let mut ids: Vec<u64> = overlapping.iter().map(|t| t.table_id).collect();
        ids.sort();
        assert_eq!(ids, vec![1, 2]);
        assert!(v.overlapping_tables(&icmp(), 0, b"k", b"o").is_empty());
    }

    /// The binary search names the tables the linear filter names, ends
    /// inclusive, for every range over a run with gaps.
    #[test]
    fn a_runs_overlapping_slice_is_what_a_scan_of_it_finds() {
        let mut edit = VersionEdit::default();
        for (id, (lo, hi)) in [(b"b", b"d"), (b"e", b"e"), (b"h", b"k"), (b"m", b"p")]
            .into_iter()
            .enumerate()
        {
            edit.added_tables.push((1, 0, meta(id as u64 + 1, lo, hi)));
        }
        let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
        builder.apply(&edit);
        let v = builder.build().unwrap();
        let run = &v.levels[1].runs[0];
        let keys: Vec<[u8; 1]> = (b'a'..=b'q').map(|k| [k]).collect();
        for (i, begin) in keys.iter().enumerate() {
            for end in &keys[i..] {
                let scanned = run
                    .tables
                    .iter()
                    .filter(|t| t.overlaps(&icmp(), begin, end));
                let scanned: Vec<u64> = scanned.map(|t| t.table_id).collect();
                let found: Vec<u64> = (run.overlapping(&icmp(), begin, end).iter())
                    .map(|t| t.table_id)
                    .collect();
                assert_eq!(found, scanned, "{begin:?}..={end:?}");
            }
        }
    }

    #[test]
    fn level_sizes() {
        let base = Arc::new(Version::empty(7));
        let mut edit = VersionEdit::default();
        edit.added_tables.push((1, 0, meta(1, b"a", b"c")));
        edit.added_tables.push((1, 0, meta(2, b"d", b"f")));
        let mut builder = VersionBuilder::new(icmp(), base);
        builder.apply(&edit);
        let v = builder.build().unwrap();
        assert_eq!(v.levels[1].size(), 2 << 20);
        assert_eq!(v.num_tables(), 2);
    }
}
