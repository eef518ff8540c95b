//! The VersionSet: MANIFEST logging, version installation, recovery, and
//! physical-space reclamation.
//!
//! The MANIFEST is the **commit barrier** of every flush and compaction
//! (§2.4): new tables are synced first, then a [`VersionEdit`] is appended
//! to the MANIFEST and synced, atomically validating the new tables and
//! invalidating the victims. Only after that commit does
//! [`VersionSet::collect_garbage`] reclaim space — by deleting files whose
//! every logical table is dead, or by **punching holes** in compaction
//! files that still host live logical tables (§3.2, no barrier needed).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Weak};

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent, EventSink};
use bolt_common::{Error, Result};
use bolt_env::Env;
use bolt_table::cache::TableCache;
use bolt_table::comparator::InternalKeyComparator;
use bolt_wal::{LogReader, LogWriter};

use crate::filename::{current_file, manifest_file, table_file, vlog_file};
use crate::options::CompactionPolicyKind;
use crate::version::{RunLayout, Version, VersionBuilder, VersionEdit};

/// Wrap a fresh MANIFEST file: its barriers default to `open_manifest`
/// (the snapshot written at open); flush/compaction commits override with
/// their own explicit scopes.
fn new_manifest_writer(file: Box<dyn bolt_env::WritableFile>) -> LogWriter {
    let mut manifest = LogWriter::new(file);
    manifest.set_barrier_cause(BarrierCause::OpenManifest);
    manifest
}

#[derive(Debug, Clone)]
struct FileRegion {
    offset: u64,
    size: u64,
    table_id: u64,
}

#[derive(Debug, Default)]
struct FileInfo {
    regions: Vec<FileRegion>,
    punched: HashSet<u64>,
}

/// A set of disjoint byte ranges, merged on insert.
///
/// The value-log dead ledger is kept as *ranges*, not byte counts, because
/// range insertion is idempotent: WAL replay after a crash can legitimately
/// put the same `(key, sequence, pointer)` entry into two SSTables (a flush
/// need not advance the WAL floor), and compaction then drops the duplicate
/// copy. Summing per-drop byte counts would double-count that value and
/// retire its segment while the surviving copy still resolves through it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// `start → end` (exclusive); entries never overlap or touch.
    ranges: BTreeMap<u64, u64>,
    total: u64,
}

impl RangeSet {
    /// Insert `[offset, offset + len)`, merging with any overlapping or
    /// adjacent ranges. Re-inserting covered bytes is a no-op.
    pub fn insert(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut start = offset;
        let mut end = offset.saturating_add(len);
        if let Some((&s, &e)) = self.ranges.range(..=start).next_back() {
            if e >= start {
                start = s;
                end = end.max(e);
                self.ranges.remove(&s);
                self.total -= e - s;
            }
        }
        while let Some((&s, &e)) = self.ranges.range(start..=end).next() {
            end = end.max(e);
            self.ranges.remove(&s);
            self.total -= e - s;
        }
        self.ranges.insert(start, end);
        self.total += end - start;
    }

    /// Total bytes covered.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterate `(offset, len)` over the merged ranges.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e - s))
    }

    /// `true` when no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Liveness ledger entry for one value-log segment.
///
/// `written` is `None` while the segment is the active appender target
/// (its final size is unknown, so it is never retired); sealing — at
/// rotation or at recovery from the on-disk size — makes it eligible.
/// `dead` is persisted in the MANIFEST as ranges (see
/// [`VersionEdit::vlog_dead`]); `written` is recomputed at recovery from
/// `Env::file_size`, so it is never encoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VlogSegInfo {
    /// Final byte size once sealed; `None` while actively appended.
    pub written: Option<u64>,
    /// Byte ranges whose pointers compaction has dropped.
    pub dead: RangeSet,
}

impl VlogSegInfo {
    /// `true` when every written byte is dead and the file can be deleted.
    pub fn fully_dead(&self) -> bool {
        self.written.is_some_and(|w| self.dead.total() >= w)
    }
}

/// Owns the current [`Version`], the MANIFEST, and the id counters.
pub struct VersionSet {
    env: Arc<dyn Env>,
    db: String,
    icmp: InternalKeyComparator,
    num_levels: usize,
    current: Arc<Version>,
    /// Every installed version; readers may still hold old ones.
    live: Vec<Weak<Version>>,
    manifest: Option<LogWriter>,
    manifest_number: u64,
    /// Next physical file number to hand out.
    pub next_file_number: u64,
    /// Next logical table id to hand out.
    pub next_table_id: u64,
    /// Recovered last sequence number (authoritative copy lives in the DB).
    pub last_sequence: u64,
    /// WALs below this number are obsolete.
    pub log_number: u64,
    /// Round-robin victim cursor per level (largest internal key of the
    /// last victim).
    pub compact_pointer: Vec<Option<Vec<u8>>>,
    /// Compaction policy pinned in the MANIFEST (first edit of every
    /// manifest file); reopen under a different policy is refused.
    policy: CompactionPolicyKind,
    /// Run-count invariant enforced when building versions.
    layout: RunLayout,
    files: HashMap<u64, FileInfo>,
    pending_files: HashSet<u64>,
    /// Per-segment value-log liveness ledger (see [`VlogSegInfo`]).
    vlog_segments: HashMap<u64, VlogSegInfo>,
    /// Segments committed as retired whose file delete has not succeeded
    /// yet; retried by [`VersionSet::collect_garbage`] and re-persisted in
    /// snapshot edits so a lingering file stays condemned across reopens.
    vlog_retired_pending: Vec<u64>,
    /// Dead value ranges `(segment, offset, len)` committed by a MANIFEST
    /// edit but not yet punched. Punches wait for old pinned versions to
    /// drop: unlike table regions, pointer liveness is not tracked per
    /// version, so an iterator holding an older version may still resolve
    /// a pointer whose drop this queue records.
    vlog_punch_queue: Vec<(u64, u64, u64)>,
    /// Abandoned `MANIFEST-*` file numbers left behind by a re-cut whose
    /// eager delete failed; retried by [`VersionSet::collect_garbage`]
    /// (open-time scavenging is the final backstop).
    stale_manifests: Vec<u64>,
    /// Versions pinned by in-progress checkpoints, keyed by pin id. Holding
    /// the `Arc` keeps every table the checkpoint will link alive in the
    /// `live` scan, and any pin defers value-log punches/retirements.
    checkpoint_pins: HashMap<u64, Arc<Version>>,
    next_checkpoint_pin: u64,
    /// Physical table files hard-linked (or about to be) into a checkpoint
    /// this process lifetime. A hole punch goes through the shared inode
    /// and would corrupt the (completed, self-contained) checkpoint, so
    /// these files are only ever reclaimed by whole-file deletion — which
    /// merely unlinks the database's name. This set alone is NOT the punch
    /// gate: it covers the pin-to-link window (when the link does not
    /// exist yet) and in-process checkpoints cheaply, while the punch path
    /// additionally consults [`Env::link_count`], which survives restarts
    /// and therefore protects checkpoints taken by earlier processes.
    checkpoint_linked_files: HashSet<u64>,
    /// Value-log segments hard-linked (or about to be) into a checkpoint;
    /// same punch-suppression rule as `checkpoint_linked_files`.
    checkpoint_linked_vlogs: HashSet<u64>,
    /// Successful self-healing re-cuts since open.
    recuts: u64,
    /// Structured-event destination; MANIFEST commits are announced here.
    sink: Option<Arc<EventSink>>,
}

impl std::fmt::Debug for VersionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionSet")
            .field("next_file_number", &self.next_file_number)
            .field("next_table_id", &self.next_table_id)
            .field("log_number", &self.log_number)
            .field("live_tables", &self.current.num_tables())
            .finish()
    }
}

impl VersionSet {
    /// Create an empty set for database directory `db`.
    pub fn new(
        env: Arc<dyn Env>,
        db: &str,
        icmp: InternalKeyComparator,
        num_levels: usize,
    ) -> Self {
        VersionSet {
            env,
            db: db.to_string(),
            icmp,
            num_levels,
            current: Arc::new(Version::empty(num_levels)),
            live: Vec::new(),
            manifest: None,
            manifest_number: 0,
            next_file_number: 1,
            next_table_id: 1,
            last_sequence: 0,
            log_number: 0,
            compact_pointer: vec![None; num_levels],
            policy: CompactionPolicyKind::default(),
            layout: RunLayout::default(),
            files: HashMap::new(),
            pending_files: HashSet::new(),
            vlog_segments: HashMap::new(),
            vlog_retired_pending: Vec::new(),
            vlog_punch_queue: Vec::new(),
            stale_manifests: Vec::new(),
            checkpoint_pins: HashMap::new(),
            next_checkpoint_pin: 0,
            checkpoint_linked_files: HashSet::new(),
            checkpoint_linked_vlogs: HashSet::new(),
            recuts: 0,
            sink: None,
        }
    }

    /// Install the structured-event sink. Subsequent MANIFEST commits emit
    /// [`EngineEvent::ManifestCommit`].
    pub fn set_event_sink(&mut self, sink: Arc<EventSink>) {
        self.sink = Some(sink);
    }

    /// Declare the compaction policy this set operates under, plus the
    /// run-count invariant to enforce on every built version. Must be
    /// called before [`VersionSet::create_new`] or [`VersionSet::recover`]:
    /// the policy is pinned in the MANIFEST and recovery refuses a
    /// mismatch.
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicyKind, layout: RunLayout) {
        self.policy = policy;
        self.layout = layout;
    }

    /// The compaction policy this set was created or recovered under.
    pub fn compaction_policy(&self) -> CompactionPolicyKind {
        self.policy
    }

    /// The current version.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// The internal-key comparator.
    pub fn icmp(&self) -> &InternalKeyComparator {
        &self.icmp
    }

    /// Database directory.
    pub fn db_name(&self) -> &str {
        &self.db
    }

    /// Allocate a physical file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Allocate a logical table id.
    pub fn new_table_id(&mut self) -> u64 {
        let n = self.next_table_id;
        self.next_table_id += 1;
        n
    }

    /// Protect `file_number` from garbage collection while being written.
    pub fn mark_pending(&mut self, file_number: u64) {
        self.pending_files.insert(file_number);
    }

    /// Release the pending mark.
    pub fn clear_pending(&mut self, file_number: u64) {
        self.pending_files.remove(&file_number);
    }

    /// Record that `[offset, offset+size)` of `file_number` holds logical
    /// table `table_id` (enables hole punching when it dies).
    pub fn register_region(&mut self, file_number: u64, offset: u64, size: u64, table_id: u64) {
        self.files
            .entry(file_number)
            .or_default()
            .regions
            .push(FileRegion {
                offset,
                size,
                table_id,
            });
    }

    /// Append `edit` to the MANIFEST, sync it (the commit barrier), and
    /// install the resulting version.
    ///
    /// # Errors
    ///
    /// Returns I/O or corruption errors; on error the in-memory state is
    /// unchanged.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<Version>> {
        edit.next_file_number = Some(self.next_file_number);
        edit.next_table_id = Some(self.next_table_id);
        if edit.last_sequence.is_none() {
            edit.last_sequence = Some(self.last_sequence);
        }
        for (level, key) in &edit.compact_pointers {
            self.compact_pointer[*level as usize] = Some(key.clone());
        }

        let manifest = self.manifest.as_mut().ok_or_else(|| {
            Error::InvalidState(
                "MANIFEST unavailable (not initialized, or poisoned by an earlier I/O error)"
                    .into(),
            )
        })?;
        let payload = edit.encode();
        if let Err(e) = manifest.add_record(&payload).and_then(|()| manifest.sync()) {
            // The MANIFEST now holds an appended-but-uncommitted (or torn)
            // record that this VersionSet never applied. Appending anything
            // after it would be disastrous on two fronts: a later successful
            // sync would commit THIS edit alongside edits built as if it
            // never happened (recovery would rebuild an impossible version),
            // and a torn record in the middle would make recovery silently
            // stop short of later acknowledged commits. Drop the writer and
            // self-heal by re-cutting a fresh MANIFEST (O5); only if the
            // re-cut itself fails does the set stay poisoned until reopen.
            self.manifest = None;
            self.recut_and_recommit(&mut edit, e)?;
        }
        if let Some(sink) = &self.sink {
            sink.emit(EngineEvent::ManifestCommit {
                edit_bytes: payload.len() as u64,
                added: edit.added_tables.len() as u64,
                deleted: edit.deleted_tables.len() as u64,
            });
        }

        if let Some(seq) = edit.last_sequence {
            self.last_sequence = self.last_sequence.max(seq);
        }
        if let Some(n) = edit.log_number {
            self.log_number = self.log_number.max(n);
        }
        for (_, _, meta) in &edit.added_tables {
            self.register_region(meta.file_number, meta.offset, meta.size, meta.table_id);
        }
        for &(segment, offset, len) in &edit.vlog_dead {
            self.vlog_segments
                .entry(segment)
                .or_default()
                .dead
                .insert(offset, len);
        }
        for &segment in &edit.vlog_deleted {
            self.vlog_segments.remove(&segment);
            // The MANIFEST has durably condemned the segment; the file itself
            // is deleted by collect_garbage (retried until it succeeds).
            self.vlog_retired_pending.push(segment);
        }

        let mut builder = VersionBuilder::new(self.icmp.clone(), Arc::clone(&self.current));
        builder.set_layout(self.layout);
        builder.apply(&edit);
        let version = Arc::new(builder.build()?);
        self.live.push(Arc::downgrade(&version));
        self.current = Arc::clone(&version);
        Ok(version)
    }

    /// Pin `version` for an in-progress checkpoint. Returns the pin id and
    /// a frozen copy of the value-log liveness ledger — the segment set and
    /// per-segment dead ranges *as of the pin* — sorted by segment number.
    ///
    /// The pin does three things at once: the held `Arc` keeps every table
    /// the checkpoint references alive for [`VersionSet::collect_garbage`],
    /// any live pin defers value-log punching and segment retirement, and
    /// every file about to be hard-linked is recorded so later hole punches
    /// never go through an inode the checkpoint shares.
    ///
    /// The frozen ledger is what the checkpoint must link and what its
    /// MANIFEST must carry as `vlog_dead`: the live ledger keeps moving
    /// (a compaction committing after the pin can add dead ranges covering
    /// pointers the pinned version still resolves, or register segments
    /// the checkpoint will never link), so reading it again at
    /// manifest-write time would poison the copy's own space accounting.
    pub fn pin_checkpoint(&mut self, version: &Arc<Version>) -> (u64, Vec<(u64, RangeSet)>) {
        let id = self.next_checkpoint_pin;
        self.next_checkpoint_pin += 1;
        for (_, _, table) in version.all_tables() {
            self.checkpoint_linked_files.insert(table.file_number);
        }
        let mut ledger: Vec<(u64, RangeSet)> = self
            .vlog_segments
            .iter()
            .map(|(&segment, info)| (segment, info.dead.clone()))
            .collect();
        ledger.sort_unstable_by_key(|&(segment, _)| segment);
        for &(segment, _) in &ledger {
            self.checkpoint_linked_vlogs.insert(segment);
        }
        self.checkpoint_pins.insert(id, Arc::clone(version));
        (id, ledger)
    }

    /// Release a checkpoint pin. The linked-file punch suppression is
    /// deliberately NOT released: the completed checkpoint still shares
    /// those inodes.
    pub fn unpin_checkpoint(&mut self, id: u64) {
        self.checkpoint_pins.remove(&id);
    }

    /// Number of in-progress checkpoint pins.
    pub fn checkpoint_pin_count(&self) -> usize {
        self.checkpoint_pins.len()
    }

    /// Reclaim space: punch dead logical tables out of shared files, delete
    /// files with no live tables, and forget dropped versions. Call only
    /// after the MANIFEST commit that invalidated the victims.
    pub fn collect_garbage(&mut self, table_cache: &TableCache) {
        // Abandoned MANIFESTs whose eager post-re-cut delete failed.
        self.scavenge_stale_manifests();
        // Gather live table ids across current + still-referenced versions.
        let mut live_tables: HashSet<u64> = HashSet::new();
        self.live.retain(|weak| match weak.upgrade() {
            Some(version) => {
                for (_, _, table) in version.all_tables() {
                    live_tables.insert(table.table_id);
                }
                true
            }
            None => false,
        });
        for (_, _, table) in self.current.all_tables() {
            live_tables.insert(table.table_id);
        }
        // Checkpoint-pinned versions may predate the `live` list (e.g. the
        // version built at recovery is never logged through it).
        for version in self.checkpoint_pins.values() {
            for (_, _, table) in version.all_tables() {
                live_tables.insert(table.table_id);
            }
        }

        let mut dead_files = Vec::new();
        for (&file_number, info) in &mut self.files {
            if self.pending_files.contains(&file_number) {
                continue;
            }
            let any_live = info
                .regions
                .iter()
                .any(|r| live_tables.contains(&r.table_id));
            if !any_live {
                dead_files.push(file_number);
                continue;
            }
            let punch_candidate = info
                .regions
                .iter()
                .any(|r| !live_tables.contains(&r.table_id) && !info.punched.contains(&r.table_id));
            if !punch_candidate {
                continue;
            }
            // The in-memory set covers this process's checkpoints (including
            // the pin-to-link window, when no link exists yet); the inode
            // link count covers checkpoints taken before this process
            // started — the set does not survive a restart, the links do.
            // An unanswerable link count plays it safe: the punch is
            // retried on a later pass. Deleting the checkpoint drops the
            // count back to one and punching resumes.
            if self.checkpoint_linked_files.contains(&file_number)
                || self
                    .env
                    .link_count(&table_file(&self.db, file_number))
                    .map_or(true, |n| n > 1)
            {
                // The inode is shared with a checkpoint that may still
                // reference this region; punching would corrupt it. The
                // space comes back when the file is fully dead (deletion
                // only unlinks this database's name).
                for region in &info.regions {
                    if !live_tables.contains(&region.table_id) {
                        table_cache.evict(region.table_id);
                    }
                }
                continue;
            }
            for region in &info.regions {
                if !live_tables.contains(&region.table_id)
                    && !info.punched.contains(&region.table_id)
                {
                    // Lazy metadata update, no barrier (§3.2). Marked punched
                    // only on success so a transient punch failure is retried
                    // on the next pass instead of leaking the space forever.
                    if self
                        .env
                        .punch_hole(
                            &table_file(&self.db, file_number),
                            region.offset,
                            region.size,
                        )
                        .is_ok()
                    {
                        info.punched.insert(region.table_id);
                    }
                    table_cache.evict(region.table_id);
                }
            }
        }
        for file_number in dead_files {
            if let Some(info) = self.files.remove(&file_number) {
                for region in &info.regions {
                    table_cache.evict(region.table_id);
                }
            }
            table_cache.evict_file(file_number);
            let _ = self.env.delete_file(&table_file(&self.db, file_number));
        }
        self.collect_vlog_garbage();
    }

    /// Reclaim committed-dead value-log space: punch queued dead ranges
    /// and delete retired segment files. Pointer liveness is not tracked
    /// per version, so both actions wait until no reader pins a version
    /// older than current — an old iterator may still resolve a pointer
    /// that a committed compaction already dropped.
    fn collect_vlog_garbage(&mut self) {
        let old_readers = self
            .live
            .iter()
            .filter_map(Weak::upgrade)
            .any(|v| !Arc::ptr_eq(&v, &self.current));
        // An in-progress checkpoint defers ALL vlog reclamation: its pinned
        // version may resolve pointers through any segment, and the segment
        // files are about to be (or already are) hard-linked into the
        // checkpoint dir.
        if old_readers
            || !self.checkpoint_pins.is_empty()
            || (self.vlog_punch_queue.is_empty() && self.vlog_retired_pending.is_empty())
        {
            return;
        }
        let mut punched: HashMap<u64, u64> = HashMap::new();
        let punch_queue = std::mem::take(&mut self.vlog_punch_queue);
        for (segment, offset, len) in punch_queue {
            // Ranges in retired segments are skipped: the whole file goes.
            if !self.vlog_segments.contains_key(&segment) {
                continue;
            }
            // Segments a checkpoint has linked share their inode with it;
            // the dead range stays in the ledger (so full-file retirement
            // still fires) and is re-queued rather than punched. As for
            // table files, the in-memory set only knows this process's
            // checkpoints — the inode link count also protects ones taken
            // before a restart, and re-queuing lets punching resume once a
            // checkpoint directory is deleted and the count drops to one.
            if self.checkpoint_linked_vlogs.contains(&segment)
                || self
                    .env
                    .link_count(&vlog_file(&self.db, segment))
                    .map_or(true, |n| n > 1)
            {
                self.vlog_punch_queue.push((segment, offset, len));
                continue;
            }
            // Lazy metadata update, no barrier (§3.2); a failed punch is
            // re-queued so the space is retried rather than leaked.
            if self
                .env
                .punch_hole(&vlog_file(&self.db, segment), offset, len)
                .is_ok()
            {
                *punched.entry(segment).or_default() += len;
            } else {
                self.vlog_punch_queue.push((segment, offset, len));
            }
        }
        for (segment, bytes) in punched {
            if let Some(sink) = &self.sink {
                sink.emit(EngineEvent::VlogGc {
                    segment,
                    dead_bytes: self
                        .vlog_segments
                        .get(&segment)
                        .map_or(0, |i| i.dead.total()),
                    punched_bytes: bytes,
                });
            }
        }
        let env = Arc::clone(&self.env);
        let db = self.db.clone();
        let sink = self.sink.clone();
        self.vlog_retired_pending.retain(|&segment| {
            let path = vlog_file(&db, segment);
            let reclaimed_bytes = env.file_size(&path).unwrap_or(0);
            if env.delete_file(&path).is_ok() || !env.file_exists(&path) {
                if let Some(sink) = &sink {
                    sink.emit(EngineEvent::VlogRetire {
                        segment,
                        reclaimed_bytes,
                    });
                }
                false
            } else {
                true
            }
        });
    }

    /// Queue a committed-dead value range for hole punching by the next
    /// [`VersionSet::collect_garbage`] pass. Call only after the MANIFEST
    /// commit that recorded the range's pointers as dropped.
    pub fn queue_vlog_punch(&mut self, segment: u64, offset: u64, len: u64) {
        self.vlog_punch_queue.push((segment, offset, len));
    }

    /// Initialize a brand-new database: write MANIFEST-000001 with an empty
    /// snapshot and point CURRENT at it.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env.
    pub fn create_new(&mut self) -> Result<()> {
        self.manifest_number = self.new_file_number();
        let path = manifest_file(&self.db, self.manifest_number);
        let mut manifest = new_manifest_writer(self.env.new_writable_file(&path)?);
        let edit = VersionEdit {
            next_file_number: Some(self.next_file_number),
            next_table_id: Some(self.next_table_id),
            last_sequence: Some(0),
            log_number: Some(0),
            compaction_policy: Some(self.policy),
            ..Default::default()
        };
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        self.manifest = Some(manifest);
        self.install_current(self.manifest_number)?;
        Ok(())
    }

    /// A full-snapshot [`VersionEdit`] of the current in-memory state: the
    /// single record every fresh MANIFEST starts with, both at open
    /// ([`VersionSet::recover`]) and when self-healing a failed commit
    /// barrier ([`VersionSet::log_and_apply`]).
    fn snapshot_edit(&self) -> VersionEdit {
        VersionEdit {
            next_file_number: Some(self.next_file_number),
            next_table_id: Some(self.next_table_id),
            last_sequence: Some(self.last_sequence),
            log_number: Some(self.log_number),
            compact_pointers: self
                .compact_pointer
                .iter()
                .enumerate()
                .filter_map(|(level, p)| p.clone().map(|key| (level as u32, key)))
                .collect(),
            added_tables: self
                .current
                .all_tables()
                .map(|(level, tag, meta)| (level as u32, tag, meta.as_ref().clone()))
                .collect(),
            compaction_policy: Some(self.policy),
            // A fresh MANIFEST starts from zero, so the cumulative dead
            // ledger is re-expressed as the merged ranges per segment;
            // segments with a pending (failed) file delete stay condemned
            // across the cut.
            vlog_dead: self
                .vlog_segments
                .iter()
                .flat_map(|(&segment, info)| {
                    info.dead
                        .iter()
                        .map(move |(offset, len)| (segment, offset, len))
                })
                .collect(),
            vlog_deleted: self.vlog_retired_pending.clone(),
            ..Default::default()
        }
    }

    /// Cut a brand-new MANIFEST: write a full snapshot of the current
    /// in-memory version, sync it, and durably swing CURRENT to it. The
    /// fresh writer is installed only after the swing succeeds — a writer
    /// CURRENT does not name would make synced commits invisible to
    /// recovery, silently violating I1.
    fn cut_fresh_manifest(&mut self) -> Result<()> {
        let number = self.new_file_number();
        let path = manifest_file(&self.db, number);
        let mut manifest = new_manifest_writer(self.env.new_writable_file(&path)?);
        manifest.add_record(&self.snapshot_edit().encode())?;
        manifest.sync()?;
        self.install_current(number)?;
        self.manifest = Some(manifest);
        self.manifest_number = number;
        Ok(())
    }

    /// Self-heal a failed MANIFEST commit (O5). The torn writer has already
    /// been dropped; the in-memory version does not include `edit`. Cut a
    /// fresh MANIFEST from a snapshot of that state, swing CURRENT past the
    /// torn file, then re-append and re-sync `edit` against the fresh
    /// writer so the caller's commit still lands durably. Bounded retry: if
    /// the re-appended edit's own sync fails, the now-torn fresh MANIFEST
    /// is abandoned and one more re-cut is attempted; any failure inside a
    /// re-cut (the double-fault case) leaves the writer poisoned
    /// (`manifest = None`) and every later commit fails with
    /// [`Error::InvalidState`] until reopen.
    fn recut_and_recommit(&mut self, edit: &mut VersionEdit, first_err: Error) -> Result<()> {
        const MAX_RECUT_ATTEMPTS: u32 = 2;
        let mut last_err = first_err;
        for _ in 0..MAX_RECUT_ATTEMPTS {
            let abandoned = self.manifest_number;
            let _scope = BarrierScope::new(BarrierCause::ManifestRecut);
            if let Err(recut_err) = self.cut_fresh_manifest() {
                return Err(Error::InvalidState(format!(
                    "MANIFEST poisoned: commit failed ({last_err}), re-cut failed \
                     ({recut_err}); reopen to recover"
                )));
            }
            // CURRENT now points past the torn MANIFEST; reclaim it eagerly
            // (collect_garbage retries, open-time scavenging is the backstop).
            self.stale_manifests.push(abandoned);
            self.scavenge_stale_manifests();
            // Count the re-cut now, not on recommit success: each completed
            // cut absorbed exactly one fault (the one that tore the writer it
            // replaced), even if the re-appended edit's own sync fails next
            // and a further re-cut — or the caller's error — covers *that*
            // fault. Counting per successful recommit instead undercounts
            // when one healing sequence absorbs two faults, which breaks any
            // audit matching faults against `errors + recuts`.
            self.recuts += 1;
            if let Some(sink) = &self.sink {
                sink.emit(EngineEvent::ManifestRecut {
                    abandoned,
                    new_manifest: self.manifest_number,
                    snapshot_tables: self.current.num_tables() as u64,
                });
            }
            // The re-cut consumed a file number; refresh the counters so the
            // re-appended record never understates them.
            edit.next_file_number = Some(self.next_file_number);
            edit.next_table_id = Some(self.next_table_id);
            let payload = edit.encode();
            let Some(manifest) = self.manifest.as_mut() else {
                return Err(Error::InvalidState(
                    "MANIFEST writer missing after re-cut; reopen to recover".into(),
                ));
            };
            match manifest.add_record(&payload).and_then(|()| manifest.sync()) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    // The fresh MANIFEST is torn now too; abandon it and
                    // (maybe) cut another.
                    self.manifest = None;
                    last_err = e;
                }
            }
        }
        Err(Error::InvalidState(format!(
            "MANIFEST poisoned: commit kept failing across re-cuts ({last_err}); \
             reopen to recover"
        )))
    }

    /// Best-effort delete of abandoned `MANIFEST-*` files; numbers whose
    /// delete fails stay queued for the next pass.
    fn scavenge_stale_manifests(&mut self) {
        let env = Arc::clone(&self.env);
        let db = self.db.clone();
        self.stale_manifests
            .retain(|&n| env.delete_file(&manifest_file(&db, n)).is_err());
    }

    fn install_current(&self, manifest_number: u64) -> Result<()> {
        // Write CURRENT via a temp file + atomic rename (durable rename
        // semantics are modeled by the env).
        let _scope = BarrierScope::new(BarrierCause::CurrentPointer);
        install_current_at(self.env.as_ref(), &self.db, manifest_number)
    }

    /// Write a self-contained MANIFEST + CURRENT for `version` into `dir`
    /// — the commit step of an online checkpoint. The table and value-log
    /// files `version` references must already be linked into `dir`; after
    /// this returns, `dir` opens as an independent database whose contents
    /// are exactly the write prefix at `last_sequence`.
    ///
    /// `vlog_dead` is the dead-byte ledger to carry for the segments the
    /// checkpoint actually linked, so the restored database's space
    /// accounting (and eventual retirement) picks up where the source left
    /// off. It must come from the frozen copy [`VersionSet::pin_checkpoint`]
    /// captured — NOT from the live ledger, which a compaction committing
    /// after the pin may have advanced past what the pinned tables still
    /// reference — filtered to the segments placed in `dir`.
    ///
    /// CURRENT is written last, via temp-file + atomic rename: a crash
    /// anywhere before the rename leaves a directory without CURRENT,
    /// which recovery (and the backup tool) treat as ignorable garbage.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env; the caller discards the partial
    /// directory.
    pub fn write_checkpoint_manifest(
        &self,
        dir: &str,
        version: &Arc<Version>,
        last_sequence: u64,
        vlog_dead: Vec<(u64, u64, u64)>,
    ) -> Result<()> {
        let edit = VersionEdit {
            next_file_number: Some(self.next_file_number),
            next_table_id: Some(self.next_table_id),
            last_sequence: Some(last_sequence),
            log_number: Some(self.log_number),
            compaction_policy: Some(self.policy),
            added_tables: version
                .all_tables()
                .map(|(level, tag, meta)| (level as u32, tag, meta.as_ref().clone()))
                .collect(),
            vlog_dead,
            ..Default::default()
        };
        const CHECKPOINT_MANIFEST: u64 = 1;
        let path = manifest_file(dir, CHECKPOINT_MANIFEST);
        let mut manifest = new_manifest_writer(self.env.new_writable_file(&path)?);
        manifest.set_barrier_cause(BarrierCause::Checkpoint);
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        drop(manifest);
        let _scope = BarrierScope::new(BarrierCause::Checkpoint);
        install_current_at(self.env.as_ref(), dir, CHECKPOINT_MANIFEST)
    }

    /// Recover state from CURRENT + MANIFEST; then start a fresh MANIFEST
    /// containing a full snapshot (bounding manifest growth) and swing
    /// CURRENT to it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for malformed manifests and I/O errors
    /// from the env.
    pub fn recover(&mut self) -> Result<()> {
        let current = self.env.new_random_access_file(&current_file(&self.db))?;
        let content = current.read(0, current.len() as usize)?;
        let name =
            String::from_utf8(content).map_err(|_| Error::corruption("CURRENT not utf-8"))?;
        let name = name.trim();
        let old_manifest_path = bolt_env::join_path(&self.db, name);

        let mut reader = LogReader::new(self.env.new_random_access_file(&old_manifest_path)?);
        let mut builder =
            VersionBuilder::new(self.icmp.clone(), Arc::new(Version::empty(self.num_levels)));
        builder.set_layout(self.layout);
        let mut found_any = false;
        let mut pinned_policy: Option<CompactionPolicyKind> = None;
        let mut vlog_dead: HashMap<u64, RangeSet> = HashMap::new();
        let mut vlog_deleted: HashSet<u64> = HashSet::new();
        while let Some(record) = reader.read_record()? {
            let edit = VersionEdit::decode(&record)?;
            for &(segment, offset, len) in &edit.vlog_dead {
                vlog_dead.entry(segment).or_default().insert(offset, len);
            }
            for &segment in &edit.vlog_deleted {
                vlog_dead.remove(&segment);
                vlog_deleted.insert(segment);
            }
            if let Some(n) = edit.next_file_number {
                self.next_file_number = self.next_file_number.max(n);
            }
            if let Some(n) = edit.next_table_id {
                self.next_table_id = self.next_table_id.max(n);
            }
            if let Some(n) = edit.last_sequence {
                self.last_sequence = self.last_sequence.max(n);
            }
            if let Some(n) = edit.log_number {
                self.log_number = self.log_number.max(n);
            }
            if let Some(p) = edit.compaction_policy {
                pinned_policy = Some(p);
            }
            for (level, key) in &edit.compact_pointers {
                self.compact_pointer[*level as usize] = Some(key.clone());
            }
            builder.apply(&edit);
            found_any = true;
        }
        if !found_any {
            return Err(Error::corruption("empty MANIFEST"));
        }
        // Refuse a silently mismatched layout: the on-disk tree was shaped
        // by the pinned policy, and another policy's invariants (or its
        // recency assumptions) need not hold for it. MANIFESTs from before
        // policies existed are implicitly leveled.
        let pinned = pinned_policy.unwrap_or(CompactionPolicyKind::Leveled);
        if pinned != self.policy {
            return Err(Error::InvalidArgument(format!(
                "database was created with compaction_policy={} but opened with \
                 compaction_policy={}; reopen with the pinned policy",
                pinned.as_str(),
                self.policy.as_str(),
            )));
        }
        self.current = Arc::new(builder.build()?);

        // Rebuild the region registry from live tables.
        self.files.clear();
        let regions: Vec<(u64, u64, u64, u64)> = self
            .current
            .all_tables()
            .map(|(_, _, meta)| (meta.file_number, meta.offset, meta.size, meta.table_id))
            .collect();
        for (file_number, offset, size, table_id) in regions {
            self.register_region(file_number, offset, size, table_id);
        }

        // Rebuild the value-log ledger: every `NNNNNN.vlog` on disk is a
        // segment; its size comes from the env (never from the MANIFEST,
        // which only persists dead-byte deltas), and all recovered segments
        // are sealed — the writer starts a fresh segment after recovery.
        // Segments durably condemned (`vlog_deleted`) but still on disk go
        // back on the retired-pending list so their delete is retried.
        self.vlog_segments.clear();
        self.vlog_retired_pending.clear();
        if let Ok(names) = self.env.list_dir(&self.db) {
            for name in &names {
                let Some(segment) = name
                    .strip_suffix(".vlog")
                    .and_then(|n| n.parse::<u64>().ok())
                else {
                    continue;
                };
                if vlog_deleted.contains(&segment) {
                    self.vlog_retired_pending.push(segment);
                    continue;
                }
                let written = self.env.file_size(&vlog_file(&self.db, segment))?;
                self.vlog_segments.insert(
                    segment,
                    VlogSegInfo {
                        written: Some(written),
                        dead: vlog_dead.get(&segment).cloned().unwrap_or_default(),
                    },
                );
            }
        }
        // Segments are created between MANIFEST commits, so the replayed
        // `next_file_number` may not cover them; reusing such a number for
        // a new file would truncate a segment that live pointers reference.
        for &segment in self.vlog_segments.keys() {
            self.next_file_number = self.next_file_number.max(segment + 1);
        }

        // Start a fresh manifest with a complete snapshot — the same cut
        // path that self-heals a failed commit barrier at runtime.
        self.cut_fresh_manifest()?;
        // Scavenge every stale MANIFEST: the one just replayed, plus any
        // stray a crash mid-re-cut left behind (cut and maybe synced, but
        // CURRENT was never swung to it, so nothing references it).
        if let Ok(names) = self.env.list_dir(&self.db) {
            for name in names {
                let stale = name
                    .strip_prefix("MANIFEST-")
                    .and_then(|n| n.parse::<u64>().ok())
                    .is_some_and(|n| n != self.manifest_number);
                if stale {
                    let _ = self.env.delete_file(&bolt_env::join_path(&self.db, &name));
                }
            }
        }
        Ok(())
    }

    /// Track a freshly created value-log segment as the active appender
    /// target (unsealed: never retired, survives obsolete-file deletion).
    pub fn register_vlog_segment(&mut self, segment: u64) {
        self.vlog_segments.insert(segment, VlogSegInfo::default());
    }

    /// Seal a value-log segment at its final size, making it eligible for
    /// retirement once compaction reports all of its bytes dead.
    pub fn seal_vlog_segment(&mut self, segment: u64, written: u64) {
        self.vlog_segments.entry(segment).or_default().written = Some(written);
    }

    /// The value-log liveness ledger (segment number → written/dead bytes).
    pub fn vlog_segments(&self) -> &HashMap<u64, VlogSegInfo> {
        &self.vlog_segments
    }

    /// `true` iff `segment` is a live (not retired) value-log segment.
    pub fn has_vlog_segment(&self, segment: u64) -> bool {
        self.vlog_segments.contains_key(&segment)
    }

    /// Physical file numbers currently referenced (live regions or pending).
    pub fn referenced_files(&self) -> HashSet<u64> {
        let mut refs: HashSet<u64> = self.files.keys().copied().collect();
        refs.extend(self.pending_files.iter().copied());
        refs
    }

    /// The active MANIFEST file number.
    pub fn manifest_number(&self) -> u64 {
        self.manifest_number
    }

    /// Self-healing MANIFEST re-cuts since open (O5): fresh manifests cut
    /// to absorb a torn commit, counted per completed cut. One commit can
    /// drive several (the re-appended edit's own sync may fail too), so
    /// every fault is covered by exactly one re-cut or one caller-visible
    /// error — never silently by a sibling's re-cut.
    pub fn manifest_recuts(&self) -> u64 {
        self.recuts
    }
}

/// Point `dir`'s CURRENT at `MANIFEST-<manifest_number>` via a temp file +
/// atomic rename (durable rename semantics are modeled by the env).
fn install_current_at(env: &dyn Env, dir: &str, manifest_number: u64) -> Result<()> {
    let tmp = format!("{}.tmp", current_file(dir));
    let mut f = env.new_writable_file(&tmp)?;
    let name = format!("MANIFEST-{manifest_number:06}\n");
    f.append(name.as_bytes())?;
    f.sync()?;
    drop(f);
    env.rename_file(&tmp, &current_file(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::TableMeta;
    use bolt_common::bloom::BloomFilterPolicy;
    use bolt_env::MemEnv;
    use bolt_table::builder::FilterKey;
    use bolt_table::ikey::{make_internal_key, ValueType};
    use bolt_table::TableReadOptions;

    fn test_cache(env: &Arc<dyn Env>) -> TableCache {
        TableCache::new(
            Arc::clone(env),
            100,
            None,
            TableReadOptions {
                comparator: Arc::new(InternalKeyComparator::default()),
                filter_policy: Some(BloomFilterPolicy::default()),
                filter_key: FilterKey::UserKey,
                block_cache: None,
            },
        )
    }

    fn meta(id: u64, file: u64, offset: u64, size: u64) -> TableMeta {
        TableMeta::new(
            id,
            file,
            offset,
            size,
            1,
            make_internal_key(format!("k{id:04}a").as_bytes(), 10, ValueType::Value),
            make_internal_key(format!("k{id:04}z").as_bytes(), 1, ValueType::Value),
        )
    }

    fn new_set(env: &Arc<dyn Env>) -> VersionSet {
        env.create_dir_all("db").unwrap();
        let mut vs = VersionSet::new(Arc::clone(env), "db", InternalKeyComparator::default(), 7);
        vs.create_new().unwrap();
        vs
    }

    #[test]
    fn create_and_reopen_empty() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        {
            let _vs = new_set(&env);
        }
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        assert_eq!(vs.current().num_tables(), 0);
    }

    #[test]
    fn edits_survive_recovery() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let next_ids;
        {
            let mut vs = new_set(&env);
            let mut edit = VersionEdit::default();
            let t1 = vs.new_table_id();
            let f1 = vs.new_file_number();
            edit.added_tables.push((0, 5, meta(t1, f1, 0, 100)));
            edit.last_sequence = Some(42);
            edit.log_number = Some(3);
            vs.log_and_apply(edit).unwrap();

            let mut edit2 = VersionEdit::default();
            let t2 = vs.new_table_id();
            let f2 = vs.new_file_number();
            edit2.added_tables.push((1, 0, meta(t2, f2, 0, 200)));
            edit2
                .compact_pointers
                .push((1, make_internal_key(b"cp", 1, ValueType::Value)));
            vs.log_and_apply(edit2).unwrap();
            next_ids = (vs.next_file_number, vs.next_table_id);
        }

        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        assert_eq!(vs.current().num_tables(), 2);
        assert_eq!(vs.current().levels[0].runs[0].tag, 5);
        assert_eq!(vs.last_sequence, 42);
        assert_eq!(vs.log_number, 3);
        assert!(vs.compact_pointer[1].is_some());
        assert!(vs.next_file_number >= next_ids.0);
        assert!(vs.next_table_id >= next_ids.1);
    }

    #[test]
    fn recovery_survives_crash_after_commit() {
        let mem_env = Arc::new(MemEnv::new());
        let env: Arc<dyn Env> = Arc::clone(&mem_env) as Arc<dyn Env>;
        {
            let mut vs = new_set(&env);
            let mut edit = VersionEdit::default();
            let t = vs.new_table_id();
            let f = vs.new_file_number();
            edit.added_tables.push((0, 1, meta(t, f, 0, 100)));
            vs.log_and_apply(edit).unwrap();
        }
        // Crash: everything synced by log_and_apply must survive.
        mem_env.crash(bolt_env::CrashConfig::Clean);
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        assert_eq!(vs.current().num_tables(), 1);
    }

    #[test]
    fn uncommitted_edit_is_lost_on_crash() {
        let mem_env = Arc::new(MemEnv::new());
        let env: Arc<dyn Env> = Arc::clone(&mem_env) as Arc<dyn Env>;
        {
            let mut vs = new_set(&env);
            let mut edit = VersionEdit::default();
            let t = vs.new_table_id();
            let f = vs.new_file_number();
            edit.added_tables.push((0, 1, meta(t, f, 0, 100)));
            vs.log_and_apply(edit).unwrap();
            // Append a record but crash before sync.
            let mut edit2 = VersionEdit::default();
            edit2.added_tables.push((0, 2, meta(99, 98, 0, 100)));
            vs.manifest
                .as_mut()
                .unwrap()
                .add_record(&edit2.encode())
                .unwrap();
        }
        mem_env.crash(bolt_env::CrashConfig::Clean);
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        assert_eq!(vs.current().num_tables(), 1, "torn edit must not apply");
    }

    #[test]
    fn gc_deletes_fully_dead_files_and_punches_partial() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);

        // Two logical tables in one physical "compaction file".
        let f = vs.new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&[0xaa; 2048]).unwrap();
        file.sync().unwrap();
        drop(file);

        let (ta, tb) = (vs.new_table_id(), vs.new_table_id());
        let mut edit = VersionEdit::default();
        edit.added_tables.push((0, 1, meta(ta, f, 0, 1024)));
        edit.added_tables.push((0, 2, meta(tb, f, 1024, 1024)));
        vs.log_and_apply(edit).unwrap();

        // Kill table A only: expect a punched hole, file still present.
        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, ta));
        vs.log_and_apply(edit).unwrap();
        vs.collect_garbage(&cache);
        assert!(env.file_exists(&path));
        let r = env.new_random_access_file(&path).unwrap();
        assert!(r.read(0, 1024).unwrap().iter().all(|&b| b == 0));
        assert!(r.read(1024, 1024).unwrap().iter().all(|&b| b == 0xaa));
        assert_eq!(env.stats().snapshot().holes_punched, 1);

        // Kill table B: the file dies.
        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, tb));
        vs.log_and_apply(edit).unwrap();
        vs.collect_garbage(&cache);
        assert!(!env.file_exists(&path));
    }

    #[test]
    fn gc_respects_versions_held_by_readers() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);

        let f = vs.new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&[1u8; 100]).unwrap();
        file.sync().unwrap();
        drop(file);

        let t = vs.new_table_id();
        let mut edit = VersionEdit::default();
        edit.added_tables.push((0, 1, meta(t, f, 0, 100)));
        let held = vs.log_and_apply(edit).unwrap(); // reader holds this version

        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, t));
        vs.log_and_apply(edit).unwrap();
        vs.collect_garbage(&cache);
        assert!(
            env.file_exists(&path),
            "file kept while an old version references it"
        );
        drop(held);
        vs.collect_garbage(&cache);
        assert!(!env.file_exists(&path));
    }

    #[test]
    fn pending_files_are_protected() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);
        let f = vs.new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&[1u8; 10]).unwrap();
        file.sync().unwrap();
        drop(file);
        vs.mark_pending(f);
        vs.register_region(f, 0, 10, 424242); // no live table references it
        vs.collect_garbage(&cache);
        assert!(env.file_exists(&path));
        vs.clear_pending(f);
        vs.collect_garbage(&cache);
        assert!(!env.file_exists(&path));
    }

    #[test]
    fn link_count_suppresses_punch_across_restart() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let (f, ta, path) = {
            let mut vs = new_set(&env);
            let f = vs.new_file_number();
            let path = table_file("db", f);
            let mut file = env.new_writable_file(&path).unwrap();
            file.append(&[0xaa; 2048]).unwrap();
            file.sync().unwrap();
            drop(file);
            let (ta, tb) = (vs.new_table_id(), vs.new_table_id());
            let mut edit = VersionEdit::default();
            edit.added_tables.push((0, 1, meta(ta, f, 0, 1024)));
            edit.added_tables.push((0, 2, meta(tb, f, 1024, 1024)));
            vs.log_and_apply(edit).unwrap();
            (f, ta, path)
        };
        // A checkpoint taken by a previous process hard-linked the file; the
        // next process starts with an empty in-memory linked set, so only
        // the inode link count can tell it the file is shared.
        env.create_dir_all("ckpt").unwrap();
        env.link_file(&path, &table_file("ckpt", f)).unwrap();

        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, ta));
        vs.log_and_apply(edit).unwrap();
        vs.collect_garbage(&cache);
        assert_eq!(
            env.stats().snapshot().holes_punched,
            0,
            "a shared inode must never be punched"
        );
        let linked = env.new_random_access_file(&table_file("ckpt", f)).unwrap();
        assert!(linked.read(0, 1024).unwrap().iter().all(|&b| b == 0xaa));

        // Deleting the checkpoint's link drops the count to one: punching
        // resumes on the next pass (nothing was marked punched above).
        env.delete_file(&table_file("ckpt", f)).unwrap();
        vs.collect_garbage(&cache);
        assert_eq!(env.stats().snapshot().holes_punched, 1);
        let r = env.new_random_access_file(&path).unwrap();
        assert!(r.read(0, 1024).unwrap().iter().all(|&b| b == 0));
        assert!(r.read(1024, 1024).unwrap().iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn checkpoint_manifest_freezes_vlog_dead_at_pin_time() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut vs = new_set(&env);
        let mut file = env.new_writable_file(&vlog_file("db", 5)).unwrap();
        file.append(&[0xbb; 4096]).unwrap();
        file.sync().unwrap();
        drop(file);
        vs.register_vlog_segment(5);
        vs.seal_vlog_segment(5, 4096);
        let mut edit = VersionEdit::default();
        edit.vlog_dead.push((5, 0, 100));
        let version = vs.log_and_apply(edit).unwrap();

        let (pin, ledger) = vs.pin_checkpoint(&version);
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger[0].0, 5);
        assert_eq!(ledger[0].1.iter().collect::<Vec<_>>(), vec![(0, 100)]);

        // A compaction commits between the pin and the manifest write: more
        // of segment 5 dies and a new segment 6 appears with dead bytes.
        // Neither may leak into the checkpoint's manifest.
        let mut file = env.new_writable_file(&vlog_file("db", 6)).unwrap();
        file.append(&[0xcc; 512]).unwrap();
        file.sync().unwrap();
        drop(file);
        vs.register_vlog_segment(6);
        vs.seal_vlog_segment(6, 512);
        let mut edit = VersionEdit::default();
        edit.vlog_dead.push((5, 100, 200));
        edit.vlog_dead.push((6, 0, 50));
        vs.log_and_apply(edit).unwrap();

        // What do_checkpoint does: link exactly the frozen ledger's
        // segments and write the manifest from the frozen dead ranges.
        env.create_dir_all("ckpt").unwrap();
        let mut vlog_dead = Vec::new();
        for (segment, dead) in &ledger {
            let src = vlog_file("db", *segment);
            assert!(env.file_exists(&src));
            env.link_file(&src, &vlog_file("ckpt", *segment)).unwrap();
            vlog_dead.extend(dead.iter().map(|(offset, len)| (*segment, offset, len)));
        }
        vs.write_checkpoint_manifest("ckpt", &version, 42, vlog_dead)
            .unwrap();
        vs.unpin_checkpoint(pin);

        let mut ckpt = VersionSet::new(
            Arc::clone(&env),
            "ckpt",
            InternalKeyComparator::default(),
            7,
        );
        ckpt.recover().unwrap();
        let seg5 = &ckpt.vlog_segments()[&5];
        assert_eq!(
            seg5.dead.total(),
            100,
            "post-pin dead ranges must not reach the checkpoint manifest"
        );
        assert!(
            !ckpt.has_vlog_segment(6),
            "a segment the checkpoint never linked must not be referenced"
        );
    }

    #[test]
    fn vlog_ledger_survives_recovery_and_prunes_deleted_segments() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        {
            let mut vs = new_set(&env);
            // Two sealed segments on disk plus one condemned one.
            for (seg, size) in [(11u64, 4096usize), (12, 2048), (13, 512)] {
                let mut f = env.new_writable_file(&vlog_file("db", seg)).unwrap();
                f.append(&vec![0xbb; size]).unwrap();
                f.sync().unwrap();
            }
            vs.register_vlog_segment(11);
            vs.seal_vlog_segment(11, 4096);
            vs.register_vlog_segment(12);

            let mut edit = VersionEdit::default();
            edit.vlog_dead.push((11, 0, 1000));
            vs.log_and_apply(edit).unwrap();
            let mut edit = VersionEdit::default();
            // Overlaps the first range by 500 bytes: the union, not the
            // sum, is what the ledger must track.
            edit.vlog_dead.push((11, 500, 1000));
            edit.vlog_deleted.push(13);
            vs.log_and_apply(edit).unwrap();

            assert_eq!(vs.vlog_segments()[&11].dead.total(), 1500);
            assert!(!vs.has_vlog_segment(13));
        }

        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        // Dead ranges re-unioned from deltas; written recomputed from disk;
        // every recovered segment is sealed.
        let seg11 = &vs.vlog_segments()[&11];
        assert_eq!(seg11.written, Some(4096));
        assert_eq!(seg11.dead.total(), 1500);
        assert_eq!(seg11.dead.iter().collect::<Vec<_>>(), vec![(0, 1500)]);
        let seg12 = &vs.vlog_segments()[&12];
        assert_eq!(seg12.written, Some(2048));
        assert!(seg12.dead.is_empty());
        // The condemned segment stays out of the ledger and its lingering
        // file is reclaimed by the next GC pass.
        assert!(!vs.has_vlog_segment(13));
        let cache = test_cache(&env);
        vs.collect_garbage(&cache);
        assert!(!env.file_exists(&vlog_file("db", 13)));
        assert!(env.file_exists(&vlog_file("db", 11)));
    }

    #[test]
    fn vlog_fully_dead_sealed_segment_detection() {
        let dead_range = |offset, len| {
            let mut set = RangeSet::default();
            set.insert(offset, len);
            set
        };
        let info = VlogSegInfo {
            written: Some(100),
            dead: dead_range(0, 100),
        };
        assert!(info.fully_dead());
        let active = VlogSegInfo {
            written: None,
            dead: dead_range(0, 1 << 40),
        };
        assert!(!active.fully_dead(), "active segment is never retired");
        let partial = VlogSegInfo {
            written: Some(100),
            dead: dead_range(0, 99),
        };
        assert!(!partial.fully_dead());
    }

    #[test]
    fn range_set_unions_overlaps_and_is_idempotent() {
        let mut set = RangeSet::default();
        set.insert(0, 100);
        set.insert(200, 100);
        assert_eq!(set.total(), 200);
        // Re-inserting an already-dead range changes nothing.
        set.insert(0, 100);
        assert_eq!(set.total(), 200);
        // Partial overlap only adds the uncovered bytes.
        set.insert(50, 100);
        assert_eq!(set.total(), 250);
        // Bridging range merges everything into one.
        set.insert(150, 50);
        assert_eq!(set.total(), 300);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![(0, 300)]);
        // Zero-length inserts are ignored.
        set.insert(999, 0);
        assert_eq!(set.total(), 300);
    }

    #[test]
    fn manifest_sync_counts_as_barrier() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut vs = new_set(&env);
        let before = env.stats().fsync_calls();
        let mut edit = VersionEdit::default();
        let t = vs.new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        vs.log_and_apply(edit).unwrap();
        assert_eq!(env.stats().fsync_calls(), before + 1);
    }

    #[test]
    fn manifest_commits_are_traced_with_causes() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let sink = Arc::new(EventSink::new());
        env.stats().set_event_sink(Arc::clone(&sink));
        env.create_dir_all("db").unwrap();
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.set_event_sink(Arc::clone(&sink));
        vs.create_new().unwrap();
        // The open snapshot pays an OpenManifest barrier (writer default)
        // and a CurrentPointer barrier (explicit install scope).
        assert_eq!(sink.barrier_count(BarrierCause::OpenManifest), 1);
        assert_eq!(sink.barrier_count(BarrierCause::CurrentPointer), 1);
        sink.drain();

        let mut edit = VersionEdit::default();
        let t = vs.new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        {
            let _scope = BarrierScope::new(BarrierCause::CompactionManifest);
            vs.log_and_apply(edit).unwrap();
        }
        assert_eq!(sink.barrier_count(BarrierCause::CompactionManifest), 1);
        let events = sink.drain();
        assert!(events.iter().any(|e| matches!(
            e.event,
            EngineEvent::ManifestCommit {
                added: 1,
                deleted: 0,
                ..
            }
        )));
    }

    fn faulted_set() -> (bolt_env::FaultEnv, Arc<dyn Env>, Arc<EventSink>, VersionSet) {
        let fault = bolt_env::FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let sink = Arc::new(EventSink::new());
        env.stats().set_event_sink(Arc::clone(&sink));
        env.create_dir_all("db").unwrap();
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.set_event_sink(Arc::clone(&sink));
        vs.create_new().unwrap();
        sink.drain();
        (fault, env, sink, vs)
    }

    fn manifest_files(env: &Arc<dyn Env>) -> Vec<String> {
        let mut names: Vec<String> = env
            .list_dir("db")
            .unwrap()
            .into_iter()
            .filter(|n| n.contains("MANIFEST-"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn recut_heals_failed_manifest_commit() {
        let (fault, env, sink, mut vs) = faulted_set();
        fault.set_plan(bolt_env::FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").unwrap());

        let cp_before = sink.barrier_count(BarrierCause::CurrentPointer);
        let mut edit = VersionEdit::default();
        let t = vs.new_table_id();
        let healed = meta(t, 55, 0, 10).with_tail_bytes(301);
        edit.added_tables.push((0, 1, healed));
        vs.log_and_apply(edit)
            .expect("commit self-heals through a re-cut");
        assert_eq!(fault.faults_injected(), 1, "the EIO actually fired");
        assert_eq!(vs.manifest_recuts(), 1);

        // Barrier accounting: the snapshot sync and the re-appended edit's
        // sync are both tagged with the re-cut cause; the CURRENT swing
        // keeps its own explicit cause (counters are cumulative, hence the
        // delta for CurrentPointer, which create_new already paid once).
        assert_eq!(sink.barrier_count(BarrierCause::ManifestRecut), 2);
        assert_eq!(
            sink.barrier_count(BarrierCause::CurrentPointer),
            cp_before + 1
        );
        let events = sink.drain();
        assert!(
            events.iter().any(|e| matches!(
                e.event,
                EngineEvent::ManifestRecut {
                    snapshot_tables: 0,
                    ..
                }
            )),
            "ManifestRecut event emitted (snapshot taken before the edit applied)"
        );

        // The abandoned MANIFEST is scavenged eagerly and CURRENT names the
        // survivor.
        let names = manifest_files(&env);
        assert_eq!(names.len(), 1, "stale MANIFEST deleted: {names:?}");
        let current = env.new_random_access_file("db/CURRENT").unwrap();
        let content = current.read(0, current.len() as usize).unwrap();
        assert_eq!(
            String::from_utf8(content).unwrap().trim(),
            names[0],
            "CURRENT points at the fresh MANIFEST"
        );

        // The writer stays healthy: a later commit needs no reopen.
        let mut edit2 = VersionEdit::default();
        let t2 = vs.new_table_id();
        let plain = meta(t2, 56, 0, 10).with_tail_bytes(302);
        edit2.added_tables.push((0, 2, plain));
        vs.log_and_apply(edit2).expect("subsequent commit succeeds");
        drop(vs);

        // Both commits survive a power failure — and so does what the
        // MANIFEST records of each table, on every path a record takes: the
        // re-committed edit, an ordinary one, and (second recovery) the
        // snapshot every fresh MANIFEST starts with.
        fault.crash_inner(bolt_env::CrashConfig::Clean);
        fault.reset();
        for _ in 0..2 {
            let mut vs =
                VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
            vs.recover().unwrap();
            let current = vs.current();
            let mut tails: Vec<_> = current.all_tables().map(|(_, _, m)| m.tail_bytes).collect();
            tails.sort_unstable();
            assert_eq!(tails, [301, 302]);
        }
    }

    #[test]
    fn recut_retries_once_when_recommit_sync_fails() {
        let (fault, _env, _sink, mut vs) = faulted_set();
        // Each rule keeps its own ordinal and a fired rule consumes the op:
        // the first rule kills the original commit's sync; the second then
        // sees the re-cut snapshot sync as its #0 (passes) and kills the
        // re-appended edit's sync at its #1. The bounded retry cuts a second
        // fresh MANIFEST and lands the edit there.
        fault.set_plan(
            bolt_env::FaultPlan::parse(
                "eio:sync:glob=MANIFEST-*:nth=0,eio:sync:glob=MANIFEST-*:nth=1",
            )
            .unwrap(),
        );
        let mut edit = VersionEdit::default();
        let t = vs.new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        vs.log_and_apply(edit)
            .expect("second re-cut lands the edit");
        assert_eq!(fault.faults_injected(), 2);
        assert_eq!(
            vs.manifest_recuts(),
            2,
            "one re-cut per absorbed fault: the commit's and the recommit's"
        );
        assert_eq!(vs.current().num_tables(), 1);
    }

    #[test]
    fn double_fault_during_recut_poisons_until_reopen() {
        let (fault, env, _sink, mut vs) = faulted_set();
        // First acked commit, then a commit whose sync fails AND whose
        // re-cut snapshot sync fails too (consecutive global sync ordinals)
        // — the double-fault case must degrade to poisoning.
        let mut acked = VersionEdit::default();
        let t0 = vs.new_table_id();
        acked.added_tables.push((0, 1, meta(t0, 55, 0, 10)));
        vs.log_and_apply(acked).unwrap();

        let s = fault.sync_count();
        fault.set_plan(bolt_env::FaultPlan::new().fail_sync(s).fail_sync(s + 1));
        let mut edit = VersionEdit::default();
        let t1 = vs.new_table_id();
        edit.added_tables.push((0, 2, meta(t1, 56, 0, 10)));
        let err = vs.log_and_apply(edit).expect_err("double fault poisons");
        assert!(
            matches!(&err, Error::InvalidState(msg) if msg.contains("re-cut failed")),
            "clean InvalidState from the failed re-cut, got: {err:?}"
        );
        assert_eq!(fault.faults_injected(), 2);
        assert_eq!(vs.manifest_recuts(), 0);

        // Poisoned until reopen: later commits fail with InvalidState too.
        let mut edit2 = VersionEdit::default();
        edit2.added_tables.push((0, 3, meta(99, 57, 0, 10)));
        assert!(matches!(
            vs.log_and_apply(edit2),
            Err(Error::InvalidState(_))
        ));
        drop(vs);

        // Reopen fully recovers: the acked edit survives, the never-acked
        // edit does not resurface (its record was torn or abandoned).
        fault.crash_inner(bolt_env::CrashConfig::Clean);
        fault.reset();
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        assert_eq!(vs.current().num_tables(), 1, "only the acked table");
        assert_eq!(vs.current().levels[0].runs[0].tag, 1);
    }

    #[test]
    fn exhausted_recut_retries_poison_until_reopen() {
        let (fault, _env, _sink, mut vs) = faulted_set();
        // Three per-rule ordinals: rule 1 kills the original commit, rule 2
        // the first re-cut's re-appended sync, rule 3 the second re-cut's —
        // every snapshot sync passes, so both bounded retries are consumed
        // by re-commit failures and the writer poisons.
        fault.set_plan(
            bolt_env::FaultPlan::parse(
                "eio:sync:glob=MANIFEST-*:nth=0,eio:sync:glob=MANIFEST-*:nth=1,\
                 eio:sync:glob=MANIFEST-*:nth=2",
            )
            .unwrap(),
        );
        let mut edit = VersionEdit::default();
        let t = vs.new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        let err = vs.log_and_apply(edit).expect_err("retries exhausted");
        assert!(
            matches!(&err, Error::InvalidState(msg) if msg.contains("kept failing")),
            "exhaustion message, got: {err:?}"
        );
        assert_eq!(fault.faults_injected(), 3);
        assert_eq!(
            vs.manifest_recuts(),
            2,
            "both completed cuts count; the third fault surfaced as the error"
        );
    }

    #[test]
    fn gc_rescavenges_stale_manifest_whose_eager_delete_failed() {
        let (fault, env, _sink, mut vs) = faulted_set();
        let cache = test_cache(&env);
        // Kill the original commit's sync (forcing a re-cut) AND the eager
        // delete of the abandoned MANIFEST, so the stale file lingers.
        fault.set_plan(
            bolt_env::FaultPlan::parse(
                "eio:sync:glob=MANIFEST-*:nth=0,eio:delete:glob=MANIFEST-*:nth=0",
            )
            .unwrap(),
        );
        let mut edit = VersionEdit::default();
        let t = vs.new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        vs.log_and_apply(edit).expect("re-cut heals the commit");
        assert_eq!(vs.manifest_recuts(), 1);
        assert_eq!(fault.faults_injected(), 2);
        assert_eq!(
            manifest_files(&env).len(),
            2,
            "abandoned MANIFEST lingers after its delete failed"
        );

        // collect_garbage retries the scavenge and reclaims it.
        vs.collect_garbage(&cache);
        let names = manifest_files(&env);
        assert_eq!(names.len(), 1, "stale MANIFEST rescavenged: {names:?}");
        let current = env.new_random_access_file("db/CURRENT").unwrap();
        let content = current.read(0, current.len() as usize).unwrap();
        assert_eq!(
            String::from_utf8(content).unwrap().trim(),
            names[0],
            "the survivor is the one CURRENT names"
        );
    }

    #[test]
    fn pinned_policy_round_trips_and_mismatch_is_refused() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        env.create_dir_all("db").unwrap();
        {
            let mut vs =
                VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
            vs.set_compaction_policy(CompactionPolicyKind::SizeTiered, RunLayout::Unrestricted);
            vs.create_new().unwrap();
            // Overlapping runs at level 1 are legal under the tiered layout.
            let mut edit = VersionEdit::default();
            let (t1, t2) = (vs.new_table_id(), vs.new_table_id());
            edit.added_tables.push((1, 1, meta(t1, 55, 0, 10)));
            edit.added_tables.push((1, 2, meta(t2, 56, 0, 10)));
            vs.log_and_apply(edit).unwrap();
        }

        // Reopen under the default (leveled) policy: refused, state intact.
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        let err = vs.recover().expect_err("policy mismatch must be refused");
        assert!(
            matches!(&err, Error::InvalidArgument(msg)
                if msg.contains("size_tiered") && msg.contains("leveled")),
            "mismatch names both policies, got: {err:?}"
        );

        // Reopen under the pinned policy succeeds and stays pinned.
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.set_compaction_policy(CompactionPolicyKind::SizeTiered, RunLayout::Unrestricted);
        vs.recover().unwrap();
        assert_eq!(vs.compaction_policy(), CompactionPolicyKind::SizeTiered);
        assert_eq!(vs.current().levels[1].num_runs(), 2);

        // The fresh MANIFEST cut at recover re-pinned the policy.
        let mut vs2 = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs2.set_compaction_policy(CompactionPolicyKind::LazyLeveled, RunLayout::Unrestricted);
        let err = vs2.recover().expect_err("still pinned after re-cut");
        assert!(matches!(err, Error::InvalidArgument(_)));
    }

    #[test]
    fn manifests_before_policies_are_implicitly_leveled() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        env.create_dir_all("db").unwrap();
        // Hand-write a pre-policy MANIFEST (no policy record) + CURRENT.
        let mut manifest = LogWriter::new(env.new_writable_file("db/MANIFEST-000001").unwrap());
        let edit = VersionEdit {
            next_file_number: Some(2),
            next_table_id: Some(1),
            last_sequence: Some(0),
            log_number: Some(0),
            ..Default::default()
        };
        manifest.add_record(&edit.encode()).unwrap();
        manifest.sync().unwrap();
        drop(manifest);
        let mut cur = env.new_writable_file("db/CURRENT").unwrap();
        cur.append(b"MANIFEST-000001\n").unwrap();
        cur.sync().unwrap();
        drop(cur);

        // A tiered reopen is refused: the absent tag means leveled.
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.set_compaction_policy(CompactionPolicyKind::SizeTiered, RunLayout::Unrestricted);
        let err = vs.recover().expect_err("absent tag means leveled");
        assert!(
            matches!(&err, Error::InvalidArgument(msg) if msg.contains("leveled")),
            "got: {err:?}"
        );

        // The default (leveled) reopen succeeds and re-pins explicitly.
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        assert_eq!(vs.compaction_policy(), CompactionPolicyKind::Leveled);
    }

    #[test]
    fn reopen_scavenges_stray_manifests() {
        let (fault, env, _sink, mut vs) = faulted_set();
        let mut edit = VersionEdit::default();
        let t = vs.new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        vs.log_and_apply(edit).unwrap();
        // A crash mid-re-cut can leave a fresh-cut MANIFEST that CURRENT
        // was never swung to; model the stray directly.
        let mut stray = env.new_writable_file("db/MANIFEST-000099").unwrap();
        stray.append(b"torn snapshot bytes").unwrap();
        stray.sync().unwrap();
        drop(stray);
        drop(vs);
        assert!(manifest_files(&env).len() >= 2);

        fault.crash_inner(bolt_env::CrashConfig::Clean);
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().expect("recover ignores the stray");
        assert_eq!(vs.current().num_tables(), 1);
        let names = manifest_files(&env);
        assert_eq!(
            names.len(),
            1,
            "open-time scavenging removed every non-current MANIFEST: {names:?}"
        );
        assert_eq!(names[0], format!("MANIFEST-{:06}", vs.manifest_number()));
    }
}
