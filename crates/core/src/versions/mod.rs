//! The VersionSet: the current [`Version`] and the one serialised step that
//! replaces it.
//!
//! The MANIFEST is the **commit barrier** of every flush and compaction
//! (§2.4): new tables are synced first, then a [`VersionEdit`] is appended
//! to the MANIFEST and synced, atomically validating the new tables and
//! invalidating the victims. [`VersionSet`] composes the jobs that hang off
//! that step, one field each:
//!
//! * [`FileIds`] — file numbers and table ids, allocated without the lock;
//! * `manifest` — the MANIFEST writer, its snapshot cut and the O5 re-cut;
//! * `reclaim` — the ledger of dead ranges and condemned files, decided by
//!   [`VersionSet::collect_garbage`] under the lock and reclaimed after it:
//!   whole files by unlink, dead logical tables of a compaction file that
//!   still hosts live ones by **hole punch** (§3.2, no barrier needed);
//! * `vlog_segments` — the value-log liveness ledger (`vlog_ledger`);
//! * `pins` — versions held by in-progress checkpoints.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bolt_common::events::{EngineEvent, EventSink};
use bolt_common::{Error, Result};
use bolt_env::Env;
use bolt_table::cache::TableCache;
use bolt_wal::LogReader;

use crate::filename::{current_file, parse_file_name, vlog_file, FileType};
use crate::options::CompactionPolicyKind;
use crate::version::{Version, VersionBuilder, VersionEdit};
use crate::vlog::ValuePointer;

mod manifest;
mod reclaim;
mod vlog_ledger;

pub use reclaim::{ReclaimBatch, ReclaimLedger};
pub use vlog_ledger::{RangeSet, VlogSegInfo};

/// The allocator of physical file numbers (tables, WALs, value-log segments
/// and MANIFESTs draw from one sequence, so a number names one file) and of
/// logical table ids. Shared by `Arc` between the engine, which allocates
/// without `core.versions`, and the [`VersionSet`], which stamps the
/// high-water marks into every MANIFEST record: a number is always taken
/// before its file is created and the file before the commit naming it, so
/// the stamp of that commit covers it.
#[derive(Debug)]
pub struct FileIds {
    next_file: AtomicU64,
    next_table: AtomicU64,
}

impl FileIds {
    fn new() -> Self {
        FileIds {
            next_file: AtomicU64::new(1),
            next_table: AtomicU64::new(1),
        }
    }

    /// Allocate a physical file number.
    pub fn new_file_number(&self) -> u64 {
        self.next_file.fetch_add(1, Ordering::SeqCst)
    }

    /// Allocate a logical table id.
    pub fn new_table_id(&self) -> u64 {
        self.next_table.fetch_add(1, Ordering::SeqCst)
    }

    /// Record the next unallocated number and id in `edit`.
    fn stamp(&self, edit: &mut VersionEdit) {
        edit.next_file_number = Some(self.next_file.load(Ordering::SeqCst));
        edit.next_table_id = Some(self.next_table.load(Ordering::SeqCst));
    }

    /// Never hand out a number below `file` or an id below `table` again.
    fn raise(&self, file: u64, table: u64) {
        self.next_file.fetch_max(file, Ordering::SeqCst);
        self.next_table.fetch_max(table, Ordering::SeqCst);
    }
}

/// Owns the current [`Version`] and commits its successors.
pub struct VersionSet {
    env: Arc<dyn Env>,
    db: String,
    num_levels: usize,
    current: Arc<Version>,
    /// Every version this set made current; readers may still hold old ones.
    live: Vec<Weak<Version>>,
    /// Recovered last sequence number (authoritative copy lives in the DB).
    pub last_sequence: u64,
    /// WALs below this number are obsolete.
    pub log_number: u64,
    /// Applied-transaction floor: the highest cross-shard transaction id
    /// whose slice a committed flush made durable (0 = none).
    pub applied_txn: u64,
    /// Compaction policy pinned in the MANIFEST (first edit of every
    /// manifest file); reopen under a different policy is refused. Every
    /// version built here holds the run-count invariant it implies.
    policy: CompactionPolicyKind,
    /// The engine's event sink: MANIFEST commits and re-cuts are announced
    /// here, and the MANIFEST's barriers are scoped to it.
    sink: Arc<EventSink>,
    ids: Arc<FileIds>,
    manifest: manifest::ManifestLog,
    /// Dead ranges and condemned files, from commit to env call.
    pub reclaim: ReclaimLedger,
    /// Per-segment value-log liveness ledger (see [`VlogSegInfo`]).
    vlog_segments: HashMap<u64, VlogSegInfo>,
    /// Versions pinned by in-progress checkpoints, keyed by pin id. Holding
    /// the `Arc` keeps every table the checkpoint will link alive for
    /// [`VersionSet::collect_garbage`], and any pin defers value-log
    /// punches and retirements.
    pins: HashMap<u64, Arc<Version>>,
    next_pin: u64,
}

impl std::fmt::Debug for VersionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionSet")
            .field("ids", &self.ids)
            .field("log_number", &self.log_number)
            .field("live_tables", &self.current.num_tables())
            .finish()
    }
}

impl VersionSet {
    /// Create an empty set for database directory `db`, operating under
    /// `policy` — which [`VersionSet::create_new`] pins in the MANIFEST and
    /// [`VersionSet::recover`] refuses a mismatch of — and announcing its
    /// commits in the engine's `sink`.
    pub fn new(
        env: Arc<dyn Env>,
        db: &str,
        num_levels: usize,
        policy: CompactionPolicyKind,
        sink: Arc<EventSink>,
    ) -> Self {
        VersionSet {
            env,
            db: db.to_string(),
            num_levels,
            current: Arc::new(Version::empty(num_levels)),
            live: Vec::new(),
            last_sequence: 0,
            log_number: 0,
            applied_txn: 0,
            policy,
            sink,
            ids: Arc::new(FileIds::new()),
            manifest: Default::default(),
            reclaim: Default::default(),
            vlog_segments: HashMap::new(),
            pins: HashMap::new(),
            next_pin: 0,
        }
    }

    /// The compaction policy this set was created or recovered under.
    pub fn compaction_policy(&self) -> CompactionPolicyKind {
        self.policy
    }

    /// The current version.
    pub fn current(&self) -> Arc<Version> {
        Arc::clone(&self.current)
    }

    /// The id allocator this set stamps its MANIFEST records from.
    pub fn ids(&self) -> &Arc<FileIds> {
        &self.ids
    }

    /// Append `edit` to the MANIFEST, sync it (the commit barrier), and
    /// install the resulting version.
    ///
    /// # Errors
    ///
    /// Returns I/O or corruption errors; on error the in-memory state is
    /// unchanged: the version is built first (pure) and nothing is mutated
    /// until the record has committed.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<Arc<Version>> {
        self.ids.stamp(&mut edit);
        if edit.last_sequence.is_none() {
            edit.last_sequence = Some(self.last_sequence);
        }
        let mut builder = VersionBuilder::new(Arc::clone(&self.current));
        builder.set_single_run_from(self.policy.single_run_from(self.num_levels));
        builder.apply(&edit);
        let version = Arc::new(builder.build()?);

        let edit_bytes = self.commit_edit(&mut edit)?;
        self.sink.emit(EngineEvent::ManifestCommit {
            edit_bytes,
            added: edit.added_tables.len() as u64,
            deleted: edit.deleted_tables.len() as u64,
        });

        if let Some(seq) = edit.last_sequence {
            self.last_sequence = self.last_sequence.max(seq);
        }
        if let Some(n) = edit.log_number {
            self.log_number = self.log_number.max(n);
        }
        if let Some(n) = edit.applied_txn {
            self.applied_txn = self.applied_txn.max(n);
        }
        for (_, _, table) in &edit.added_tables {
            self.reclaim.register_region(table);
        }
        for &(segment, offset, len) in &edit.vlog_dead {
            let info = self.vlog_segments.entry(segment).or_default();
            info.dead.insert(offset, len);
            // Hole-punch work too, unless the edit also retires the segment.
            let file = FileType::ValueLog(segment);
            self.reclaim.punch_later(file, offset, len);
        }
        for &segment in &edit.vlog_deleted {
            self.vlog_segments.remove(&segment);
            // Durably condemned: the whole file goes (and its punch work
            // with it), retried until the unlink succeeds.
            self.reclaim.condemn(FileType::ValueLog(segment));
        }
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
        let id = self.next_pin;
        self.next_pin += 1;
        for (_, _, table) in version.all_tables() {
            self.reclaim.mark_linked(FileType::Table(table.file_number));
        }
        let mut ledger: Vec<(u64, RangeSet)> = self
            .vlog_segments
            .iter()
            .map(|(&segment, info)| (segment, info.dead.clone()))
            .collect();
        ledger.sort_unstable_by_key(|&(segment, _)| segment);
        for &(segment, _) in &ledger {
            self.reclaim.mark_linked(FileType::ValueLog(segment));
        }
        self.pins.insert(id, Arc::clone(version));
        (id, ledger)
    }

    /// Release a checkpoint pin. The linked-file punch suppression is
    /// deliberately NOT released: the completed checkpoint still shares
    /// those inodes.
    pub fn unpin_checkpoint(&mut self, id: u64) {
        self.pins.remove(&id);
    }

    /// Decide what may be reclaimed now that the MANIFEST commit which
    /// invalidated it is durable (O3): forget dropped versions, turn logical
    /// tables no live version holds into punch work and files without a live
    /// table into unlink work, and take the eligible part out as a batch.
    /// Only table-cache evictions happen here; the caller releases
    /// `core.versions`, runs [`ReclaimBatch::execute`] and hands what failed
    /// to [`ReclaimLedger::hand_back`].
    ///
    /// Pointer liveness is not tracked per version, so value-log work stays
    /// in the ledger while a reader holds a version older than current — it
    /// may still resolve a pointer a committed compaction dropped — or a
    /// checkpoint is in progress: its pinned version may resolve pointers
    /// through any segment, and it is about to hard-link the segment files.
    #[must_use = "the batch holds the work; dropping it leaks the space until reopen"]
    pub fn collect_garbage(&mut self, table_cache: &TableCache) -> ReclaimBatch {
        let mut live_tables: HashSet<u64> = HashSet::new();
        let mut old_readers = false;
        let current = &self.current;
        self.live.retain(|weak| {
            let Some(version) = weak.upgrade() else {
                return false;
            };
            old_readers |= !Arc::ptr_eq(&version, current);
            live_tables.extend(version.all_tables().map(|(_, _, table)| table.table_id));
            true
        });
        let vlog = (!old_readers && self.pins.is_empty()).then_some(&self.vlog_segments);
        self.reclaim.decide(&live_tables, vlog, table_cache)
    }

    /// Recover state from CURRENT + MANIFEST; then start a fresh MANIFEST
    /// containing a full snapshot (bounding manifest growth) and swing
    /// CURRENT to it. Returns the WAL numbers on disk, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for malformed manifests and I/O errors
    /// from the env, a failed directory listing included.
    pub fn recover(&mut self) -> Result<Vec<u64>> {
        let current = self.env.new_random_access_file(&current_file(&self.db))?;
        let content = current.read(0, current.len() as usize)?;
        let name =
            String::from_utf8(content).map_err(|_| Error::corruption("CURRENT not utf-8"))?;
        let name = name.trim();
        let old_manifest_path = bolt_env::join_path(&self.db, name);

        let mut reader = LogReader::new(self.env.new_random_access_file(&old_manifest_path)?);
        let mut builder = VersionBuilder::new(Arc::new(Version::empty(self.num_levels)));
        builder.set_single_run_from(self.policy.single_run_from(self.num_levels));
        let mut found_any = false;
        let mut pinned_policy: Option<CompactionPolicyKind> = None;
        let mut vlog_dead: HashMap<u64, RangeSet> = HashMap::new();
        let mut vlog_deleted: HashSet<u64> = HashSet::new();
        let (mut next_file, mut next_table) = (0u64, 0u64);
        while let Some(record) = reader.read_record()? {
            let edit = VersionEdit::decode(&record)?;
            for &(segment, offset, len) in &edit.vlog_dead {
                vlog_dead.entry(segment).or_default().insert(offset, len);
            }
            for &segment in &edit.vlog_deleted {
                vlog_dead.remove(&segment);
                vlog_deleted.insert(segment);
            }
            next_file = next_file.max(edit.next_file_number.unwrap_or(0));
            next_table = next_table.max(edit.next_table_id.unwrap_or(0));
            if let Some(n) = edit.last_sequence {
                self.last_sequence = self.last_sequence.max(n);
            }
            if let Some(n) = edit.log_number {
                self.log_number = self.log_number.max(n);
            }
            if let Some(n) = edit.applied_txn {
                self.applied_txn = self.applied_txn.max(n);
            }
            if let Some(p) = edit.compaction_policy {
                pinned_policy = Some(p);
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
        self.live.push(Arc::downgrade(&self.current));

        for (_, _, table) in self.current.all_tables() {
            self.reclaim.register_region(table);
        }

        // The open's one directory listing. It rebuilds the value-log ledger:
        // every `NNNNNN.vlog` on disk is a segment, sealed at its size from
        // the env (the MANIFEST only persists dead-byte deltas). It condemns
        // what the recovered state does not reference, for the open's first
        // reclaim pass (O2): tables no region names, every MANIFEST (the
        // fresh cut supersedes them all), temp files, and segments durably
        // condemned (`vlog_deleted`); it returns the WALs. And as files are
        // created between commits, no number on disk is handed out again: a
        // new file under one would truncate a live segment, or die by its
        // namesake's retry.
        let referenced = self.reclaim.referenced_files();
        let mut logs = Vec::new();
        for name in self.env.list_dir(&self.db)? {
            let Some(file) = parse_file_name(&name) else {
                continue;
            };
            let number = match file {
                FileType::Current => continue,
                FileType::Log(number) => {
                    logs.push(number);
                    number
                }
                FileType::Table(number) if referenced.contains(&number) => number,
                FileType::ValueLog(segment) if !vlog_deleted.contains(&segment) => {
                    let info = VlogSegInfo {
                        written: Some(self.env.file_size(&vlog_file(&self.db, segment))?),
                        dead: vlog_dead.remove(&segment).unwrap_or_default(),
                    };
                    self.vlog_segments.insert(segment, info);
                    segment
                }
                FileType::Table(number)
                | FileType::Manifest(number)
                | FileType::Temp(number)
                | FileType::ValueLog(number) => {
                    self.reclaim.condemn(file);
                    number
                }
            };
            next_file = next_file.max(number.saturating_add(1));
        }
        self.ids.raise(next_file, next_table);
        logs.sort_unstable();

        // Start a fresh manifest with a complete snapshot — the same cut
        // path that self-heals a failed commit barrier at runtime.
        self.cut_fresh_manifest()?;
        Ok(logs)
    }

    /// Track a freshly created value-log segment as the active appender
    /// target (unsealed: never retired).
    pub fn register_vlog_segment(&mut self, segment: u64) {
        self.vlog_segments.insert(segment, VlogSegInfo::default());
    }

    /// Seal a value-log segment at its final size, making it eligible for
    /// retirement once compaction reports all of its bytes dead.
    pub fn seal_vlog_segment(&mut self, segment: u64, written: u64) {
        self.vlog_segments.entry(segment).or_default().written = Some(written);
    }

    /// Stage into `edit` what a compaction that dropped the pointers `dead`
    /// does to the ledger, to commit with its tables: the range of every
    /// pointer into a known segment as `vlog_dead`, and as `vlog_deleted`
    /// every sealed segment whose dead ranges would then cover all it
    /// wrote. The sweep covers the whole ledger, not just the segments
    /// touched, so one left fully dead by a crashed predecessor is retired
    /// too. Returns the bytes newly dead — the union's growth, so duplicate
    /// drops of a range count once — and the segments retired.
    pub fn stage_vlog_dead(&self, edit: &mut VersionEdit, dead: &[ValuePointer]) -> (u64, u64) {
        let mut dead_after: HashMap<u64, RangeSet> = HashMap::new();
        for ptr in dead {
            if let Some(info) = self.vlog_segments.get(&ptr.file_number) {
                let (offset, len) = (ptr.offset, u64::from(ptr.len));
                edit.vlog_dead.push((ptr.file_number, offset, len));
                let after = dead_after.entry(ptr.file_number);
                after
                    .or_insert_with(|| info.dead.clone())
                    .insert(offset, len);
            }
        }
        let (mut newly_dead, mut retired) = (0u64, 0u64);
        for (&segment, info) in &self.vlog_segments {
            let dead = dead_after.get(&segment).unwrap_or(&info.dead).total();
            newly_dead += dead - info.dead.total();
            if info.written.is_some_and(|w| dead >= w) {
                edit.vlog_deleted.push(segment);
                retired += 1;
            }
        }
        (newly_dead, retired)
    }

    /// The value-log liveness ledger (segment number → written/dead bytes).
    #[cfg(test)]
    pub(crate) fn vlog_segments(&self) -> &HashMap<u64, VlogSegInfo> {
        &self.vlog_segments
    }
}

/// Fixtures shared by the unit tests of this module and its children.
#[cfg(test)]
pub(crate) mod test_util {
    pub(crate) use std::sync::Arc;

    use bolt_common::bloom::BloomFilterPolicy;
    pub(crate) use bolt_common::events::EventSink;
    pub(crate) use bolt_env::{Env, FaultEnv, MemEnv};
    use bolt_table::builder::FilterKey;
    pub(crate) use bolt_table::cache::TableCache;
    use bolt_table::comparator::InternalKeyComparator;
    use bolt_table::ikey::{make_internal_key, ValueType};
    use bolt_table::TableReadOptions;

    pub(crate) use super::VersionSet;
    pub(crate) use crate::filename::{table_file, vlog_file};
    pub(crate) use crate::options::CompactionPolicyKind;
    pub(crate) use crate::version::{TableMeta, VersionEdit};

    pub(crate) fn test_cache(env: &Arc<dyn Env>) -> TableCache {
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

    pub(crate) fn meta(id: u64, file: u64, offset: u64, size: u64) -> TableMeta {
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

    /// A set over `dir` under `policy`, announcing into a sink of its own.
    pub(crate) fn set_at(
        env: &Arc<dyn Env>,
        dir: &str,
        policy: CompactionPolicyKind,
    ) -> VersionSet {
        VersionSet::new(Arc::clone(env), dir, 7, policy, Arc::default())
    }

    /// The leveled set over `db`, recovered.
    pub(crate) fn recovered_set(env: &Arc<dyn Env>) -> VersionSet {
        let mut vs = set_at(env, "db", CompactionPolicyKind::Leveled);
        vs.recover().unwrap();
        vs
    }

    pub(crate) fn new_set(env: &Arc<dyn Env>) -> VersionSet {
        env.create_dir_all("db").unwrap();
        let mut vs = set_at(env, "db", CompactionPolicyKind::Leveled);
        vs.create_new().unwrap();
        vs
    }

    /// A fresh set on a fault env, with the sink its events and — inside
    /// a scope of it — its barriers go to.
    pub(crate) fn faulted_set() -> (FaultEnv, Arc<dyn Env>, Arc<EventSink>, VersionSet) {
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let sink = Arc::new(EventSink::new());
        env.create_dir_all("db").unwrap();
        let policy = CompactionPolicyKind::Leveled;
        let mut vs = VersionSet::new(Arc::clone(&env), "db", 7, policy, Arc::clone(&sink));
        vs.create_new().unwrap();
        sink.drain();
        (fault, env, sink, vs)
    }

    pub(crate) fn manifest_files(env: &Arc<dyn Env>) -> Vec<String> {
        let mut names: Vec<String> = env
            .list_dir("db")
            .unwrap()
            .into_iter()
            .filter(|n| n.contains("MANIFEST-"))
            .collect();
        names.sort();
        names
    }

    /// One whole reclaim pass, as `DbInner::reclaim` runs it.
    pub(crate) fn gc(vs: &mut VersionSet, cache: &TableCache) {
        let batch = vs.collect_garbage(cache);
        let failed = batch.execute(vs.env.as_ref(), &vs.db);
        vs.reclaim.hand_back(failed);
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;
    use super::*;
    use bolt_table::ikey::{make_internal_key, ValueType};
    use bolt_wal::LogWriter;

    /// The `(next file number, next table id)` a commit would record now.
    fn stamped_ids(vs: &VersionSet) -> (u64, u64) {
        let mut edit = VersionEdit::default();
        vs.ids.stamp(&mut edit);
        (edit.next_file_number.unwrap(), edit.next_table_id.unwrap())
    }

    #[test]
    fn create_and_reopen_empty() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        {
            let _vs = new_set(&env);
        }
        let vs = recovered_set(&env);
        assert_eq!(vs.current().num_tables(), 0);
    }

    #[test]
    fn edits_survive_recovery() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let next_ids;
        {
            let mut vs = new_set(&env);
            let mut edit = VersionEdit::default();
            let t1 = vs.ids().new_table_id();
            let f1 = vs.ids().new_file_number();
            edit.added_tables.push((0, 5, meta(t1, f1, 0, 100)));
            edit.last_sequence = Some(42);
            edit.log_number = Some(3);
            vs.log_and_apply(edit).unwrap();

            let mut edit2 = VersionEdit::default();
            let t2 = vs.ids().new_table_id();
            let f2 = vs.ids().new_file_number();
            edit2.added_tables.push((1, 0, meta(t2, f2, 0, 200)));
            edit2
                .compact_pointers
                .push((1, make_internal_key(b"cp", 1, ValueType::Value)));
            vs.log_and_apply(edit2).unwrap();
            next_ids = stamped_ids(&vs);
        }

        let vs = recovered_set(&env);
        assert_eq!(vs.current().num_tables(), 2);
        assert_eq!(vs.current().levels[0].runs[0].tag, 5);
        assert_eq!(vs.last_sequence, 42);
        assert_eq!(vs.log_number, 3);
        assert!(vs.current().compact_pointer(1).is_some());
        let recovered = stamped_ids(&vs);
        assert!(recovered.0 >= next_ids.0);
        assert!(recovered.1 >= next_ids.1);
    }

    #[test]
    fn recovery_survives_crash_after_commit() {
        let mem_env = Arc::new(MemEnv::new());
        let env: Arc<dyn Env> = Arc::clone(&mem_env) as Arc<dyn Env>;
        {
            let mut vs = new_set(&env);
            let mut edit = VersionEdit::default();
            let t = vs.ids().new_table_id();
            let f = vs.ids().new_file_number();
            edit.added_tables.push((0, 1, meta(t, f, 0, 100)));
            vs.log_and_apply(edit).unwrap();
        }
        // Crash: everything synced by log_and_apply must survive.
        mem_env.crash(bolt_env::CrashConfig::Clean);
        let vs = recovered_set(&env);
        assert_eq!(vs.current().num_tables(), 1);
    }

    #[test]
    fn uncommitted_edit_is_lost_on_crash() {
        let mem_env = Arc::new(MemEnv::new());
        let env: Arc<dyn Env> = Arc::clone(&mem_env) as Arc<dyn Env>;
        {
            let mut vs = new_set(&env);
            let mut edit = VersionEdit::default();
            let t = vs.ids().new_table_id();
            let f = vs.ids().new_file_number();
            edit.added_tables.push((0, 1, meta(t, f, 0, 100)));
            vs.log_and_apply(edit).unwrap();
            // Append a record but crash before sync.
            let mut edit2 = VersionEdit::default();
            edit2.added_tables.push((0, 2, meta(99, 98, 0, 100)));
            vs.manifest
                .writer
                .as_mut()
                .unwrap()
                .add_record(&edit2.encode())
                .unwrap();
        }
        mem_env.crash(bolt_env::CrashConfig::Clean);
        let vs = recovered_set(&env);
        assert_eq!(vs.current().num_tables(), 1, "torn edit must not apply");
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

        let mut ckpt = set_at(&env, "ckpt", CompactionPolicyKind::Leveled);
        ckpt.recover().unwrap();
        let seg5 = &ckpt.vlog_segments()[&5];
        assert_eq!(
            seg5.dead.total(),
            100,
            "post-pin dead ranges must not reach the checkpoint manifest"
        );
        assert!(
            !ckpt.vlog_segments().contains_key(&6),
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
            assert!(!vs.vlog_segments().contains_key(&13));
        }

        let mut vs = recovered_set(&env);
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
        assert!(!vs.vlog_segments().contains_key(&13));
        let cache = test_cache(&env);
        gc(&mut vs, &cache);
        assert!(!env.file_exists(&vlog_file("db", 13)));
        assert!(env.file_exists(&vlog_file("db", 11)));
    }

    #[test]
    fn pinned_policy_round_trips_and_mismatch_is_refused() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        env.create_dir_all("db").unwrap();
        {
            let mut vs = set_at(&env, "db", CompactionPolicyKind::SizeTiered);
            vs.create_new().unwrap();
            // Overlapping runs at level 1 are legal under the tiered layout.
            let mut edit = VersionEdit::default();
            let (t1, t2) = (vs.ids().new_table_id(), vs.ids().new_table_id());
            edit.added_tables.push((1, 1, meta(t1, 55, 0, 10)));
            edit.added_tables.push((1, 2, meta(t2, 56, 0, 10)));
            vs.log_and_apply(edit).unwrap();
        }

        // Reopen under the default (leveled) policy: refused, state intact.
        let mut vs = set_at(&env, "db", CompactionPolicyKind::Leveled);
        let err = vs.recover().expect_err("policy mismatch must be refused");
        assert!(
            matches!(&err, Error::InvalidArgument(msg)
                if msg.contains("size_tiered") && msg.contains("leveled")),
            "mismatch names both policies, got: {err:?}"
        );

        // Reopen under the pinned policy succeeds and stays pinned.
        let mut vs = set_at(&env, "db", CompactionPolicyKind::SizeTiered);
        vs.recover().unwrap();
        assert_eq!(vs.compaction_policy(), CompactionPolicyKind::SizeTiered);
        assert_eq!(vs.current().levels[1].num_runs(), 2);

        // The fresh MANIFEST cut at recover re-pinned the policy.
        let mut vs2 = set_at(&env, "db", CompactionPolicyKind::LazyLeveled);
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
        let mut vs = set_at(&env, "db", CompactionPolicyKind::SizeTiered);
        let err = vs.recover().expect_err("absent tag means leveled");
        assert!(
            matches!(&err, Error::InvalidArgument(msg) if msg.contains("leveled")),
            "got: {err:?}"
        );

        // The default (leveled) reopen succeeds and re-pins explicitly.
        let vs = recovered_set(&env);
        assert_eq!(vs.compaction_policy(), CompactionPolicyKind::Leveled);
    }

    #[test]
    fn reopen_scavenges_stray_manifests() {
        let (fault, env, _sink, mut vs) = faulted_set();
        let mut edit = VersionEdit::default();
        let t = vs.ids().new_table_id();
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
        let mut vs = set_at(&env, "db", CompactionPolicyKind::Leveled);
        vs.recover().expect("recover ignores the stray");
        assert_eq!(vs.current().num_tables(), 1);
        // Recover condemns every MANIFEST it listed; the first reclaim pass
        // unlinks them.
        assert_eq!(vs.reclaim.pending_unlink_files(), 2);
        gc(&mut vs, &test_cache(&env));
        let names = manifest_files(&env);
        assert_eq!(
            names.len(),
            1,
            "open-time scavenging removed every non-current MANIFEST: {names:?}"
        );
        assert_eq!(names[0], format!("MANIFEST-{:06}", vs.manifest.number));
    }
}
