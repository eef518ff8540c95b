//! The reclaim ledger: every byte range and file the tree no longer needs,
//! from the commit that made it dead until the env call that gives it back.
//!
//! Reclaiming is two steps with `core.versions` released in between.
//! [`ReclaimLedger::decide`] runs under the lock and only moves entries: a
//! logical table no live version holds leaves `regions` for the punch work of
//! its file, a file left with no live table is condemned, and whatever may be
//! reclaimed now leaves the ledger as a [`ReclaimBatch`].
//! [`ReclaimBatch::execute`] then makes the `link_count` / `punch_hole` /
//! `delete_file` calls with no engine lock held, and what it could not do
//! comes back through [`ReclaimLedger::hand_back`] for the next pass.
//!
//! Why the gap is safe (DESIGN.md §15): a batch holds only bytes that no
//! version alive at the decision references, and a reader or checkpoint pin
//! arriving later holds the decision's current version or a newer one, in
//! which those bytes are unreferenced too. A crash inside the gap is a crash
//! between a commit and its garbage collection: garbage stays, nothing
//! dangles (O3).

use std::collections::{BTreeMap, HashMap, HashSet};

use bolt_common::events::{emit_in_scope, EngineEvent};
use bolt_env::Env;
use bolt_table::cache::TableCache;

use super::vlog_ledger::{RangeSet, VlogSegInfo};
use crate::filename::FileType;
use crate::version::TableMeta;

/// Dead ranges of one file to punch out in one pass.
#[derive(Debug)]
struct Punch {
    file: FileType,
    ranges: RangeSet,
    /// For a value-log segment: the dead bytes its ledger entry held at the
    /// decision (what the `VlogGc` event reports).
    ledger_dead: u64,
}

/// What is dead but not yet given back, and what must not be touched yet.
#[derive(Debug, Default)]
pub struct ReclaimLedger {
    /// Logical tables not yet found dead — `(offset, size, table id)` — by
    /// the physical file hosting them.
    regions: HashMap<u64, Vec<(u64, u64, u64)>>,
    /// Files being written: exempt until their commit clears the mark.
    pending: HashSet<u64>,
    /// Dead ranges awaiting a hole punch. Touching ranges of one file merge,
    /// so neighbours that died in different commits cost one call.
    punch: BTreeMap<FileType, RangeSet>,
    /// Condemned files — dead table files, retired value-log segments,
    /// abandoned MANIFESTs, and what an open finds unreferenced — awaiting
    /// their unlink; retried every pass.
    unlink: Vec<FileType>,
    /// Files this process hard-linked (or is about to link) into a
    /// checkpoint. A punch goes through the shared inode and would corrupt
    /// the copy, so these are only ever reclaimed whole (an unlink removes
    /// this database's name alone); never released, the completed checkpoint
    /// keeps the inodes. Checkpoints of earlier processes are caught by the
    /// link count at execution.
    linked: HashSet<FileType>,
}

impl ReclaimLedger {
    /// Record where `table` lives, so that its bytes can be punched out of a
    /// file that still hosts live tables when it dies.
    pub(super) fn register_region(&mut self, table: &TableMeta) {
        let regions = self.regions.entry(table.file_number).or_default();
        regions.push((table.offset, table.size, table.table_id));
    }

    /// Protect `file` from garbage collection while it is being written.
    pub fn mark_pending(&mut self, file: u64) {
        self.pending.insert(file);
    }

    /// Release the pending mark.
    pub fn clear_pending(&mut self, file: u64) {
        self.pending.remove(&file);
    }

    /// Table files hosting a table not yet found dead, or being written.
    pub fn referenced_files(&self) -> HashSet<u64> {
        let files = self.regions.keys().chain(&self.pending);
        files.copied().collect()
    }

    pub(super) fn mark_linked(&mut self, file: FileType) {
        self.linked.insert(file);
    }

    /// Queue `[offset, offset + len)` of `file` for a hole punch.
    pub(super) fn punch_later(&mut self, file: FileType, offset: u64, len: u64) {
        self.punch.entry(file).or_default().insert(offset, len);
    }

    /// Queue `file` for unlinking; the whole file goes, so its punch work does.
    pub(super) fn condemn(&mut self, file: FileType) {
        self.punch.remove(&file);
        self.unlink.push(file);
    }

    /// Value-log segments condemned by a committed edit whose file may still
    /// exist: a fresh MANIFEST must keep them condemned.
    pub(super) fn condemned_segments(&self) -> Vec<u64> {
        let segments = self.unlink.iter().filter_map(|file| match file {
            FileType::ValueLog(segment) => Some(*segment),
            _ => None,
        });
        segments.collect()
    }

    /// Bytes of dead ranges awaiting a hole punch — queued behind a reader, a
    /// checkpoint pin or a checkpoint's link, or to be retried.
    pub fn pending_punch_bytes(&self) -> u64 {
        self.punch.values().map(RangeSet::total).sum()
    }

    /// Condemned files awaiting their unlink.
    pub fn pending_unlink_files(&self) -> u64 {
        self.unlink.len() as u64
    }

    /// Move what `live_tables` no longer covers into punch and unlink work
    /// (evicting each dead table from `cache` as it moves, once), then take
    /// out everything that may be reclaimed now. Value-log work is eligible
    /// only when the caller passes the segment ledger, i.e. when no reader can
    /// still resolve a dropped pointer.
    pub(super) fn decide(
        &mut self,
        live_tables: &HashSet<u64>,
        vlog: Option<&HashMap<u64, VlogSegInfo>>,
        cache: &TableCache,
    ) -> ReclaimBatch {
        let mut dead_files = Vec::new();
        for (&file, regions) in &mut self.regions {
            if self.pending.contains(&file) {
                continue;
            }
            regions.retain(|&(offset, size, table_id)| {
                let alive = live_tables.contains(&table_id);
                if !alive {
                    cache.evict(table_id);
                    let dead = self.punch.entry(FileType::Table(file)).or_default();
                    dead.insert(offset, size);
                }
                alive
            });
            if regions.is_empty() {
                dead_files.push(file);
            }
        }
        for file in dead_files {
            self.regions.remove(&file);
            cache.evict_file(file);
            self.condemn(FileType::Table(file));
        }

        let eligible = |file: &FileType| vlog.is_some() || !matches!(file, FileType::ValueLog(_));
        let dead_in_ledger = |file: &FileType| match (file, vlog) {
            (FileType::ValueLog(segment), Some(ledger)) => ledger.get(segment),
            _ => None,
        };
        let linked = &self.linked;
        let punches = self
            .punch
            .extract_if(.., |file, _| eligible(file) && !linked.contains(file))
            .map(|(file, ranges)| Punch {
                ledger_dead: dead_in_ledger(&file).map_or(0, |info| info.dead.total()),
                file,
                ranges,
            });
        ReclaimBatch {
            punches: punches.collect(),
            unlinks: self.unlink.extract_if(.., |file| eligible(file)).collect(),
        }
    }

    /// Take back what a batch could not reclaim; the next pass retries it.
    pub fn hand_back(&mut self, failed: ReclaimBatch) {
        for job in failed.punches {
            for (offset, len) in job.ranges.iter() {
                self.punch_later(job.file, offset, len);
            }
        }
        self.unlink.extend(failed.unlinks);
    }
}

/// Reclaim work that left the ledger, to be done with `core.versions`
/// released.
#[derive(Debug, Default)]
pub struct ReclaimBatch {
    punches: Vec<Punch>,
    unlinks: Vec<FileType>,
}

impl ReclaimBatch {
    /// A batch that only unlinks `files`, decided by their owner (a WAL
    /// retirement, a failed build's outputs) rather than by the ledger.
    pub(crate) fn unlinking(files: impl IntoIterator<Item = FileType>) -> Self {
        let mut batch = ReclaimBatch::default();
        batch.unlinks.extend(files);
        batch
    }

    /// `true` when there is nothing (left) to reclaim.
    pub fn is_empty(&self) -> bool {
        self.punches.is_empty() && self.unlinks.is_empty()
    }

    /// Files whose unlink this batch still owes.
    pub(crate) fn unlinks_left(&self) -> usize {
        self.unlinks.len()
    }

    /// Punch and unlink in database directory `dir`, and return what could
    /// not be: ranges whose punch failed or whose inode a checkpoint shares,
    /// files whose unlink failed. (A range of a file that is gone is done.)
    /// Hand a non-empty result to [`ReclaimLedger::hand_back`] — unless it
    /// holds WALs, which stay on the engine's log list instead. Must run with
    /// neither `core.versions` nor `core.state` held — per-object metadata
    /// calls are the slow kind (asserted under `debug_locks`).
    ///
    /// WALs go oldest first, and none after the first that fails: a newer
    /// log (a transaction's `Applied` marker) gone while an older one (its
    /// prepare) survives would let recovery re-apply the prepare at
    /// end-of-log, over later committed writes (DESIGN.md §12).
    ///
    /// Announces a `HolePunch` per successful punch (and value-log GC) in the
    /// scope it runs in: the engine's, inside the commit that decided it.
    #[must_use = "failed work must go back to the ledger or it is never retried"]
    pub fn execute(mut self, env: &dyn Env, dir: &str) -> ReclaimBatch {
        #[cfg(feature = "debug_locks")]
        for lock in ["core.versions", "core.state"] {
            assert!(
                !bolt_common::debug_locks::thread_holds(lock),
                "reclaim batch executed while holding tracked lock `{lock}`"
            );
        }
        self.punches.retain_mut(|job| {
            let path = job.file.path(dir);
            // Two threads commit, so batches overlap: one decided after this
            // one may have found the rest of the file dead and unlinked it.
            if !env.file_exists(&path) {
                return false;
            }
            if shares_inode(env, &path) {
                return true;
            }
            let mut failed = RangeSet::default();
            for (offset, len) in job.ranges.iter() {
                // Lazy metadata update, no barrier (§3.2).
                match env.punch_hole(&path, offset, len) {
                    Ok(()) => emit_in_scope(EngineEvent::HolePunch { bytes: len }),
                    Err(_) => failed.insert(offset, len),
                }
            }
            let punched_bytes = job.ranges.total() - failed.total();
            if let (FileType::ValueLog(segment), true) = (job.file, punched_bytes > 0) {
                emit_in_scope(EngineEvent::VlogGc {
                    segment,
                    dead_bytes: job.ledger_dead,
                    punched_bytes,
                });
            }
            job.ranges = failed;
            !job.ranges.is_empty()
        });
        // Stable: logs go last, ascending, so a failed one keeps the rest.
        self.unlinks
            .sort_by_key(|&f| matches!(f, FileType::Log(_)).then_some(f));
        let mut log_failed = false;
        self.unlinks.retain(|file| {
            if log_failed {
                return true;
            }
            let path = file.path(dir);
            let retired = match file {
                FileType::ValueLog(segment) => Some((*segment, env.file_size(&path).unwrap_or(0))),
                _ => None,
            };
            let gone = env.delete_file(&path).is_ok() || !env.file_exists(&path);
            if let (true, Some((segment, reclaimed_bytes))) = (gone, retired) {
                emit_in_scope(EngineEvent::VlogRetire {
                    segment,
                    reclaimed_bytes,
                });
            }
            log_failed = !gone && matches!(file, FileType::Log(_));
            !gone
        });
        self
    }
}

/// `true` when `path`'s inode has a second name — a checkpoint's hard link,
/// possibly taken by an earlier process: the link survives restarts, the
/// ledger's in-memory set does not. Punching would corrupt the copy, so the
/// range waits; deleting the checkpoint drops the count back to one. An
/// unanswerable count plays it safe.
fn shares_inode(env: &dyn Env, path: &str) -> bool {
    env.link_count(path).map_or(true, |names| names > 1)
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use bolt_env::FaultPlan;

    #[test]
    fn gc_deletes_fully_dead_files_and_punches_partial() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);

        // Two logical tables in one physical "compaction file".
        let f = vs.ids().new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&[0xaa; 2048]).unwrap();
        file.sync().unwrap();
        drop(file);

        let (ta, tb) = (vs.ids().new_table_id(), vs.ids().new_table_id());
        let mut edit = VersionEdit::default();
        edit.added_tables.push((0, 1, meta(ta, f, 0, 1024)));
        edit.added_tables.push((0, 2, meta(tb, f, 1024, 1024)));
        vs.log_and_apply(edit).unwrap();

        // Kill table A only: expect a punched hole, file still present.
        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, ta));
        vs.log_and_apply(edit).unwrap();
        gc(&mut vs, &cache);
        assert!(env.file_exists(&path));
        let r = env.new_random_access_file(&path).unwrap();
        assert!(r.read(0, 1024).unwrap().iter().all(|&b| b == 0));
        assert!(r.read(1024, 1024).unwrap().iter().all(|&b| b == 0xaa));
        assert_eq!(env.stats().snapshot().holes_punched, 1);

        // Kill table B: the file dies.
        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, tb));
        vs.log_and_apply(edit).unwrap();
        gc(&mut vs, &cache);
        assert!(!env.file_exists(&path));
    }

    #[test]
    fn gc_respects_versions_held_by_readers() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);

        let f = vs.ids().new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&[1u8; 100]).unwrap();
        file.sync().unwrap();
        drop(file);

        let t = vs.ids().new_table_id();
        let mut edit = VersionEdit::default();
        edit.added_tables.push((0, 1, meta(t, f, 0, 100)));
        let held = vs.log_and_apply(edit).unwrap(); // reader holds this version

        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, t));
        vs.log_and_apply(edit).unwrap();
        gc(&mut vs, &cache);
        assert!(
            env.file_exists(&path),
            "file kept while an old version references it"
        );
        drop(held);
        gc(&mut vs, &cache);
        assert!(!env.file_exists(&path));
    }

    #[test]
    fn pending_files_are_protected() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);
        let f = vs.ids().new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&[1u8; 10]).unwrap();
        file.sync().unwrap();
        drop(file);
        vs.reclaim.mark_pending(f);
        vs.reclaim.register_region(&meta(424242, f, 0, 10)); // in no live version
        gc(&mut vs, &cache);
        assert!(env.file_exists(&path));
        vs.reclaim.clear_pending(f);
        gc(&mut vs, &cache);
        assert!(!env.file_exists(&path));
    }

    #[test]
    fn link_count_suppresses_punch_across_restart() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let (f, ta, path) = {
            let mut vs = new_set(&env);
            let f = vs.ids().new_file_number();
            let path = table_file("db", f);
            let mut file = env.new_writable_file(&path).unwrap();
            file.append(&[0xaa; 2048]).unwrap();
            file.sync().unwrap();
            drop(file);
            let (ta, tb) = (vs.ids().new_table_id(), vs.ids().new_table_id());
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

        let mut vs = recovered_set(&env);
        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, ta));
        vs.log_and_apply(edit).unwrap();
        gc(&mut vs, &cache);
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
        gc(&mut vs, &cache);
        assert_eq!(env.stats().snapshot().holes_punched, 1);
        let r = env.new_random_access_file(&path).unwrap();
        assert!(r.read(0, 1024).unwrap().iter().all(|&b| b == 0));
        assert!(r.read(1024, 1024).unwrap().iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn gc_rescavenges_stale_manifest_whose_eager_delete_failed() {
        let (fault, env, _sink, mut vs) = faulted_set();
        let cache = test_cache(&env);
        // Kill the original commit's sync (forcing a re-cut) AND the first
        // delete of the abandoned MANIFEST — the reclaim pass that follows
        // the commit — so the stale file lingers.
        fault.set_plan(
            FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0,eio:delete:glob=MANIFEST-*:nth=0")
                .unwrap(),
        );
        let mut edit = VersionEdit::default();
        let t = vs.ids().new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        vs.log_and_apply(edit).expect("re-cut heals the commit");
        assert_eq!(vs.manifest_recuts(), 1);
        gc(&mut vs, &cache);
        assert_eq!(fault.faults_injected(), 2);
        assert_eq!(
            manifest_files(&env).len(),
            2,
            "abandoned MANIFEST lingers after its delete failed"
        );
        assert_eq!(vs.reclaim.pending_unlink_files(), 1);

        // The next pass retries the unlink and reclaims it.
        gc(&mut vs, &cache);
        assert_eq!(vs.reclaim.pending_unlink_files(), 0);
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

    /// A table file whose unlink fails used to be forgotten until the next
    /// open; it is retried like a stale MANIFEST or a retired segment.
    #[test]
    fn gc_retries_a_table_file_whose_unlink_failed() {
        use bolt_table::ikey::{make_internal_key, ValueType};
        use bolt_table::{TableBuilder, TableFormat};

        let (fault, env, _sink, mut vs) = faulted_set();
        let cache = test_cache(&env);
        // One real table in a file of its own, its reader cached under its
        // id the way a commit caches it.
        let f = vs.ids().new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        let key = make_internal_key(b"k", 1, ValueType::Value);
        builder.add(&key, b"v").unwrap();
        let mut built = builder.finish().unwrap();
        file.sync().unwrap();
        drop(file);
        let t = vs.ids().new_table_id();
        let table = meta(t, f, built.offset, built.size);
        let reader = cache.reader_of_built(f, &path, &mut built).unwrap();
        cache.insert_built(t, reader, []);
        let cached = |cache: &TableCache| {
            let mut hit = true;
            let _ = cache.table(t, || {
                hit = false;
                table.spec("db")
            });
            hit
        };
        assert!(cached(&cache));
        let mut edit = VersionEdit::default();
        edit.added_tables.push((0, 1, table.clone()));
        vs.log_and_apply(edit).unwrap();
        let mut edit = VersionEdit::default();
        edit.deleted_tables.push((0, t));
        vs.log_and_apply(edit).unwrap();

        fault.set_plan(FaultPlan::parse("eio:delete:glob=*.sst:nth=0").unwrap());
        gc(&mut vs, &cache);
        assert_eq!(fault.faults_injected(), 1, "the delete EIO fired");
        assert!(env.file_exists(&path), "the failing pass leaves the file");
        assert_eq!(
            vs.reclaim.pending_unlink_files(),
            1,
            "and keeps it condemned"
        );
        assert!(!vs.reclaim.referenced_files().contains(&f));

        gc(&mut vs, &cache);
        assert!(!env.file_exists(&path), "the next pass retries the unlink");
        assert_eq!(vs.reclaim.pending_unlink_files(), 0);
        assert!(!cached(&cache), "no reader of a dead table stays cached");
    }

    /// A compaction file of `n` 1 KiB logical tables, committed as one run
    /// each so that any subset can die; returns the file's path and the ids.
    fn compaction_file(env: &Arc<dyn Env>, vs: &mut VersionSet, n: u64) -> (String, Vec<u64>) {
        let f = vs.ids().new_file_number();
        let path = table_file("db", f);
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&vec![0xaa; 1024 * n as usize]).unwrap();
        file.sync().unwrap();
        let mut edit = VersionEdit::default();
        let ids: Vec<u64> = (0..n).map(|_| vs.ids().new_table_id()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let table = meta(id, f, 1024 * i as u64, 1024);
            edit.added_tables.push((0, id, table));
        }
        vs.log_and_apply(edit).unwrap();
        (path, ids)
    }

    #[test]
    fn touching_dead_tables_cost_one_punch_and_a_live_one_between_keeps_two() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);
        let kill = |vs: &mut VersionSet, dead: &[u64]| {
            let mut edit = VersionEdit::default();
            edit.deleted_tables.extend(dead.iter().map(|&id| (0, id)));
            vs.log_and_apply(edit).unwrap();
            gc(vs, &cache);
        };
        let zeroed = |path: &str, table: u64| {
            let file = env.new_random_access_file(path).unwrap();
            let bytes = file.read(1024 * table, 1024).unwrap();
            assert!(bytes.iter().all(|&b| b == bytes[0]));
            bytes[0] == 0
        };

        // Tables 0 and 1 die together: one hole over both.
        let (path, ids) = compaction_file(&env, &mut vs, 3);
        kill(&mut vs, &ids[..2]);
        assert_eq!(env.stats().snapshot().holes_punched, 1);
        assert_eq!(env.stats().snapshot().hole_bytes, 2048);
        assert!(zeroed(&path, 0) && zeroed(&path, 1) && !zeroed(&path, 2));

        // Tables 0 and 2 die around a live table 1: two holes, 1 untouched.
        let (path, ids) = compaction_file(&env, &mut vs, 3);
        kill(&mut vs, &[ids[0], ids[2]]);
        assert_eq!(env.stats().snapshot().holes_punched, 3);
        assert_eq!(env.stats().snapshot().hole_bytes, 4096);
        assert!(zeroed(&path, 0) && !zeroed(&path, 1) && zeroed(&path, 2));
        assert_eq!(vs.reclaim.pending_punch_bytes(), 0);
    }

    /// Two committers, two batches in flight. The first decides to punch a
    /// dead table out of a file that still hosts live ones; before it gets
    /// to, the other thread's commit kills the rest, and that batch — decided
    /// later, executed first — unlinks the file. The late punch finds
    /// nothing to punch: that is not a failure to hand back and retry on
    /// every pass for ever.
    #[test]
    fn a_punch_that_loses_the_race_to_its_files_unlink_is_dropped() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let cache = test_cache(&env);
        let mut vs = new_set(&env);
        let kill = |vs: &mut VersionSet, dead: &[u64]| {
            let mut edit = VersionEdit::default();
            edit.deleted_tables.extend(dead.iter().map(|&id| (0, id)));
            vs.log_and_apply(edit).unwrap();
            vs.collect_garbage(&cache)
        };
        let (path, ids) = compaction_file(&env, &mut vs, 3);
        let first = kill(&mut vs, &ids[..1]);
        let second = kill(&mut vs, &ids[1..]);
        assert!(!first.is_empty() && !second.is_empty());
        // Each batch owns what it took: the ledger holds neither's work.
        assert_eq!(vs.reclaim.pending_punch_bytes(), 0);
        assert_eq!(vs.reclaim.pending_unlink_files(), 0);

        let failed = second.execute(env.as_ref(), "db");
        assert!(failed.is_empty() && !env.file_exists(&path));
        let failed = first.execute(env.as_ref(), "db");
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(env.stats().snapshot().holes_punched, 0);

        // The other order: the punch lands, then the file goes.
        let (path, ids) = compaction_file(&env, &mut vs, 3);
        let first = kill(&mut vs, &ids[..1]);
        let second = kill(&mut vs, &ids[1..]);
        assert!(first.execute(env.as_ref(), "db").is_empty());
        assert_eq!(env.stats().snapshot().holes_punched, 1);
        assert!(second.execute(env.as_ref(), "db").is_empty());
        assert!(!env.file_exists(&path));
    }

    /// The batch executor is the runtime half of "no per-object metadata
    /// call under an engine lock".
    #[cfg(feature = "debug_locks")]
    #[test]
    fn executing_a_batch_under_an_engine_lock_panics() {
        for lock in ["core.versions", "core.state"] {
            let env: Arc<dyn Env> = Arc::new(MemEnv::new());
            let cache = test_cache(&env);
            let mut vs = new_set(&env);
            let batch = vs.collect_garbage(&cache);
            let held = bolt_common::sync::named_mutex(lock, ());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = held.lock();
                let _ = batch.execute(env.as_ref(), "db");
            }));
            let message = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(message.contains(lock), "{message}");
        }
    }
}
