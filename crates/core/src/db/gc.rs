//! Garbage collection and checkpoints: everything that decides which files
//! may disappear, and the one operation that pins them in place.
//!
//! Owns no [`DbState`] field; it prunes `pending_txns` (the write group)
//! when a flush releases their WAL pins.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::{Error, Result};
use bolt_table::ikey::SequenceNumber;

use super::{Db, DbInner, DbState};
use crate::filename::{log_file, parse_file_name, table_file, vlog_file, FileType};
use crate::version::Version;
use crate::versions::{RangeSet, ReclaimBatch};

impl DbState {
    /// Oldest WAL file still referenced by a pending transaction.
    fn min_pending_txn_log(&self) -> Option<u64> {
        self.pending_txns.values().map(|t| t.log_number).min()
    }

    /// Drop applied entries whose slice is now durable in SSTables (the
    /// log floor passed their apply era), releasing their WAL pins.
    fn prune_applied_txns(&mut self, log_floor: u64) {
        self.pending_txns
            .retain(|_, t| t.applied_in.is_none_or(|era| era >= log_floor));
    }
}

impl Db {
    /// Write a consistent, openable copy of the database into `dir` while
    /// reads and writes continue, and return the sequence number the copy
    /// is exact at: the checkpoint's full scan equals this database's scan
    /// at that snapshot.
    ///
    /// The memtable is flushed first, then a `(version, sequence)` pair is
    /// pinned and every SSTable and value-log file the version references
    /// is **hard-linked** (copy fallback for envs without link support)
    /// into `dir` — no data bytes move on a link-capable filesystem. A
    /// snapshot-seeded MANIFEST is written, and CURRENT lands last via
    /// temp-file + atomic rename under a `checkpoint` barrier: a crash at
    /// any earlier point leaves a directory without CURRENT, which is
    /// ignorable garbage (invariant C1).
    ///
    /// While the checkpoint is in progress its pinned version gates
    /// garbage collection; afterwards the linked files are never
    /// hole-punched (the shared inode would corrupt the copy) — they are
    /// reclaimed by whole-file deletion only.
    ///
    /// # Errors
    ///
    /// Returns `InvalidArgument` for an empty target or the database's own
    /// directory, and I/O errors from the env; on error the partial
    /// directory is left for the caller (it has no CURRENT and cannot be
    /// mistaken for a database).
    pub fn checkpoint(&self, dir: &str) -> Result<SequenceNumber> {
        let inner = &self.inner;
        if dir.is_empty() || *dir == *inner.name {
            return Err(Error::InvalidArgument(format!(
                "checkpoint target `{dir}` must be a directory other than the database's own"
            )));
        }
        // Everything acknowledged before this call reaches SSTables here, so
        // the checkpoint needs no WAL.
        self.flush()?;

        // Pin a consistent (version, sequence) pair: a view with no `imm`.
        // Its version is exactly the write prefix at its flushed boundary
        // (an empty memtable, read under the state lock, tightens that to
        // `last_sequence`: everything acknowledged is flushed).
        let (version, seq, pin, vlog_ledger) = {
            let mut state = inner.state.lock();
            let view = inner.await_flush(&mut state)?;
            let seq = if view.mem.is_empty() {
                inner.last_sequence.load(Ordering::Acquire)
            } else {
                view.flushed_seq
            };
            let version = Arc::clone(&view.version);
            let mut versions = inner.versions.lock();
            // The pin also freezes the per-segment dead-range ledger: the
            // checkpoint MANIFEST must carry the ledger as of this instant,
            // not as of manifest-write time — a compaction committing in
            // between may add dead ranges covering pointers the pinned
            // version still references.
            let (pin, vlog_ledger) = versions.pin_checkpoint(&version);
            (version, seq, pin, vlog_ledger)
        };

        inner.sink.emit(EngineEvent::CheckpointBegin { id: pin });
        let result = inner.do_checkpoint(dir, &version, seq, &vlog_ledger);
        inner.versions.lock().unpin_checkpoint(pin);
        let (tables, files) = result?;
        inner.stats.record_checkpoint(1);
        inner.sink.emit(EngineEvent::CheckpointEnd {
            id: pin,
            tables,
            files,
        });
        Ok(seq)
    }
}

impl DbInner {
    /// The second half of the reclaim pass that follows every commit (O3):
    /// the caller decided `batch` under `core.versions` and released it; punch
    /// and unlink with no engine lock held. The lock is retaken only to hand
    /// back what failed.
    pub(super) fn reclaim(&self, batch: ReclaimBatch) {
        let failed = batch.execute(self.env.as_ref(), &self.name, Some(&self.sink));
        if !failed.is_empty() {
            self.versions.lock().reclaim.hand_back(failed);
        }
    }

    /// Clamp a log-deletion boundary by the pending-transaction pins:
    /// first release pins whose applied slice the floor now covers, then
    /// hold the boundary at the oldest WAL a live pin still references.
    fn clamp_log_boundary(&self, boundary: u64) -> u64 {
        let mut state = self.state.lock();
        state.prune_applied_txns(boundary);
        match state.min_pending_txn_log() {
            Some(pinned) => boundary.min(pinned),
            None => boundary,
        }
    }

    /// Delete the WAL files in `dead`, oldest first, stopping at the first
    /// failure — the surviving logs then always form a suffix of the log
    /// sequence. Recovery's transaction resolution depends on that: if a
    /// newer log (holding a transaction's `Applied` marker) could be
    /// deleted while an older one (holding its prepare) survived, the next
    /// open would find a decided, markerless prepare and re-apply it at
    /// end-of-log, resurrecting stale values over later committed writes.
    fn delete_logs_oldest_first(&self, mut dead: Vec<u64>) {
        dead.sort_unstable();
        for num in dead {
            if self.env.delete_file(&log_file(&self.name, num)).is_err() {
                return;
            }
        }
    }

    /// Materialize a pinned `(version, sequence)` pair into `dir`: link
    /// every referenced table and value-log file, then write the MANIFEST
    /// and CURRENT. Returns `(tables, files)` — logical tables in the
    /// snapshot and physical files placed in the directory.
    ///
    /// The caller holds a checkpoint pin for `version`, so none of the
    /// files named here can be deleted or hole-punched underneath us.
    fn do_checkpoint(
        &self,
        dir: &str,
        version: &Arc<Version>,
        seq: SequenceNumber,
        vlog_ledger: &[(u64, RangeSet)],
    ) -> Result<(u64, u64)> {
        let _scope = BarrierScope::new(BarrierCause::Checkpoint);
        self.env.create_dir_all(dir)?;

        // Tables: several logical tables may share one physical file (BoLT
        // shared compaction outputs), so link by unique file number.
        let mut tables = 0u64;
        let mut file_numbers: Vec<u64> = Vec::new();
        for (_, _, table) in version.all_tables() {
            tables += 1;
            file_numbers.push(table.file_number);
        }
        file_numbers.sort_unstable();
        file_numbers.dedup();
        for &file_number in &file_numbers {
            self.env.link_file(
                &table_file(&self.name, file_number),
                &table_file(dir, file_number),
            )?;
        }
        let mut files = file_numbers.len() as u64;

        // Value-log segments. The active segment may be mid-append: that is
        // fine, because pointers reachable from the pinned version only
        // reference bytes below its last synced barrier, and a hard link
        // shares exactly that durability state. A segment the ledger knows
        // but that was never written to yet has no file — skip it, and keep
        // its dead ranges out of the manifest (only segments actually placed
        // in `dir` may carry vlog_dead records there).
        let mut vlog_dead: Vec<(u64, u64, u64)> = Vec::new();
        for (segment, dead) in vlog_ledger {
            let src = vlog_file(&self.name, *segment);
            if !self.env.file_exists(&src) {
                continue;
            }
            self.env.link_file(&src, &vlog_file(dir, *segment))?;
            files += 1;
            vlog_dead.extend(dead.iter().map(|(offset, len)| (*segment, offset, len)));
        }

        // MANIFEST + CURRENT last: until CURRENT lands, the directory is
        // not a database and a crash leaves ignorable garbage.
        self.versions
            .lock()
            .write_checkpoint_manifest(dir, version, seq, vlog_dead)?;
        files += 2;
        Ok((tables, files))
    }

    pub(super) fn delete_obsolete_logs(&self, boundary: u64) {
        let boundary = self.clamp_log_boundary(boundary);
        if let Ok(names) = self.env.list_dir(&self.name) {
            let dead = names
                .iter()
                .filter_map(|n| match parse_file_name(n) {
                    Some(FileType::Log(num)) if num < boundary => Some(num),
                    _ => None,
                })
                .collect();
            self.delete_logs_oldest_first(dead);
        }
    }

    pub(super) fn delete_obsolete_files(&self) {
        let versions = self.versions.lock();
        let referenced = versions.reclaim.referenced_files();
        let log_floor = versions.log_number;
        let manifest = versions.manifest_number();
        // Segments in the ledger are live (or active). Condemned segments
        // awaiting deletion are not in the ledger, so this sweep reclaims
        // them too; the reclaim pass then finds the file gone and drops
        // its unlink entry.
        let vlog_live: HashSet<u64> = versions.vlog_segments().keys().copied().collect();
        drop(versions);
        let log_floor = self.clamp_log_boundary(log_floor);
        let Ok(names) = self.env.list_dir(&self.name) else {
            return;
        };
        let mut dead_logs = Vec::new();
        for name in names {
            let keep = match parse_file_name(&name) {
                Some(FileType::Table(num)) => referenced.contains(&num),
                Some(FileType::Log(num)) => {
                    if num < log_floor {
                        dead_logs.push(num);
                    }
                    true // deleted below, in the order recovery depends on
                }
                Some(FileType::Manifest(num)) => num == manifest,
                Some(FileType::ValueLog(num)) => vlog_live.contains(&num),
                Some(FileType::Current) => true,
                Some(FileType::Temp(_)) => false,
                None => true, // unknown files are left alone
            };
            if !keep {
                let _ = self
                    .env
                    .delete_file(&bolt_env::join_path(&self.name, &name));
            }
        }
        self.delete_logs_oldest_first(dead_logs);
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;

    #[test]
    fn pending_txn_pins_wal_across_rotation() {
        // Force memtable rotations while a prepare is pending: the prepare's
        // WAL file must survive obsolete-log deletion, so a reopen that
        // commits the transaction can still find the payload.
        let env = Arc::new(MemEnv::new());
        let mut opts = Options::leveldb();
        opts.memtable_bytes = 16 << 10;
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 11,
                    shard_bitmap: 0b1,
                },
                txn_slice(&[(b"pinned", b"alive")]),
            )
            .unwrap();
            for i in 0..200u32 {
                db.put(format!("fill{i:04}").as_bytes(), &[0u8; 512])
                    .unwrap();
            }
            db.flush().unwrap();
            db.close().unwrap();
        }
        let db =
            Db::open_with_committed_txns(Arc::clone(&env) as Arc<dyn Env>, "db", opts, vec![11u64])
                .unwrap();
        assert_eq!(db.get(b"pinned").unwrap(), Some(b"alive".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn log_deletion_stops_at_the_first_failure() {
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = Arc::new(FaultEnv::over_mem());
        let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
        let db = Db::open(Arc::clone(&env), "db", Options::leveldb()).unwrap();
        // Forge two dead WALs older than the live one.
        for num in [0u64, 1] {
            let mut file = env.new_writable_file(&log_file("db", num)).unwrap();
            file.sync().unwrap();
        }
        // Fail the first (oldest) delete: the deleter must stop rather
        // than skip ahead — deleting a newer log while an older one
        // survives is exactly the ordering recovery cannot tolerate.
        fault.set_plan(FaultPlan::parse("eio:delete:glob=*.log:nth=0").unwrap());
        let boundary = db.inner.state.lock().wal_number;
        db.inner.delete_obsolete_logs(boundary);
        assert_eq!(fault.faults_injected(), 1, "delete EIO never fired");
        assert!(env.file_exists(&log_file("db", 0)));
        assert!(
            env.file_exists(&log_file("db", 1)),
            "newer log deleted after an older delete failed"
        );
        // With the fault cleared the next sweep finishes the job.
        fault.set_plan(FaultPlan::new());
        db.inner.delete_obsolete_logs(boundary);
        assert!(!env.file_exists(&log_file("db", 0)));
        assert!(!env.file_exists(&log_file("db", 1)));
        db.close().unwrap();
    }

    type Rows = std::collections::BTreeMap<Vec<u8>, Vec<u8>>;

    fn scan(db: &Db, snapshot: Option<&crate::Snapshot>) -> Rows {
        let opts = crate::ReadOptions::new();
        let opts = match snapshot {
            Some(snapshot) => opts.with_snapshot(snapshot),
            None => opts,
        };
        let mut iter = db.iter_opt(&opts).unwrap();
        iter.seek_to_first().unwrap();
        let mut rows = Rows::new();
        while iter.valid() {
            rows.insert(iter.key().to_vec(), iter.value().to_vec());
            iter.next().unwrap();
        }
        rows
    }

    /// Overwrites of separated and inline values, a flush per round:
    /// compaction leaves dead tables in shared files and dead ranges in live
    /// segments.
    fn load(db: &Db, model: &mut Rows, rounds: std::ops::Range<u32>) {
        for round in rounds {
            for i in (0..48u32).filter(|i| (i + round) % 3 != 0) {
                let (key, small) = (format!("big{i:03}"), format!("small{i:03}"));
                db.put(key.as_bytes(), &big(i + round)).unwrap();
                db.put(small.as_bytes(), &[b'0' + round as u8; 40]).unwrap();
                model.insert(key.into_bytes(), big(i + round));
                model.insert(small.into_bytes(), vec![b'0' + round as u8; 40]);
            }
            db.flush().unwrap();
        }
    }

    /// Load `rounds`, compact everything under a reader that keeps the
    /// merged-away tables alive, and take the reclaim decision the commits
    /// could not: a batch, out of the ledger, not yet executed.
    fn undecided_garbage(
        db: &Db,
        model: &mut Rows,
        rounds: std::ops::Range<u32>,
    ) -> crate::versions::ReclaimBatch {
        load(db, model, rounds);
        let reader = db.iter().unwrap();
        db.compact_range(b"", b"zzzz").unwrap();
        drop(reader);
        let batch = (db.inner.versions.lock()).collect_garbage(&db.inner.table_cache);
        assert!(!batch.is_empty(), "nothing was left to reclaim");
        batch
    }

    /// The reclaim pass decides under `core.versions` and executes after it.
    /// A checkpoint that pins, links and commits inside that gap holds a
    /// version in which every batched byte is already unreferenced, so the
    /// late punches — which land on inodes the checkpoint now shares: this
    /// env cannot count links — remove nothing it reads. No hook: the test
    /// runs the two halves itself.
    #[test]
    fn a_checkpoint_between_reclaim_decision_and_execution_stays_intact() {
        let env = Arc::new(ReadFaultEnv::default());
        let opts = sep_opts(128);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
        let mut model = Rows::new();
        let batch = undecided_garbage(&db, &mut model, 0..4);
        let seq = db.checkpoint("ckpt").unwrap();
        let at_checkpoint = db.snapshot();
        assert_eq!(at_checkpoint.sequence(), seq);
        let before = env.stats().snapshot();
        let failed = batch.execute(env.as_ref(), "db", None);
        assert!(failed.is_empty(), "{failed:?}");
        let reclaimed = env.stats().snapshot().delta(&before);
        assert!(
            reclaimed.holes_punched > 0 && reclaimed.files_deleted > 0,
            "the batch neither punched nor unlinked: {reclaimed:?}"
        );

        // The source moves on; the checkpoint is the prefix at `seq`.
        let expected = model.clone();
        load(&db, &mut model, 4..6);
        db.compact_range(b"", b"zzzz").unwrap();
        assert_eq!(scan(&db, Some(&at_checkpoint)), expected);
        assert_eq!(scan(&db, None), model);
        let copy = Db::open(Arc::clone(&env) as Arc<dyn Env>, "ckpt", opts).unwrap();
        assert_eq!(scan(&copy, None), expected);
        copy.close().unwrap();
        drop(at_checkpoint);
        db.close().unwrap();
    }

    /// The same gap with two committers: the flush thread and the compaction
    /// thread each decide a batch, so two are in flight at once — here one
    /// decided before four more rounds of flushes and compactions (whose own
    /// passes run on the engine's threads meanwhile) and one after — and a
    /// checkpoint lands between the decisions and both executions. Each batch
    /// owns what it took; they execute newest first, the order a batch
    /// overtaken by the other thread's meets; what fails goes back from both.
    #[test]
    fn a_checkpoint_between_two_reclaim_batches_stays_intact() {
        let env = Arc::new(ReadFaultEnv::default());
        let opts = sep_opts(128);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
        let mut model = Rows::new();
        let first = undecided_garbage(&db, &mut model, 0..4);
        let second = undecided_garbage(&db, &mut model, 4..8);
        let seq = db.checkpoint("ckpt").unwrap();
        let at_checkpoint = db.snapshot();
        assert_eq!(at_checkpoint.sequence(), seq);
        for batch in [second, first] {
            let failed = batch.execute(env.as_ref(), "db", None);
            db.inner.versions.lock().reclaim.hand_back(failed);
        }

        let expected = model.clone();
        load(&db, &mut model, 8..10);
        db.compact_range(b"", b"zzzz").unwrap();
        assert_eq!(scan(&db, Some(&at_checkpoint)), expected);
        assert_eq!(scan(&db, None), model);
        let copy = Db::open(Arc::clone(&env) as Arc<dyn Env>, "ckpt", opts).unwrap();
        assert_eq!(scan(&copy, None), expected);
        copy.close().unwrap();
        drop(at_checkpoint);
        db.close().unwrap();
    }
}
