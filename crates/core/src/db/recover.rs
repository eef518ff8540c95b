//! WAL recovery at open: replay the surviving logs into memtables, flush
//! them, stage the cross-shard slices left to resolve, and start a fresh
//! log.
//!
//! Runs before either background thread exists, so it touches
//! [`super::DbState`] only to seed `logs` and `pending_txns` and to install
//! the first `wal`; its last commit installs the view the engine starts
//! serving from.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bolt_common::events::{BarrierCause, BarrierScope};
use bolt_common::{Error, Result};
use bolt_table::ikey::MAX_SEQUENCE_NUMBER;
use bolt_wal::LogReader;

use super::write::{new_wal_writer, PendingTxn};
use super::{DbInner, ReadView};
use crate::batch::WriteBatch;
use crate::compaction::OutputShape;
use crate::filename::log_file;
use crate::memtable::MemTable;
use crate::txn::{self, TxnWalRecord};
use crate::version::VersionEdit;

impl DbInner {
    /// Replay `logs`, the WALs the open's listing found, and seed
    /// `DbState::logs` with them. Logs at or above the version set's log
    /// floor are replayed in full; *older* logs — retained only because a
    /// pending cross-shard transaction pins them (see
    /// `DbInner::delete_obsolete_logs`) — are scanned for transaction
    /// records alone, since their batch records are already in SSTables.
    ///
    /// Transactions: a prepare stages its slice; an `Applied` marker in
    /// the replayed region commits the staged slice at the marker's
    /// recorded sequence (in a flushed-away region it just discards the
    /// stage — the data is in SSTables), and raises the applied-transaction
    /// floor; an `Aborted` record discards the stage. A slice with neither
    /// is never resolved here: it enters `pending_txns`, pinning the log
    /// its prepare was read from, for the coordinator to apply or forget —
    /// unless its id is at or below the floor. Slices apply here in id
    /// order, so such a slice was applied, and only its marker is gone: it
    /// sat in the unsynced tail of a log that outlived the flush that made
    /// the slice durable (another prepare pinned it, or its unlink failed).
    pub(super) fn recover_wals(&self, logs: Vec<u64>) -> Result<()> {
        let log_floor = self.versions.lock().log_number;
        let mut max_seq = { self.versions.lock().last_sequence };
        let mut applied_txn = self.versions.lock().applied_txn;
        let mut staged: HashMap<u64, PendingTxn> = HashMap::new();
        let mut aborted_in: Vec<u64> = Vec::new();
        let mut mem = Arc::new(MemTable::new());
        for &log in &logs {
            let replay = log >= log_floor;
            let file = self
                .env
                .new_random_access_file(&log_file(&self.name, log))?;
            let mut reader = LogReader::new(file);
            while let Some(record) = reader.read_record()? {
                if let Some(txn_record) = txn::decode(&record) {
                    match txn_record? {
                        TxnWalRecord::Prepare { marker, payload } => {
                            let pending = PendingTxn {
                                payload,
                                marker,
                                log_number: log,
                                applied_in: None,
                            };
                            staged.insert(marker.txn_id, pending);
                        }
                        TxnWalRecord::Applied { txn_id, base_seq } => {
                            applied_txn = applied_txn.max(txn_id);
                            match staged.remove(&txn_id) {
                                Some(PendingTxn { mut payload, .. }) => {
                                    if replay {
                                        let last = last_sequence(base_seq, payload.count())?;
                                        payload.set_sequence(base_seq);
                                        payload.apply_to(&mem)?;
                                        max_seq = max_seq.max(last);
                                    }
                                }
                                // Below the log floor a missing stash is
                                // benign: the slice is already durable in
                                // SSTables, and a crash (or ignored EIO)
                                // mid log-deletion can remove the prepare's
                                // older WAL while this marker's survives.
                                // Inside the replay region it means the
                                // slice's only copy is gone.
                                None if !replay => {}
                                None => {
                                    return Err(Error::Corruption(format!(
                                        "applied marker for transaction {txn_id} \
                                         without a prepare record in the \
                                         replayed region"
                                    )));
                                }
                            }
                        }
                        // With no stash the prepare's older log is gone:
                        // nothing is left to discard.
                        TxnWalRecord::Aborted { txn_id } => {
                            staged.remove(&txn_id);
                            if aborted_in.last() != Some(&log) {
                                aborted_in.push(log);
                            }
                        }
                    }
                } else if replay {
                    let batch = WriteBatch::decode(&record)?;
                    let last = last_sequence(batch.sequence(), batch.count())?;
                    batch.apply_to(&mem)?;
                    max_seq = max_seq.max(last);
                }
                if mem.approximate_memory_usage() >= self.opts.memtable_bytes {
                    self.last_sequence.store(max_seq, Ordering::Release);
                    self.flush_memtable(&mem, 0, max_seq, applied_txn)?;
                    mem = Arc::new(MemTable::new());
                }
            }
        }

        // An `Aborted` record read here may never have reached the device
        // (the open that wrote it failed at its sync). Its log is synced
        // before the engine takes a write: lost in a later crash, it would
        // stage the prepare again once a floor has passed its id.
        for log in aborted_in {
            let _scope = BarrierScope::new(&self.sink, BarrierCause::OpenManifest);
            (self.env.new_appendable_file(&log_file(&self.name, log))?).sync()?;
        }
        staged.retain(|&txn_id, _| txn_id > applied_txn);
        {
            let mut state = self.state.lock();
            state.logs = logs.into();
            state.pending_txns = staged;
            state.applied_txn = applied_txn;
        }
        self.last_sequence.store(max_seq, Ordering::Release);
        {
            let mut versions = self.versions.lock();
            versions.last_sequence = versions.last_sequence.max(max_seq);
        }
        if !mem.is_empty() {
            self.flush_memtable(&mem, 0, max_seq, applied_txn)?;
        }
        Ok(())
    }

    /// Start the WAL the engine opens with and commit its number through
    /// `commit` with no outputs: the view swap, then the first reclaim pass
    /// (what `VersionSet::recover` condemned) and, as a flush does, the
    /// retirement of the logs below the new floor.
    pub(super) fn start_fresh_wal(&self) -> Result<()> {
        let new_log = self.ids.new_file_number();
        let file = self.env.new_writable_file(&log_file(&self.name, new_log))?;
        {
            let mut state = self.state.lock();
            state.wal = Some(new_wal_writer(file, &self.sink));
            state.wal_number = new_log;
            state.logs.push_back(new_log);
        }
        // Persist the log floor so old WALs are not replayed twice.
        let recovered = self.last_sequence.load(Ordering::Acquire);
        let edit = VersionEdit {
            log_number: Some(new_log),
            last_sequence: Some(recovered),
            ..Default::default()
        };
        {
            let _scope = BarrierScope::new(&self.sink, BarrierCause::OpenManifest);
            // The view the engine opens with: everything recovered is in
            // `version`, so it is the write prefix at `recovered`.
            let install = |old: &ReadView, version| ReadView {
                version,
                flushed_seq: recovered,
                ..old.clone()
            };
            self.commit(edit, 0, OutputShape::Leveled, Vec::new(), None, install)?;
        }
        self.delete_obsolete_logs(new_log);
        Ok(())
    }
}

/// The last sequence a replayed record (or an applied slice) of `count`
/// entries stamped `first` takes. A record that passed its CRC can still
/// lie: an empty one, or one whose last sequence overflows or passes
/// [`MAX_SEQUENCE_NUMBER`] (a tag cannot hold it), is `Corruption` before
/// anything is applied.
pub(super) fn last_sequence(first: u64, count: u32) -> Result<u64> {
    (u64::from(count).checked_sub(1))
        .and_then(|n| first.checked_add(n))
        .filter(|&last| last <= MAX_SEQUENCE_NUMBER)
        .ok_or_else(|| {
            Error::Corruption(format!(
                "WAL record of {count} entries at sequence {first} does not fit the sequence space"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;
    use bolt_wal::LogWriter;

    #[test]
    fn recovery_restores_unflushed_writes() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.put(b"durable", b"yes").unwrap();
            db.close().unwrap();
        }
        // close() syncs the WAL, so a crash after close loses nothing.
        env.crash(bolt_env::CrashConfig::Clean);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        assert_eq!(db.get(b"durable").unwrap(), Some(b"yes".to_vec()));
        db.close().unwrap();
    }

    /// Everything recovered is flushed before the engine serves, so the
    /// opening view's version is the write prefix at the recovered sequence
    /// and says so. (A checkpoint racing the first post-open write pins
    /// this pair; a boundary of 0 would stamp its MANIFEST with a sequence
    /// below the entries its tables hold.)
    #[test]
    fn opening_view_is_the_write_prefix_at_the_recovered_sequence() {
        let env = Arc::new(MemEnv::new());
        for round in 1..=2u64 {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            let view = db.inner.view();
            assert!(view.imm.is_none() && view.mem.is_empty());
            assert_eq!(view.flushed_seq, 3 * (round - 1));
            assert_eq!(view.version.num_tables() as u64, round - 1);
            assert!(Arc::ptr_eq(
                &view.version,
                &db.inner.versions.lock().current()
            ));
            for i in 0..3u64 {
                db.put(format!("k{round}{i}").as_bytes(), b"v").unwrap();
            }
            db.close().unwrap();
        }
    }

    #[test]
    fn recovery_after_flush_and_more_writes() {
        let env = Arc::new(MemEnv::new());
        let opts = small_opts(Options::bolt());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
            for i in 0..500u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'a'; 100])
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 500..600u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'b'; 100])
                    .unwrap();
            }
            db.close().unwrap();
        }
        env.crash(bolt_env::CrashConfig::Clean);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        assert_eq!(db.get(b"key00001").unwrap(), Some(vec![b'a'; 100]));
        assert_eq!(db.get(b"key00550").unwrap(), Some(vec![b'b'; 100]));
        db.close().unwrap();
    }

    #[test]
    fn recovery_stages_markerless_prepares_for_the_coordinator() {
        let env = Arc::new(MemEnv::new());
        let open = || Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        {
            let db = open();
            db.put(b"base", b"1").unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 7,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"committed", b"yes")]),
            )
            .unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 8,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"undecided", b"no")]),
            )
            .unwrap();
            db.close().unwrap();
        }
        // Recovery resolves neither slice; the allocator seed covers both
        // ids. Resolve them as the coordinator does when only txn 7
        // committed: apply it, forget 8, flush.
        let db = open();
        assert_eq!(staged_ids(&db), vec![7, 8]);
        assert_eq!(db.get(b"committed").unwrap(), None);
        db.txn_apply(7).unwrap();
        db.txn_forget(8).unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"base").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get(b"undecided").unwrap(), None);
        db.close().unwrap();
        // A second recovery must be stable: txn 7 was flushed by the first
        // resolution (I4 idempotency), txn 8 stays gone.
        let db = open();
        assert!(db.staged_txns().is_empty());
        assert_eq!(db.get(b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get(b"undecided").unwrap(), None);
        db.close().unwrap();
    }

    /// A shard opened alone, and closed, keeps its unresolved prepare and
    /// the WAL holding it: the open after it still finds the slice.
    #[test]
    fn an_unresolved_prepare_survives_opens_that_do_not_resolve_it() {
        let env = Arc::new(MemEnv::new());
        let open = || Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        let db = open();
        let marker = ShardTxnMarker {
            txn_id: 3,
            shard_bitmap: 0b11,
        };
        db.txn_prepare(marker, txn_slice(&[(b"k", b"v")])).unwrap();
        db.close().unwrap();
        for _ in 0..2 {
            let db = open();
            assert_eq!(staged_ids(&db), vec![3]);
            db.put(b"other", b"x").unwrap();
            db.flush().unwrap();
            db.close().unwrap();
        }
        let db = open();
        db.txn_apply(3).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn recovery_replays_applied_txn_at_its_marker_sequence() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.put(b"k", b"before").unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 3,
                    shard_bitmap: 0b1,
                },
                txn_slice(&[(b"k", b"txn")]),
            )
            .unwrap();
            db.txn_apply(3).unwrap();
            // A later write at a higher sequence must win after recovery —
            // this is exactly what the marker's recorded base_seq protects.
            db.put(b"k", b"after").unwrap();
            db.close().unwrap();
        }
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"after".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn markerless_slices_apply_in_the_order_the_coordinator_gives() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 9,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"k", b"decided-first")]),
            )
            .unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 4,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"k", b"decided-second")]),
            )
            .unwrap();
            db.close().unwrap();
        }
        // Both applied markers were lost with the crash. A shard applies
        // its staged slices in the order it is given, whatever their ids
        // (the coordinator gives id order): here 9 first, so the later
        // apply wins even though its txn id is smaller.
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        assert_eq!(staged_ids(&db), vec![4, 9]);
        for txn_id in [9, 4] {
            db.txn_apply(txn_id).unwrap();
        }
        assert_eq!(db.get(b"k").unwrap(), Some(b"decided-second".to_vec()));
        db.close().unwrap();
    }

    /// The flush of the memtable a slice was applied into commits the
    /// applied-transaction floor: it outlives the WAL holding the marker,
    /// and a prepare at or below it never stages again.
    #[test]
    fn a_flush_commits_the_applied_txn_floor() {
        let env = Arc::new(MemEnv::new());
        let open = || Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        let db = open();
        assert_eq!(db.applied_txn_floor(), 0);
        for txn_id in [3, 5] {
            let marker = ShardTxnMarker {
                txn_id,
                shard_bitmap: 0b11,
            };
            db.txn_prepare(marker, txn_slice(&[(b"k", b"v")])).unwrap();
            db.txn_apply(txn_id).unwrap();
        }
        assert_eq!(db.applied_txn_floor(), 5);
        db.flush().unwrap();
        db.close().unwrap();
        // Forge what a failed unlink and a crash leave: a prepare of txn 4
        // whose marker was in the log's lost, unsynced tail.
        let mut w = LogWriter::new(env.new_writable_file(&log_file("db", 0)).unwrap());
        let stale = ShardTxnMarker {
            txn_id: 4,
            shard_bitmap: 0b11,
        };
        w.add_record(&txn::encode_prepare(
            &stale,
            &txn_slice(&[(b"k", b"stale")]),
        ))
        .unwrap();
        w.sync().unwrap();
        drop(w);
        let db = open();
        assert_eq!(db.applied_txn_floor(), 5);
        assert!(db.staged_txns().is_empty());
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn orphan_applied_marker_below_the_floor_is_tolerated() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.put(b"k", b"v").unwrap();
            db.close().unwrap();
        }
        // Forge the aftermath of a crash mid log-deletion: a WAL below the
        // log floor holding an applied marker whose (older) prepare log is
        // already gone. The slice is durable in SSTables, so this must
        // open cleanly, not fail as corruption.
        {
            let file = env.new_writable_file(&log_file("db", 0)).unwrap();
            let mut w = LogWriter::new(file);
            w.add_record(&txn::encode_applied(7, 5)).unwrap();
            w.sync().unwrap();
        }
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        // The orphan marker still raises the floor, which seeds the
        // coordinator's id allocator.
        assert_eq!(db.applied_txn_floor(), 7);
        db.close().unwrap();
    }

    /// Open a closed database after forging a CRC-valid `000999.log` that
    /// holds `records`, and apply the staged slices `committed` as the
    /// coordinator would.
    fn open_after_forged_log(records: &[Vec<u8>], committed: &[u64]) -> Error {
        let env = Arc::new(MemEnv::new());
        let open = || Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb());
        open().unwrap().close().unwrap();
        let mut w = LogWriter::new(env.new_writable_file(&log_file("db", 999)).unwrap());
        for record in records {
            w.add_record(record).unwrap();
        }
        w.sync().unwrap();
        let resolve = |db: Db| committed.iter().try_for_each(|&id| db.txn_apply(id));
        match open().and_then(resolve) {
            Ok(()) => panic!("the forged log must not open and resolve"),
            Err(err) => err,
        }
    }

    /// A batch record of one put per key, stamped `seq`.
    fn batch_at(seq: u64, keys: &[&[u8]]) -> Vec<u8> {
        let mut batch = WriteBatch::new();
        for key in keys {
            batch.put(key, b"v");
        }
        batch.set_sequence(seq);
        batch.encode()
    }

    #[test]
    fn an_empty_batch_record_is_corruption() {
        let err = open_after_forged_log(&[batch_at(0, &[])], &[]);
        assert!(matches!(err, Error::Corruption(_)), "{err:?}");
    }

    #[test]
    fn a_batch_whose_last_sequence_overflows_is_corruption() {
        let err = open_after_forged_log(&[batch_at(u64::MAX, &[b"a", b"b"])], &[]);
        assert!(matches!(err, Error::Corruption(_)), "{err:?}");
    }

    /// `1 << 60` is past what a tag holds: `pack_tag` would assert.
    #[test]
    fn a_batch_past_the_max_sequence_is_corruption() {
        let err = open_after_forged_log(&[batch_at(1 << 60, &[b"a"])], &[]);
        assert!(matches!(err, Error::Corruption(_)), "{err:?}");
    }

    /// The log takes the last sequence a tag holds, so the decided slice
    /// the coordinator applies at its end has none left.
    #[test]
    fn a_decided_slice_past_the_max_sequence_at_the_end_of_the_log_is_corruption() {
        let marker = ShardTxnMarker {
            txn_id: 5,
            shard_bitmap: 0b11,
        };
        let prepare = txn::encode_prepare(&marker, &txn_slice(&[(b"k", b"v")]));
        let full = batch_at(MAX_SEQUENCE_NUMBER, &[b"a"]);
        let err = open_after_forged_log(&[full, prepare], &[5]);
        assert!(matches!(err, Error::Corruption(_)), "{err:?}");
    }

    /// Every damaged copy of a prepare record whose slice holds a put, a
    /// delete, a value pointer and a range tombstone, of an applied marker,
    /// of an abort record, and of that slice as a plain batch record,
    /// decodes, passes recovery's sequence check and applies to a memtable,
    /// or is `Corruption`: never a panic.
    #[test]
    fn every_damaged_wal_record_is_ok_or_corruption() {
        let mut slice = WriteBatch::new();
        slice.put(b"key", b"value");
        slice.delete(b"gone");
        let pointer = crate::vlog::ValuePointer {
            file_number: 12,
            offset: 4096,
            len: 300,
            crc: 0xDEAD_BEEF,
        };
        slice.put_pointer(b"big", &pointer.encode());
        slice.delete_range(b"a", b"m");
        slice.set_sequence(42);
        let marker = ShardTxnMarker {
            txn_id: 7,
            shard_bitmap: 0b11,
        };
        let replay = |record: &[u8]| -> Result<()> {
            let batch = match txn::decode(record).transpose()? {
                Some(TxnWalRecord::Prepare { payload, .. }) => payload,
                Some(_) => return Ok(()),
                None => WriteBatch::decode(record)?,
            };
            last_sequence(batch.sequence(), batch.count())?;
            batch.apply_to(&MemTable::new())
        };
        let records = [
            txn::encode_prepare(&marker, &slice),
            txn::encode_applied(7, 42),
            txn::encode_aborted(7),
            slice.encode(),
        ];
        for good in records {
            replay(&good).unwrap();
            for (case, data) in crate::damage::damaged(&good).enumerate() {
                if let Err(err) = replay(&data) {
                    assert!(matches!(err, Error::Corruption(_)), "{case}: {err:?}");
                }
            }
        }
    }

    #[test]
    fn separated_values_survive_crash_recovery() {
        let env = Arc::new(MemEnv::new());
        let opts = sep_opts(128);
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
            for i in 0..8u32 {
                db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
            }
            db.flush().unwrap();
            // Unflushed separated writes must also survive: V1 barriers the
            // segment before the WAL record carrying the pointers.
            for i in 8..16u32 {
                db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
            }
            db.close().unwrap();
        }
        env.crash(bolt_env::CrashConfig::Clean);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        for i in 0..16u32 {
            assert_eq!(
                db.get(format!("big{i:03}").as_bytes()).unwrap(),
                Some(big(i)),
                "big{i:03} lost or corrupted across recovery"
            );
        }
        // New separated writes after recovery use a fresh segment whose
        // number cannot collide with recovered ones.
        db.put(b"post-crash", &big(0)).unwrap();
        assert_eq!(db.get(b"post-crash").unwrap(), Some(big(0)));
        db.close().unwrap();
    }
}
