//! WAL recovery at open: replay the surviving logs into memtables, flush
//! them, resolve cross-shard transactions, and start a fresh log.
//!
//! Runs before either background thread exists, so it touches
//! [`super::DbState`] only to install the first `wal`; its last commit
//! installs the view the engine starts serving from.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bolt_common::{Error, Result};
use bolt_wal::LogReader;

use super::write::new_wal_writer;
use super::{Db, DbInner, ReadView};
use crate::batch::WriteBatch;
use crate::filename::{log_file, parse_file_name, FileType};
use crate::memtable::MemTable;
use crate::txn::{self, TxnWalRecord};
use crate::version::VersionEdit;

impl Db {
    /// Highest cross-shard transaction id seen in this shard's WALs during
    /// recovery (0 if none). The sharding layer seeds its allocator above
    /// the maximum across shards and the coordinator log.
    pub fn recovered_max_txn_id(&self) -> u64 {
        self.inner.recovered_max_txn.load(Ordering::Acquire)
    }
}

impl DbInner {
    /// Replay the WALs. Logs at or above the version set's log floor are
    /// replayed in full; *older* logs — retained only because a pending
    /// cross-shard transaction pins them (see
    /// [`super::DbState::min_pending_txn_log`]) — are scanned for transaction
    /// records alone, since their batch records are already in SSTables.
    ///
    /// Transaction resolution: a prepare stages its slice; an `Applied`
    /// marker in the replayed region commits the staged slice at the
    /// marker's recorded sequence (in a flushed-away region it just
    /// discards the stage — the data is in SSTables); a staged slice with
    /// no marker commits at the end of the log iff the coordinator decided
    /// it (`committed_txns`), and is dropped otherwise — on every shard
    /// alike, which is what makes a crash inside the 2PC window
    /// all-or-nothing.
    pub(super) fn recover_wals(&self) -> Result<()> {
        let log_floor = self.versions.lock().log_number;
        let mut logs: Vec<u64> = {
            let names = self.env.list_dir(&self.name)?;
            names
                .iter()
                .filter_map(|n| match parse_file_name(n) {
                    Some(FileType::Log(num)) => Some(num),
                    _ => None,
                })
                .collect()
        };
        logs.sort_unstable();

        let mut max_seq = { self.versions.lock().last_sequence };
        let mut max_txn = 0u64;
        let mut staged: HashMap<u64, WriteBatch> = HashMap::new();
        let mut mem = Arc::new(MemTable::new());
        for log in logs {
            let replay = log >= log_floor;
            let file = self
                .env
                .new_random_access_file(&log_file(&self.name, log))?;
            let mut reader = LogReader::new(file);
            while let Some(record) = reader.read_record()? {
                if let Some(txn_record) = txn::decode(&record) {
                    match txn_record? {
                        TxnWalRecord::Prepare { marker, payload } => {
                            max_txn = max_txn.max(marker.txn_id);
                            staged.insert(marker.txn_id, payload);
                        }
                        TxnWalRecord::Applied { txn_id, base_seq } => {
                            max_txn = max_txn.max(txn_id);
                            match staged.remove(&txn_id) {
                                Some(mut payload) => {
                                    if replay {
                                        payload.set_sequence(base_seq);
                                        payload.apply_to(&mem)?;
                                        max_seq =
                                            max_seq.max(base_seq + u64::from(payload.count()) - 1);
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
                        TxnWalRecord::Decide { .. } => {
                            return Err(Error::Corruption(
                                "coordinator decide record in a shard WAL".into(),
                            ));
                        }
                    }
                } else if replay {
                    let batch = WriteBatch::decode(&record)?;
                    batch.apply_to(&mem)?;
                    max_seq = max_seq.max(batch.sequence() + u64::from(batch.count()) - 1);
                }
                if mem.approximate_memory_usage() >= self.opts.memtable_bytes {
                    self.last_sequence.store(max_seq, Ordering::Release);
                    self.flush_memtable(&mem, 0, max_seq)?;
                    mem = Arc::new(MemTable::new());
                }
            }
        }

        // Staged slices whose applied marker never made it to the log:
        // commit the decided ones at the end (losing the unsynced marker
        // also loses every record after it, so the end of the surviving
        // log *is* the slice's position), drop the undecided ones. They
        // replay in the coordinator's decide order — ids are allocated
        // before the decide mutex serializes commit points, so txn-id
        // order can disagree with the order writers actually committed.
        let mut decided: Vec<(u64, u64)> = staged
            .keys()
            .filter_map(|id| self.committed_txns.get(id).map(|&ord| (ord, *id)))
            .collect();
        decided.sort_unstable();
        for (_, txn_id) in decided {
            // bolt-lint: allow(unwrap-in-crash-path) -- key drawn from `staged` above.
            let mut payload = staged.remove(&txn_id).expect("staged slice present");
            payload.set_sequence(max_seq + 1);
            max_seq += u64::from(payload.count());
            payload.apply_to(&mem)?;
        }

        self.recovered_max_txn.store(max_txn, Ordering::Release);
        self.last_sequence.store(max_seq, Ordering::Release);
        {
            let mut versions = self.versions.lock();
            versions.last_sequence = versions.last_sequence.max(max_seq);
        }
        if !mem.is_empty() {
            self.flush_memtable(&mem, 0, max_seq)?;
        }
        Ok(())
    }

    pub(super) fn start_fresh_wal(&self) -> Result<()> {
        let new_log = self.ids.new_file_number();
        let file = self.env.new_writable_file(&log_file(&self.name, new_log))?;
        {
            let mut state = self.state.lock();
            state.wal = Some(new_wal_writer(file));
            state.wal_number = new_log;
        }
        // Persist the log floor so old WALs are not replayed twice.
        let mut versions = self.versions.lock();
        let recovered = self.last_sequence.load(Ordering::Acquire);
        let edit = VersionEdit {
            log_number: Some(new_log),
            last_sequence: Some(recovered),
            ..Default::default()
        };
        let version = versions.log_and_apply(edit)?;
        // The view the engine opens with: everything recovered is in
        // `version`, so it is the write prefix at `recovered`.
        self.install_view(|old| ReadView {
            version,
            flushed_seq: recovered,
            ..old.clone()
        });
        Ok(())
    }
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
    fn recovery_commits_decided_prepare_and_drops_undecided() {
        let env = Arc::new(MemEnv::new());
        let open = |committed: &[u64]| {
            Db::open_with_committed_txns(
                Arc::clone(&env) as Arc<dyn Env>,
                "db",
                Options::leveldb(),
                committed.to_vec(),
            )
            .unwrap()
        };
        {
            let db = open(&[]);
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
        // Reopen knowing only txn 7 committed: its slice must appear, txn
        // 8's must not, and the allocator seed must cover both ids.
        let db = open(&[7]);
        assert_eq!(db.get(b"base").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get(b"undecided").unwrap(), None);
        assert_eq!(db.recovered_max_txn_id(), 8);
        db.close().unwrap();
        // A second recovery must be stable: txn 7 was flushed by the first
        // recovery (I4 idempotency), txn 8 stays gone.
        let db = open(&[7]);
        assert_eq!(db.get(b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get(b"undecided").unwrap(), None);
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
    fn markerless_decided_slices_replay_in_decide_order() {
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
        // The coordinator decided 9 *before* 4 and both applied markers
        // were lost with the crash. Recovery must replay in decide order:
        // the later decide wins even though its txn id is smaller.
        let db = Db::open_with_committed_txns(
            Arc::clone(&env) as Arc<dyn Env>,
            "db",
            Options::leveldb(),
            vec![9, 4],
        )
        .unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"decided-second".to_vec()));
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
        // The orphan marker still seeds the id allocator.
        assert_eq!(db.recovered_max_txn_id(), 7);
        db.close().unwrap();
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
