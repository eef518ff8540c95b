//! The coordinator's decide log (`TXNLOG`).
//!
//! One append-only log in the `ShardedDb` root directory holds a
//! [`TxnWalRecord::Decide`] record for every cross-shard transaction that
//! reached its commit point. The synced append of that record *is* the
//! commit point: before it, a crash aborts the transaction on every shard
//! (the open forgets prepares with no decision); after it, the open
//! applies the staged slices on every shard. The log is read once at open
//! and re-cut to empty once the open has applied and flushed — every
//! decided transaction is then durable inside the shards themselves, so
//! old decisions carry no information (a shard that already flushed a
//! slice stages no prepare for it).

use std::sync::Arc;

use bolt_common::events::{BarrierCause, BarrierScope, EventSink};
use bolt_common::{Error, Result};
use bolt_core::txn::{self, TxnWalRecord};
use bolt_core::ShardTxnMarker;
use bolt_env::Env;
use bolt_wal::{LogReader, LogWriter};

/// Append handle over the coordinator log.
pub struct TxnLog {
    writer: LogWriter,
}

impl std::fmt::Debug for TxnLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnLog").finish()
    }
}

impl TxnLog {
    /// Read the committed transaction ids — **in decide order** — and the
    /// highest id seen from `path`. Record order *is* decide order: the
    /// coordinator mutex serializes appends, so the file preserves the
    /// order commit points were reached in, which is the order the open
    /// applies markerless decided slices in (ids are allocated before
    /// decides serialize, so id order can disagree). A missing
    /// file is an empty log; a torn tail is a clean end (the transaction
    /// whose decide tore never committed).
    ///
    /// # Errors
    ///
    /// Returns I/O errors and [`Error::Corruption`] for records that are
    /// not decide records.
    pub fn read(env: &Arc<dyn Env>, path: &str) -> Result<(Vec<u64>, u64)> {
        let mut committed = Vec::new();
        let mut max_id = 0u64;
        if !env.file_exists(path) {
            return Ok((committed, max_id));
        }
        let mut reader = LogReader::new(env.new_random_access_file(path)?);
        while let Some(record) = reader.read_record()? {
            match txn::decode(&record) {
                Some(Ok(TxnWalRecord::Decide { marker })) => {
                    max_id = max_id.max(marker.txn_id);
                    committed.push(marker.txn_id);
                }
                Some(Err(e)) => return Err(e),
                _ => {
                    return Err(Error::Corruption(
                        "non-decide record in the coordinator log".into(),
                    ))
                }
            }
        }
        Ok((committed, max_id))
    }

    /// Re-cut `path` to an empty log (temp file + atomic rename) and open
    /// it for appending. Call only after the staged slices are resolved
    /// and flushed: the old decisions are then redundant with the shards.
    ///
    /// The log's barriers are paid on behalf of the engine whose env holds
    /// it, and land in that engine's `sink`: the re-cut as `open_manifest`,
    /// every decide as `wal_commit`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the environment.
    pub fn create(env: &Arc<dyn Env>, path: &str, sink: &Arc<EventSink>) -> Result<TxnLog> {
        let _scope = BarrierScope::new(sink, BarrierCause::OpenManifest);
        let tmp = format!("{path}.tmp");
        let mut file = env.new_writable_file(&tmp)?;
        file.sync()?;
        drop(file);
        env.rename_file(&tmp, path)?;
        let mut writer = LogWriter::new(env.new_appendable_file(path)?);
        writer.set_default_scope(sink, BarrierCause::WalCommit);
        Ok(TxnLog { writer })
    }

    /// Append and sync the decide record for `marker` — the transaction's
    /// commit point.
    ///
    /// # Errors
    ///
    /// Returns I/O errors. On error the decision is *ambiguous* (the
    /// record may or may not have reached storage); the caller must
    /// surface the error and leave resolution to recovery, which reads
    /// whatever the log actually holds.
    pub fn decide(&mut self, marker: &ShardTxnMarker) -> Result<()> {
        let record = txn::encode_decide(marker);
        self.writer.add_record(&record)?;
        self.writer.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_env::MemEnv;

    #[test]
    fn decide_read_recut_roundtrip() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        // Missing file reads as empty.
        assert_eq!(TxnLog::read(&env, "TXNLOG").unwrap(), (Vec::new(), 0));

        let sink = Arc::new(EventSink::new());
        let mut log = TxnLog::create(&env, "TXNLOG", &sink).unwrap();
        for id in [3u64, 9, 5] {
            log.decide(&ShardTxnMarker {
                txn_id: id,
                shard_bitmap: 0b11,
            })
            .unwrap();
        }
        drop(log);
        // Every barrier the log paid is in the sink it was scoped to.
        assert_eq!(sink.barrier_count(BarrierCause::OpenManifest), 1);
        assert_eq!(sink.barrier_count(BarrierCause::WalCommit), 3);
        let io = env.stats().snapshot();
        assert_eq!(sink.total_barriers(), io.fsync_calls + io.ordering_barriers);
        let (committed, max_id) = TxnLog::read(&env, "TXNLOG").unwrap();
        // Decide order, not id order.
        assert_eq!(committed, vec![3u64, 9, 5]);
        assert_eq!(max_id, 9);

        // Re-cut empties the log.
        let _log = TxnLog::create(&env, "TXNLOG", &sink).unwrap();
        assert_eq!(TxnLog::read(&env, "TXNLOG").unwrap(), (Vec::new(), 0));
    }
}
