//! # bolt-sharded
//!
//! Range/hash-partitioned layering over independent BoLT engines: a
//! [`ShardedDb`] runs N [`Db`] instances (each with its own WAL, memtable,
//! and version set, in its own subdirectory — and, when opened with
//! [`ShardedDb::open_with_envs`], its own device), so N group-commit
//! leaders commit concurrently and write throughput scales with shards
//! instead of flatlining behind one engine mutex.
//!
//! Single-key operations route directly to their shard
//! ([`router::Router`]). A [`WriteBatch`] spanning shards commits
//! atomically through a lightweight two-phase protocol built on
//! `bolt-core`'s transaction WAL records (`bolt_core::txn`): synced
//! per-shard *prepare* records, one synced *decide* record in the
//! coordinator's `TXNLOG` (the commit point), then per-shard applies with
//! unsynced position markers. A crash anywhere in that window recovers
//! all-or-nothing on every shard (DESIGN.md §12).
//!
//! ```
//! use bolt_core::{Options, WriteBatch};
//! use bolt_env::MemEnv;
//! use bolt_sharded::{Router, ShardedDb};
//! use std::sync::Arc;
//!
//! # fn main() -> bolt_common::Result<()> {
//! let env: Arc<dyn bolt_env::Env> = Arc::new(MemEnv::new());
//! let db = ShardedDb::open(env, "demo", Options::bolt(), Router::hash(4)?)?;
//! db.put(b"user1", b"a")?;
//! let mut batch = WriteBatch::new();
//! batch.put(b"user2", b"b"); // lands on a different shard than user3
//! batch.put(b"user3", b"c"); // ...yet both commit atomically
//! db.write_batch(batch)?;
//! assert_eq!(db.get(b"user2")?, Some(b"b".to_vec()));
//! db.close()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

#[cfg(test)]
#[path = "../../common/src/damage.rs"]
mod damage;
pub mod iter;
pub mod metrics;
pub mod router;
pub mod txnlog;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bolt_common::sync::{named_mutex, Mutex};
use bolt_common::{Error, Result};
use bolt_core::{Db, Options, ReadOptions, ShardTxnMarker, Snapshot, TraceEvent, WriteBatch};
use bolt_env::{join_path, Env};
use bolt_table::ikey::ValueType;
use bolt_ycsb::KvTarget;

pub use iter::ShardedIterator;
pub use metrics::ShardedMetrics;
pub use router::Router;

use txnlog::TxnLog;

/// N independent BoLT engines behind one key-value surface.
pub struct ShardedDb {
    name: String,
    router: Router,
    shards: Vec<Arc<Db>>,
    /// `env_owner[i]` is `true` when shard `i` is the first shard running
    /// on its [`Env`]. Shards sharing an environment see the *same* global
    /// I/O counters, so aggregation counts each distinct env exactly once
    /// — whatever mix of shared and private envs was supplied.
    env_owner: Vec<bool>,
    /// The coordinator's decide log. Its mutex is held across each
    /// decide and the participants' applies, so slices apply in decide
    /// order, and by every consistent-cut capture (snapshots, merged
    /// iterators), so no cut observes half an atomic batch.
    txnlog: Mutex<TxnLog>,
    next_txn_id: AtomicU64,
    /// Id of a transaction whose decide record failed to sync (0 = none).
    /// Its outcome is unknown until the next open reads the log, and a
    /// decided slice is then applied *above* everything this incarnation
    /// wrote — so no later write may be acknowledged over it.
    ambiguous_txn: AtomicU64,
}

impl std::fmt::Debug for ShardedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDb")
            .field("name", &self.name)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// A consistent cross-shard read view: one engine snapshot per shard,
/// captured under the coordinator lock so no cross-shard batch is half
/// visible.
pub struct ShardedSnapshot {
    snaps: Vec<Snapshot>,
}

impl ShardedDb {
    /// Open (or create) a sharded database on one environment. Shard `i`
    /// lives in `<name>/shard-i`; the `SHARDS` file pins the router and
    /// `TXNLOG` holds cross-shard commit decisions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `router` disagrees with the
    /// persisted `SHARDS` file, plus engine open/recovery errors.
    pub fn open(env: Arc<dyn Env>, name: &str, opts: Options, router: Router) -> Result<ShardedDb> {
        let envs = vec![env; router.shards()];
        ShardedDb::open_with_envs(envs, name, opts, router)
    }

    /// Open with one environment per shard — each shard then owns an
    /// independent simulated (or real) device, which is what lets write
    /// bandwidth scale with the shard count. `envs[0]` additionally holds
    /// the `SHARDS` and `TXNLOG` metadata files.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `envs.len()` differs from
    /// the router's shard count or the router disagrees with the
    /// persisted `SHARDS` file, plus engine open/recovery errors.
    pub fn open_with_envs(
        envs: Vec<Arc<dyn Env>>,
        name: &str,
        opts: Options,
        router: Router,
    ) -> Result<ShardedDb> {
        let n = router.shards();
        if envs.len() != n {
            return Err(Error::InvalidArgument(format!(
                "router wants {n} shards but {} envs were supplied",
                envs.len()
            )));
        }
        let meta_env = Arc::clone(&envs[0]);
        meta_env.create_dir_all(name)?;

        // Pin or validate the router. A database must reopen with the
        // partitioning it was created with — otherwise keys written before
        // the restart would route to the wrong shard and vanish.
        if let Some(persisted) = Router::load(meta_env.as_ref(), name)? {
            if persisted != router {
                return Err(Error::InvalidArgument(format!(
                    "router mismatch: database was created with {persisted:?}, \
                     open requested {router:?}"
                )));
            }
        } else {
            // Paid before any shard exists: its barrier is no shard's.
            let shards_path = router::shards_file(name);
            let tmp = format!("{shards_path}.tmp");
            let mut file = meta_env.new_writable_file(&tmp)?;
            file.append(router.encode().as_bytes())?;
            file.sync()?;
            drop(file);
            meta_env.rename_file(&tmp, &shards_path)?;
        }

        let mut shards = Vec::with_capacity(n);
        for (i, env) in envs.iter().enumerate() {
            let dir = join_path(name, &format!("shard-{i}"));
            shards.push(Arc::new(Db::open(Arc::clone(env), &dir, opts.clone())?));
        }
        let max_recovered = shards
            .iter()
            .map(|s| s.recovered_max_txn_id())
            .max()
            .unwrap_or(0);

        // Resolve what the shards left staged (their recovery never does):
        // decided slices apply in decide order, the rest are forgotten, and
        // a shard that applied flushes before the log is re-cut. A crash
        // before the re-cut re-reads the log; a flushed slice is not staged.
        let txnlog_path = join_path(name, "TXNLOG");
        let (decided, max_logged) = TxnLog::read(&meta_env, &txnlog_path)?;
        for shard in &shards {
            let staged = shard.staged_txns();
            let mut applied = false;
            for &txn_id in decided.iter().filter(|id| staged.contains(id)) {
                // bolt-lint: allow(decide-before-apply) -- the decision is read from the durable TXNLOG.
                shard.txn_apply(txn_id)?;
                applied = true;
            }
            for &txn_id in staged.iter().filter(|id| !decided.contains(id)) {
                shard.txn_forget(txn_id);
            }
            if applied {
                shard.flush()?;
            }
        }
        // The log lives on shard 0's env, so shard 0 pays for its barriers.
        let txnlog = TxnLog::create(&meta_env, &txnlog_path, shards[0].event_sink())?;

        let env_owner: Vec<bool> = envs
            .iter()
            .enumerate()
            .map(|(i, e)| !envs[..i].iter().any(|earlier| Arc::ptr_eq(earlier, e)))
            .collect();
        Ok(ShardedDb {
            name: name.to_string(),
            router,
            shards,
            env_owner,
            txnlog: named_mutex("sharded.txnlog", txnlog),
            next_txn_id: AtomicU64::new(max_logged.max(max_recovered) + 1),
            ambiguous_txn: AtomicU64::new(0),
        })
    }

    /// Refuse writes once a decide record's fate is unknown (see
    /// [`ShardedDb::write_batch`]).
    fn check_writable(&self) -> Result<()> {
        match self.ambiguous_txn.load(Ordering::SeqCst) {
            0 => Ok(()),
            id => Err(Error::InvalidState(format!(
                "cross-shard transaction {id} has an unresolved commit decision; \
                 reopen the database to resolve it"
            ))),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct handle to shard `i` (for tooling and tests).
    pub fn shard(&self, i: usize) -> &Arc<Db> {
        &self.shards[i]
    }

    /// The router in effect.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Database root path.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert or overwrite one key (routes to its shard; per-shard group
    /// commit applies).
    ///
    /// # Errors
    ///
    /// Propagates the shard's write errors.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_writable()?;
        self.shards[self.router.route(key)].put(key, value)
    }

    /// Delete one key.
    ///
    /// # Errors
    ///
    /// Propagates the shard's write errors.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.check_writable()?;
        self.shards[self.router.route(key)].delete(key)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Propagates the shard's read errors.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.shards[self.router.route(key)].get(key)
    }

    /// Delete every key in `[begin, end)` across all shards, atomically.
    ///
    /// The tombstone is clipped to each owning shard's keyspace and fanned
    /// out through [`ShardedDb::write_batch`], so a span touching several
    /// shards commits via the 2PC path: either every shard applies its
    /// clipped tombstone or (before the decide record) none does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `begin >= end`; otherwise
    /// propagates shard write and coordinator-log errors.
    pub fn delete_range(&self, begin: &[u8], end: &[u8]) -> Result<()> {
        if begin >= end {
            return Err(Error::InvalidArgument(
                "delete_range requires begin < end".into(),
            ));
        }
        let mut batch = WriteBatch::new();
        batch.delete_range(begin, end);
        self.write_batch(batch)
    }

    /// Split one ranged tombstone into per-shard slices, clipped to each
    /// shard's ownership interval (hash shards own the whole keyspace, so
    /// every shard receives the full span).
    fn fan_range_delete(&self, begin: &[u8], end: &[u8], slices: &mut [WriteBatch]) {
        let (first, last) = self.router.route_span(begin, end);
        for (i, slice) in slices.iter_mut().enumerate().take(last + 1).skip(first) {
            let (lo, hi) = self.router.shard_bounds(i);
            let b = lo.map_or(begin, |lo| begin.max(lo));
            let e = hi.map_or(end, |hi| end.min(hi));
            if b < e {
                slice.delete_range(b, e);
            }
        }
    }

    /// Apply `batch` atomically across shards.
    ///
    /// A batch touching one shard commits through that shard's ordinary
    /// group-commit path. A batch spanning shards runs the 2PC protocol:
    /// synced prepares on every participant, one synced decide record in
    /// `TXNLOG` (the commit point), then applies under the coordinator
    /// lock, in decide order. Prepare errors abort cleanly. After an error
    /// from the decide sync the outcome is *ambiguous* until the next
    /// open, which resolves it from whatever the log actually holds — by
    /// applying the slice, if decided, above everything written since.
    /// Every later write is therefore refused with [`Error::InvalidState`]
    /// until the database is reopened. An apply error is reported but the
    /// batch is nonetheless *committed*: every other participant
    /// is still applied, and a shard whose apply failed keeps the slice
    /// staged (invisible to its readers) until the next open commits it
    /// from the durable decide.
    ///
    /// # Errors
    ///
    /// Propagates shard write errors and coordinator-log I/O errors.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<()> {
        self.check_writable()?;
        let n = self.shards.len();
        let mut slices: Vec<WriteBatch> = (0..n).map(|_| WriteBatch::new()).collect();
        batch.for_each(|vt, key, value| {
            if vt == ValueType::RangeTombstone {
                // key = begin, value = exclusive end; spans fan out to every
                // owning shard, clipped to its keyspace.
                self.fan_range_delete(key, value, &mut slices);
                return;
            }
            let s = self.router.route(key);
            match vt {
                ValueType::Value => slices[s].put(key, value),
                ValueType::Deletion => slices[s].delete(key),
                // User batches never carry pointers (separation happens
                // inside each shard's write path), but preserve them if a
                // pre-encoded batch is replayed through here.
                ValueType::ValuePointer => slices[s].put_pointer(key, value),
                ValueType::RangeTombstone => unreachable!("handled above"),
            }
        })?;
        let participants: Vec<usize> = (0..n).filter(|&i| !slices[i].is_empty()).collect();
        match participants.as_slice() {
            [] => Ok(()),
            &[only] => {
                let slice = std::mem::replace(&mut slices[only], WriteBatch::new());
                self.shards[only].write(slice)
            }
            _ => self.commit_cross_shard(&participants, slices),
        }
    }

    fn commit_cross_shard(
        &self,
        participants: &[usize],
        mut slices: Vec<WriteBatch>,
    ) -> Result<()> {
        let txn_id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
        let shard_bitmap = participants.iter().fold(0u64, |b, &i| b | (1 << i));
        let marker = ShardTxnMarker {
            txn_id,
            shard_bitmap,
        };

        // Phase 1: stage a synced prepare on every participant. A failure
        // here aborts cleanly — nothing was applied, and the next open
        // forgets undecided prepares on every shard alike.
        let abort = |staged: &[usize]| {
            for &i in staged {
                self.shards[i].txn_forget(txn_id);
            }
        };
        for (done, &i) in participants.iter().enumerate() {
            let slice = std::mem::replace(&mut slices[i], WriteBatch::new());
            if let Err(e) = self.shards[i].txn_prepare(marker, slice) {
                abort(&participants[..done]);
                return Err(e);
            }
        }

        // Commit point: the synced decide record. On error the decision is
        // ambiguous (the record may or may not be durable); the slices
        // stay staged, the next open resolves them from the log, and until
        // then nothing else may be written (`check_writable`) — nor
        // decided: the next open would apply a later decide's slices below
        // the ambiguous one's.
        let mut txnlog = self.txnlog.lock();
        if let Err(e) = self.check_writable() {
            abort(participants);
            return Err(e);
        }
        if let Err(e) = txnlog.decide(&marker) {
            self.ambiguous_txn.store(txn_id, Ordering::SeqCst);
            return Err(e);
        }

        // Phase 2: apply everywhere, still under the coordinator lock, so
        // slices apply in decide order, as the next open would, and no cut
        // (cuts take the same lock) sees half a batch. The decide is
        // durable, so the transaction is committed whatever happens here:
        // an apply error on one shard must not abandon the rest — readers
        // would see half the batch for the rest of this incarnation, and
        // nothing would resolve the unapplied shards' staged slices. Every
        // participant is attempted; the first failure is reported after,
        // and the failed shard's slice stays staged for the next open.
        let mut first_err: Option<Error> = None;
        for &i in participants {
            if let Err(e) = self.shards[i].txn_apply(txn_id) {
                if first_err.is_none() {
                    first_err = Some(Error::InvalidState(format!(
                        "cross-shard transaction {txn_id} is committed but \
                         its apply failed on shard {i}: {e}; the shard's \
                         slice stays staged and the next open will apply it"
                    )));
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Capture a consistent cross-shard read view. Taken under the
    /// coordinator lock: concurrent cross-shard batches are either fully
    /// visible or fully invisible in the returned snapshot.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let _cut = self.txnlog.lock();
        ShardedSnapshot {
            snaps: self.shards.iter().map(|s| s.snapshot()).collect(),
        }
    }

    /// Point lookup in a captured snapshot.
    ///
    /// # Errors
    ///
    /// Propagates the shard's read errors.
    pub fn get_with(&self, snap: &ShardedSnapshot, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let i = self.router.route(key);
        self.shards[i].get_opt(key, &ReadOptions::new().with_snapshot(&snap.snaps[i]))
    }

    /// Merged iterator over all shards at the latest state. The per-shard
    /// cursors are created under the coordinator lock, so the cut is
    /// consistent with respect to cross-shard batches.
    ///
    /// # Errors
    ///
    /// Propagates the shards' read errors.
    pub fn iter(&self) -> Result<ShardedIterator> {
        let _cut = self.txnlog.lock();
        let children = self
            .shards
            .iter()
            .map(|s| s.iter())
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedIterator::new(children))
    }

    /// Merged iterator in a captured snapshot.
    ///
    /// # Errors
    ///
    /// Propagates the shards' read errors.
    pub fn iter_with(&self, snap: &ShardedSnapshot) -> Result<ShardedIterator> {
        let children = self
            .shards
            .iter()
            .zip(snap.snaps.iter())
            .map(|(s, sn)| s.iter_opt(&ReadOptions::new().with_snapshot(sn)))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedIterator::new(children))
    }

    /// Flush every shard's memtable.
    ///
    /// # Errors
    ///
    /// Propagates shard flush errors.
    pub fn flush(&self) -> Result<()> {
        for s in &self.shards {
            s.flush()?;
        }
        Ok(())
    }

    /// Per-shard metrics snapshots plus their aggregate.
    pub fn metrics(&self) -> ShardedMetrics {
        let per_shard: Vec<_> = self.shards.iter().map(|s| s.metrics()).collect();
        let aggregate = metrics::aggregate(&per_shard, &self.env_owner);
        ShardedMetrics {
            per_shard,
            aggregate,
        }
    }

    /// Drain every shard's trace ring, tagging each event with its shard.
    pub fn events(&self) -> Vec<(usize, TraceEvent)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.events().into_iter().map(move |e| (i, e)))
            .collect()
    }

    /// Close every shard (all are attempted; the first error wins).
    ///
    /// # Errors
    ///
    /// Propagates shard close errors.
    pub fn close(&self) -> Result<()> {
        let mut result = Ok(());
        for s in &self.shards {
            let r = s.close();
            if result.is_ok() {
                result = r;
            }
        }
        result
    }
}

impl KvTarget for ShardedDb {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        ShardedDb::put(self, key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        ShardedDb::get(self, key)
    }

    fn scan(&self, start: &[u8], limit: usize) -> Result<usize> {
        let mut iter = self.iter()?;
        iter.seek(start)?;
        let mut taken = 0;
        while iter.valid() && taken < limit {
            let _ = iter.value();
            taken += 1;
            iter.next()?;
        }
        Ok(taken)
    }

    fn flush(&self) -> Result<()> {
        ShardedDb::flush(self)
    }

    fn metrics(&self) -> bolt_core::MetricsSnapshot {
        ShardedDb::metrics(self).aggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_env::MemEnv;

    fn small_opts() -> Options {
        Options::bolt().scaled(1.0 / 64.0)
    }

    fn open_sharded(env: &Arc<dyn Env>, shards: usize) -> ShardedDb {
        ShardedDb::open(
            Arc::clone(env),
            "sharded",
            small_opts(),
            Router::hash(shards).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn routes_and_reads_across_shards() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_sharded(&env, 4);
        for i in 0..500u32 {
            db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        // Every shard should have received some keys under hash routing.
        for i in 0..4 {
            assert!(
                db.shard(i).stats().snapshot().user_bytes_written > 0,
                "shard {i} got no keys"
            );
        }
        for i in 0..500u32 {
            assert_eq!(
                db.get(format!("key{i:04}").as_bytes()).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        db.delete(b"key0007").unwrap();
        assert_eq!(db.get(b"key0007").unwrap(), None);
        db.close().unwrap();
    }

    #[test]
    fn merged_iterator_is_globally_sorted() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_sharded(&env, 4);
        for i in (0..300u32).rev() {
            db.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
        }
        db.delete(b"key0100").unwrap();
        let mut iter = db.iter().unwrap();
        iter.seek_to_first().unwrap();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while iter.valid() {
            let key = iter.key().to_vec();
            assert_ne!(key, b"key0100".to_vec());
            if let Some(p) = &prev {
                assert!(*p < key, "merge order violated");
            }
            prev = Some(key);
            count += 1;
            iter.next().unwrap();
        }
        assert_eq!(count, 299);
        // seek lands on the right key mid-stream.
        iter.seek(b"key0150").unwrap();
        assert!(iter.valid());
        assert_eq!(iter.key(), b"key0150");
        db.close().unwrap();
    }

    /// A shard's read error fails the merged step, and the iterator is
    /// invalid after it instead of standing on the row it left.
    #[test]
    fn read_error_leaves_merged_iterator_invalid() {
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let db = open_sharded(&env, 4);
        for i in 0..2_000u32 {
            db.put(format!("key{i:04}").as_bytes(), &[b'v'; 100])
                .unwrap();
        }
        db.flush().unwrap();
        for i in 0..4 {
            db.shard(i).compact_until_quiet().unwrap();
        }
        // Cold: the first blocks are read now, and the next read fails.
        let fail_next_read =
            || fault.extend_plan(FaultPlan::parse("eio:read:glob=*.sst:nth=0").unwrap());
        let mut iter = db.iter().unwrap();
        iter.seek_to_first().unwrap();
        assert!(iter.valid());
        fail_next_read();
        while iter.next().is_ok() {
            assert!(iter.valid(), "the walk ends at an unreadable block");
        }
        assert!(!iter.valid());
        fail_next_read();
        assert!(iter.seek(b"key1500").is_err());
        assert!(!iter.valid());
        iter.seek(b"key1500").unwrap();
        assert_eq!(iter.key(), b"key1500");
        db.close().unwrap();
    }

    #[test]
    fn cross_shard_batch_is_atomic_and_visible() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_sharded(&env, 4);
        let mut batch = WriteBatch::new();
        for i in 0..40u32 {
            batch.put(format!("batch{i:03}").as_bytes(), b"in");
        }
        db.write_batch(batch).unwrap();
        for i in 0..40u32 {
            assert_eq!(
                db.get(format!("batch{i:03}").as_bytes()).unwrap(),
                Some(b"in".to_vec())
            );
        }
        // Mixed put/delete batch.
        let mut batch = WriteBatch::new();
        batch.delete(b"batch000");
        batch.put(b"batch001", b"updated");
        db.write_batch(batch).unwrap();
        assert_eq!(db.get(b"batch000").unwrap(), None);
        assert_eq!(db.get(b"batch001").unwrap(), Some(b"updated".to_vec()));
        // Empty batch is a no-op.
        db.write_batch(WriteBatch::new()).unwrap();
        db.close().unwrap();
    }

    #[test]
    fn cross_shard_batches_survive_reopen() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        {
            let db = open_sharded(&env, 4);
            let mut batch = WriteBatch::new();
            for i in 0..32u32 {
                batch.put(format!("persist{i:03}").as_bytes(), b"x");
            }
            db.write_batch(batch).unwrap();
            db.close().unwrap();
        }
        let db = open_sharded(&env, 4);
        for i in 0..32u32 {
            assert_eq!(
                db.get(format!("persist{i:03}").as_bytes()).unwrap(),
                Some(b"x".to_vec()),
                "key {i} lost across reopen"
            );
        }
        db.close().unwrap();
    }

    #[test]
    fn ambiguous_decide_refuses_writes_until_reopen_resolves_it() {
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let keys: Vec<String> = (0..16u32).map(|i| format!("amb{i:02}")).collect();
        let batch = |value: &[u8]| {
            let mut batch = WriteBatch::new();
            for key in &keys {
                batch.put(key.as_bytes(), value);
            }
            batch
        };
        let db = open_sharded(&env, 4);
        db.write_batch(batch(b"v0")).unwrap();
        // The decide record is appended but its sync fails: committed or
        // not is unknown until the next open reads the log.
        fault.set_plan(FaultPlan::parse("eio:sync:glob=TXNLOG:nth=0").unwrap());
        assert!(db.write_batch(batch(b"v1")).is_err());
        // Recovery applies a decided slice above everything written since,
        // so a write acknowledged now could be silently overwritten.
        for refused in [
            db.put(b"amb00", b"later"),
            db.delete(b"amb01"),
            db.write_batch(batch(b"v2")),
            db.delete_range(b"amb00", b"amb05"),
        ] {
            assert!(
                matches!(refused, Err(Error::InvalidState(_))),
                "{refused:?}"
            );
        }
        let _ = db.close();
        // The record did reach the log, so the reopen commits the batch —
        // on every shard, and the database takes writes again.
        let db = open_sharded(&env, 4);
        for key in &keys {
            assert_eq!(db.get(key.as_bytes()).unwrap(), Some(b"v1".to_vec()));
        }
        db.put(b"amb00", b"later").unwrap();
        assert_eq!(db.get(b"amb00").unwrap(), Some(b"later".to_vec()));
        db.close().unwrap();
    }

    /// Four writers commit `{a: v, z: v}` at once, `a` on shard 0 and `z`
    /// on shard 1. Applies run in decide order, so after every round both
    /// keys hold the same batch's value: some serial order of the batches.
    #[test]
    fn concurrent_cross_shard_batches_leave_one_serial_order() {
        use std::sync::Barrier;
        const WRITERS: usize = 4;
        const ROUNDS: usize = 4_000;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let db = ShardedDb::open(env, "serial", small_opts(), router).unwrap();
        let barrier = Barrier::new(WRITERS + 1);
        let mut mixed = 0usize;
        std::thread::scope(|scope| {
            for t in 0..WRITERS {
                let (db, barrier) = (&db, &barrier);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let value = format!("{t}-{round}");
                        let mut batch = WriteBatch::new();
                        batch.put(b"a", value.as_bytes());
                        batch.put(b"z", value.as_bytes());
                        barrier.wait();
                        db.write_batch(batch).unwrap();
                        barrier.wait();
                    }
                });
            }
            for _ in 0..ROUNDS {
                barrier.wait();
                barrier.wait();
                if db.get(b"a").unwrap() != db.get(b"z").unwrap() {
                    mixed += 1;
                }
            }
        });
        assert_eq!(mixed, 0, "rounds (of {ROUNDS}) that left a and z mixed");
        db.close().unwrap();
    }

    /// A crash between the decide and the applies, then a plain
    /// `Db::open` of one shard directory (what `bolt-tool verify` on a
    /// shard does): the shard keeps the decided slice staged, so the
    /// sharded reopen still applies it on both shards.
    #[test]
    fn a_plain_open_of_one_shard_keeps_a_decided_slice() {
        use bolt_env::{CrashConfig, FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let open = || ShardedDb::open(Arc::clone(&env), "s", small_opts(), router.clone());
        let db = open().unwrap();
        // Each WAL record is two appends: the two prepares are appends 0-3,
        // the decide goes to TXNLOG, and append 4 is the first `Applied`
        // marker.
        fault.set_plan(FaultPlan::parse("crash:append:glob=*.log:nth=4").unwrap());
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"v");
        batch.put(b"z", b"v");
        assert!(db.write_batch(batch).is_err());
        let _ = db.close();
        drop(db);
        fault.crash_inner(CrashConfig::Clean);
        fault.reset();
        let shard = Db::open(Arc::clone(&env), "s/shard-0", small_opts()).unwrap();
        assert_eq!(shard.staged_txns().len(), 1);
        shard.close().unwrap();
        let db = open().unwrap();
        assert_eq!(
            (db.get(b"a").unwrap(), db.get(b"z").unwrap()),
            (Some(b"v".to_vec()), Some(b"v".to_vec()))
        );
        db.close().unwrap();
    }

    /// A commit that prepared while another's decide sync was failing is
    /// refused at its decide: acknowledged, it would be applied below the
    /// ambiguous slice, which the next open applies above it.
    #[test]
    fn no_commit_decides_after_an_ambiguous_decide() {
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let open = || ShardedDb::open(Arc::clone(&env), "s", small_opts(), router.clone());
        let db = open().unwrap();
        let batch = |v: &[u8]| {
            let mut batch = WriteBatch::new();
            batch.put(b"a", v);
            batch.put(b"z", v);
            batch
        };
        fault.set_plan(FaultPlan::parse("hold:sync:glob=TXNLOG:nth=0").unwrap());
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| db.write_batch(batch(b"first")));
            fault.wait_until_held();
            // `first` holds the coordinator lock in its decide sync; wait
            // until `second` has prepared on shard 0, then fail that sync.
            let second = scope.spawn(|| db.write_batch(batch(b"second")));
            while db.shard(0).staged_txns().len() < 2 {
                std::thread::yield_now();
            }
            fault.extend_plan(FaultPlan::parse("eio:sync:glob=TXNLOG:nth=0").unwrap());
            fault.release();
            (first.join().unwrap(), second.join().unwrap())
        });
        assert!(matches!(first, Err(Error::Io(_))), "{first:?}");
        assert!(matches!(second, Err(Error::InvalidState(_))), "{second:?}");
        let _ = db.close();
        drop(db);
        let db = open().unwrap();
        for key in [b"a", b"z"] {
            assert_eq!(db.get(key).unwrap(), Some(b"first".to_vec()));
        }
        db.close().unwrap();
    }

    #[test]
    fn snapshot_is_a_consistent_cut() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_sharded(&env, 4);
        let mut batch = WriteBatch::new();
        for i in 0..16u32 {
            batch.put(format!("s{i:02}").as_bytes(), b"v1");
        }
        db.write_batch(batch).unwrap();
        let snap = db.snapshot();
        let mut batch = WriteBatch::new();
        for i in 0..16u32 {
            batch.put(format!("s{i:02}").as_bytes(), b"v2");
        }
        db.write_batch(batch).unwrap();
        for i in 0..16u32 {
            let key = format!("s{i:02}");
            assert_eq!(
                db.get_with(&snap, key.as_bytes()).unwrap(),
                Some(b"v1".to_vec())
            );
            assert_eq!(db.get(key.as_bytes()).unwrap(), Some(b"v2".to_vec()));
        }
        let mut iter = db.iter_with(&snap).unwrap();
        iter.seek_to_first().unwrap();
        while iter.valid() {
            assert_eq!(iter.value(), b"v1");
            iter.next().unwrap();
        }
        db.close().unwrap();
    }

    #[test]
    fn reopen_with_wrong_router_is_rejected() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        {
            let db = open_sharded(&env, 4);
            db.put(b"k", b"v").unwrap();
            db.close().unwrap();
        }
        let err = ShardedDb::open(
            Arc::clone(&env),
            "sharded",
            small_opts(),
            Router::hash(8).unwrap(),
        );
        assert!(matches!(err, Err(Error::InvalidArgument(_))));
        // The correct router still opens.
        let db = open_sharded(&env, 4);
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn range_router_keeps_shards_contiguous() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = ShardedDb::open(
            Arc::clone(&env),
            "ranged",
            small_opts(),
            Router::range(vec![b"h".to_vec(), b"p".to_vec()]).unwrap(),
        )
        .unwrap();
        db.put(b"apple", b"0").unwrap();
        db.put(b"mango", b"1").unwrap();
        db.put(b"zebra", b"2").unwrap();
        assert_eq!(db.shard(0).get(b"apple").unwrap(), Some(b"0".to_vec()));
        assert_eq!(db.shard(1).get(b"mango").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.shard(2).get(b"zebra").unwrap(), Some(b"2".to_vec()));
        let mut iter = db.iter().unwrap();
        iter.seek_to_first().unwrap();
        assert_eq!(iter.key(), b"apple");
        assert_eq!(iter.shard(), 0);
        db.close().unwrap();
    }

    #[test]
    fn metrics_aggregate_and_label_shards() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = open_sharded(&env, 2);
        for i in 0..200u32 {
            db.put(format!("m{i:04}").as_bytes(), &[0u8; 64]).unwrap();
        }
        db.flush().unwrap();
        let m = db.metrics();
        assert_eq!(m.per_shard.len(), 2);
        assert_eq!(
            m.aggregate.db.user_bytes_written,
            m.per_shard[0].db.user_bytes_written + m.per_shard[1].db.user_bytes_written
        );
        // Shared env: the global I/O snapshot is taken once, not doubled.
        assert_eq!(m.aggregate.io.fsync_calls, m.per_shard[0].io.fsync_calls);
        let text = m.to_prometheus_text();
        assert!(text.contains("bolt_flushes_total "));
        assert!(text.contains("shard=\"0\""));
        assert!(text.contains("shard=\"1\""));
        let events = db.events();
        assert!(events.iter().any(|(s, _)| *s == 0));
        db.close().unwrap();
    }

    #[test]
    fn aggregate_sums_every_engine_counter() {
        use bolt_core::MetricValue;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut opts = small_opts();
        opts.value_separation_threshold = Some(128);
        let db = ShardedDb::open(Arc::clone(&env), "agg", opts, Router::hash(2).unwrap()).unwrap();
        // Per shard: inline values enough for compactions whose runs are
        // several read spans long, one separated value (read back twice), two flushes
        // merged by a compaction, one checkpoint and an overwrite whose
        // reclaim it holds back, one range delete.
        for i in 0..2 {
            let shard = db.shard(i);
            for k in 0..12_000u32 {
                let key = format!("inline{:05}", (k * 7919) % 12_000);
                shard.put(key.as_bytes(), &[k as u8; 100]).unwrap();
            }
            shard.put(b"big", &[7u8; 1024]).unwrap();
            assert!(shard.get(b"big").unwrap().is_some());
            shard.flush().unwrap();
            // Served by the flushed table, through the table cache.
            assert!(shard.get(b"big").unwrap().is_some());
            shard.put(b"big", &[8u8; 1024]).unwrap();
            shard.compact_range(b"", b"zzzz").unwrap();
            shard.checkpoint(&format!("agg-ckpt-{i}")).unwrap();
            // The checkpoint shares the segment's inode, so the range this
            // overwrite kills stays in the reclaim ledger: never punched.
            shard.put(b"big", &[9u8; 1024]).unwrap();
            shard.compact_range(b"", b"zzzz").unwrap();
            shard.delete_range(b"a", b"b").unwrap();
            shard.flush().unwrap();
        }
        let m = db.metrics();
        for name in [
            "bolt_flushes_total",
            "bolt_flush_busy_nanos_total",
            "bolt_compaction_busy_nanos_total",
            "bolt_compaction_read_ops_total",
            "bolt_compaction_read_bytes_total",
            "bolt_compaction_read_wait_nanos_total",
            "bolt_compaction_victim_bytes_total",
            "bolt_compaction_overlap_bytes_total",
            "bolt_vlog_values_separated_total",
            "bolt_vlog_bytes_written_total",
            "bolt_vlog_resolves_total",
            "bolt_range_deletes_total",
            "bolt_checkpoints_total",
            "bolt_table_cache_hits_total",
            "bolt_table_cache_warm_inserts_total",
        ] {
            let per_shard = m.per_shard[0].to_registry();
            assert!(
                matches!(per_shard.find(name, &[]), Some(MetricValue::Counter(n)) if *n > 0),
                "{name} not exercised on shard 0"
            );
        }
        assert!(m.per_shard[0].range_tombstones_live > 0);
        assert_eq!(
            m.aggregate.range_tombstones_live,
            m.per_shard[0].range_tombstones_live + m.per_shard[1].range_tombstones_live
        );
        assert!(m.per_shard[0].pending_punch_bytes >= 1024);
        assert_eq!(
            m.aggregate.pending_punch_bytes,
            m.per_shard[0].pending_punch_bytes + m.per_shard[1].pending_punch_bytes
        );
        assert_eq!(
            m.aggregate.pending_unlink_files,
            m.per_shard[0].pending_unlink_files + m.per_shard[1].pending_unlink_files
        );
        // Every counter series a shard exports — whatever is declared, now
        // or later — must appear in the aggregate as the sum over shards.
        // (I/O counters are per distinct env, checked by the test below.)
        let aggregate = m.aggregate.to_registry();
        let mut checked = 0;
        for metric in m.per_shard[0].to_registry().entries() {
            let MetricValue::Counter(first) = metric.value else {
                continue;
            };
            if metric.name.starts_with("bolt_io_") {
                continue;
            }
            let labels: Vec<(&str, &str)> = metric
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let second = match m.per_shard[1].to_registry().find(&metric.name, &labels) {
                Some(MetricValue::Counter(n)) => *n,
                other => panic!("{} missing on shard 1: {other:?}", metric.name),
            };
            assert_eq!(
                aggregate.find(&metric.name, &labels),
                Some(&MetricValue::Counter(first + second)),
                "{} {labels:?}",
                metric.name
            );
            checked += 1;
        }
        assert!(checked >= 25, "only {checked} counter series compared");
        db.close().unwrap();
    }

    #[test]
    fn shared_env_barriers_sum_exactly_in_the_aggregate() {
        use bolt_core::BarrierCause::{FlushData, FlushManifest, WalCommit};
        // On one env each barrier lands in the sink of the shard whose scope
        // issued it (see `ShardedMetrics`): per shard the counts are that
        // shard's own, and the aggregate's per-cause sum moves with the
        // device's barrier count.
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = ShardedDb::open(
            Arc::clone(&env),
            "shared",
            Options::bolt(),
            Router::hash(2).unwrap(),
        )
        .unwrap();
        let by_cause = |m: &bolt_core::MetricsSnapshot| -> u64 {
            m.barriers_by_cause.iter().map(|(_, n)| n).sum()
        };
        let device = || {
            let io = env.stats().snapshot();
            io.fsync_calls + io.ordering_barriers
        };
        // Of everything the open paid, only the `SHARDS` pin is no shard's:
        // the coordinator log's re-cut is shard 0's.
        let (causes_at_open, device_at_open) = (by_cause(&db.metrics().aggregate), device());
        assert_eq!(causes_at_open, device_at_open - 1);
        for i in 0..200u32 {
            db.put(format!("m{i:04}").as_bytes(), &[0u8; 64]).unwrap();
        }
        db.flush().unwrap();
        let m = db.metrics();
        for shard in &m.per_shard {
            assert_eq!(shard.db.flushes, 1);
            assert_eq!(shard.barrier_count(FlushData), shard.db.flushes);
            assert_eq!(shard.barrier_count(FlushManifest), shard.db.flushes);
        }

        // A cross-shard batch: each shard syncs its prepare, and the decide
        // is synced in the coordinator log, on shard 0's behalf.
        let keys: Vec<String> = (0..16u32).map(|i| format!("x{i:02}")).collect();
        let routes: std::collections::BTreeSet<usize> = keys
            .iter()
            .map(|k| db.router().route(k.as_bytes()))
            .collect();
        assert_eq!(routes.len(), 2, "the batch spans both shards");
        let commits = |m: &ShardedMetrics| -> Vec<u64> {
            m.per_shard
                .iter()
                .map(|s| s.barrier_count(WalCommit))
                .collect()
        };
        let before = commits(&db.metrics());
        let mut batch = WriteBatch::new();
        for key in &keys {
            batch.put(key.as_bytes(), b"v");
        }
        db.write_batch(batch).unwrap();
        let after = commits(&db.metrics());
        assert_eq!((after[0] - before[0], after[1] - before[1]), (2, 1));

        db.close().unwrap();
        let m = db.metrics();
        let paid = device() - device_at_open;
        assert!(
            paid >= 7,
            "two flushes pay a data and a MANIFEST barrier each, the batch three"
        );
        assert_eq!(by_cause(&m.aggregate) - causes_at_open, paid);
    }

    /// A shard's snapshot in which every counter of every group holds a
    /// distinct value above `b`; it has `b / 1000 + 2` levels.
    fn shard(b: u64) -> bolt_core::MetricsSnapshot {
        use bolt_core::metrics::QueueWaitSummary;
        use bolt_core::{BarrierCause, DbStatsSnapshot, LevelInfo, MetricsSnapshot};
        use bolt_env::IoSnapshot;
        use bolt_table::{BlockCacheSnapshot, TableCacheSnapshot};
        MetricsSnapshot {
            db: DbStatsSnapshot {
                flushes: b + 1,
                compactions: b + 2,
                settled_moves: b + 3,
                trivial_moves: b + 4,
                seek_compactions: b + 5,
                compaction_input_bytes: b + 6,
                compaction_victim_bytes: b + 7,
                compaction_overlap_bytes: b + 8,
                compaction_read_ops: b + 9,
                compaction_read_bytes: b + 10,
                compaction_read_wait_nanos: b + 11,
                compaction_output_bytes: b + 14,
                flush_bytes: b + 15,
                flush_busy_nanos: b + 16,
                compaction_busy_nanos: b + 17,
                slowdowns: b + 18,
                stalls: b + 19,
                stall_nanos: b + 20,
                user_bytes_written: b + 21,
                write_groups: b + 22,
                group_batches: b + 23,
                wal_syncs: b + 24,
                wal_syncs_elided: b + 25,
                vlog_values_separated: b + 26,
                vlog_bytes_written: b + 27,
                vlog_resolves: b + 28,
                vlog_dead_bytes: b + 29,
                vlog_segments_retired: b + 30,
                range_deletes: b + 31,
                checkpoints: b + 32,
                stalls_imm_pending: b + 33,
                stall_nanos_imm_pending: b + 34,
                stalls_l0_stop: b + 35,
                stall_nanos_l0_stop: b + 36,
            },
            io: IoSnapshot {
                fsync_calls: b + 101,
                ordering_barriers: b + 102,
                bytes_written: b + 103,
                bytes_read: b + 104,
                write_ops: b + 105,
                read_ops: b + 106,
                files_created: b + 107,
                files_deleted: b + 108,
                holes_punched: b + 109,
                hole_bytes: b + 110,
                sync_wait_nanos: b + 111,
            },
            table_cache: TableCacheSnapshot {
                hits: b + 201,
                misses: b + 202,
                opens: b + 203,
                open_reads: b + 204,
                open_bytes: b + 205,
                warm_inserts: b + 206,
            },
            block_cache: BlockCacheSnapshot {
                hits: b + 301,
                misses: b + 302,
                evictions: b + 303,
                usage: b + 304,
            },
            events_emitted: b + 401,
            events_dropped: b + 402,
            manifest_recuts: b + 403,
            pending_punch_bytes: b + 404,
            pending_unlink_files: b + 405,
            range_tombstones_live: b + 406,
            barriers_by_cause: BarrierCause::ALL.iter().copied().zip(b + 501..).collect(),
            levels: (0..b / 1000 + 2)
                .map(|i| LevelInfo {
                    runs: (b + 601 + 3 * i) as usize,
                    tables: (b + 602 + 3 * i) as usize,
                    bytes: b + 603 + 3 * i,
                })
                .collect(),
            queue_wait: QueueWaitSummary {
                count: b + 701,
                sum: b + 702,
                p50: 703 - b / 1000,
                p95: b + 704,
                p99: 705 - b / 1000,
                max: b + 706,
            },
            policy: "lazy_leveled",
        }
    }

    /// The sharded registry pinned over two shards on one env: the
    /// aggregate (I/O counted once, levels added elementwise, queue-wait
    /// percentiles by maximum) and then each shard's series under its
    /// `shard` label.
    #[test]
    fn sharded_registry_text_is_pinned() {
        let per_shard = vec![shard(0), shard(1000)];
        let metrics = ShardedMetrics {
            aggregate: metrics::aggregate(&per_shard, &[true, false]),
            per_shard,
        };
        let golden = include_str!("../testdata/registry.prom");
        assert_eq!(metrics.to_prometheus_text(), golden);
    }

    #[test]
    fn metrics_count_io_once_per_distinct_env() {
        // Shards 0 and 1 share one env (and thus one set of global I/O
        // counters); shard 2 owns its own. The aggregate must count each
        // distinct env exactly once — not sum the shared counters twice,
        // and not drop the private env's.
        let shared: Arc<dyn Env> = Arc::new(MemEnv::new());
        let private: Arc<dyn Env> = Arc::new(MemEnv::new());
        let envs = vec![Arc::clone(&shared), Arc::clone(&shared), private];
        let db = ShardedDb::open_with_envs(envs, "mixed", small_opts(), Router::hash(3).unwrap())
            .unwrap();
        for i in 0..200u32 {
            db.put(format!("m{i:04}").as_bytes(), &[0u8; 64]).unwrap();
        }
        db.flush().unwrap();
        let m = db.metrics();
        assert_eq!(
            m.aggregate.io.fsync_calls,
            m.per_shard[0].io.fsync_calls + m.per_shard[2].io.fsync_calls
        );
        assert_eq!(
            m.aggregate.io.bytes_written,
            m.per_shard[0].io.bytes_written + m.per_shard[2].io.bytes_written
        );
        db.close().unwrap();
    }
}
