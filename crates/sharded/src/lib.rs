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
//! atomically through two-phase commit with no coordinator log, built on
//! `bolt-core`'s transaction WAL records (`bolt_core::txn`): synced
//! per-shard *prepare* records issued in one round — the transaction is
//! committed once all are durable — then per-shard applies with unsynced
//! position markers. A crash anywhere in that window recovers
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
    /// The coordinator lock, over the next transaction id: a cross-shard
    /// commit holds it from its id through its last apply, so ids are taken
    /// in commit order and every shard applies in id order; a consistent
    /// cut holds it too.
    commit: Mutex<u64>,
    /// Id of a transaction whose commit failed (0 = none). Its outcome is
    /// unknown until the next open judges its prepares, and a committed
    /// slice is then applied *above* everything this incarnation wrote — so
    /// no later write may be acknowledged over it.
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
    /// lives in `<name>/shard-i`; the `SHARDS` file pins the router.
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
    /// the `SHARDS` file.
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
        let last_txn_id = resolve_staged(&shards)?;

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
            commit: named_mutex("sharded.commit", last_txn_id + 1),
            ambiguous_txn: AtomicU64::new(0),
        })
    }

    /// Refuse writes once a cross-shard commit's fate is unknown (see
    /// [`ShardedDb::write_batch`]).
    fn check_writable(&self) -> Result<()> {
        match self.ambiguous_txn.load(Ordering::SeqCst) {
            0 => Ok(()),
            id => Err(Error::InvalidState(format!(
                "cross-shard transaction {id} failed inside its commit; \
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
    /// clipped tombstone or none does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `begin >= end`; otherwise
    /// propagates shard write errors.
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
    /// group-commit path. A batch spanning shards runs the 2PC protocol under
    /// the coordinator lock: it takes the next transaction id, issues a
    /// synced prepare on every participant at once, and — once all are
    /// durable, which is the commit point — applies the slice on each.
    /// After a failed prepare or apply the outcome is *ambiguous* until the next open, which judges
    /// it from the prepares that are durable — applying the slices, if
    /// every participant holds one, above everything written since. Every
    /// later write is therefore refused with [`Error::InvalidState`] until
    /// the database is reopened. An apply error does not stop the other
    /// participants' applies: the batch is committed, and a shard whose
    /// apply failed keeps its slice staged (invisible to its readers) until
    /// the next open applies it.
    ///
    /// # Errors
    ///
    /// Propagates shard write errors.
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
        let mut slices: Vec<(usize, WriteBatch)> = (slices.into_iter().enumerate())
            .filter(|(_, s)| !s.is_empty())
            .collect();
        match slices.len() {
            0 => Ok(()),
            1 => {
                let (only, slice) = slices.remove(0);
                self.shards[only].write(slice)
            }
            _ => self.commit_cross_shard(slices),
        }
    }

    fn commit_cross_shard(&self, slices: Vec<(usize, WriteBatch)>) -> Result<()> {
        let participants: Vec<usize> = slices.iter().map(|(i, _)| *i).collect();
        let shard_bitmap = participants.iter().fold(0u64, |b, &i| b | (1 << i));
        let mut next_txn_id = self.commit.lock();
        // Checked under the lock: a commit after an ambiguous one would be
        // applied below it, and the next open applies that one on top.
        self.check_writable()?;
        let txn_id = *next_txn_id;
        *next_txn_id += 1;
        // From here any failure, an unwind included, leaves the outcome to
        // the next open; it is marked before the lock is released.
        let undecided = Undecided(&self.ambiguous_txn, txn_id);
        let marker = ShardTxnMarker {
            txn_id,
            shard_bitmap,
        };
        self.join_prepares(marker, slices)?;
        // Every prepare is durable: the transaction is committed. An apply
        // error must not abandon the other participants (readers would see
        // half the batch for the rest of this incarnation).
        let mut applied = Ok(());
        for &i in &participants {
            applied = applied.and(self.shards[i].txn_apply(txn_id));
        }
        applied?;
        std::mem::forget(undecided);
        Ok(())
    }

    /// Issue every participant's synced prepare in one round, each through
    /// its shard's group commit, and return once all of them have: `Ok`
    /// iff every prepare is durable, which is the transaction's commit
    /// point.
    fn join_prepares(&self, txn: ShardTxnMarker, slices: Vec<(usize, WriteBatch)>) -> Result<()> {
        run_all(slices, |(i, slice)| self.shards[i].txn_prepare(txn, slice))
    }

    /// Capture a consistent cross-shard read view. Taken under the
    /// coordinator lock: concurrent cross-shard batches are either fully
    /// visible or fully invisible in the returned snapshot.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let _cut = self.commit.lock();
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
        let _cut = self.commit.lock();
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

/// Marks a cross-shard commit ambiguous when dropped: on an error return
/// or an unwind inside its critical section. A commit that succeeds
/// forgets it.
struct Undecided<'a>(&'a AtomicU64, u64);

impl Drop for Undecided<'_> {
    fn drop(&mut self) {
        self.0.store(self.1, Ordering::SeqCst);
    }
}

/// Run every job at once — the first on this thread, each other on a
/// scoped thread of its own — and return once all have: the first error,
/// if any. A thread that cannot start fails its job, and so does one that
/// panics.
fn run_all<T: Send>(jobs: Vec<T>, run: impl Fn(T) -> Result<()> + Sync) -> Result<()> {
    let mut jobs = jobs.into_iter();
    let first = jobs.next().expect("a commit has participants");
    std::thread::scope(|scope| {
        let run = &run;
        let spawn = |job| std::thread::Builder::new().spawn_scoped(scope, move || run(job));
        let others: Vec<_> = jobs.map(spawn).collect();
        let mut result = run(first);
        for other in others {
            let panicked = || Error::InvalidState("a participant's thread panicked".into());
            let joined = other.map_err(Error::from);
            result = result.and(joined.and_then(|t| t.join().unwrap_or_else(|_| Err(panicked()))));
        }
        result
    })
}

/// Resolve what the shards' recoveries left staged (they never do). A
/// staged transaction is committed iff every participant either stages it
/// too — its prepare is durable — or has an applied-transaction floor at or
/// above its id: a shard applies in id order, and no id above an
/// uncommitted one is applied before an open resolves that one. Every abort
/// is written (synced) before any apply, so a crash in between raises no
/// floor; then each shard applies its committed slices in id order and
/// flushes, which commits its floor. A second open after a crash anywhere
/// in here judges every transaction as this one did.
///
/// Returns the highest id staged or under a floor: the next id goes above
/// it. An aborted id may be taken again, since its `Aborted` record
/// follows its prepare in every log that holds both.
fn resolve_staged(shards: &[Arc<Db>]) -> Result<u64> {
    let staged: Vec<Vec<ShardTxnMarker>> = shards.iter().map(|s| s.staged_txns()).collect();
    let floors: Vec<u64> = shards.iter().map(|s| s.applied_txn_floor()).collect();
    let committed = |m: &ShardTxnMarker| {
        let mut participants = (0..shards.len()).filter(|&j| m.shard_bitmap & (1 << j) != 0);
        participants.all(|j| floors[j] >= m.txn_id || staged[j].contains(m))
    };
    for (shard, markers) in shards.iter().zip(&staged) {
        for m in markers.iter().filter(|m| !committed(m)) {
            shard.txn_forget(m.txn_id)?;
        }
    }
    for (shard, markers) in shards.iter().zip(&staged) {
        let mut applied = false;
        for m in markers.iter().filter(|m| committed(m)) {
            // bolt-lint: allow(decide-before-apply) -- every participant's prepare is durable, or its floor shows it applied.
            shard.txn_apply(m.txn_id)?;
            applied = true;
        }
        if applied {
            shard.flush()?;
        }
    }
    let staged_ids = staged.iter().flatten().map(|m| m.txn_id);
    Ok(staged_ids.chain(floors).max().unwrap_or(0))
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
        // Cold: a commit caches its outputs' blocks, a reopen holds none —
        // the first blocks are read now, and the next read fails.
        db.close().unwrap();
        let db = open_sharded(&env, 4);
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
        // One prepare is appended but its sync fails: committed or not is
        // unknown until the next open finds which prepares are durable.
        fault.set_plan(FaultPlan::parse("eio:sync:glob=*.log:nth=0").unwrap());
        assert!(db.write_batch(batch(b"v1")).is_err());
        // Recovery applies a committed slice above everything written
        // since, so a write acknowledged now could be silently overwritten.
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
        // The record did reach the log, so every participant holds a
        // prepare and the reopen commits the batch — on every shard, and
        // the database takes writes again.
        let db = open_sharded(&env, 4);
        for key in &keys {
            assert_eq!(db.get(key.as_bytes()).unwrap(), Some(b"v1".to_vec()));
        }
        db.put(b"amb00", b"later").unwrap();
        assert_eq!(db.get(b"amb00").unwrap(), Some(b"later".to_vec()));
        db.close().unwrap();
    }

    /// Four writers commit `{a: v, z: v}` at once, `a` on shard 0 and `z`
    /// on shard 1. Applies run in id order, so after every round both
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

    /// A crash between the commit point and the applies, then a plain
    /// `Db::open` of one shard directory (what `bolt-tool verify` on a
    /// shard does): the shard keeps the committed slice staged, so the
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
        // and append 4 is the first `Applied` marker.
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

    /// A commit that waited for the coordinator lock while another's
    /// prepare sync was failing is refused once it takes the lock:
    /// acknowledged, it would be applied below the ambiguous slice, which
    /// the next open applies above it.
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
        fault.set_plan(FaultPlan::parse("hold:sync:glob=s/shard-1/*.log:nth=0").unwrap());
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| db.write_batch(batch(b"first")));
            fault.wait_until_held();
            while db.shard(0).staged_txns().is_empty() {
                std::thread::yield_now();
            }
            // `first` is parked in its shard-1 prepare sync, holding the
            // lock; give `second` time to queue on it, then fail that sync.
            // (A `second` that starts later is refused the same way.)
            let second = scope.spawn(|| db.write_batch(batch(b"second")));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(db.shard(0).staged_txns().len(), 1);
            fault.extend_plan(FaultPlan::parse("eio:sync:glob=s/shard-1/*.log:nth=0").unwrap());
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

    /// The prepares of one commit run in one round: shard 0's is durable
    /// while shard 1's sync is still parked, and the commit pays one
    /// barrier per participant and writes no coordinator log.
    #[test]
    fn a_commit_prepares_every_participant_in_one_round() {
        use bolt_core::BarrierCause::WalCommit;
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let db = ShardedDb::open(Arc::clone(&env), "s", small_opts(), router).unwrap();
        let commits = |db: &ShardedDb| -> Vec<u64> {
            let m = db.metrics();
            m.per_shard
                .iter()
                .map(|s| s.barrier_count(WalCommit))
                .collect()
        };
        let before = commits(&db);
        fault.set_plan(FaultPlan::parse("hold:sync:glob=s/shard-1/*.log:nth=0").unwrap());
        std::thread::scope(|scope| {
            let commit = scope.spawn(|| {
                let mut batch = WriteBatch::new();
                batch.put(b"a", b"v");
                batch.put(b"z", b"v");
                db.write_batch(batch)
            });
            fault.wait_until_held();
            while db.shard(0).staged_txns().is_empty() {
                std::thread::yield_now();
            }
            fault.release();
            commit.join().unwrap().unwrap();
        });
        let after = commits(&db);
        assert_eq!((after[0] - before[0], after[1] - before[1]), (1, 1));
        assert!(!env.file_exists("s/TXNLOG"));
        db.close().unwrap();
    }

    /// The commit point is "every participant's prepare is durable", and a
    /// participant that flushed its slice keeps no prepare: its
    /// applied-transaction floor is the proof instead.
    /// Shard 0 applies and flushes (its prepare log goes); the crash takes
    /// shard 1's `Applied` marker. The reopen still commits on both.
    #[test]
    fn a_flushed_participant_vouches_for_a_lost_apply() {
        use bolt_env::{CrashConfig, FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let open = || ShardedDb::open(Arc::clone(&env), "s", small_opts(), router.clone());
        let db = open().unwrap();
        // Each WAL record is two appends: shard 1's prepare is appends 0-1,
        // its `Applied` marker starts at append 2.
        fault.set_plan(FaultPlan::parse("hold:append:glob=s/shard-1/*.log:nth=2").unwrap());
        std::thread::scope(|scope| {
            let commit = scope.spawn(|| {
                let mut batch = WriteBatch::new();
                batch.put(b"a", b"v");
                batch.put(b"z", b"v");
                db.write_batch(batch)
            });
            fault.wait_until_held();
            while db.shard(0).applied_txn_floor() == 0 {
                std::thread::yield_now();
            }
            db.shard(0).flush().unwrap();
            assert!(db.shard(0).staged_txns().is_empty());
            fault.extend_plan(FaultPlan::parse("crash:any:glob=*:nth=0").unwrap());
            fault.release();
            assert!(commit.join().unwrap().is_err());
        });
        let _ = db.close();
        drop(db);
        fault.crash_inner(CrashConfig::Clean);
        fault.reset();
        let db = open().unwrap();
        assert_eq!(
            (db.get(b"a").unwrap(), db.get(b"z").unwrap()),
            (Some(b"v".to_vec()), Some(b"v".to_vec()))
        );
        db.close().unwrap();
    }

    /// An open that aborts a transaction writes the abort down. Here the
    /// crash takes shard 1's prepare, the reopen aborts T on shard 0, and
    /// the unlink of the log holding T's prepare then fails, so the
    /// prepare outlives the open. A later commit raises shard 1's floor
    /// above T and a second crash takes shard 0's marker of it: only the
    /// `Aborted` record keeps T's stale prepare from being judged
    /// committed on shard 0 alone.
    #[test]
    fn an_aborted_prepare_that_outlives_its_unlink_stays_aborted() {
        use bolt_env::{CrashConfig, FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let open = || ShardedDb::open(Arc::clone(&env), "s", small_opts(), router.clone());
        let batch = |a: &[u8], z: &[u8]| {
            let mut batch = WriteBatch::new();
            batch.put(a, b"v");
            batch.put(z, b"v");
            batch
        };
        // A power failure at the next op: the close syncs nothing.
        let crash = |db: ShardedDb| {
            fault.set_plan(FaultPlan::parse("crash:any:glob=*:nth=0").unwrap());
            let _ = db.close();
            drop(db);
            fault.crash_inner(CrashConfig::Clean);
            fault.reset();
        };
        let db = open().unwrap();
        fault.set_plan(FaultPlan::parse("hold:sync:glob=s/shard-1/*.log:nth=0").unwrap());
        std::thread::scope(|scope| {
            let commit = scope.spawn(|| db.write_batch(batch(b"a1", b"z1")));
            fault.wait_until_held();
            while db.shard(0).staged_txns().is_empty() {
                std::thread::yield_now();
            }
            fault.extend_plan(FaultPlan::parse("crash:any:glob=*:nth=0").unwrap());
            fault.release();
            assert!(commit.join().unwrap().is_err());
        });
        crash(db);
        let db = open().unwrap();
        fault.set_plan(FaultPlan::parse("eio:delete:glob=s/shard-0/*.log:nth=0").unwrap());
        db.put(b"a0", b"x").unwrap();
        db.shard(0).flush().unwrap();
        db.write_batch(batch(b"a2", b"z2")).unwrap();
        db.shard(1).flush().unwrap();
        crash(db);
        let db = open().unwrap();
        for key in [b"a1", b"z1"] {
            assert_eq!(db.get(key).unwrap(), None);
        }
        for key in [b"a0", b"a2", b"z2"] {
            assert!(db.get(key).unwrap().is_some());
        }
        db.close().unwrap();
    }

    /// The open's abort of T fails at its sync, and so does the sync of the
    /// failed open's close: the next open reads an `Aborted` record that
    /// never reached the device, and must sync it. Lost in the crash after
    /// it, T's prepare — its log kept by a failed unlink — would stage again
    /// on shard 0, beside the next commit's — T's id, taken again — staged
    /// on shard 1 alone: one id, two batches, judged committed.
    #[test]
    fn an_abort_the_next_open_reads_is_made_durable() {
        use bolt_env::{CrashConfig, FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let open = || ShardedDb::open(Arc::clone(&env), "s", small_opts(), router.clone());
        let plan = |spec: &str| fault.set_plan(FaultPlan::parse(spec).unwrap());
        // Commit {a, z} until `held` parks one prepare's sync, then crash.
        let crash_mid_prepare = |db: ShardedDb, a: &[u8], z: &[u8], held: usize| {
            plan(&format!("hold:sync:glob=s/shard-{held}/*.log:nth=0"));
            std::thread::scope(|scope| {
                let mut batch = WriteBatch::new();
                batch.put(a, b"v");
                batch.put(z, b"v");
                let commit = scope.spawn(|| db.write_batch(batch));
                fault.wait_until_held();
                while db.shard(1 - held).staged_txns().is_empty() {
                    std::thread::yield_now();
                }
                fault.extend_plan(FaultPlan::parse("crash:any:glob=*:nth=0").unwrap());
                fault.release();
                assert!(commit.join().unwrap().is_err());
            });
            let _ = db.close();
            drop(db);
            fault.crash_inner(CrashConfig::Clean);
            fault.reset();
        };
        crash_mid_prepare(open().unwrap(), b"a1", b"z1", 1);
        plan("eio:sync:glob=s/shard-0/*.log:nth=0 eio:sync:glob=s/shard-0/*.log:nth=0");
        assert!(open().is_err());
        // This open's unlink of T's prepare log fails, so the log survives.
        plan("eio:delete:glob=s/shard-0/*.log:nth=0");
        crash_mid_prepare(open().unwrap(), b"a2", b"z2", 0);
        let db = open().unwrap();
        for key in [b"a1", b"z1", b"a2", b"z2"] {
            assert_eq!(db.get(key).unwrap(), None);
        }
        db.close().unwrap();
    }

    /// A slice applied and flushed on shard 0 whose prepare log then fails
    /// to unlink, and whose `Applied` marker was in that log's unsynced
    /// tail: after a crash the prepare is back without its marker. It is at
    /// or below shard 0's floor, so it was applied — applied again, it
    /// would overwrite the acknowledged write that came after it.
    #[test]
    fn a_stale_prepare_below_the_floor_is_not_applied_again() {
        use bolt_env::{CrashConfig, FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        let open = || ShardedDb::open(Arc::clone(&env), "s", small_opts(), router.clone());
        let db = open().unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"txn");
        batch.put(b"z", b"txn");
        db.write_batch(batch).unwrap();
        db.put(b"a", b"newer").unwrap();
        fault.set_plan(FaultPlan::parse("eio:delete:glob=s/shard-0/*.log:nth=0").unwrap());
        db.shard(0).flush().unwrap();
        let _ = db.close();
        drop(db);
        fault.crash_inner(CrashConfig::Clean);
        fault.reset();
        let db = open().unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"newer".to_vec()));
        assert_eq!(db.get(b"z").unwrap(), Some(b"txn".to_vec()));
        db.close().unwrap();
    }

    /// Shard 1's apply fails to switch its memtable (its WAL creation
    /// fails) after shard 0's apply landed: the batch is committed, later
    /// writes are refused, and the reopen applies shard 1's slice.
    #[test]
    fn a_failed_apply_is_whole_after_reopen() {
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let envs: Vec<Arc<dyn Env>> = vec![Arc::new(MemEnv::new()), Arc::new(fault.clone())];
        let router = Router::range(vec![b"m".to_vec()]).unwrap();
        // One batch fills a memtable, so the next apply switches it.
        let mut opts = small_opts();
        opts.memtable_bytes = 4096;
        let open = || ShardedDb::open_with_envs(envs.clone(), "s", opts.clone(), router.clone());
        let batch = |a: &[u8], z: &[u8], v: &[u8]| {
            let mut batch = WriteBatch::new();
            batch.put(a, v);
            batch.put(z, v);
            batch
        };
        let db = open().unwrap();
        db.write_batch(batch(b"a", b"z", &[b'v'; 8192])).unwrap();
        fault.set_plan(FaultPlan::parse("eio:create:glob=s/shard-1/*.log:nth=0").unwrap());
        assert!(db.write_batch(batch(b"a", b"z", b"second")).is_err());
        assert_eq!(db.get(b"a").unwrap(), Some(b"second".to_vec()));
        let third = db.write_batch(batch(b"b", b"y", b"third"));
        assert!(matches!(third, Err(Error::InvalidState(_))), "{third:?}");
        let _ = db.close();
        drop(db);
        let db = open().unwrap();
        for key in [b"a", b"z"] {
            assert_eq!(db.get(key).unwrap(), Some(b"second".to_vec()));
        }
        db.close().unwrap();
    }

    /// A participant whose thread panics fails its job: the round returns
    /// an error, after every other job has run, and nothing unwinds.
    #[test]
    fn a_panicking_participant_fails_the_round() {
        let ran = AtomicU64::new(0);
        let result = run_all(vec![1, 2, 3], |job| {
            assert_ne!(job, 2, "participant 2 panics");
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(matches!(result, Err(Error::InvalidState(_))), "{result:?}");
        assert_eq!(ran.load(Ordering::SeqCst), 2);
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
        // Of everything the open paid, only the `SHARDS` pin is no shard's.
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

        // A cross-shard batch: each shard syncs its prepare, and nothing
        // else is synced.
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
        assert_eq!((after[0] - before[0], after[1] - before[1]), (1, 1));

        db.close().unwrap();
        let m = db.metrics();
        let paid = device() - device_at_open;
        assert!(
            paid >= 6,
            "two flushes pay a data and a MANIFEST barrier each, the batch two"
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
                compaction_retries: b + 12,
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
                stripe_hits: b + 207,
                misses: b + 202,
                opens: b + 203,
                open_reads: b + 204,
                open_bytes: b + 205,
                warm_inserts: b + 206,
            },
            block_cache: BlockCacheSnapshot {
                hits: b + 301,
                stripe_hits: b + 305,
                misses: b + 302,
                evictions: b + 303,
                usage: b + 304,
                warm_inserts: b + 306,
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
