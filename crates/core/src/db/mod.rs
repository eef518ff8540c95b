//! The database, one module per subsystem. Every child is a plain
//! `impl DbInner` (plus the `impl Db` entry points that drive it) over the
//! state defined here; all of them share the one `core.state` mutex, of
//! whose `DbState` each owns one field group, and the `ReadView` — all
//! that a reader, a governor or the picker sees of the tree — which only
//! `install_view` replaces, and each thread reads from its own slot:
//!
//! * `write` — group commit, the 2PC phases, the write governors,
//!   memtable switching and WAL-time value separation;
//! * `read` — point lookups, iterators, value-pointer resolution;
//! * `flush` — the two background threads (`bolt-flush`,
//!   `bolt-compaction`; both start here, in `open`) and memtable flushes;
//! * `compact` — the compaction executor, where the paper's mechanisms
//!   act and nothing else lives: the table writer and the one commit a
//!   flush and a compaction share;
//! * `recover` — WAL replay at open;
//! * `gc` — checkpoints and WAL retirement.
//!
//! (DESIGN.md §2 maps each module to its state group, locks and events.)

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bolt_common::cache::LruCache;
use bolt_common::events::{BarrierCause, BarrierScope, EventSink, TraceEvent};
use bolt_common::sync::{named_mutex, Condvar, Mutex, PerReader, READER_SLOTS};
use bolt_common::{Error, Result};
use bolt_env::Env;
use bolt_table::cache::TableCache;
use bolt_table::comparator::{bytewise, InternalKeyComparator};
use bolt_table::ikey::SequenceNumber;
use bolt_table::TableReadOptions;
use bolt_wal::LogWriter;

use crate::filename::current_file;
use crate::iterator::DbIter;
use crate::memtable::MemTable;
use crate::metrics::{MetricsSnapshot, QueueWaitSummary};
use crate::options::Options;
use crate::stats::DbStats;
use crate::version::{TableMeta, Version};
use crate::versions::{FileIds, VersionSet};
use crate::vlog::VlogWriter;

mod compact;
mod flush;
mod gc;
mod read;
mod recover;
mod write;

use write::{PendingTxn, QueuedWrite};

/// Mutable engine state guarded by the main mutex, grouped by the module
/// that owns each field (other modules read, the owner writes).
#[derive(Default)]
struct DbState {
    // -- write.rs: the commit queue, the logs it appends to, staged 2PC --
    /// Group-commit queue: the front writer is the leader and commits on
    /// behalf of as many followers as fit under the group byte cap, then
    /// retires the group's entries front-first.
    writers: VecDeque<QueuedWrite>,
    /// The ticket the next queued writer takes.
    next_ticket: u64,
    /// The tickets of the one group that failed with followers, and its
    /// error: a follower's outcome once the queue has passed its ticket.
    failed_group: Option<(Range<u64>, Error)>,
    /// The active WAL. `None` *only* while a group-commit leader holds it
    /// outside the mutex for the append/sync/apply phase; anything that
    /// would switch or sync the WAL (memtable switch, close) must wait for
    /// it to return.
    wal: Option<LogWriter>,
    wal_number: u64,
    /// The WAL files on disk, oldest first (the back is `wal_number`); only
    /// `gc`'s retirement pops them, from the front.
    logs: VecDeque<u64>,
    /// The active value-log writer. `None` until the first separated write
    /// creates a segment lazily — and, like `wal`, while a group-commit
    /// leader holds it outside the mutex (leaders take both together, so
    /// whenever `wal` is restored the value log is too).
    vlog: Option<VlogWriter>,
    /// Prepared-but-unapplied cross-shard slices, keyed by transaction id.
    /// Each entry pins its WAL file (see `DbInner::delete_obsolete_logs`):
    /// the prepare record is the slice's only durable copy until the apply
    /// lands in a flushed memtable.
    pending_txns: HashMap<u64, PendingTxn>,
    /// The applied-transaction floor: the highest cross-shard id applied
    /// here, recovered at open and raised by every apply. A memtable switch
    /// stamps it on `imm`, and that memtable's flush commits it.
    applied_txn: u64,

    // -- flush.rs: what the two background threads share (`bg_error`,
    // `bg_jobs`) and the requests the compaction thread serves --
    /// The first failure of a background job or a log append; never
    /// overwritten, never cleared.
    bg_error: Option<Error>,
    /// Background jobs in flight: a flush, a compaction, or both.
    bg_jobs: usize,
    seek_candidate: Option<(usize, Arc<TableMeta>)>,
    /// Pending manual compaction: (level, begin user key, end user key).
    manual: Option<(usize, Vec<u8>, Vec<u8>)>,
    /// Completion counter for manual compactions.
    manual_done: u64,
    /// Compactions retried since the last one that committed.
    compaction_retries: u32,

    // -- read.rs registers, compact.rs honours --
    snapshots: Vec<SequenceNumber>,
}

impl DbState {
    /// The error that poisoned the engine, if any: a failed background job
    /// or a failed log append. Every blocking wait and every write checks
    /// it.
    fn check_poisoned(&self) -> Result<()> {
        self.bg_error.clone().map_or(Ok(()), Err)
    }
}

/// A memtable that stopped taking writes and awaits its flush, with the
/// three boundaries its switch stamped.
#[derive(Clone)]
struct Imm {
    mem: Arc<MemTable>,
    /// WAL number that becomes the log floor once this memtable is flushed.
    log_boundary: u64,
    /// `last_sequence` at the switch: every write at or below it is in this
    /// memtable or older tables, every write above it is in the view's `mem`.
    seq_boundary: SequenceNumber,
    /// The applied-transaction floor at the switch: every cross-shard slice
    /// applied here at or below it is in this memtable or older tables.
    txn_boundary: u64,
}

/// Everything a reader must see, as one immutable value: replaced whole by
/// [`DbInner::install_view`], never modified in place, so no reader can
/// observe a flush half installed. Aligned like a
/// [`CachePadded`](bolt_common::sync::CachePadded) value, so that the
/// reference count of one view slot's copy shares no cache line with
/// another slot's.
#[derive(Clone)]
#[repr(align(128))]
struct ReadView {
    mem: Arc<MemTable>,
    imm: Option<Imm>,
    version: Arc<Version>,
    /// Sequence boundary of the newest completed flush: `version` is exactly
    /// the write prefix at this sequence. Checkpoints pin the pair.
    flushed_seq: SequenceNumber,
}

impl ReadView {
    /// The in-memory sources, newest first.
    fn memtables(&self) -> impl Iterator<Item = &Arc<MemTable>> {
        std::iter::once(&self.mem).chain(self.imm.as_ref().map(|imm| &imm.mem))
    }
}

struct DbInner {
    env: Arc<dyn Env>,
    /// The database directory; shared, so an iterator's runs clone a pointer.
    name: Arc<str>,
    opts: Options,
    table_cache: Arc<TableCache>,
    state: Mutex<DbState>,
    versions: Mutex<VersionSet>,
    /// File-number and table-id allocator, shared with `versions` (which
    /// stamps its high-water marks into the MANIFEST): allocating takes no
    /// lock.
    ids: Arc<FileIds>,
    /// The current [`ReadView`]. Its lock serialises installs: it is held
    /// while [`DbInner::install_view`] builds the next view and rewrites
    /// every slot; no reader takes it.
    view: Mutex<ReadView>,
    /// What readers read: one copy of the current view per slot, each its
    /// own allocation (so its own reference count) behind its own lock, on
    /// lines of its own — a thread clones from its slot
    /// ([`DbInner::view`]) and writes no line another slot's threads write.
    view_slots: PerReader<Arc<ReadView>>,
    /// Set while `DbState::seek_candidate` holds a table (written under
    /// `core.state` with it): a spent seek budget checks this first and
    /// takes the lock only when no candidate is pending.
    seek_pending: AtomicBool,
    /// Wakes the compaction thread: a request was filed or the tree changed.
    work_cv: Condvar,
    /// Wakes the flush thread: `switch_memtable` gave the view an `imm`.
    flush_cv: Condvar,
    /// Wakes everyone waiting for background progress.
    done_cv: Condvar,
    /// Wakes queued writers when leadership rotates or a group completes,
    /// and WAL waiters when an in-flight group returns the log.
    writers_cv: Condvar,
    last_sequence: AtomicU64,
    shutdown: AtomicBool,
    stats: DbStats,
    /// Structured-event destination, shared with the version set (MANIFEST
    /// commits). Every barrier scope this engine opens carries it, so each
    /// barrier the engine pays lands here — and no other engine's does.
    sink: Arc<EventSink>,
    /// Monotonic flush ids pairing `FlushBegin`/`FlushEnd` events.
    flush_ids: AtomicU64,
    /// Monotonic compaction ids pairing `CompactionBegin`/`CompactionEnd`.
    compaction_ids: AtomicU64,
}

impl DbInner {
    /// The current view, from the calling thread's slot: one uncontended
    /// lock and one reference count that only the slot's threads write.
    fn view(&self) -> Arc<ReadView> {
        Arc::clone(&self.view_slot().lock())
    }

    /// The calling thread's view slot ([`reader_slot`]).
    ///
    /// [`reader_slot`]: bolt_common::sync::reader_slot
    fn view_slot(&self) -> &Mutex<Arc<ReadView>> {
        self.view_slots.mine()
    }

    /// Publish the view `next` builds from the current one — the one place
    /// the tree's shape changes hands. `next` runs under `core.view`, so a
    /// memtable switch and a commit on another thread compose. Every slot is
    /// rewritten, one slot lock at a time, before this returns: the caller's
    /// next read — a writer's `mem` after its own switch — is the new view,
    /// and no slot still holds the outgoing one. `commit` calls this under
    /// `core.versions`, between `log_and_apply` and the reclaim decision: GC
    /// must find the outgoing version released.
    fn install_view(&self, next: impl FnOnce(&ReadView) -> ReadView) {
        let mut current = self.view.lock();
        let new = next(&current);
        let mut old = Vec::with_capacity(READER_SLOTS);
        for view_slot in self.view_slots.all() {
            let copy = Arc::new(new.clone());
            old.push(std::mem::replace(&mut *view_slot.lock(), copy));
        }
        let outgoing = std::mem::replace(&mut *current, new);
        drop(current);
        drop((old, outgoing)); // off the locks: may free a whole memtable
    }

    /// File `table` as the seek-compaction candidate unless one is pending.
    fn file_seek_candidate(&self, state: &mut DbState, level: usize, table: Arc<TableMeta>) {
        if state.seek_candidate.is_none() {
            state.seek_candidate = Some((level, table));
            self.seek_pending.store(true, Ordering::Release);
            self.work_cv.notify_one();
        }
    }
}

/// Start a background thread running `body` under the panic guard: a panic
/// poisons the engine (unless an earlier error already did) instead of
/// leaving every waiter parked on a thread that is gone.
fn spawn_guarded(
    inner: &Arc<DbInner>,
    name: &str,
    body: fn(&DbInner),
) -> Result<std::thread::JoinHandle<()>> {
    let inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let run = std::panic::AssertUnwindSafe(|| body(&inner));
            if let Err(payload) = std::panic::catch_unwind(run) {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "background thread panicked".into());
                let error = Error::InvalidState(format!("background panic: {message}"));
                // (`bg_jobs` keeps counting the job that died: every reader
                // of it checks `bg_error` first.)
                let mut state = inner.state.lock();
                state.bg_error.get_or_insert(error);
                inner.done_cv.notify_all();
            }
        });
    spawned.map_err(Error::io)
}

/// A consistent read view. Dropping it releases the sequence for
/// compaction garbage collection.
pub struct Snapshot {
    seq: SequenceNumber,
    inner: std::sync::Weak<DbInner>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("seq", &self.seq).finish()
    }
}

impl Snapshot {
    /// The sequence number this snapshot reads at.
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.upgrade() {
            let mut state = inner.state.lock();
            if let Some(pos) = state.snapshots.iter().position(|&s| s == self.seq) {
                state.snapshots.remove(pos);
            }
        }
    }
}

/// Per-level shape summary (runs, tables, bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelInfo {
    /// Number of sorted runs.
    pub runs: usize,
    /// Number of logical tables.
    pub tables: usize,
    /// Total bytes.
    pub bytes: u64,
}

fn level_shape(version: &Version) -> Vec<LevelInfo> {
    version
        .levels
        .iter()
        .map(|l| LevelInfo {
            runs: l.num_runs(),
            tables: l.num_tables(),
            bytes: l.size(),
        })
        .collect()
}

/// A BoLT/LevelDB-family key-value store.
///
/// ```
/// use bolt_core::{Db, Options};
/// use bolt_env::MemEnv;
/// use std::sync::Arc;
///
/// # fn main() -> bolt_common::Result<()> {
/// let env: Arc<dyn bolt_env::Env> = Arc::new(MemEnv::new());
/// let db = Db::open(env, "demo-db", Options::bolt())?;
/// db.put(b"key", b"value")?;
/// assert_eq!(db.get(b"key")?, Some(b"value".to_vec()));
/// db.close()?;
/// # Ok(())
/// # }
/// ```
pub struct Db {
    inner: Arc<DbInner>,
    /// The flush and the compaction thread, until `close` joins them.
    bg: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("name", &self.inner.name)
            .finish()
    }
}

impl Db {
    /// Open (creating or recovering) the database in directory `name`.
    ///
    /// Recovery never resolves a cross-shard prepare: a slice whose WAL
    /// holds no `Applied` or `Aborted` record stays staged
    /// ([`Db::staged_txns`]) and keeps its WAL pinned, exactly like a live
    /// prepare, until the coordinator applies or forgets it. A shard opened
    /// alone therefore keeps its unresolved prepares until the sharded
    /// database is opened.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env and corruption errors from
    /// recovery.
    pub fn open(env: Arc<dyn Env>, name: &str, opts: Options) -> Result<Db> {
        opts.validate()?;
        env.create_dir_all(name)?;
        let read_opts = TableReadOptions {
            comparator: Arc::new(InternalKeyComparator::default()),
            filter_policy: opts.filter_policy,
            filter_key: bolt_table::FilterKey::UserKey,
            block_cache: Some(Arc::new(LruCache::new(opts.block_cache_bytes))),
        };
        /// Capacity, in files, of the BoLT fd cache when enabled.
        const FD_CACHE_FILES: u64 = 500;
        let fd_cache = opts
            .bolt_options()
            .filter(|b| b.fd_cache)
            .map(|_| FD_CACHE_FILES);
        let table_cache = Arc::new(TableCache::new(
            Arc::clone(&env),
            opts.max_open_files,
            fd_cache,
            read_opts,
        ));

        // Every barrier scope the version set and recovery open carries this
        // sink, so the barriers paid while opening are traced as this
        // engine's.
        let sink = Arc::new(EventSink::new());
        let mut versions = VersionSet::new(
            Arc::clone(&env),
            name,
            opts.num_levels,
            opts.compaction_policy,
            Arc::clone(&sink),
        );
        let is_new = !env.file_exists(&current_file(name));
        let logs = if is_new {
            versions.create_new()?;
            Vec::new()
        } else {
            versions.recover()?
        };

        let view = ReadView {
            mem: Arc::new(MemTable::new()),
            imm: None,
            version: versions.current(),
            flushed_seq: 0,
        };
        let inner = Arc::new(DbInner {
            env,
            name: name.into(),
            opts,
            table_cache,
            state: named_mutex("core.state", DbState::default()),
            ids: Arc::clone(versions.ids()),
            versions: named_mutex("core.versions", versions),
            view_slots: PerReader::new(|| named_mutex("core.view_slot", Arc::new(view.clone()))),
            view: named_mutex("core.view", view),
            seek_pending: AtomicBool::new(false),
            work_cv: Condvar::new(),
            flush_cv: Condvar::new(),
            done_cv: Condvar::new(),
            writers_cv: Condvar::new(),
            last_sequence: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            stats: DbStats::default(),
            sink,
            flush_ids: AtomicU64::new(0),
            compaction_ids: AtomicU64::new(0),
        });

        inner.recover_wals(logs)?;
        inner.start_fresh_wal()?;

        let bg = vec![
            spawn_guarded(&inner, "bolt-flush", DbInner::flush_loop)?,
            spawn_guarded(&inner, "bolt-compaction", DbInner::compaction_loop)?,
        ];

        Ok(Db {
            inner,
            bg: named_mutex("core.bg", bg),
        })
    }

    /// The current [`Version`] — the logical view of the tree. Useful for
    /// inspection tools and tests; the version is immutable.
    pub fn current_version(&self) -> Arc<Version> {
        Arc::clone(&self.inner.view().version)
    }

    /// Approximate on-disk bytes of user keys in `[begin, end)` — the sum
    /// of the sizes of tables whose range intersects it (tables partially
    /// inside are pro-rated at half). Like LevelDB's `GetApproximateSizes`.
    pub fn approximate_size(&self, begin: &[u8], end: &[u8]) -> u64 {
        let version = self.current_version();
        let mut total = 0u64;
        for (_, _, table) in version.all_tables() {
            if !table.overlaps(begin, end) {
                continue;
            }
            let fully_inside = bytewise(table.smallest_user_key(), begin).is_ge()
                && bytewise(table.largest_user_key(), end).is_lt();
            total += if fully_inside {
                table.size
            } else {
                table.size / 2
            };
        }
        total
    }

    /// Per-level shape (runs, tables, bytes).
    pub fn level_info(&self) -> Vec<LevelInfo> {
        level_shape(&self.current_version())
    }

    /// Engine statistics.
    pub fn stats(&self) -> &DbStats {
        &self.inner.stats
    }

    /// One merged observability snapshot: engine counters, env I/O
    /// counters, both caches' counters, per-level shape, queue-wait
    /// summary, per-cause barrier counts and what GC holds back, with the
    /// derived ratios, exportable as JSON or Prometheus text.
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let qw = inner.stats.queue_wait();
        // One view: the level shape and the tombstone gauge describe the
        // same installed version.
        let view = inner.view();
        let version = &view.version;
        let (manifest_recuts, pending_punch_bytes, pending_unlink_files) = {
            let versions = inner.versions.lock();
            (
                versions.manifest_recuts(),
                versions.reclaim.pending_punch_bytes(),
                versions.reclaim.pending_unlink_files(),
            )
        };
        MetricsSnapshot {
            db: inner.stats.snapshot(),
            io: inner.env.stats().snapshot(),
            levels: level_shape(version),
            policy: inner.opts.compaction_policy.as_str(),
            queue_wait: QueueWaitSummary {
                count: qw.count(),
                sum: qw.sum(),
                p50: qw.percentile(50.0),
                p95: qw.percentile(95.0),
                p99: qw.percentile(99.0),
                max: qw.max(),
            },
            barriers_by_cause: inner.sink.barrier_counts().to_vec(),
            events_emitted: inner.sink.emitted(),
            events_dropped: inner.sink.dropped(),
            manifest_recuts,
            pending_punch_bytes,
            pending_unlink_files,
            range_tombstones_live: version.live_range_tombstones(),
            table_cache: inner.table_cache.snapshot(),
            block_cache: inner.table_cache.block_cache_snapshot(),
        }
    }

    /// Drain the structured-event ring: every event emitted since the last
    /// drain, oldest first. If more than the ring capacity accumulated
    /// between drains, the oldest are dropped (counted in
    /// [`MetricsSnapshot::events_dropped`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.sink.drain()
    }

    /// The database directory name this instance was opened with.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// TableCache open-count and hit statistics.
    pub fn table_cache(&self) -> &TableCache {
        &self.inner.table_cache
    }

    /// Shut down: stop and join both background threads — a flush or a
    /// compaction in flight runs to its commit first, nothing new is
    /// started. The WAL preserves any unflushed writes for the next open.
    ///
    /// # Errors
    ///
    /// Returns the first background error, if one occurred.
    pub fn close(&self) -> Result<()> {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _state = self.inner.state.lock();
            self.inner.work_cv.notify_all();
            self.inner.flush_cv.notify_all();
            self.inner.done_cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.bg.lock());
        for handle in handles {
            let _ = handle.join();
        }
        // Make the tail of the WAL durable so close() is a clean shutdown.
        // An in-flight group commit owns the WAL outside the lock; wait for
        // it to return the log, then issue the barrier exactly like a
        // group-commit leader (`with_wal`: engine mutex released, a failed
        // sync poisons the engine).
        let mut state = self.inner.state.lock();
        while state.wal.is_none() {
            self.inner.writers_cv.wait(&mut state);
        }
        let synced = self.inner.with_wal(&mut state, |wal, _| {
            let _scope = BarrierScope::new(&self.inner.sink, BarrierCause::WalClose);
            // `with_wal` runs this closure with `state` released.
            // bolt-lint: allow(guard-across-barrier)
            wal.sync()
        });
        self.inner.writers_cv.notify_all();
        synced?;
        state.check_poisoned()
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Owning iterator pinning the view (and so the version) it reads.
pub struct DbIterator {
    inner: DbIter,
    _view: Arc<ReadView>,
}

impl std::fmt::Debug for DbIterator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbIterator")
            .field("valid", &self.valid())
            .finish()
    }
}

impl DbIterator {
    /// `true` when positioned on an entry.
    pub fn valid(&self) -> bool {
        self.inner.valid()
    }
    /// Position at the first key.
    ///
    /// # Errors
    ///
    /// Returns read errors.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.inner.seek_to_first()
    }
    /// Position at the first key >= `user_key`.
    ///
    /// # Errors
    ///
    /// Returns read errors.
    pub fn seek(&mut self, user_key: &[u8]) -> Result<()> {
        self.inner.seek(user_key)
    }
    /// Advance to the next live key.
    ///
    /// # Errors
    ///
    /// Returns read errors.
    #[allow(clippy::should_implement_trait)] // LevelDB-style fallible cursor
    pub fn next(&mut self) -> Result<()> {
        self.inner.next()
    }
    /// Current user key.
    pub fn key(&self) -> &[u8] {
        self.inner.key()
    }
    /// Current value.
    pub fn value(&self) -> &[u8] {
        self.inner.value()
    }
}

/// Fixtures shared by the unit tests of every child module.
#[cfg(test)]
mod test_util {
    pub(super) use std::sync::Arc;

    use bolt_env::FaultPlan;
    pub(super) use bolt_env::{Env, FaultEnv, MemEnv};

    pub(super) use super::Db;
    pub(super) use crate::batch::WriteBatch;
    pub(super) use crate::options::Options;
    pub(super) use crate::txn::ShardTxnMarker;

    pub(super) fn mem_db(opts: Options) -> (Arc<MemEnv>, Db) {
        let env = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        (env, db)
    }

    pub(super) fn small_opts(mut opts: Options) -> Options {
        opts.memtable_bytes = 64 << 10;
        opts.sstable_bytes = 16 << 10;
        opts.level1_max_bytes = 128 << 10;
        if let crate::options::CompactionStyle::Bolt(b) = &mut opts.compaction_style {
            b.logical_sstable_bytes = 8 << 10;
            b.group_compaction_bytes = 64 << 10;
        }
        opts
    }

    /// Options under which nothing compacts unless the test says so, and a
    /// flush is as large as the test makes it.
    pub(super) fn manual_opts() -> Options {
        let mut opts = small_opts(Options::bolt());
        opts.memtable_bytes = 8 << 20;
        opts.level0_compaction_trigger = 64;
        (opts.level0_slowdown_trigger, opts.level0_stop_trigger) = (None, None);
        opts.level1_max_bytes = 1 << 30;
        opts
    }

    /// One flushed run: `value` under each of `keys`.
    pub(super) fn flush_run(db: &Db, keys: impl Iterator<Item = u32>, value: &[u8]) {
        for i in keys {
            db.put(format!("key{i:05}").as_bytes(), value).unwrap();
        }
        db.flush().unwrap();
    }

    /// `key`'s value, read from the block cache: the get reads no device
    /// and counts one block-cache hit.
    pub(super) fn get_from_block_cache(env: &MemEnv, db: &Db, key: &[u8]) -> Option<Vec<u8>> {
        let (reads, hits) = (
            env.stats().snapshot().read_ops,
            db.metrics().block_cache.hits,
        );
        let value = db.get(key).unwrap();
        assert_eq!(env.stats().snapshot().read_ops, reads, "a device read");
        assert_eq!(
            db.metrics().block_cache.hits,
            hits + 1,
            "a block-cache miss"
        );
        value
    }

    /// The data blocks of `level`'s tables in key order, as `(block-cache
    /// key, bytes)` — read from the files of database `db` in `env`.
    pub(super) fn data_blocks(env: &dyn Env, db: &Db, level: usize) -> Vec<((u64, u64), u64)> {
        use bolt_table::block::Block;
        use bolt_table::format::{BlockHandle, Footer, FOOTER_SIZE};

        let version = db.current_version();
        let mut blocks = Vec::new();
        for table in version.levels[level]
            .runs
            .iter()
            .flat_map(|r| r.tables.iter())
        {
            let path = crate::filename::table_file("db", table.file_number);
            let file = env.new_random_access_file(&path).unwrap();
            let bytes = file.read(table.offset, table.size as usize).unwrap();
            let footer = Footer::decode(&bytes[bytes.len() - FOOTER_SIZE..]).unwrap();
            let (at, size) = (footer.index_handle.offset, footer.index_handle.size);
            let index = bytes[at as usize..(at + size) as usize].to_vec();
            let mut iter = Arc::new(Block::new(index).unwrap()).iter(0);
            iter.seek_to_first().unwrap();
            while iter.valid() {
                let (data, _) = BlockHandle::decode_from(iter.value()).unwrap();
                let key = (table.file_number, table.offset + data.offset);
                blocks.push((key, data.size));
                iter.next().unwrap();
            }
        }
        blocks
    }

    pub(super) fn staged_ids(db: &Db) -> Vec<u64> {
        db.staged_txns().iter().map(|m| m.txn_id).collect()
    }

    pub(super) fn txn_slice(pairs: &[(&[u8], &[u8])]) -> WriteBatch {
        let mut b = WriteBatch::new();
        for (k, v) in pairs {
            b.put(k, v);
        }
        b
    }

    pub(super) fn sep_opts(threshold: u64) -> Options {
        let mut opts = small_opts(Options::bolt());
        opts.value_separation_threshold = Some(threshold);
        opts.vlog_segment_bytes = 16 << 10;
        opts
    }

    pub(super) fn big(i: u32) -> Vec<u8> {
        vec![b'a' + (i % 26) as u8; 1024]
    }

    /// Append `clauses` to `env`'s fault plan; their ordinals count from
    /// now.
    pub(super) fn arm(env: &FaultEnv, clauses: &str) {
        env.extend_plan(FaultPlan::parse(clauses).unwrap());
    }

    /// Two level-0 runs over `key00000..key00199` (100-byte values, the
    /// Legacy encoding, whose every key is whole), closed, and then in the
    /// older run's first data block the second key cut to its first two
    /// bytes: the rest of the key joins the value, so the entry keeps its
    /// length, and the block's CRC is recomputed. A CRC-valid block with a
    /// key shorter than the 8-byte tag right after a whole one; the
    /// database reopened over it.
    pub(super) fn db_with_a_short_block_key() -> (Arc<MemEnv>, Db) {
        use bolt_common::crc32c;
        use bolt_table::block::Block;
        use bolt_table::format::{BlockHandle, Footer, FOOTER_SIZE};

        let mut opts = manual_opts();
        opts.table_format = bolt_table::TableFormat::legacy();
        let (env, db) = mem_db(opts.clone());
        for value in [[b'a'; 100], [b'b'; 100]] {
            for i in 0..200u32 {
                db.put(format!("key{i:05}").as_bytes(), &value).unwrap();
            }
            db.flush().unwrap();
        }
        let table = Arc::clone(&db.current_version().levels[0].runs[1].tables[0]);
        db.close().unwrap();
        drop(db);

        let path = crate::filename::table_file("db", table.file_number);
        let file = env.new_random_access_file(&path).unwrap();
        let mut bytes = file.read(0, file.len() as usize).unwrap();
        let (base, end) = (table.offset as usize, (table.offset + table.size) as usize);
        let index = Footer::decode(&bytes[end - FOOTER_SIZE..end])
            .unwrap()
            .index_handle;
        let index_at = base + index.offset as usize;
        let index = bytes[index_at..index_at + index.size as usize].to_vec();
        let mut first = Arc::new(Block::new(index).unwrap()).iter(0);
        first.seek_to_first().unwrap();
        let (data, _) = BlockHandle::decode_from(first.value()).unwrap();
        let (at, size) = (base + data.offset as usize, data.size as usize);
        // Entry 0 is `[0, 16, 100, key, value]`: entry 1 starts after it.
        let entry = at + 3 + 16 + 100;
        assert_eq!(bytes[entry..entry + 3], [0, 16, 100]);
        bytes[entry + 1..entry + 3].copy_from_slice(&[2, 114]);
        let crc = crc32c::extend(crc32c::crc32c(&bytes[at..at + size]), &[0]);
        bytes[at + size + 1..at + size + 5].copy_from_slice(&crc32c::mask(crc).to_le_bytes());
        let mut file = env.new_writable_file(&path).unwrap();
        file.append(&bytes).unwrap();
        file.sync().unwrap();
        drop(file);

        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        (env, db)
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let (_env, db) = mem_db(Options::leveldb());
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get(b"gamma").unwrap(), None);
        db.delete(b"alpha").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), None);
        db.close().unwrap();
    }

    #[test]
    fn overwrites_visible_in_order() {
        let (_env, db) = mem_db(Options::leveldb());
        for i in 0..100 {
            db.put(b"k", format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(db.get(b"k").unwrap(), Some(b"v99".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        let db = Arc::new(db);
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        db.put(
                            format!("t{t}-key{i:05}").as_bytes(),
                            format!("v{t}-{i}").as_bytes(),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for t in 0..4 {
            for i in (0..500u32).step_by(83) {
                assert_eq!(
                    db.get(format!("t{t}-key{i:05}").as_bytes()).unwrap(),
                    Some(format!("v{t}-{i}").into_bytes())
                );
            }
        }
        db.close().unwrap();
    }
}
