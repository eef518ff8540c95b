//! The database, one module per subsystem. Every child is a plain
//! `impl DbInner` (plus the `impl Db` entry points that drive it) over the
//! state defined here; all of them share the one `core.state` mutex, of
//! whose `DbState` each owns one field group, and the `ReadView` behind
//! `core.view` — all that a reader, a governor or the picker sees of the
//! tree — which only `install_view` replaces:
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
//! * `gc` — checkpoints and obsolete log/file deletion.
//!
//! (DESIGN.md §2 maps each module to its state group, locks and events.)

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bolt_common::cache::LruCache;
use bolt_common::events::{BarrierCause, BarrierScope, EventSink, TraceEvent};
use bolt_common::sync::{named_mutex, Condvar, Mutex};
use bolt_common::{Error, Result};
use bolt_env::Env;
use bolt_table::cache::TableCache;
use bolt_table::comparator::InternalKeyComparator;
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

use write::{PendingTxn, WriterSlot};

/// Mutable engine state guarded by the main mutex, grouped by the module
/// that owns each field (other modules read, the owner writes).
#[derive(Default)]
struct DbState {
    // -- write.rs: the commit queue, the logs it appends to, staged 2PC --
    /// Group-commit queue: the front writer is the leader and commits on
    /// behalf of as many followers as fit under the group byte cap.
    writers: VecDeque<Arc<WriterSlot>>,
    /// The active WAL. `None` *only* while a group-commit leader holds it
    /// outside the mutex for the append/sync/apply phase; anything that
    /// would switch or sync the WAL (memtable switch, close) must wait for
    /// it to return.
    wal: Option<LogWriter>,
    wal_number: u64,
    /// The active value-log writer. `None` until the first separated write
    /// creates a segment lazily — and, like `wal`, while a group-commit
    /// leader holds it outside the mutex (leaders take both together, so
    /// whenever `wal` is restored the value log is too).
    vlog: Option<VlogWriter>,
    /// Prepared-but-unapplied cross-shard slices, keyed by transaction id.
    /// Each entry pins its WAL file (see [`DbState::min_pending_txn_log`]):
    /// the prepare record is the slice's only durable copy until the apply
    /// lands in a flushed memtable.
    pending_txns: HashMap<u64, PendingTxn>,

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
/// two boundaries its switch stamped.
#[derive(Clone)]
struct Imm {
    mem: Arc<MemTable>,
    /// WAL number that becomes the log floor once this memtable is flushed.
    log_boundary: u64,
    /// `last_sequence` at the switch: every write at or below it is in this
    /// memtable or older tables, every write above it is in the view's `mem`.
    seq_boundary: SequenceNumber,
}

/// Everything a reader must see, as one immutable value: replaced whole by
/// [`DbInner::install_view`], never modified in place, so no reader can
/// observe a flush half installed.
#[derive(Clone)]
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
    icmp: InternalKeyComparator,
    table_cache: Arc<TableCache>,
    state: Mutex<DbState>,
    versions: Mutex<VersionSet>,
    /// File-number and table-id allocator, shared with `versions` (which
    /// stamps its high-water marks into the MANIFEST): allocating takes no
    /// lock.
    ids: Arc<FileIds>,
    /// The current [`ReadView`]; a leaf lock, held for one `Arc` clone or swap.
    view: Mutex<Arc<ReadView>>,
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
    /// Structured-event destination, shared with the env's `IoStats` (which
    /// emits every barrier into it) and the version set (MANIFEST commits).
    sink: Arc<EventSink>,
    /// Monotonic flush ids pairing `FlushBegin`/`FlushEnd` events.
    flush_ids: AtomicU64,
    /// Monotonic compaction ids pairing `CompactionBegin`/`CompactionEnd`.
    compaction_ids: AtomicU64,
    /// Transactions the coordinator decided to commit, as known at open
    /// (read from the sharding layer's coordinator log), mapped to their
    /// decide order. Consulted only during WAL recovery, which replays
    /// markerless decided slices in that order.
    committed_txns: HashMap<u64, u64>,
    /// Highest transaction id seen in this shard's WALs during recovery;
    /// the sharding layer seeds its id allocator above it.
    recovered_max_txn: AtomicU64,
}

impl DbInner {
    fn view(&self) -> Arc<ReadView> {
        Arc::clone(&self.view.lock())
    }

    /// Publish the view `next` builds from the current one — the one place
    /// the tree's shape changes hands. `next` runs under `core.view`, so a
    /// memtable switch and a commit on another thread compose. `commit`
    /// calls this under `core.versions`, between `log_and_apply` and the
    /// reclaim decision: GC must find the outgoing version released.
    fn install_view(&self, next: impl FnOnce(&ReadView) -> ReadView) {
        let mut slot = self.view.lock();
        let new = Arc::new(next(&slot));
        let old = std::mem::replace(&mut *slot, new);
        drop(slot);
        drop(old); // off the lock: may free a whole memtable
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
    /// # Errors
    ///
    /// Returns I/O errors from the env and corruption errors from
    /// recovery.
    pub fn open(env: Arc<dyn Env>, name: &str, opts: Options) -> Result<Db> {
        Db::open_with_committed_txns(env, name, opts, Vec::new())
    }

    /// Open with the cross-shard transactions the coordinator committed
    /// (from the sharding layer's decide log), **in decide order**. WAL
    /// recovery applies prepared slices of committed transactions — using
    /// the decide order when their position markers were lost — and drops
    /// undecided ones; a plain [`Db::open`] passes the empty list.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env and corruption errors from
    /// recovery.
    pub fn open_with_committed_txns(
        env: Arc<dyn Env>,
        name: &str,
        opts: Options,
        committed_txns: Vec<u64>,
    ) -> Result<Db> {
        let committed_txns: HashMap<u64, u64> = committed_txns
            .into_iter()
            .enumerate()
            .map(|(ord, id)| (id, ord as u64))
            .collect();
        opts.validate()?;
        env.create_dir_all(name)?;
        let icmp = InternalKeyComparator::default();
        let read_opts = TableReadOptions {
            comparator: Arc::new(icmp.clone()),
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

        // Install the event sink before any recovery I/O so even the
        // barriers paid while opening are traced and cause-attributed.
        let sink = Arc::new(EventSink::new());
        env.stats().set_event_sink(Arc::clone(&sink));

        let mut versions = VersionSet::new(Arc::clone(&env), name, icmp.clone(), opts.num_levels);
        versions.set_event_sink(Arc::clone(&sink));
        // Pin the policy before the MANIFEST exists (create) or is replayed
        // (recover): a fresh database records it, an existing one refuses a
        // mismatch.
        versions.set_compaction_policy(opts.compaction_policy);
        let is_new = !env.file_exists(&current_file(name));
        if is_new {
            versions.create_new()?;
        } else {
            versions.recover()?;
        }

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
            icmp,
            table_cache,
            state: named_mutex("core.state", DbState::default()),
            ids: Arc::clone(versions.ids()),
            versions: named_mutex("core.versions", versions),
            view: named_mutex("core.view", Arc::new(view)),
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
            committed_txns,
            recovered_max_txn: AtomicU64::new(0),
        });

        inner.recover_wals()?;
        inner.start_fresh_wal()?;
        inner.delete_obsolete_files();

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
        let icmp = &self.inner.icmp;
        let ucmp = icmp.user_comparator();
        let mut total = 0u64;
        for (_, _, table) in version.all_tables() {
            if !table.overlaps(icmp, begin, end) {
                continue;
            }
            let fully_inside = ucmp.compare(table.smallest_user_key(), begin).is_ge()
                && ucmp.compare(table.largest_user_key(), end).is_lt();
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
    /// counters, per-level shape, queue-wait summary, and per-cause
    /// barrier counts — everything the old hand-stitched
    /// `stats()` + `env().stats()` + `level_info()` dance produced, plus
    /// the derived ratios, exportable as JSON or Prometheus text.
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
        }
    }

    /// Drain the structured-event ring: every event emitted since the last
    /// drain, oldest first. If more than the ring capacity accumulated
    /// between drains, the oldest are dropped (counted in
    /// [`MetricsSnapshot::events_dropped`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.sink.drain()
    }

    /// The structured-event sink itself, for callers that want to observe
    /// per-cause barrier counters without draining the ring.
    pub fn event_sink(&self) -> &Arc<EventSink> {
        &self.inner.sink
    }

    /// The environment this database runs on.
    pub fn env(&self) -> &Arc<dyn Env> {
        &self.inner.env
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
            let _scope = BarrierScope::new(BarrierCause::WalClose);
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
    use std::sync::{Condvar, Mutex, MutexGuard};

    use bolt_common::{Error, Result};
    pub(super) use bolt_env::{Env, MemEnv};
    use bolt_env::{RandomAccessFile, WritableFile};

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

    /// A [`MemEnv`] that logs its table-file reads and fails them on
    /// request (reads are not [`bolt_env::FaultEnv`] ops), and a gate for
    /// tests of the two background threads: it parks the thread that makes
    /// a chosen call — a compaction's n-th input read, a flush's first WAL
    /// unlink — until the test lets it go. Its hard links are real but it
    /// cannot count them (`link_count` is the trait's default, 1): the
    /// window between the reclaim executor's probe of an inode and its
    /// punch, held open.
    #[derive(Default)]
    pub(super) struct ReadFaultEnv {
        inner: MemEnv,
        faults: Arc<(Mutex<ReadFaults>, Condvar)>,
    }

    #[derive(Default)]
    struct ReadFaults {
        fail_all: bool,
        /// Reads left until the one that fails; 0 = none will.
        fail_in: u64,
        fail_table_creates: bool,
        /// Reads left until the one that parks at the gate; 0 = none will.
        hold_in: u64,
        hold_log_delete: bool,
        /// A thread is parked at the gate.
        held: bool,
        log: Vec<(String, u64, usize)>,
    }

    /// Park the calling thread at the gate until [`ReadFaultEnv::release`].
    fn park<'a>(
        gate: &Condvar,
        mut faults: MutexGuard<'a, ReadFaults>,
    ) -> MutexGuard<'a, ReadFaults> {
        faults.held = true;
        gate.notify_all();
        while faults.held {
            faults = gate.wait(faults).unwrap();
        }
        faults
    }

    impl ReadFaultEnv {
        fn faults(&self) -> MutexGuard<'_, ReadFaults> {
            self.faults.0.lock().unwrap()
        }

        /// Fail every creation of a table file: a flush or a compaction
        /// fails before it has written a byte.
        pub(super) fn set_fail_table_creates(&self, fail: bool) {
            self.faults().fail_table_creates = fail;
        }

        /// Park the thread that makes the `n`-th table-file read from now.
        pub(super) fn hold_read_in(&self, n: u64) {
            self.faults().hold_in = n;
        }

        /// Park the thread that next unlinks a WAL file: a flush past its
        /// commit, in its log sweep.
        pub(super) fn hold_log_delete(&self) {
            self.faults().hold_log_delete = true;
        }

        /// Block until a thread is parked at the gate.
        pub(super) fn wait_until_held(&self) {
            let mut faults = self.faults();
            while !faults.held {
                faults = self.faults.1.wait(faults).unwrap();
            }
        }

        /// Let the parked thread go on.
        pub(super) fn release(&self) {
            self.faults().held = false;
            self.faults.1.notify_all();
        }

        pub(super) fn set_fail_reads(&self, fail: bool) {
            self.faults().fail_all = fail;
        }

        /// Fail the `n`-th table-file read from now, and only that one.
        pub(super) fn fail_read_in(&self, n: u64) {
            self.faults().fail_in = n;
        }

        /// The table-file reads since the last call: (path, offset, length).
        pub(super) fn take_read_log(&self) -> Vec<(String, u64, usize)> {
            std::mem::take(&mut self.faults().log)
        }
    }

    struct ReadFaultFile {
        inner: Arc<dyn RandomAccessFile>,
        path: String,
        faults: Arc<(Mutex<ReadFaults>, Condvar)>,
    }

    impl RandomAccessFile for ReadFaultFile {
        fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            let fail = {
                let mut faults = self.faults.0.lock().unwrap();
                faults.log.push((self.path.clone(), offset, len));
                let hold = faults.hold_in == 1;
                faults.hold_in = faults.hold_in.saturating_sub(1);
                if hold {
                    faults = park(&self.faults.1, faults);
                }
                let nth = faults.fail_in == 1;
                faults.fail_in = faults.fail_in.saturating_sub(1);
                nth || faults.fail_all
            };
            if fail {
                return Err(Error::io("injected read error"));
            }
            self.inner.read(offset, len)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    impl Env for ReadFaultEnv {
        fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
            if path.ends_with(".sst") && self.faults().fail_table_creates {
                return Err(Error::io("injected create error"));
            }
            self.inner.new_writable_file(path)
        }
        fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
            self.inner.new_appendable_file(path)
        }
        fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
            let inner = self.inner.new_random_access_file(path)?;
            if !path.ends_with(".sst") {
                return Ok(inner);
            }
            Ok(Arc::new(ReadFaultFile {
                inner,
                path: path.to_string(),
                faults: Arc::clone(&self.faults),
            }))
        }
        fn file_exists(&self, path: &str) -> bool {
            self.inner.file_exists(path)
        }
        fn file_size(&self, path: &str) -> Result<u64> {
            self.inner.file_size(path)
        }
        fn delete_file(&self, path: &str) -> Result<()> {
            let mut faults = self.faults();
            if path.ends_with(".log") && std::mem::take(&mut faults.hold_log_delete) {
                faults = park(&self.faults.1, faults);
            }
            drop(faults);
            self.inner.delete_file(path)
        }
        fn rename_file(&self, from: &str, to: &str) -> Result<()> {
            self.inner.rename_file(from, to)
        }
        fn link_file(&self, src: &str, dst: &str) -> Result<()> {
            self.inner.link_file(src, dst)
        }
        fn create_dir_all(&self, path: &str) -> Result<()> {
            self.inner.create_dir_all(path)
        }
        fn list_dir(&self, dir: &str) -> Result<Vec<String>> {
            self.inner.list_dir(dir)
        }
        fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
            self.inner.punch_hole(path, offset, len)
        }
        fn stats(&self) -> &bolt_env::IoStats {
            self.inner.stats()
        }
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
