//! TableCache and the BoLT file-descriptor cache.
//!
//! LevelDB sizes its TableCache by *entry count* (`max_open_files`), not
//! bytes — so large SSTables get the same number of slots as small ones
//! while each miss re-reads a proportionally larger index block (§2.6).
//! BoLT additionally caches file handles **per compaction file** (§3.2.1):
//! one physical file hosts many logical SSTables, so a small fd cache
//! eliminates most filesystem metadata lookups.
//!
//! A miss costs one device read — the table's tail, whose length the
//! MANIFEST records ([`TableSpec::tail_bytes`]) — and a table the engine
//! just wrote costs none: [`TableCache::insert_built`] caches a reader made
//! from the index and filter its builder still holds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bolt_common::cache::LruCache;
use bolt_common::Result;
use bolt_env::{Env, RandomAccessFile};

use crate::builder::BuiltTable;
use crate::format::TableTail;
use crate::table::{BlockCache, Table, TableReadOptions};

/// Identity and location of one (logical) SSTable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Unique id of the logical table (MANIFEST-assigned, never reused).
    pub table_id: u64,
    /// Number of the physical file containing it.
    pub file_number: u64,
    /// Full path of the physical file.
    pub path: String,
    /// Byte offset of the table within the file.
    pub offset: u64,
    /// Byte size of the table.
    pub size: u64,
    /// Length of the table's tail (filter, index, footer) as its builder
    /// recorded it; 0 = unknown, which costs an open a second read.
    pub tail_bytes: u64,
}

/// The counters of one [`TableCache`] at an instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCacheSnapshot {
    /// Lookups served by a cached reader.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Tables opened from their file (one per miss, errors included).
    pub opens: u64,
    /// Device reads those opens issued: 1 each when the MANIFEST carries the
    /// tail length, 2 for a table recorded without it.
    pub open_reads: u64,
    /// Bytes those reads returned.
    pub open_bytes: u64,
    /// Readers cached straight from a table build, with no device read.
    pub warm_inserts: u64,
}

impl TableCacheSnapshot {
    /// Add `other`'s counters to this one (the sharded aggregate).
    pub fn accumulate(&mut self, other: &TableCacheSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.opens += other.opens;
        self.open_reads += other.open_reads;
        self.open_bytes += other.open_bytes;
        self.warm_inserts += other.warm_inserts;
    }

    /// Device reads per table open (0 before the first open).
    pub fn reads_per_open(&self) -> f64 {
        if self.opens == 0 {
            0.0
        } else {
            self.open_reads as f64 / self.opens as f64
        }
    }
}

// LruCache stores Arc<V>; for the fd cache V = dyn RandomAccessFile, which
// is unsized — wrap it in a sized entry.
struct FdEntry(Arc<dyn RandomAccessFile>);

/// Cache of open [`Table`]s (metadata in memory) plus an optional
/// per-physical-file descriptor cache.
pub struct TableCache {
    env: Arc<dyn Env>,
    tables: LruCache<u64, Table>,
    fds: Option<LruCache<u64, FdEntry>>,
    pub(crate) opts: TableReadOptions,
    open_count: AtomicU64,
    open_reads: AtomicU64,
    open_bytes: AtomicU64,
    warm_inserts: AtomicU64,
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("opens", &self.open_count.load(Ordering::Relaxed))
            .field("fd_cache", &self.fds.is_some())
            .finish()
    }
}

impl TableCache {
    /// Create a cache holding at most `max_open_tables` tables; when
    /// `fd_cache_capacity` is `Some(n)`, up to `n` physical-file handles are
    /// kept open across table opens (BoLT's `+FC`).
    pub fn new(
        env: Arc<dyn Env>,
        max_open_tables: u64,
        fd_cache_capacity: Option<u64>,
        opts: TableReadOptions,
    ) -> Self {
        TableCache {
            env,
            tables: LruCache::new(max_open_tables),
            fds: fd_cache_capacity.map(LruCache::new),
            opts,
            open_count: AtomicU64::new(0),
            open_reads: AtomicU64::new(0),
            open_bytes: AtomicU64::new(0),
            warm_inserts: AtomicU64::new(0),
        }
    }

    /// The handle of physical file `file_number` at `path`, through the fd
    /// cache if there is one.
    pub(crate) fn open_file(
        &self,
        file_number: u64,
        path: &str,
    ) -> Result<Arc<dyn RandomAccessFile>> {
        if let Some(fds) = &self.fds {
            if let Some(entry) = fds.get(&file_number) {
                return Ok(Arc::clone(&entry.0));
            }
            let file = self.env.new_random_access_file(path)?;
            fds.insert(file_number, Arc::new(FdEntry(Arc::clone(&file))), 1);
            Ok(file)
        } else {
            self.env.new_random_access_file(path)
        }
    }

    /// Fetch the open table `table_id`, or open and cache it — the one way
    /// to a [`Table`] through the cache. `spec` is called only on a miss: a
    /// hit is one LRU lookup and builds no [`TableSpec`] (no path string).
    ///
    /// # Errors
    ///
    /// Returns open/corruption errors from [`Table::open`].
    pub fn table(&self, table_id: u64, spec: impl FnOnce() -> TableSpec) -> Result<Arc<Table>> {
        if let Some(table) = self.tables.get(&table_id) {
            return Ok(table);
        }
        let spec = spec();
        debug_assert_eq!(spec.table_id, table_id);
        self.open_count.fetch_add(1, Ordering::Relaxed);
        let file = self.open_file(spec.file_number, &spec.path)?;
        let want_filter = self.opts.filter_policy.is_some();
        let tail = TableTail::read(
            file.as_ref(),
            spec.offset,
            spec.size,
            spec.tail_bytes,
            want_filter,
        )?;
        self.open_reads.fetch_add(tail.reads(), Ordering::Relaxed);
        self.open_bytes
            .fetch_add(tail.bytes_read(), Ordering::Relaxed);
        let opts = self.opts.clone();
        let table = Table::from_tail(file, spec.offset, spec.file_number, &tail, opts)?;
        let table = Arc::new(table);
        self.tables.insert(table_id, Arc::clone(&table), 1);
        Ok(table)
    }

    /// A reader for `built`, a table just written into physical file
    /// `file_number` at `path`, made from the index and filter contents its
    /// builder handed out (they move out of `built`): no device read, and
    /// the file handle comes through the fd cache. Not cached yet — the
    /// table has no id until its commit;
    /// [`insert_built`](Self::insert_built) publishes it then.
    ///
    /// # Errors
    ///
    /// Returns the env's error from opening the file, and
    /// [`bolt_common::Error::Corruption`] for a malformed index.
    pub fn reader_of_built(
        &self,
        file_number: u64,
        path: &str,
        built: &mut BuiltTable,
    ) -> Result<Arc<Table>> {
        let file = self.open_file(file_number, path)?;
        let (index, filter) = (std::mem::take(&mut built.index), built.filter.take());
        let opts = self.opts.clone();
        Table::from_parts(file, built.offset, file_number, index, filter, opts).map(Arc::new)
    }

    /// Cache `table` (from [`reader_of_built`](Self::reader_of_built)) as
    /// the open reader of `table_id`, now that the id is committed: the
    /// first lookup of a table the engine just wrote is a hit.
    pub fn insert_built(&self, table_id: u64, table: Arc<Table>) {
        self.warm_inserts.fetch_add(1, Ordering::Relaxed);
        self.tables.insert(table_id, table, 1);
    }

    /// Drop a table from the cache (after compaction invalidates it).
    pub fn evict(&self, table_id: u64) {
        self.tables.erase(&table_id);
    }

    /// Drop a cached file handle (after the physical file is deleted).
    pub fn evict_file(&self, file_number: u64) {
        if let Some(fds) = &self.fds {
            fds.erase(&file_number);
        }
    }

    /// Number of `Table::open` calls (TableCache misses).
    pub fn open_count(&self) -> u64 {
        self.open_count.load(Ordering::Relaxed)
    }

    /// The shared data-block cache the tables of this cache read through.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.opts.block_cache.as_ref()
    }

    /// Hit/miss counters of the table slot cache.
    pub fn stats(&self) -> &bolt_common::cache::CacheStats {
        self.tables.stats()
    }

    /// Every counter of this cache, read now.
    pub fn snapshot(&self) -> TableCacheSnapshot {
        TableCacheSnapshot {
            hits: self.tables.stats().hits(),
            misses: self.tables.stats().misses(),
            opens: self.open_count(),
            open_reads: self.open_reads.load(Ordering::Relaxed),
            open_bytes: self.open_bytes.load(Ordering::Relaxed),
            warm_inserts: self.warm_inserts.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FilterKey, TableBuilder, TableFormat};
    use crate::comparator::InternalKeyComparator;
    use crate::ikey::{lookup_key, make_internal_key, ValueType};
    use bolt_common::bloom::BloomFilterPolicy;
    use bolt_env::MemEnv;

    fn opts() -> TableReadOptions {
        TableReadOptions {
            comparator: Arc::new(InternalKeyComparator::default()),
            filter_policy: Some(BloomFilterPolicy::default()),
            filter_key: FilterKey::UserKey,
            block_cache: None,
        }
    }

    fn build(env: &Arc<dyn Env>, path: &str, tag: u32) -> (u64, u64) {
        let mut file = env.new_writable_file(path).unwrap();
        let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
        for i in 0..50u32 {
            let key = make_internal_key(format!("{tag}/k{i:04}").as_bytes(), 1, ValueType::Value);
            b.add(&key, b"v").unwrap();
        }
        let built = b.finish().unwrap();
        file.sync().unwrap();
        (built.offset, built.size)
    }

    fn spec(id: u64, file_number: u64, path: &str, offset: u64, size: u64) -> TableSpec {
        TableSpec {
            table_id: id,
            file_number,
            path: path.to_string(),
            offset,
            size,
            tail_bytes: 0,
        }
    }

    fn open(cache: &TableCache, spec: &TableSpec) -> Arc<Table> {
        cache.table(spec.table_id, || spec.clone()).unwrap()
    }

    #[test]
    fn caches_open_tables() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let (offset, size) = build(&env, "000001.ldb", 1);
        let cache = TableCache::new(Arc::clone(&env), 100, None, opts());
        let s = spec(1, 1, "000001.ldb", offset, size);
        let t1 = open(&cache, &s);
        let t2 = open(&cache, &s);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(cache.open_count(), 1);
    }

    #[test]
    fn capacity_bounds_open_tables() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut specs = Vec::new();
        for i in 0..64u64 {
            let path = format!("{i:06}.ldb");
            let (offset, size) = build(&env, &path, i as u32);
            specs.push(spec(i, i, &path, offset, size));
        }
        // Tiny cache: repeated round-robin access must keep re-opening.
        let cache = TableCache::new(Arc::clone(&env), 16, None, opts());
        for _ in 0..3 {
            for s in &specs {
                open(&cache, s);
            }
        }
        assert!(
            cache.open_count() > 64,
            "expected re-opens, got {}",
            cache.open_count()
        );
    }

    #[test]
    fn spec_is_built_only_on_a_miss() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let (offset, size) = build(&env, "000001.ldb", 1);
        let cache = TableCache::new(Arc::clone(&env), 100, None, opts());
        let s = spec(1, 1, "000001.ldb", offset, size);
        let calls = AtomicU64::new(0);
        let counted = || {
            calls.fetch_add(1, Ordering::Relaxed);
            s.clone()
        };
        let first = cache.table(1, counted).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one spec per miss");
        for _ in 0..10 {
            assert!(Arc::ptr_eq(&first, &cache.table(1, counted).unwrap()));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no spec on a hit");
        assert_eq!(cache.open_count(), 1);
        cache.evict(1);
        cache.table(1, counted).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn racing_misses_leave_one_cached_table() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let (offset, size) = build(&env, "000001.ldb", 1);
        let cache = TableCache::new(Arc::clone(&env), 100, None, opts());
        let s = spec(1, 1, "000001.ldb", offset, size);
        // Both threads are inside their spec callback — so both missed —
        // before either opens the table.
        let both_missed = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let spec = || {
                        both_missed.wait();
                        s.clone()
                    };
                    cache.table(1, spec).unwrap();
                });
            }
        });
        assert!(cache.open_count() <= 2, "{}", cache.open_count());
        let calls = AtomicU64::new(0);
        let counted = || {
            calls.fetch_add(1, Ordering::Relaxed);
            s.clone()
        };
        let (a, b) = (cache.table(1, counted), cache.table(1, counted));
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()), "one cached table");
        assert_eq!(calls.load(Ordering::Relaxed), 0, "both are hits");
    }

    #[test]
    fn evict_forces_reopen() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let (offset, size) = build(&env, "000001.ldb", 1);
        let cache = TableCache::new(Arc::clone(&env), 100, None, opts());
        let s = spec(1, 1, "000001.ldb", offset, size);
        open(&cache, &s);
        cache.evict(1);
        open(&cache, &s);
        assert_eq!(cache.open_count(), 2);
    }

    #[test]
    fn fd_cache_shares_handles_across_logical_tables() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        // Two logical tables in one physical file.
        let mut file = env.new_writable_file("000007.cf").unwrap();
        let mut builts = Vec::new();
        for t in 0..2u32 {
            let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
            for i in 0..20u32 {
                let key = make_internal_key(format!("{t}/k{i:04}").as_bytes(), 1, ValueType::Value);
                b.add(&key, b"v").unwrap();
            }
            builts.push(b.finish().unwrap());
        }
        file.sync().unwrap();
        drop(file);

        let cache = TableCache::new(Arc::clone(&env), 100, Some(10), opts());
        let s0 = spec(10, 7, "000007.cf", builts[0].offset, builts[0].size);
        let s1 = spec(11, 7, "000007.cf", builts[1].offset, builts[1].size);
        let t0 = open(&cache, &s0);
        let t1 = open(&cache, &s1);
        // Both tables work.
        assert!(t0
            .internal_get(&lookup_key(b"0/k0001", 100))
            .unwrap()
            .is_some());
        assert!(t1
            .internal_get(&lookup_key(b"1/k0001", 100))
            .unwrap()
            .is_some());
        cache.evict_file(7); // must not panic; handle drops when tables do
    }
}
