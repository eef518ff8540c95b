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
//!
//! A point lookup ([`TableCache::get`]) is served from the calling thread's
//! *stripe* (its reader slot's memo of table readers and data blocks) when
//! it can be, writing nothing another reader writes.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bolt_common::cache::{CacheNode, CacheStats, LruCache, Memo};
use bolt_common::sync::{named_mutex, Mutex, PerReader};
use bolt_common::Result;
use bolt_env::{Env, RandomAccessFile};

use crate::block::Block;
use crate::builder::BuiltTable;
use crate::format::{BlockHandle, TableTail};
use crate::table::{BlockCache, BlockCacheKey, Table, TableEntry, TableReadOptions};

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

bolt_common::counter_table! {
    /// The counters of one [`TableCache`] at an instant.
    pub struct TableCacheSnapshot;
    /// The counters a [`TableCache`] keeps itself (its hits and misses are
    /// its table LRU's, read when a snapshot is taken).
    pub struct TableCacheCounters {}
    read {
        /// Lookups served by a cached reader.
        hits => "bolt_table_cache_hits_total",
        /// Of those, the ones a reader's stripe served.
        stripe_hits => "bolt_table_cache_stripe_hits_total",
        /// Lookups that found none.
        misses => "bolt_table_cache_misses_total",
    }
    /// Tables opened from their file (one per miss, errors included).
    opens => "bolt_table_cache_opens_total",
    /// Device reads those opens issued: 1 each when the MANIFEST carries the
    /// tail length, 2 for a table recorded without it.
    open_reads => "bolt_table_cache_open_reads_total",
    /// Bytes those reads returned.
    open_bytes => "bolt_table_cache_open_bytes_total",
    /// Readers cached straight from a table build, with no device read.
    warm_inserts => "bolt_table_cache_warm_inserts_total",
}

impl TableCacheSnapshot {
    /// Device reads per table open (0 before the first open).
    pub fn reads_per_open(&self) -> f64 {
        if self.opens == 0 {
            0.0
        } else {
            self.open_reads as f64 / self.opens as f64
        }
    }
}

bolt_common::counter_table! {
    /// The counters of the data-block cache a [`TableCache`]'s tables read
    /// through, at an instant.
    pub struct BlockCacheSnapshot;
    /// The counter a [`TableCache`] keeps of its block cache (the others
    /// are read from the cache's shards when a snapshot is taken).
    pub struct BlockCacheCounters {}
    read {
        /// Block lookups served from the cache.
        hits => "bolt_block_cache_hits_total",
        /// Of those, the ones a reader's stripe served.
        stripe_hits => "bolt_block_cache_stripe_hits_total",
        /// Block lookups that went to the file.
        misses => "bolt_block_cache_misses_total",
        /// Blocks evicted to make room.
        evictions => "bolt_block_cache_evictions_total",
        /// Bytes of blocks held.
        usage => "bolt_block_cache_usage_bytes" as gauge,
    }
    /// Blocks cached straight from a flush or compaction output at its
    /// commit, with no device read.
    warm_inserts => "bolt_block_cache_warm_inserts_total",
}

// LruCache stores Arc<V>; for the fd cache V = dyn RandomAccessFile, which
// is unsized — wrap it in a sized entry.
struct FdEntry(Arc<dyn RandomAccessFile>);

/// Table readers a stripe memoizes.
const STRIPE_TABLES: usize = 16;
/// Data blocks a stripe memoizes: all stripes keep at most 8 × 64 blocks
/// alive past the block cache, 2 MiB at 4 KiB blocks.
const STRIPE_BLOCKS: usize = 64;

/// A reader slot's memos, and the buffer its seeks decode keys into.
struct Stripe {
    tables: Memo<u64, Table>,
    blocks: Memo<BlockCacheKey, Block>,
    scratch: Vec<u8>,
}

/// How far a lookup got in a stripe.
enum Probe<'a> {
    /// The stripe held all it needed: the lookup's outcome.
    Served(Result<Option<TableEntry>>),
    /// The stripe holds the table, but not the data block at the handle.
    Table(&'a Arc<CacheNode<Table>>, BlockHandle),
    /// The stripe does not hold the table.
    Miss,
}

impl Stripe {
    fn new() -> Self {
        Stripe {
            tables: Memo::new(STRIPE_TABLES),
            blocks: Memo::new(STRIPE_BLOCKS),
            scratch: Vec::new(),
        }
    }

    /// The hit path: bloom, index seek and block seek on the memoized
    /// reader and block. No lock, no device read, no shared count.
    fn serve(&mut self, table_id: u64, key: &[u8]) -> Probe<'_> {
        let Some(node) = self.tables.get(&table_id) else {
            return Probe::Miss;
        };
        let table = node.value();
        let handle = match table.data_handle(key, &mut self.scratch) {
            Ok(Some(handle)) => handle,
            other => return Probe::Served(other.map(|_| None)),
        };
        match self.blocks.get(&table.block_key(handle)) {
            Some(block) => Probe::Served(table.entry_in(block.value(), key, &mut self.scratch)),
            None => Probe::Table(node, handle),
        }
    }
}

/// Cache of open [`Table`]s (metadata in memory) plus an optional
/// per-physical-file descriptor cache, with a stripe per reader slot in
/// front of it and of the block cache.
pub struct TableCache {
    env: Arc<dyn Env>,
    tables: LruCache<u64, Table>,
    fds: Option<LruCache<u64, FdEntry>>,
    stripes: PerReader<Stripe>,
    pub(crate) opts: TableReadOptions,
    counters: TableCacheCounters,
    block_counters: BlockCacheCounters,
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("opens", &self.open_count())
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
            stripes: PerReader::new(|| named_mutex("table.cache_stripe", Stripe::new())),
            opts,
            counters: TableCacheCounters::default(),
            block_counters: BlockCacheCounters::default(),
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
        Ok(Arc::clone(self.table_node(table_id, spec)?.value()))
    }

    /// [`table`](Self::table), as the cache node a stripe memoizes.
    fn table_node(
        &self,
        table_id: u64,
        spec: impl FnOnce() -> TableSpec,
    ) -> Result<Arc<CacheNode<Table>>> {
        if let Some(table) = self.tables.get_node(&table_id) {
            return Ok(table);
        }
        let spec = spec();
        debug_assert_eq!(spec.table_id, table_id);
        self.counters.opens.fetch_add(1, Ordering::Relaxed);
        let file = self.open_file(spec.file_number, &spec.path)?;
        let want_filter = self.opts.filter_policy.is_some();
        let tail = TableTail::read(
            file.as_ref(),
            spec.offset,
            spec.size,
            spec.tail_bytes,
            want_filter,
        )?;
        let counters = &self.counters;
        counters
            .open_reads
            .fetch_add(tail.reads(), Ordering::Relaxed);
        counters
            .open_bytes
            .fetch_add(tail.bytes_read(), Ordering::Relaxed);
        let opts = self.opts.clone();
        let table = Table::from_tail(file, spec.offset, spec.file_number, &tail, opts)?;
        Ok(self.tables.insert(table_id, Arc::new(table), 1))
    }

    /// The entry of lookup key `key`'s user key at or below its sequence in
    /// table `table_id` — a get's one entry point. What the stripe lacks
    /// comes through the shared caches with the stripe released (`spec`
    /// runs on a table-cache miss only), and is memoized after.
    ///
    /// # Errors
    ///
    /// Returns open, read and corruption errors.
    pub fn get(
        &self,
        table_id: u64,
        spec: impl FnOnce() -> TableSpec,
        key: &[u8],
    ) -> Result<Option<TableEntry>> {
        let (memoized, mut scratch) = {
            let mut stripe = self.stripe().lock();
            let memoized = match stripe.serve(table_id, key) {
                Probe::Served(found) => return found,
                Probe::Table(node, handle) => Some((Arc::clone(node), handle)),
                Probe::Miss => None,
            };
            (memoized, std::mem::take(&mut stripe.scratch))
        };
        let (table, handle, new_table) = match memoized {
            Some((node, handle)) => (node, Some(handle), false),
            None => {
                let node = self.table_node(table_id, spec)?;
                let handle = node.value().data_handle(key, &mut scratch)?;
                (node, handle, true)
            }
        };
        let reader = table.value();
        let block = match handle {
            Some(handle) => Some((reader.block_key(handle), reader.read_data_block(handle)?)),
            None => None,
        };
        let found = match &block {
            Some((_, node)) => reader.entry_in(node.value(), key, &mut scratch),
            None => Ok(None),
        };
        let displaced = {
            let mut stripe = self.stripe().lock();
            stripe.scratch = scratch;
            let table = new_table
                .then(|| stripe.tables.fill(table_id, table))
                .flatten();
            let block = block.and_then(|(key, node)| stripe.blocks.fill(key, node));
            (table, block)
        };
        drop(displaced); // off the stripe: may be a cached value's last reference
        found
    }

    /// The calling thread's stripe.
    fn stripe(&self) -> &Mutex<Stripe> {
        self.stripes.mine()
    }

    /// Hits the stripes served: of table readers, and of data blocks.
    fn stripe_hits(&self) -> (u64, u64) {
        self.stripes.all().fold((0, 0), |(tables, blocks), stripe| {
            let stripe = stripe.lock();
            (tables + stripe.tables.hits(), blocks + stripe.blocks.hits())
        })
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
    /// the open reader of `table_id`, and `blocks`, data blocks its builder
    /// framed ([`TableBuilder::keeping_blocks`]), in the block cache under
    /// the keys a read of them uses, now that the id is committed: the
    /// first lookup of a table the engine just wrote is a hit, and so is a
    /// read of a block it kept.
    ///
    /// [`TableBuilder::keeping_blocks`]: crate::TableBuilder::keeping_blocks
    pub fn insert_built(
        &self,
        table_id: u64,
        table: Arc<Table>,
        blocks: impl IntoIterator<Item = (BlockHandle, Arc<Block>)>,
    ) {
        if let Some(cache) = self.block_cache() {
            for (handle, block) in blocks {
                let charge = block.size() as u64;
                cache.insert(table.block_key(handle), block, charge);
                self.block_counters
                    .warm_inserts
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.counters.warm_inserts.fetch_add(1, Ordering::Relaxed);
        self.tables.insert(table_id, table, 1);
    }

    /// The data blocks the block cache holds of the tables at `spans`, each
    /// a physical file's number and a byte range in it, found without a
    /// lookup: no hit or miss is counted and no entry is promoted.
    pub fn cached_blocks(&self, spans: &[(u64, Range<u64>)]) -> Vec<Arc<Block>> {
        let Some(cache) = self.block_cache() else {
            return Vec::new();
        };
        cache.values_where(|(file, at)| {
            (spans.iter()).any(|(of, span)| of == file && span.contains(at))
        })
    }

    /// Drop a table from the cache (after compaction invalidates it), and
    /// from every stripe: a stripe's reader would hold the file open.
    pub fn evict(&self, table_id: u64) {
        self.tables.erase(&table_id);
        let forgotten: Vec<_> = self
            .stripes
            .all()
            .filter_map(|stripe| stripe.lock().tables.forget(&table_id))
            .collect();
        drop(forgotten); // off the stripes
    }

    /// Drop a cached file handle (after the physical file is deleted).
    pub fn evict_file(&self, file_number: u64) {
        if let Some(fds) = &self.fds {
            fds.erase(&file_number);
        }
    }

    /// Number of `Table::open` calls (TableCache misses).
    pub fn open_count(&self) -> u64 {
        self.counters.opens()
    }

    /// The shared data-block cache the tables of this cache read through.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.opts.block_cache.as_ref()
    }

    /// Hit/miss counters of the table slot cache, the stripes' hits
    /// included.
    pub fn stats(&self) -> CacheStats {
        self.tables.stats().with_memo_hits(self.stripe_hits().0)
    }

    /// Every counter of this cache, read now.
    pub fn snapshot(&self) -> TableCacheSnapshot {
        let stats = self.tables.stats();
        let stripe_hits = self.stripe_hits().0;
        self.counters
            .snapshot(stats.hits() + stripe_hits, stripe_hits, stats.misses())
    }

    /// The block cache's counters, read now (all zero without one), the
    /// stripes' hits included.
    pub fn block_cache_snapshot(&self) -> BlockCacheSnapshot {
        self.block_cache()
            .map_or_else(BlockCacheSnapshot::default, |blocks| {
                let stats = blocks.stats();
                let stripe_hits = self.stripe_hits().1;
                self.block_counters.snapshot(
                    stats.hits() + stripe_hits,
                    stripe_hits,
                    stats.misses(),
                    stats.evictions(),
                    blocks.usage(),
                )
            })
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
    use std::sync::atomic::AtomicU64;

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

    /// A table of `n` keys `{tag}/k0000`… whose values are `value` padded to
    /// 64 bytes: at 4 KiB data blocks, about 60 keys a block.
    fn build_valued(env: &Arc<dyn Env>, path: &str, tag: u32, n: u32, value: &[u8]) -> TableSpec {
        let mut file = env.new_writable_file(path).unwrap();
        let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
        let mut padded = value.to_vec();
        padded.resize(64, b'.');
        for i in 0..n {
            let key = make_internal_key(format!("{tag}/k{i:04}").as_bytes(), 1, ValueType::Value);
            b.add(&key, &padded).unwrap();
        }
        let built = b.finish().unwrap();
        file.sync().unwrap();
        spec(
            u64::from(tag),
            u64::from(tag),
            path,
            built.offset,
            built.size,
        )
    }

    fn with_blocks(bytes: u64) -> TableReadOptions {
        TableReadOptions {
            block_cache: Some(Arc::new(LruCache::new(bytes))),
            ..opts()
        }
    }

    /// The value `get` finds for `{tag}/k{i}` through `cache`, as built.
    fn value_of(cache: &TableCache, s: &TableSpec, tag: u32, i: u32) -> Vec<u8> {
        let key = lookup_key(format!("{tag}/k{i:04}").as_bytes(), 100);
        let entry = cache
            .get(s.table_id, || s.clone(), &key)
            .unwrap()
            .expect("found");
        assert_eq!((entry.sequence, entry.value_type), (1, ValueType::Value));
        entry.value
    }

    /// `(table hits, of them stripe hits, table misses, block hits, of them
    /// stripe hits, block misses)`.
    fn counts(cache: &TableCache) -> [u64; 6] {
        let (t, b) = (cache.snapshot(), cache.block_cache_snapshot());
        [
            t.hits,
            t.stripe_hits,
            t.misses,
            b.hits,
            b.stripe_hits,
            b.misses,
        ]
    }

    #[test]
    fn a_repeat_get_is_served_by_the_stripe() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let s = build_valued(&env, "000001.ldb", 1, 50, b"v");
        let cache = TableCache::new(Arc::clone(&env), 10, None, with_blocks(1 << 20));
        assert!(value_of(&cache, &s, 1, 7).starts_with(b"v."));
        assert_eq!(counts(&cache), [0, 0, 1, 0, 0, 1]);
        let reads = env.stats().snapshot().read_ops;
        for _ in 0..10 {
            value_of(&cache, &s, 1, 7);
        }
        assert_eq!(counts(&cache), [10, 10, 1, 10, 10, 1]);
        assert_eq!(env.stats().snapshot().read_ops, reads, "no device read");
        // A key the table lacks: a stripe hit on the table, no entry.
        let absent = lookup_key(b"1/k0007x", 100);
        assert!(cache.get(1, || s.clone(), &absent).unwrap().is_none());
        assert_eq!(cache.stats().hits(), 11);
    }

    /// After an eviction, an erase or a replace, the next get through the
    /// stripe is a lookup the shared cache counts, and reads what the
    /// cache holds now.
    #[test]
    fn a_stripe_serves_nothing_the_caches_let_go() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let one = build_valued(&env, "000001.ldb", 1, 50, b"one");
        let two = build_valued(&env, "000002.ldb", 2, 50, b"two");
        // One table slot, and one block cache shard that holds one block.
        let cache = TableCache::new(Arc::clone(&env), 1, None, with_blocks(1));
        value_of(&cache, &one, 1, 3);
        value_of(&cache, &one, 1, 3);
        assert_eq!(counts(&cache), [1, 1, 1, 1, 1, 1]);

        // Evicted: `two` takes the one table slot and the block cache.
        value_of(&cache, &two, 2, 3);
        assert!(value_of(&cache, &one, 1, 3).starts_with(b"one"));
        assert_eq!(counts(&cache), [1, 1, 3, 1, 1, 3], "counted misses");
        assert_eq!(cache.open_count(), 3);

        // Erased: and no stripe keeps the reader (or its file) alive.
        let held = Arc::downgrade(&cache.table(1, || one.clone()).unwrap());
        cache.evict(1);
        assert!(held.upgrade().is_none(), "a stripe still holds the reader");
        assert!(value_of(&cache, &one, 1, 3).starts_with(b"one"));
        assert_eq!(counts(&cache)[..3], [2, 1, 4]);

        // Replaced: id 1 now names a reader of the other file.
        let file = env.new_random_access_file("000002.ldb").unwrap();
        let other = Table::open(file, two.offset, two.size, 2, cache.opts.clone()).unwrap();
        cache.insert_built(1, Arc::new(other), []);
        let key = lookup_key(b"2/k0003", 100);
        let entry = cache.get(1, || one.clone(), &key).unwrap().unwrap();
        assert!(entry.value.starts_with(b"two"));
        assert_eq!(
            counts(&cache)[..3],
            [3, 1, 4],
            "a shard hit, not a stripe hit"
        );
        assert_eq!(cache.open_count(), 4);
    }

    /// More readers than stripes over a block cache far smaller than what
    /// they read: the blocks the stripes keep alive after the cache let
    /// them go are at most `STRIPE_BLOCKS` a stripe, and their bytes within
    /// `READER_SLOTS × STRIPE_BLOCKS` blocks.
    #[test]
    fn stripes_hold_at_most_their_bound_of_evicted_blocks() {
        use bolt_common::sync::READER_SLOTS;
        const KEYS: u32 = 4_000;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let s = build_valued(&env, "000001.ldb", 1, KEYS, b"v");
        let cache = TableCache::new(Arc::clone(&env), 10, None, with_blocks(16 << 10));
        std::thread::scope(|scope| {
            for t in 0..READER_SLOTS as u32 + 2 {
                let (cache, s) = (&cache, &s);
                scope.spawn(move || {
                    for i in 0..3_000u32 {
                        value_of(cache, s, 1, (t * 997 + i * 61) % KEYS);
                    }
                });
            }
        });
        let (mut blocks, mut bytes, mut largest) = (0, 0, 0);
        for stripe in cache.stripes.all() {
            let stripe = stripe.lock();
            let held: Vec<usize> = stripe.blocks.detached().map(Block::size).collect();
            assert!(held.len() <= STRIPE_BLOCKS, "{}", held.len());
            assert!(stripe.tables.detached().count() <= STRIPE_TABLES);
            blocks += held.len();
            bytes += held.iter().sum::<usize>();
            largest = largest.max(held.iter().copied().max().unwrap_or(0));
        }
        assert!(
            blocks > STRIPE_BLOCKS,
            "the test evicts memoized blocks: {blocks}"
        );
        assert!(largest <= 4096 + 128, "{largest}");
        assert!(
            bytes <= READER_SLOTS * STRIPE_BLOCKS * (4096 + 128),
            "{bytes}"
        );
        let b = cache.block_cache_snapshot();
        assert_eq!(b.hits + b.misses, (READER_SLOTS as u64 + 2) * 3_000);
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
