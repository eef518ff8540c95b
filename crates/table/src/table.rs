//! SSTable reader.
//!
//! A [`Table`] is addressed by `(file, base offset, size)`, so the *same*
//! reader serves a standalone `.ldb` file (stock LevelDB) and a logical
//! SSTable living inside a BoLT compaction file. Opening a table fetches its
//! tail — bloom filter, index block and footer, which the builder lays back
//! to back — in **one** device read when the MANIFEST supplied the tail's
//! length and two when it did not ([`TableTail`]); a table this process just
//! built is opened from the contents its builder still holds, with no read
//! at all ([`Table::from_parts`]). That "metadata" is proportional to the
//! table size, and its cache-miss penalty drives the paper's §2.6 analysis.

use std::sync::{Arc, OnceLock};

use bolt_common::bloom::BloomFilterPolicy;
use bolt_common::cache::{CacheNode, LruCache};
use bolt_common::Result;
use bolt_env::RandomAccessFile;

use crate::block::{Block, BlockIter};
use crate::builder::FilterKey;
use crate::comparator::Comparator;
use crate::format::{read_block, BlockHandle, TableTail, FOOTER_SIZE};
use crate::ikey::{extract_user_key, parse_internal_key, SequenceNumber, ValueType};
use crate::rangedel::RangeTombstone;

/// Key of a cached block: `(cache id, absolute offset in file)`.
pub type BlockCacheKey = (u64, u64);

/// Shared cache of decoded data blocks, charged by byte size.
pub type BlockCache = LruCache<BlockCacheKey, Block>;

/// What a point lookup found in a table for its user key: the entry's
/// sequence, type and value — not its key, which is the lookup's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// The entry's sequence number.
    pub sequence: SequenceNumber,
    /// The entry's type.
    pub value_type: ValueType,
    /// The entry's value.
    pub value: Vec<u8>,
}

/// Read-side configuration shared by all tables of a database.
#[derive(Clone)]
pub struct TableReadOptions {
    /// Key order (must match the builder's input order).
    pub comparator: Arc<dyn Comparator>,
    /// Bloom policy used at build time (`None` = ignore filter blocks).
    pub filter_policy: Option<BloomFilterPolicy>,
    /// What the filter hashes (must match the builder).
    pub filter_key: FilterKey,
    /// Shared data-block cache (`None` = read through).
    pub block_cache: Option<Arc<BlockCache>>,
}

impl std::fmt::Debug for TableReadOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableReadOptions")
            .field("comparator", &self.comparator.name())
            .field("has_filter", &self.filter_policy.is_some())
            .field("has_block_cache", &self.block_cache.is_some())
            .finish()
    }
}

/// An open (logical) SSTable.
pub struct Table {
    file: Arc<dyn RandomAccessFile>,
    base: u64,
    cache_id: u64,
    index: Arc<Block>,
    filter: Option<Vec<u8>>,
    opts: TableReadOptions,
    /// The shortest key the order compares, read from it once.
    min_key_len: usize,
    metadata_bytes: usize,
    /// Range tombstones found in the table, scanned once on first use.
    tombstones: OnceLock<Arc<Vec<RangeTombstone>>>,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("base", &self.base)
            .field("cache_id", &self.cache_id)
            .field("metadata_bytes", &self.metadata_bytes)
            .finish()
    }
}

impl Table {
    /// Open the table spanning `[base, base + size)` of `file` without
    /// knowing the length of its tail: two device reads.
    ///
    /// `cache_id` must be unique per physical file (block-cache keying).
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::Corruption`] for malformed footers/blocks and I/O
    /// errors from the file.
    pub fn open(
        file: Arc<dyn RandomAccessFile>,
        base: u64,
        size: u64,
        cache_id: u64,
        opts: TableReadOptions,
    ) -> Result<Table> {
        Table::open_with_tail(file, base, size, 0, cache_id, opts)
    }

    /// [`open`](Self::open) given `tail_bytes`, the tail length the table's
    /// builder recorded (0 = unknown): one device read when it is right,
    /// two when it is not — see [`TableTail::read`].
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open).
    pub fn open_with_tail(
        file: Arc<dyn RandomAccessFile>,
        base: u64,
        size: u64,
        tail_bytes: u64,
        cache_id: u64,
        opts: TableReadOptions,
    ) -> Result<Table> {
        let want_filter = opts.filter_policy.is_some();
        let tail = TableTail::read(file.as_ref(), base, size, tail_bytes, want_filter)?;
        Table::from_tail(file, base, cache_id, &tail, opts)
    }

    /// The reader of the table at `base` whose `tail` is already in memory;
    /// [`bolt_common::Error::Corruption`] for blocks that fail verification.
    pub(crate) fn from_tail(
        file: Arc<dyn RandomAccessFile>,
        base: u64,
        cache_id: u64,
        tail: &TableTail,
        opts: TableReadOptions,
    ) -> Result<Table> {
        let index = tail.index()?.to_vec();
        let filter = tail.filter()?.map(<[u8]>::to_vec);
        Table::from_parts(file, base, cache_id, index, filter, opts)
    }

    /// The reader of the table at `base` from the `index` and `filter`
    /// block contents themselves — what a [`TableBuilder`] hands out in
    /// [`BuiltTable`], so a table just written is opened without reading
    /// it back.
    ///
    /// [`TableBuilder`]: crate::TableBuilder
    /// [`BuiltTable`]: crate::BuiltTable
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::Corruption`] for a malformed index block.
    pub fn from_parts(
        file: Arc<dyn RandomAccessFile>,
        base: u64,
        cache_id: u64,
        index: Vec<u8>,
        filter: Option<Vec<u8>>,
        opts: TableReadOptions,
    ) -> Result<Table> {
        // As on disk, where a zero-size handle means "no filter block".
        let filter = filter.filter(|f| opts.filter_policy.is_some() && !f.is_empty());
        let metadata_bytes = FOOTER_SIZE + index.len() + filter.as_ref().map_or(0, Vec::len);
        Ok(Table {
            file,
            base,
            cache_id,
            index: Arc::new(Block::new(index)?),
            filter,
            min_key_len: opts.comparator.min_key_len(),
            opts,
            metadata_bytes,
            tombstones: OnceLock::new(),
        })
    }

    /// Bytes of footer + index + filter contents an open brings into
    /// memory (the TableCache miss penalty).
    pub fn metadata_size(&self) -> usize {
        self.metadata_bytes
    }

    fn filter_matches(&self, key: &[u8]) -> bool {
        let (Some(policy), Some(filter)) = (&self.opts.filter_policy, &self.filter) else {
            return true;
        };
        let probe = match self.opts.filter_key {
            FilterKey::UserKey => extract_user_key(key),
            FilterKey::WholeKey => key,
        };
        policy.key_may_match(probe, filter)
    }

    /// The data block at `handle` as a block-cache node — read and inserted
    /// on a miss — or, for a table that reads through, as a node no cache
    /// holds.
    pub(crate) fn read_data_block(&self, handle: BlockHandle) -> Result<Arc<CacheNode<Block>>> {
        let read = || -> Result<Arc<Block>> {
            let contents = read_block(self.file.as_ref(), self.base, handle)?;
            Ok(Arc::new(Block::new(contents)?))
        };
        let Some(cache) = &self.opts.block_cache else {
            return read().map(CacheNode::detached);
        };
        let cache_key = self.block_key(handle);
        if let Some(block) = cache.get_node(&cache_key) {
            return Ok(block);
        }
        let block = read()?;
        let charge = block.size() as u64;
        Ok(cache.insert(cache_key, block, charge))
    }

    /// The block-cache key of the data block at `handle`.
    pub(crate) fn block_key(&self, handle: BlockHandle) -> BlockCacheKey {
        (self.cache_id, self.base + handle.offset)
    }

    /// The handle of the data block a lookup of `key` must search; `None`
    /// when the table cannot contain the key (filter miss or past the end).
    /// The index key the seek lands on is decoded into `scratch`.
    pub(crate) fn data_handle(
        &self,
        key: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<Option<BlockHandle>> {
        if !self.filter_matches(key) {
            return Ok(None);
        }
        let cmp = self.opts.comparator.as_ref();
        let Some(handle) = self.index.seek(cmp, key, scratch)? else {
            return Ok(None);
        };
        Ok(Some(BlockHandle::decode_from(handle)?.0))
    }

    /// The entry of internal lookup key `key`'s user key in `block`, the
    /// data block [`data_handle`](Self::data_handle) named: the first entry
    /// at or after `key`, if it has that user key. Its key is decoded into
    /// `scratch` and not copied out.
    pub(crate) fn entry_in(
        &self,
        block: &Block,
        key: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Result<Option<TableEntry>> {
        let cmp = self.opts.comparator.as_ref();
        let Some(value) = block.seek(cmp, key, scratch)? else {
            return Ok(None);
        };
        let found = parse_internal_key(scratch)?;
        if found.user_key != extract_user_key(key) {
            return Ok(None);
        }
        Ok(Some(TableEntry {
            sequence: found.sequence,
            value_type: found.value_type,
            value: value.to_vec(),
        }))
    }

    /// Point lookup: the first entry with key >= `key` (typically an
    /// internal lookup key). Returns `None` when the table cannot contain
    /// the key (filter miss or past the end). The engine's gets go through
    /// [`TableCache::get`](crate::TableCache::get), which serves a repeat
    /// from the reader's stripe.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::Corruption`] or I/O errors from block reads.
    pub fn internal_get(&self, key: &[u8]) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let mut found = Vec::new();
        let Some(handle) = self.data_handle(key, &mut found)? else {
            return Ok(None);
        };
        let block = self.read_data_block(handle)?;
        let value = block
            .value()
            .seek(self.opts.comparator.as_ref(), key, &mut found)?;
        Ok(value.map(|value| (found, value.to_vec())))
    }

    /// The range tombstones stored in this table. The first call scans the
    /// whole table and memoizes the result; tables are immutable, so the
    /// scan happens at most once per open reader.
    ///
    /// # Errors
    ///
    /// Returns block-read errors from the scan.
    pub fn range_tombstones(self: &Arc<Self>) -> Result<Arc<Vec<RangeTombstone>>> {
        if let Some(cached) = self.tombstones.get() {
            return Ok(Arc::clone(cached));
        }
        let mut found = Vec::new();
        let mut iter = self.iter();
        iter.seek_to_first()?;
        while iter.valid() {
            let parsed = parse_internal_key(iter.key())?;
            if parsed.value_type == ValueType::RangeTombstone {
                found.push(RangeTombstone {
                    begin: parsed.user_key.to_vec(),
                    end: iter.value().to_vec(),
                    sequence: parsed.sequence,
                });
            }
            iter.next()?;
        }
        let found = Arc::new(found);
        Ok(Arc::clone(self.tombstones.get_or_init(|| found)))
    }

    /// Create a two-level iterator over the whole table: two reference
    /// counts (the table's and its index block's); seeks borrow the
    /// table's comparator.
    pub fn iter(self: &Arc<Self>) -> TableIter {
        TableIter {
            table: Arc::clone(self),
            index_iter: self.index.iter(self.min_key_len),
            data_iter: None,
        }
    }
}

/// Two-level iterator: index block → data blocks.
pub struct TableIter {
    table: Arc<Table>,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
}

impl std::fmt::Debug for TableIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableIter")
            .field("valid", &self.valid())
            .finish()
    }
}

impl TableIter {
    fn load_data_block(&mut self) -> Result<()> {
        if !self.index_iter.valid() {
            self.data_iter = None;
            return Ok(());
        }
        let (handle, _) = BlockHandle::decode_from(self.index_iter.value())?;
        let block = self.table.read_data_block(handle)?;
        self.data_iter = Some(block.value().iter(self.table.min_key_len));
        Ok(())
    }

    /// `true` when positioned on an entry.
    #[inline]
    pub fn valid(&self) -> bool {
        self.data_iter.as_ref().is_some_and(|it| it.valid())
    }

    /// Current key.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    #[inline]
    pub fn key(&self) -> &[u8] {
        self.data_iter.as_ref().expect("positioned").key()
    }

    /// Current value.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    #[inline]
    pub fn value(&self) -> &[u8] {
        self.data_iter.as_ref().expect("positioned").value()
    }

    /// Position at the first entry.
    ///
    /// # Errors
    ///
    /// Returns block-read errors.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.index_iter.seek_to_first()?;
        self.load_data_block()?;
        if let Some(it) = self.data_iter.as_mut() {
            it.seek_to_first()?;
        }
        self.skip_empty_blocks_forward()
    }

    /// Position at the first entry with key >= `target`.
    ///
    /// # Errors
    ///
    /// Returns block-read errors.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        let cmp = self.table.opts.comparator.as_ref();
        self.index_iter.seek(cmp, target)?;
        self.load_data_block()?;
        if let Some(it) = self.data_iter.as_mut() {
            it.seek(self.table.opts.comparator.as_ref(), target)?;
        }
        self.skip_empty_blocks_forward()
    }

    /// Advance to the next entry.
    ///
    /// # Errors
    ///
    /// Returns block-read errors.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    #[allow(clippy::should_implement_trait)] // LevelDB-style fallible cursor
    pub fn next(&mut self) -> Result<()> {
        self.data_iter.as_mut().expect("positioned").next()?;
        self.skip_empty_blocks_forward()
    }

    fn skip_empty_blocks_forward(&mut self) -> Result<()> {
        while self.data_iter.as_ref().is_some_and(|it| !it.valid()) {
            if !self.index_iter.valid() {
                self.data_iter = None;
                return Ok(());
            }
            self.index_iter.next()?;
            self.load_data_block()?;
            if let Some(it) = self.data_iter.as_mut() {
                it.seek_to_first()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{TableBuilder, TableFormat};
    use crate::comparator::InternalKeyComparator;
    use crate::ikey::{lookup_key, make_internal_key, ValueType};
    use bolt_env::{Env, MemEnv};

    fn read_options(block_cache: Option<Arc<BlockCache>>) -> TableReadOptions {
        TableReadOptions {
            comparator: Arc::new(InternalKeyComparator::default()),
            filter_policy: Some(BloomFilterPolicy::default()),
            filter_key: FilterKey::UserKey,
            block_cache,
        }
    }

    /// `n` entries in file `path`, after some bytes of an earlier table;
    /// returns what the builder reported.
    fn build_file(env: &MemEnv, path: &str, n: u32) -> crate::BuiltTable {
        let mut file = env.new_writable_file(path).unwrap();
        file.append(b"an earlier logical table").unwrap();
        let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        for i in 0..n {
            let key = make_internal_key(format!("key{i:06}").as_bytes(), 10, ValueType::Value);
            builder.add(&key, format!("value{i}").as_bytes()).unwrap();
        }
        let built = builder.finish().unwrap();
        file.sync().unwrap();
        built
    }

    fn build_table(env: &MemEnv, path: &str, n: u32) -> (Arc<Table>, u64) {
        let built = build_file(env, path, n);
        let file = env.new_random_access_file(path).unwrap();
        let table = Table::open(file, built.offset, built.size, 1, read_options(None)).unwrap();
        (Arc::new(table), built.size)
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let env = MemEnv::new();
        let (table, _) = build_table(&env, "t", 1000);
        for i in (0..1000u32).step_by(97) {
            let lk = lookup_key(format!("key{i:06}").as_bytes(), 100);
            let (k, v) = table.internal_get(&lk).unwrap().expect("found");
            assert_eq!(extract_user_key(&k), format!("key{i:06}").as_bytes());
            assert_eq!(v, format!("value{i}").as_bytes());
        }
        // Absent key: filter or seek rejects it.
        let lk = lookup_key(b"zzz-absent", 100);
        assert!(table.internal_get(&lk).unwrap().is_none());
    }

    #[test]
    fn lookup_respects_snapshot_ordering() {
        let env = MemEnv::new();
        let mut file = env.new_writable_file("t").unwrap();
        let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        // Same user key at sequences 30 (newest) and 10.
        builder
            .add(&make_internal_key(b"k", 30, ValueType::Value), b"new")
            .unwrap();
        builder
            .add(&make_internal_key(b"k", 10, ValueType::Value), b"old")
            .unwrap();
        let built = builder.finish().unwrap();
        file.sync().unwrap();
        drop(file);
        let file = env.new_random_access_file("t").unwrap();
        let table =
            Arc::new(Table::open(file, built.offset, built.size, 1, read_options(None)).unwrap());

        // Snapshot 40 sees the newest version.
        let (_, v) = table.internal_get(&lookup_key(b"k", 40)).unwrap().unwrap();
        assert_eq!(v, b"new");
        // Snapshot 20 sees only the older version.
        let (_, v) = table.internal_get(&lookup_key(b"k", 20)).unwrap().unwrap();
        assert_eq!(v, b"old");
        // Snapshot 5 sees nothing for this key (entry is a later key...
        // internal_get returns the *next* entry; caller checks the user key).
        let result = table.internal_get(&lookup_key(b"k", 5)).unwrap();
        assert!(result.is_none() || extract_user_key(&result.unwrap().0) != b"k");
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        let env = MemEnv::new();
        let (table, _) = build_table(&env, "t", 500);
        let mut iter = table.iter();
        iter.seek_to_first().unwrap();
        let mut count = 0u32;
        let mut prev: Option<Vec<u8>> = None;
        while iter.valid() {
            let key = iter.key().to_vec();
            if let Some(p) = &prev {
                assert!(p < &key);
            }
            prev = Some(key);
            count += 1;
            iter.next().unwrap();
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn seek_positions_mid_table() {
        let env = MemEnv::new();
        let (table, _) = build_table(&env, "t", 500);
        let mut iter = table.iter();
        iter.seek(&lookup_key(b"key000250", 100)).unwrap();
        assert!(iter.valid());
        assert_eq!(extract_user_key(iter.key()), b"key000250");
        iter.seek(&lookup_key(b"zzz", 100)).unwrap();
        assert!(!iter.valid());
    }

    #[test]
    fn logical_table_inside_larger_file() {
        let env = MemEnv::new();
        let mut file = env.new_writable_file("cf").unwrap();
        let mut builts = Vec::new();
        for t in 0..3u32 {
            let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
            for i in 0..100u32 {
                let key =
                    make_internal_key(format!("t{t}/key{i:05}").as_bytes(), 5, ValueType::Value);
                builder.add(&key, format!("{t}-{i}").as_bytes()).unwrap();
            }
            builts.push(builder.finish().unwrap());
        }
        file.sync().unwrap();
        drop(file);

        let file = env.new_random_access_file("cf").unwrap();
        // Open only the middle logical table.
        let table = Arc::new(
            Table::open(
                Arc::clone(&file),
                builts[1].offset,
                builts[1].size,
                42,
                read_options(None),
            )
            .unwrap(),
        );
        let (_, v) = table
            .internal_get(&lookup_key(b"t1/key00042", 100))
            .unwrap()
            .unwrap();
        assert_eq!(v, b"1-42");
        let mut iter = table.iter();
        iter.seek_to_first().unwrap();
        assert_eq!(extract_user_key(iter.key()), b"t1/key00000");
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let env = MemEnv::new();
        let mut file = env.new_writable_file("t").unwrap();
        let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        for i in 0..1000u32 {
            let key = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, &[7u8; 64]).unwrap();
        }
        let built = builder.finish().unwrap();
        file.sync().unwrap();
        drop(file);

        let cache: Arc<BlockCache> = Arc::new(LruCache::new(1 << 20));
        let file = env.new_random_access_file("t").unwrap();
        let table = Arc::new(
            Table::open(
                file,
                built.offset,
                built.size,
                9,
                read_options(Some(Arc::clone(&cache))),
            )
            .unwrap(),
        );

        let before = env.stats().bytes_read();
        let lk = lookup_key(b"key000123", 100);
        table.internal_get(&lk).unwrap().unwrap();
        let after_first = env.stats().bytes_read();
        assert!(after_first > before, "first read hits the file");
        table.internal_get(&lk).unwrap().unwrap();
        let after_second = env.stats().bytes_read();
        assert_eq!(after_first, after_second, "second read served from cache");
        assert!(cache.stats().hits() >= 1);
    }

    #[test]
    fn metadata_size_scales_with_table_size() {
        let env = MemEnv::new();
        let (small, _) = build_table(&env, "small", 100);
        let (large, _) = build_table(&env, "large", 10_000);
        assert!(large.metadata_size() > small.metadata_size() * 10);
    }

    #[test]
    fn range_tombstones_scanned_once_and_memoized() {
        let env = MemEnv::new();
        let mut file = env.new_writable_file("t").unwrap();
        let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        builder
            .add(&make_internal_key(b"a", 5, ValueType::Value), b"v")
            .unwrap();
        builder
            .add(&make_internal_key(b"b", 9, ValueType::RangeTombstone), b"f")
            .unwrap();
        builder
            .add(&make_internal_key(b"c", 3, ValueType::Value), b"v")
            .unwrap();
        let built = builder.finish().unwrap();
        file.sync().unwrap();
        drop(file);
        let file = env.new_random_access_file("t").unwrap();
        let table =
            Arc::new(Table::open(file, built.offset, built.size, 1, read_options(None)).unwrap());
        let tombs = table.range_tombstones().unwrap();
        assert_eq!(tombs.len(), 1);
        assert_eq!(tombs[0].begin, b"b");
        assert_eq!(tombs[0].end, b"f");
        assert_eq!(tombs[0].sequence, 9);
        // Second call returns the memoized Arc.
        let again = table.range_tombstones().unwrap();
        assert!(Arc::ptr_eq(&tombs, &again));
    }

    /// Every value of an `n`-entry [`build_file`] table, or the first error.
    fn read_back(table: &Table, n: u32) -> Result<Vec<Vec<u8>>> {
        (0..n)
            .map(|i| {
                let lk = lookup_key(format!("key{i:06}").as_bytes(), 100);
                let found = table.internal_get(&lk)?;
                Ok(found.map(|(_, v)| v).unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn every_tail_length_opens_the_same_table_in_one_or_two_reads() {
        let env = MemEnv::new();
        let built = build_file(&env, "t", 1000);
        let (exact, size) = (built.tail_bytes, built.size);
        assert!(FOOTER_SIZE as u64 + 2 < exact && exact < size / 4);
        let file = env.new_random_access_file("t").unwrap();
        let open = |tail_bytes: u64| {
            let before = env.stats().snapshot().read_ops;
            let file = Arc::clone(&file);
            let opts = read_options(None);
            let table = Table::open_with_tail(file, built.offset, size, tail_bytes, 1, opts);
            (table.unwrap(), env.stats().snapshot().read_ops - before)
        };
        let (reference, reads) = open(exact);
        assert_eq!(reads, 1, "the recorded length is one read");
        let want = read_back(&reference, 1000).unwrap();
        assert_eq!(want[999], b"value999");
        let cases = [0, 1, exact - 1, exact, exact + 1, size, u64::MAX];
        for (tail_bytes, want_reads) in cases.into_iter().zip([2, 2, 2, 1, 1, 1, 1]) {
            let (table, reads) = open(tail_bytes);
            assert_eq!(reads, want_reads, "tail_bytes {tail_bytes}");
            assert_eq!(table.metadata_size(), reference.metadata_size());
            assert_eq!(read_back(&table, 1000).unwrap(), want, "{tail_bytes}");
        }
        // `open` is the unknown-length case of the same path.
        let before = env.stats().snapshot().read_ops;
        let table = Table::open(file, built.offset, size, 1, read_options(None)).unwrap();
        assert_eq!(env.stats().snapshot().read_ops - before, 2);
        assert_eq!(table.metadata_size(), reference.metadata_size());
        // What the builder hands out is what an open reads back.
        let file = env.new_random_access_file("t").unwrap();
        let (index, filter) = (built.index.clone(), built.filter.clone());
        let before = env.stats().snapshot().read_ops;
        let warm =
            Table::from_parts(file, built.offset, 1, index, filter, read_options(None)).unwrap();
        assert_eq!(env.stats().snapshot().read_ops, before, "no read at all");
        assert_eq!(warm.metadata_size(), reference.metadata_size());
        assert_eq!(read_back(&warm, 1000).unwrap(), want);
    }

    #[test]
    fn a_flipped_bit_anywhere_in_the_tail_is_corruption_or_harmless() {
        let env = MemEnv::new();
        let built = build_file(&env, "t", 300);
        let end = built.offset + built.size;
        let bytes = env.new_random_access_file("t").unwrap();
        let bytes = bytes.read(0, end as usize).unwrap();
        let want = {
            let file = env.new_random_access_file("t").unwrap();
            let table = Table::open(file, built.offset, built.size, 1, read_options(None));
            read_back(&table.unwrap(), 300).unwrap()
        };
        let (mut harmless, mut corrupt) = (0, 0);
        for at in (end - built.tail_bytes)..end {
            let mut flipped = bytes.clone();
            flipped[at as usize] ^= 1 << (at % 8);
            let mut damaged = env.new_writable_file("damaged").unwrap();
            damaged.append(&flipped).unwrap();
            damaged.sync().unwrap();
            drop(damaged);
            // With the recorded length and without it: one path, two entries.
            for tail_bytes in [built.tail_bytes, 0] {
                let file = env.new_random_access_file("damaged").unwrap();
                let opts = read_options(None);
                let opened =
                    Table::open_with_tail(file, built.offset, built.size, tail_bytes, 1, opts);
                match opened.and_then(|table| read_back(&table, 300)) {
                    Ok(values) => {
                        assert_eq!(values, want, "byte {at} changed what is read");
                        harmless += 1;
                    }
                    Err(e) => {
                        assert!(e.is_corruption(), "byte {at}: {e:?}");
                        corrupt += 1;
                    }
                }
            }
        }
        // Footer padding is the only part no check covers, and needs none.
        assert!(harmless > 0 && harmless < 2 * FOOTER_SIZE, "{harmless}");
        assert!(corrupt as u64 > 2 * (built.tail_bytes - FOOTER_SIZE as u64));
    }

    /// Every damage of a table's tail — each truncation, bit flip and
    /// `0x00`/`0xFF` byte over the filter block, the index block (the data
    /// blocks' handles) and the footer — opened as a point read opens it
    /// (`TableTail::read` + `from_tail`, with the recorded tail length and
    /// without) and as a compaction does (`SeqReader::open`), then walked
    /// and probed: `Ok` or `Corruption`, never a panic. (A truncated file
    /// may also answer a read that starts past its end with the env's I/O
    /// error, which the open hands on.)
    #[test]
    fn every_damaged_tail_is_ok_or_corruption() {
        use crate::cache::{TableCache, TableSpec};
        use crate::seq::{SeqReadStats, SeqReader};
        let env = Arc::new(MemEnv::new());
        let built = build_file(&env, "000007.sst", 40);
        let (base, size) = (built.offset, built.size);
        let bytes = env.new_random_access_file("000007.sst").unwrap();
        let bytes = bytes.read(0, (base + size) as usize).unwrap();
        let (front, tail) = bytes.split_at((base + size - built.tail_bytes) as usize);
        let check = |table: Result<Arc<Table>>| -> Result<()> {
            let table = table?;
            let mut iter = table.iter();
            iter.seek_to_first()?;
            while iter.valid() {
                iter.next()?;
            }
            table.internal_get(&lookup_key(b"key000007", 100))?;
            Ok(())
        };
        let (mut cases, mut refused) = (0, 0);
        for damaged in crate::damage::damaged(tail) {
            let mut file = env.new_writable_file("000007.sst").unwrap();
            file.append(front).unwrap();
            file.append(&damaged).unwrap();
            file.sync().unwrap();
            drop(file);
            let file = env.new_random_access_file("000007.sst").unwrap();
            let mut opened = Vec::new();
            for tail_bytes in [built.tail_bytes, 0] {
                let table =
                    TableTail::read(file.as_ref(), base, size, tail_bytes, true).and_then(|tail| {
                        let file = Arc::clone(&file);
                        Table::from_tail(file, base, 1, &tail, read_options(None))
                    });
                opened.push(check(table.map(Arc::new)));
            }
            let spec = TableSpec {
                table_id: 1,
                file_number: 7,
                path: "000007.sst".to_string(),
                offset: base,
                size,
                tail_bytes: built.tail_bytes,
            };
            let env = Arc::clone(&env) as Arc<dyn Env>;
            let cache = Arc::new(TableCache::new(env, 10, None, read_options(None)));
            let stats = Arc::new(SeqReadStats::default());
            opened.push(check(SeqReader::new(cache, vec![spec], stats).open(0)));
            for result in opened {
                if let Err(err) = result {
                    let truncated = damaged.len() < tail.len();
                    let past_the_end = truncated && matches!(err, bolt_common::Error::Io(_));
                    assert!(err.is_corruption() || past_the_end, "{cases}: {err:?}");
                    refused += 1;
                }
            }
            cases += 1;
        }
        assert_eq!(cases, 11 * tail.len());
        // Footer padding is the only part no check covers.
        assert!(
            3 * cases - refused < 3 * 10 * FOOTER_SIZE,
            "{refused} of {cases}"
        );
    }

    #[test]
    fn footers_naming_blocks_outside_the_table_are_corruption() {
        use crate::format::{BlockHandle, Footer};
        let env = MemEnv::new();
        let built = build_file(&env, "t", 300);
        let end = built.offset + built.size;
        let bytes = env.new_random_access_file("t").unwrap();
        let mut bytes = bytes.read(0, end as usize).unwrap();
        let blocks_end = built.size - FOOTER_SIZE as u64;
        let far = u64::MAX - 2;
        for (offset, size) in [
            (blocks_end - 4, 0),
            (0, blocks_end),
            (far, 1),
            (1, far),
            (far, far),
            (u64::MAX, u64::MAX),
        ] {
            for as_filter in [false, true] {
                let wild = BlockHandle::new(offset, size);
                let sane = BlockHandle::new(0, 1);
                let footer = Footer {
                    filter_handle: if as_filter { wild } else { sane },
                    index_handle: if as_filter { sane } else { wild },
                };
                let at = bytes.len() - FOOTER_SIZE;
                bytes.truncate(at);
                bytes.extend_from_slice(&footer.encode());
                let mut damaged = env.new_writable_file("damaged").unwrap();
                damaged.append(&bytes).unwrap();
                damaged.sync().unwrap();
                drop(damaged);
                for tail_bytes in [0, built.tail_bytes, u64::MAX] {
                    let file = env.new_random_access_file("damaged").unwrap();
                    let opts = read_options(None);
                    let err =
                        Table::open_with_tail(file, built.offset, built.size, tail_bytes, 1, opts)
                            .unwrap_err();
                    assert!(err.is_corruption(), "({offset}, {size}): {err:?}");
                }
            }
        }
        // A table extent that overflows is refused before any read.
        let file = env.new_random_access_file("t").unwrap();
        let err = Table::open(file, u64::MAX - 10, built.size, 1, read_options(None)).unwrap_err();
        assert!(err.is_corruption(), "{err:?}");
    }

    #[test]
    fn corrupt_footer_rejected() {
        let env = MemEnv::new();
        let mut f = env.new_writable_file("bad").unwrap();
        f.append(&[0u8; 100]).unwrap();
        f.sync().unwrap();
        drop(f);
        let file = env.new_random_access_file("bad").unwrap();
        assert!(Table::open(file, 0, 100, 1, read_options(None)).is_err());
    }
}
