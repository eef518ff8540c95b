//! Sequential input reads: a run's tables fetched in large spans.
//!
//! A compaction reads every byte of its inputs exactly once, in order, and
//! BoLT's compaction file makes those inputs *contiguous byte ranges of few
//! files*. [`SeqReader`] opens the tables of one run so that the tables
//! that sit back to back in one physical file cost **one** device read per
//! [`SEQ_READ_WINDOW`], not one per 4 KiB block plus one per table open —
//! the read half of the paper's "pay the fixed cost once per large
//! transfer" argument.
//!
//! The bytes land in a private buffer behind `SpanFile`, a
//! [`RandomAccessFile`] placed *under* the ordinary [`Table`]: the footer,
//! index, filter and block decoding, and the CRC check of every block, are
//! the same code a point read runs. Neither the shared block cache nor the
//! [`TableCache`]'s table LRU sees a sequential reader; the fd cache still
//! supplies the file handle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bolt_common::{Error, Result};
use bolt_env::RandomAccessFile;
use parking_lot::Mutex;

use crate::cache::{TableCache, TableSpec};
use crate::table::{Table, TableReadOptions};

/// Most bytes one sequential read fetches, and so the memory one open
/// [`SeqReader`] holds (a compaction has one per input run, ≤ 13 at the L0
/// stop trigger). Bounded from below by the fixed cost: at the modelled
/// 30 µs + 256 KiB ÷ 70 MiB/s a full window spends 0.8 % of its time on it,
/// so a larger one has nothing left to save. Bounded from above by flush
/// preemption: a compaction cannot yield to a pending memtable flush in the
/// middle of a read, so a window is also the longest a stalled writer waits
/// for one (3.6 ms here; at 1 MiB `fill_random` measured 5 % fewer ops/s,
/// at 64 KiB the same — EXPERIMENTS.md). A table larger than this — BoLT's
/// 1 MiB logical SSTable, a stock 2 MiB file — streams through in windows.
pub const SEQ_READ_WINDOW: u64 = 256 << 10;

/// The device reads sequential readers issued, shared by the readers of
/// one compaction.
#[derive(Debug, Default)]
pub struct SeqReadStats {
    ops: AtomicU64,
    bytes: AtomicU64,
}

impl SeqReadStats {
    /// Reads issued to the underlying files.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Bytes those reads returned.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// The buffered bytes `[start, start + bytes.len())` of one file.
#[derive(Default)]
struct Span {
    start: u64,
    bytes: Vec<u8>,
    /// A read that misses the buffer refills it from its own offset up to
    /// here at most; a read reaching past it goes to the file unbuffered.
    refill_end: u64,
}

impl Span {
    fn get(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let from = usize::try_from(offset.checked_sub(self.start)?).ok()?;
        self.bytes.get(from..from.checked_add(len)?)
    }
}

/// A [`RandomAccessFile`] that serves reads inside its span from memory and
/// falls through to the real file outside it.
struct SpanFile {
    file: Arc<dyn RandomAccessFile>,
    stats: Arc<SeqReadStats>,
    /// Never held across a read of `file`.
    span: Mutex<Span>,
}

impl SpanFile {
    /// One counted read of the real file.
    fn fetch(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let bytes = self.file.read(offset, len)?;
        self.stats.ops.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
}

impl RandomAccessFile for SpanFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let refill_end = {
            let span = self.span.lock();
            if let Some(hit) = span.get(offset, len) {
                return Ok(hit.to_vec());
            }
            span.refill_end
        };
        let ahead = refill_end.saturating_sub(offset).min(SEQ_READ_WINDOW) as usize;
        if ahead < len {
            return self.fetch(offset, len);
        }
        let bytes = self.fetch(offset, ahead)?;
        // A file shorter than its tables say comes back short; hand on what
        // there is, as the file would, and the block check reports it.
        let head = bytes.get(..len).unwrap_or(&bytes).to_vec();
        *self.span.lock() = Span {
            start: offset,
            bytes,
            refill_end,
        };
        Ok(head)
    }

    fn len(&self) -> u64 {
        self.file.len()
    }
}

/// Opens the tables of one run, in order, for a reader that will consume
/// each of them front to back.
pub struct SeqReader {
    cache: Arc<TableCache>,
    opts: TableReadOptions,
    specs: Vec<TableSpec>,
    stats: Arc<SeqReadStats>,
    /// The adapter over the physical file of the last table opened.
    current: Option<(u64, Arc<SpanFile>)>,
}

impl std::fmt::Debug for SeqReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqReader")
            .field("tables", &self.specs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SeqReader {
    /// A reader over `specs` (one run's tables in key order). File handles
    /// and read options come from `cache`; every device read is counted in
    /// `stats`.
    pub fn new(cache: Arc<TableCache>, specs: Vec<TableSpec>, stats: Arc<SeqReadStats>) -> Self {
        let opts = TableReadOptions {
            block_cache: None,
            ..cache.opts.clone()
        };
        SeqReader {
            cache,
            opts,
            specs,
            stats,
            current: None,
        }
    }

    /// Open table `index`. Unless an earlier open already buffered it, one
    /// read fetches it together with every following table that starts
    /// where its predecessor ends in the same file, as far as whole tables
    /// fit [`SEQ_READ_WINDOW`]; a table larger than the window is read
    /// window by window as its iterator advances.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for malformed or truncated tables and
    /// I/O errors from the file.
    pub fn open(&mut self, index: usize) -> Result<Arc<Table>> {
        let (spec, following) = self
            .specs
            .get(index..)
            .and_then(<[TableSpec]>::split_first)
            .ok_or_else(|| Error::InvalidArgument(format!("no table {index} in this run")))?;
        let end = spec
            .offset
            .checked_add(spec.size)
            .ok_or_else(|| Error::corruption("table extent overflows"))?;
        let file = match &self.current {
            Some((number, file)) if *number == spec.file_number => Arc::clone(file),
            _ => {
                let file = Arc::new(SpanFile {
                    file: self.cache.open_file(spec.file_number, &spec.path)?,
                    stats: Arc::clone(&self.stats),
                    span: Mutex::default(),
                });
                self.current = Some((spec.file_number, Arc::clone(&file)));
                file
            }
        };
        if spec.size > SEQ_READ_WINDOW {
            file.span.lock().refill_end = end;
        } else if file
            .span
            .lock()
            .get(spec.offset, spec.size as usize)
            .is_none()
        {
            let mut fill_end = end;
            for next in following {
                let next_end = next.offset.saturating_add(next.size);
                if next.file_number != spec.file_number
                    || next.offset != fill_end
                    || next_end - spec.offset > SEQ_READ_WINDOW
                {
                    break;
                }
                fill_end = next_end;
            }
            let bytes = file.fetch(spec.offset, (fill_end - spec.offset) as usize)?;
            *file.span.lock() = Span {
                start: spec.offset,
                bytes,
                refill_end: fill_end,
            };
        }
        let (opts, tail) = (self.opts.clone(), spec.tail_bytes);
        Table::open_with_tail(file, spec.offset, spec.size, tail, spec.file_number, opts)
            .map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FilterKey, TableBuilder, TableFormat};
    use crate::comparator::InternalKeyComparator;
    use crate::ikey::{make_internal_key, ValueType};
    use bolt_common::bloom::BloomFilterPolicy;
    use bolt_env::{Env, MemEnv};

    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// Logs every read; optionally fails the n-th, or ends the file early.
    struct TestFile {
        inner: Arc<dyn RandomAccessFile>,
        log: Mutex<Vec<(u64, usize)>>,
        fail_read: Option<usize>,
        cut_at: Option<u64>,
    }

    impl RandomAccessFile for TestFile {
        fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            let mut log = self.log.lock();
            log.push((offset, len));
            if self.fail_read == Some(log.len()) {
                return Err(Error::io("injected read error"));
            }
            let len = match self.cut_at {
                Some(cut) => len.min(cut.saturating_sub(offset) as usize),
                None => len,
            };
            self.inner.read(offset, len)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    /// `tables` logical tables of `entries` 100-byte values each, back to
    /// back in file 7 of a fresh env.
    fn build(tables: u32, entries: u32) -> (Arc<dyn Env>, Vec<TableSpec>) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut file = env.new_writable_file("000007.cf").unwrap();
        let mut specs = Vec::new();
        for t in 0..tables {
            let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
            for i in 0..entries {
                let key =
                    make_internal_key(format!("{t:03}/k{i:06}").as_bytes(), 9, ValueType::Value);
                b.add(&key, format!("{t}-{i}-{}", "v".repeat(100)).as_bytes())
                    .unwrap();
            }
            let built = b.finish().unwrap();
            specs.push(TableSpec {
                table_id: u64::from(t) + 1,
                file_number: 7,
                path: "000007.cf".to_string(),
                offset: built.offset,
                size: built.size,
                tail_bytes: built.tail_bytes,
            });
        }
        file.sync().unwrap();
        (env, specs)
    }

    fn cache(env: &Arc<dyn Env>) -> Arc<TableCache> {
        let opts = TableReadOptions {
            comparator: Arc::new(InternalKeyComparator::default()),
            filter_policy: Some(BloomFilterPolicy::default()),
            filter_key: FilterKey::UserKey,
            block_cache: None,
        };
        Arc::new(TableCache::new(Arc::clone(env), 100, Some(10), opts))
    }

    fn test_file(
        env: &Arc<dyn Env>,
        fail_read: Option<usize>,
        cut_at: Option<u64>,
    ) -> Arc<TestFile> {
        Arc::new(TestFile {
            inner: env.new_random_access_file("000007.cf").unwrap(),
            log: Mutex::default(),
            fail_read,
            cut_at,
        })
    }

    /// A reader over `specs` whose file 7 is `file`.
    fn reader(env: &Arc<dyn Env>, specs: &[TableSpec], file: Arc<TestFile>) -> SeqReader {
        let stats = Arc::new(SeqReadStats::default());
        let mut reader = SeqReader::new(cache(env), specs.to_vec(), Arc::clone(&stats));
        let span = SpanFile {
            file,
            stats,
            span: Mutex::default(),
        };
        reader.current = Some((7, Arc::new(span)));
        reader
    }

    fn drain(table: &Arc<Table>, out: &mut Entries) -> Result<()> {
        let mut iter = table.iter();
        iter.seek_to_first()?;
        while iter.valid() {
            out.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next()?;
        }
        Ok(())
    }

    fn sequential(reader: &mut SeqReader) -> Result<Entries> {
        let mut out = Vec::new();
        for i in 0..reader.specs.len() {
            drain(&reader.open(i)?, &mut out)?;
        }
        Ok(out)
    }

    /// The same tables block by block through the table cache.
    fn per_block(env: &Arc<dyn Env>, specs: &[TableSpec]) -> Entries {
        let cache = cache(env);
        let mut out = Vec::new();
        for spec in specs {
            drain(
                &cache.table(spec.table_id, || spec.clone()).unwrap(),
                &mut out,
            )
            .unwrap();
        }
        out
    }

    #[test]
    fn contiguous_tables_stream_identically_in_window_sized_reads() {
        let (env, specs) = build(40, 120);
        let total: u64 = specs.iter().map(|s| s.size).sum();
        assert!(total > 2 * SEQ_READ_WINDOW, "must cross windows: {total}");
        let file = test_file(&env, None, None);
        let mut reader = reader(&env, &specs, Arc::clone(&file));

        let streamed = sequential(&mut reader).unwrap();
        let before = env.stats().snapshot().read_ops;
        assert_eq!(streamed, per_block(&env, &specs));
        let block_reads = env.stats().snapshot().read_ops - before;
        let log = file.log.lock().clone();
        assert!(
            log.len() as u64 <= total.div_ceil(SEQ_READ_WINDOW) + 1,
            "{} reads for {total} bytes",
            log.len()
        );
        // Whole tables only: no byte is fetched twice, none is skipped.
        assert_eq!(log.iter().map(|r| r.1 as u64).sum::<u64>(), total);
        assert!(log.iter().all(|r| r.1 as u64 <= SEQ_READ_WINDOW));
        assert_eq!(reader.stats.ops(), log.len() as u64);
        assert_eq!(reader.stats.bytes(), total);
        // The reference read the same bytes in far more pieces.
        assert!(block_reads > 20 * log.len() as u64, "{block_reads}");
    }

    #[test]
    fn a_gap_between_two_tables_is_never_read() {
        let (env, mut specs) = build(3, 60);
        let hole = specs.remove(1);
        env.punch_hole(&hole.path, hole.offset, hole.size).unwrap();
        let file = test_file(&env, None, None);
        let mut reader = reader(&env, &specs, Arc::clone(&file));
        assert_eq!(sequential(&mut reader).unwrap(), per_block(&env, &specs));
        let log = file.log.lock().clone();
        assert_eq!(log.len(), 2, "one read per side of the gap: {log:?}");
        for &(offset, len) in log.iter() {
            assert!(
                offset + len as u64 <= hole.offset || offset >= hole.offset + hole.size,
                "read {offset}+{len} touches the punched table"
            );
        }
    }

    #[test]
    fn a_table_larger_than_the_window_streams_through_it() {
        let (env, specs) = build(1, 5000);
        let size = specs[0].size;
        assert!(size > 2 * SEQ_READ_WINDOW, "table too small: {size}");
        let file = test_file(&env, None, None);
        let mut reader = reader(&env, &specs, Arc::clone(&file));
        assert_eq!(sequential(&mut reader).unwrap(), per_block(&env, &specs));
        let log = file.log.lock().clone();
        // The tail in one read, then the data window by window.
        assert!(
            log.len() as u64 <= size.div_ceil(SEQ_READ_WINDOW) + 2,
            "{} reads for {size} bytes",
            log.len()
        );
        assert!(log.iter().all(|r| r.1 as u64 <= SEQ_READ_WINDOW));
        assert!(log.iter().all(|r| r.0 + r.1 as u64 <= size));
    }

    #[test]
    fn short_reads_and_errors_surface_without_panicking() {
        // Small tables: the second span comes back short, or not at all.
        let (env, specs) = build(40, 120);
        let cut = specs[20].offset + specs[20].size / 2;
        let mut short = reader(&env, &specs, test_file(&env, None, Some(cut)));
        assert!(sequential(&mut short).unwrap_err().is_corruption());
        // Every read here is a span (opens are served from the buffer), so
        // the second read is the second span whatever an open costs.
        let mut failing = reader(&env, &specs, test_file(&env, Some(2), None));
        assert!(matches!(sequential(&mut failing), Err(Error::Io(_))));

        // One large table: the same two faults in the middle of its data.
        // Which read that is comes from a clean pass, not from a count of
        // the reads an open makes.
        let (env, specs) = build(1, 5000);
        let cut = specs[0].size / 2;
        let mut short = reader(&env, &specs, test_file(&env, None, Some(cut)));
        assert!(sequential(&mut short).unwrap_err().is_corruption());
        let clean = test_file(&env, None, None);
        sequential(&mut reader(&env, &specs, Arc::clone(&clean))).unwrap();
        let tail_start = specs[0].size - specs[0].tail_bytes;
        let data_reads: Vec<usize> = (clean.log.lock().iter().enumerate())
            .filter(|(_, read)| read.0 < tail_start)
            .map(|(i, _)| i + 1)
            .collect();
        assert!(data_reads.len() >= 3, "{data_reads:?}");
        let middle = data_reads[data_reads.len() / 2];
        let mut failing = reader(&env, &specs, test_file(&env, Some(middle), None));
        assert!(matches!(sequential(&mut failing), Err(Error::Io(_))));

        // A read the tables' own extents cannot explain goes to the file.
        let file = test_file(&env, None, None);
        let reader = reader(&env, &specs, Arc::clone(&file));
        let (_, span) = reader.current.as_ref().unwrap();
        assert!(span.read(u64::MAX, 16).is_err());
        assert_eq!(span.read(specs[0].size - 4, 16).unwrap().len(), 4);
    }
}
