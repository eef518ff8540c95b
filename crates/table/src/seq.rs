//! Sequential input reads: a run's tables fetched in large spans, by the
//! thread that merges them.
//!
//! A compaction reads every byte of its inputs exactly once, in order, and
//! BoLT's compaction file makes those inputs *contiguous byte ranges of few
//! files*. [`spans`] cuts the tables of one run into device reads so that the
//! tables that sit back to back in one physical file cost **one** read per
//! [`SEQ_READ_WINDOW`], not one per 4 KiB block plus one per table open —
//! the read half of the paper's "pay the fixed cost once per large
//! transfer" argument. A [`SeqReader`] holds one run's spans and reads each
//! the first time a read of one of its tables falls inside it, on the
//! thread that asked: a compaction has one read in flight at most, the one
//! its merge is waiting for.
//!
//! The bytes reach the tables through `SpanFile`, a [`RandomAccessFile`]
//! placed *under* the ordinary [`Table`]: the footer, index, filter and
//! block decoding, and the CRC check of every block, are the same code a
//! point read runs. Neither the shared block cache nor the [`TableCache`]'s
//! table LRU sees a sequential reader; the fd cache still supplies the file
//! handle.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bolt_common::sync::Mutex;
use bolt_common::{Error, Result};
use bolt_env::RandomAccessFile;

use crate::cache::{TableCache, TableSpec};
use crate::format::FOOTER_SIZE;
use crate::table::{Table, TableReadOptions};

/// Most bytes one sequential read fetches. Bounded from below by the fixed
/// cost: at the modelled 30 µs + 256 KiB ÷ 70 MiB/s a full window spends
/// 0.8 % of its time on it, so a larger one has nothing left to save.
/// Bounded from above by what a read costs the merge: it waits for the
/// whole window each time one of its runs steps into the next span
/// (3.6 ms here), and every run holds its span in hand (a compaction at the
/// L0 stop trigger merges 13 runs). At 1 MiB `fill_random` measured 5 %
/// fewer ops/s, at 64 KiB the same (EXPERIMENTS.md). A table larger than
/// this — BoLT's 1 MiB logical SSTable, a stock 2 MiB file — streams
/// through in windows.
pub const SEQ_READ_WINDOW: u64 = 256 << 10;

bolt_common::counter_table! {
    /// A copy of a [`SeqReadStats`] (the engine exports these counters as
    /// its own `compaction_read_*` rows, so they have no registry names).
    pub struct SeqReadSnapshot;
    /// What the sequential readers of one compaction did.
    pub struct SeqReadStats {}
    /// Reads issued to the underlying files.
    ops,
    /// Bytes those reads returned.
    bytes,
    /// Nanoseconds spent in them (file handle included): the time the
    /// consumer waited for input bytes.
    wait_nanos,
    /// Reads (file opens included) that returned an error.
    failures,
}

/// One device read of a front-to-back pass over a run's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index in the run of the first table it holds bytes of (of the only
    /// one, for a table larger than the window).
    pub table: usize,
    /// 0 for a span of whole tables and for the tail of a table larger than
    /// the window; `n` for that table's n-th data window.
    pub part: usize,
    /// Offset in the table's physical file.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
}

/// The device reads a front-to-back pass over `specs` (one run's tables in
/// key order) costs, in the order the pass needs them — the one place that
/// decides them, for the reader that takes them.
///
/// Tables that start where their predecessor ends in the same file share a
/// read as far as whole tables fit [`SEQ_READ_WINDOW`]; a gap, punched or
/// never part of the run, is not read. A table larger than the window is
/// its tail (what an open reads: `tail_bytes`, or just the footer when the
/// length is unknown) and then its data, window by window.
pub fn spans(specs: &[TableSpec]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut first = 0;
    while let Some(spec) = specs.get(first) {
        let end = spec.offset.saturating_add(spec.size);
        let mut next = first + 1;
        if spec.size > SEQ_READ_WINDOW {
            let tail = spec.tail_bytes.clamp(FOOTER_SIZE as u64, spec.size);
            let data_end = end - tail;
            let mut push = |part, offset, len| {
                spans.push(Span {
                    table: first,
                    part,
                    offset,
                    len,
                });
            };
            push(0, data_end, tail);
            let (mut part, mut at) = (1, spec.offset);
            while at < data_end {
                let len = (data_end - at).min(SEQ_READ_WINDOW);
                push(part, at, len);
                (part, at) = (part + 1, at + len);
            }
        } else {
            let mut fill_end = end;
            while let Some(following) = specs.get(next) {
                let following_end = following.offset.saturating_add(following.size);
                if following.file_number != spec.file_number
                    || following.offset != fill_end
                    || following_end - spec.offset > SEQ_READ_WINDOW
                {
                    break;
                }
                (fill_end, next) = (following_end, next + 1);
            }
            spans.push(Span {
                table: first,
                part: 0,
                offset: spec.offset,
                len: fill_end - spec.offset,
            });
        }
        first = next;
    }
    spans
}

/// The file handle a run read last: a run walks few files, one after the
/// other, so the one handle saves an fd-cache lookup per span, and an env
/// open per span where there is no fd cache.
type Handle = Option<(u64, Arc<dyn RandomAccessFile>)>;

/// The span a run read last, by index, with its bytes.
type Held = Option<(usize, Vec<u8>)>;

/// What a [`SeqReader`] and the `SpanFile`s of its tables share.
struct RunSpans {
    cache: Arc<TableCache>,
    specs: Vec<TableSpec>,
    spans: Vec<Span>,
    stats: Arc<SeqReadStats>,
    /// The file handle and the span in hand. A cell: emptied for the length
    /// of a read, never locked across one.
    in_hand: Mutex<(Handle, Held)>,
}

impl RunSpans {
    /// The spans, by index, that hold table `index`: the one span of whole
    /// tables it is part of, or every span of a table larger than the window.
    fn spans_of(&self, index: usize) -> Range<usize> {
        let end = self.spans.partition_point(|s| s.table <= index);
        let first = end.checked_sub(1).and_then(|last| self.spans.get(last));
        let first = first.map_or(index, |s| s.table);
        self.spans.partition_point(|s| s.table < first)..end
    }

    fn failed(&self) {
        self.stats.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// One counted read of the file of table `table` — the one device read
    /// of this module.
    fn fetch(&self, handle: &mut Handle, table: usize, offset: u64, len: u64) -> Result<Vec<u8>> {
        // A device read is the slow kind of call: never under an engine lock.
        #[cfg(feature = "debug_locks")]
        for lock in ["core.versions", "core.state"] {
            assert!(
                !bolt_common::debug_locks::thread_holds(lock),
                "sequential read issued while holding tracked lock `{lock}`"
            );
        }
        let spec = (self.specs.get(table))
            .ok_or_else(|| Error::InvalidArgument(format!("no table {table} in this run")))?;
        let len = usize::try_from(len).map_err(|_| Error::corruption("span larger than memory"))?;
        let started = Instant::now();
        let file = match handle {
            Some((number, file)) if *number == spec.file_number => Arc::clone(file),
            _ => {
                let opened = self.cache.open_file(spec.file_number, &spec.path);
                let file = opened.inspect_err(|_| self.failed())?;
                *handle = Some((spec.file_number, Arc::clone(&file)));
                file
            }
        };
        let read = file.read(offset, len);
        let waited = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.wait_nanos.fetch_add(waited, Ordering::Relaxed);
        let bytes = read.inspect_err(|_| self.failed())?;
        self.stats.ops.fetch_add(1, Ordering::Relaxed);
        (self.stats.bytes).fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
}

/// A [`RandomAccessFile`] over the spans that hold one table, or the whole
/// tables that share one span: a read inside them is served from the span
/// in hand, or reads the span it falls in; a read they cannot explain goes
/// to the file.
struct SpanFile {
    run: Arc<RunSpans>,
    /// The spans, by index in the run, whose tables read through this file.
    spans: Range<usize>,
}

impl SpanFile {
    /// The span of this file that holds byte `at`, by index.
    fn span_at(&self, at: u64) -> Option<(usize, Span)> {
        let spans = self.run.spans.get(self.spans.clone())?;
        let found = spans
            .iter()
            .position(|s| s.offset <= at && at - s.offset < s.len)?;
        Some((self.spans.start + found, *spans.get(found)?))
    }
}

impl RandomAccessFile for SpanFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let run = &self.run;
        let end = offset.saturating_add(len as u64);
        let (mut handle, mut held) = std::mem::take(&mut *run.in_hand.lock());
        let mut out = Vec::new();
        let mut at = offset;
        // Span by span: a block of a table larger than the window can start
        // in one window and end in the next.
        while at < end {
            let Some((index, span)) = self.span_at(at) else {
                break;
            };
            // A span in hand that is behind the reader is let go of first.
            held = held.filter(|(in_hand, _)| *in_hand == index);
            let bytes = match held.take() {
                Some((_, bytes)) => bytes,
                None => run.fetch(&mut handle, span.table, span.offset, span.len)?,
            };
            let from = (at - span.offset) as usize;
            let to = (end.min(span.offset + span.len) - span.offset) as usize;
            // A file shorter than its tables say comes back short; hand on
            // what there is, as the file would, and the block check reports
            // it.
            let part = bytes.get(from..to.min(bytes.len())).unwrap_or_default();
            out.extend_from_slice(part);
            let short = part.len() < to - from;
            held = Some((index, bytes));
            at = span.offset + to as u64;
            if short {
                break;
            }
        }
        if at == offset {
            let table = run.spans.get(self.spans.start).map_or(0, |s| s.table);
            out = run.fetch(&mut handle, table, offset, len as u64)?;
        }
        *run.in_hand.lock() = (handle, held);
        Ok(out)
    }

    /// The end of the bytes this file can serve (nothing asks a table's
    /// file for its length; the real one would cost an open).
    fn len(&self) -> u64 {
        let spans = self.run.spans.get(self.spans.clone()).into_iter().flatten();
        spans
            .map(|s| s.offset.saturating_add(s.len))
            .max()
            .unwrap_or(0)
    }
}

/// Opens the tables of one run, in order, for a consumer that reads each
/// of them front to back, and reads the run's [`spans`] as it gets to them.
pub struct SeqReader {
    run: Arc<RunSpans>,
    opts: TableReadOptions,
    /// The adapter over the spans of the last table opened.
    current: Option<Arc<SpanFile>>,
}

impl std::fmt::Debug for SeqReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqReader")
            .field("tables", &self.run.specs.len())
            .field("spans", &self.run.spans.len())
            .finish()
    }
}

impl SeqReader {
    /// The reader of one run, `specs` (its tables in key order). File
    /// handles and read options come from `cache`; every read is counted in
    /// `stats`, which the readers of one compaction share.
    pub fn new(cache: Arc<TableCache>, specs: Vec<TableSpec>, stats: Arc<SeqReadStats>) -> Self {
        let opts = TableReadOptions {
            block_cache: None,
            ..cache.opts.clone()
        };
        let run = RunSpans {
            spans: spans(&specs),
            cache,
            specs,
            stats,
            in_hand: Mutex::new((None, None)),
        };
        SeqReader {
            run: Arc::new(run),
            opts,
            current: None,
        }
    }

    /// Open table `index` of the run. Its bytes are read span by span as
    /// its iterator advances, each span once, on this thread.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for malformed or truncated tables and
    /// I/O errors from the file, at the table whose span met them.
    pub fn open(&mut self, index: usize) -> Result<Arc<Table>> {
        let spec = (self.run.specs.get(index))
            .ok_or_else(|| Error::InvalidArgument(format!("no table {index} in this run")))?;
        if spec.offset.checked_add(spec.size).is_none() {
            return Err(Error::corruption("table extent overflows"));
        }
        let spans = self.run.spans_of(index);
        let file = match &self.current {
            Some(file) if file.spans == spans => Arc::clone(file),
            _ => {
                let file = Arc::new(SpanFile {
                    run: Arc::clone(&self.run),
                    spans,
                });
                self.current = Some(Arc::clone(&file));
                file
            }
        };
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
            let nth = {
                let mut log = self.log.lock();
                log.push((offset, len));
                log.len()
            };
            if self.fail_read == Some(nth) {
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

    impl TestFile {
        fn log(&self) -> Vec<(u64, usize)> {
            self.log.lock().clone()
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
            log: Mutex::new(Vec::new()),
            fail_read,
            cut_at,
        })
    }

    /// The reader of the one run `specs` whose file 7 is `file`.
    fn reader_over(env: &Arc<dyn Env>, specs: &[TableSpec], file: &Arc<TestFile>) -> SeqReader {
        let stats = Arc::new(SeqReadStats::default());
        let reader = SeqReader::new(cache(env), specs.to_vec(), stats);
        let file = Arc::clone(file) as Arc<dyn RandomAccessFile>;
        reader.run.in_hand.lock().0 = Some((7, file));
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

    /// Every table of the reader's run, front to back; with the entries,
    /// the first table that could not be read.
    fn consume(reader: &mut SeqReader) -> (Entries, Option<(usize, Error)>) {
        let mut out = Vec::new();
        for i in 0..reader.run.specs.len() {
            if let Err(e) = reader.open(i).and_then(|table| drain(&table, &mut out)) {
                return (out, Some((i, e)));
            }
        }
        (out, None)
    }

    fn read(reader: &mut SeqReader) -> Result<Entries> {
        let (entries, failed) = consume(reader);
        failed.map_or(Ok(entries), |(_, e)| Err(e))
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
        let mut reader = reader_over(&env, &specs, &file);

        let streamed = read(&mut reader).unwrap();
        let before = env.stats().snapshot().read_ops;
        assert_eq!(streamed, per_block(&env, &specs));
        let block_reads = env.stats().snapshot().read_ops - before;
        let log = file.log();
        assert!(
            log.len() as u64 <= total.div_ceil(SEQ_READ_WINDOW) + 1,
            "{} reads for {total} bytes",
            log.len()
        );
        // Whole tables only: no byte is fetched twice, none is skipped.
        assert_eq!(log.iter().map(|r| r.1 as u64).sum::<u64>(), total);
        assert!(log.iter().all(|r| r.1 as u64 <= SEQ_READ_WINDOW));
        let stats = &reader.run.stats;
        assert_eq!(stats.ops(), log.len() as u64);
        assert_eq!(stats.bytes(), total);
        // Every span was read where it was taken, and that was waited for.
        assert!(stats.wait_nanos() > 0);
        // The reference read the same bytes in far more pieces.
        assert!(block_reads > 20 * log.len() as u64, "{block_reads}");
    }

    #[test]
    fn a_gap_between_two_tables_is_never_read() {
        let (env, mut specs) = build(3, 60);
        let hole = specs.remove(1);
        env.punch_hole(&hole.path, hole.offset, hole.size).unwrap();
        let file = test_file(&env, None, None);
        let mut reader = reader_over(&env, &specs, &file);
        assert_eq!(read(&mut reader).unwrap(), per_block(&env, &specs));
        let log = file.log();
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
        let mut reader = reader_over(&env, &specs, &file);
        assert_eq!(read(&mut reader).unwrap(), per_block(&env, &specs));
        let log = file.log();
        // The tail in one read, then the data window by window: every byte
        // once, a block that straddles two windows included.
        let tail = specs[0].tail_bytes;
        assert_eq!(log[0], (size - tail, tail as usize));
        assert_eq!(
            log.len() as u64,
            1 + (size - tail).div_ceil(SEQ_READ_WINDOW)
        );
        assert_eq!(log.iter().map(|r| r.1 as u64).sum::<u64>(), size);
        assert!(log.iter().all(|r| r.1 as u64 <= SEQ_READ_WINDOW));

        // A table whose MANIFEST record predates tail lengths: the open
        // finds its index in the last window, which is then read again when
        // the data gets there. Slower, and the same entries.
        let mut unknown = specs.clone();
        unknown[0].tail_bytes = 0;
        let file = test_file(&env, None, None);
        let mut reader = reader_over(&env, &unknown, &file);
        assert_eq!(read(&mut reader).unwrap(), per_block(&env, &specs));
        assert!(file.log().iter().all(|r| r.0 + r.1 as u64 <= size));
    }

    #[test]
    fn short_reads_and_errors_surface_at_the_table_that_needed_them() {
        // Small tables: a span comes back short, or not at all. The reads
        // happen in span order, so the k-th read is the k-th span.
        let (env, specs) = build(120, 120);
        let spans = spans(&specs);
        assert!(spans.len() > 5, "{spans:?}");
        let cut = specs[50].offset + specs[50].size / 2;
        let file = test_file(&env, None, Some(cut));
        let (entries, failed) = consume(&mut reader_over(&env, &specs, &file));
        let (table, error) = failed.unwrap();
        assert!(error.is_corruption(), "{error:?}");
        assert_eq!((table, entries.len()), (50, 50 * 120));
        // The span that came back short is the last one read.
        let short = spans.iter().position(|s| s.offset + s.len > cut).unwrap();
        assert_eq!(file.log().len(), short + 1);

        let file = test_file(&env, Some(3), None);
        let (_, failed) = consume(&mut reader_over(&env, &specs, &file));
        let (table, error) = failed.unwrap();
        assert!(matches!(error, Error::Io(_)), "{error:?}");
        assert_eq!(table, spans[2].table);
        assert_eq!(file.log().len(), 3, "a span past the failed one was read");

        // One large table: the same two faults in the middle of its data.
        let (env, specs) = build(1, 5000);
        let windows = super::spans(&specs).len();
        assert!(windows >= 4, "{windows}");
        let file = test_file(&env, None, Some(specs[0].size / 2));
        let mut short = reader_over(&env, &specs, &file);
        assert!(read(&mut short).unwrap_err().is_corruption());
        let file = test_file(&env, Some(windows / 2 + 1), None);
        let mut failing = reader_over(&env, &specs, &file);
        assert!(matches!(read(&mut failing), Err(Error::Io(_))));
        assert_eq!(file.log().len(), windows / 2 + 1);

        // A read the tables' own extents cannot explain goes to the file.
        let file = test_file(&env, None, None);
        let mut reader = reader_over(&env, &specs, &file);
        reader.open(0).unwrap();
        let span = reader.current.as_ref().unwrap();
        assert!(span.read(u64::MAX, 16).is_err());
        assert_eq!(span.read(specs[0].size - 4, 16).unwrap().len(), 4);
    }
}
