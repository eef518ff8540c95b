//! Sequential input reads: a run's tables fetched in large spans, ahead of
//! the reader that consumes them.
//!
//! A compaction reads every byte of its inputs exactly once, in order, and
//! BoLT's compaction file makes those inputs *contiguous byte ranges of few
//! files*. [`spans`] cuts the tables of one run into device reads so that the
//! tables that sit back to back in one physical file cost **one** read per
//! [`SEQ_READ_WINDOW`], not one per 4 KiB block plus one per table open —
//! the read half of the paper's "pay the fixed cost once per large
//! transfer" argument. A [`ReadPlan`] holds the spans of every run of one
//! compaction in the order the merge will need them, and
//! [`ReadPlan::run_ahead`] executes it on a reader thread while the merge
//! consumes: the thread that merges and writes does not sleep on the device
//! for bytes the plan could name beforehand.
//!
//! The bytes reach the tables through `SpanFile`, a [`RandomAccessFile`]
//! placed *under* the ordinary [`Table`]: the footer, index, filter and
//! block decoding, and the CRC check of every block, are the same code a
//! point read runs. Neither the shared block cache nor the [`TableCache`]'s
//! table LRU sees a sequential reader; the fd cache still supplies the file
//! handle.

use std::cmp::Ordering as KeyOrder;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bolt_common::sync::{named_mutex, Condvar, Mutex, MutexGuard};
use bolt_common::{Error, Result};
use bolt_env::RandomAccessFile;

use crate::cache::{TableCache, TableSpec};
use crate::format::FOOTER_SIZE;
use crate::table::{Table, TableReadOptions};

/// Most bytes one sequential read fetches. Bounded from below by the fixed
/// cost: at the modelled 30 µs + 256 KiB ÷ 70 MiB/s a full window spends
/// 0.8 % of its time on it, so a larger one has nothing left to save.
/// Bounded from above by what a reader waits for when the plan did not put a
/// span first and it has to be read on demand: one read is in flight at a
/// time, so a window is the longest such a read queues behind another
/// (3.6 ms here; at 1 MiB `fill_random` measured 5 % fewer ops/s, at 64 KiB
/// the same — EXPERIMENTS.md). A table larger than this — BoLT's 1 MiB
/// logical SSTable, a stock 2 MiB file — streams through in windows.
pub const SEQ_READ_WINDOW: u64 = 256 << 10;

/// Most bytes a [`ReadPlan`]'s reader holds read and not yet taken — with
/// one span in the hands of each run's reader (a compaction has ≤ 13 runs at
/// the L0 stop trigger) the memory a compaction's inputs occupy. Four
/// windows: what the reader gets through while the consumer is away
/// flushing a memtable between two output tables (a scaled flush is two
/// barriers and 64 KiB, ≈ 3 ms; a window takes 3.6 ms to read), with room to
/// spare so that the reader is not the one waiting when the consumer
/// returns. Depths of 1 to 8 windows measured the same on `fill_random`
/// (EXPERIMENTS.md): the merge is slower than the device, so one span of
/// lead is what the overlap needs and the rest is slack.
pub const SEQ_READAHEAD_BYTES: u64 = 4 * SEQ_READ_WINDOW;

/// What the sequential readers of one [`ReadPlan`] did.
#[derive(Debug, Default)]
pub struct SeqReadStats {
    ops: AtomicU64,
    bytes: AtomicU64,
    wait_nanos: AtomicU64,
    readahead_spans: AtomicU64,
    demand_spans: AtomicU64,
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

    /// Nanoseconds the consumer was blocked for a span: waiting for the
    /// reader to finish it, or reading it itself.
    pub fn wait_nanos(&self) -> u64 {
        self.wait_nanos.load(Ordering::Relaxed)
    }

    /// Spans the consumer took ready: the reader had them before they were
    /// asked for.
    pub fn readahead_spans(&self) -> u64 {
        self.readahead_spans.load(Ordering::Relaxed)
    }

    /// Spans the consumer had to wait for or read itself, ahead of the
    /// reader's next.
    pub fn demand_spans(&self) -> u64 {
        self.demand_spans.load(Ordering::Relaxed)
    }
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
/// decides them, for the plan and for the reader that takes them.
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

/// One run of a [`ReadPlan`].
struct PlannedRun {
    specs: Vec<TableSpec>,
    spans: Vec<Span>,
    /// Where this run's spans start in [`Buffer::slots`].
    first_slot: usize,
}

impl PlannedRun {
    /// The spans, by index, that hold table `index`: the one span of whole
    /// tables it is part of, or every span of a table larger than the window.
    fn spans_of(&self, index: usize) -> Range<usize> {
        let end = self.spans.partition_point(|s| s.table <= index);
        let first = end.checked_sub(1).and_then(|last| self.spans.get(last));
        let first = first.map_or(index, |s| s.table);
        self.spans.partition_point(|s| s.table < first)..end
    }
}

/// Where one planned span is.
enum Slot {
    /// Not read yet.
    Pending,
    /// The reader thread is reading it.
    Reading,
    /// Read and waiting for its consumer — with the error or the short read
    /// the file answered with, for the consumer that needs the span to find.
    Ready(Result<Vec<u8>>),
    /// Handed over. (Taking it again reads it again.)
    Taken,
}

/// The file handle each run read last: a run walks few files, one after the
/// other, so the one handle saves an fd-cache lookup per span, and an env
/// open per span where there is no fd cache.
type Files = Vec<Option<(u64, Arc<dyn RandomAccessFile>)>>;

/// What the reader and the consumers of a [`ReadPlan`] share.
struct Buffer {
    slots: Vec<Slot>,
    /// First position of [`ReadPlan::order`] the reader has not been past.
    next: usize,
    /// Bytes of `Ready` slots.
    buffered: u64,
    /// The device token: whoever holds the handles (took them out of here)
    /// may have a read in flight, so at most one is.
    files: Option<Files>,
    /// Consumers waiting for the token; the reader starts nothing meanwhile.
    demands: usize,
    /// No consumer is left: the reader stops.
    closed: bool,
    #[cfg(test)]
    peak_buffered: u64,
}

impl Buffer {
    fn set(&mut self, slot: usize, state: Slot) {
        if let Some(current) = self.slots.get_mut(slot) {
            *current = state;
        }
    }

    /// Hand over slot `slot` if it is read.
    fn take_ready(&mut self, slot: usize) -> Option<Result<Vec<u8>>> {
        let ready = self.slots.get_mut(slot)?;
        if !matches!(ready, Slot::Ready(_)) {
            return None;
        }
        let Slot::Ready(result) = std::mem::replace(ready, Slot::Taken) else {
            return None;
        };
        if let Ok(bytes) = &result {
            self.buffered -= bytes.len() as u64;
        }
        Some(result)
    }
}

/// The input reads of one compaction: every span of every run, the order
/// the merge is expected to need them in, and the buffer through which a
/// reader thread hands them to the runs' [`SeqReader`]s.
///
/// The order is advice. A reader that needs a span the thread has not
/// reached reads it itself, ahead of the thread's next (which waits); one
/// the thread is in the middle of is waited for. Whoever reads holds the
/// one device token, so the plan never has two reads in flight and never
/// asks the device for more than the serial reader it replaces did; and the
/// thread reads ahead only while the spans it holds untaken fit
/// [`SEQ_READAHEAD_BYTES`]. Correctness and that bound hold for any order,
/// and without a thread at all: then every span is read where it is taken.
pub struct ReadPlan {
    cache: Arc<TableCache>,
    runs: Vec<PlannedRun>,
    /// `(run, span)` in the order the consumer is expected to take them.
    order: Vec<(usize, usize)>,
    stats: SeqReadStats,
    /// Leaf lock: nothing is acquired under it and it is never held across
    /// a read of a file.
    buffer: Mutex<Buffer>,
    changed: Condvar,
}

impl std::fmt::Debug for ReadPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadPlan")
            .field("runs", &self.runs.len())
            .field("spans", &self.order.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ReadPlan {
    /// Plan the reads of `runs` (each one run's tables in key order). The
    /// spans are those of [`spans`]; `before` orders them, given as
    /// `(run, span)`, by when their consumer will need them — spans it calls
    /// equal stay in run order, then file order. File handles and read
    /// options come from `cache`.
    pub fn new(
        cache: Arc<TableCache>,
        runs: Vec<Vec<TableSpec>>,
        mut before: impl FnMut((usize, &Span), (usize, &Span)) -> KeyOrder,
    ) -> Arc<ReadPlan> {
        let mut order = Vec::new();
        let mut planned: Vec<PlannedRun> = Vec::with_capacity(runs.len());
        for (run, specs) in runs.into_iter().enumerate() {
            let spans = spans(&specs);
            let first_slot = order.len();
            order.extend((0..spans.len()).map(|span| (run, span)));
            planned.push(PlannedRun {
                specs,
                spans,
                first_slot,
            });
        }
        let span = |&(run, span): &(usize, usize)| (run, &planned[run].spans[span]);
        order.sort_by(|a, b| before(span(a), span(b)));
        let buffer = Buffer {
            slots: order.iter().map(|_| Slot::Pending).collect(),
            next: 0,
            buffered: 0,
            files: Some(planned.iter().map(|_| None).collect()),
            demands: 0,
            closed: false,
            #[cfg(test)]
            peak_buffered: 0,
        };
        Arc::new(ReadPlan {
            cache,
            runs: planned,
            order,
            stats: SeqReadStats::default(),
            buffer: named_mutex("table.readahead", buffer),
            changed: Condvar::new(),
        })
    }

    /// The reader of run `run`.
    pub fn reader(self: &Arc<Self>, run: usize) -> SeqReader {
        SeqReader {
            plan: Arc::clone(self),
            run,
            opts: TableReadOptions {
                block_cache: None,
                ..self.cache.opts.clone()
            },
            current: None,
        }
    }

    /// What the plan's readers did so far.
    pub fn stats(&self) -> &SeqReadStats {
        &self.stats
    }

    /// The planned reads as `(file number, offset, length)`, in plan order.
    pub fn order(&self) -> Vec<(u64, u64, u64)> {
        let read = |&(run, span): &(usize, usize)| {
            let run = self.runs.get(run)?;
            let span = run.spans.get(span)?;
            Some((
                run.specs.get(span.table)?.file_number,
                span.offset,
                span.len,
            ))
        };
        self.order.iter().filter_map(read).collect()
    }

    /// Run `consume` — which takes the plan's spans through its
    /// [`reader`](Self::reader)s — with a thread reading the plan ahead of
    /// it, one span at a time. `immediate` is how many spans `consume` needs
    /// before it can do anything else: a plan of no more than that has
    /// nothing to overlap and gets no thread.
    ///
    /// When `consume` returns, or unwinds, the buffer is closed: the thread
    /// exits at its next step (after the read it is in, never blocked on a
    /// full buffer), so this returns as soon as `consume` does.
    pub fn run_ahead<T>(&self, immediate: usize, consume: impl FnOnce() -> T) -> T {
        struct Close<'a>(&'a ReadPlan);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                self.0.buffer.lock().closed = true;
                self.0.changed.notify_all();
            }
        }
        if self.order.len() <= immediate {
            return consume();
        }
        std::thread::scope(|scope| {
            let _close = Close(self);
            // Without the thread (the process is out of them) every span is
            // read where it is taken.
            let _ = std::thread::Builder::new()
                .name("bolt-seq-read".to_string())
                .spawn_scoped(scope, || self.read_ahead());
            consume()
        })
    }

    /// Span `span` of run `run`, and its slot in the buffer.
    fn slot_of(&self, run: usize, span: usize) -> Option<(usize, Span)> {
        let planned = self.runs.get(run)?;
        Some((planned.first_slot + span, *planned.spans.get(span)?))
    }

    /// The reader thread: read the next pending span of the plan whenever
    /// the device is free, no consumer wants it and the budget has room,
    /// until the plan is through, a read fails or comes back short (the
    /// consumer that needs it finds the error in the slot; nothing past it
    /// is read), or the buffer is closed.
    fn read_ahead(&self) {
        let mut buffer = self.buffer.lock();
        loop {
            // The next span of the plan that nobody has read.
            let (run, slot, span) = loop {
                let Some(&(run, span)) = self.order.get(buffer.next) else {
                    return;
                };
                match self.slot_of(run, span) {
                    None => return,
                    Some((slot, span)) if matches!(buffer.slots.get(slot), Some(Slot::Pending)) => {
                        break (run, slot, span);
                    }
                    Some(_) => buffer.next += 1,
                }
            };
            if buffer.closed {
                return;
            }
            let room = buffer.buffered == 0 || buffer.buffered + span.len <= SEQ_READAHEAD_BYTES;
            let files = match (buffer.demands, room) {
                (0, true) => buffer.files.take(),
                _ => None,
            };
            let Some(mut files) = files else {
                self.changed.wait(&mut buffer);
                continue;
            };
            buffer.set(slot, Slot::Reading);
            let result = MutexGuard::unlocked(&mut buffer, || {
                self.fetch(&mut files, run, span.table, span.offset, span.len)
            });
            buffer.files = Some(files);
            let whole = matches!(&result, Ok(bytes) if bytes.len() as u64 == span.len);
            if let Ok(bytes) = &result {
                buffer.buffered += bytes.len() as u64;
                #[cfg(test)]
                {
                    buffer.peak_buffered = buffer.peak_buffered.max(buffer.buffered);
                }
            }
            buffer.set(slot, Slot::Ready(result));
            self.changed.notify_all();
            if !whole {
                return;
            }
        }
    }

    /// Hand span `span` of run `run` to its consumer: as the reader thread
    /// left it, or read here and now.
    fn take(&self, run: usize, span: usize) -> Result<Vec<u8>> {
        let (slot, planned) = self
            .slot_of(run, span)
            .ok_or_else(|| Error::InvalidArgument(format!("no span {span} in run {run}")))?;
        let mut buffer = self.buffer.lock();
        if let Some(ready) = buffer.take_ready(slot) {
            drop(buffer);
            // Room in the budget.
            self.changed.notify_all();
            self.stats.readahead_spans.fetch_add(1, Ordering::Relaxed);
            return ready;
        }
        self.stats.demand_spans.fetch_add(1, Ordering::Relaxed);
        let blocked = Instant::now();
        let (table, offset, len) = (planned.table, planned.offset, planned.len);
        let result = self.read_now(&mut buffer, Some(slot), run, table, offset, len);
        drop(buffer);
        let blocked = u64::try_from(blocked.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.wait_nanos.fetch_add(blocked, Ordering::Relaxed);
        result
    }

    /// Read `len` bytes at `offset` of the file of `table` on this thread,
    /// ahead of the reader thread's next read, as soon as the device is
    /// free. They are the span of `slot`, or (`None`) bytes no span of the
    /// plan holds: a read a table's own extents cannot explain. A span the
    /// reader thread is in the middle of is waited for instead.
    fn read_now(
        &self,
        buffer: &mut MutexGuard<'_, Buffer>,
        slot: Option<usize>,
        run: usize,
        table: usize,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        buffer.demands += 1;
        let result = loop {
            if let Some(ready) = slot.and_then(|slot| buffer.take_ready(slot)) {
                break ready;
            }
            let files = match slot.and_then(|slot| buffer.slots.get(slot)) {
                Some(Slot::Reading) => None,
                _ => buffer.files.take(),
            };
            let Some(mut files) = files else {
                self.changed.wait(buffer);
                continue;
            };
            let result =
                MutexGuard::unlocked(buffer, || self.fetch(&mut files, run, table, offset, len));
            buffer.files = Some(files);
            if let Some(slot) = slot {
                buffer.set(slot, Slot::Taken);
            }
            // A failed or short read ends the compaction that asked for
            // it: nothing past it is read.
            buffer.closed |= !matches!(&result, Ok(bytes) if bytes.len() as u64 == len);
            break result;
        };
        buffer.demands -= 1;
        self.changed.notify_all();
        result
    }

    /// One counted read of the file of table `table` of run `run` — the one
    /// device read of this module, made by whoever holds `files`.
    fn fetch(
        &self,
        files: &mut Files,
        run: usize,
        table: usize,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>> {
        // A device read is the slow kind of call: never under an engine lock.
        #[cfg(feature = "debug_locks")]
        for lock in ["core.versions", "core.state", "table.readahead"] {
            assert!(
                !bolt_common::debug_locks::thread_holds(lock),
                "sequential read issued while holding tracked lock `{lock}`"
            );
        }
        let spec = (self.runs.get(run)).and_then(|r| r.specs.get(table));
        let (spec, handle) = spec
            .zip(files.get_mut(run))
            .ok_or_else(|| Error::InvalidArgument(format!("no table {table} in run {run}")))?;
        let file = match handle {
            Some((number, file)) if *number == spec.file_number => Arc::clone(file),
            _ => {
                let file = self.cache.open_file(spec.file_number, &spec.path)?;
                *handle = Some((spec.file_number, Arc::clone(&file)));
                file
            }
        };
        let len = usize::try_from(len).map_err(|_| Error::corruption("span larger than memory"))?;
        let bytes = file.read(offset, len)?;
        self.stats.ops.fetch_add(1, Ordering::Relaxed);
        (self.stats.bytes).fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
}

/// A [`RandomAccessFile`] over the spans that hold one table, or the whole
/// tables that share one span: reads inside them are served from the span
/// last taken from the plan, and a read they cannot explain goes to the
/// file.
struct SpanFile {
    plan: Arc<ReadPlan>,
    run: usize,
    /// The spans, by index in the run, whose tables read through this file.
    spans: Range<usize>,
    /// The span in hand, by index. A cell: emptied for the length of a
    /// read, never locked across a take.
    held: Mutex<Option<(usize, Vec<u8>)>>,
}

impl SpanFile {
    /// The span of this file that holds byte `at`, by index.
    fn span_at(&self, run: &PlannedRun, at: u64) -> Option<(usize, Span)> {
        let spans = run.spans.get(self.spans.clone())?;
        let found = spans
            .iter()
            .position(|s| s.offset <= at && at - s.offset < s.len)?;
        Some((self.spans.start + found, *spans.get(found)?))
    }
}

impl RandomAccessFile for SpanFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let run = (self.plan.runs.get(self.run))
            .ok_or_else(|| Error::InvalidArgument(format!("no run {}", self.run)))?;
        let end = offset.saturating_add(len as u64);
        let mut held = self.held.lock().take();
        let mut out = Vec::new();
        let mut at = offset;
        // Span by span: a block of a table larger than the window can start
        // in one window and end in the next.
        while at < end {
            let in_hand = held.as_ref().and_then(|(index, _)| {
                let span = *run.spans.get(*index)?;
                (span.offset <= at && at - span.offset < span.len).then_some((*index, span))
            });
            let Some((index, span)) = in_hand.or_else(|| self.span_at(run, at)) else {
                break;
            };
            // A span in hand that is behind the reader is let go of first.
            held = held.filter(|(in_hand, _)| *in_hand == index);
            let bytes = match held.take() {
                Some((_, bytes)) => bytes,
                None => self.plan.take(self.run, index)?,
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
        *self.held.lock() = held;
        if at == offset {
            let table = run.spans.get(self.spans.start).map_or(0, |s| s.table);
            let plan = &self.plan;
            let mut buffer = plan.buffer.lock();
            return plan.read_now(&mut buffer, None, self.run, table, offset, len as u64);
        }
        Ok(out)
    }

    /// The end of the bytes this file can serve (nothing asks a table's
    /// file for its length; the real one would cost an open).
    fn len(&self) -> u64 {
        let spans = (self.plan.runs.get(self.run)).and_then(|r| r.spans.get(self.spans.clone()));
        let ends = (spans.into_iter().flatten()).map(|s| s.offset.saturating_add(s.len));
        ends.max().unwrap_or(0)
    }
}

/// Opens the tables of one run of a [`ReadPlan`], in order, for a reader
/// that will consume each of them front to back.
pub struct SeqReader {
    plan: Arc<ReadPlan>,
    run: usize,
    opts: TableReadOptions,
    /// The adapter over the spans of the last table opened.
    current: Option<Arc<SpanFile>>,
}

impl std::fmt::Debug for SeqReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqReader")
            .field("run", &self.run)
            .field("plan", &self.plan)
            .finish()
    }
}

impl SeqReader {
    /// Open table `index` of the run. Its bytes are *taken* from the plan,
    /// span by span as its iterator advances: each is already there when
    /// the plan's reader got to it first, and is read on the spot when not.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for malformed or truncated tables and
    /// I/O errors from the file, at the table whose span met them.
    pub fn open(&mut self, index: usize) -> Result<Arc<Table>> {
        let run = self.plan.runs.get(self.run);
        let (run, spec) = run
            .and_then(|r| Some((r, r.specs.get(index)?)))
            .ok_or_else(|| Error::InvalidArgument(format!("no table {index} in this run")))?;
        if spec.offset.checked_add(spec.size).is_none() {
            return Err(Error::corruption("table extent overflows"));
        }
        let spans = run.spans_of(index);
        let file = match &self.current {
            Some(file) if file.spans == spans => Arc::clone(file),
            _ => {
                let file = Arc::new(SpanFile {
                    plan: Arc::clone(&self.plan),
                    run: self.run,
                    spans,
                    held: Mutex::new(None),
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
    use std::sync::atomic::AtomicUsize;

    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// Logs every read and how many were in flight at once; optionally
    /// fails the n-th, or ends the file early.
    struct TestFile {
        inner: Arc<dyn RandomAccessFile>,
        log: Mutex<Vec<(u64, usize)>>,
        fail_read: Option<usize>,
        cut_at: Option<u64>,
        in_flight: AtomicUsize,
        most_in_flight: AtomicUsize,
    }

    impl RandomAccessFile for TestFile {
        fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
            let in_flight = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.most_in_flight.fetch_max(in_flight, Ordering::SeqCst);
            let nth = {
                let mut log = self.log.lock();
                log.push((offset, len));
                log.len()
            };
            // Long enough for a second reader, were there one, to overlap.
            std::thread::yield_now();
            let result = if self.fail_read == Some(nth) {
                Err(Error::io("injected read error"))
            } else {
                let len = match self.cut_at {
                    Some(cut) => len.min(cut.saturating_sub(offset) as usize),
                    None => len,
                };
                self.inner.read(offset, len)
            };
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            result
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
            in_flight: AtomicUsize::new(0),
            most_in_flight: AtomicUsize::new(0),
        })
    }

    /// The plan's own order: run order, then file order.
    fn in_order(_: (usize, &Span), _: (usize, &Span)) -> KeyOrder {
        KeyOrder::Equal
    }

    /// The opposite of the order the spans are needed in.
    fn backwards(a: (usize, &Span), b: (usize, &Span)) -> KeyOrder {
        (b.1.table, b.1.part).cmp(&(a.1.table, a.1.part))
    }

    /// A plan over the one run `specs` whose file 7 is `file`.
    fn plan_over(
        env: &Arc<dyn Env>,
        specs: &[TableSpec],
        file: &Arc<TestFile>,
        before: fn((usize, &Span), (usize, &Span)) -> KeyOrder,
    ) -> Arc<ReadPlan> {
        let plan = ReadPlan::new(cache(env), vec![specs.to_vec()], before);
        let file = Arc::clone(file) as Arc<dyn RandomAccessFile>;
        plan.buffer.lock().files = Some(vec![Some((7, file))]);
        plan
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

    /// Every table of the plan's run, front to back, on this thread; with
    /// the entries, the first table that could not be read.
    fn consume(plan: &Arc<ReadPlan>, mut pause: impl FnMut()) -> (Entries, Option<(usize, Error)>) {
        let mut reader = plan.reader(0);
        let mut out = Vec::new();
        for i in 0..plan.runs[0].specs.len() {
            pause();
            if let Err(e) = reader.open(i).and_then(|table| drain(&table, &mut out)) {
                return (out, Some((i, e)));
            }
        }
        (out, None)
    }

    /// The run read without a thread (every span where it is taken) or
    /// with the plan's reader thread ahead of this one.
    fn consume_all(plan: &Arc<ReadPlan>, ahead: bool) -> (Entries, Option<(usize, Error)>) {
        match ahead {
            true => plan.run_ahead(0, || consume(plan, || ())),
            false => consume(plan, || ()),
        }
    }

    fn read(plan: &Arc<ReadPlan>, ahead: bool) -> Result<Entries> {
        let (entries, failed) = consume_all(plan, ahead);
        failed.map_or(Ok(entries), |(_, e)| Err(e))
    }

    fn serial(plan: &Arc<ReadPlan>) -> Result<Entries> {
        read(plan, false)
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

    fn sorted(mut log: Vec<(u64, usize)>) -> Vec<(u64, usize)> {
        log.sort_unstable();
        log
    }

    #[test]
    fn contiguous_tables_stream_identically_in_window_sized_reads() {
        let (env, specs) = build(40, 120);
        let total: u64 = specs.iter().map(|s| s.size).sum();
        assert!(total > 2 * SEQ_READ_WINDOW, "must cross windows: {total}");
        let file = test_file(&env, None, None);
        let plan = plan_over(&env, &specs, &file, in_order);

        let streamed = serial(&plan).unwrap();
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
        assert_eq!(plan.stats().ops(), log.len() as u64);
        assert_eq!(plan.stats().bytes(), total);
        // Every span was read where it was taken, and that was waited for.
        assert_eq!(plan.stats().demand_spans(), log.len() as u64);
        assert_eq!(plan.stats().readahead_spans(), 0);
        assert!(plan.stats().wait_nanos() > 0);
        // The reference read the same bytes in far more pieces.
        assert!(block_reads > 20 * log.len() as u64, "{block_reads}");
    }

    #[test]
    fn a_gap_between_two_tables_is_never_read() {
        let (env, mut specs) = build(3, 60);
        let hole = specs.remove(1);
        env.punch_hole(&hole.path, hole.offset, hole.size).unwrap();
        let file = test_file(&env, None, None);
        let plan = plan_over(&env, &specs, &file, in_order);
        assert_eq!(serial(&plan).unwrap(), per_block(&env, &specs));
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
        let plan = plan_over(&env, &specs, &file, in_order);
        assert_eq!(serial(&plan).unwrap(), per_block(&env, &specs));
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
        let plan = plan_over(&env, &unknown, &file, in_order);
        assert_eq!(read(&plan, true).unwrap(), per_block(&env, &specs));
        assert!(file.log().iter().all(|r| r.0 + r.1 as u64 <= size));
    }

    /// The three shapes a run takes — whole tables back to back, a punched
    /// gap, a table larger than the window — read with the reader thread
    /// ahead and without: the same entries from the same reads, no span
    /// twice, every input byte once.
    #[test]
    fn the_reader_thread_changes_who_reads_not_what_is_read() {
        let contiguous = build(40, 120);
        let mut gap = build(9, 300);
        let hole = gap.1.remove(4);
        gap.0
            .punch_hole(&hole.path, hole.offset, hole.size)
            .unwrap();
        let large = build(1, 5000);
        for (env, specs) in [contiguous, gap, large] {
            let total: u64 = specs.iter().map(|s| s.size).sum();
            let reference = per_block(&env, &specs);
            let mut logs = Vec::new();
            for ahead in [false, true] {
                let file = test_file(&env, None, None);
                let plan = plan_over(&env, &specs, &file, in_order);
                assert_eq!(read(&plan, ahead).unwrap(), reference);
                let log = sorted(file.log());
                assert!(
                    log.windows(2).all(|w| w[0] != w[1]),
                    "a span twice: {log:?}"
                );
                assert_eq!(log.iter().map(|r| r.1 as u64).sum::<u64>(), total);
                assert_eq!(
                    log,
                    sorted(plan.order().iter().map(|r| (r.1, r.2 as usize)).collect())
                );
                let taken = plan.stats().readahead_spans() + plan.stats().demand_spans();
                assert_eq!(
                    (plan.stats().ops(), taken),
                    (log.len() as u64, log.len() as u64)
                );
                assert_eq!(file.most_in_flight.load(Ordering::SeqCst), 1);
                logs.push(log);
            }
            assert_eq!(logs[0], logs[1]);
        }
    }

    /// The reader thread and the consumers that read for themselves share
    /// one device token: a plan in the wrong order, where nearly every take
    /// jumps the queue while the thread reads something else, never has two
    /// reads in flight — and never holds more than the budget.
    #[test]
    fn one_read_in_flight_and_a_bounded_buffer_whatever_the_plan_says() {
        let (env, specs) = build(160, 120);
        let total: u64 = specs.iter().map(|s| s.size).sum();
        assert!(total > SEQ_READAHEAD_BYTES + 2 * SEQ_READ_WINDOW, "{total}");
        let reference = per_block(&env, &specs);
        for before in [in_order, backwards] {
            let file = test_file(&env, None, None);
            let plan = plan_over(&env, &specs, &file, before);
            // A slow consumer: it takes nothing until the reader has read
            // all it may (or all there is).
            let full = |buffer: &Buffer| {
                buffer.next >= plan.order.len()
                    || buffer.buffered + SEQ_READ_WINDOW > SEQ_READAHEAD_BYTES
            };
            let wait_until_full = || {
                let waiting = Instant::now();
                while !full(&plan.buffer.lock()) && waiting.elapsed().as_secs() < 30 {
                    std::thread::yield_now();
                }
            };
            let (entries, failed) = plan.run_ahead(0, || consume(&plan, wait_until_full));
            assert!(failed.is_none(), "{failed:?}");
            assert_eq!(entries, reference);
            assert_eq!(file.most_in_flight.load(Ordering::SeqCst), 1);
            let peak = plan.buffer.lock().peak_buffered;
            assert!(peak <= SEQ_READAHEAD_BYTES, "{peak} bytes buffered");
            assert!(
                peak > SEQ_READAHEAD_BYTES - SEQ_READ_WINDOW,
                "never full: {peak}"
            );
            // Backwards, what the thread read first is what is needed last.
            let log = file.log();
            assert_eq!(log.iter().map(|r| r.1 as u64).sum::<u64>(), total);
            assert_eq!(plan.stats().ops(), log.len() as u64);
        }
    }

    #[test]
    fn short_reads_and_errors_surface_at_the_table_that_needed_them() {
        // Small tables: a span comes back short, or not at all. The reads
        // happen in plan order whoever makes them, so the k-th read is the
        // k-th span.
        let (env, specs) = build(120, 120);
        let spans = spans(&specs);
        assert!(spans.len() > 5, "{spans:?}");
        for ahead in [false, true] {
            let cut = specs[50].offset + specs[50].size / 2;
            let file = test_file(&env, None, Some(cut));
            let (entries, failed) = consume_all(&plan_over(&env, &specs, &file, in_order), ahead);
            let (table, error) = failed.unwrap();
            assert!(error.is_corruption(), "{error:?}");
            assert_eq!((table, entries.len()), (50, 50 * 120));
            // The span that came back short is the last one read.
            let short = spans.iter().position(|s| s.offset + s.len > cut).unwrap();
            assert_eq!(file.log().len(), short + 1);

            let file = test_file(&env, Some(3), None);
            let (_, failed) = consume_all(&plan_over(&env, &specs, &file, in_order), ahead);
            let (table, error) = failed.unwrap();
            assert!(matches!(error, Error::Io(_)), "{error:?}");
            assert_eq!(table, spans[2].table);
            assert_eq!(file.log().len(), 3, "a span past the failed one was read");
        }

        // One large table: the same two faults in the middle of its data.
        let (env, specs) = build(1, 5000);
        let windows = super::spans(&specs).len();
        assert!(windows >= 4, "{windows}");
        for ahead in [false, true] {
            let file = test_file(&env, None, Some(specs[0].size / 2));
            let short = plan_over(&env, &specs, &file, in_order);
            assert!(read(&short, ahead).unwrap_err().is_corruption());
            let file = test_file(&env, Some(windows / 2 + 1), None);
            let failing = plan_over(&env, &specs, &file, in_order);
            assert!(matches!(read(&failing, ahead), Err(Error::Io(_))));
            assert_eq!(file.log().len(), windows / 2 + 1);
        }

        // A read the tables' own extents cannot explain goes to the file.
        let file = test_file(&env, None, None);
        let plan = plan_over(&env, &specs, &file, in_order);
        let mut reader = plan.reader(0);
        reader.open(0).unwrap();
        let span = reader.current.as_ref().unwrap();
        assert!(span.read(u64::MAX, 16).is_err());
        assert_eq!(span.read(specs[0].size - 4, 16).unwrap().len(), 4);
    }

    /// A consumer that goes away in the middle of the plan — the reader
    /// thread blocked on a full buffer at that moment — does not hang the
    /// scope that joins the thread.
    #[test]
    fn a_consumer_dropped_mid_plan_releases_the_reader_thread() {
        let (env, specs) = build(160, 120);
        let file = test_file(&env, None, None);
        let plan = plan_over(&env, &specs, &file, in_order);
        let started = Instant::now();
        let taken = plan.run_ahead(0, || {
            let mut reader = plan.reader(0);
            let mut out = Vec::new();
            drain(&reader.open(0).unwrap(), &mut out).unwrap();
            // The reader is as far ahead as it may go, waiting for room.
            while plan.buffer.lock().buffered + SEQ_READ_WINDOW <= SEQ_READAHEAD_BYTES
                && started.elapsed().as_secs() < 30
            {
                std::thread::yield_now();
            }
            out.len()
        });
        assert_eq!(taken, 120);
        assert!(started.elapsed().as_secs() < 30, "the reader thread hung");
        assert!(plan.buffer.lock().closed);
        let read = file.log().len();
        assert!(
            read < spans(&specs).len(),
            "nothing was left unread: {read}"
        );
    }
}
