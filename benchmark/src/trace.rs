//! The outside-in layer trace: a span recorder around every facade call and
//! a [`TracingEnv`] that wraps the public `Env` trait.
//!
//! Nothing here reaches inside the engine. An operation span is opened by
//! the client around one `Db`/`DbIterator` call; every env call made on that
//! thread while it is open becomes its child. Env calls on threads that
//! have no client registration (the engine's background thread) are
//! background spans. Aggregates are kept for the whole run and the first
//! [`RAW_SPAN_CAP`] raw spans are kept for `out/<workload>.spans.jsonl`.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bolt::bolt_env::{RandomAccessFile, WritableFile};
use bolt::{Env, IoSnapshot, IoStats, Result};

use crate::stats::LatencyHistogram;

/// Raw spans kept per run; later spans only feed the aggregates.
pub const RAW_SPAN_CAP: usize = 100_000;

/// The facade calls a client wraps in a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Put,
    Get,
    IterCreate,
    Seek,
    /// One span per scan, covering all of its `next` calls.
    Next,
    Flush,
}

impl OpKind {
    #[cfg(test)]
    pub const ALL: [OpKind; 6] = [
        OpKind::Put,
        OpKind::Get,
        OpKind::IterCreate,
        OpKind::Seek,
        OpKind::Next,
        OpKind::Flush,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Put => "op.put",
            OpKind::Get => "op.get",
            OpKind::IterCreate => "op.iter_create",
            OpKind::Seek => "op.seek",
            OpKind::Next => "op.next",
            OpKind::Flush => "op.flush",
        }
    }
}

/// The env calls the wrapper times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvOp {
    Append,
    Sync,
    Read,
    Open,
    Create,
    Delete,
    Rename,
    Punch,
    /// Metadata queries and links: `file_exists`, `file_size`, `list_dir`,
    /// `create_dir_all`, `link_file`, `link_count`.
    Other,
}

impl EnvOp {
    pub const ALL: [EnvOp; 9] = [
        EnvOp::Append,
        EnvOp::Sync,
        EnvOp::Read,
        EnvOp::Open,
        EnvOp::Create,
        EnvOp::Delete,
        EnvOp::Rename,
        EnvOp::Punch,
        EnvOp::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EnvOp::Append => "env.append",
            EnvOp::Sync => "env.sync",
            EnvOp::Read => "env.read",
            EnvOp::Open => "env.open",
            EnvOp::Create => "env.create",
            EnvOp::Delete => "env.delete",
            EnvOp::Rename => "env.rename",
            EnvOp::Punch => "env.punch",
            EnvOp::Other => "env.other",
        }
    }
}

/// What a file holds, told from its name alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    Wal,
    Table,
    Manifest,
    Other,
}

impl FileClass {
    const COUNT: usize = 4;

    pub fn of(path: &str) -> FileClass {
        let name = path.rsplit('/').next().unwrap_or(path);
        if name.ends_with(".log") {
            FileClass::Wal
        } else if name.ends_with(".sst") {
            FileClass::Table
        } else if name.starts_with("MANIFEST-") {
            FileClass::Manifest
        } else {
            FileClass::Other
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            FileClass::Wal => "wal",
            FileClass::Table => "table",
            FileClass::Manifest => "manifest",
            FileClass::Other => "other",
        }
    }
}

/// One recorded interval. `parent` is the span that caused it (0 for a
/// root); `op` is shared by all spans of one client operation (0 for
/// background work); `thread` is 0 for background, else the client number.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub class: Option<FileClass>,
    pub thread: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
    /// Operation spans only: env time recorded under the span while it was
    /// open, kept beside the children so that the two can be cross-checked.
    pub child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn write_json(&self, out: &mut String) {
        let thread = match self.thread {
            0 => "bg".to_string(),
            n => format!("client{}", n - 1),
        };
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}",
            self.id, self.parent, self.name, thread, self.start_ns, self.end_ns, self.op
        );
        match self.class {
            Some(class) => {
                let _ = write!(out, ",\"class\":\"{}\"", class.name());
            }
            None => {
                let _ = write!(out, ",\"child_ns\":{}", self.child_ns);
            }
        }
        out.push_str("}\n");
    }
}

/// What the calling thread is doing, as far as the trace knows.
#[derive(Debug, Clone, Copy, Default)]
struct ThreadCtx {
    /// 0 = not a client thread.
    client: u8,
    /// The open operation span, 0 when none.
    op: u64,
    /// Env time, reads and bytes accumulated under the open operation.
    child_ns: u64,
    child_reads: u64,
    child_read_bytes: u64,
}

thread_local! {
    static CTX: Cell<ThreadCtx> = const { Cell::new(ThreadCtx {
        client: 0, op: 0, child_ns: 0, child_reads: 0, child_read_bytes: 0,
    }) };
}

/// Marks the calling thread as client `index` until dropped.
#[derive(Debug)]
pub struct ClientRegistration(());

impl ClientRegistration {
    pub fn new(index: usize) -> Self {
        CTX.with(|c| {
            c.set(ThreadCtx {
                client: index as u8 + 1,
                ..ThreadCtx::default()
            })
        });
        ClientRegistration(())
    }
}

impl Drop for ClientRegistration {
    fn drop(&mut self) {
        CTX.with(|c| c.set(ThreadCtx::default()));
    }
}

/// Count, bytes and busy time of one kind of env call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvCell {
    pub count: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

impl EnvCell {
    fn add(&mut self, other: &EnvCell) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.busy_ns += other.busy_ns;
    }
}

/// Env totals indexed by side (0 foreground, 1 background), call and class.
#[derive(Debug, Clone, Default)]
pub struct EnvTotals {
    cells: [[[EnvCell; FileClass::COUNT]; EnvOp::ALL.len()]; 2],
}

impl EnvTotals {
    /// Sum over the chosen sides and classes (`None` = all).
    pub fn sum(&self, op: EnvOp, class: Option<FileClass>, background: Option<bool>) -> EnvCell {
        let mut total = EnvCell::default();
        for (side, by_op) in self.cells.iter().enumerate() {
            if background.is_some_and(|bg| bg != (side == 1)) {
                continue;
            }
            for (c, cell) in by_op[op as usize].iter().enumerate() {
                if class.is_none_or(|want| want as usize == c) {
                    total.add(cell);
                }
            }
        }
        total
    }

    /// How many of the wrapper's counts differ from the env's own counters
    /// `io`, taken over the same interval at a moment when no env call was
    /// in flight. Must be 0.
    pub fn mismatches(&self, io: &IoSnapshot) -> u64 {
        let all = |op| self.sum(op, None, None);
        let pairs = [
            (all(EnvOp::Append).count, io.write_ops),
            (all(EnvOp::Append).bytes, io.bytes_written),
            (
                all(EnvOp::Sync).count,
                io.fsync_calls + io.ordering_barriers,
            ),
            (all(EnvOp::Read).count, io.read_ops),
            (all(EnvOp::Read).bytes, io.bytes_read),
            (all(EnvOp::Create).count, io.files_created),
            (all(EnvOp::Delete).count, io.files_deleted),
            (all(EnvOp::Punch).count, io.holes_punched),
            (all(EnvOp::Punch).bytes, io.hole_bytes),
        ];
        pairs.iter().filter(|(mine, theirs)| mine != theirs).count() as u64
    }

    /// Busy nanoseconds of every call on one side.
    pub fn busy_ns(&self, background: bool) -> u64 {
        EnvOp::ALL
            .iter()
            .map(|&op| self.sum(op, None, Some(background)).busy_ns)
            .sum()
    }
}

/// Per-kind totals of the operation spans one client closed.
#[derive(Debug, Clone, Default)]
pub struct OpTotals {
    pub durations: LatencyHistogram,
    pub child_ns: u64,
    pub env_reads: u64,
    pub env_read_bytes: u64,
}

impl OpTotals {
    pub fn merge(&mut self, other: &OpTotals) {
        self.durations.merge(&other.durations);
        self.child_ns += other.child_ns;
        self.env_reads += other.env_reads;
        self.env_read_bytes += other.env_read_bytes;
    }

    /// Mean duration minus mean child-covered time, in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        match self.durations.count() {
            0 => 0.0,
            n => (self.durations.sum_ns() - self.child_ns) as f64 / n as f64,
        }
    }
}

/// The shared half of the recorder: clock, span ids, raw spans, env totals.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    raw_len: AtomicUsize,
    raw: Mutex<Vec<Span>>,
    env: Mutex<EnvTotals>,
    spans: AtomicU64,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("spans", &self.spans.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            raw_len: AtomicUsize::new(0),
            raw: Mutex::new(Vec::new()),
            env: Mutex::new(EnvTotals::default()),
            spans: AtomicU64::new(0),
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Forget everything recorded so far (set-up is not part of the trace).
    pub fn reset(&self) {
        self.raw
            .lock()
            .expect("no panic under the raw lock")
            .clear();
        self.raw_len.store(0, Ordering::Relaxed);
        *self.env.lock().expect("no panic under the env lock") = EnvTotals::default();
        self.spans.store(0, Ordering::Relaxed);
    }

    fn push(&self, span: Span) {
        self.spans.fetch_add(1, Ordering::Relaxed);
        if self.raw_len.load(Ordering::Relaxed) >= RAW_SPAN_CAP {
            return;
        }
        let mut raw = self.raw.lock().expect("no panic under the raw lock");
        if raw.len() < RAW_SPAN_CAP {
            raw.push(span);
            self.raw_len.store(raw.len(), Ordering::Relaxed);
        }
    }

    /// Record a background interval reconstructed from engine events.
    pub fn push_background(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push(Span {
            id: self.next_id(),
            parent: 0,
            name,
            class: None,
            thread: 0,
            start_ns,
            end_ns,
            op: 0,
            child_ns: 0,
        });
    }

    /// Make one env call and record it; `bytes_of` reads the bytes moved
    /// off the call's result.
    fn time_env<R>(
        &self,
        op: EnvOp,
        class: FileClass,
        call: impl FnOnce() -> R,
        bytes_of: impl FnOnce(&R) -> u64,
    ) -> R {
        let start_ns = self.now_ns();
        let result = call();
        self.record_env(op, class, start_ns, bytes_of(&result));
        result
    }

    fn record_env(&self, op: EnvOp, class: FileClass, start_ns: u64, bytes: u64) {
        let end_ns = self.now_ns();
        let busy_ns = end_ns - start_ns;
        let ctx = CTX.with(|c| {
            let mut ctx = c.get();
            if ctx.op != 0 {
                ctx.child_ns += busy_ns;
                if op == EnvOp::Read {
                    ctx.child_reads += 1;
                    ctx.child_read_bytes += bytes;
                }
                c.set(ctx);
            }
            ctx
        });
        {
            let mut env = self.env.lock().expect("no panic under the env lock");
            let side = usize::from(ctx.client == 0);
            env.cells[side][op as usize][class as usize].add(&EnvCell {
                count: 1,
                bytes,
                busy_ns,
            });
        }
        self.push(Span {
            id: self.next_id(),
            parent: ctx.op,
            name: op.name(),
            class: Some(class),
            thread: ctx.client,
            start_ns,
            end_ns,
            op: ctx.op,
            child_ns: 0,
        });
    }

    pub fn env_totals(&self) -> EnvTotals {
        self.env
            .lock()
            .expect("no panic under the env lock")
            .clone()
    }

    /// Spans recorded since the last reset, kept raw or not.
    pub fn span_count(&self) -> u64 {
        self.spans.load(Ordering::Relaxed)
    }

    pub fn raw_spans(&self) -> Vec<Span> {
        self.raw
            .lock()
            .expect("no panic under the raw lock")
            .clone()
    }

    /// The raw spans as JSON lines, ordered by start time.
    pub fn raw_spans_jsonl(&self) -> String {
        let mut spans = self.raw_spans();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::with_capacity(spans.len() * 120);
        for span in &spans {
            span.write_json(&mut out);
        }
        out
    }
}

/// An operation span that is open on the calling thread.
#[derive(Debug)]
pub struct OpenOp {
    kind: OpKind,
    id: u64,
    start_ns: u64,
}

/// The per-client half of the recorder: operation totals need no lock.
#[derive(Debug)]
pub struct ClientTrace {
    recorder: Arc<Recorder>,
    totals: [OpTotals; 6],
}

impl ClientTrace {
    pub fn new(recorder: Arc<Recorder>) -> Self {
        ClientTrace {
            recorder,
            totals: Default::default(),
        }
    }

    pub fn begin(&self, kind: OpKind) -> OpenOp {
        let id = self.recorder.next_id();
        CTX.with(|c| {
            c.set(ThreadCtx {
                client: c.get().client,
                op: id,
                ..ThreadCtx::default()
            })
        });
        OpenOp {
            kind,
            id,
            start_ns: self.recorder.now_ns(),
        }
    }

    /// Close `open` and return its duration in nanoseconds.
    pub fn end(&mut self, open: OpenOp) -> u64 {
        let end_ns = self.recorder.now_ns();
        let ctx = CTX.with(|c| {
            let ctx = c.get();
            c.set(ThreadCtx {
                client: ctx.client,
                ..ThreadCtx::default()
            });
            ctx
        });
        let duration = end_ns - open.start_ns;
        let totals = &mut self.totals[open.kind as usize];
        totals.durations.record(duration);
        totals.child_ns += ctx.child_ns;
        totals.env_reads += ctx.child_reads;
        totals.env_read_bytes += ctx.child_read_bytes;
        self.recorder.push(Span {
            id: open.id,
            parent: 0,
            name: open.kind.name(),
            class: None,
            thread: ctx.client,
            start_ns: open.start_ns,
            end_ns,
            op: open.id,
            child_ns: ctx.child_ns,
        });
        duration
    }

    pub fn totals(&self, kind: OpKind) -> &OpTotals {
        &self.totals[kind as usize]
    }

    pub fn merge(&mut self, other: &ClientTrace) {
        for (mine, theirs) in self.totals.iter_mut().zip(&other.totals) {
            mine.merge(theirs);
        }
    }
}

/// Per span name: summed duration, the part of it covered by child spans,
/// and the rest, all in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
    pub self_ns: u64,
}

/// Self time from raw spans alone: a span's self time is its duration minus
/// the part of its interval that its children cover (overlapping children
/// are not counted twice; a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, SelfTime)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut by_name: std::collections::BTreeMap<&'static str, SelfTime> =
        std::collections::BTreeMap::new();
    for span in spans {
        let mut covered = 0;
        if let Some(intervals) = children.get_mut(&span.id) {
            intervals.sort_unstable();
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.child_ns += covered;
        entry.self_ns += span.duration_ns() - covered;
    }
    by_name.into_iter().collect()
}

/// A `bolt::Env` that forwards every call to `inner` and records it.
pub struct TracingEnv {
    inner: Arc<dyn Env>,
    recorder: Arc<Recorder>,
}

impl TracingEnv {
    pub fn new(inner: Arc<dyn Env>, recorder: Arc<Recorder>) -> Self {
        TracingEnv { inner, recorder }
    }

    fn timed<R>(&self, op: EnvOp, path: &str, bytes: u64, call: impl FnOnce() -> R) -> R {
        self.recorder
            .time_env(op, FileClass::of(path), call, |_| bytes)
    }
}

struct TracedWritableFile {
    inner: Box<dyn WritableFile>,
    class: FileClass,
    recorder: Arc<Recorder>,
}

impl WritableFile for TracedWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let inner = &mut self.inner;
        self.recorder.time_env(
            EnvOp::Append,
            self.class,
            || inner.append(data),
            |_| data.len() as u64,
        )
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.recorder
            .time_env(EnvOp::Sync, self.class, || inner.sync(), |_| 0)
    }

    fn ordering_barrier(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        self.recorder
            .time_env(EnvOp::Sync, self.class, || inner.ordering_barrier(), |_| 0)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

struct TracedRandomAccessFile {
    inner: Arc<dyn RandomAccessFile>,
    class: FileClass,
    recorder: Arc<Recorder>,
}

impl RandomAccessFile for TracedRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.recorder.time_env(
            EnvOp::Read,
            self.class,
            || self.inner.read(offset, len),
            |result| result.as_ref().map_or(0, |data| data.len() as u64),
        )
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl Env for TracingEnv {
    fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let inner = self.timed(EnvOp::Create, path, 0, || {
            self.inner.new_writable_file(path)
        })?;
        Ok(Box::new(TracedWritableFile {
            inner,
            class: FileClass::of(path),
            recorder: Arc::clone(&self.recorder),
        }))
    }

    fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let inner = self.timed(EnvOp::Open, path, 0, || {
            self.inner.new_appendable_file(path)
        })?;
        Ok(Box::new(TracedWritableFile {
            inner,
            class: FileClass::of(path),
            recorder: Arc::clone(&self.recorder),
        }))
    }

    fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let inner = self.timed(EnvOp::Open, path, 0, || {
            self.inner.new_random_access_file(path)
        })?;
        Ok(Arc::new(TracedRandomAccessFile {
            inner,
            class: FileClass::of(path),
            recorder: Arc::clone(&self.recorder),
        }))
    }

    fn file_exists(&self, path: &str) -> bool {
        self.timed(EnvOp::Other, path, 0, || self.inner.file_exists(path))
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.timed(EnvOp::Other, path, 0, || self.inner.file_size(path))
    }

    fn delete_file(&self, path: &str) -> Result<()> {
        self.timed(EnvOp::Delete, path, 0, || self.inner.delete_file(path))
    }

    fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        self.timed(EnvOp::Rename, to, 0, || self.inner.rename_file(from, to))
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        self.timed(EnvOp::Other, path, 0, || self.inner.create_dir_all(path))
    }

    fn list_dir(&self, dir: &str) -> Result<Vec<String>> {
        self.timed(EnvOp::Other, dir, 0, || self.inner.list_dir(dir))
    }

    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
        self.timed(EnvOp::Punch, path, len, || {
            self.inner.punch_hole(path, offset, len)
        })
    }

    fn link_file(&self, src: &str, dst: &str) -> Result<()> {
        self.timed(EnvOp::Other, dst, 0, || self.inner.link_file(src, dst))
    }

    fn link_count(&self, path: &str) -> Result<u64> {
        self.timed(EnvOp::Other, path, 0, || self.inner.link_count(path))
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }

    fn supports_ordering_barrier(&self) -> bool {
        self.inner.supports_ordering_barrier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt::{DeviceModel, MemEnv, SimEnv};

    fn traced(inner: Arc<dyn Env>) -> (TracingEnv, Arc<Recorder>) {
        let recorder = Arc::new(Recorder::default());
        (TracingEnv::new(inner, Arc::clone(&recorder)), recorder)
    }

    fn count(recorder: &Recorder, op: EnvOp) -> u64 {
        recorder.env_totals().sum(op, None, None).count
    }

    #[test]
    fn files_are_classed_by_name() {
        assert_eq!(FileClass::of("db/000012.log"), FileClass::Wal);
        assert_eq!(FileClass::of("db/000345.sst"), FileClass::Table);
        assert_eq!(FileClass::of("db/MANIFEST-000007"), FileClass::Manifest);
        assert_eq!(FileClass::of("db/CURRENT"), FileClass::Other);
        assert_eq!(FileClass::of("000009.tmp"), FileClass::Other);
    }

    /// Every `Env`, `WritableFile` and `RandomAccessFile` method reaches the
    /// inner env, the defaulted ones included, and is counted.
    #[test]
    fn every_method_is_forwarded_and_counted() {
        let inner = Arc::new(MemEnv::new());
        let (env, recorder) = traced(Arc::clone(&inner) as Arc<dyn Env>);
        assert!(std::ptr::eq(env.stats(), inner.stats()));
        assert!(!env.supports_ordering_barrier());

        env.create_dir_all("db").unwrap();
        let mut file = env.new_writable_file("db/000001.log").unwrap();
        assert!(file.is_empty());
        file.append(b"hello ").unwrap();
        file.append(b"world").unwrap();
        file.flush().unwrap();
        file.sync().unwrap();
        assert_eq!(file.len(), 11);
        assert!(!file.is_empty());
        drop(file);
        assert!(env.file_exists("db/000001.log"));
        assert!(inner.file_exists("db/000001.log"));
        assert_eq!(env.file_size("db/000001.log").unwrap(), 11);

        let mut file = env.new_appendable_file("db/000001.log").unwrap();
        file.append(b"!").unwrap();
        file.ordering_barrier().unwrap();
        drop(file);
        assert_eq!(inner.file_size("db/000001.log").unwrap(), 12);

        let reader = env.new_random_access_file("db/000001.log").unwrap();
        assert_eq!(reader.len(), 12);
        assert!(!reader.is_empty());
        assert_eq!(reader.read(6, 5).unwrap(), b"world");
        assert!(reader.read(100, 1).is_err());

        env.rename_file("db/000001.log", "db/000002.sst").unwrap();
        assert!(!inner.file_exists("db/000001.log"));
        assert_eq!(env.list_dir("db").unwrap(), ["000002.sst"]);

        // MemEnv links share the inode; the trait's defaults would copy
        // and report one link, so a count of two shows both are forwarded.
        env.link_file("db/000002.sst", "db/linked.sst").unwrap();
        assert_eq!(env.link_count("db/000002.sst").unwrap(), 2);
        assert!(env.link_count("db/missing").is_err());

        env.punch_hole("db/000002.sst", 0, 4).unwrap();
        assert_eq!(&reader.read(0, 6).unwrap(), b"\0\0\0\0o ");
        env.delete_file("db/linked.sst").unwrap();
        assert!(env.delete_file("db/linked.sst").is_err());

        assert_eq!(count(&recorder, EnvOp::Create), 1);
        assert_eq!(count(&recorder, EnvOp::Append), 3);
        assert_eq!(count(&recorder, EnvOp::Sync), 2);
        assert_eq!(count(&recorder, EnvOp::Open), 2);
        assert_eq!(count(&recorder, EnvOp::Read), 3);
        assert_eq!(count(&recorder, EnvOp::Rename), 1);
        assert_eq!(count(&recorder, EnvOp::Punch), 1);
        assert_eq!(count(&recorder, EnvOp::Delete), 2);
        // create_dir_all, file_exists, file_size, list_dir, link_file and
        // two link_count calls.
        assert_eq!(count(&recorder, EnvOp::Other), 7);
        let totals = recorder.env_totals();
        assert_eq!(
            totals.sum(EnvOp::Append, Some(FileClass::Wal), None).bytes,
            12
        );
        assert_eq!(
            totals.sum(EnvOp::Read, Some(FileClass::Wal), None).bytes,
            5 + 6
        );
        assert_eq!(
            totals.sum(EnvOp::Punch, Some(FileClass::Table), None).bytes,
            4
        );

        // The wrapper's counts are the env's own.
        let io = inner.stats().snapshot();
        assert_eq!(io.write_ops, 3);
        assert_eq!(io.bytes_written, 12);
        assert_eq!(io.fsync_calls + io.ordering_barriers, 2);
        assert_eq!(
            io.read_ops, 2,
            "the env does not count the read that failed"
        );
        assert_eq!(io.files_created, 1);
        assert_eq!(io.files_deleted, 1);
        assert_eq!(io.holes_punched, 1);
    }

    /// `ordering_barrier` and `supports_ordering_barrier` must not fall back
    /// to the trait's defaults (a full sync, and `false`).
    #[test]
    fn ordering_barriers_are_forwarded_as_such() {
        let inner = Arc::new(SimEnv::with_barrierfs(DeviceModel::fast_test()));
        let (env, recorder) = traced(Arc::clone(&inner) as Arc<dyn Env>);
        assert!(env.supports_ordering_barrier());
        let mut file = env.new_writable_file("f").unwrap();
        file.append(b"x").unwrap();
        file.ordering_barrier().unwrap();
        let io = inner.stats().snapshot();
        assert_eq!((io.ordering_barriers, io.fsync_calls), (1, 0));
        assert_eq!(count(&recorder, EnvOp::Sync), 1);
    }

    #[test]
    fn env_calls_nest_under_the_open_operation() {
        let (env, recorder) = traced(Arc::new(MemEnv::new()));
        // No registration: a background call, no parent.
        let mut file = env.new_writable_file("000001.log").unwrap();
        {
            let _client = ClientRegistration::new(1);
            let mut trace = ClientTrace::new(Arc::clone(&recorder));
            let open = trace.begin(OpKind::Put);
            file.append(b"abc").unwrap();
            file.append(b"de").unwrap();
            let duration = trace.end(open);
            // Outside any operation, but still on a client thread.
            file.sync().unwrap();

            let totals = trace.totals(OpKind::Put);
            assert_eq!(totals.durations.count(), 1);
            assert_eq!(totals.durations.sum_ns(), duration);
            assert!(totals.child_ns <= duration);
            assert_eq!(totals.env_reads, 0);
        }
        let spans = recorder.raw_spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(recorder.span_count(), 5);
        let create = &spans[0];
        assert_eq!(
            (create.name, create.thread, create.parent, create.op),
            ("env.create", 0, 0, 0)
        );
        let put = spans.iter().find(|s| s.name == "op.put").unwrap();
        assert_eq!((put.thread, put.parent, put.op), (2, 0, put.id));
        let appends: Vec<_> = spans.iter().filter(|s| s.name == "env.append").collect();
        assert_eq!(appends.len(), 2);
        for append in &appends {
            assert_eq!(
                (append.thread, append.parent, append.op),
                (2, put.id, put.id)
            );
            assert_eq!(append.class, Some(FileClass::Wal));
            assert!(put.start_ns <= append.start_ns && append.end_ns <= put.end_ns);
        }
        assert_eq!(
            put.child_ns,
            appends.iter().map(|s| s.duration_ns()).sum::<u64>()
        );
        let sync = spans.iter().find(|s| s.name == "env.sync").unwrap();
        assert_eq!((sync.thread, sync.parent), (2, 0));

        let totals = recorder.env_totals();
        assert_eq!(totals.sum(EnvOp::Create, None, Some(true)).count, 1);
        assert_eq!(totals.sum(EnvOp::Append, None, Some(false)).count, 2);
        assert_eq!(totals.sum(EnvOp::Append, None, Some(true)).count, 0);

        let jsonl = recorder.raw_spans_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        for line in jsonl.lines() {
            let span = crate::json::parse(line).unwrap();
            for key in ["id", "parent", "name", "thread", "start_ns", "end_ns", "op"] {
                assert!(span.get(key).is_some(), "{key} in {line}");
            }
        }
        assert!(jsonl.contains("\"thread\":\"client1\"") && jsonl.contains("\"thread\":\"bg\""));

        recorder.reset();
        assert_eq!(recorder.span_count(), 0);
        assert!(recorder.raw_spans().is_empty());
        assert_eq!(count(&recorder, EnvOp::Append), 0);
    }

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            class: None,
            thread: 1,
            start_ns,
            end_ns,
            op: 0,
            child_ns: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = [
            span(1, 0, "op.get", 0, 100),
            span(2, 1, "env.read", 10, 30),
            // Overlaps the first child: only 30..50 is new.
            span(3, 1, "env.read", 20, 50),
            // Runs past its parent: only 90..100 counts.
            span(4, 1, "env.open", 90, 120),
            // No children.
            span(5, 0, "op.get", 200, 260),
            // A child whose parent was not kept.
            span(6, 99, "env.read", 300, 310),
        ];
        let times = self_times(&spans);
        let get = times.iter().find(|(n, _)| *n == "op.get").unwrap().1;
        assert_eq!(
            get,
            SelfTime {
                count: 2,
                total_ns: 160,
                child_ns: 50,
                self_ns: 110
            }
        );
        assert_eq!(get.self_ns + get.child_ns, get.total_ns);
        let read = times.iter().find(|(n, _)| *n == "env.read").unwrap().1;
        assert_eq!((read.count, read.total_ns, read.self_ns), (3, 60, 60));
    }

    #[test]
    fn raw_spans_stop_at_the_cap_but_counting_goes_on() {
        let recorder = Recorder::default();
        for i in 0..RAW_SPAN_CAP as u64 + 10 {
            recorder.push_background("bg.flush", i, i + 1);
        }
        assert_eq!(recorder.raw_spans().len(), RAW_SPAN_CAP);
        assert_eq!(recorder.span_count(), RAW_SPAN_CAP as u64 + 10);
    }
}
