//! Deterministic fault injection over a crashable environment.
//!
//! [`FaultEnv`] wraps any [`CrashEnv`] (in practice [`MemEnv`] or
//! [`SimEnv`]) and assigns every **durability-relevant operation** — file
//! create, append, sync, ordering barrier, rename, link, delete, hole
//! punch — a global, monotonically increasing *op index*. Reads are seen but
//! never numbered. A scripted [`FaultPlan`], one ordered list of
//! `MODE:CLASS:glob=G:nth=N` clauses, turns chosen ops into faults or gates:
//!
//! * `crash` — the op does not execute; the environment enters a *crashed*
//!   state in which every subsequent operation (including reads) fails,
//!   freezing the inner filesystem exactly as a power failure would. The
//!   harness then drops the engine, applies [`FaultEnv::crash_inner`] to
//!   discard unsynced bytes, calls [`FaultEnv::reset`], and reopens to test
//!   recovery.
//! * `torn=B` — a crash on an append that lets `B` bytes of its payload
//!   reach the file first (a short write).
//! * `eio` — the op returns an I/O error *once*, without crashing, to test
//!   error propagation.
//! * `hold` — the thread making the op parks until [`FaultEnv::release`]:
//!   the gate tests use to pin one interleaving of the engine's threads.
//!
//! A harness first *records* a workload (op trace + [`FaultEnv::mark`]
//! phase markers), then replays it crashing at every interesting index.
//! See `bolt-tools`' crash-sweep harness and `tests/crash_sweep.rs`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use bolt_common::{Error, Result};

use crate::stats::IoStats;
use crate::{CrashConfig, Env, MemEnv, RandomAccessFile, SimEnv, WritableFile};

/// An [`Env`] that can simulate a whole-filesystem power failure.
///
/// [`MemEnv`] and [`SimEnv`] implement this; [`RealEnv`](crate::RealEnv)
/// cannot (we do not power-cycle the host).
pub trait CrashEnv: Env {
    /// Discard unsynced state as a power failure would; see
    /// [`MemEnv::crash`].
    fn crash(&self, config: CrashConfig);
}

impl CrashEnv for MemEnv {
    fn crash(&self, config: CrashConfig) {
        MemEnv::crash(self, config);
    }
}

impl CrashEnv for SimEnv {
    fn crash(&self, config: CrashConfig) {
        SimEnv::crash(self, config);
    }
}

/// The kind of a counted durability-relevant operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `new_writable_file` (create or truncate).
    Create,
    /// `WritableFile::append`.
    Append,
    /// `WritableFile::sync` (full durability barrier).
    Sync,
    /// `WritableFile::ordering_barrier`.
    OrderingBarrier,
    /// `rename_file`.
    Rename,
    /// `link_file`.
    Link,
    /// `delete_file`.
    Delete,
    /// `punch_hole`.
    PunchHole,
}

impl OpKind {
    /// Short lowercase label, used in traces and sweep reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Append => "append",
            OpKind::Sync => "sync",
            OpKind::OrderingBarrier => "barrier",
            OpKind::Rename => "rename",
            OpKind::Link => "link",
            OpKind::Delete => "delete",
            OpKind::PunchHole => "punch",
        }
    }
}

/// One counted operation in a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Global op index (0-based).
    pub index: u64,
    /// Operation kind.
    pub kind: OpKind,
    /// Path the operation targeted.
    pub path: String,
    /// Payload size in bytes (appends only; 0 otherwise).
    pub bytes: u64,
}

/// What a clause does to the op it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Eio,
    /// A power failure; an append keeps this many bytes (a torn write).
    Crash(u64),
    Hold,
}

/// Which ops a clause counts: one numbered kind (`Sync` also covers
/// ordering barriers), every numbered op, or reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Any,
    Op(OpKind),
    Read,
}

impl Class {
    /// `op` is `None` for a read.
    fn matches(self, op: Option<OpKind>) -> bool {
        match (self, op) {
            (Class::Any, Some(_)) | (Class::Read, None) => true,
            (Class::Op(OpKind::Sync), Some(OpKind::OrderingBarrier)) => true,
            (Class::Op(kind), Some(op)) => kind == op,
            _ => false,
        }
    }

    fn parse(s: &str) -> Option<Self> {
        use OpKind::*;
        match s {
            "any" => Some(Class::Any),
            "read" => Some(Class::Read),
            _ => [Create, Append, Sync, Rename, Link, Delete, PunchHole]
                .into_iter()
                .find(|kind| kind.label() == s)
                .map(Class::Op),
        }
    }
}

/// One clause: `mode` on the `nth` (0-based) op of `class` whose path
/// matches `glob`, counted from when the clause was installed.
#[derive(Debug, Clone)]
struct Clause {
    mode: Mode,
    class: Class,
    glob: String,
    nth: u64,
    /// Matching ops counted so far.
    seen: u64,
}

/// `*`/`?` wildcard match. Patterns without `/` match the path's basename;
/// patterns containing `/` match the full path.
fn glob_match(pattern: &str, path: &str) -> bool {
    let target = if pattern.contains('/') {
        path
    } else {
        path.rsplit('/').next().unwrap_or(path)
    };
    let (p, s) = (pattern.as_bytes(), target.as_bytes());
    let (mut pi, mut si) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut mark = 0usize;
    while si < s.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some(pi);
            mark = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            mark += 1;
            si = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// A scripted fault plan: one ordered list of clauses, built with
/// [`FaultPlan::parse`] and installed with [`FaultEnv::set_plan`] or
/// appended with [`FaultEnv::extend_plan`].
///
/// A clause `MODE:CLASS:glob=G:nth=N` fires on the `N`-th (0-based) op of
/// `CLASS` whose path matches `G`, counted from when the clause was
/// installed:
///
/// * `MODE` is `eio` (the op fails once; the default when omitted),
///   `crash` (a power failure instead of the op: every later op fails until
///   [`FaultEnv::reset`]), `torn=B` (a crash that lets `B` bytes of an
///   append through first) or `hold` (the thread parks until
///   [`FaultEnv::release`]);
/// * `CLASS` is `any` (every numbered op), `create`, `append`, `sync` (full
///   syncs and ordering barriers), `rename` (by source path), `link` (by
///   destination path), `delete`, `punch`, or `read`. A read is matched but
///   never numbered: it moves no op index and enters no trace.
///
/// On a fresh env, or right after [`FaultEnv::reset`], the op counter and
/// every clause count from zero: `crash:any:glob=*:nth=K` crashes at op
/// index `K`, and `eio:sync:glob=*:nth=N` fails the `N`-th sync or barrier.
/// A path glob survives workload drift: `eio:sync:glob=MANIFEST-*:nth=0` is
/// "the first MANIFEST barrier", however many WAL or table ops precede it.
///
/// Two evaluation rules:
///
/// 1. **First fire decides.** Clauses are evaluated in plan order, and the
///    first `eio`, `crash` or `torn` clause that fires decides the op; later
///    clauses do not count it. Two identical clauses therefore fire on the
///    first two matching ops.
/// 2. **Hold, then continue.** A `hold` clause parks the op. After
///    [`FaultEnv::release`], evaluation resumes after the hold clause,
///    against the plan as it stands then: a clause appended while the thread
///    is parked applies to the parked op. A released op is not held (nor
///    counted by a `hold` clause) again, so a second `hold` armed before the
///    release parks the next matching op.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    clauses: Vec<Clause>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse a plan from whitespace- or comma-separated clauses of the form
    /// `[MODE:]CLASS:glob=G:nth=N`, where `MODE` is `eio|crash|torn=B|hold`
    /// (`eio` when omitted) and `CLASS` is
    /// `any|create|append|sync|rename|link|delete|punch|read`. Example:
    /// `eio:sync:glob=MANIFEST-*:nth=2`.
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let clauses = spec.split([',', ' ', '\t', '\n']).filter(|c| !c.is_empty());
        Ok(FaultPlan {
            clauses: clauses
                .map(parse_clause)
                .collect::<std::result::Result<_, _>>()?,
        })
    }
}

fn parse_clause(clause: &str) -> std::result::Result<Clause, String> {
    let fields: Vec<&str> = clause.split(':').collect();
    let bad = |what: &str| format!("bad clause `{clause}`: {what}");
    let (mode, rest) = match fields[0] {
        "eio" => (Mode::Eio, &fields[1..]),
        "crash" => (Mode::Crash(0), &fields[1..]),
        "hold" => (Mode::Hold, &fields[1..]),
        f => match f.strip_prefix("torn=") {
            Some(keep) => {
                let keep = keep.parse().map_err(|_| bad("torn= wants a byte count"))?;
                (Mode::Crash(keep), &fields[1..])
            }
            None => (Mode::Eio, &fields[..]),
        },
    };
    let &[class, glob, nth] = rest else {
        return Err(bad("expected [MODE:]CLASS:glob=G:nth=N"));
    };
    let class = Class::parse(class).ok_or_else(|| bad(&format!("unknown op class `{class}`")))?;
    let glob = glob
        .strip_prefix("glob=")
        .ok_or_else(|| bad("second field must be glob=G"))?;
    let nth = nth
        .strip_prefix("nth=")
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| bad("third field must be nth=N"))?;
    Ok(Clause {
        mode,
        class,
        glob: glob.to_string(),
        nth,
        seen: 0,
    })
}

#[derive(Default)]
struct Recording {
    plan: FaultPlan,
    recording: bool,
    trace: Vec<OpRecord>,
    markers: Vec<(u64, String)>,
    /// Reads made while recording, `(path, offset, len)`; never in `trace`.
    reads: Vec<(String, u64, usize)>,
    /// A thread is parked at a `hold` clause.
    held: bool,
    /// [`FaultEnv::release`] calls so far: a parked thread waits for the
    /// next one.
    releases: u64,
}

struct FaultState {
    op_counter: AtomicU64,
    crashed: AtomicBool,
    faults_injected: AtomicU64,
    script: Mutex<Recording>,
    /// Where `hold` clauses park, releasing `script` while they wait.
    gate: Condvar,
}

/// What an op should do after consulting the plan.
enum Decision {
    Proceed,
    Fail(Error),
    /// Append only the first `n` bytes, then fail (torn write).
    Torn(usize),
}

impl FaultState {
    fn new() -> Self {
        FaultState {
            op_counter: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            faults_injected: AtomicU64::new(0),
            script: Mutex::new(Recording::default()),
            gate: Condvar::new(),
        }
    }

    fn crash_error() -> Error {
        Error::io("fault: environment crashed")
    }

    fn check_crashed(&self) -> Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            Err(Self::crash_error())
        } else {
            Ok(())
        }
    }

    /// Number one durability-relevant op and decide its fate.
    fn before_op(&self, kind: OpKind, path: &str, bytes: u64) -> Decision {
        if self.crashed.load(Ordering::SeqCst) {
            return Decision::Fail(Self::crash_error());
        }
        let index = self.op_counter.fetch_add(1, Ordering::SeqCst);
        let mut script = self.script.lock();
        if script.recording {
            script.trace.push(OpRecord {
                index,
                kind,
                path: path.to_string(),
                bytes,
            });
        }
        self.decide(script, Some(kind), path, bytes)
    }

    /// Decide a read: never numbered, and logged apart from the trace.
    fn before_read(&self, path: &str, offset: u64, len: usize) -> Result<()> {
        self.check_crashed()?;
        let mut script = self.script.lock();
        if script.recording {
            script.reads.push((path.to_string(), offset, len));
        }
        match self.decide(script, None, path, 0) {
            Decision::Fail(e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Number an op that is not an append (only an append tears).
    fn admit(&self, kind: OpKind, path: &str) -> Result<()> {
        match self.before_op(kind, path, 0) {
            Decision::Proceed => Ok(()),
            Decision::Fail(e) => Err(e),
            Decision::Torn(_) => unreachable!("torn decision only applies to appends"),
        }
    }

    /// The clause loop (`kind` is `None` for a read); see [`FaultPlan`] for
    /// its two rules.
    fn decide(
        &self,
        mut script: MutexGuard<'_, Recording>,
        kind: Option<OpKind>,
        path: &str,
        bytes: u64,
    ) -> Decision {
        let (mut next, mut released) = (0, false);
        while let Some(clause) = script.plan.clauses.get_mut(next) {
            next += 1;
            if !clause.class.matches(kind)
                || (released && clause.mode == Mode::Hold)
                || !glob_match(&clause.glob, path)
            {
                continue;
            }
            let seen = clause.seen;
            clause.seen += 1;
            if seen != clause.nth {
                continue;
            }
            match clause.mode {
                Mode::Hold => {
                    script.held = true;
                    self.gate.notify_all();
                    let releases = script.releases;
                    while script.releases == releases {
                        self.gate.wait(&mut script);
                    }
                    released = true;
                    if self.crashed.load(Ordering::SeqCst) {
                        return Decision::Fail(Self::crash_error());
                    }
                }
                Mode::Eio => {
                    self.faults_injected.fetch_add(1, Ordering::SeqCst);
                    return Decision::Fail(Error::io(format!(
                        "fault: injected EIO at {} #{seen} matching `{}` ({path})",
                        kind.map_or("read", OpKind::label),
                        clause.glob
                    )));
                }
                Mode::Crash(keep) => {
                    self.crashed.store(true, Ordering::SeqCst);
                    self.faults_injected.fetch_add(1, Ordering::SeqCst);
                    let keep = keep.min(bytes) as usize;
                    if kind == Some(OpKind::Append) && keep > 0 {
                        return Decision::Torn(keep);
                    }
                    return Decision::Fail(Self::crash_error());
                }
            }
        }
        Decision::Proceed
    }
}

/// A fault-injecting [`Env`] layered over a [`CrashEnv`].
///
/// All file data lives in the wrapped environment; `FaultEnv` only counts
/// operations, consults the installed [`FaultPlan`], and (optionally)
/// records an op trace. Cloning is cheap and shares all state.
#[derive(Clone)]
pub struct FaultEnv {
    inner: Arc<dyn CrashEnv>,
    state: Arc<FaultState>,
}

impl std::fmt::Debug for FaultEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultEnv")
            .field("op_count", &self.op_count())
            .field("crashed", &self.crashed())
            .finish()
    }
}

impl FaultEnv {
    /// Wrap `inner` with fault injection (no plan installed yet).
    pub fn new(inner: Arc<dyn CrashEnv>) -> Self {
        FaultEnv {
            inner,
            state: Arc::new(FaultState::new()),
        }
    }

    /// Convenience: a `FaultEnv` over a fresh [`MemEnv`].
    pub fn over_mem() -> Self {
        Self::new(Arc::new(MemEnv::new()))
    }

    /// Install `plan`, replacing any previous plan. The op counter is *not*
    /// reset; call [`FaultEnv::reset`] first to re-run a workload.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.script.lock().plan = plan;
    }

    /// Append `plan`'s clauses to the installed plan, whose clauses keep
    /// their progress. The new clauses count from this call: with a fresh
    /// `nth=0` MANIFEST clause, the *next* matching op fails.
    pub fn extend_plan(&self, plan: FaultPlan) {
        let mut script = self.state.script.lock();
        script.plan.clauses.extend(plan.clauses);
    }

    /// Block until a thread is parked at a `hold` clause.
    pub fn wait_until_held(&self) {
        let mut script = self.state.script.lock();
        while !script.held {
            self.state.gate.wait(&mut script);
        }
    }

    /// Let every thread parked at a `hold` clause go on.
    pub fn release(&self) {
        let mut script = self.state.script.lock();
        script.held = false;
        script.releases += 1;
        self.state.gate.notify_all();
    }

    /// Start recording an op trace (clears any previous trace, markers and
    /// read log).
    pub fn start_recording(&self) {
        let mut script = self.state.script.lock();
        script.recording = true;
        script.trace.clear();
        script.markers.clear();
        script.reads.clear();
    }

    /// Stop recording and return the trace.
    pub fn stop_recording(&self) -> Vec<OpRecord> {
        let mut script = self.state.script.lock();
        script.recording = false;
        script.trace.clone()
    }

    /// The reads recorded since the last call, as `(path, offset, len)`.
    pub fn take_read_log(&self) -> Vec<(String, u64, usize)> {
        std::mem::take(&mut self.state.script.lock().reads)
    }

    /// Record a named phase marker at the current op index, e.g.
    /// `"flush-done"`. Markers let a sweep report which workload phase a
    /// crash point falls in.
    pub fn mark(&self, label: &str) {
        let at = self.state.op_counter.load(Ordering::SeqCst);
        self.state
            .script
            .lock()
            .markers
            .push((at, label.to_string()));
    }

    /// Phase markers recorded so far, as `(op_index, label)` pairs.
    pub fn markers(&self) -> Vec<(u64, String)> {
        self.state.script.lock().markers.clone()
    }

    /// Total counted ops so far.
    pub fn op_count(&self) -> u64 {
        self.state.op_counter.load(Ordering::SeqCst)
    }

    /// Number of faults the plan has injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.faults_injected.load(Ordering::SeqCst)
    }

    /// `true` once a crash fault has fired (all ops now fail).
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Apply a power failure to the wrapped environment (discarding its
    /// unsynced bytes). Call after the engine using this env is dropped.
    pub fn crash_inner(&self, config: CrashConfig) {
        self.inner.crash(config);
    }

    /// Clear the crashed flag, plan, counters, trace, markers and read log
    /// so the surviving files can be reopened for recovery.
    pub fn reset(&self) {
        self.state.crashed.store(false, Ordering::SeqCst);
        self.state.op_counter.store(0, Ordering::SeqCst);
        self.state.faults_injected.store(0, Ordering::SeqCst);
        let mut script = self.state.script.lock();
        script.plan = FaultPlan::default();
        script.recording = false;
        script.trace.clear();
        script.markers.clear();
        script.reads.clear();
    }
}

struct FaultWritableFile {
    inner: Box<dyn WritableFile>,
    state: Arc<FaultState>,
    path: String,
}

impl WritableFile for FaultWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        match self
            .state
            .before_op(OpKind::Append, &self.path, data.len() as u64)
        {
            Decision::Proceed => self.inner.append(data),
            Decision::Fail(e) => Err(e),
            Decision::Torn(keep) => {
                // A short write: a prefix reaches the page cache, then the
                // machine dies. The caller still sees the op fail.
                let _ = self.inner.append(&data[..keep]);
                Err(FaultState::crash_error())
            }
        }
    }

    fn flush(&mut self) -> Result<()> {
        self.state.check_crashed()?;
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        self.state.admit(OpKind::Sync, &self.path)?;
        self.inner.sync()
    }

    fn ordering_barrier(&mut self) -> Result<()> {
        self.state.admit(OpKind::OrderingBarrier, &self.path)?;
        self.inner.ordering_barrier()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct FaultRandomAccessFile {
    inner: Arc<dyn RandomAccessFile>,
    state: Arc<FaultState>,
    path: String,
}

impl RandomAccessFile for FaultRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.state.before_read(&self.path, offset, len)?;
        self.inner.read(offset, len)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for FaultEnv {
    fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.state.admit(OpKind::Create, path)?;
        let inner = self.inner.new_writable_file(path)?;
        Ok(Box::new(FaultWritableFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_string(),
        }))
    }

    fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.state.check_crashed()?;
        let inner = self.inner.new_appendable_file(path)?;
        Ok(Box::new(FaultWritableFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_string(),
        }))
    }

    fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        self.state.check_crashed()?;
        let inner = self.inner.new_random_access_file(path)?;
        Ok(Arc::new(FaultRandomAccessFile {
            inner,
            state: Arc::clone(&self.state),
            path: path.to_string(),
        }))
    }

    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        self.state.check_crashed()?;
        self.inner.file_size(path)
    }

    fn delete_file(&self, path: &str) -> Result<()> {
        self.state.admit(OpKind::Delete, path)?;
        self.inner.delete_file(path)
    }

    fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        self.state.admit(OpKind::Rename, from)?;
        self.inner.rename_file(from, to)
    }

    fn link_file(&self, src: &str, dst: &str) -> Result<()> {
        // Keyed by the destination: checkpoint sweeps target "the Nth link
        // into checkpoint dir X", which the source name cannot express.
        self.state.admit(OpKind::Link, dst)?;
        self.inner.link_file(src, dst)
    }

    fn link_count(&self, path: &str) -> Result<u64> {
        self.state.check_crashed()?;
        self.inner.link_count(path)
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        self.state.check_crashed()?;
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, dir: &str) -> Result<Vec<String>> {
        self.state.check_crashed()?;
        self.inner.list_dir(dir)
    }

    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
        self.state.admit(OpKind::PunchHole, path)?;
        self.inner.punch_hole(path, offset, len)
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

    fn mem_fault() -> FaultEnv {
        FaultEnv::over_mem()
    }

    fn plan(clauses: &str) -> FaultPlan {
        FaultPlan::parse(clauses).unwrap()
    }

    fn is_sync(record: &OpRecord) -> bool {
        matches!(record.kind, OpKind::Sync | OpKind::OrderingBarrier)
    }

    #[test]
    fn no_plan_passes_through_and_counts() {
        let env = mem_fault();
        env.start_recording();
        let mut f = env.new_writable_file("a").unwrap(); // op 0: create
        f.append(b"hello").unwrap(); // op 1: append
        f.sync().unwrap(); // op 2: sync
        env.rename_file("a", "b").unwrap(); // op 3: rename
        env.punch_hole("b", 0, 2).unwrap(); // op 4: punch
        env.delete_file("b").unwrap(); // op 5: delete
        let trace = env.stop_recording();
        assert_eq!(env.op_count(), 6);
        assert_eq!(trace.iter().filter(|r| is_sync(r)).count(), 1);
        assert_eq!(env.faults_injected(), 0);
        let kinds: Vec<OpKind> = trace.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Create,
                OpKind::Append,
                OpKind::Sync,
                OpKind::Rename,
                OpKind::PunchHole,
                OpKind::Delete,
            ]
        );
        assert_eq!(trace[1].bytes, 5);
        assert_eq!(trace[3].path, "a");
    }

    #[test]
    fn crash_at_op_freezes_everything() {
        let env = mem_fault();
        env.set_plan(plan("crash:any:glob=*:nth=2"));
        let mut f = env.new_writable_file("a").unwrap(); // op 0
        f.append(b"one").unwrap(); // op 1
        assert!(f.append(b"two").is_err()); // op 2: crash fires
        assert!(env.crashed());
        // Everything after the crash fails, reads included.
        assert!(f.sync().is_err());
        assert!(env.new_writable_file("b").is_err());
        assert!(env.list_dir("").is_err());
        assert!(env.file_size("a").is_err());
        assert_eq!(env.faults_injected(), 1);

        // Crash the inner store, reset, and observe only synced state: "one"
        // was never synced, so Clean discards it.
        env.crash_inner(CrashConfig::Clean);
        env.reset();
        assert!(!env.crashed());
        assert_eq!(env.file_size("a").unwrap(), 0);
    }

    #[test]
    fn extend_plan_merges_without_resetting_rule_progress() {
        let env = mem_fault();
        // Harness plan: EIO on the second (nth=1) sync of an m-* file.
        env.set_plan(plan("eio:sync:glob=m-*:nth=1"));
        let mut f = env.new_writable_file("m-a").unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap(); // m-* sync #0: passes, advances seen to 1

        // Workload arms an extra clause mid-run; ordinals count from here,
        // so nth=0 means "the next matching sync", and the harness clause's
        // progress (seen=1) must survive the append.
        env.extend_plan(plan("eio:sync:glob=w-*:nth=0"));
        let mut w = env.new_writable_file("w-a").unwrap();
        w.append(b"y").unwrap();
        assert!(w.sync().is_err(), "armed w-* clause fires on its next sync");
        assert!(f.sync().is_err(), "harness m-* clause still fires at nth=1");
        assert_eq!(env.faults_injected(), 2);
        assert!(f.sync().is_ok(), "both clauses are one-shot");

        // A crash clause appended mid-run counts from the append too.
        env.extend_plan(plan("crash:any:glob=*:nth=0"));
        assert!(env.new_writable_file("z").is_err());
        assert!(env.crashed());
    }

    #[test]
    fn torn_crash_keeps_prefix_of_payload() {
        let env = mem_fault();
        let mut f = env.new_writable_file("a").unwrap(); // op 0
        f.append(b"durable").unwrap(); // op 1
        f.sync().unwrap(); // op 2
        env.set_plan(plan("torn=2:any:glob=*:nth=0"));
        assert!(f.append(b"xyz").is_err()); // op 3: torn, keeps "xy"
        assert!(env.crashed());
        env.crash_inner(CrashConfig::Clean);
        env.reset();
        // Clean crash keeps only the synced prefix; the torn bytes were
        // unsynced page-cache content and are discarded.
        assert_eq!(env.file_size("a").unwrap(), 7);

        // With a TornTail crash config the torn bytes may survive; check
        // the file never exceeds synced + torn-kept bytes.
        let env = mem_fault();
        env.set_plan(plan("torn=2:any:glob=*:nth=3"));
        let mut f = env.new_writable_file("a").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        assert!(f.append(b"xyz").is_err());
        env.crash_inner(CrashConfig::TornTail { seed: 7 });
        env.reset();
        let size = env.file_size("a").unwrap();
        assert!((7..=9).contains(&size), "size {size}");
    }

    #[test]
    fn fail_sync_injects_eio_once() {
        let env = mem_fault();
        env.set_plan(plan("eio:sync:glob=*:nth=1"));
        env.start_recording();
        let mut f = env.new_writable_file("a").unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap(); // sync 0: fine
        f.append(b"y").unwrap();
        assert!(f.ordering_barrier().is_err()); // sync 1: EIO
        assert!(!env.crashed(), "EIO is not a crash");
        f.sync().unwrap(); // sync 2: fine again
        assert_eq!(env.faults_injected(), 1);
        assert_eq!(
            env.stop_recording().iter().filter(|r| is_sync(r)).count(),
            3
        );
    }

    #[test]
    fn fail_op_injects_eio_once() {
        let env = mem_fault();
        env.set_plan(plan("eio:any:glob=*:nth=1"));
        let mut f = env.new_writable_file("a").unwrap(); // op 0
        assert!(f.append(b"x").is_err()); // op 1: EIO
        f.append(b"x").unwrap(); // op 2: fine
        assert!(!env.crashed());
        assert_eq!(env.faults_injected(), 1);
    }

    #[test]
    fn markers_record_op_positions() {
        let env = mem_fault();
        env.start_recording();
        let mut f = env.new_writable_file("a").unwrap();
        f.append(b"x").unwrap();
        env.mark("loaded");
        f.sync().unwrap();
        env.mark("synced");
        let markers = env.markers();
        assert_eq!(
            markers,
            vec![(2, "loaded".to_string()), (3, "synced".to_string())]
        );
    }

    #[test]
    fn conformance_with_no_plan() {
        crate::tests::env_conformance(&mem_fault());
    }

    #[test]
    fn glob_matches_basename_or_full_path() {
        assert!(glob_match("MANIFEST-*", "db/MANIFEST-000003"));
        assert!(glob_match("*.log", "db/000007.log"));
        assert!(!glob_match("*.log", "db/000007.sst"));
        assert!(glob_match("db/*.sst", "db/000001.sst"));
        assert!(!glob_match("other/*.sst", "db/000001.sst"));
        assert!(glob_match("??????.sst", "db/000001.sst"));
        assert!(!glob_match("?????.sst", "db/000001.sst"));
    }

    #[test]
    fn path_rule_eio_on_nth_matching_sync() {
        let env = mem_fault();
        env.set_plan(plan("eio:sync:glob=m-*:nth=1"));
        let mut m = env.new_writable_file("db/m-1").unwrap();
        let mut other = env.new_writable_file("db/data").unwrap();
        other.sync().unwrap(); // non-matching path: not counted by the clause
        m.sync().unwrap(); // matching #0
        other.sync().unwrap();
        assert!(m.sync().is_err()); // matching #1: EIO
        assert!(!env.crashed(), "path EIO is not a crash");
        m.sync().unwrap(); // fires once
        assert_eq!(env.faults_injected(), 1);
    }

    #[test]
    fn path_rule_crash_and_torn_variants() {
        let env = mem_fault();
        env.set_plan(plan("crash:append:glob=*.log:nth=2"));
        let mut f = env.new_writable_file("a.log").unwrap();
        f.append(b"one").unwrap();
        f.append(b"two").unwrap();
        assert!(f.append(b"three").is_err()); // matching append #2
        assert!(env.crashed());

        let env = mem_fault();
        env.set_plan(plan("torn=2:append:glob=*.log:nth=0"));
        let mut f = env.new_writable_file("a.log").unwrap();
        assert!(f.append(b"xyz").is_err());
        assert!(env.crashed());
        env.crash_inner(CrashConfig::TornTail { seed: 1 });
        env.reset();
        let size = env.file_size("a.log").unwrap();
        assert!(size <= 2, "at most the torn prefix survives, got {size}");
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("sync:glob=M*:nth=0").is_ok());
        assert!(FaultPlan::parse("crash:delete:glob=*.sst:nth=3").is_ok());
        assert!(FaultPlan::parse("hold:read:glob=*.sst:nth=5 torn=9:any:glob=*:nth=2").is_ok());
        assert!(FaultPlan::parse("eio:link:glob=ckpt/*:nth=0").is_ok());
        assert!(FaultPlan::parse("bogus:glob=M*:nth=0").is_err());
        assert!(FaultPlan::parse("eio:barrier:glob=M*:nth=0").is_err());
        assert!(FaultPlan::parse("torn=x:any:glob=*:nth=0").is_err());
        assert!(FaultPlan::parse("sync:g=M*:nth=0").is_err());
        assert!(FaultPlan::parse("sync:glob=M*:nth=x").is_err());
        assert!(FaultPlan::parse("eio:sync:glob=M*").is_err());
    }

    /// Two files through every numbered kind, with a read between; returns
    /// the op index of the first numbered op that failed.
    fn small_workload(env: &FaultEnv) -> Option<u64> {
        let mut failed = None;
        let mut check = |result: Result<()>| {
            if result.is_err() && failed.is_none() {
                failed = Some(env.op_count() - 1);
            }
        };
        for name in ["db/1.log", "db/2.sst"] {
            match env.new_writable_file(name) {
                Ok(mut f) => {
                    check(f.append(b"abc"));
                    check(f.sync());
                    let _ = env.new_random_access_file(name).and_then(|r| r.read(0, 3));
                    check(f.append(b"de"));
                    check(f.ordering_barrier());
                }
                Err(e) => check(Err(e)),
            }
        }
        check(env.link_file("db/2.sst", "db/3.sst"));
        check(env.rename_file("db/1.log", "db/4.log"));
        check(env.punch_hole("db/2.sst", 0, 1));
        check(env.delete_file("db/4.log"));
        failed
    }

    /// The global forms of a clause pick the op a recorded trace numbered:
    /// `crash:any` at `K` stops at `trace[K]`, `eio:sync` at `N` fails the
    /// `N`-th sync or barrier, and a read clause — firing or not — moves no
    /// op index and adds nothing to the trace.
    #[test]
    fn global_clauses_pick_the_op_the_trace_numbered() {
        let run = |clauses: &str| {
            let env = mem_fault();
            env.set_plan(plan(clauses));
            env.start_recording();
            let failed = small_workload(&env);
            let trace = env.stop_recording();
            (env, failed, trace)
        };
        let (_, failed, trace) = run("");
        assert_eq!(failed, None);
        let syncs: Vec<&OpRecord> = trace.iter().filter(|r| is_sync(r)).collect();
        assert_eq!((trace.len(), syncs.len()), (14, 4), "{trace:?}");

        for (k, op) in trace.iter().enumerate() {
            let (env, failed, replay) = run(&format!("crash:any:glob=*:nth={k}"));
            assert_eq!(failed, Some(op.index));
            assert_eq!(replay.last(), Some(op), "crash at op {k}");
            assert!(env.crashed());
        }
        for (n, sync) in syncs.iter().enumerate() {
            let (env, failed, replay) = run(&format!("eio:sync:glob=*:nth={n}"));
            assert_eq!(failed, Some(sync.index), "EIO at sync {n}");
            assert_eq!((env.crashed(), env.faults_injected()), (false, 1));
            assert_eq!(replay, trace);
        }
        for (clauses, fires) in [
            ("eio:read:glob=*:nth=0", 1),
            ("eio:read:glob=*.sst:nth=0", 1),
            ("eio:read:glob=*:nth=2", 0),
            ("crash:read:glob=*:nth=1", 1),
        ] {
            let (env, failed, replay) = run(clauses);
            assert_eq!(env.faults_injected(), fires, "{clauses}");
            if env.crashed() {
                // A crash on a read freezes what comes after it, but what
                // came before is numbered as it was.
                assert_eq!(replay[..], trace[..replay.len()], "{clauses}");
                continue;
            }
            assert_eq!(failed, None, "{clauses}");
            assert_eq!(env.op_count(), trace.len() as u64, "{clauses}");
            assert_eq!(replay, trace, "{clauses}");
        }
    }

    /// `hold` parks the matched op's thread — holding no lock — until
    /// `release`. Evaluation then goes on against the plan as it stands: a
    /// clause armed meanwhile applies to the parked op, and a second `hold`
    /// armed meanwhile waits for the next matching op.
    #[test]
    fn hold_parks_the_op_until_release() {
        let env = mem_fault();
        let mut a = env.new_writable_file("a.log").unwrap();
        let mut b = env.new_writable_file("b.log").unwrap();
        let arm = |clauses: &str| env.extend_plan(plan(clauses));
        let settle = || std::thread::sleep(std::time::Duration::from_millis(50));
        arm("hold:sync:glob=*.log:nth=0");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| env.wait_until_held());
            settle();
            assert!(!waiter.is_finished(), "nothing is parked yet");
            let first = s.spawn(move || a.sync());
            waiter.join().unwrap();
            // Other ops, and the plan, move on while a thread is parked.
            env.new_writable_file("c.log").unwrap().sync().unwrap();
            arm("hold:sync:glob=*.log:nth=0");
            settle();
            assert!(!first.is_finished(), "released before release");
            env.release();
            assert!(
                first.join().unwrap().is_ok(),
                "the released op was held again"
            );

            let waiter = s.spawn(|| env.wait_until_held());
            settle();
            assert!(!waiter.is_finished(), "release left a thread parked");
            let second = s.spawn(move || b.sync());
            waiter.join().unwrap();
            arm("eio:sync:glob=*.log:nth=0");
            env.release();
            let err = second.join().unwrap().unwrap_err();
            assert!(err.to_string().contains("injected EIO"), "{err}");
        });
        assert_eq!(env.faults_injected(), 1);
    }
}
