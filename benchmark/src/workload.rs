//! Set-up, the measured phase and the result checks of the six workloads.
//!
//! One run is: set up (several times, `setup_s` is the median; the last one
//! is kept), measure for the given number of seconds, drain (flush +
//! `compact_until_quiet`), check the end state. A traced run does the same
//! with the env wrapped in [`TracingEnv`] and a span around every facade
//! call. Every value read back is checked against the model kept here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt::{Db, DbStatsSnapshot, EngineEvent, Env, IoSnapshot, LevelInfo, MetricsSnapshot, SimEnv};

use crate::config::{
    self, Workload, ABSENT_GET_SHARE, EVENT_DRAIN_EVERY, HOT_KEYS, PRELOAD_STEP, RECORD_BYTES,
    SCAN_ROWS, SCAN_UNFLUSHED_PUTS, ZIPFIAN_THETA,
};
use crate::gen::{key_of, value_matches, value_of, Rng, StreamHash, Zipfian, KEY_LEN};
use crate::stats::{median, LatencyHistogram};
use crate::trace::{ClientRegistration, ClientTrace, EnvTotals, OpKind, Recorder, TracingEnv};

const DB_NAME: &str = "bench-db";
/// Puts made after the drain of `fill_random`, so that the reopen that
/// follows has a WAL to replay.
const REOPEN_UNFLUSHED_PUTS: u64 = 100;
/// `fill_random` checks one key in this many after the reopen.
const REOPEN_VERIFY_EVERY: u64 = 100;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Preload sizes are divided by this (1 for a real run, 20 for smoke).
    pub shrink: u64,
    pub cores: usize,
}

impl RunSpec {
    /// Records `preload` writes in this run.
    pub fn preload_records(&self) -> u64 {
        let n = self.workload.preload_records() / self.shrink;
        // The hot range and one scan must fit.
        if n == 0 {
            0
        } else {
            n.max(2 * (HOT_KEYS + SCAN_ROWS as u64))
        }
    }
}

/// One client operation, as drawn from the seeded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Put the next unused rank.
    Insert,
    /// Get `rank`; `absent` ranks were never written.
    Get { rank: u64, absent: bool },
    /// Get the `position`-th live key in key order.
    HotGet { position: usize },
    /// Seek to the `start`-th live key in key order and read `SCAN_ROWS`.
    Scan { start: usize },
    /// Get one rank, then update another.
    GetThenUpdate { get: u64, update: u64 },
}

/// The seeded operation stream of one client.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    records: u64,
    hot_start: usize,
    zipf: Option<Zipfian>,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, client: usize, records: u64) -> Self {
        // The hot range is a property of the data set, not of one client.
        let hot_span = records.saturating_sub(HOT_KEYS + SCAN_ROWS as u64).max(1);
        let hot_start = Rng::new(seed ^ 0x686f_7421).below(hot_span) as usize;
        OpStream {
            workload,
            rng: Rng::new(
                seed.wrapping_mul(0x1000_0001)
                    .wrapping_add(client as u64 + 1),
            ),
            records,
            hot_start,
            zipf: (workload == Workload::MixedRw).then(|| Zipfian::new(records, ZIPFIAN_THETA)),
        }
    }

    #[cfg(test)]
    pub fn hot_start(&self) -> usize {
        self.hot_start
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::FillRandom => Op::Insert,
            Workload::ReadCold => {
                if self.rng.unit() < ABSENT_GET_SHARE {
                    Op::Get {
                        rank: self.records + self.rng.below(self.records),
                        absent: true,
                    }
                } else {
                    Op::Get {
                        rank: self.rng.below(self.records),
                        absent: false,
                    }
                }
            }
            Workload::ReadHot => Op::HotGet {
                position: self.hot_start + self.rng.below(HOT_KEYS) as usize,
            },
            Workload::ScanHot => Op::Scan {
                start: self.hot_start + self.rng.below(HOT_KEYS) as usize,
            },
            Workload::ScanCold => Op::Scan {
                start: self.rng.below(self.records - SCAN_ROWS as u64 + 1) as usize,
            },
            Workload::MixedRw => {
                let zipf = self.zipf.as_ref().expect("mixed_rw builds its zipfian");
                Op::GetThenUpdate {
                    get: zipf.next(&mut self.rng),
                    update: zipf.next(&mut self.rng),
                }
            }
        }
    }

    /// Fingerprint of the first `ops` operations.
    pub fn fingerprint(mut self, ops: usize) -> u64 {
        let mut hash = StreamHash::new();
        for _ in 0..ops {
            match self.next_op() {
                Op::Insert => hash.push(1),
                Op::Get { rank, absent } => {
                    hash.push(2);
                    hash.push(rank);
                    hash.push(u64::from(absent));
                }
                Op::HotGet { position } => {
                    hash.push(5);
                    hash.push(position as u64);
                }
                Op::Scan { start } => {
                    hash.push(3);
                    hash.push(start as u64);
                }
                Op::GetThenUpdate { get, update } => {
                    hash.push(4);
                    hash.push(get);
                    hash.push(update);
                }
            }
        }
        hash.finish()
    }
}

/// What the database must hold: the version of every written rank, and the
/// live keys in key order.
#[derive(Debug, Clone)]
pub struct Model {
    seed: u64,
    versions: Vec<u32>,
    /// `(key, rank)` sorted by key; rebuilt by [`Model::sort`].
    sorted: Vec<([u8; KEY_LEN], u32)>,
}

impl Model {
    fn new(seed: u64) -> Self {
        Model {
            seed,
            versions: Vec::new(),
            sorted: Vec::new(),
        }
    }

    pub fn records(&self) -> u64 {
        self.versions.len() as u64
    }

    fn key(&self, rank: u64) -> [u8; KEY_LEN] {
        key_of(self.seed, rank)
    }

    fn sort(&mut self) {
        self.sorted = (0..self.versions.len() as u32)
            .map(|rank| (key_of(self.seed, u64::from(rank)), rank))
            .collect();
        self.sorted.sort_unstable();
    }
}

/// The database of one run together with its env and model.
pub struct Bench {
    pub sim: Arc<SimEnv>,
    pub env: Arc<dyn Env>,
    pub db: Db,
    pub model: Model,
    /// Key and value bytes of every put accepted since the env was created.
    pub user_bytes: u64,
    /// Recorder clock at `Db::open`, the zero of the engine's event clock.
    pub opened_at_ns: u64,
}

fn open_db(env: &Arc<dyn Env>) -> bolt::Result<Db> {
    Db::open(Arc::clone(env), DB_NAME, config::engine_options())
}

impl Bench {
    /// A fresh env and an empty database on it.
    fn create(seed: u64, recorder: Option<&Arc<Recorder>>) -> bolt::Result<Bench> {
        let sim = Arc::new(SimEnv::new(config::device_model()));
        let env: Arc<dyn Env> = match recorder {
            Some(rec) => Arc::new(TracingEnv::new(
                Arc::clone(&sim) as Arc<dyn Env>,
                Arc::clone(rec),
            )),
            None => Arc::clone(&sim) as Arc<dyn Env>,
        };
        let opened_at_ns = recorder.map_or(0, |rec| rec.now_ns());
        let db = open_db(&env)?;
        Ok(Bench {
            sim,
            env,
            db,
            model: Model::new(seed),
            user_bytes: 0,
            opened_at_ns,
        })
    }

    /// Write the next rank at version 0, or bump an existing one.
    fn put(&mut self, rank: u64) -> bolt::Result<()> {
        let key = self.model.key(rank);
        let version = match self.model.versions.get_mut(rank as usize) {
            Some(v) => {
                *v += 1;
                *v
            }
            None => {
                debug_assert_eq!(rank, self.model.records());
                self.model.versions.push(0);
                0
            }
        };
        self.db.put(&key, &value_of(&key, version))?;
        self.user_bytes += RECORD_BYTES;
        Ok(())
    }

    /// The deterministic set-up recipe: `PRELOAD_STEP` puts, flush, wait
    /// for compaction to go quiet, repeated. The engine never rotates the
    /// memtable on its own, so the resulting tree does not depend on timing.
    pub fn preload(&mut self, records: u64) -> bolt::Result<()> {
        for rank in 0..records {
            self.put(rank)?;
            if (rank + 1) % PRELOAD_STEP == 0 || rank + 1 == records {
                self.db.flush()?;
                self.db.compact_until_quiet()?;
            }
        }
        self.model.sort();
        Ok(())
    }
}

/// Create, preload, and leave the scan workloads' unflushed puts in the
/// memtable. The caller warms the caches; that too is inside `setup_s`.
pub fn set_up(spec: &RunSpec, recorder: Option<&Arc<Recorder>>) -> bolt::Result<Bench> {
    let mut bench = Bench::create(spec.seed, recorder)?;
    bench.preload(spec.preload_records())?;
    if matches!(spec.workload, Workload::ScanCold | Workload::ScanHot) {
        // Updates of existing keys, spread over the key space: the memtable
        // becomes one more child of every scan's merge.
        let mut rng = Rng::new(spec.seed ^ 0x7363_616e);
        for _ in 0..SCAN_UNFLUSHED_PUTS {
            let rank = rng.below(bench.model.records());
            bench.put(rank)?;
        }
    }
    Ok(bench)
}

/// Latency classes a client records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Scan,
}

/// What one client thread did and saw.
#[derive(Debug, Default)]
pub struct ClientReport {
    pub latency: [LatencyHistogram; 3],
    /// Latency of the measured operation of `mixed_rw`: the get plus the
    /// update.
    pub pair_latency: LatencyHistogram,
    pub attempted: u64,
    pub failed: u64,
    pub gets_found: u64,
    pub trace: Option<ClientTrace>,
}

impl ClientReport {
    fn merge(&mut self, other: ClientReport) {
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.merge(theirs);
        }
        self.pair_latency.merge(&other.pair_latency);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.gets_found += other.gets_found;
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }
}

/// A client: the facade calls, timed, span-wrapped when tracing, checked.
struct Client<'a> {
    db: &'a Db,
    report: ClientReport,
}

impl<'a> Client<'a> {
    fn new(db: &'a Db, recorder: Option<&Arc<Recorder>>) -> Self {
        Client {
            db,
            report: ClientReport {
                trace: recorder.map(|rec| ClientTrace::new(Arc::clone(rec))),
                ..ClientReport::default()
            },
        }
    }

    /// Run `call` under a span of `kind`; returns its result, its duration
    /// and the instant it ended.
    fn timed<R>(&mut self, kind: OpKind, call: impl FnOnce() -> R) -> (R, u64, Instant) {
        match &mut self.report.trace {
            None => {
                let start = Instant::now();
                let result = call();
                let end = Instant::now();
                (result, (end - start).as_nanos() as u64, end)
            }
            Some(trace) => {
                let open = trace.begin(kind);
                let result = call();
                let ns = trace.end(open);
                (result, ns, Instant::now())
            }
        }
    }

    fn check(&mut self, ok: bool) {
        self.report.attempted += 1;
        if !ok {
            self.report.failed += 1;
        }
    }

    /// Get `key` and check it against `expect` (`None` = must be absent).
    fn get(&mut self, key: &[u8], expect: Option<u32>) -> (u64, Instant) {
        let db = self.db;
        let (result, ns, end) = self.timed(OpKind::Get, || db.get(key));
        self.report.latency[Class::Read as usize].record(ns);
        let ok = match (&result, expect) {
            (Ok(Some(value)), Some(version)) => value_matches(key, version, value),
            (Ok(None), None) => true,
            _ => false,
        };
        if matches!(result, Ok(Some(_))) {
            self.report.gets_found += 1;
        }
        self.check(ok);
        (ns, end)
    }

    fn put(&mut self, key: &[u8], version: u32) -> (u64, Instant) {
        let db = self.db;
        let value = value_of(key, version);
        let (result, ns, end) = self.timed(OpKind::Put, || db.put(key, &value));
        self.report.latency[Class::Write as usize].record(ns);
        self.check(result.is_ok());
        (ns, end)
    }

    /// `iter`, `seek` to the first of `rows`, then read them all: each row
    /// must be exactly the model's next live key at its current version, so
    /// a skipped, repeated, stale or mis-ordered row fails the scan.
    fn scan(&mut self, rows: &[([u8; KEY_LEN], u32)], versions: &[u32]) -> Instant {
        let db = self.db;
        let (iter, create_ns, end) = self.timed(OpKind::IterCreate, || db.iter());
        let Ok(mut iter) = iter else {
            self.check(false);
            return end;
        };
        let (sought, seek_ns, _) = self.timed(OpKind::Seek, || iter.seek(&rows[0].0));
        let mut ok = sought.is_ok();
        let (_, next_ns, end) = self.timed(OpKind::Next, || {
            for (key, rank) in rows {
                ok = ok
                    && iter.valid()
                    && iter.key() == key
                    && value_matches(key, versions[*rank as usize], iter.value())
                    && iter.next().is_ok();
            }
        });
        self.report.latency[Class::Scan as usize].record(create_ns + seek_ns + next_ns);
        self.check(ok);
        end
    }
}

/// Totals of the engine events drained during a traced run.
#[derive(Debug, Default, Clone)]
pub struct EventFold {
    open_flush: Option<(u64, u64)>,
    open_compaction: Option<(u64, u64)>,
    /// Flush time inside the open compaction: a flush may preempt a
    /// compaction on the one background thread, and must not count twice.
    nested_flush_ns: u64,
    pub flush_busy_ns: u64,
    pub compaction_busy_ns: u64,
    pub l0_runs_max: usize,
    pub levels_nonempty: usize,
}

impl EventFold {
    /// Drain the engine's event ring into background spans and sample the
    /// tree shape. `opened_at_ns` is the recorder clock at `Db::open`.
    fn drain(&mut self, opened_at_ns: u64, db: &Db, recorder: &Recorder) {
        for event in db.events() {
            let at_ns = opened_at_ns + event.micros * 1_000;
            match event.event {
                EngineEvent::FlushBegin { id, .. } => self.open_flush = Some((id, at_ns)),
                EngineEvent::FlushEnd { id, .. } => {
                    if let Some((_, start)) = self.open_flush.take().filter(|(open, _)| *open == id)
                    {
                        self.flush_busy_ns += at_ns - start;
                        if self.open_compaction.is_some() {
                            self.nested_flush_ns += at_ns - start;
                        }
                        recorder.push_background("bg.flush", start, at_ns);
                    }
                }
                EngineEvent::CompactionBegin { id, .. } => {
                    self.open_compaction = Some((id, at_ns));
                    self.nested_flush_ns = 0;
                }
                EngineEvent::CompactionEnd { id, .. } => {
                    if let Some((_, start)) =
                        self.open_compaction.take().filter(|(open, _)| *open == id)
                    {
                        self.compaction_busy_ns +=
                            (at_ns - start).saturating_sub(self.nested_flush_ns);
                        recorder.push_background("bg.compaction", start, at_ns);
                    }
                }
                EngineEvent::StallEnd { waited_nanos } => {
                    recorder.push_background("fg.stall", at_ns.saturating_sub(waited_nanos), at_ns);
                }
                _ => {}
            }
        }
        let levels = db.level_info();
        self.l0_runs_max = self.l0_runs_max.max(levels.first().map_or(0, |l| l.runs));
        self.levels_nonempty = levels.iter().filter(|l| l.tables > 0).count();
    }
}

/// Engine and env counters at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    pub io: IoSnapshot,
    pub metrics: MetricsSnapshot,
    pub table_cache_hits: u64,
    pub table_cache_misses: u64,
    pub table_cache_evictions: u64,
    pub table_cache_opens: u64,
    pub env: Option<EnvTotals>,
}

impl Counters {
    fn take(bench: &Bench, recorder: Option<&Arc<Recorder>>) -> Counters {
        let cache = bench.db.table_cache();
        Counters {
            io: bench.sim.stats().snapshot(),
            metrics: bench.db.metrics(),
            table_cache_hits: cache.stats().hits(),
            table_cache_misses: cache.stats().misses(),
            table_cache_evictions: cache.stats().evictions(),
            table_cache_opens: cache.open_count(),
            env: recorder.map(|rec| rec.env_totals()),
        }
    }

    pub fn db(&self) -> &DbStatsSnapshot {
        &self.metrics.db
    }
}

/// Everything one run (traced or not) produced.
#[derive(Debug)]
pub struct RunOutcome {
    pub spec: RunSpec,
    pub setup_s: Vec<f64>,
    pub shape_after_setup: Vec<LevelInfo>,
    pub measured_s: f64,
    pub drain_s: f64,
    pub reopen_s: f64,
    pub report: ClientReport,
    /// Counters when the measured phase began and when it ended.
    pub before: Counters,
    pub after: Counters,
    pub events: EventFold,
    pub write_amp: f64,
    pub measured_write_amp: f64,
    pub space_amp: f64,
    pub peak_rss_mb: f64,
    /// Traced runs: counts on which the env wrapper and the env's own
    /// `IoSnapshot` disagree, from the start of the measured phase to the
    /// end of the drain, when the background is idle. Must be 0.
    pub io_mismatches: u64,
    pub recorder: Option<Arc<Recorder>>,
}

impl RunOutcome {
    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Latency of the workload's measured operation.
    pub fn op_latency(&self) -> &LatencyHistogram {
        match self.spec.workload {
            Workload::FillRandom => &self.report.latency[Class::Write as usize],
            Workload::ReadCold | Workload::ReadHot => &self.report.latency[Class::Read as usize],
            Workload::ScanCold | Workload::ScanHot => &self.report.latency[Class::Scan as usize],
            Workload::MixedRw => &self.report.pair_latency,
        }
    }

    pub fn ops(&self) -> u64 {
        self.op_latency().count()
    }
}

/// What every client of one phase shares.
#[derive(Clone, Copy)]
struct Phase<'a> {
    spec: &'a RunSpec,
    db: &'a Db,
    seed: u64,
    sorted: &'a [([u8; KEY_LEN], u32)],
    opened_at_ns: u64,
    deadline: Instant,
    recorder: Option<&'a Arc<Recorder>>,
}

impl Phase<'_> {
    /// Run client `index` to the end of the phase. `events` is given to the
    /// one client that drains the engine's event ring.
    fn run_client(
        &self,
        index: usize,
        versions: &mut Vec<u32>,
        mut events: Option<&mut EventFold>,
    ) -> ClientReport {
        let _registration = ClientRegistration::new(index);
        let records = versions.len() as u64;
        let mut stream = OpStream::new(self.spec.workload, self.seed, index, records);
        let mut client = Client::new(self.db, self.recorder);
        let mut done = 0u64;
        loop {
            let end = match stream.next_op() {
                Op::Insert => {
                    let key = key_of(self.seed, versions.len() as u64);
                    versions.push(0);
                    client.put(&key, 0).1
                }
                Op::Get { rank, absent } => {
                    let expect = (!absent).then(|| versions[rank as usize]);
                    client.get(&key_of(self.seed, rank), expect).1
                }
                Op::HotGet { position } => {
                    let (key, rank) = &self.sorted[position];
                    client.get(key, Some(versions[*rank as usize])).1
                }
                Op::Scan { start } => client.scan(&self.sorted[start..start + SCAN_ROWS], versions),
                Op::GetThenUpdate { get, update } => {
                    let (get_ns, _) =
                        client.get(&key_of(self.seed, get), Some(versions[get as usize]));
                    versions[update as usize] += 1;
                    let (put_ns, end) =
                        client.put(&key_of(self.seed, update), versions[update as usize]);
                    client.report.pair_latency.record(get_ns + put_ns);
                    end
                }
            };
            done += 1;
            if let (Some(fold), Some(rec)) = (events.as_deref_mut(), self.recorder) {
                if done.is_multiple_of(EVENT_DRAIN_EVERY) {
                    fold.drain(self.opened_at_ns, self.db, rec);
                }
            }
            if end >= self.deadline {
                return client.report;
            }
        }
    }
}

/// The operations at the end of set-up that fill the caches. They never
/// write, and they look keys up through an iterator: a `get` can use up a
/// table's seek budget and queue a seek compaction, whose timing the public
/// surface does not expose, while a seek warms the same caches and leaves
/// the tree as `preload` built it. Returns the number of wrong results.
fn warm_up(spec: &RunSpec, bench: &Bench) -> u64 {
    let model = &bench.model;
    // Other operations than the measured phase will see.
    let mut stream = OpStream::new(spec.workload, spec.seed, 64, model.records());
    let mut client = Client::new(&bench.db, None);
    for _ in 0..spec.workload.warmup_ops() {
        let row;
        let rows = match stream.next_op() {
            Op::Insert | Op::Get { absent: true, .. } => continue,
            Op::Get { rank, .. } | Op::GetThenUpdate { get: rank, .. } => {
                row = [(model.key(rank), rank as u32)];
                &row[..]
            }
            Op::HotGet { position } => &model.sorted[position..=position],
            Op::Scan { start } => &model.sorted[start..start + SCAN_ROWS],
        };
        client.scan(rows, &model.versions);
    }
    client.report.failed
}

/// Run the measured phase on the workload's clients and merge their
/// reports.
fn run_phase(
    spec: &RunSpec,
    bench: &mut Bench,
    deadline: Instant,
    recorder: Option<&Arc<Recorder>>,
    events: Option<&mut EventFold>,
) -> ClientReport {
    let phase = Phase {
        spec,
        db: &bench.db,
        seed: bench.model.seed,
        sorted: &bench.model.sorted,
        opened_at_ns: bench.opened_at_ns,
        deadline,
        recorder,
    };
    let versions = &mut bench.model.versions;
    let clients = spec.workload.clients(spec.cores);
    let report = if clients == 1 {
        phase.run_client(0, versions, events)
    } else {
        // Only single-client workloads write, so each client of a
        // multi-client one may check against its own copy of the versions.
        let mut events = events;
        let mut merged = ClientReport::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|index| {
                    let mut local = versions.clone();
                    let fold = if index == 0 { events.take() } else { None };
                    scope.spawn(move || phase.run_client(index, &mut local, fold))
                })
                .collect();
            for handle in handles {
                merged.merge(handle.join().expect("a client thread does not panic"));
            }
        });
        merged
    };
    bench.user_bytes += report.latency[Class::Write as usize].count() * RECORD_BYTES;
    report
}

/// `VmHWM` of `/proc/self/status` in MiB (0 where there is no procfs).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// After the drain of `fill_random`: leave a WAL tail, close, reopen on the
/// same env, and check a key sample and the full-scan row count.
fn reopen_and_verify(bench: &mut Bench, report: &mut ClientReport) -> bolt::Result<f64> {
    for _ in 0..REOPEN_UNFLUSHED_PUTS {
        bench.put(bench.model.records())?;
    }
    let start = Instant::now();
    bench.db.close()?;
    bench.db = open_db(&bench.env)?;
    let reopen_s = start.elapsed().as_secs_f64();

    let mut client = Client::new(&bench.db, None);
    let records = bench.model.records();
    // The WAL tail, and one key in a hundred of the rest.
    let tail = records - REOPEN_UNFLUSHED_PUTS;
    for rank in (0..tail)
        .step_by(REOPEN_VERIFY_EVERY as usize)
        .chain(tail..records)
    {
        let key = bench.model.key(rank);
        client.get(&key, Some(bench.model.versions[rank as usize]));
    }
    let mut rows = 0u64;
    let mut ascending = true;
    let mut iter = bench.db.iter()?;
    iter.seek_to_first()?;
    let mut previous = [0u8; KEY_LEN];
    while iter.valid() {
        ascending &= iter.key() > &previous[..];
        previous.copy_from_slice(iter.key());
        rows += 1;
        iter.next()?;
    }
    client.check(ascending && rows == records);
    report.attempted += client.report.attempted;
    report.failed += client.report.failed;
    Ok(reopen_s)
}

/// Run `spec` once with `setups` set-ups, traced when `recorder` is given.
pub fn run(
    spec: &RunSpec,
    setups: usize,
    recorder: Option<Arc<Recorder>>,
) -> bolt::Result<RunOutcome> {
    let recorder_ref = recorder.as_ref();

    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for _ in 0..setups.max(1) {
        drop(kept.take());
        let start = Instant::now();
        let bench = set_up(spec, recorder_ref)?;
        if warm_up(spec, &bench) > 0 {
            return Err(bolt::Error::corruption("warm-up read a wrong value"));
        }
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some(bench);
    }
    let mut bench = kept.expect("at least one set-up ran");
    let shape_after_setup = bench.db.level_info();

    if let Some(rec) = recorder_ref {
        let _ = bench.db.events();
        rec.reset();
    }
    let mut events = EventFold::default();
    let before = Counters::take(&bench, recorder_ref);
    let user_bytes_before = bench.user_bytes;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(spec.seconds);
    let mut report = run_phase(
        spec,
        &mut bench,
        deadline,
        recorder_ref,
        recorder_ref.map(|_| &mut events),
    );
    let measured_s = start.elapsed().as_secs_f64();
    if let Some(rec) = recorder_ref {
        events.drain(bench.opened_at_ns, &bench.db, rec);
    }
    let after = Counters::take(&bench, recorder_ref);
    let events_of_phase = events.clone();

    // Drain: the compaction debt the measured phase leaves behind.
    let drain_start = Instant::now();
    {
        let _registration = ClientRegistration::new(0);
        let mut client = Client::new(&bench.db, recorder_ref);
        let db = &bench.db;
        let (flushed, _, _) = client.timed(OpKind::Flush, || db.flush());
        flushed?;
        bench.db.compact_until_quiet()?;
        if let (Some(mine), Some(theirs)) = (&mut report.trace, &client.report.trace) {
            mine.merge(theirs);
        }
    }
    let drain_s = drain_start.elapsed().as_secs_f64();
    if let Some(rec) = recorder_ref {
        events.drain(bench.opened_at_ns, &bench.db, rec);
    }

    let io_now = bench.sim.stats().snapshot();
    let io_mismatches = recorder_ref.map_or(0, |rec| {
        rec.env_totals().mismatches(&io_now.delta(&before.io))
    });
    let device_bytes = io_now.bytes_written;
    let measured_user_bytes = bench.user_bytes - user_bytes_before;
    let measured_write_amp = if measured_user_bytes == 0 {
        0.0
    } else {
        (device_bytes - before.io.bytes_written) as f64 / measured_user_bytes as f64
    };
    let write_amp = device_bytes as f64 / bench.user_bytes.max(1) as f64;
    let stored: u64 = bench.db.level_info().iter().map(|l| l.bytes).sum();
    let space_amp = stored as f64 / (bench.model.records() * RECORD_BYTES).max(1) as f64;

    let reopen_s = if spec.workload == Workload::FillRandom {
        reopen_and_verify(&mut bench, &mut report)?
    } else {
        0.0
    };
    let peak_rss_mb = peak_rss_mb();
    bench.db.close()?;

    Ok(RunOutcome {
        spec: *spec,
        setup_s,
        shape_after_setup,
        measured_s,
        drain_s,
        reopen_s,
        report,
        before,
        after,
        events: events_of_phase,
        write_amp,
        measured_write_amp,
        space_amp,
        peak_rss_mb,
        io_mismatches,
        recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: Workload, seed: u64) -> RunSpec {
        RunSpec {
            workload,
            seed,
            seconds: 0.2,
            shrink: 20,
            cores: 2,
        }
    }

    #[test]
    fn same_seed_gives_the_same_operation_stream() {
        for workload in Workload::ALL {
            let stream = |seed, client| OpStream::new(workload, seed, client, 40_000);
            assert_eq!(
                stream(5, 0).fingerprint(2_000),
                stream(5, 0).fingerprint(2_000),
                "{workload:?}"
            );
            if workload != Workload::FillRandom {
                assert_ne!(
                    stream(5, 0).fingerprint(2_000),
                    stream(6, 0).fingerprint(2_000)
                );
                assert_ne!(
                    stream(5, 0).fingerprint(2_000),
                    stream(5, 1).fingerprint(2_000)
                );
            }
        }
        // Two clients of one run share the hot range.
        let a = OpStream::new(Workload::ReadHot, 5, 0, 40_000);
        let b = OpStream::new(Workload::ReadHot, 5, 1, 40_000);
        assert_eq!(a.hot_start(), b.hot_start());
        assert!(a.hot_start() + HOT_KEYS as usize + SCAN_ROWS <= 40_000);
    }

    #[test]
    fn streams_stay_inside_their_ranges() {
        let records = 2_000;
        for workload in Workload::ALL {
            let mut stream = OpStream::new(workload, 3, 0, records);
            let hot = stream.hot_start()..stream.hot_start() + HOT_KEYS as usize;
            let mut absent = 0;
            for _ in 0..5_000 {
                match stream.next_op() {
                    Op::Insert => assert_eq!(workload, Workload::FillRandom),
                    Op::Get { rank, absent: true } => {
                        absent += 1;
                        assert!((records..2 * records).contains(&rank));
                    }
                    Op::Get { rank, .. } => assert!(rank < records),
                    Op::HotGet { position } => assert!(hot.contains(&position)),
                    Op::Scan { start } if workload == Workload::ScanHot => {
                        assert!(hot.contains(&start));
                    }
                    Op::Scan { start } => assert!(start + SCAN_ROWS <= records as usize),
                    Op::GetThenUpdate { get, update } => assert!(get.max(update) < records),
                }
            }
            if workload == Workload::ReadCold {
                assert!((350..650).contains(&absent), "{absent}");
            }
        }
    }

    /// `preload` builds the same tree, byte for byte, every time.
    #[test]
    fn preload_shape_is_repeatable() {
        let spec = spec(Workload::ScanCold, 9);
        let a = set_up(&spec, None).unwrap();
        let b = set_up(&spec, None).unwrap();
        assert_eq!(a.model.records(), 2_000);
        assert_eq!(a.db.level_info(), b.db.level_info());
        assert!(a.db.level_info().iter().map(|l| l.tables).sum::<usize>() > 10);
        let (io_a, io_b) = (a.sim.stats().snapshot(), b.sim.stats().snapshot());
        assert_eq!(io_a.bytes_written, io_b.bytes_written);
        assert_eq!(io_a.fsync_calls, io_b.fsync_calls);
        assert_eq!(a.user_bytes, (2_000 + SCAN_UNFLUSHED_PUTS) * RECORD_BYTES);
        // Another seed is another data set.
        let c = set_up(&RunSpec { seed: 10, ..spec }, None).unwrap();
        assert_ne!(a.model.sorted[0].0, c.model.sorted[0].0);
    }

    /// A fixed script of 5 000 operations does the same I/O and builds the
    /// same tree with and without the tracing wrapper.
    #[test]
    fn tracing_changes_neither_the_io_nor_the_tree() {
        let script = |recorder: Option<&Arc<Recorder>>| {
            let mut bench = Bench::create(4, recorder).unwrap();
            let mut rng = Rng::new(4);
            let mut client_failed = 0;
            for step in 0..5_000u64 {
                if step % 5 < 3 {
                    let records = bench.model.records();
                    let rank = if records > 0 && step % 5 == 2 {
                        rng.below(records)
                    } else {
                        records
                    };
                    bench.put(rank).unwrap();
                } else {
                    let rank = rng.below(bench.model.records());
                    let mut client = Client::new(&bench.db, recorder);
                    client.get(
                        &bench.model.key(rank),
                        Some(bench.model.versions[rank as usize]),
                    );
                    client_failed += client.report.failed;
                }
                if (step + 1) % 250 == 0 {
                    bench.db.flush().unwrap();
                    bench.db.compact_until_quiet().unwrap();
                }
            }
            assert_eq!(client_failed, 0);
            let mut io = bench.sim.stats().snapshot();
            io.sync_wait_nanos = 0; // time, not work
            (io, bench.db.level_info())
        };
        let recorder = Arc::new(Recorder::default());
        let (io_traced, tree_traced) = script(Some(&recorder));
        let (io_plain, tree_plain) = script(None);
        assert_eq!(io_traced, io_plain);
        assert_eq!(tree_traced, tree_plain);
        assert!(io_plain.fsync_calls > 40 && io_plain.read_ops > 0);

        // And the wrapper saw exactly what the env counted.
        assert_eq!(recorder.env_totals().mismatches(&io_plain), 0);
        let mut one_less = io_plain;
        one_less.read_ops -= 1;
        assert_eq!(recorder.env_totals().mismatches(&one_less), 1);
    }

    /// The checks fail when the store returns something the model does not
    /// hold: a stale version, a value for an absent key, a scan that does
    /// not match the live keys.
    #[test]
    fn wrong_results_are_counted_as_failures() {
        let mut bench = set_up(&spec(Workload::ScanCold, 2), None).unwrap();
        let key = bench.model.key(7);
        let version = bench.model.versions[7];
        let mut client = Client::new(&bench.db, None);
        client.get(&key, Some(version));
        assert_eq!((client.report.attempted, client.report.failed), (1, 0));
        client.get(&key, Some(version + 1));
        client.get(&key, None);
        client.get(&bench.model.key(1 << 40), Some(0));
        assert_eq!((client.report.attempted, client.report.failed), (4, 3));
        client.get(&bench.model.key(1 << 40), None);
        assert_eq!((client.report.attempted, client.report.failed), (5, 3));

        let rows = bench.model.sorted[100..100 + SCAN_ROWS].to_vec();
        client.scan(&rows, &bench.model.versions);
        assert_eq!(client.report.failed, 3);
        // A row the store does not have at that place.
        let mut gap = rows.clone();
        gap.remove(10);
        gap.push(bench.model.sorted[100 + SCAN_ROWS]);
        gap.swap(10, 11);
        client.scan(&gap, &bench.model.versions);
        assert_eq!(client.report.failed, 4);
        // A stale version.
        let (_, rank) = rows[20];
        bench.model.versions[rank as usize] += 1;
        client.scan(&rows, &bench.model.versions);
        assert_eq!(client.report.failed, 5);
    }

    /// Every workload runs end to end at smoke size, traced, with no failed
    /// operation, and `fill_random` survives its reopen.
    #[test]
    fn every_workload_runs_traced_without_failures() {
        for workload in Workload::ALL {
            let recorder = Arc::new(Recorder::default());
            let outcome = run(&spec(workload, 1), 1, Some(recorder)).unwrap();
            assert!(outcome.ops() > 0, "{workload:?}");
            assert_eq!(outcome.report.failed, 0, "{workload:?}");
            assert!(outcome.report.attempted >= outcome.ops());
            assert!(
                outcome.space_amp > 0.9 && outcome.write_amp >= 1.0,
                "{workload:?}"
            );
            assert_eq!(outcome.reopen_s > 0.0, workload == Workload::FillRandom);
            let trace = outcome.report.trace.as_ref().unwrap();
            let spans: u64 = OpKind::ALL
                .iter()
                .map(|&k| trace.totals(k).durations.count())
                .sum();
            assert!(
                spans > outcome.ops(),
                "{workload:?}: the drain's flush is a span too"
            );
        }
    }
}
