//! # bolt-bench
//!
//! Shared harness for the figure-regeneration benchmarks. Each bench target
//! under `benches/` runs one experiment of the BoLT paper (MIDDLEWARE 2020)
//! once and prints every table made from its runs — `fig13_ycsb` also
//! prints Fig 14 and the future-work table, `fig15_bolt_vs_rocks` also
//! Fig 16 — and each `ext_*` target one experiment beyond it (sharded
//! scaling, compaction policies, value separation); this crate holds the
//! common scaffolding: scaled experiment sizing, environment construction,
//! the load-and-settle driver, the measured-phase runner and the YCSB suite
//! driver built on it, perf floors, and result formatting (stdout tables +
//! CSV files under `target/figures/`).
//!
//! ## Scaling
//!
//! The paper's experiments load 50–100 GB onto a SATA SSD. The harness
//! runs the same workloads at `1/64` capacity scale on the simulated SSD
//! (`bolt_env::SimEnv`), with every governing *ratio* preserved —
//! memtable : level1 : multiplier, SSTable : logical SSTable, group budget.
//! Set `BOLT_BENCH_SCALE` (default `1.0`) to multiply record/op counts,
//! e.g. `BOLT_BENCH_SCALE=4 cargo bench -p bolt-bench --bench fig13_ycsb`.

#![warn(missing_docs)]

use std::io::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use bolt_common::Result;
use bolt_core::{Db, Options};
use bolt_env::{DeviceModel, Env, IoSnapshot, SimEnv};
use bolt_ycsb::{load_db, run_workload, BenchConfig, KvTarget, RunResult, Workload};

pub use bolt_core;
pub use bolt_env;
pub use bolt_sharded;
pub use bolt_ycsb;

/// Capacity scale applied to every profile (1/64 of the paper's sizes).
pub const CAPACITY_SCALE: f64 = 1.0 / 64.0;

/// Default time scale of the simulated SSD (1.0 = real delays).
pub const TIME_SCALE: f64 = 1.0;

/// The simulated SSD used by every figure bench.
///
/// Capacity knobs are scaled 1/64, so the device is scaled 1/8 in both
/// sequential bandwidth and barrier latency. That preserves the paper's
/// governing ratio — a 2 MB SSTable at 500 MB/s takes 4 ms against a 2 ms
/// barrier (≈50 % barrier overhead); a scaled 32 KB SSTable at 64 MB/s
/// takes 0.5 ms against a 0.25 ms barrier (≈50 %) — while keeping CPU time
/// negligible relative to modeled I/O, exactly as on real hardware.
pub fn bench_device() -> DeviceModel {
    DeviceModel {
        write_bandwidth: 64 * 1024 * 1024,
        read_bandwidth: 70 * 1024 * 1024,
        read_base_latency: std::time::Duration::from_micros(30),
        // A consumer-SSD cache flush costs 1–5 ms; 1 ms here (unscaled —
        // barrier cost does not shrink with capacity).
        barrier_latency: std::time::Duration::from_millis(1),
        time_scale: TIME_SCALE,
    }
}

/// Multiplier from `BOLT_BENCH_SCALE` (default 1.0).
pub fn bench_scale() -> f64 {
    std::env::var("BOLT_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Scale an operation count by [`bench_scale`].
pub fn scaled_ops(base: u64) -> u64 {
    ((base as f64) * bench_scale()).max(1.0) as u64
}

/// A fresh simulated-SSD environment with the calibrated bench model.
pub fn sim_env() -> Arc<dyn Env> {
    Arc::new(SimEnv::new(bench_device()))
}

/// Open a database on `env` with `opts` scaled to laptop size.
pub fn open_db(env: &Arc<dyn Env>, opts: Options) -> Arc<Db> {
    Arc::new(
        Db::open(Arc::clone(env), "bench-db", opts.scaled(CAPACITY_SCALE)).expect("open bench db"),
    )
}

/// Load `records` 256-byte records into a fresh database on `env` with four
/// clients seeded by `seed`, then flush it and compact until quiet: the
/// first step of every figure that measures a load or reads a settled
/// tree. Returns the settled database and the load's client-side run.
pub fn load_and_settle(
    env: &Arc<dyn Env>,
    opts: Options,
    records: u64,
    seed: u64,
) -> (Arc<Db>, RunResult) {
    let db = open_db(env, opts);
    let cfg = BenchConfig {
        record_count: records,
        op_count: 0,
        threads: 4,
        value_len: 256,
        seed,
    };
    let run = load_db(&db, &cfg).expect("load");
    db.flush().expect("flush");
    db.compact_until_quiet().expect("settle");
    (db, run)
}

/// A figure's rows: each display label with the profile
/// [`Options::profile`] knows under `name`.
fn labelled(rows: &[(&'static str, &str)]) -> Vec<(&'static str, Options)> {
    rows.iter()
        .map(|&(label, name)| (label, Options::profile(name).expect("a profile name")))
        .collect()
}

/// The system profiles of Fig 13, in the paper's presentation order.
pub fn fig13_profiles() -> Vec<(&'static str, Options)> {
    labelled(&[
        ("Level", "leveldb"),
        ("LVL64MB", "lvl64"),
        ("Hyper", "hyper"),
        ("Pebbles", "pebbles"),
        ("Rocks", "rocks"),
        ("BoLT", "bolt"),
        ("HBoLT", "hyperbolt"),
    ])
}

/// The systems of Figs 15 and 16: RocksDB, and BoLT with the paper's
/// §4.3.3 parameter matching (RocksDB's TableCache, L0 triggers 20/36 and
/// L1 = 256 MB).
pub fn fig15_profiles() -> Vec<(&'static str, Options)> {
    let rocks = Options::rocksdb();
    let bolt = Options {
        max_open_files: rocks.max_open_files,
        level0_slowdown_trigger: rocks.level0_slowdown_trigger,
        level0_stop_trigger: rocks.level0_stop_trigger,
        level1_max_bytes: rocks.level1_max_bytes,
        ..Options::bolt()
    };
    vec![("BoLT", bolt), ("Rocks", rocks)]
}

/// The Fig 12(a) ablation ladder on LevelDB.
pub fn fig12a_profiles() -> Vec<(&'static str, Options)> {
    labelled(&[
        ("LevelDB", "leveldb"),
        ("+LS", "bolt_ls"),
        ("+GC", "bolt_gc"),
        ("+STL", "bolt_stl"),
        ("+FC", "bolt"),
    ])
}

/// The Fig 12(b) ablation ladder on HyperLevelDB.
pub fn fig12b_profiles() -> Vec<(&'static str, Options)> {
    let on_hyper = |mut opts: Options| {
        let hyper = Options::hyperleveldb();
        opts.level0_slowdown_trigger = hyper.level0_slowdown_trigger;
        opts.level0_stop_trigger = hyper.level0_stop_trigger;
        opts.seek_compaction = hyper.seek_compaction;
        opts
    };
    vec![
        ("Hyper", Options::hyperleveldb()),
        ("+LS", on_hyper(Options::bolt_ls())),
        ("+GC", on_hyper(Options::bolt_gc())),
        ("+STL", on_hyper(Options::bolt_stl())),
        ("+FC", Options::hyperbolt()),
    ]
}

/// One measured YCSB phase: the client-side result plus what the target's
/// `metrics()` moved by while it ran.
#[derive(Debug)]
pub struct PhaseResult {
    /// Phase label (LA, A, ..., LE, E, or a bench's own).
    pub phase: String,
    /// Throughput in ops/s.
    pub throughput: f64,
    /// The client-side run: op count, latency percentiles, per-op histograms.
    pub run: RunResult,
    /// Env I/O counters moved during the phase (for a sharded target, the
    /// aggregate across shards).
    pub io: IoSnapshot,
    /// User payload bytes the engine accepted during the phase.
    pub user_bytes: u64,
    /// Bytes the clients asked for: one value per operation.
    pub requested_bytes: u64,
}

impl PhaseResult {
    /// Device bytes written per user byte accepted during the phase (0 for
    /// a phase that wrote nothing).
    pub fn write_amp(&self) -> f64 {
        ratio(self.io.bytes_written, self.user_bytes)
    }

    /// Device bytes read per byte requested during the phase.
    pub fn read_amp(&self) -> f64 {
        ratio(self.io.bytes_read, self.requested_bytes)
    }

    /// The client-side table cells every experiment prints: ops, ops/s,
    /// and p50 / p99 / p99.9 latency in microseconds.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.run.ops.to_string(),
            format!("{:.1}", self.throughput),
            us(self.run.percentile(50.0)),
            us(self.run.percentile(99.0)),
            us(self.run.percentile(99.9)),
        ]
    }
}

/// Column names of [`PhaseResult::cells`].
pub const PHASE_HEADERS: [&str; 5] = ["ops", "ops/s", "p50_us", "p99_us", "p999_us"];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run one phase against `db` and measure it: `run` drives the clients
/// (typically [`load_db`] or [`run_workload`]; work it does after the
/// clients stop, such as a settling flush, is inside the measured I/O but
/// outside the timed region) and the `metrics()` readings either side of it
/// give the I/O the phase cost. Every amplification figure a bench prints
/// comes from here.
///
/// # Panics
///
/// Panics if `run` fails or completes no operation — either means the
/// harness, not the engine under test, is broken.
pub fn measure_phase<T: KvTarget>(
    db: &T,
    phase: &str,
    value_len: usize,
    run: impl FnOnce() -> Result<RunResult>,
) -> PhaseResult {
    let before = db.metrics();
    let run = run().unwrap_or_else(|e| panic!("phase {phase}: {e}"));
    let after = db.metrics();
    assert!(run.ops > 0, "phase {phase} completed no operation");
    PhaseResult {
        phase: phase.to_string(),
        throughput: run.throughput(),
        io: after.io.delta(&before.io),
        user_bytes: after.db.user_bytes_written - before.db.user_bytes_written,
        requested_bytes: run.ops * value_len as u64,
        run,
    }
}

/// Results of a full YCSB suite run for one system.
#[derive(Debug)]
pub struct SuiteResult {
    /// System label.
    pub system: String,
    /// Per-phase results in run order (LA, A, B, C, F, D, LE, E).
    pub phases: Vec<PhaseResult>,
    /// I/O counters accumulated over the first database (LA..D).
    pub io: IoSnapshot,
    /// Device bytes written by the eight phases.
    pub bytes_written: u64,
}

/// Column names of a [`SuiteResult::kops_row`]: the system, then each
/// phase in run order.
pub const SUITE_HEADERS: [&str; 9] = ["system", "LA", "A", "B", "C", "F", "D", "LE", "E"];

impl SuiteResult {
    /// The phase labelled `name`.
    ///
    /// # Panics
    ///
    /// Panics if the suite ran no such phase.
    pub fn phase(&self, name: &str) -> &PhaseResult {
        let found = self.phases.iter().find(|p| p.phase == name);
        found.unwrap_or_else(|| panic!("no phase {name} in the suite"))
    }

    /// The system label, then each phase's throughput in kops/s, then
    /// `extra`.
    pub fn kops_row(&self, extra: impl IntoIterator<Item = String>) -> Vec<String> {
        let kops = self.phases.iter().map(|p| kops(p.throughput));
        let row = std::iter::once(self.system.clone()).chain(kops);
        row.chain(extra).collect()
    }
}

/// Workload-suite sizing.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Records loaded in LA and LE.
    pub records: u64,
    /// Operations per transactional phase.
    pub ops: u64,
    /// Value size in bytes.
    pub value_len: usize,
    /// Uniform instead of zipfian request distribution for A/B/C/F/E.
    pub uniform: bool,
    /// Client threads.
    pub threads: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            records: scaled_ops(30_000),
            ops: scaled_ops(10_000),
            value_len: 256,
            uniform: false,
            threads: 4,
        }
    }
}

/// Run the paper's YCSB order — LA, A, B, C, F, D, delete DB, LE, E — for
/// one system profile on a fresh simulated SSD.
pub fn run_suite(system: &str, opts: Options, cfg: &SuiteConfig) -> SuiteResult {
    let bench_cfg = BenchConfig {
        record_count: cfg.records,
        op_count: cfg.ops,
        threads: cfg.threads,
        value_len: cfg.value_len,
        seed: 0xb01d,
    };
    let dist = if cfg.uniform {
        bolt_ycsb::RequestDistribution::Uniform
    } else {
        bolt_ycsb::RequestDistribution::Zipfian
    };
    let value_len = cfg.value_len;

    let env = sim_env();
    let db = open_db(&env, opts.clone());
    let mut phases = vec![measure_phase(&*db, "LA", value_len, || {
        load_db(&db, &bench_cfg)
    })];
    let cursor = Arc::new(AtomicU64::new(cfg.records));
    for workload in [
        Workload::a().with_distribution(dist),
        Workload::b().with_distribution(dist),
        Workload::c().with_distribution(dist),
        Workload::f().with_distribution(dist),
        Workload::d(),
    ] {
        phases.push(measure_phase(&*db, workload.name, value_len, || {
            run_workload(&db, &workload, &bench_cfg, &cursor)
        }));
    }
    let io = env.stats().snapshot();
    db.close().expect("close");

    // Delete database, Load E, E.
    let db = open_db(&sim_env(), opts);
    phases.push(measure_phase(&*db, "LE", value_len, || {
        load_db(&db, &bench_cfg)
    }));
    let cursor = Arc::new(AtomicU64::new(cfg.records));
    let e_cfg = BenchConfig {
        // Scans touch ~50 records each; run fewer of them.
        op_count: (cfg.ops / 8).max(200),
        ..bench_cfg
    };
    let e = Workload::e().with_distribution(dist);
    phases.push(measure_phase(&*db, "E", value_len, || {
        run_workload(&db, &e, &e_cfg, &cursor)
    }));
    db.close().expect("close");

    SuiteResult {
        system: system.to_string(),
        bytes_written: phases.iter().map(|p| p.io.bytes_written).sum(),
        io,
        phases,
    }
}

/// Enforce a bench's acceptance floor: at `BOLT_BENCH_SCALE` ≥ 1 a floor
/// that does not hold ends the process with a non-zero status; below that
/// the key space is too small for amplification or scaling to mean
/// anything, so the floor is reported as skipped.
pub fn check_floor(floor: &str, holds: bool) {
    if bench_scale() < 1.0 {
        println!("floor skipped at BOLT_BENCH_SCALE < 1: {floor}");
    } else if holds {
        println!("floor holds: {floor}");
    } else {
        eprintln!("floor FAILED: {floor}");
        std::process::exit(1);
    }
}

/// Print an aligned table under `title`, then write it as CSV to
/// `target/figures/<csv>.csv`.
pub fn report(title: &str, csv: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }

    let dir = std::path::Path::new("target/figures");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{csv}.csv"));
    let Ok(mut file) = std::fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(file, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(file, "{}", row.join(","));
    }
    println!("(csv written to {})", path.display());
}

/// [`report`] the latency percentiles of `phase` in each of `suites`: a
/// row per system, a `p<pct>_us` column per entry of `pcts`.
pub fn report_tails(title: &str, csv: &str, pcts: &[f64], suites: &[SuiteResult], phase: &str) {
    let pct_headers = pcts.iter().map(|p| format!("p{p}_us"));
    let headers: Vec<String> = std::iter::once("system".into())
        .chain(pct_headers)
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = suites
        .iter()
        .map(|suite| {
            let hist = &suite.phase(phase).run.overall;
            let cells = pcts.iter().map(|&p| us(hist.percentile(p)));
            std::iter::once(suite.system.clone()).chain(cells).collect()
        })
        .collect();
    report(title, csv, &headers, &rows);
}

/// Format ops/s in thousands with one decimal.
pub fn kops(v: f64) -> String {
    format!("{:.1}", v / 1000.0)
}

/// Format nanoseconds as microseconds.
pub fn us(nanos: u64) -> String {
    format!("{:.0}", nanos as f64 / 1000.0)
}

/// Format bytes as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_core::CompactionStyle;

    #[test]
    fn scaled_ops_respects_default() {
        assert_eq!(scaled_ops(100), 100);
    }

    #[test]
    fn profiles_cover_the_paper() {
        assert_eq!(fig13_profiles().len(), 7);
        let fig15 = fig15_profiles();
        let [(bolt_label, bolt), (rocks_label, rocks)] = &fig15[..] else {
            panic!("Fig 15 compares two systems");
        };
        assert_eq!((*bolt_label, *rocks_label), ("BoLT", "Rocks"));
        assert!(matches!(rocks.compaction_style, CompactionStyle::Leveled));
        // BoLT's mechanisms under RocksDB's matched sizing (§4.3.3).
        assert!(matches!(bolt.compaction_style, CompactionStyle::Bolt(_)));
        assert_eq!(bolt.max_open_files, rocks.max_open_files);
        assert_eq!(bolt.level0_slowdown_trigger, Some(20));
        assert_eq!(bolt.level0_stop_trigger, Some(36));
        assert_eq!(bolt.level1_max_bytes, rocks.level1_max_bytes);
        assert_eq!(fig12a_profiles().len(), 5);
        assert_eq!(fig12b_profiles().len(), 5);
    }

    /// Load 1 MiB of 4 KiB values on a nearly-free device, the settling
    /// flush inside the measurement so every accepted byte is accounted for.
    fn toy_load<T: KvTarget>(
        threshold: Option<u64>,
        open: impl FnOnce(Arc<dyn Env>, Options) -> T,
    ) -> PhaseResult {
        let cfg = BenchConfig {
            record_count: 256,
            op_count: 0,
            threads: 4,
            value_len: 4096,
            seed: 0x5eed,
        };
        let opts = Options {
            value_separation_threshold: threshold,
            ..Options::bolt().scaled(CAPACITY_SCALE)
        };
        let db = Arc::new(open(Arc::new(SimEnv::new(DeviceModel::fast_test())), opts));
        let phase = measure_phase(&*db, "Load", cfg.value_len, || {
            let run = load_db(&db, &cfg)?;
            db.flush()?;
            Ok(run)
        });
        assert_eq!(phase.run.ops, cfg.record_count);
        assert_eq!(phase.requested_bytes, 1 << 20);
        phase
    }

    #[test]
    fn toy_vsep_load_runs_and_separates() {
        let open = |env, opts| Db::open(env, "bench-db", opts).unwrap();
        let off = toy_load(None, open).write_amp();
        let on = toy_load(Some(1024), open).write_amp();
        // Even at toy scale the separated configuration must write fewer
        // device bytes per user byte than the unseparated one — the values
        // skip the flush path entirely.
        assert!(on < off, "separated {on:.2} >= unseparated {off:.2}");
    }

    #[test]
    fn phase_runner_measures_a_sharded_target() {
        let phase = toy_load(None, |env, opts| {
            let router = bolt_sharded::Router::hash(2).unwrap();
            bolt_sharded::ShardedDb::open(env, "bench-db", opts, router).unwrap()
        });
        assert!(phase.throughput > 0.0);
        assert!(phase.io.bytes_written > 0 && phase.io.fsync_calls > 0);
        assert!(phase.write_amp() >= 1.0, "write amp {}", phase.write_amp());
    }

    #[test]
    fn tiny_suite_runs_end_to_end() {
        let cfg = SuiteConfig {
            records: 2_000,
            ops: 500,
            value_len: 64,
            uniform: false,
            threads: 2,
        };
        let result = run_suite("BoLT", Options::bolt(), &cfg);
        assert_eq!(result.phases.len(), 8);
        assert_eq!(result.phases[0].phase, "LA");
        assert_eq!(result.phases.last().unwrap().phase, "E");
        for phase in &result.phases {
            assert!(phase.throughput > 0.0, "phase {}", phase.phase);
        }
        assert!(result.bytes_written > 0);
        assert_eq!(result.phase("C").phase, "C");
        let row = result.kops_row(["extra".to_string()]);
        assert_eq!(row.len(), SUITE_HEADERS.len() + 1);
        assert_eq!((row[0].as_str(), row[9].as_str()), ("BoLT", "extra"));
    }
}
