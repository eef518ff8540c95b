//! **Beyond the paper — sharded write scaling** (`bolt-sharded`, DESIGN.md
//! §12). One BoLT engine against four behind a hash router, each shard on
//! its own simulated SSD, under YCSB Load / A / C with synced writes, then
//! `Cross`: every op one synced batch of two keys that route to two
//! shards — a cross-shard 2PC commit (one batch on the single engine).
//! `Cross` is the traffic the coordinator lock serialises: one round of
//! two synced prepares (in parallel) and two unsynced applies per commit.
//!
//! The device is write-bandwidth-bound — 2 MB/s sequential writes and a
//! 0.5 ms barrier make a synced commit group queue-drain-bound — so
//! aggregate throughput tracks aggregate device bandwidth, which is what
//! sharding multiplies.
//!
//! Floor (scale ≥ 1): 4-shard Load throughput ≥ 2.5× the single engine.
//!
//! Run: `cargo bench -p bolt-bench --bench ext_sharded_scaling`

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt_bench::bolt_core::{Db, Options, WriteBatch};
use bolt_bench::bolt_env::{DeviceModel, Env, SimEnv};
use bolt_bench::bolt_sharded::{Router, ShardedDb};
use bolt_bench::bolt_ycsb::{
    key_name, load_db, run_workload, value_payload, BenchConfig, KvTarget, RunResult, Workload,
};
use bolt_bench::{
    check_floor, measure_phase, open_db, report, scaled_ops, PhaseResult, CAPACITY_SCALE,
    PHASE_HEADERS,
};
use bolt_common::histogram::Histogram;
use bolt_common::Result;

const THREADS: usize = 8;
const SHARDS: usize = 4;

fn env() -> Arc<dyn Env> {
    Arc::new(SimEnv::new(DeviceModel {
        write_bandwidth: 2 * 1024 * 1024,
        read_bandwidth: 48 * 1024 * 1024,
        read_base_latency: Duration::from_micros(30),
        barrier_latency: Duration::from_micros(500),
        time_scale: 1.0,
    }))
}

fn opts() -> Options {
    Options {
        // The paper's durable-write regime: the WAL device gates
        // throughput, which is what sharding parallelizes.
        sync_wal: true,
        ..Options::bolt()
    }
}

fn phases<T: KvTarget>(
    db: &Arc<T>,
    cfg: &BenchConfig,
    write: fn(&T, WriteBatch) -> Result<()>,
) -> Vec<PhaseResult> {
    let cursor = Arc::new(AtomicU64::new(cfg.record_count));
    let mut phases = vec![measure_phase(&**db, "Load", cfg.value_len, || {
        load_db(db, cfg)
    })];
    for workload in [Workload::a(), Workload::c()] {
        phases.push(measure_phase(&**db, workload.name, cfg.value_len, || {
            run_workload(db, &workload, cfg, &cursor)
        }));
    }
    phases.push(measure_phase(&**db, "Cross", 2 * cfg.value_len, || {
        cross(&**db, cfg, write)
    }));
    phases
}

/// `cfg.threads` clients each write their share of `cfg.op_count` batches
/// of two keys on two different shards of the hash router.
fn cross<T: KvTarget>(
    db: &T,
    cfg: &BenchConfig,
    write: fn(&T, WriteBatch) -> Result<()>,
) -> Result<RunResult> {
    let router = Router::hash(SHARDS)?;
    let overall = Arc::new(Histogram::new());
    let per_thread = cfg.op_count.div_ceil(cfg.threads as u64);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cfg.threads as u64)
            .map(|t| {
                let (router, overall) = (&router, &overall);
                scope.spawn(move || -> Result<()> {
                    for num in t * per_thread..(t + 1) * per_thread {
                        let a = key_name(num);
                        // FNV-1a mod 4 reaches every shard over four
                        // consecutive last bytes.
                        let z = (b'0'..=b'3')
                            .map(|c| [a.as_slice(), &[c]].concat())
                            .find(|z| router.route(z) != router.route(&a))
                            .expect("a last byte that leaves a's shard");
                        let value = value_payload(num, cfg.value_len);
                        let mut batch = WriteBatch::new();
                        batch.put(&a, &value);
                        batch.put(&z, &value);
                        let t0 = Instant::now();
                        write(db, batch)?;
                        overall.record(t0.elapsed().as_nanos() as u64);
                    }
                    Ok(())
                })
            })
            .collect();
        clients
            .into_iter()
            .try_for_each(|c| c.join().expect("cross client panicked"))
    })?;
    Ok(RunResult {
        workload: "Cross".to_string(),
        ops: per_thread * cfg.threads as u64,
        elapsed: start.elapsed(),
        overall,
        per_op: HashMap::new(),
        not_found: 0,
    })
}

fn main() {
    let cfg = BenchConfig {
        record_count: scaled_ops(4_000),
        op_count: scaled_ops(4_000),
        threads: THREADS,
        value_len: 1024,
        seed: 0x5eed,
    };

    let db = open_db(&env(), opts());
    let single = phases(&db, &cfg, Db::write);
    db.close().expect("close");

    let db = Arc::new(
        ShardedDb::open_with_envs(
            (0..SHARDS).map(|_| env()).collect(),
            "bench-db",
            opts().scaled(CAPACITY_SCALE),
            Router::hash(SHARDS).expect("router"),
        )
        .expect("open sharded"),
    );
    let sharded = phases(&db, &cfg, ShardedDb::write_batch);
    db.close().expect("close sharded");

    let row = |shards: usize, base: &PhaseResult, p: &PhaseResult| {
        let mut row = vec![p.phase.clone(), shards.to_string()];
        row.extend(p.cells());
        row.push(format!("{:.2}", p.throughput / base.throughput));
        row
    };
    let rows: Vec<Vec<String>> = single
        .iter()
        .map(|p| row(1, p, p))
        .chain(single.iter().zip(&sharded).map(|(s, p)| row(SHARDS, s, p)))
        .collect();
    let headers = [&["workload", "shards"][..], &PHASE_HEADERS, &["speedup"]].concat();
    report(
        &format!("Sharded scaling — 1 vs {SHARDS} shards, {THREADS} clients, synced 1 KB writes"),
        "ext_sharded_scaling",
        &headers,
        &rows,
    );

    let load_speedup = sharded[0].throughput / single[0].throughput;
    check_floor(
        &format!("{SHARDS}-shard Load >= 2.5x one engine (got {load_speedup:.2}x)"),
        load_speedup >= 2.5,
    );
}
