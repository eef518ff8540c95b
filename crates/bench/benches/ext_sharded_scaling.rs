//! **Beyond the paper — sharded write scaling** (`bolt-sharded`, DESIGN.md
//! §12). One BoLT engine against four behind a hash router, each shard on
//! its own simulated SSD, under YCSB Load / A / C with synced writes.
//!
//! The device is write-bandwidth-bound — 2 MB/s sequential writes and a
//! 0.5 ms barrier make a synced commit group queue-drain-bound — so
//! aggregate throughput tracks aggregate device bandwidth, which is what
//! sharding multiplies.
//!
//! Floor (scale ≥ 1): 4-shard Load throughput ≥ 2.5× the single engine.
//!
//! Run: `cargo bench -p bolt-bench --bench ext_sharded_scaling`

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use bolt_bench::bolt_core::Options;
use bolt_bench::bolt_env::{DeviceModel, Env, SimEnv};
use bolt_bench::bolt_sharded::{Router, ShardedDb};
use bolt_bench::bolt_ycsb::{load_db, run_workload, BenchConfig, KvTarget, Workload};
use bolt_bench::{
    check_floor, measure_phase, open_db, print_table, scaled_ops, write_csv, PhaseResult,
    CAPACITY_SCALE, PHASE_HEADERS,
};

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

fn phases<T: KvTarget>(db: &Arc<T>, cfg: &BenchConfig) -> Vec<PhaseResult> {
    let cursor = Arc::new(AtomicU64::new(cfg.record_count));
    let mut phases = vec![measure_phase(&**db, "Load", cfg.value_len, || {
        load_db(db, cfg)
    })];
    for workload in [Workload::a(), Workload::c()] {
        phases.push(measure_phase(&**db, workload.name, cfg.value_len, || {
            run_workload(db, &workload, cfg, &cursor)
        }));
    }
    phases
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
    let single = phases(&db, &cfg);
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
    let sharded = phases(&db, &cfg);
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
    print_table(
        &format!("Sharded scaling — 1 vs {SHARDS} shards, {THREADS} clients, synced 1 KB writes"),
        &headers,
        &rows,
    );
    write_csv("ext_sharded_scaling", &headers, &rows);

    let load_speedup = sharded[0].throughput / single[0].throughput;
    check_floor(
        &format!("{SHARDS}-shard Load >= 2.5x one engine (got {load_speedup:.2}x)"),
        load_speedup >= 2.5,
    );
}
