//! Run the YCSB suite in the paper's order (LA, A, B, C, F, D, reset,
//! LE, E) against a chosen profile and print a throughput table.
//!
//! Run with `cargo run --release --example ycsb_demo -- [profile]`, where
//! `profile` is any name in `Options::PROFILE_NAMES` (`leveldb`, `lvl64`,
//! `hyper`, `pebbles`, `rocks`, `bolt` — the default —, `bolt_ls`, …); an
//! unknown name is an error, not a silent `bolt` run. Append `--big-values` to run a 4 KiB
//! value variant with WAL-time key-value separation enabled
//! (DESIGN.md §14) — the same `KvTarget` driver, larger records.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use bolt::{Db, Options};
use bolt_env::{DeviceModel, Env, SimEnv};
use bolt_ycsb::{load_db, run_workload, BenchConfig, Workload};

fn main() -> bolt::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let big_values = args.iter().any(|a| a == "--big-values");
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "bolt".into());
    let profile = Options::profile(&name).ok_or_else(|| {
        bolt::Error::InvalidArgument(format!(
            "unknown profile `{name}` (try: {})",
            Options::PROFILE_NAMES.join(", ")
        ))
    })?;
    let opts = if big_values {
        // Big-value variant: 4 KiB records with WAL-time separation, so
        // compaction moves pointers instead of payloads.
        Options {
            value_separation_threshold: Some(1024),
            ..profile.scaled(1.0 / 64.0)
        }
    } else {
        profile.scaled(1.0 / 64.0)
    };
    println!(
        "YCSB suite on profile `{name}` (simulated SSD, 1/64 scale{})\n",
        if big_values {
            ", 4 KiB values, separation on"
        } else {
            ""
        }
    );

    let env: Arc<dyn Env> = Arc::new(SimEnv::new(DeviceModel::ssd_scaled(0.02)));
    let db = Arc::new(Db::open(Arc::clone(&env), "ycsb", opts.clone())?);
    let cfg = BenchConfig {
        record_count: if big_values { 4_000 } else { 20_000 },
        op_count: if big_values { 2_000 } else { 8_000 },
        threads: 4,
        value_len: if big_values { 4096 } else { 256 },
        seed: 2020,
    };

    // Load A.
    let load = load_db(&db, &cfg)?;
    println!("{:<8} {:>10.0} ops/s", "LoadA", load.throughput());
    let cursor = Arc::new(AtomicU64::new(cfg.record_count));

    // A, B, C, F, D — the paper's run order.
    for workload in [
        Workload::a(),
        Workload::b(),
        Workload::c(),
        Workload::f(),
        Workload::d(),
    ] {
        let result = run_workload(&db, &workload, &cfg, &cursor)?;
        println!(
            "{:<8} {:>10.0} ops/s   (p95 {:>6} us, p99 {:>6} us)",
            result.workload,
            result.throughput(),
            result.percentile(95.0) / 1000,
            result.percentile(99.0) / 1000,
        );
    }
    db.close()?;

    // Delete database, Load E, E.
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(DeviceModel::ssd_scaled(0.02)));
    let db = Arc::new(Db::open(Arc::clone(&env), "ycsb-e", opts)?);
    let load = load_db(&db, &cfg)?;
    println!("{:<8} {:>10.0} ops/s", "LoadE", load.throughput());
    let cursor = Arc::new(AtomicU64::new(cfg.record_count));
    let result = run_workload(
        &db,
        &Workload::e(),
        &BenchConfig {
            op_count: 1_000,
            ..cfg
        },
        &cursor,
    )?;
    println!(
        "{:<8} {:>10.0} ops/s   (p95 {:>6} us, p99 {:>6} us)",
        result.workload,
        result.throughput(),
        result.percentile(95.0) / 1000,
        result.percentile(99.0) / 1000,
    );
    db.close()?;
    Ok(())
}
