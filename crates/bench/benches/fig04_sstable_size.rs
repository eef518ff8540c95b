//! **Figure 4** — Insertion performance of *stock LevelDB* with various
//! SSTable sizes (YCSB Load A).
//!
//! (a) number of `fsync()` calls; (b) insertion tail latency. The paper's
//! shape: fsync count decreases roughly linearly as the SSTable size grows,
//! and tail latency improves with it.
//!
//! Run: `cargo bench -p bolt-bench --bench fig04_sstable_size`

use bolt_bench::bolt_core::Options;
use bolt_bench::{kops, load_and_settle, report, scaled_ops, sim_env, us};

fn main() {
    // Paper sizes 2–64 MB, divided by the 1/64 capacity scale.
    let sizes_mb: [u64; 6] = [2, 4, 8, 16, 32, 64];
    let records = scaled_ops(40_000);

    let mut rows = Vec::new();
    for &size_mb in &sizes_mb {
        let mut opts = Options::leveldb();
        opts.sstable_bytes = size_mb << 20;
        let env = sim_env();
        let (db, result) = load_and_settle(&env, opts, records, 4);
        let io = env.stats().snapshot();
        rows.push(vec![
            format!("{size_mb}MB"),
            io.fsync_calls.to_string(),
            kops(result.throughput()),
            us(result.percentile(95.0)),
            us(result.percentile(99.0)),
            us(result.percentile(99.9)),
            us(result.overall.max()),
        ]);
        db.close().expect("close");
    }

    let headers = [
        "sstable",
        "fsync_calls",
        "kops/s",
        "p95_us",
        "p99_us",
        "p99.9_us",
        "max_us",
    ];
    report(
        "Fig 4 — stock LevelDB, Load A: fsync count & insertion tail latency vs SSTable size",
        "fig04_sstable_size",
        &headers,
        &rows,
    );
    println!("\npaper shape: fsync calls fall ~linearly with SSTable size; tail latency improves.");
}
