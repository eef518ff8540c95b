//! **Figure 6** — TableCache eviction overhead in the RocksDB profile:
//! point-query latency with 2 MB vs 64 MB SSTables under an insufficient
//! TableCache.
//!
//! The paper's shape: with 64 MB SSTables a TableCache miss re-reads a
//! ~1 MB index block, so ~25 % of queries see a much higher latency; with
//! 2 MB SSTables (and the *same* slot count) the miss penalty is ~30 KB and
//! the tail collapses.
//!
//! Run: `cargo bench -p bolt-bench --bench fig06_table_cache`

use std::sync::Arc;

use bolt_bench::bolt_core::{Db, Options};
use bolt_bench::bolt_ycsb::key_name;
use bolt_bench::{load_and_settle, report, scaled_ops, sim_env, us, CAPACITY_SCALE};
use bolt_common::histogram::Histogram;
use bolt_common::rng::Rng64;

fn run(label: &str, sstable_mb: u64, rows: &mut Vec<Vec<String>>) {
    let mut opts = Options::rocksdb();
    opts.sstable_bytes = sstable_mb << 20;
    opts.block_cache_bytes = 2 << 20; // small block cache, metadata dominates

    let records = scaled_ops(60_000);
    let env = sim_env();
    let (db, _) = load_and_settle(&env, opts.clone(), records, 6);

    // Model the paper's 8 GB memory cap: the TableCache may hold the same
    // *bytes* of metadata in both configurations, so the slot count is a
    // fixed fraction of the table count and the miss *rate* matches while
    // the miss *penalty* (index-block size) differs ~32x.
    let total_tables: usize = db.level_info().iter().map(|l| l.tables).sum();
    let slots = ((total_tables / 4).max(2)) as u64;
    db.close().expect("close");
    let mut opts2 = opts.scaled(CAPACITY_SCALE);
    opts2.max_open_files = slots;
    let db = Arc::new(Db::open(Arc::clone(&env), "bench-db", opts2).expect("reopen"));

    // Uniform point queries (worst case for caching).
    let queries = scaled_ops(20_000);
    let hist = Histogram::new();
    let mut rng = Rng64::new(66);
    let opens_before = db.table_cache().open_count();
    for _ in 0..queries {
        let key = key_name(rng.next_below(records));
        let t0 = std::time::Instant::now();
        let _ = db.get(&key).expect("get");
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    let opens = db.table_cache().open_count() - opens_before;
    let info = db.level_info();
    let tables: usize = info.iter().map(|l| l.tables).sum();
    rows.push(vec![
        label.to_string(),
        tables.to_string(),
        opens.to_string(),
        us(hist.percentile(50.0)),
        us(hist.percentile(90.0)),
        us(hist.percentile(95.0)),
        us(hist.percentile(99.0)),
        us(hist.percentile(99.9)),
    ]);
    db.close().expect("close");
}

fn main() {
    let mut rows = Vec::new();
    run("2MB", 2, &mut rows);
    run("64MB", 64, &mut rows);

    let headers = [
        "sstable",
        "tables",
        "tcache_misses",
        "p50_us",
        "p90_us",
        "p95_us",
        "p99_us",
        "p99.9_us",
    ];
    report("Fig 6 — RocksDB profile: point-query latency, 2MB vs 64MB SSTables, fixed TableCache slots", "fig06_table_cache", &headers, &rows);
    println!("\npaper shape: 64MB SSTables show a far heavier tail (big index-block reloads).");
}
