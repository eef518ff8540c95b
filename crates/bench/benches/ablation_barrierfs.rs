//! **Extension ablation** (paper §5, Related Work) — BarrierFS-style
//! ordering barriers vs BoLT.
//!
//! BarrierFS separates ordering from durability: data files only need an
//! `fbarrier()` before the MANIFEST commit, so stock LevelDB recovers most
//! of the *barrier* saving without changing its file layout. But, as the
//! paper argues, it cannot recover the *write-amplification* saving of
//! logical SSTables + settled compaction. This bench quantifies both
//! effects on the same workload.
//!
//! Run: `cargo bench -p bolt-bench --bench ablation_barrierfs`

use std::sync::Arc;

use bolt_bench::bolt_core::Options;
use bolt_bench::bolt_env::{Env, SimEnv};
use bolt_bench::{bench_device, kops, load_and_settle, mb, report, scaled_ops};

fn run(label: &str, opts: Options, barrierfs: bool, rows: &mut Vec<Vec<String>>) {
    let model = bench_device();
    // The env decides: the engine uses ordering-only barriers wherever
    // durability is not needed exactly when its env offers them.
    let env: Arc<dyn Env> = if barrierfs {
        Arc::new(SimEnv::with_barrierfs(model))
    } else {
        Arc::new(SimEnv::new(model))
    };
    let (db, result) = load_and_settle(&env, opts, scaled_ops(40_000), 5);
    let io = env.stats().snapshot();
    rows.push(vec![
        label.to_string(),
        io.fsync_calls.to_string(),
        io.ordering_barriers.to_string(),
        mb(io.bytes_written),
        kops(result.throughput()),
    ]);
    db.close().expect("close");
}

fn main() {
    let mut rows = Vec::new();
    run("LevelDB", Options::leveldb(), false, &mut rows);
    run("LevelDB+BarrierFS", Options::leveldb(), true, &mut rows);
    run("BoLT", Options::bolt(), false, &mut rows);
    run("BoLT+BarrierFS", Options::bolt(), true, &mut rows);

    let headers = [
        "system",
        "fsync_calls",
        "ordering_barriers",
        "written_MB",
        "load_kops/s",
    ];
    report(
        "BarrierFS ablation — ordering-only barriers vs BoLT (Load A)",
        "ablation_barrierfs",
        &headers,
        &rows,
    );
    println!(
        "\npaper's argument: BarrierFS can cut LevelDB's durability barriers like BoLT\n\
         does, but only BoLT also cuts the bytes written (settled compaction)."
    );
}
