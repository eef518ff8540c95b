//! **Figure 11** — Number of `fsync()` calls vs the group-compaction size
//! (write-only Load A), compared against stock LevelDB.
//!
//! The paper's shape: stock LevelDB calls fsync about twice as often as
//! BoLT with a 2 MB group (two 1 MB logical SSTables per compaction), and
//! the count keeps falling roughly linearly as the group grows to 64 MB —
//! which is why 64 MB is the default for all other experiments.
//!
//! Run: `cargo bench -p bolt-bench --bench fig11_group_size`

use bolt_bench::bolt_core::{CompactionStyle, Options};
use bolt_bench::{kops, load_and_settle, mb, report, scaled_ops, sim_env};

fn run(label: &str, opts: Options, rows: &mut Vec<Vec<String>>) {
    let env = sim_env();
    let (db, result) = load_and_settle(&env, opts, scaled_ops(40_000), 11);
    let io = env.stats().snapshot();
    rows.push(vec![
        label.to_string(),
        io.fsync_calls.to_string(),
        kops(result.throughput()),
        mb(io.bytes_written),
    ]);
    db.close().expect("close");
}

fn main() {
    let mut rows = Vec::new();
    run("LevelDB", Options::leveldb(), &mut rows);
    for group_mb in [2u64, 4, 8, 16, 32, 64] {
        let mut opts = Options::bolt();
        if let CompactionStyle::Bolt(b) = &mut opts.compaction_style {
            b.group_compaction_bytes = group_mb << 20;
            // Isolate group compaction (as in the paper's GC sweep).
            b.settled_compaction = false;
            b.fd_cache = false;
        }
        run(&format!("GC{group_mb}MB"), opts, &mut rows);
    }

    let headers = ["config", "fsync_calls", "load_kops/s", "written_MB"];
    report(
        "Fig 11 — fsync calls vs group compaction size (Load A)",
        "fig11_group_size",
        &headers,
        &rows,
    );
    println!("\npaper shape: LevelDB ≈ 2× the fsyncs of GC2MB; count falls as the group grows.");
}
