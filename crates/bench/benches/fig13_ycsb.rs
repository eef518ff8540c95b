//! **Figure 13** — YCSB throughput across all seven systems, with (a)
//! zipfian and (b) uniform request distributions (1 KB values). The
//! paper's shape: PebblesDB wins the write-only loads (it avoids merge work
//! entirely), BoLT beats LevelDB ≈3.2× and LVL64MB on LA; BoLT/HBoLT win
//! or tie most mixed workloads; RocksDB's read throughput is strong;
//! LevelDB is the slowest writer.
//!
//! **Figure 14** — tail latency of part (a)'s LA inserts and C reads. The
//! paper's shape: BoLT's insertion tail beats LevelDB up to p99.5; the
//! Hyper family (no governors) shows the lowest insertion tail; on reads,
//! RocksDB's tail jumps at ~p98 from large-index TableCache misses.
//!
//! **Future work** — the paper's §4.1 closing claim: "we can replace the
//! LSM-tree implementation of RocksDB with BoLT to improve its
//! performance." Here that is one more part (a) system,
//! `Options::rocksbolt()` (RocksDB's sizing, triggers and compact record
//! encoding with BoLT's compaction files, logical SSTables, group +
//! settled compaction and fd cache), set beside part (a)'s Rocks row.
//!
//! Run: `cargo bench -p bolt-bench --bench fig13_ycsb`

use bolt_bench::bolt_core::Options;
use bolt_bench::{
    fig13_profiles, mb, report, report_tails, run_suite, SuiteConfig, SuiteResult, SUITE_HEADERS,
};

/// Run the seven systems on one request distribution and print that
/// part's Fig 13 table.
fn run_part(part: &str, uniform: bool) -> Vec<SuiteResult> {
    let cfg = SuiteConfig {
        uniform,
        ..SuiteConfig::default()
    };
    let results: Vec<SuiteResult> = fig13_profiles()
        .into_iter()
        .map(|(name, opts)| run_suite(name, opts, &cfg))
        .collect();
    let rows: Vec<_> = results.iter().map(|r| r.kops_row([])).collect();
    let dist = if uniform { "uniform" } else { "zipfian" };
    report(
        &format!("Fig 13({part}) — YCSB throughput ({dist}), kops/s"),
        &format!("fig13{part}_ycsb_{dist}"),
        &SUITE_HEADERS,
        &rows,
    );
    results
}

fn main() {
    let zipfian = run_part("a", false);
    let rocksbolt = run_suite("RocksBoLT", Options::rocksbolt(), &SuiteConfig::default());
    run_part("b", true);
    println!(
        "\npaper shape: Pebbles > BoLT > LVL64MB > LevelDB on the loads;\n\
         BoLT/HBoLT lead most mixed workloads; Rocks reads are strong."
    );

    const PCTS: [f64; 7] = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99];
    for (phase, csv, title) in [
        (
            "LA",
            "fig14a_write_tail",
            "Fig 14(a) — insertion latency percentiles (Load A, 100% write)",
        ),
        (
            "C",
            "fig14b_read_tail",
            "Fig 14(b) — read latency percentiles (workload C, 100% read)",
        ),
    ] {
        report_tails(title, csv, &PCTS, &zipfian, phase);
    }
    println!(
        "\npaper shape: governor-driven ~1 ms insertion plateaus for LevelDB/BoLT/Rocks;\n\
         Hyper-family inserts have the lowest tail; Rocks reads spike past ~p98."
    );

    let rocks = zipfian
        .iter()
        .find(|r| r.system == "Rocks")
        .expect("a Rocks row");
    let rows = [rocks, &rocksbolt]
        .map(|r| r.kops_row([r.io.fsync_calls.to_string(), mb(r.bytes_written)]));
    let headers = [&SUITE_HEADERS[..], &["fsync", "written_MB"]].concat();
    report(
        "Future work — BoLT mechanisms inside the RocksDB profile",
        "futurework_rocksbolt",
        &headers,
        &rows,
    );
    println!("\nthe paper's expectation: BoLT's barrier reduction carries over to RocksDB.");
}
