//! **Figure 14** — Tail-latency CDFs: (a) insertion latency under the
//! write-only Load A, (b) read latency under the read-only workload C,
//! across all seven systems.
//!
//! The paper's shape: BoLT's insertion tail beats LevelDB up to p99.5;
//! the Hyper family (no governors) shows the lowest insertion tail; on
//! reads, RocksDB's tail jumps at ~p98 from large-index TableCache misses.
//!
//! Run: `cargo bench -p bolt-bench --bench fig14_tail_latency`

use bolt_bench::{fig13_profiles, print_table, run_suite, us, write_csv, PhaseResult, SuiteConfig};

const PCTS: [f64; 7] = [50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99];

fn main() {
    let cfg = SuiteConfig::default();
    let mut write_rows = Vec::new();
    let mut read_rows = Vec::new();
    for (name, opts) in fig13_profiles() {
        let result = run_suite(name, opts, &cfg);
        for PhaseResult { phase, run, .. } in &result.phases {
            let row_of = |hist: &bolt_common::histogram::Histogram| {
                let mut row = vec![name.to_string()];
                row.extend(PCTS.iter().map(|&p| us(hist.percentile(p))));
                row
            };
            if phase == "LA" {
                write_rows.push(row_of(&run.overall));
            } else if phase == "C" {
                read_rows.push(row_of(&run.overall));
            }
        }
    }
    let headers = [
        "system",
        "p50_us",
        "p90_us",
        "p95_us",
        "p99_us",
        "p99.5_us",
        "p99.9_us",
        "p99.99_us",
    ];
    print_table(
        "Fig 14(a) — insertion latency percentiles (Load A, 100% write)",
        &headers,
        &write_rows,
    );
    write_csv("fig14a_write_tail", &headers, &write_rows);
    print_table(
        "Fig 14(b) — read latency percentiles (workload C, 100% read)",
        &headers,
        &read_rows,
    );
    write_csv("fig14b_read_tail", &headers, &read_rows);
    println!(
        "\npaper shape: governor-driven ~1 ms insertion plateaus for LevelDB/BoLT/Rocks;\n\
         Hyper-family inserts have the lowest tail; Rocks reads spike past ~p98."
    );
}
