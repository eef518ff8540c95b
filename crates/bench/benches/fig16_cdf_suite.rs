//! **Figure 16** — Tail-latency CDFs of BoLT vs RocksDB for workloads A–F
//! on the large matched-parameter database of Fig 15.
//!
//! The paper's shape: for every workload RocksDB shows the heavier tail —
//! despite its highly concurrent synchronization — because TableCache
//! misses on its large (~1 MB) index blocks dominate, while BoLT reloads
//! ~30 KB per miss.
//!
//! Run: `cargo bench -p bolt-bench --bench fig16_cdf_suite`

use bolt_bench::bolt_core::Options;
use bolt_bench::{print_table, run_suite, scaled_ops, us, write_csv, PhaseResult, SuiteConfig};

const PCTS: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

fn bolt_matched() -> Options {
    let rocks = Options::rocksdb();
    let mut opts = Options::bolt();
    opts.max_open_files = rocks.max_open_files;
    opts.level0_slowdown_trigger = rocks.level0_slowdown_trigger;
    opts.level0_stop_trigger = rocks.level0_stop_trigger;
    opts.level1_max_bytes = rocks.level1_max_bytes;
    opts
}

fn main() {
    let cfg = SuiteConfig {
        records: scaled_ops(40_000),
        ops: scaled_ops(10_000),
        value_len: 1024,
        uniform: false,
        threads: 4,
    };

    let mut per_phase: std::collections::BTreeMap<String, Vec<Vec<String>>> = Default::default();
    for (name, opts) in [("BoLT", bolt_matched()), ("Rocks", Options::rocksdb())] {
        let result = run_suite(name, opts, &cfg);
        for PhaseResult { phase, run, .. } in &result.phases {
            if ["A", "B", "C", "D", "E", "F"].contains(&phase.as_str()) {
                let mut row = vec![name.to_string()];
                row.extend(PCTS.iter().map(|&p| us(run.overall.percentile(p))));
                per_phase.entry(phase.clone()).or_default().push(row);
            }
        }
    }

    let headers = [
        "system",
        "p50_us",
        "p90_us",
        "p95_us",
        "p99_us",
        "p99.9_us",
        "p99.99_us",
    ];
    for (phase, rows) in &per_phase {
        let title = match phase.as_str() {
            "A" => "Fig 16(a) — workload A (50% read, 50% write)",
            "B" => "Fig 16(b) — workload B (95% read)",
            "C" => "Fig 16(c) — workload C (100% read)",
            "D" => "Fig 16(d) — workload D (95% latest-read)",
            "E" => "Fig 16(e) — workload E (95% scan)",
            _ => "Fig 16(f) — workload F (50% RMW, 50% read)",
        };
        print_table(title, &headers, rows);
        write_csv(&format!("fig16_{phase}_cdf"), &headers, rows);
    }
    println!(
        "\npaper shape: RocksDB shows the heavier tail on every workload\n\
         (large index blocks on TableCache misses); BoLT's metadata is ~30 KB/table."
    );
}
