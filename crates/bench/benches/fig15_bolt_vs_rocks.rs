//! **Figure 15** — BoLT vs RocksDB on a database ~2× larger than memory,
//! with matched parameters (the paper sets BoLT's TableCache, L0 triggers
//! 20/36, and L1 = 256 MB equal to RocksDB's): (a) 1 KB records, zipfian;
//! (b) 1 KB records, uniform; (c) 10× as many small (100 B) records,
//! zipfian, where RocksDB's more compact SSTable format writes fewer
//! bytes. Part (a)'s runs also give **Figure 16**.
//!
//! The paper's shape: BoLT wins the 1 KB loads by up to ~58 % and most
//! reads; RocksDB wins the small-record load (c) thanks to its record
//! format, and wins the scan-heavy E.
//!
//! **Figure 16** — tail-latency CDFs of BoLT vs RocksDB for workloads A–F,
//! read off part (a)'s phases. The paper's shape: for every workload
//! RocksDB shows the heavier tail — despite its highly concurrent
//! synchronization — because TableCache misses on its large (~1 MB) index
//! blocks dominate, while BoLT reloads ~30 KB per miss.
//!
//! Run: `cargo bench -p bolt-bench --bench fig15_bolt_vs_rocks`

use bolt_bench::{
    fig15_profiles, mb, report, report_tails, run_suite, scaled_ops, SuiteConfig, SuiteResult,
    SUITE_HEADERS,
};

/// Run both systems on one database shape and print that part's table.
fn run_part(part: &str, records: u64, value_len: usize, uniform: bool) -> Vec<SuiteResult> {
    let cfg = SuiteConfig {
        records,
        ops: scaled_ops(10_000),
        value_len,
        uniform,
        threads: 4,
    };
    let results: Vec<SuiteResult> = fig15_profiles()
        .into_iter()
        .map(|(name, opts)| run_suite(name, opts, &cfg))
        .collect();
    let rows: Vec<_> = results
        .iter()
        .map(|r| r.kops_row([mb(r.bytes_written)]))
        .collect();
    let headers = [&SUITE_HEADERS[..], &["written_MB"]].concat();
    let dist = if uniform { "uniform" } else { "zipfian" };
    report(
        &format!(
            "Fig 15({part}) — BoLT vs RocksDB, {records} x {value_len}B records ({dist}), kops/s"
        ),
        &format!("fig15{part}_bolt_vs_rocks"),
        &headers,
        &rows,
    );
    results
}

fn main() {
    // (a) large 1 KB-record database, zipfian.
    let large = run_part("a", scaled_ops(40_000), 1024, false);
    // (b) same, uniform.
    run_part("b", scaled_ops(40_000), 1024, true);
    // (c) 10× as many small records, zipfian — the record-format effect.
    run_part("c", scaled_ops(200_000), 100, false);
    println!(
        "\npaper shape: BoLT wins the 1 KB loads (up to ~58%) and most reads;\n\
         Rocks writes fewer bytes in (c) (compact record format) and wins E."
    );

    const PCTS: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];
    for (phase, title) in [
        ("A", "Fig 16(a) — workload A (50% read, 50% write)"),
        ("B", "Fig 16(b) — workload B (95% read)"),
        ("C", "Fig 16(c) — workload C (100% read)"),
        ("D", "Fig 16(d) — workload D (95% latest-read)"),
        ("E", "Fig 16(e) — workload E (95% scan)"),
        ("F", "Fig 16(f) — workload F (50% RMW, 50% read)"),
    ] {
        report_tails(title, &format!("fig16_{phase}_cdf"), &PCTS, &large, phase);
    }
    println!(
        "\npaper shape: RocksDB shows the heavier tail on every workload\n\
         (large index blocks on TableCache misses); BoLT's metadata is ~30 KB/table."
    );
}
