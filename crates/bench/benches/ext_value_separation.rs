//! **Beyond the paper — WAL-time value separation** (DESIGN.md §14;
//! BVLSM, arXiv 2506.04678). YCSB Load at 4 / 16 / 64 KiB values with
//! separation off and on (threshold 1 KiB): values above the threshold go
//! to the value log once and never ride a flush or a compaction, so the
//! device bytes written per user byte drop towards 1.
//!
//! Floor (scale ≥ 1): 16 KiB-value Load write amp ≥ 2× lower with
//! separation on.
//!
//! Run: `cargo bench -p bolt-bench --bench ext_value_separation`

use bolt_bench::bolt_core::Options;
use bolt_bench::bolt_ycsb::{load_db, BenchConfig};
use bolt_bench::{
    check_floor, measure_phase, open_db, print_table, scaled_ops, sim_env, write_csv, PhaseResult,
    PHASE_HEADERS,
};

/// Values above this go to the value log in the separated configuration.
const THRESHOLD: u64 = 1024;
const VALUE_LENS: [usize; 3] = [4096, 16384, 65536];

/// Load `total_bytes` of `value_len`-byte values into a fresh database.
fn load(value_len: usize, separated: bool, total_bytes: u64) -> PhaseResult {
    let db = open_db(
        &sim_env(),
        Options {
            value_separation_threshold: separated.then_some(THRESHOLD),
            ..Options::bolt()
        },
    );
    let cfg = BenchConfig {
        record_count: (total_bytes / value_len as u64).max(64),
        op_count: 0,
        threads: 4,
        value_len,
        seed: 0x5eed,
    };
    let phase = measure_phase(&*db, "Load", value_len, || {
        let run = load_db(&db, &cfg)?;
        // Settle the tail so both configurations account for every
        // accepted byte, not whatever happened to still sit in the
        // memtable when the clock stopped.
        db.flush()?;
        Ok(run)
    });
    db.close().expect("close");
    phase
}

fn main() {
    let total_bytes = scaled_ops(16 << 20);
    let mut rows = Vec::new();
    let mut reductions = Vec::new();
    for value_len in VALUE_LENS {
        let off = load(value_len, false, total_bytes);
        let on = load(value_len, true, total_bytes);
        reductions.push(off.write_amp() / on.write_amp());
        for (separated, p) in [(false, off), (true, on)] {
            let mut row = vec![value_len.to_string(), separated.to_string()];
            row.extend(p.cells());
            row.push(format!("{:.2}", p.write_amp()));
            rows.push(row);
        }
    }
    let headers = [
        &["value_len", "separated"][..],
        &PHASE_HEADERS,
        &["write_amp"],
    ]
    .concat();
    print_table(
        &format!("Value separation — YCSB Load, threshold {THRESHOLD} B"),
        &headers,
        &rows,
    );
    write_csv("ext_value_separation", &headers, &rows);
    for (value_len, reduction) in VALUE_LENS.iter().zip(&reductions) {
        println!("write-amp reduction at {value_len} B values: {reduction:.2}x");
    }

    let at_16k = reductions[1];
    check_floor(
        &format!("16 KiB-value Load write amp >= 2x lower when separated (got {at_16k:.2}x)"),
        at_16k >= 2.0,
    );
}
