//! **Beyond the paper — compaction policies** (DESIGN.md §13; the design
//! space of arXiv 2202.04522). Leveled, size-tiered and lazy-leveled victim
//! selection under the BoLT output style, over the full YCSB suite with
//! 1 KB values: per-workload throughput, write amplification (device bytes
//! per user byte) and read amplification (device bytes read per byte
//! requested), then one cumulative line per policy with space
//! amplification and the paper's headline barriers per compaction.
//!
//! Floor (scale ≥ 1): lazy-leveled cumulative write amp below leveled's.
//!
//! Run: `cargo bench -p bolt-bench --bench ext_compaction_policies`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bolt_bench::bolt_core::{CompactionPolicyKind, Options};
use bolt_bench::bolt_ycsb::{load_db, run_workload, BenchConfig, Workload};
use bolt_bench::{
    check_floor, measure_phase, open_db, print_table, scaled_ops, sim_env, write_csv, PhaseResult,
    PHASE_HEADERS,
};

const POLICIES: [CompactionPolicyKind; 3] = [
    CompactionPolicyKind::Leveled,
    CompactionPolicyKind::SizeTiered,
    CompactionPolicyKind::LazyLeveled,
];

/// One policy's suite: its measured phases and its cumulative line —
/// write amp, workload-C read amp, space amp, barriers per compaction.
fn run_policy(policy: CompactionPolicyKind, cfg: &BenchConfig) -> (Vec<PhaseResult>, [f64; 4]) {
    let db = open_db(
        &sim_env(),
        Options {
            compaction_policy: policy,
            ..Options::bolt()
        },
    );

    let cursor = Arc::new(AtomicU64::new(cfg.record_count));
    let mut phases = vec![measure_phase(&*db, "Load", cfg.value_len, || {
        load_db(&db, cfg)
    })];
    for workload in [
        Workload::a(),
        Workload::b(),
        Workload::c(),
        Workload::d(),
        Workload::e(),
        Workload::f(),
    ] {
        phases.push(measure_phase(&*db, workload.name, cfg.value_len, || {
            run_workload(&db, &workload, cfg, &cursor)
        }));
    }

    // Settle so the space measurement sees committed tables, not an
    // in-flight memtable.
    db.flush().expect("flush");
    let metrics = db.metrics();
    db.close().expect("close");
    let live_bytes: u64 = metrics.levels.iter().map(|l| l.bytes).sum();
    let loaded = cursor.load(Ordering::Relaxed) * cfg.value_len as u64;
    let cumulative = [
        metrics.write_amplification(),
        phases[3].read_amp(), // workload C
        live_bytes as f64 / loaded as f64,
        metrics.barriers_per_compaction(),
    ];
    (phases, cumulative)
}

fn main() {
    let cfg = BenchConfig {
        record_count: scaled_ops(8_000),
        op_count: scaled_ops(4_000),
        threads: 4,
        value_len: 1024,
        seed: 0x5eed,
    };
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for policy in POLICIES {
        let (phases, cumulative) = run_policy(policy, &cfg);
        rows.extend(phases.iter().map(|p| {
            let mut row = vec![policy.as_str().to_string(), p.phase.clone()];
            row.extend(p.cells());
            row.extend([p.write_amp(), p.read_amp()].map(|amp| format!("{amp:.2}")));
            row
        }));
        summary.push(cumulative);
    }

    let headers = [
        &["policy", "workload"][..],
        &PHASE_HEADERS,
        &["write_amp", "read_amp"],
    ]
    .concat();
    print_table(
        "Compaction policies — YCSB suite under BoLT, 1 KB values",
        &headers,
        &rows,
    );
    write_csv("ext_compaction_policies", &headers, &rows);

    let headers = [
        "policy",
        "write_amp",
        "read_amp_c",
        "space_amp",
        "barriers/compaction",
    ];
    let summary_rows: Vec<Vec<String>> = POLICIES
        .iter()
        .zip(&summary)
        .map(|(policy, cumulative)| {
            std::iter::once(policy.as_str().to_string())
                .chain(cumulative.iter().map(|v| format!("{v:.2}")))
                .collect()
        })
        .collect();
    print_table("Compaction policies — cumulative", &headers, &summary_rows);
    write_csv("ext_compaction_policies_summary", &headers, &summary_rows);

    let (leveled, lazy) = (summary[0][0], summary[2][0]);
    check_floor(
        &format!("lazy-leveled write amp < leveled (got {lazy:.2} vs {leveled:.2})"),
        lazy < leveled,
    );
}
