//! Event-stream causal-shape tests: the paper's barrier accounting made
//! observable. A flush + group-compaction + settled-compaction workload is
//! run with the trace ring drained incrementally, and the stream is checked
//! for the BoLT contract: every rewrite compaction pays exactly two
//! durability barriers (one for its compaction file, one for the MANIFEST
//! append), and settled/move-only compactions pay no data barrier at all.
//!
//! A second test cross-checks `Db::metrics()` against the raw `DbStats` and
//! env `IoStats` counters it claims to merge.

use std::collections::HashMap;
use std::sync::Arc;

use bolt::{BarrierCause, Db, EngineEvent, Options, TraceEvent};
use bolt_env::{Env, MemEnv};

/// Disjoint-range rounds so later compactions can settle whole tables
/// without rewriting them, mixed with overlapping rounds that force
/// rewrites. Drains the ring after every flush so nothing is dropped.
fn traced_workload(db: &Db) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for round in 0..10u32 {
        for i in 0..400u32 {
            let key = format!("r{:02}key{i:05}", round % 5);
            db.put(key.as_bytes(), &[b'z'; 100]).expect("put");
        }
        db.flush().expect("flush");
        events.extend(db.events());
    }
    db.compact_until_quiet().expect("compact");
    events.extend(db.events());
    events
}

fn open_traced_db() -> (Arc<dyn Env>, Db) {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut opts = Options::bolt().scaled(1.0 / 256.0);
    opts.level0_compaction_trigger = 2;
    let db = Db::open(Arc::clone(&env), "event-db", opts).expect("open");
    (env, db)
}

#[test]
fn rewrite_compactions_pay_exactly_two_barriers() {
    let (_env, db) = open_traced_db();
    let events = traced_workload(&db);

    let metrics = db.metrics();
    assert_eq!(
        metrics.events_dropped, 0,
        "incremental drains must observe the complete stream"
    );

    // Window each compaction by id: the background thread runs compactions
    // one at a time, so every barrier between a CompactionBegin/End pair
    // with a compaction cause belongs to that compaction.
    let mut begin_at: HashMap<u64, usize> = HashMap::new();
    let mut rewrites = 0u32;
    let mut settled_only = 0u32;
    for (idx, ev) in events.iter().enumerate() {
        match &ev.event {
            EngineEvent::CompactionBegin { id, .. } => {
                begin_at.insert(*id, idx);
            }
            EngineEvent::CompactionEnd {
                id,
                settled,
                rewrote,
                ..
            } => {
                let start = *begin_at
                    .get(id)
                    .unwrap_or_else(|| panic!("compaction #{id} ended without beginning"));
                let mut data = 0u64;
                let mut manifest = 0u64;
                for e in &events[start..=idx] {
                    if let EngineEvent::Barrier { cause, .. } = &e.event {
                        match cause {
                            BarrierCause::CompactionData => data += 1,
                            BarrierCause::CompactionManifest => manifest += 1,
                            // Flushes run on their own thread and foreground
                            // WAL syncs on the writers', so their barriers
                            // may interleave into the window; they carry
                            // their own causes and are not this compaction's
                            // cost.
                            _ => {}
                        }
                    }
                }
                assert_eq!(
                    manifest, 1,
                    "compaction #{id}: exactly one MANIFEST barrier"
                );
                if *rewrote {
                    assert_eq!(
                        data, 1,
                        "rewrite compaction #{id}: exactly one compaction-file barrier"
                    );
                    rewrites += 1;
                } else {
                    assert_eq!(
                        data, 0,
                        "settled/move-only compaction #{id} must not pay a data barrier"
                    );
                    if *settled > 0 {
                        settled_only += 1;
                    }
                }
            }
            _ => {}
        }
    }
    assert!(rewrites >= 1, "workload produced no rewrite compaction");
    assert!(
        settled_only >= 1,
        "workload produced no settled-only compaction; stream: {} events",
        events.len()
    );
    assert!(
        db.stats().settled_moves() > 0,
        "stats agree settling happened"
    );

    // Every flush that began also ended, with one data + one manifest
    // barrier of its own in between.
    let mut flush_begin: HashMap<u64, usize> = HashMap::new();
    let mut flushes = 0u32;
    for (idx, ev) in events.iter().enumerate() {
        match &ev.event {
            EngineEvent::FlushBegin { id, .. } => {
                flush_begin.insert(*id, idx);
            }
            EngineEvent::FlushEnd { id, .. } => {
                let start = flush_begin[id];
                let data = events[start..=idx]
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.event,
                            EngineEvent::Barrier {
                                cause: BarrierCause::FlushData,
                                ..
                            }
                        )
                    })
                    .count();
                assert_eq!(data, 1, "flush #{id}: exactly one data barrier");
                flushes += 1;
            }
            _ => {}
        }
    }
    assert!(flushes >= 10, "every explicit flush traced");

    // Sequence numbers are unique and strictly increasing across drains.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "trace seq must be monotonic");
    }
}

#[test]
fn metrics_snapshot_agrees_with_raw_counters() {
    let (env, db) = open_traced_db();
    let _ = traced_workload(&db);

    // Quiescent: compact_until_quiet returned and no writes are in flight,
    // so the three reads below observe the same instant.
    let metrics = db.metrics();
    let stats = db.stats().snapshot();
    let io = env.stats().snapshot();

    assert_eq!(metrics.db, stats, "MetricsSnapshot.db mirrors DbStats");
    assert_eq!(metrics.io, io, "MetricsSnapshot.io mirrors env IoStats");
    assert_eq!(
        metrics.total_barriers(),
        io.fsync_calls + io.ordering_barriers,
        "total barriers derive from the device counters"
    );

    // Acceptance: every device barrier carries a cause tag. The per-cause
    // attribution must account for the device totals exactly, with nothing
    // left unattributed.
    let by_cause: u64 = metrics.barriers_by_cause.iter().map(|(_, n)| n).sum();
    assert_eq!(
        by_cause,
        metrics.total_barriers(),
        "cause attribution must cover every device barrier"
    );
    assert_eq!(
        metrics.barrier_count(BarrierCause::Unattributed),
        0,
        "no barrier may reach the device without a cause tag"
    );
    assert!(
        metrics.barrier_count(BarrierCause::CompactionManifest) >= 1,
        "compactions committed through the MANIFEST"
    );

    // Derived ratio is consistent with its inputs.
    let expected = (metrics.barrier_count(BarrierCause::CompactionData)
        + metrics.barrier_count(BarrierCause::CompactionManifest)) as f64
        / stats.compactions.max(1) as f64;
    assert!(
        (metrics.barriers_per_compaction() - expected).abs() < 1e-9,
        "barriers/compaction {} vs recomputed {}",
        metrics.barriers_per_compaction(),
        expected
    );
}

/// A MANIFEST-sync EIO absorbed by a self-healing re-cut (O5) must show up
/// in the trace: a `ManifestRecut` event, barriers cause-tagged
/// `manifest_recut` (the snapshot sync and the re-appended edit's sync),
/// still zero unattributed barriers — and every drained line must validate
/// against the checked-in trace schema.
#[test]
fn manifest_recut_is_traced_and_schema_valid() {
    use bolt_env::{FaultEnv, FaultPlan};

    let fault = FaultEnv::over_mem();
    let env: Arc<dyn Env> = Arc::new(fault.clone());
    let mut opts = Options::bolt().scaled(1.0 / 256.0);
    opts.level0_compaction_trigger = 2;
    let db = Db::open(Arc::clone(&env), "recut-db", opts).expect("open");

    for i in 0..400u32 {
        db.put(format!("key{i:05}").as_bytes(), &[b'z'; 100])
            .expect("put");
    }
    fault.extend_plan(FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").expect("plan"));
    db.flush().expect("flush self-heals via a re-cut");
    let events = db.events();
    let metrics = db.metrics();
    assert_eq!(metrics.manifest_recuts, 1, "the re-cut reached the metrics");
    assert!(
        metrics.barrier_count(BarrierCause::ManifestRecut) >= 2,
        "snapshot sync + re-appended edit sync both carry the re-cut cause"
    );
    assert_eq!(
        metrics.barrier_count(BarrierCause::Unattributed),
        0,
        "the re-cut path leaks no unattributed barrier"
    );

    let (abandoned, new_manifest) = events
        .iter()
        .find_map(|e| match &e.event {
            EngineEvent::ManifestRecut {
                abandoned,
                new_manifest,
                ..
            } => Some((*abandoned, *new_manifest)),
            _ => None,
        })
        .expect("ManifestRecut event in the stream");
    assert!(
        new_manifest > abandoned,
        "fresh MANIFEST {new_manifest} must postdate abandoned {abandoned}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            EngineEvent::Barrier {
                cause: BarrierCause::ManifestRecut,
                ..
            }
        )),
        "a manifest_recut-tagged barrier rides in the stream"
    );

    // Every drained event serializes to a schema-valid trace line.
    let mut lines = String::new();
    for e in &events {
        lines.push_str(&e.to_json());
        lines.push('\n');
    }
    let schema = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/trace.schema.json"
    ))
    .expect("schema");
    let checked = bolt_tools::validate_trace_lines(&lines, &schema).expect("schema-valid stream");
    assert!(checked > 0, "validated {checked} lines");
    db.close().expect("close");
}
