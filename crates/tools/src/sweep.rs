//! The fault-sweep driver.
//!
//! One engine, run over a named preset's scenario (`sweep_scenario.rs`:
//! options, a `Db` or `ShardedDb` target, workload phases, labelled
//! invariants):
//!
//! 1. **record** the workload once over a [`FaultEnv`], keeping the op
//!    trace and the phase markers;
//! 2. **select** crash points — every metadata op plus its successor, a
//!    sample of torn appends — and **force** every op inside every
//!    `*-arm` / `*-done` marker window (the re-cut, checkpoint and 2PC
//!    commit windows) plus, under value separation, every value-log op;
//! 3. **crash** the replayed workload at each point, power-cycle with a torn
//!    tail, reopen and check the scenario's invariants;
//! 4. **EIO**: fail selected sync ordinals instead — an injected fault must
//!    be seen by a caller or absorbed by a MANIFEST re-cut, and the
//!    invariants must hold after a clean power-cycle;
//! 5. **double crash**: crash again inside the recovery of a first crash
//!    and require the third open to restore a consistent state;
//! 6. **coverage**: fail unless the sweep reached what its preset exists to
//!    cover (`check_coverage`).
//!
//! The invariants (DESIGN.md §9, §12, §14, §15), by their single-engine /
//! cross-shard labels:
//!
//! * **I1 / A2 — acked durability**: every write acknowledged with
//!   `sync = true`, as a 2PC commit, or before a completed flush survives.
//! * **I2 / A1 — atomicity**: a batch (a two-key pair, or a cross-shard
//!   group) is visible in full or not at all.
//! * **I3 / A3 — integrity**: every recovered MANIFEST references only
//!   logical SSTables whose bytes are present and checksum-clean.
//! * **I4 / A4 — idempotent re-recovery**: closing and reopening the
//!   recovered database yields the identical key space.
//! * **I5 — range-tombstone durability**: once the tombstone is durable,
//!   covered keys stay gone (unless durably reborn); uncovered keys and
//!   not-yet-deleted keys read back their exact durable values.
//! * **V1 — no dangling pointers** (the `vlog` preset): every key readable after
//!   recovery resolves to its full value; `get` and the full scan resolve
//!   every stored pointer, so a pointer into missing, truncated or punched
//!   value-log bytes surfaces as a `Corruption` error and is reported.
//! * **C1 — checkpoint atomicity** (every single-engine preset): an *acked*
//!   checkpoint directory opens cleanly and scans byte-identical to the
//!   pinned snapshot; an unacked one either lacks `CURRENT` (ignorable
//!   garbage) or opens cleanly.
//!
//! Invariant violations are *collected*, not thrown, so one sweep reports
//! every broken fault point at once.

use std::collections::BTreeMap;

use bolt_common::{Error, Result};
use bolt_core::{CompactionPolicyKind, MetricsSnapshot};
use bolt_env::{CrashConfig, FaultEnv, FaultPlan, OpKind, OpRecord};

use crate::sweep_scenario::{check_invariants, run_workload, Model, RdPhase, Scenario, Target};

/// Upper bound on force-included points inside marker windows (thinned
/// evenly beyond it; only the sharded scenario's twelve 2PC windows are
/// large enough to reach it).
const MAX_WINDOW_POINTS: usize = 144;

/// Torn-tail seed of a sweep given none (`bolt-tool crash-sweep [PRESET]`).
pub const DEFAULT_SEED: u64 = 0xB017;
/// Sync ordinals failed with `EIO`, spread evenly over the record run.
const EIO_POINTS: usize = 16;
/// Double-crash pairs: this many workload crash points, each crashed again
/// at this many ops of the recovery from it.
const DOUBLE_CRASH_FIRSTS: usize = 4;
const DOUBLE_CRASH_SECONDS: usize = 5;

/// Everything a sweep learned.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The preset swept.
    pub preset: &'static str,
    /// Ops counted in the record run.
    pub ops_recorded: u64,
    /// Sync/ordering barriers counted in the record run.
    pub syncs_recorded: u64,
    /// Phase markers from the record run, as `(op_index, label)`.
    pub phases: Vec<(u64, String)>,
    /// `[arm, done)` op-index windows bounded by `*-arm` / `*-done` marker
    /// pairs; every op inside is a forced crash point.
    pub windows: Vec<(u64, u64)>,
    /// Crash points actually exercised (op indices).
    pub crash_points: Vec<u64>,
    /// How many exercised crash points fell inside a window.
    pub window_points: usize,
    /// Sync ordinals exercised with injected `EIO`.
    pub eio_points: Vec<u64>,
    /// Double-crash pairs exercised, as `(workload op, recovery op)`: the
    /// first crash interrupts the workload, the second interrupts the
    /// reopen recovering from it.
    pub double_crash_points: Vec<(u64, u64)>,
    /// The record run's target metrics, snapshotted after close.
    pub metrics: MetricsSnapshot,
    /// Cross-shard commits the record run acknowledged.
    pub cross_shard_txns: u64,
    /// Human-readable invariant violations (empty on a clean sweep).
    pub violations: Vec<String>,
}

/// Pick crash points from a recorded trace: every metadata op (create,
/// sync, barrier, rename, delete, punch) plus its successor, plus evenly
/// sampled appends (exercised as *torn* appends). Returns
/// `(op_index, torn_keep)` pairs, evenly thinned to `max`.
fn select_crash_points(trace: &[OpRecord], max: usize) -> Vec<(u64, u64)> {
    let total = trace.len() as u64;
    let mut points: BTreeMap<u64, u64> = BTreeMap::new();
    for record in trace {
        if record.kind != OpKind::Append {
            points.entry(record.index).or_insert(0);
            if record.index + 1 < total {
                points.entry(record.index + 1).or_insert(0);
            }
        }
    }
    // Torn-append sampling: every `stride`-th append crashes mid-payload.
    let appends: Vec<&OpRecord> = trace
        .iter()
        .filter(|r| r.kind == OpKind::Append && r.bytes >= 2)
        .collect();
    let stride = (appends.len() / (max / 4).max(1)).max(1);
    for record in appends.iter().step_by(stride) {
        points.entry(record.index).or_insert(record.bytes / 2);
    }
    let points: Vec<(u64, u64)> = points.into_iter().collect();
    if points.len() > max {
        // Thin evenly so coverage still spans the whole trace.
        let len = points.len();
        (0..max).map(|i| points[i * len / max]).collect()
    } else {
        points
    }
}

/// Every `[arm, done)` op-index window bounded by an `X-arm` / `X-done`
/// marker pair of the record run.
fn marker_windows(phases: &[(u64, String)]) -> Vec<(u64, u64)> {
    phases
        .iter()
        .filter_map(|(arm, label)| {
            let done = format!("{}-done", label.strip_suffix("-arm")?);
            let (end, _) = phases.iter().find(|(_, l)| *l == done)?;
            Some((*arm, *end))
        })
        .collect()
}

/// Force crash points into the sampled set, keeping it sorted and
/// deduplicated: every op inside a marker window (appends as torn appends)
/// — each is an intermediate state the window's protocol must survive: the
/// torn old MANIFEST, unswung CURRENT and not-yet-re-appended edit of a
/// re-cut; each link, manifest write and the publishing rename of a
/// checkpoint; the prepares of a 2PC commit's one round, in whatever order
/// its threads issue them, and its applies. Under value separation, also every
/// value-log metadata op (create, sync/barrier, punch, delete) plus its
/// successor — these bound the append-barrier-ack and punch windows of the
/// §14 contract — and a torn sample of the (far more numerous) value
/// appends.
fn force_points(
    sampled: Vec<(u64, u64)>,
    trace: &[OpRecord],
    windows: &[(u64, u64)],
    sc: &Scenario,
) -> Vec<(u64, u64)> {
    let mut merged: BTreeMap<u64, u64> = sampled.into_iter().collect();
    let torn = |r: &OpRecord| {
        if r.kind == OpKind::Append {
            r.bytes / 2
        } else {
            0
        }
    };
    let window_ops: Vec<&OpRecord> = trace
        .iter()
        .filter(|r| in_windows(windows, r.index))
        .collect();
    let forced = window_ops.len().min(MAX_WINDOW_POINTS);
    for i in 0..forced {
        let record = window_ops[i * window_ops.len() / forced];
        merged.insert(record.index, torn(record));
    }
    if sc.opts.value_separation_threshold.is_some() {
        let vlog_ops = || trace.iter().filter(|r| r.path.ends_with(".vlog"));
        let appends: Vec<&OpRecord> = vlog_ops()
            .filter(|r| r.kind == OpKind::Append && r.bytes >= 2)
            .collect();
        for record in appends.iter().step_by((appends.len() / 16).max(1)) {
            merged.entry(record.index).or_insert(torn(record));
        }
        for record in vlog_ops().filter(|r| r.kind != OpKind::Append) {
            merged.entry(record.index).or_insert(0);
            if record.index + 1 < trace.len() as u64 {
                merged.entry(record.index + 1).or_insert(0);
            }
        }
    }
    merged.into_iter().collect()
}

fn in_windows(windows: &[(u64, u64)], op: u64) -> bool {
    windows.iter().any(|&(arm, done)| op >= arm && op < done)
}

/// Run the workload to a crash at op `k` (torn-keeping `keep` append
/// bytes), power-cycle with a torn tail, and return the env holding the
/// surviving filesystem plus the workload's acked/durable model.
fn crash_replay(seed: u64, sc: &Scenario, k: u64, keep: u64) -> (FaultEnv, Model) {
    let env = FaultEnv::over_mem();
    // (`torn=0` is a plain crash.)
    env.set_plan(clause(&format!("torn={keep}:any:glob=*:nth={k}")));
    let replay = run_workload(&env, sc);
    env.crash_inner(CrashConfig::TornTail {
        seed: seed ^ k.wrapping_mul(0x9E37_79B9),
    });
    env.reset();
    (env, replay)
}

/// A plan of one well-formed clause.
fn clause(text: &str) -> FaultPlan {
    FaultPlan::parse(text).expect("well-formed clause")
}

/// Run `f`, turning a panic (e.g. a violated `debug_assert` while
/// rebuilding a version) into its message instead of killing the sweep.
fn catch_panic<T>(f: impl FnOnce() -> T) -> std::result::Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic")
            .to_string()
    })
}

/// [`check_invariants`], with a panic anywhere in recovery recorded as an
/// invariant violation.
fn checked_invariants(
    env: &FaultEnv,
    sc: &Scenario,
    model: &Model,
    point: &str,
    violations: &mut Vec<String>,
) {
    let result = catch_panic(|| {
        let mut local = Vec::new();
        check_invariants(env, sc, model, point, &mut local);
        local
    });
    match result {
        Ok(local) => violations.extend(local),
        Err(msg) => violations.push(format!("{point}: recovery panicked: {msg}")),
    }
}

/// Open (and close) the database, tolerating errors — the plan may crash
/// the env mid-recovery. Returns `false` if the attempt panicked.
fn attempt_open(env: &FaultEnv, sc: &Scenario) -> bool {
    catch_panic(|| {
        if let Ok(db) = Target::open(env, "db", sc) {
            let _ = db.close();
        }
    })
    .is_ok()
}

/// The sweep must have exercised what its preset exists to cover — keyed on
/// the preset's target and options, never on its phase list, so a workload
/// that loses a phase fails here. Every unmet demand is named in the error.
fn check_coverage(sc: &Scenario, record: &Model, out: &SweepOutcome) -> Result<()> {
    let db = &out.metrics.db;
    let mut unmet: Vec<String> = Vec::new();
    macro_rules! demand {
        ($met:expr, $($why:tt)+) => {
            if !$met {
                unmet.push(format!($($why)+));
            }
        };
    }
    let errors = record.errors;
    demand!(errors == 0, "record run saw {errors} errors");
    let points = out.crash_points.len();
    demand!(points >= 30, "{points} crash points, want >= 30");
    let distinct = out.crash_points.windows(2).all(|w| w[0] < w[1]);
    demand!(distinct, "a crash point was swept twice");
    demand!(!out.eio_points.is_empty(), "no EIO-on-sync point");
    demand!(!out.double_crash_points.is_empty(), "no double-crash pair");
    demand!(db.flushes > 0, "no flush");
    if sc.preset.sharded {
        let (windows, txns) = (out.windows.len(), out.cross_shard_txns);
        demand!(
            windows as u64 == txns,
            "{windows} windows for {txns} commits"
        );
        demand!(txns >= 10, "{txns} cross-shard commits, want >= 10");
        let n = out.window_points;
        demand!(n >= 50, "{n} crash points in commit windows, want >= 50");
    } else {
        demand!(db.compactions > 0, "no compaction");
        // The hole-punch phase keeps flanking tables live in the file whose
        // middle dies, so GC must punch; tiered policies rewrite the flanks.
        if sc.opts.compaction_policy == CompactionPolicyKind::Leveled {
            demand!(db.settled_moves > 0, "no settled (MANIFEST-only) move");
            let holes = record.phase_holes;
            demand!(holes > 0, "the hole-punch phase punched {holes} holes");
        }
        let rd = record.rd;
        demand!(rd == RdPhase::RebirthDurable, "range delete reached {rd:?}");
        demand!(db.range_deletes > 0, "no range tombstone");
        let recuts = out.metrics.manifest_recuts;
        demand!(recuts > 0, "no re-cut absorbed the armed MANIFEST EIO");
        let ckpts = db.checkpoints;
        demand!(record.ckpt_acked && ckpts > 0, "no checkpoint acked");
        if sc.opts.value_separation_threshold.is_some() {
            demand!(db.vlog_values_separated > 0, "no value separated");
            demand!(db.vlog_segments_retired > 0, "no value-log segment retired");
        }
        for label in ["recut", "ckpt"] {
            let arm = (out.phases.iter()).find(|(_, l)| *l == format!("{label}-arm"));
            let window = arm.and_then(|(at, _)| out.windows.iter().find(|w| w.0 == *at));
            let inside = |k: &&u64| window.is_some_and(|&w| in_windows(&[w], **k));
            let n = out.crash_points.iter().filter(inside).count();
            demand!(n >= 5, "{n} crash points in the {label} window, want >= 5");
        }
    }
    if unmet.is_empty() {
        return Ok(());
    }
    let (name, unmet) = (sc.preset.name, unmet.join("; "));
    Err(Error::InvalidState(format!("{name} coverage: {unmet}")))
}

/// Record the scenario's workload once, then sweep crash points, `EIO`
/// injections and double crashes over it.
///
/// Deterministic for a given scenario and seed: the workload is fixed, torn
/// tails derive from `seed`, and the invariants hold at *any* op cut, so
/// background-thread interleaving cannot flip a verdict.
///
/// # Errors
///
/// Returns an error only if the sweep missed its preset's coverage (see
/// `check_coverage`); invariant violations are reported in
/// [`SweepOutcome::violations`].
pub fn run_crash_sweep(sc: &Scenario, seed: u64) -> Result<SweepOutcome> {
    // Phase 1: record.
    let env = FaultEnv::over_mem();
    env.start_recording();
    let record = run_workload(&env, sc);
    let trace = env.stop_recording();
    let phases = env.markers();
    let windows = marker_windows(&phases);
    let syncs_recorded = (trace.iter())
        .filter(|r| matches!(r.kind, OpKind::Sync | OpKind::OrderingBarrier))
        .count() as u64;

    // Phase 2: crash-point sweep.
    let sampled = select_crash_points(&trace, sc.preset.sampled_points);
    let points = force_points(sampled, &trace, &windows, sc);
    let mut violations = Vec::new();
    for &(k, keep) in &points {
        let (env, replay) = crash_replay(seed, sc, k, keep);
        let torn = if keep > 0 { " (torn)" } else { "" };
        let window = if in_windows(&windows, k) {
            " [window]"
        } else {
            ""
        };
        let point = format!("crash@op{k}{torn}{window}");
        checked_invariants(&env, sc, &replay, &point, &mut violations);
    }

    // Phase 3: EIO-on-sync sweep — injected errors must never be swallowed.
    let mut eio_points = Vec::new();
    let eio_count = (syncs_recorded as usize).min(EIO_POINTS);
    for i in 0..eio_count {
        let n = i as u64 * syncs_recorded / eio_count as u64;
        let env = FaultEnv::over_mem();
        env.set_plan(clause(&format!("eio:sync:glob=*:nth={n}")));
        let replay = run_workload(&env, sc);
        let point = format!("eio@sync{n}");
        // Every injected fault must be accounted for: either a caller saw
        // an error, or a self-healing re-cut absorbed it (the workload's
        // own armed MANIFEST EIO is always absorbed when healthy).
        let injected = env.faults_injected();
        let recuts = replay.metrics.manifest_recuts;
        if injected > 0 && replay.errors == 0 && recuts < injected {
            violations.push(format!(
                "{point}: injected EIO was swallowed ({recuts} re-cut(s) for {injected} fault(s), \
                 no caller observed an error)"
            ));
        }
        // The EIO may have poisoned the database; a crash right after must
        // still recover to a consistent state.
        env.crash_inner(CrashConfig::Clean);
        env.reset();
        checked_invariants(&env, sc, &replay, &point, &mut violations);
        eio_points.push(n);
    }

    // Phase 4: double-crash sweep — crash the workload at op `k`, then
    // crash *recovery itself* at op `j` of the reopen, and require the
    // third open to restore a consistent state. Each `(k, j)` pair rebuilds
    // the post-first-crash filesystem from scratch so the second crash
    // always lands on identical bytes.
    let mut double_crash_points = Vec::new();
    let stride = (points.len() / DOUBLE_CRASH_FIRSTS).max(1);
    for &(k, keep) in points.iter().step_by(stride).take(DOUBLE_CRASH_FIRSTS) {
        // Probe: how many ops does recovering from this crash perform?
        let (env, _) = crash_replay(seed, sc, k, keep);
        attempt_open(&env, sc);
        let recovery_ops = env.op_count();
        let seconds = DOUBLE_CRASH_SECONDS.min(recovery_ops as usize);
        for i in 0..seconds {
            let j = i as u64 * recovery_ops / seconds as u64;
            let (env, replay) = crash_replay(seed, sc, k, keep);
            env.set_plan(clause(&format!("crash:any:glob=*:nth={j}")));
            let point = format!("crash@op{k}+recovery-crash@op{j}");
            if !attempt_open(&env, sc) {
                violations.push(format!("{point}: interrupted recovery panicked"));
            }
            env.crash_inner(CrashConfig::TornTail {
                seed: seed ^ k.wrapping_mul(0x9E37_79B9) ^ j.wrapping_mul(0x517C_C1B7),
            });
            env.reset();
            checked_invariants(&env, sc, &replay, &point, &mut violations);
            double_crash_points.push((k, j));
        }
    }

    let crash_points: Vec<u64> = points.iter().map(|&(k, _)| k).collect();
    let outcome = SweepOutcome {
        preset: sc.preset.name,
        ops_recorded: env.op_count(),
        syncs_recorded,
        phases,
        window_points: crash_points
            .iter()
            .filter(|&&k| in_windows(&windows, k))
            .count(),
        windows,
        crash_points,
        eio_points,
        double_crash_points,
        metrics: record.metrics.clone(),
        cross_shard_txns: record.cross_shard_txns,
        violations,
    };
    check_coverage(sc, &record, &outcome)?;
    Ok(outcome)
}

/// Render a sweep outcome for the CLI.
pub fn render_report(outcome: &SweepOutcome) -> String {
    let c = &outcome.metrics.db;
    let mut lines = vec![format!(
        "{}: recorded {} ops ({} syncs/barriers) under policy {} across phases:",
        outcome.preset, outcome.ops_recorded, outcome.syncs_recorded, outcome.metrics.policy
    )];
    lines.extend(
        outcome
            .phases
            .iter()
            .map(|(at, label)| format!("  op {at:>5}  {label}")),
    );
    lines.push(format!(
        "coverage: {} flushes, {} compactions, {} settled moves, {} holes punched, \
         {} manifest re-cuts, {} range deletes, {} checkpoints, {} values separated, \
         {} vlog segments retired, {} cross-shard commits",
        c.flushes,
        c.compactions,
        c.settled_moves,
        outcome.metrics.io.holes_punched,
        outcome.metrics.manifest_recuts,
        c.range_deletes,
        c.checkpoints,
        c.vlog_values_separated,
        c.vlog_segments_retired,
        outcome.cross_shard_txns
    ));
    lines.push(format!(
        "swept {} crash points ({} inside {} forced windows) + {} EIO points + {} double-crash pairs",
        outcome.crash_points.len(),
        outcome.window_points,
        outcome.windows.len(),
        outcome.eio_points.len(),
        outcome.double_crash_points.len()
    ));
    if outcome.violations.is_empty() {
        lines.push("ok: all recovery invariants held".to_string());
    } else {
        lines.push(format!("{} VIOLATION(S):", outcome.violations.len()));
        lines.extend(outcome.violations.iter().map(|v| format!("  {v}")));
    }
    lines.join("\n") + "\n"
}
