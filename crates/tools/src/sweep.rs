//! The fault-sweep driver.
//!
//! One engine, run over a scenario (`sweep_scenario.rs`: options, a `Db` or
//! `ShardedDb` target, workload phases, labelled invariants):
//!
//! 1. **record** the workload once over a [`FaultEnv`], keeping the op
//!    trace and the phase markers;
//! 2. **select** crash points — every metadata op plus its successor, a
//!    sample of torn appends — and **force** every op inside every
//!    `*-arm` / `*-done` marker window (the re-cut, checkpoint and 2PC
//!    commit windows) plus, in vlog mode, every value-log op;
//! 3. **crash** the replayed workload at each point, power-cycle with a torn
//!    tail, reopen and check the scenario's invariants;
//! 4. **EIO**: fail selected sync ordinals instead — an injected fault must
//!    be seen by a caller or absorbed by a MANIFEST re-cut, and the
//!    invariants must hold after a clean power-cycle;
//! 5. **double crash**: crash again inside the recovery of a first crash
//!    and require the third open to restore a consistent state.
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
//! * **V1 — no dangling pointers** (vlog mode): every key readable after
//!   recovery resolves to its full value; `get` and the full scan resolve
//!   every stored pointer, so a pointer into missing, truncated or punched
//!   value-log bytes surfaces as a `Corruption` error and is reported.
//! * **C1 — checkpoint atomicity** (checkpoint mode): an *acked*
//!   checkpoint directory opens cleanly and scans byte-identical to the
//!   pinned snapshot; an unacked one either lacks `CURRENT` (ignorable
//!   garbage) or opens cleanly.
//!
//! Invariant violations are *collected*, not thrown, so one sweep reports
//! every broken fault point at once.

use std::collections::BTreeMap;

use bolt_common::{Error, Result};
use bolt_core::CompactionPolicyKind;
use bolt_env::{CrashConfig, FaultEnv, FaultPlan, OpKind, OpRecord};

use crate::sweep_scenario::{check_invariants, run_workload, Model, RdPhase, Scenario, Target};

/// Upper bound on force-included points inside marker windows (thinned
/// evenly beyond it; only the sharded scenario's twelve 2PC windows are
/// large enough to reach it).
const MAX_WINDOW_POINTS: usize = 144;

/// Sweep tuning knobs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base seed for torn-tail crash randomness (the sweep itself is
    /// deterministic given the seed).
    pub seed: u64,
    /// Upper bound on *sampled* crash points (forced windows come on top).
    pub max_crash_points: usize,
    /// Upper bound on `EIO`-on-sync points.
    pub max_eio_points: usize,
    /// Workload crash points re-used as the *first* crash of a
    /// double-crash pair (0 disables the double-crash phase).
    pub max_double_crash_first: usize,
    /// Recovery-replay ops crashed per first crash point (the *second*
    /// crash, landing inside the reopen).
    pub max_double_crash_second: usize,
    /// Compaction policy the swept database runs. The recovery invariants
    /// must hold regardless of how victims are picked.
    pub policy: CompactionPolicyKind,
    /// Run the workload under WAL-time value separation and force-cover
    /// every `.vlog` op (appends torn) as a crash point.
    pub vlog: bool,
    /// End the workload with an online `Db::checkpoint` into `ckpt/`,
    /// force-cover every op inside the checkpoint window, and check
    /// invariant C1 after each fault.
    pub checkpoint: bool,
    /// Sweep a three-shard `ShardedDb` whose every group write is a
    /// cross-shard 2PC commit, force-covering every commit window.
    pub sharded: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0xB017,
            max_crash_points: 72,
            max_eio_points: 16,
            max_double_crash_first: 4,
            max_double_crash_second: 5,
            policy: CompactionPolicyKind::Leveled,
            vlog: false,
            checkpoint: false,
            sharded: false,
        }
    }
}

impl SweepConfig {
    /// Defaults of the sharded leg: its 2PC windows are force-covered, so
    /// fewer sampled points are needed around them.
    pub fn for_sharded() -> Self {
        SweepConfig {
            seed: 0x2B0C,
            max_crash_points: 36,
            sharded: true,
            ..SweepConfig::default()
        }
    }
}

/// Workload phase coverage observed during the record run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCoverage {
    /// MemTable flushes completed.
    pub flushes: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Settled (MANIFEST-only) promotions.
    pub settled_moves: u64,
    /// Holes punched reclaiming dead logical SSTables.
    pub holes_punched: u64,
    /// Self-healing MANIFEST re-cuts (O5) that absorbed an injected fault.
    pub recuts: u64,
    /// Values routed to the value log (vlog mode only).
    pub vlog_separated: u64,
    /// Value-log segments retired whole by compaction (vlog mode only).
    pub vlog_retired: u64,
    /// Ranged tombstones written by the range-delete phase.
    pub range_deletes: u64,
    /// Online checkpoints completed (checkpoint mode only).
    pub checkpoints: u64,
    /// Cross-shard 2PC commits acknowledged (sharded mode only).
    pub cross_shard_txns: u64,
}

/// Everything a sweep learned.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Compaction policy the sweep ran under.
    pub policy: CompactionPolicyKind,
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
    /// Coverage counters from the record run.
    pub coverage: SweepCoverage,
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
/// its threads issue them, and its applies. With `vlog`, also every
/// value-log metadata op (create, sync/barrier, punch, delete) plus its
/// successor — these bound the append-barrier-ack and punch windows of the
/// §14 contract — and a torn sample of the (far more numerous) value
/// appends.
fn force_points(
    sampled: Vec<(u64, u64)>,
    trace: &[OpRecord],
    windows: &[(u64, u64)],
    vlog: bool,
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
    if vlog {
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
fn crash_replay(cfg: &SweepConfig, sc: &Scenario, k: u64, keep: u64) -> (FaultEnv, Model) {
    let env = FaultEnv::over_mem();
    // (`torn=0` is a plain crash.)
    env.set_plan(clause(&format!("torn={keep}:any:glob=*:nth={k}")));
    let replay = run_workload(&env, sc);
    env.crash_inner(CrashConfig::TornTail {
        seed: cfg.seed ^ k.wrapping_mul(0x9E37_79B9),
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

/// The record run must have exercised what the leg exists to cover.
fn check_coverage(cfg: &SweepConfig, sc: &Scenario, record: &Model, windows: usize) -> Result<()> {
    let c = record.stats;
    let problem = if record.errors > 0 {
        format!("record run saw {} unexpected errors", record.errors)
    } else if cfg.vlog && (c.vlog_separated == 0 || c.vlog_retired == 0) {
        format!(
            "vlog sweep did not exercise value separation ({} separated, {} segments retired)",
            c.vlog_separated, c.vlog_retired
        )
    } else if sc.contract.range_delete.is_some()
        && (record.rd != RdPhase::RebirthDurable || c.range_deletes == 0)
    {
        format!(
            "sweep did not exercise the range-delete phase (reached {:?}, {} tombstones)",
            record.rd, c.range_deletes
        )
    } else if cfg.checkpoint && (!record.ckpt_acked || c.checkpoints == 0) {
        "checkpoint sweep did not complete its checkpoint".to_string()
    } else if sc.sharded() && (windows == 0 || windows as u64 != c.cross_shard_txns) {
        format!(
            "record run marked {windows} 2PC windows for {} commits",
            c.cross_shard_txns
        )
    } else {
        return Ok(());
    };
    Err(Error::io(problem))
}

/// Record the scenario's workload once, then sweep crash points, `EIO`
/// injections and double crashes over it.
///
/// Deterministic for a given [`SweepConfig`]: the workload is fixed, torn
/// tails derive from `cfg.seed`, and the invariants hold at *any* op cut,
/// so background-thread interleaving cannot flip a verdict.
///
/// # Errors
///
/// Returns an error only if the harness itself cannot run (an unsupported
/// leg combination, or a record run that fails or misses its coverage);
/// invariant violations are reported in [`SweepOutcome::violations`].
pub fn run_crash_sweep(cfg: &SweepConfig) -> Result<SweepOutcome> {
    let sc = &Scenario::new(cfg)?;

    // Phase 1: record.
    let env = FaultEnv::over_mem();
    env.start_recording();
    let record = run_workload(&env, sc);
    let trace = env.stop_recording();
    let phases = env.markers();
    let windows = marker_windows(&phases);
    check_coverage(cfg, sc, &record, windows.len())?;
    let syncs_recorded = (trace.iter())
        .filter(|r| matches!(r.kind, OpKind::Sync | OpKind::OrderingBarrier))
        .count() as u64;

    // Phase 2: crash-point sweep.
    let sampled = select_crash_points(&trace, cfg.max_crash_points);
    let points = force_points(sampled, &trace, &windows, cfg.vlog);
    let mut violations = Vec::new();
    for &(k, keep) in &points {
        let (env, replay) = crash_replay(cfg, sc, k, keep);
        let point = format!(
            "crash@op{k}{}{}",
            if keep > 0 { " (torn)" } else { "" },
            if in_windows(&windows, k) {
                " [window]"
            } else {
                ""
            }
        );
        checked_invariants(&env, sc, &replay, &point, &mut violations);
    }

    // Phase 3: EIO-on-sync sweep — injected errors must never be swallowed.
    let mut eio_points = Vec::new();
    let eio_count = (syncs_recorded as usize).min(cfg.max_eio_points.max(1));
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
        if injected > 0 && replay.errors == 0 && replay.stats.recuts < injected {
            violations.push(format!(
                "{point}: injected EIO was swallowed ({} re-cut(s) for {injected} fault(s), \
                 no caller observed an error)",
                replay.stats.recuts
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
    let firsts = cfg.max_double_crash_first;
    if firsts > 0 && cfg.max_double_crash_second > 0 {
        let stride = (points.len() / firsts).max(1);
        for &(k, keep) in points.iter().step_by(stride).take(firsts) {
            // Probe: how many ops does recovering from this crash perform?
            let (env, _) = crash_replay(cfg, sc, k, keep);
            attempt_open(&env, sc);
            let recovery_ops = env.op_count();
            let seconds = cfg.max_double_crash_second.min(recovery_ops as usize);
            for i in 0..seconds {
                let j = i as u64 * recovery_ops / seconds as u64;
                let (env, replay) = crash_replay(cfg, sc, k, keep);
                env.set_plan(clause(&format!("crash:any:glob=*:nth={j}")));
                let point = format!("crash@op{k}+recovery-crash@op{j}");
                if !attempt_open(&env, sc) {
                    violations.push(format!("{point}: interrupted recovery panicked"));
                }
                env.crash_inner(CrashConfig::TornTail {
                    seed: cfg.seed ^ k.wrapping_mul(0x9E37_79B9) ^ j.wrapping_mul(0x517C_C1B7),
                });
                env.reset();
                checked_invariants(&env, sc, &replay, &point, &mut violations);
                double_crash_points.push((k, j));
            }
        }
    }

    let crash_points: Vec<u64> = points.iter().map(|&(k, _)| k).collect();
    Ok(SweepOutcome {
        policy: cfg.policy,
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
        coverage: record.stats,
        violations,
    })
}

/// Render a sweep outcome for the CLI.
pub fn render_report(outcome: &SweepOutcome) -> String {
    let c = outcome.coverage;
    let mut lines = vec![format!(
        "recorded {} ops ({} syncs/barriers) under policy {} across phases:",
        outcome.ops_recorded,
        outcome.syncs_recorded,
        outcome.policy.as_str()
    )];
    lines.extend(
        outcome
            .phases
            .iter()
            .map(|(at, label)| format!("  op {at:>5}  {label}")),
    );
    lines.push(format!(
        "coverage: {} flushes, {} compactions, {} settled moves, {} holes punched, \
         {} manifest re-cuts, {} range deletes",
        c.flushes, c.compactions, c.settled_moves, c.holes_punched, c.recuts, c.range_deletes
    ));
    if c.checkpoints > 0 {
        lines.push(format!(
            "checkpoint coverage: {} online checkpoint(s)",
            c.checkpoints
        ));
    }
    if c.vlog_separated > 0 {
        lines.push(format!(
            "vlog coverage: {} values separated, {} segments retired",
            c.vlog_separated, c.vlog_retired
        ));
    }
    if c.cross_shard_txns > 0 {
        lines.push(format!(
            "2PC coverage: {} cross-shard commits",
            c.cross_shard_txns
        ));
    }
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
