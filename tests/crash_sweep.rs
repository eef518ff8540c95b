//! Acceptance test for the crash-point sweep harness.
//!
//! Runs the full sweep from `bolt-tools` under the default fixed seed and
//! asserts the DESIGN.md §9 contract: at least 30 distinct crash points are
//! enumerated, they span flushes, group compactions, *and* settled
//! compactions, and every point passes all four recovery invariants.
//!
//! The sweep is deterministic in its *verdicts*: background compaction
//! threads may shift exact op indices between runs, but the invariants are
//! written to hold at any op cut, so a violation here is a real bug, not
//! flakiness. Exact coverage counters (how many compactions the record run
//! happened to complete) can wobble by a few, which is why the assertions
//! below are lower bounds rather than exact values.

use bolt_tools::{run_crash_sweep, SweepConfig};

#[test]
fn sweep_holds_all_recovery_invariants() {
    let cfg = SweepConfig::default();
    let outcome = run_crash_sweep(&cfg).expect("sweep harness must run");

    assert!(
        outcome.crash_points.len() >= 30,
        "expected >= 30 crash points, got {}",
        outcome.crash_points.len()
    );
    assert!(
        !outcome.eio_points.is_empty(),
        "expected EIO-on-sync points, got none"
    );
    // Distinctness: the harness must not test the same op index twice.
    let mut sorted = outcome.crash_points.clone();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        outcome.crash_points.len(),
        "crash points must be distinct"
    );

    // The workload must actually exercise every §9 barrier site.
    let c = outcome.coverage;
    assert!(c.flushes > 0, "workload never flushed");
    assert!(c.compactions > 0, "workload never ran a compaction");
    // The range-delete phase (I5) runs in every leg.
    assert!(c.range_deletes > 0, "workload never issued a delete_range");
    assert!(
        c.settled_moves > 0,
        "workload never performed a settled (MANIFEST-only) promotion"
    );
    // The workload's pinned hole-punch phase keeps flanking logical tables
    // live in the compaction file whose middle dies, so GC *must* reclaim
    // by punching rather than deleting.
    assert!(
        c.holes_punched > 0,
        "workload never punched a hole despite the pinned range"
    );
    assert!(
        !outcome.double_crash_points.is_empty(),
        "expected double-crash (crash-during-recovery) points, got none"
    );

    // Self-healing re-cut phase (O5): the workload arms a MANIFEST-sync
    // EIO and the flush must absorb it via a re-cut without reopening.
    assert!(
        c.recuts > 0,
        "workload's armed MANIFEST EIO was not absorbed by a re-cut"
    );
    let arm = outcome
        .phases
        .iter()
        .find(|(_, l)| l == "recut-arm")
        .map(|&(at, _)| at)
        .expect("record run marked recut-arm");
    let done = outcome
        .phases
        .iter()
        .find(|(_, l)| l == "recut-done")
        .map(|&(at, _)| at)
        .expect("record run marked recut-done");
    assert!(arm < done, "re-cut window is non-empty");
    // Every intermediate state of the re-cut (torn old MANIFEST, unswung
    // CURRENT, not-yet-re-appended edit) must be crash-tested: the sweep
    // force-includes the window's ops as crash points.
    let in_window = outcome
        .crash_points
        .iter()
        .filter(|&&k| k >= arm && k < done)
        .count();
    assert!(
        in_window >= 5,
        "expected >= 5 crash points inside the re-cut window [{arm}, {done}), got {in_window}"
    );

    assert!(
        outcome.violations.is_empty(),
        "recovery invariant violations:\n  {}",
        outcome.violations.join("\n  ")
    );
}

#[test]
fn sharded_2pc_sweep_recovers_all_or_nothing() {
    // Cross-shard `write_batch` crash sweep (DESIGN.md §12): crashes are
    // force-included at every op inside every recorded 2PC window — after
    // the first shard's synced prepare, around the TXNLOG decide record,
    // and mid-apply — and each one must recover all-or-nothing on every
    // shard.
    let cfg = SweepConfig::for_sharded();
    let outcome = run_crash_sweep(&cfg).expect("sharded sweep harness must run");

    let cross_shard_txns = outcome.coverage.cross_shard_txns;
    assert!(
        cross_shard_txns >= 10,
        "workload issued too few cross-shard transactions: {cross_shard_txns}"
    );
    assert!(
        outcome.windows.len() as u64 == cross_shard_txns,
        "every cross-shard commit must record its 2PC window: {} windows for {} txns",
        outcome.windows.len(),
        cross_shard_txns
    );
    // The 2PC windows are the point of this sweep: the bulk of the crash
    // points must land inside them, not just around them.
    assert!(
        outcome.window_points >= 50,
        "expected >= 50 crash points inside 2PC windows, got {}",
        outcome.window_points
    );
    // The sharded scenario runs the same driver phases as the single
    // engine: EIO-on-sync and crash-inside-recovery, A1–A4 after each.
    assert!(
        !outcome.eio_points.is_empty(),
        "expected EIO-on-sync points, got none"
    );
    assert!(
        !outcome.double_crash_points.is_empty(),
        "expected double-crash (crash-during-recovery) points, got none"
    );
    assert!(
        outcome.violations.is_empty(),
        "cross-shard atomicity violations:\n  {}",
        outcome.violations.join("\n  ")
    );
}

#[test]
fn sweep_holds_invariants_under_tiered_policies() {
    // I1–I4 are properties of the barrier ordering contract, not of victim
    // selection: they must hold under every shipped compaction policy. The
    // hole-punch coverage assertion stays leveled-only (tiered merges whole
    // levels, so the pinned flanking tables are usually rewritten rather
    // than left to pin the file).
    use bolt::CompactionPolicyKind;
    for policy in [
        CompactionPolicyKind::SizeTiered,
        CompactionPolicyKind::LazyLeveled,
        CompactionPolicyKind::Fragmented,
    ] {
        let cfg = SweepConfig {
            max_crash_points: 36,
            max_eio_points: 8,
            max_double_crash_first: 2,
            max_double_crash_second: 3,
            policy,
            ..SweepConfig::default()
        };
        let outcome = run_crash_sweep(&cfg).expect("sweep harness must run");
        assert!(
            outcome.coverage.flushes > 0,
            "{}: workload never flushed",
            policy.as_str()
        );
        assert!(
            outcome.coverage.compactions > 0,
            "{}: workload never ran a compaction",
            policy.as_str()
        );
        assert!(
            outcome.violations.is_empty(),
            "{} recovery invariant violations:\n  {}",
            policy.as_str(),
            outcome.violations.join("\n  ")
        );
    }
}

#[test]
fn sweep_forces_checkpoint_window_and_holds_c1() {
    // `--checkpoint` leg (DESIGN.md §15): the workload takes an online
    // checkpoint under the recorder, and the sweep force-includes every op
    // inside the checkpoint window as a crash point. Invariant C1 is then
    // asserted at each: an acked checkpoint must open cleanly and scan
    // exactly the pinned snapshot; an unacked one must either lack CURRENT
    // (ignorable garbage) or already be complete.
    let cfg = SweepConfig {
        checkpoint: true,
        max_crash_points: 36,
        max_eio_points: 8,
        max_double_crash_first: 2,
        max_double_crash_second: 3,
        ..SweepConfig::default()
    };
    let outcome = run_crash_sweep(&cfg).expect("sweep harness must run");
    assert!(
        outcome.coverage.checkpoints > 0,
        "workload never acked a checkpoint"
    );
    let arm = outcome
        .phases
        .iter()
        .find(|(_, l)| l == "ckpt-arm")
        .map(|&(at, _)| at)
        .expect("record run marked ckpt-arm");
    let done = outcome
        .phases
        .iter()
        .find(|(_, l)| l == "ckpt-done")
        .map(|&(at, _)| at)
        .expect("record run marked ckpt-done");
    assert!(arm < done, "checkpoint window is non-empty");
    let in_window = outcome
        .crash_points
        .iter()
        .filter(|&&k| k >= arm && k < done)
        .count();
    assert!(
        in_window >= 5,
        "expected >= 5 crash points inside the checkpoint window [{arm}, {done}), got {in_window}"
    );
    assert!(
        outcome.violations.is_empty(),
        "checkpoint-leg recovery invariant violations:\n  {}",
        outcome.violations.join("\n  ")
    );
}

#[test]
fn sweep_is_seed_stable() {
    // A different seed changes torn-tail randomness but must not change
    // the verdict: the invariants hold at any cut.
    let cfg = SweepConfig {
        seed: 0xDEAD_BEEF,
        max_crash_points: 36,
        max_eio_points: 8,
        max_double_crash_first: 2,
        max_double_crash_second: 3,
        ..SweepConfig::default()
    };
    let outcome = run_crash_sweep(&cfg).expect("sweep harness must run");
    assert!(outcome.crash_points.len() >= 30);
    assert!(
        outcome.violations.is_empty(),
        "recovery invariant violations:\n  {}",
        outcome.violations.join("\n  ")
    );
}
