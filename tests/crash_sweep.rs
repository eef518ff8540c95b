//! Acceptance test for the crash-point sweep harness.
//!
//! Runs every preset but `vlog` (whose ≈ 1,700 points run in CI's
//! `bolt-tool crash-sweep`) through the path the CLI takes: a preset's
//! coverage demands (DESIGN.md §9: ≥ 30 distinct crash points, EIO and
//! double-crash points, the barrier sites its workload exists to reach,
//! its forced windows crashed through) are checked by the sweep itself, and
//! every point must pass every recovery invariant.
//!
//! The sweep is deterministic in its *verdicts*: background compaction
//! threads may shift exact op indices between runs, but the invariants are
//! written to hold at any op cut, so a violation here is a real bug, not
//! flakiness.

use bolt_tools::{run_crash_sweep, Scenario, DEFAULT_SEED};

/// Sweep `preset` under `seed`: its coverage must be met and no invariant
/// broken.
fn sweep(preset: &str, seed: u64) {
    let scenario = Scenario::preset(preset).expect("a known preset");
    let outcome = run_crash_sweep(&scenario, seed).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        outcome.violations.is_empty(),
        "{preset}: recovery invariant violations:\n  {}",
        outcome.violations.join("\n  ")
    );
}

/// Flushes, group and settled compaction, a pinned hole punch, a range
/// delete, a self-healing MANIFEST re-cut (O5) and an online checkpoint
/// (C1, DESIGN.md §15), each window crashed through op by op.
#[test]
fn sweep_holds_all_recovery_invariants() {
    sweep("leveled", DEFAULT_SEED);
}

/// I1–I5 and C1 are properties of the barrier ordering contract, not of
/// victim selection: they must hold under every shipped compaction policy.
/// (One thread per preset, so this test is not the suite's long pole.)
#[test]
fn sweep_holds_invariants_under_tiered_policies() {
    std::thread::scope(|s| {
        for preset in ["size-tiered", "lazy-leveled", "fragmented"] {
            s.spawn(move || sweep(preset, DEFAULT_SEED));
        }
    });
}

/// Cross-shard `write_batch` (DESIGN.md §12): crashes at every op inside
/// every commit window — between the prepares of its one round, and
/// mid-apply — must recover all-or-nothing on every shard.
#[test]
fn sharded_2pc_sweep_recovers_all_or_nothing() {
    sweep("sharded", DEFAULT_SEED);
}

/// A different seed changes torn-tail randomness but must not change the
/// verdict: the invariants hold at any cut.
#[test]
fn sweep_is_seed_stable() {
    sweep("leveled", 0xDEAD_BEEF);
}
