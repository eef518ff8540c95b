//! An explicit-state model of the cross-shard commit protocol
//! (DESIGN.md §12), searched breadth-first over every interleaving of two
//! coordinators and two shards under crash, EIO, plain-open and
//! failed-unlink faults.
//!
//! Each coordinator commits one batch that writes both shards. A shard is
//! its WAL files (each record durable or not), its log floor, its tables
//! (the ordered history of batches flushed into them, and the
//! applied-transaction floor the flush committed), and its volatile state:
//! the memtable's history, the staged slices and the in-memory floor. The
//! steps are the ones `ShardedDb::commit_cross_shard` and the core make —
//! the coordinator lock, a prepare (its append and sync), an apply, a
//! decide (TXNLOG protocol), a background flush, a log retirement — plus
//! the faults: a crash between any two steps (the open's resolution
//! included), EIO on a commit sync or on an open's abort (its record may
//! or may not have reached the device; a failed abort fails the open), an
//! apply that fails before it writes anything and leaves its shard
//! unpoisoned (Cornus), a plain `Db::open` of one shard, and an unlink
//! that fails. A flush may also run with none
//! of the two batches in its memtable: it stands for one that carries a
//! single-shard write the checks do not read.
//!
//! After every sharded open the checks run:
//! - **A1** a batch is on both shards or on neither;
//! - **A2** an acknowledged batch is on both;
//! - **A3** no shard holds a batch twice;
//! - both shards hold the batches in one order, and a batch acknowledged
//!   after another commit answered (acknowledged or failed) lands above it
//!   — an ambiguous batch never lands above a write acknowledged after it;
//! - no slice is left staged once the sharded open is done.
//!
//! Each protocol variant is a named configuration. The test asserts the
//! verdict of each and prints every counterexample trace it finds.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

const SHARDS: usize = 2;
const COORDINATORS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Protocol {
    /// A synced decide record in a coordinator log is the commit point.
    Txnlog,
    /// The commit point is every participant's durable prepare; a commit
    /// holds the coordinator lock from its id through its applies.
    Cornus,
}

/// What recovery does with a prepare whose slice its shard already applied
/// (the slice is in the tables; its `Applied` marker was lost).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stale {
    /// Nothing: the prepare stages again.
    Stages,
    /// Drop it when its id is at or below the shard's applied floor.
    BelowFloor,
    /// Drop it when its id is in the set of ids the tables hold.
    InAppliedSet,
}

/// One protocol configuration: a protocol and the mechanisms it has.
#[derive(Clone, Copy, Debug)]
struct Variant {
    name: &'static str,
    protocol: Protocol,
    /// What recovery does with a stale prepare.
    stale: Stale,
    /// Cornus: the open's commit rule reads the participants' floors.
    judge_floor: bool,
    /// Cornus: the open's abort is a synced record, not an in-memory forget.
    durable_abort: bool,
    /// Recovery syncs a log from which it read an abort.
    sync_recovered_aborts: bool,
    /// Cornus: a failed apply makes the commit ambiguous.
    apply_failure_ambiguous: bool,
    /// TXNLOG: applies run under the coordinator lock.
    apply_under_lock: bool,
    /// TXNLOG: a plain open of one shard keeps its markerless prepares.
    plain_open_keeps: bool,
    /// TXNLOG: the ambiguity is checked again under the lock, before a
    /// decide.
    decide_recheck: bool,
}

impl Variant {
    /// The TXNLOG protocol as it last shipped.
    const TXNLOG: Variant = Variant {
        name: "txnlog",
        protocol: Protocol::Txnlog,
        stale: Stale::Stages,
        judge_floor: false,
        durable_abort: false,
        sync_recovered_aborts: false,
        apply_failure_ambiguous: false,
        apply_under_lock: true,
        plain_open_keeps: true,
        decide_recheck: true,
    };

    /// The protocol `ShardedDb` runs.
    const CORNUS: Variant = Variant {
        name: "cornus",
        protocol: Protocol::Cornus,
        stale: Stale::BelowFloor,
        judge_floor: true,
        durable_abort: true,
        sync_recovered_aborts: true,
        apply_failure_ambiguous: true,
        apply_under_lock: true,
        plain_open_keeps: true,
        decide_recheck: true,
    };
}

/// Faults the search may inject, each at most this many times.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Budget {
    crashes: u8,
    eios: u8,
    unlink_failures: u8,
    plain_opens: u8,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Rec {
    Prepare { txn: u8, op: u8 },
    Applied { txn: u8 },
    Aborted { txn: u8 },
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Log {
    number: u8,
    recs: Vec<Rec>,
    durable: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Pending {
    txn: u8,
    op: u8,
    log: u8,
    applied_in: Option<u8>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Shard {
    logs: Vec<Log>,
    log_floor: u8,
    next_log: u8,
    tables: Vec<u8>,
    manifest_floor: u8,
    /// The ids whose slices the tables hold, as a bitmask.
    manifest_applied: u16,
    mem: Vec<u8>,
    floor: u8,
    applied: u16,
    pending: Vec<Pending>,
    poisoned: bool,
    max_txn: u8,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            logs: vec![Log {
                number: 1,
                recs: Vec::new(),
                durable: 0,
            }],
            log_floor: 1,
            next_log: 2,
            tables: Vec::new(),
            manifest_floor: 0,
            manifest_applied: 0,
            mem: Vec::new(),
            floor: 0,
            applied: 0,
            pending: Vec::new(),
            poisoned: false,
            max_txn: 0,
        }
    }

    fn wal(&mut self) -> &mut Log {
        self.logs.last_mut().expect("a current WAL")
    }

    fn staged(&self) -> Vec<Pending> {
        self.pending
            .iter()
            .copied()
            .filter(|p| p.applied_in.is_none())
            .collect()
    }

    fn history(&self) -> Vec<u8> {
        self.tables.iter().chain(&self.mem).copied().collect()
    }

    /// Whether a retirement at a fresh log would unlink a log older than
    /// the current WAL.
    fn has_dead_logs(&self) -> bool {
        let boundary = self.next_log;
        let applied_gone = |p: &&Pending| p.applied_in.is_none_or(|era| era >= boundary);
        let pinned = self
            .pending
            .iter()
            .filter(applied_gone)
            .map(|p| p.log)
            .min();
        let boundary = pinned.map_or(boundary, |p| p.min(boundary));
        self.logs.len() > 1 && self.logs[0].number < boundary
    }

    /// `delete_obsolete_logs`: drop the applied slices the floor passed,
    /// then unlink the front run of logs below the boundary and the pins,
    /// oldest first; `fail` fails the first unlink, which stops the run.
    fn retire(&mut self, boundary: u8, fail: bool) {
        self.pending
            .retain(|p| p.applied_in.is_none_or(|era| era >= boundary));
        let pinned = self.pending.iter().map(|p| p.log).min();
        let boundary = pinned.map_or(boundary, |p| p.min(boundary));
        if !fail {
            self.logs.retain(|l| l.number >= boundary);
        }
    }

    /// Switch to a fresh WAL, commit the memtable and the floor to the
    /// tables, and retire the logs below the new WAL. (The floor is kept for
    /// every protocol; only the variants that read it depend on it.)
    fn flush(&mut self, fail_unlink: bool) {
        let number = self.next_log;
        self.next_log += 1;
        self.logs.push(Log {
            number,
            recs: Vec::new(),
            durable: 0,
        });
        self.tables.append(&mut self.mem);
        self.manifest_floor = self.manifest_floor.max(self.floor);
        self.manifest_applied |= self.applied;
        self.log_floor = number;
        self.retire(number, fail_unlink);
    }

    /// `Db::open`: replay the logs (txn records only below the log floor),
    /// flush what was replayed, start a fresh WAL and retire. Returns
    /// `Err` on a marker with no prepare in the replayed region.
    fn recover(&mut self, v: &Variant, plain: bool, fail_unlink: bool) -> Result<(), String> {
        let mut staged: Vec<Pending> = Vec::new();
        let mut aborted_in: Vec<u8> = Vec::new();
        let mut floor = self.manifest_floor;
        let mut applied = self.manifest_applied;
        let mut max_txn = floor;
        let mut mem = Vec::new();
        for log in &self.logs {
            let replay = log.number >= self.log_floor;
            for rec in &log.recs {
                match *rec {
                    Rec::Prepare { txn, op } => {
                        max_txn = max_txn.max(txn);
                        staged.push(Pending {
                            txn,
                            op,
                            log: log.number,
                            applied_in: None,
                        });
                    }
                    Rec::Applied { txn } => {
                        max_txn = max_txn.max(txn);
                        floor = floor.max(txn);
                        applied |= 1 << txn;
                        match staged.iter().position(|p| p.txn == txn) {
                            Some(i) => {
                                let p = staged.remove(i);
                                if replay {
                                    mem.push(p.op);
                                }
                            }
                            None if replay => {
                                return Err(format!(
                                    "corruption: marker of txn {txn} without a prepare"
                                ))
                            }
                            None => {}
                        }
                    }
                    Rec::Aborted { txn } => {
                        max_txn = max_txn.max(txn);
                        staged.retain(|p| p.txn != txn);
                        aborted_in.push(log.number);
                    }
                }
            }
        }
        // A log holding an abort is synced before the engine takes a write.
        let synced = |l: &&mut Log| v.sync_recovered_aborts && aborted_in.contains(&l.number);
        for log in self.logs.iter_mut().filter(synced) {
            log.durable = log.recs.len();
        }
        match v.stale {
            Stale::Stages => {}
            Stale::BelowFloor => staged.retain(|p| p.txn > floor),
            Stale::InAppliedSet => staged.retain(|p| applied & (1 << p.txn) == 0),
        }
        if plain && !v.plain_open_keeps {
            staged.clear();
        }
        self.pending = staged;
        self.floor = floor;
        self.applied = applied;
        self.max_txn = max_txn;
        self.poisoned = false;
        self.mem = mem;
        // The replayed memtable's flush, then `start_fresh_wal`.
        self.tables.append(&mut self.mem);
        self.manifest_floor = floor;
        self.manifest_applied = applied;
        let number = self.next_log;
        self.next_log += 1;
        self.logs.push(Log {
            number,
            recs: Vec::new(),
            durable: 0,
        });
        self.log_floor = number;
        self.retire(number, fail_unlink);
        Ok(())
    }

    fn apply(&mut self, txn: u8) {
        let wal = self.wal().number;
        self.wal().recs.push(Rec::Applied { txn });
        let p = self
            .pending
            .iter_mut()
            .find(|p| p.txn == txn && p.applied_in.is_none())
            .expect("a staged slice to apply");
        p.applied_in = Some(wal);
        let op = p.op;
        self.mem.push(op);
        self.floor = self.floor.max(txn);
        self.applied |= 1 << txn;
    }

    fn crash(&mut self, power_lost: bool) {
        if power_lost {
            for log in &mut self.logs {
                log.recs.truncate(log.durable);
            }
        }
        self.mem.clear();
        self.pending.clear();
        self.floor = 0;
        self.applied = 0;
        self.poisoned = false;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Prep {
    Idle,
    Done,
    Failed,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Coordinator {
    NotStarted,
    Preparing {
        txn: u8,
        prep: [Prep; SHARDS],
    },
    /// TXNLOG: every prepare is durable; waiting for, or holding, the lock.
    Deciding {
        txn: u8,
        locked: bool,
    },
    Applying {
        txn: u8,
        next: u8,
        failed: bool,
    },
    Finished,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Action {
    Abort { shard: u8, txn: u8 },
    Forget { shard: u8, txn: u8 },
    Apply { shard: u8, txn: u8 },
    Flush { shard: u8 },
    Recut,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Running,
    Down,
    Opening(VecDeque<Action>),
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    shards: [Shard; SHARDS],
    /// The TXNLOG's decides, and how many of them are durable.
    txnlog: Vec<u8>,
    txnlog_durable: usize,
    coordinators: [Coordinator; COORDINATORS],
    /// The coordinator lock's holder.
    lock: Option<u8>,
    next_txn: u8,
    ambiguous: bool,
    acked: u8,
    /// Commits in the order they answered (acknowledged or failed).
    answered: Vec<u8>,
    phase: Phase,
    budget: Budget,
}

impl State {
    /// Merge states that differ only in names: WAL numbers become their
    /// rank among the shard's logs (every number a shard refers to is one
    /// of its logs'), and the recovered id maximum, which the open reads
    /// within the step that set it, is cleared.
    fn canonicalize(&mut self) {
        for shard in &mut self.shards {
            let numbers: Vec<u8> = shard.logs.iter().map(|l| l.number).collect();
            let rank = |n: u8| numbers.iter().position(|&m| m == n).expect("a live log") as u8 + 1;
            for p in &mut shard.pending {
                p.log = rank(p.log);
                p.applied_in = p.applied_in.map(rank);
            }
            shard.log_floor = rank(shard.log_floor);
            for (i, log) in shard.logs.iter_mut().enumerate() {
                log.number = i as u8 + 1;
            }
            shard.next_log = numbers.len() as u8 + 1;
            shard.max_txn = 0;
        }
    }

    fn new(budget: Budget) -> State {
        State {
            shards: [Shard::new(), Shard::new()],
            txnlog: Vec::new(),
            txnlog_durable: 0,
            coordinators: [Coordinator::NotStarted; COORDINATORS],
            lock: None,
            next_txn: 1,
            ambiguous: false,
            acked: 0,
            answered: Vec::new(),
            phase: Phase::Running,
            budget,
        }
    }

    fn finish(&mut self, c: usize, acked: bool) {
        self.coordinators[c] = Coordinator::Finished;
        self.answered.push(c as u8);
        if acked {
            self.acked |= 1 << c;
        }
    }

    fn release(&mut self, c: usize) {
        if self.lock == Some(c as u8) {
            self.lock = None;
        }
    }

    /// The commit has failed on some shard: in-memory forget of its
    /// prepares (the TXNLOG protocol's runtime abort).
    fn forget_everywhere(&mut self, txn: u8) {
        for shard in &mut self.shards {
            shard
                .pending
                .retain(|p| p.txn != txn || p.applied_in.is_some());
        }
    }
}

/// Every successor of `s` with the step's label.
fn successors(s: &State, v: &Variant) -> Vec<(String, State)> {
    let mut out = Vec::new();
    match &s.phase {
        Phase::Running => {
            for c in 0..COORDINATORS {
                coordinator_steps(s, v, c, &mut out);
            }
            for j in 0..SHARDS {
                let shard = &s.shards[j];
                if shard.poisoned || (shard.mem.is_empty() && !shard.has_dead_logs()) {
                    continue;
                }
                for fail in unlink_choices(s, shard.has_dead_logs()) {
                    let mut t = s.clone();
                    t.shards[j].flush(fail);
                    if fail {
                        t.budget.unlink_failures -= 1;
                    }
                    out.push((label("flush", j, fail), t));
                }
            }
            crash(s, &mut out);
        }
        Phase::Down => {
            open(s, v, &mut out);
            if s.budget.plain_opens > 0 {
                for j in 0..SHARDS {
                    for fail in unlink_choices(s, true) {
                        let mut t = s.clone();
                        t.budget.plain_opens -= 1;
                        if fail {
                            t.budget.unlink_failures -= 1;
                        }
                        if let Err(e) = t.shards[j].recover(v, true, fail) {
                            out.push((format!("plain open of shard {j}: {e}"), t));
                            continue;
                        }
                        t.shards[j].crash(false);
                        out.push((label("plain open (then close)", j, fail), t));
                    }
                }
            }
        }
        Phase::Opening(actions) => {
            let mut actions = actions.clone();
            let action = actions.pop_front().expect("an open with work left");
            let mut t = s.clone();
            t.phase = Phase::Opening(actions.clone());
            match action {
                Action::Abort { shard, txn } => {
                    let sh = &mut t.shards[shard as usize];
                    if v.durable_abort {
                        sh.wal().recs.push(Rec::Aborted { txn });
                        let wal = sh.wal();
                        wal.durable = wal.recs.len();
                    }
                    sh.pending.retain(|p| p.txn != txn);
                    push_open_step(
                        &mut out,
                        format!("open: abort txn {txn} on shard {shard}"),
                        t,
                    );
                    // The abort's sync fails: the open fails, and the files
                    // keep what reached them.
                    if v.durable_abort && s.budget.eios > 0 {
                        for reached in [false, true] {
                            let mut t = s.clone();
                            t.budget.eios -= 1;
                            let wal = t.shards[shard as usize].wal();
                            wal.recs.push(Rec::Aborted { txn });
                            if reached {
                                wal.durable = wal.recs.len();
                            }
                            stop(&mut t, false);
                            let how = if reached {
                                "is durable"
                            } else {
                                "is not durable yet"
                            };
                            out.push((
                                format!("open: abort txn {txn} on shard {shard} fails (the record {how}); the open fails"),
                                t,
                            ));
                        }
                    }
                }
                Action::Forget { shard, txn } => {
                    t.shards[shard as usize].pending.retain(|p| p.txn != txn);
                    push_open_step(
                        &mut out,
                        format!("open: forget txn {txn} on shard {shard}"),
                        t,
                    );
                }
                Action::Apply { shard, txn } => {
                    t.shards[shard as usize].apply(txn);
                    push_open_step(
                        &mut out,
                        format!("open: apply txn {txn} on shard {shard}"),
                        t,
                    );
                }
                Action::Flush { shard } => {
                    let dead = s.shards[shard as usize].has_dead_logs();
                    for fail in unlink_choices(s, dead) {
                        let mut t = t.clone();
                        t.shards[shard as usize].flush(fail);
                        if fail {
                            t.budget.unlink_failures -= 1;
                        }
                        push_open_step(&mut out, label("open: flush", shard as usize, fail), t);
                    }
                }
                Action::Recut => {
                    t.txnlog.clear();
                    t.txnlog_durable = 0;
                    push_open_step(&mut out, "open: re-cut the TXNLOG".into(), t);
                }
            }
            crash(s, &mut out);
        }
    }
    out
}

fn label(what: &str, shard: usize, unlink_failed: bool) -> String {
    let failed = if unlink_failed {
        " (an unlink fails)"
    } else {
        ""
    };
    format!("{what} shard {shard}{failed}")
}

fn unlink_choices(s: &State, something_to_unlink: bool) -> Vec<bool> {
    if something_to_unlink && s.budget.unlink_failures > 0 {
        vec![false, true]
    } else {
        vec![false]
    }
}

/// The open's last action turns the database back on.
fn push_open_step(out: &mut Vec<(String, State)>, label: String, mut t: State) {
    if matches!(&t.phase, Phase::Opening(a) if a.is_empty()) {
        t.phase = Phase::Running;
    }
    out.push((label, t));
}

fn crash(s: &State, out: &mut Vec<(String, State)>) {
    if s.budget.crashes == 0 {
        return;
    }
    let mut t = s.clone();
    t.budget.crashes -= 1;
    stop(&mut t, true);
    out.push(("crash".into(), t));
}

/// Every process state goes; with `power_lost`, so does what no sync made
/// durable.
fn stop(t: &mut State, power_lost: bool) {
    for shard in &mut t.shards {
        shard.crash(power_lost);
    }
    if power_lost {
        t.txnlog.truncate(t.txnlog_durable);
    }
    for c in &mut t.coordinators {
        if *c != Coordinator::NotStarted {
            *c = Coordinator::Finished;
        }
    }
    t.lock = None;
    t.ambiguous = false;
    t.phase = Phase::Down;
}

/// `ShardedDb::open`: every shard recovers (one step), then the
/// resolution's actions run one step each.
fn open(s: &State, v: &Variant, out: &mut Vec<(String, State)>) {
    let mut choices = vec![None];
    if s.budget.unlink_failures > 0 {
        choices.extend((0..SHARDS).map(Some));
    }
    for failing in choices {
        let mut t = s.clone();
        if failing.is_some() {
            t.budget.unlink_failures -= 1;
        }
        let mut corrupt = None;
        for j in 0..SHARDS {
            if let Err(e) = t.shards[j].recover(v, false, failing == Some(j)) {
                corrupt = Some(e);
            }
        }
        let what = match failing {
            Some(j) => format!("open: every shard recovers (an unlink fails on shard {j})"),
            None => "open: every shard recovers".to_string(),
        };
        if let Some(e) = corrupt {
            out.push((format!("{what}: {e}"), t));
            continue;
        }
        let decided = t.txnlog[..t.txnlog_durable].to_vec();
        t.next_txn = 1 + match v.protocol {
            // Above every floor and every stage: an aborted id may be taken
            // again, its `Aborted` record already follows its prepare.
            Protocol::Cornus => t
                .shards
                .iter()
                .flat_map(|sh| sh.staged().into_iter().map(|p| p.txn).chain([sh.floor]))
                .max()
                .unwrap_or(0),
            Protocol::Txnlog => t
                .shards
                .iter()
                .map(|sh| sh.max_txn)
                .chain(decided.iter().copied())
                .max()
                .unwrap_or(0),
        };
        let actions = match v.protocol {
            Protocol::Cornus => cornus_resolution(&t, v),
            Protocol::Txnlog => txnlog_resolution(&t, &decided),
        };
        t.phase = Phase::Opening(actions.into());
        push_open_step(out, what, t);
    }
}

fn cornus_resolution(s: &State, v: &Variant) -> Vec<Action> {
    let staged: Vec<Vec<Pending>> = s.shards.iter().map(Shard::staged).collect();
    let committed = |txn: u8| {
        (0..SHARDS).all(|j| {
            (v.judge_floor && s.shards[j].floor >= txn) || staged[j].iter().any(|p| p.txn == txn)
        })
    };
    let mut actions = Vec::new();
    for (j, st) in staged.iter().enumerate() {
        for p in st.iter().filter(|p| !committed(p.txn)) {
            actions.push(Action::Abort {
                shard: j as u8,
                txn: p.txn,
            });
        }
    }
    for (j, st) in staged.iter().enumerate() {
        let mut ids: Vec<u8> = st.iter().map(|p| p.txn).filter(|&t| committed(t)).collect();
        ids.sort_unstable();
        for &txn in &ids {
            actions.push(Action::Apply {
                shard: j as u8,
                txn,
            });
        }
        if !ids.is_empty() {
            actions.push(Action::Flush { shard: j as u8 });
        }
    }
    actions
}

fn txnlog_resolution(s: &State, decided: &[u8]) -> Vec<Action> {
    let mut actions = Vec::new();
    for (j, shard) in s.shards.iter().enumerate() {
        let staged = shard.staged();
        let has = |txn: u8| staged.iter().any(|p| p.txn == txn);
        let applies: Vec<u8> = decided.iter().copied().filter(|&t| has(t)).collect();
        for &txn in &applies {
            actions.push(Action::Apply {
                shard: j as u8,
                txn,
            });
        }
        for p in staged.iter().filter(|p| !decided.contains(&p.txn)) {
            actions.push(Action::Forget {
                shard: j as u8,
                txn: p.txn,
            });
        }
        if !applies.is_empty() {
            actions.push(Action::Flush { shard: j as u8 });
        }
    }
    actions.push(Action::Recut);
    actions
}

fn coordinator_steps(s: &State, v: &Variant, c: usize, out: &mut Vec<(String, State)>) {
    let cornus = v.protocol == Protocol::Cornus;
    match s.coordinators[c] {
        Coordinator::NotStarted => {
            let mut t = s.clone();
            // Cornus takes the id, and checks the ambiguity, under the lock.
            if cornus {
                if t.lock.is_some() {
                    return;
                }
                t.lock = Some(c as u8);
            }
            if t.ambiguous {
                t.release(c);
                t.finish(c, false);
                out.push((format!("c{c} is refused (ambiguous)"), t));
                return;
            }
            let txn = t.next_txn;
            t.next_txn += 1;
            t.coordinators[c] = Coordinator::Preparing {
                txn,
                prep: [Prep::Idle; SHARDS],
            };
            out.push((format!("c{c} starts txn {txn}"), t));
        }
        Coordinator::Preparing { txn, prep } => {
            for j in 0..SHARDS {
                // The TXNLOG protocol prepares one shard after the other.
                if !cornus && prep[..j].iter().any(|&p| p != Prep::Done) {
                    break;
                }
                if prep[j] != Prep::Idle {
                    continue;
                }
                let mut next = prep;
                if s.shards[j].poisoned {
                    next[j] = Prep::Failed;
                    let t = join(s.clone(), v, c, txn, next);
                    out.push((format!("c{c}'s prepare on shard {j} fails (poisoned)"), t));
                    continue;
                }
                // The append and its sync are one step: the shard's commit
                // leader owns the WAL in between, and a crash there loses
                // the record exactly as a crash before the append does.
                let mut t = s.clone();
                let shard = &mut t.shards[j];
                shard.wal().recs.push(Rec::Prepare { txn, op: c as u8 });
                let wal = shard.wal();
                wal.durable = wal.recs.len();
                let log = wal.number;
                shard.pending.push(Pending {
                    txn,
                    op: c as u8,
                    log,
                    applied_in: None,
                });
                next[j] = Prep::Done;
                out.push((
                    format!("c{c} prepares on shard {j}"),
                    join(t, v, c, txn, next),
                ));
                if s.budget.eios > 0 {
                    for reached in [false, true] {
                        let mut t = s.clone();
                        t.budget.eios -= 1;
                        let shard = &mut t.shards[j];
                        shard.poisoned = true;
                        shard.wal().recs.push(Rec::Prepare { txn, op: c as u8 });
                        if reached {
                            let wal = shard.wal();
                            wal.durable = wal.recs.len();
                        }
                        next[j] = Prep::Failed;
                        let how = if reached {
                            "is durable"
                        } else {
                            "is not durable yet"
                        };
                        out.push((
                            format!("c{c}'s prepare sync on shard {j} fails (the record {how})"),
                            join(t, v, c, txn, next),
                        ));
                    }
                }
            }
        }
        Coordinator::Deciding { txn, locked } => {
            let mut t = s.clone();
            if !locked {
                if t.lock.is_some() {
                    return;
                }
                t.lock = Some(c as u8);
                if t.ambiguous && v.decide_recheck {
                    t.forget_everywhere(txn);
                    t.release(c);
                    t.finish(c, false);
                    out.push((format!("c{c} takes the lock and is refused (ambiguous)"), t));
                    return;
                }
                t.coordinators[c] = Coordinator::Deciding { txn, locked: true };
                out.push((format!("c{c} takes the lock"), t));
            } else {
                // Append and sync, one step (as a prepare's are).
                t.txnlog.push(txn);
                t.txnlog_durable = t.txnlog.len();
                t.coordinators[c] = Coordinator::Applying {
                    txn,
                    next: 0,
                    failed: false,
                };
                if !v.apply_under_lock {
                    t.release(c);
                }
                out.push((format!("c{c} decides txn {txn}"), t));
                if s.budget.eios > 0 {
                    for reached in [false, true] {
                        let mut t = s.clone();
                        t.budget.eios -= 1;
                        t.txnlog.push(txn);
                        if reached {
                            t.txnlog_durable = t.txnlog.len();
                        }
                        t.ambiguous = true;
                        t.release(c);
                        t.finish(c, false);
                        let how = if reached {
                            "is durable"
                        } else {
                            "is not durable yet"
                        };
                        out.push((format!("c{c}'s decide sync fails (the record {how})"), t));
                    }
                }
            }
        }
        Coordinator::Applying { txn, next, failed } => {
            let j = next as usize;
            let poisoned = s.shards[j].poisoned;
            let mut t = s.clone();
            if !poisoned {
                t.shards[j].apply(txn);
            }
            out.push((
                format!("c{c} applies txn {txn} on shard {j}"),
                applied(t, v, c, txn, next, failed || poisoned),
            ));
            // The apply fails before it writes anything (a memtable switch
            // that cannot create its WAL) and leaves the shard unpoisoned.
            if cornus && !poisoned && s.budget.eios > 0 {
                let mut t = s.clone();
                t.budget.eios -= 1;
                out.push((
                    format!("c{c}'s apply of txn {txn} on shard {j} fails"),
                    applied(t, v, c, txn, next, true),
                ));
            }
        }
        Coordinator::Finished => {}
    }
}

/// After an apply step on shard `next`: the commit goes on to the next
/// participant, or answers, releasing the lock; a failed apply leaves it
/// ambiguous where the variant says so.
fn applied(mut t: State, v: &Variant, c: usize, txn: u8, next: u8, failed: bool) -> State {
    if next as usize + 1 < SHARDS {
        t.coordinators[c] = Coordinator::Applying {
            txn,
            next: next + 1,
            failed,
        };
        return t;
    }
    if failed && v.apply_failure_ambiguous {
        t.ambiguous = true;
    }
    t.release(c);
    t.finish(c, !failed);
    t
}

/// After a prepare step: once every prepare has answered, the commit
/// either goes on (all durable) or fails.
fn join(mut t: State, v: &Variant, c: usize, txn: u8, prep: [Prep; SHARDS]) -> State {
    t.coordinators[c] = Coordinator::Preparing { txn, prep };
    let answered = prep.iter().all(|p| matches!(p, Prep::Done | Prep::Failed));
    let failed = prep.contains(&Prep::Failed);
    match v.protocol {
        Protocol::Cornus if failed && answered => {
            t.ambiguous = true;
            t.release(c);
            t.finish(c, false);
        }
        Protocol::Cornus if answered => {
            t.coordinators[c] = Coordinator::Applying {
                txn,
                next: 0,
                failed: false,
            };
        }
        Protocol::Txnlog if failed => {
            t.forget_everywhere(txn);
            t.finish(c, false);
        }
        Protocol::Txnlog if answered => {
            t.coordinators[c] = Coordinator::Deciding { txn, locked: false };
        }
        _ => {}
    }
    t
}

/// The checks after a sharded open; `None` when all hold.
fn violation(s: &State) -> Option<String> {
    let histories: Vec<Vec<u8>> = s.shards.iter().map(Shard::history).collect();
    for (j, h) in histories.iter().enumerate() {
        for c in 0..COORDINATORS as u8 {
            if h.iter().filter(|&&op| op == c).count() > 1 {
                return Some(format!("A3: shard {j} holds c{c}'s batch twice ({h:?})"));
            }
        }
    }
    for c in 0..COORDINATORS as u8 {
        let on: Vec<bool> = histories.iter().map(|h| h.contains(&c)).collect();
        if on[0] != on[1] {
            return Some(format!(
                "A1: c{c}'s batch is on one shard only ({histories:?})"
            ));
        }
        if s.acked & (1 << c) != 0 && !on[0] {
            return Some(format!(
                "A2: c{c}'s acknowledged batch is gone ({histories:?})"
            ));
        }
    }
    if histories[0] != histories[1] {
        return Some(format!(
            "the shards hold the batches in two orders ({histories:?})"
        ));
    }
    // A batch acknowledged after another commit answered lands above it.
    let at = |op: u8| histories[0].iter().position(|&h| h == op);
    for (k, &acked) in s.answered.iter().enumerate() {
        let Some(above) = at(acked).filter(|_| s.acked & (1 << acked) != 0) else {
            continue;
        };
        if let Some(&before) = s.answered[..k].iter().find(|&&x| at(x) > Some(above)) {
            return Some(format!(
                "c{acked}'s batch, acknowledged after c{before} answered, lands below it \
                 ({histories:?})"
            ));
        }
    }
    for (j, shard) in s.shards.iter().enumerate() {
        if !shard.staged().is_empty() {
            return Some(format!("shard {j} keeps a slice staged after the open"));
        }
    }
    None
}

struct Outcome {
    states: usize,
    counterexample: Option<Vec<String>>,
}

/// The state's 64-bit fingerprint. The search keeps fingerprints, not
/// states (hash compaction): two of the few hundred thousand states
/// colliding, which would prune one unexplored, has odds near 1e-8.
fn fingerprint(s: &State) -> u64 {
    let mut hasher = DefaultHasher::new();
    s.hash(&mut hasher);
    hasher.finish()
}

fn explore(v: &Variant, budget: Budget) -> Outcome {
    let start = State::new(budget);
    let mut seen: HashSet<u64> = HashSet::new();
    let mut parents: Vec<(usize, String)> = vec![(usize::MAX, "start".into())];
    let mut queue = VecDeque::new();
    seen.insert(fingerprint(&start));
    queue.push_back((start, 0usize));
    while let Some((s, id)) = queue.pop_front() {
        for (step, mut t) in successors(&s, v) {
            t.canonicalize();
            if !seen.insert(fingerprint(&t)) {
                continue;
            }
            let tid = parents.len();
            parents.push((id, step));
            let opened = t.phase == Phase::Running && s.phase != Phase::Running;
            let step = &parents[tid].1;
            let failure = if step.contains("corruption") {
                Some(step.clone())
            } else if opened {
                violation(&t)
            } else {
                None
            };
            if let Some(failure) = failure {
                let mut trace = vec![format!("violation: {failure}")];
                let mut at = tid;
                while at != usize::MAX {
                    trace.push(parents[at].1.clone());
                    at = parents[at].0;
                }
                trace.reverse();
                return Outcome {
                    states: seen.len(),
                    counterexample: Some(trace),
                };
            }
            assert!(
                seen.len() < STATE_CAP,
                "{}: more than {STATE_CAP} states",
                v.name
            );
            queue.push_back((t, tid));
        }
    }
    Outcome {
        states: seen.len(),
        counterexample: None,
    }
}

/// A bound on the search's memory: the full search stays far below it.
const STATE_CAP: usize = 1_500_000;

const FULL: Budget = Budget {
    crashes: 2,
    eios: 1,
    unlink_failures: 1,
    plain_opens: 1,
};

/// PR 40's three faults need no unlink to fail.
const NO_UNLINK_FAILURE: Budget = Budget {
    unlink_failures: 0,
    ..FULL
};

/// Run `v` under `budget` and check its verdict, printing the
/// counterexample trace of a failing variant.
fn expect(v: Variant, budget: Budget, passes: bool) {
    let started = std::time::Instant::now();
    let outcome = explore(&v, budget);
    let took = started.elapsed();
    match (&outcome.counterexample, passes) {
        (None, true) => println!(
            "{}: passes, {} states searched exhaustively in {took:.2?}",
            v.name, outcome.states
        ),
        (Some(trace), false) => println!(
            "{}: fails as expected after {} states ({took:.2?}):\n  {}",
            v.name,
            outcome.states,
            trace.join("\n  ")
        ),
        (Some(trace), true) => panic!(
            "{} should pass, but fails after {} states:\n  {}",
            v.name,
            outcome.states,
            trace.join("\n  ")
        ),
        (None, false) => panic!(
            "{} should fail, but {} states hold every check",
            v.name, outcome.states
        ),
    }
}

/// The TXNLOG protocol applies a slice twice. A shard applies and flushes
/// it, the crash takes its unsynced `Applied` marker, and its prepare
/// outlives the flush — here by a failed unlink; another transaction's
/// prepare pinning the same WAL does it too. The slice stages again, and
/// the TXNLOG still holds its decide.
#[test]
fn the_txnlog_protocol_applies_a_flushed_slice_again() {
    expect(Variant::TXNLOG, FULL, false);
}

/// A single applied-transaction floor cannot close that for the TXNLOG
/// protocol: it takes ids before the lock, so a shard may apply a higher
/// id first, and its floor then hides a lower one it never applied. (The
/// set of applied ids can.) Cornus applies in id order, so its floor is
/// that set.
#[test]
fn the_txnlog_protocol_cannot_use_a_floor() {
    let floor = Variant {
        name: "txnlog + floor",
        stale: Stale::BelowFloor,
        ..Variant::TXNLOG
    };
    expect(floor, FULL, false);
}

/// The TXNLOG protocol with the set of applied ids: it holds.
const TXNLOG_FIXED: Variant = Variant {
    name: "txnlog + applied set",
    stale: Stale::InAppliedSet,
    ..Variant::TXNLOG
};

#[test]
fn the_txnlog_protocol_with_an_applied_set_passes() {
    expect(TXNLOG_FIXED, FULL, true);
}

/// Each fault the TXNLOG protocol had before its last change is found.
#[test]
fn the_txnlog_protocols_old_faults_are_found() {
    let fixed = TXNLOG_FIXED;
    let faults = [
        Variant {
            name: "txnlog + applied set, applies outside the lock",
            apply_under_lock: false,
            ..fixed
        },
        Variant {
            name: "txnlog + applied set, a plain open drops markerless prepares",
            plain_open_keeps: false,
            ..fixed
        },
        Variant {
            name: "txnlog + applied set, no ambiguity check at the decide",
            decide_recheck: false,
            ..fixed
        },
    ];
    for v in faults {
        expect(v, NO_UNLINK_FAILURE, false);
    }
}

#[test]
fn the_cornus_protocol_passes() {
    expect(Variant::CORNUS, FULL, true);
}

/// Through a third crash: an id an open aborted is taken again after the
/// next open, and only the recovery after that reads the logs holding both
/// transactions. (≈ 5 s in a debug build.)
#[test]
fn the_cornus_protocol_passes_through_three_crashes() {
    expect(Variant::CORNUS, Budget { crashes: 3, ..FULL }, true);
}

#[test]
fn each_cornus_mutation_is_found() {
    let mutations = [
        Variant {
            name: "cornus, no floor in the commit rule",
            judge_floor: false,
            ..Variant::CORNUS
        },
        Variant {
            name: "cornus, in-memory forget at open",
            durable_abort: false,
            ..Variant::CORNUS
        },
        Variant {
            name: "cornus, an abort read at open is not synced",
            sync_recovered_aborts: false,
            ..Variant::CORNUS
        },
        Variant {
            name: "cornus, a prepare at or below its own shard's floor stays staged",
            stale: Stale::Stages,
            ..Variant::CORNUS
        },
        Variant {
            name: "cornus, a failed apply that does not poison leaves writes open",
            apply_failure_ambiguous: false,
            ..Variant::CORNUS
        },
    ];
    for v in mutations {
        expect(v, FULL, false);
    }
}
