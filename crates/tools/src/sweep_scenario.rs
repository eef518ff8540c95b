//! What the fault sweep runs: a [`Scenario`] — options, a [`Target`] (one
//! `Db` or a `ShardedDb`), a list of workload [`Phase`]s and the
//! [`Contract`] of labelled invariants checked after every fault.
//!
//! The workload's unit of atomicity is the *group*: a set of keys rewritten
//! by one batch per round. On a single engine a group is a two-key pair in
//! one `WriteBatch`; on the sharded target it is five keys spanning at
//! least two shards, so every group write is a cross-shard 2PC commit. One
//! model ([`GroupState`]) and one check ([`check_invariants`]) serve both.

use std::sync::Arc;

use bolt_common::{Error, Result};
use bolt_core::{CompactionPolicyKind, Db, Options, WriteBatch, WriteOptions};
use bolt_env::{Env, FaultEnv, FaultPlan};
use bolt_sharded::{Router, ShardedDb};
use bolt_ycsb::KvTarget;

use crate::sweep::{SweepConfig, SweepCoverage};
use crate::verify_db;

/// Disjoint filler ranges cycled across rounds. Each range is written in
/// its own round(s), so whole L0 runs have zero overlap at the level below
/// — the shape settled compaction promotes without rewriting.
const FILLER_RANGES: u32 = 3;
/// Keys in the pinned hole-punch range (`h0000..`); the middle third is
/// rewritten to kill its logical tables while the flanks stay live.
const HOLE_KEYS: u32 = 120;
/// Keys in the range-delete phase key space (`rd0000..`).
const RD_KEYS: u32 = 90;
/// The ranged tombstone covers `[RD_DEL_BEGIN, RD_DEL_END)`.
const RD_DEL_BEGIN: u32 = 20;
const RD_DEL_END: u32 = 70;
/// Covered keys rewritten ("reborn") after the tombstone.
const RD_REBIRTH_BEGIN: u32 = 30;
const RD_REBIRTH_END: u32 = 35;
/// Shards of the sharded target.
const SHARDS: usize = 3;

type Scan = Vec<(Vec<u8>, Vec<u8>)>;

fn hole_key(i: u32) -> String {
    format!("h{i:04}")
}

fn rd_key(i: u32) -> String {
    format!("rd{i:04}")
}

fn rd_alive(i: u32) -> Vec<u8> {
    // Padding pushes the value past the vlog separation threshold, so in
    // vlog mode the tombstone covers separated values.
    format!("alive-{i:04}-{}", "a".repeat(72)).into_bytes()
}

fn rd_reborn(i: u32) -> Vec<u8> {
    format!("reborn-{i:04}-{}", "b".repeat(72)).into_bytes()
}

fn group_value(round: u32, g: usize) -> String {
    // Round is recoverable from the value; padding forces enough bytes
    // through the memtable that flushes and compactions actually happen.
    format!("r{round:04}-g{g:03}-{}", "v".repeat(72))
}

fn value_round(value: &[u8]) -> Option<u32> {
    let s = std::str::from_utf8(value).ok()?;
    s.strip_prefix('r')?.get(..4)?.parse().ok()
}

/// One step of the workload. A failed operation ends its phase; a crash
/// ends the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Rewrite every group (one batch each) plus one filler range, then
    /// flush. On the sharded target each group write is bracketed by
    /// `txn-r<round>g<group>-arm` / `-done` markers: the 2PC window.
    Round,
    /// `compact_until_quiet`, then mark the label.
    Compact(&'static str),
    /// Settle one compaction file full of `h*` logical tables, then rewrite
    /// and compact only the middle of the range. The flanking tables stay
    /// live and pin the file, so GC can only reclaim the dead middle by
    /// punching holes — deterministic `holes_punched > 0` coverage.
    HolePunch,
    /// Write a dedicated key space durably, cover its middle with one
    /// ranged tombstone, make the tombstone durable, then resurrect a few
    /// covered keys and push everything through compaction. The model's
    /// [`RdPhase`] records each durability boundary.
    RangeDelete,
    /// Self-healing re-cut (O5): write one more unsynced round, arm a
    /// MANIFEST-sync EIO and flush. The failed commit barrier must be
    /// absorbed by a re-cut — the flush still acknowledges durably, with no
    /// reopen. `recut-arm` / `recut-done` bound the window.
    Recut,
    /// Online checkpoint (C1) into `ckpt/`, then capture the exact image
    /// the ack promised (the workload is quiescent, so a post-ack scan *is*
    /// the pinned snapshot). `ckpt-arm` / `ckpt-done` bound the window.
    Checkpoint,
}

/// The labelled invariants a scenario checks after every fault
/// (DESIGN.md §9): the same checks carry the single-engine labels I1–I5,
/// C1 or the cross-shard labels A1–A4.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Contract {
    /// Every key of a group shows one round (I2 batch / A1 2PC atomicity).
    pub atomic: &'static str,
    /// That round is ≥ the group's durable floor (I1 / A2).
    pub durable: &'static str,
    /// Every engine passes the [`verify_db`] walk (I3 / A3).
    pub integrity: &'static str,
    /// A second recovery scans the identical key space (I4 / A4).
    pub rerecovery: &'static str,
    /// Range-tombstone durability (I5), if the scenario deletes a range.
    pub range_delete: Option<&'static str>,
    /// Checkpoint atomicity (C1), if the scenario may checkpoint.
    pub checkpoint: Option<&'static str>,
}

const SINGLE_CONTRACT: Contract = Contract {
    atomic: "I2",
    durable: "I1",
    integrity: "I3",
    rerecovery: "I4",
    range_delete: Some("I5"),
    checkpoint: Some("C1"),
};

const SHARDED_CONTRACT: Contract = Contract {
    atomic: "A1",
    durable: "A2",
    integrity: "A3",
    rerecovery: "A4",
    range_delete: None,
    checkpoint: None,
};

/// Everything one sweep leg runs; built once from the [`SweepConfig`].
pub(crate) struct Scenario {
    opts: Options,
    /// `Some` selects the sharded target.
    router: Option<Router>,
    /// Keys of every atomic group.
    groups: Vec<Vec<String>>,
    /// Single-key filler writes per round.
    fillers: u32,
    phases: Vec<Phase>,
    pub contract: Contract,
}

impl Scenario {
    /// The single-engine scenario (write rounds, group + settled
    /// compaction, pinned hole punch, range delete, re-cut, optional
    /// checkpoint) or the sharded one (three rounds of 2PC commits).
    pub fn new(cfg: &SweepConfig) -> Result<Scenario> {
        let mut opts = Options::bolt().scaled(1.0 / 256.0);
        opts.compaction_policy = cfg.policy;
        if cfg.policy != CompactionPolicyKind::Leveled {
            opts.size_tiered_min_threshold = 2;
        }
        if cfg.vlog {
            // Every group value (~83 B) and hole value (160 B) crosses the
            // threshold and tiny segments force rotations, so the
            // rotate/seal windows are covered.
            opts.value_separation_threshold = Some(64);
            opts.vlog_segment_bytes = 4 << 10;
        }
        if cfg.sharded {
            if cfg.vlog || cfg.checkpoint {
                return Err(Error::InvalidArgument(
                    "the sharded scenario runs neither the compaction phases the vlog leg \
                     needs nor a checkpoint (ShardedDb has none)"
                        .into(),
                ));
            }
            let router = Router::hash(SHARDS)?;
            return Ok(Scenario {
                opts,
                groups: (0..4).map(|g| spanning_group(&router, g)).collect(),
                router: Some(router),
                fillers: 40,
                phases: vec![Phase::Round; 3],
                contract: SHARDED_CONTRACT,
            });
        }
        // Compact eagerly and keep level 1 tiny so the short workload
        // reaches group compaction, settled promotion (L1 → L2 moves) and
        // hole punching — every barrier in the §9 ordering contract shows
        // up in the recorded trace.
        opts.level0_compaction_trigger = 2;
        opts.level1_max_bytes = 12 << 10;
        use Phase::{Compact, Round};
        let mut phases = vec![
            Round,
            Round,
            Compact("compact-1"),
            Round,
            Round,
            Compact("compact-3"),
            Round,
            Round,
            Compact("compact-5"),
            Compact("final-compact"),
            Phase::HolePunch,
            Phase::RangeDelete,
            Phase::Recut,
        ];
        if cfg.checkpoint {
            phases.push(Phase::Checkpoint);
        }
        Ok(Scenario {
            opts,
            router: None,
            groups: (0..24)
                .map(|p| vec![format!("k{p:03}a"), format!("k{p:03}b")])
                .collect(),
            fillers: 60,
            phases,
            contract: SINGLE_CONTRACT,
        })
    }

    pub fn sharded(&self) -> bool {
        self.router.is_some()
    }
}

/// Five keys of group `g` that provably span at least two shards under
/// `router` — every group write must take the 2PC path, never the
/// single-shard fast path.
fn spanning_group(router: &Router, g: usize) -> Vec<String> {
    let key = |t: usize| format!("g{g:02}x{t:03}");
    let mut keys: Vec<String> = (0..5).map(key).collect();
    let first = router.route(keys[0].as_bytes());
    if keys.iter().all(|k| router.route(k.as_bytes()) == first) {
        let other = (5..1000)
            .map(key)
            .find(|k| router.route(k.as_bytes()) != first);
        keys[4] = other.expect("a hash router spreads 1000 keys over two shards");
    }
    keys
}

/// The database under test: the one seam between the driver and the two
/// engines it sweeps.
pub(crate) enum Target {
    Single(Db),
    Sharded(ShardedDb),
}

impl Target {
    pub fn open(env: &FaultEnv, name: &str, sc: &Scenario) -> Result<Target> {
        let env: Arc<dyn Env> = Arc::new(env.clone());
        Ok(match &sc.router {
            None => Target::Single(Db::open(env, name, sc.opts.clone())?),
            Some(r) => Target::Sharded(ShardedDb::open(env, name, sc.opts.clone(), r.clone())?),
        })
    }

    /// Every engine behind the target (one, or one per shard).
    fn engines(&self) -> Vec<&Db> {
        match self {
            Target::Single(db) => vec![db],
            Target::Sharded(db) => (0..db.shard_count()).map(|i| &**db.shard(i)).collect(),
        }
    }

    /// Apply `batch` atomically. `sync` is the single engine's per-batch
    /// override; a cross-shard commit always syncs its prepares and decide.
    fn write(&self, batch: WriteBatch, sync: Option<bool>) -> Result<()> {
        match self {
            Target::Single(db) => db.write_opt(batch, &WriteOptions { sync }),
            Target::Sharded(db) => db.write_batch(batch),
        }
    }

    /// The plain put / get / flush surface both engines already share.
    fn kv(&self) -> &dyn KvTarget {
        match self {
            Target::Single(db) => db,
            Target::Sharded(db) => db,
        }
    }

    fn delete_range(&self, begin: &[u8], end: &[u8]) -> Result<()> {
        match self {
            Target::Single(db) => db.delete_range(begin, end),
            Target::Sharded(db) => db.delete_range(begin, end),
        }
    }

    fn compact_until_quiet(&self) -> Result<()> {
        self.engines()
            .into_iter()
            .try_for_each(Db::compact_until_quiet)
    }

    /// Every live entry in key order (resolving every value pointer: V1).
    fn scan(&self) -> Result<Scan> {
        macro_rules! drain {
            ($iter:expr) => {{
                let mut iter = $iter;
                iter.seek_to_first()?;
                let mut out = Vec::new();
                while iter.valid() {
                    out.push((iter.key().to_vec(), iter.value().to_vec()));
                    iter.next()?;
                }
                Ok(out)
            }};
        }
        match self {
            Target::Single(db) => drain!(db.iter()?),
            Target::Sharded(db) => drain!(db.iter()?),
        }
    }

    pub fn close(&self) -> Result<()> {
        match self {
            Target::Single(db) => db.close(),
            Target::Sharded(db) => db.close(),
        }
    }
}

/// How far the range-delete phase provably got, in durability terms. Each
/// transition is recorded *around* the call that makes it true, so after a
/// crash the recovered state can be asserted exactly at the boundaries and
/// left indeterminate in between (an unsynced tombstone may or may not have
/// reached the WAL).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum RdPhase {
    /// Phase not reached (or its writes not yet flushed).
    #[default]
    NotStarted,
    /// All `rd*` writes flushed: they are durable.
    WritesDurable,
    /// `delete_range` was issued; its ack is unknown.
    DeleteAttempted,
    /// `delete_range` returned `Ok` (unsynced).
    DeleteAcked,
    /// A flush completed after the ack: the tombstone is durable.
    DeleteDurable,
    /// Rebirth writes were issued over the covered range.
    RebirthAttempted,
    /// Rebirth writes flushed: they are durable.
    RebirthDurable,
}

/// What the workload was told about one group's writes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GroupState {
    /// Highest round whose write call was *issued* (acked or not).
    pub attempted: Option<u32>,
    /// Highest round acknowledged.
    pub acked: Option<u32>,
    /// Highest round guaranteed durable: acked with `sync = true`, acked as
    /// a 2PC commit, or acked before a flush that completed.
    pub durable_floor: Option<u32>,
}

/// The workload's own account of one run: what it attempted, what was
/// acknowledged, and what it therefore may demand of recovery.
#[derive(Default)]
pub(crate) struct Model {
    pub groups: Vec<GroupState>,
    /// Range-delete phase progress.
    pub rd: RdPhase,
    /// `checkpoint("ckpt")` returned `Ok`.
    pub ckpt_acked: bool,
    /// Full scan captured right after the checkpoint ack.
    pub ckpt_expected: Option<Scan>,
    /// Errors the workload observed (open/write/flush/compact/close).
    pub errors: usize,
    pub stats: SweepCoverage,
}

/// One workload run in progress.
struct Run<'a> {
    env: &'a FaultEnv,
    sc: &'a Scenario,
    db: &'a Target,
    /// Rounds written so far (the next round's number).
    round: u32,
    model: Model,
}

impl Run<'_> {
    /// Count a failed operation. `None` ends the current phase through `?`;
    /// the workload itself ends once the env has crashed.
    fn step<T>(&mut self, result: Result<T>) -> Option<T> {
        if result.is_err() {
            self.model.errors += 1;
        }
        result.ok()
    }

    /// [`Run::step`] for operations whose failure the phase survives (an
    /// injected EIO fails one write; the next may succeed): yields whether
    /// the operation succeeded, and only a crash ends the phase.
    fn tolerate<T>(&mut self, result: Result<T>) -> Option<bool> {
        let ok = self.step(result).is_some();
        (ok || !self.env.crashed()).then_some(ok)
    }

    /// A completed flush commits the memtable: everything acknowledged so
    /// far is durable even without sync.
    fn flush(&mut self) -> Option<()> {
        self.step(self.db.kv().flush())?;
        for group in &mut self.model.groups {
            group.durable_floor = group.durable_floor.max(group.acked);
        }
        Some(())
    }

    /// Rewrite group `g` with this round's value in one atomic batch;
    /// yields whether the write was acknowledged.
    fn write_group(&mut self, g: usize, sync: bool) -> Option<bool> {
        let (round, two_pc) = (self.round, self.sc.sharded());
        let value = group_value(round, g);
        let mut batch = WriteBatch::new();
        for key in &self.sc.groups[g] {
            batch.put(key.as_bytes(), value.as_bytes());
        }
        if two_pc {
            self.env.mark(&format!("txn-r{round}g{g}-arm"));
        }
        self.model.groups[g].attempted = Some(round);
        let acked = self.tolerate(self.db.write(batch, Some(sync)))?;
        if acked {
            let group = &mut self.model.groups[g];
            group.acked = Some(round);
            if sync || two_pc {
                group.durable_floor = Some(round);
            }
            if two_pc {
                self.model.stats.cross_shard_txns += 1;
                self.env.mark(&format!("txn-r{round}g{g}-done"));
            }
        }
        Some(acked)
    }

    fn phase(&mut self, phase: Phase) -> Option<()> {
        let db = self.db;
        match phase {
            Phase::Round => {
                let round = self.round;
                for g in 0..self.sc.groups.len() {
                    self.write_group(g, (round as usize + g).is_multiple_of(3))?;
                }
                // Round r rewrites disjoint filler range `f{r % 3}`: the
                // disjointness manufactures settled-compaction victims, and
                // rewriting a range on a later round kills the earlier
                // tables so garbage collection has holes to punch.
                for i in 0..self.sc.fillers {
                    let key = format!("f{:02}key{i:04}", round % FILLER_RANGES);
                    self.tolerate(db.kv().put(key.as_bytes(), &[b'z'; 100]))?;
                }
                self.round += 1;
                self.env.mark(&format!("round-{round}"));
                self.flush()?;
            }
            Phase::Compact(label) => {
                self.step(db.compact_until_quiet())?;
                self.env.mark(label);
            }
            Phase::HolePunch => {
                for i in 0..HOLE_KEYS {
                    self.step(db.kv().put(hole_key(i).as_bytes(), &[b'h'; 160]))?;
                }
                self.step(db.kv().flush())?;
                self.step(db.compact_until_quiet())?;
                let (begin, end) = (hole_key(HOLE_KEYS / 3), hole_key(2 * HOLE_KEYS / 3));
                for i in HOLE_KEYS / 3..2 * HOLE_KEYS / 3 {
                    self.step(db.kv().put(hole_key(i).as_bytes(), &[b'H'; 160]))?;
                }
                self.step(db.kv().flush())?;
                for engine in db.engines() {
                    self.step(engine.compact_range(begin.as_bytes(), end.as_bytes()))?;
                }
                self.step(db.compact_until_quiet())?;
                self.env.mark("hole-punch");
            }
            Phase::RangeDelete => {
                for i in 0..RD_KEYS {
                    self.step(db.kv().put(rd_key(i).as_bytes(), &rd_alive(i)))?;
                }
                self.step(db.kv().flush())?;
                self.model.rd = RdPhase::WritesDurable;
                self.env.mark("range-delete");
                self.model.rd = RdPhase::DeleteAttempted;
                let (begin, end) = (rd_key(RD_DEL_BEGIN), rd_key(RD_DEL_END));
                self.step(db.delete_range(begin.as_bytes(), end.as_bytes()))?;
                self.model.rd = RdPhase::DeleteAcked;
                self.step(db.kv().flush())?;
                self.model.rd = RdPhase::DeleteDurable;
                self.model.rd = RdPhase::RebirthAttempted;
                for i in RD_REBIRTH_BEGIN..RD_REBIRTH_END {
                    self.step(db.kv().put(rd_key(i).as_bytes(), &rd_reborn(i)))?;
                }
                self.step(db.kv().flush())?;
                self.model.rd = RdPhase::RebirthDurable;
                // Drive the tombstone down through the data tables.
                self.step(db.compact_until_quiet())?;
            }
            Phase::Recut => {
                for g in 0..self.sc.groups.len() {
                    if !self.write_group(g, false)? {
                        return None;
                    }
                }
                self.round += 1;
                self.env.mark("recut-arm");
                self.env.extend_plan(
                    FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").expect("static plan"),
                );
                self.flush()?;
                self.env.mark("recut-done");
            }
            Phase::Checkpoint => {
                self.env.mark("ckpt-arm");
                let Target::Single(engine) = db else {
                    unreachable!("Scenario::new refuses a sharded checkpoint");
                };
                self.step(engine.checkpoint("ckpt"))?;
                self.model.ckpt_acked = true;
                self.model.ckpt_expected = Some(self.step(db.scan())?);
                self.env.mark("ckpt-done");
            }
        }
        Some(())
    }
}

/// Run the scenario's phases over `env` and return the workload's model.
/// Every I/O failure is tolerated and counted; once the env reports a
/// crash the workload stops early.
pub(crate) fn run_workload(env: &FaultEnv, sc: &Scenario) -> Model {
    let mut model = Model {
        groups: vec![GroupState::default(); sc.groups.len()],
        ..Model::default()
    };
    let db = match Target::open(env, "db", sc) {
        Ok(db) => db,
        Err(_) => {
            model.errors += 1;
            return model;
        }
    };
    let mut run = Run {
        env,
        sc,
        db: &db,
        round: 0,
        model,
    };
    for &phase in &sc.phases {
        let _ = run.phase(phase);
        if env.crashed() {
            break;
        }
    }
    let mut model = run.model;
    if db.close().is_err() {
        model.errors += 1;
    }
    // Capture coverage only after close() has joined the background
    // threads: a MANIFEST re-cut absorbing an injected sync error can land
    // in a late background compaction, and snapshotting `manifest_recuts`
    // before the join undercounts it — making a correctly-absorbed fault
    // look swallowed.
    let metrics = db.kv().metrics();
    let s = metrics.db;
    model.stats = SweepCoverage {
        flushes: s.flushes,
        compactions: s.compactions,
        settled_moves: s.settled_moves,
        holes_punched: metrics.io.holes_punched,
        recuts: metrics.manifest_recuts,
        vlog_separated: s.vlog_values_separated,
        vlog_retired: s.vlog_segments_retired,
        range_deletes: s.range_deletes,
        checkpoints: s.checkpoints,
        ..model.stats
    };
    model
}

/// Appends `"<point>: <message>"` lines for one fault point.
struct Report<'a> {
    point: &'a str,
    violations: &'a mut Vec<String>,
}

impl Report<'_> {
    fn push(&mut self, message: std::fmt::Arguments<'_>) {
        self.violations.push(format!("{}: {message}", self.point));
    }
}

fn lossy(value: &Option<Vec<u8>>) -> Option<std::borrow::Cow<'_, str>> {
    value.as_deref().map(String::from_utf8_lossy)
}

/// Open the recovered database and check the scenario's [`Contract`]
/// against the replay's model, appending any violation to `violations`.
pub(crate) fn check_invariants(
    env: &FaultEnv,
    sc: &Scenario,
    model: &Model,
    point: &str,
    violations: &mut Vec<String>,
) {
    let mut report = Report { point, violations };
    let c = sc.contract;

    // C1 first, so a wedged source database cannot mask checkpoint damage:
    // an acked checkpoint must open and equal the pinned snapshot; an
    // unacked one must either have no CURRENT (ignorable garbage, never
    // opened — `Db::open` would create a fresh database there) or open
    // cleanly as the complete image whose ack simply never returned.
    if let Some(c1) = c.checkpoint {
        if model.ckpt_acked || env.file_exists("ckpt/CURRENT") {
            match Target::open(env, "ckpt", sc) {
                Ok(copy) => {
                    check_integrity(&copy, &format!("{c1} checkpoint"), &mut report);
                    match (copy.scan(), &model.ckpt_expected) {
                        (Ok(scan), Some(expected)) if &scan != expected => {
                            report.push(format_args!(
                                "{c1} checkpoint diverged from pinned snapshot: {} vs {} entries",
                                scan.len(),
                                expected.len()
                            ))
                        }
                        (Err(e), _) => {
                            report.push(format_args!("{c1} checkpoint scan failed: {e}"))
                        }
                        _ => {}
                    }
                    let _ = copy.close();
                }
                Err(e) => report.push(format_args!("{c1} checkpoint failed to open: {e}")),
            }
        }
    }

    let db = match Target::open(env, "db", sc) {
        Ok(db) => db,
        Err(e) => return report.push(format_args!("recovery failed to open: {e}")),
    };
    check_integrity(&db, c.integrity, &mut report);
    check_groups(&db, sc, model, &mut report);
    if let Some(i5) = c.range_delete {
        check_range_delete(&db, model.rd, i5, &mut report);
    }

    // Idempotent re-recovery: a second recovery must see the identical key
    // space.
    let i4 = c.rerecovery;
    let scan1 = match db.scan() {
        Ok(scan) => scan,
        Err(e) => {
            let _ = db.close();
            return report.push(format_args!("scan after recovery failed: {e}"));
        }
    };
    if let Err(e) = db.close() {
        return report.push(format_args!("close after recovery failed: {e}"));
    }
    match Target::open(env, "db", sc) {
        Ok(db2) => {
            match db2.scan() {
                Ok(scan2) if scan2 == scan1 => {}
                Ok(scan2) => report.push(format_args!(
                    "{i4} re-recovery diverged: {} vs {} entries",
                    scan1.len(),
                    scan2.len()
                )),
                Err(e) => report.push(format_args!("{i4} re-scan failed: {e}")),
            }
            let _ = db2.close();
        }
        Err(e) => report.push(format_args!("{i4} re-open failed: {e}")),
    }
}

/// The MANIFEST of every engine references only present, checksum-clean
/// data (never unsynced or hole-punched bytes).
fn check_integrity(db: &Target, label: &str, report: &mut Report<'_>) {
    for (i, engine) in db.engines().into_iter().enumerate() {
        if let Err(e) = verify_db(engine) {
            report.push(format_args!(
                "{label} integrity walk failed on engine {i}: {e}"
            ));
        }
    }
}

/// The atomic-group invariant: all keys of a group show one round, at or
/// above the group's durable floor and never beyond the attempted round.
fn check_groups(db: &Target, sc: &Scenario, model: &Model, report: &mut Report<'_>) {
    let c = sc.contract;
    for (g, (keys, state)) in sc.groups.iter().zip(&model.groups).enumerate() {
        let values: Result<Vec<_>> = keys.iter().map(|k| db.kv().get(k.as_bytes())).collect();
        let values = match values {
            Ok(values) => values,
            Err(e) => {
                report.push(format_args!("group {g} read failed: {e}"));
                continue;
            }
        };
        if values.windows(2).any(|w| w[0] != w[1]) {
            report.push(format_args!(
                "{} torn batch visible in group {g}: {:?}",
                c.atomic,
                values.iter().map(lossy).collect::<Vec<_>>()
            ));
            continue;
        }
        let recovered = values[0].as_deref().and_then(value_round);
        match (state.durable_floor, recovered) {
            (Some(floor), None) => report.push(format_args!(
                "{} group {g} lost: durable through round {floor}, found nothing",
                c.durable
            )),
            (Some(floor), Some(r)) if r < floor => report.push(format_args!(
                "{} group {g} rolled back: durable through round {floor}, found {r}",
                c.durable
            )),
            _ => {}
        }
        // Recovery can surface an unacked write (it may have reached the
        // WAL, or the decide record the log) but never one that was not
        // even attempted.
        if recovered.is_some_and(|r| state.attempted.is_none_or(|a| r > a)) {
            report.push(format_args!(
                "group {g} contains round {recovered:?} beyond attempts ({:?})",
                state.attempted
            ));
        }
    }
}

/// Range-tombstone visibility at the recorded durability boundaries.
/// Uncovered keys are never deleted, so once their writes were durable they
/// must read back exactly; covered keys must be gone once the tombstone was
/// durable (unless durably reborn) and intact while it was never attempted.
/// Between attempt and durability the unsynced tombstone may or may not
/// have reached the WAL, so only the *value* is pinned, not presence.
fn check_range_delete(db: &Target, rd: RdPhase, i5: &str, report: &mut Report<'_>) {
    if rd < RdPhase::WritesDurable {
        return;
    }
    for i in 0..RD_KEYS {
        let got = match db.kv().get(rd_key(i).as_bytes()) {
            Ok(got) => got,
            Err(e) => {
                report.push(format_args!("{i5} read rd{i:04} failed: {e}"));
                continue;
            }
        };
        let alive = got.as_deref() == Some(&rd_alive(i)[..]);
        if !(RD_DEL_BEGIN..RD_DEL_END).contains(&i) {
            if !alive {
                report.push(format_args!(
                    "{i5} uncovered key rd{i:04} corrupted: {:?}",
                    lossy(&got)
                ));
            }
            continue;
        }
        let reborn = (RD_REBIRTH_BEGIN..RD_REBIRTH_END).contains(&i);
        let is_reborn = got.as_deref() == Some(&rd_reborn(i)[..]);
        let ok = match rd {
            RdPhase::NotStarted => true,
            // Tombstone never issued: the durable write must be there.
            RdPhase::WritesDurable => alive,
            // Issued but not durable: absent or the old value.
            RdPhase::DeleteAttempted | RdPhase::DeleteAcked => got.is_none() || alive,
            // Tombstone durable, rebirth not: absent, or the reborn value
            // if its unsynced write happened to survive.
            RdPhase::DeleteDurable | RdPhase::RebirthAttempted => {
                got.is_none() || (reborn && is_reborn)
            }
            // Rebirth durable: reborn keys back, the rest still gone.
            RdPhase::RebirthDurable if reborn => is_reborn,
            RdPhase::RebirthDurable => got.is_none(),
        };
        if !ok {
            report.push(format_args!(
                "{i5} covered key rd{i:04} wrong at phase {rd:?}: {:?}",
                lossy(&got)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_env::CrashConfig;

    /// Run the scenario fault-free and power-cycle cleanly: a correctly
    /// recovered image plus the workload's truthful model.
    fn recovered(cfg: &SweepConfig) -> (FaultEnv, Scenario, Model) {
        let sc = Scenario::new(cfg).expect("scenario");
        let env = FaultEnv::over_mem();
        let model = run_workload(&env, &sc);
        assert_eq!(model.errors, 0, "record run saw errors");
        env.crash_inner(CrashConfig::Clean);
        env.reset();
        (env, sc, model)
    }

    fn violations(env: &FaultEnv, sc: &Scenario, model: &Model) -> Vec<String> {
        let mut violations = Vec::new();
        check_invariants(env, sc, model, "probe", &mut violations);
        violations
    }

    /// The full workload followed by a clean power-cycle must satisfy every
    /// invariant — in particular I5: a durable range tombstone must not let
    /// covered keys resurface after recovery, no matter how compaction
    /// fragmented it across output tables.
    #[test]
    fn workload_invariants_hold_after_clean_powercycle() {
        let (env, sc, record) = recovered(&SweepConfig {
            checkpoint: true,
            ..SweepConfig::default()
        });
        assert_eq!(record.rd, RdPhase::RebirthDurable);
        assert!(record.ckpt_acked);
        // The live scan the checkpoint pinned must already honour the
        // tombstone: covered, un-reborn keys are absent.
        let expected = record.ckpt_expected.as_ref().expect("scan captured");
        for i in RD_DEL_BEGIN..RD_DEL_END {
            if (RD_REBIRTH_BEGIN..RD_REBIRTH_END).contains(&i) {
                continue;
            }
            assert!(
                !expected.iter().any(|(k, _)| k == rd_key(i).as_bytes()),
                "live scan resurrected covered key rd{i:04}"
            );
        }
        let violations = violations(&env, &sc, &record);
        assert!(violations.is_empty(), "{violations:#?}");
    }

    /// The harness can fail: against a correctly recovered image, a model
    /// (or image) doctored to over-claim one invariant must draw exactly
    /// that invariant's labelled violation — on both targets.
    #[test]
    fn every_invariant_reports_an_overclaiming_model() {
        type Doctor = fn(&FaultEnv, &Scenario, &mut Model);
        let floor_too_high: Doctor = |_, _, model| {
            let floor = &mut model.groups[0].durable_floor;
            *floor = floor.map(|r| r + 1);
        };
        let halves_differ: Doctor = |env, sc, model| {
            // Rewrite one key of group 0 alone, as a later round.
            let round = model.groups[0].attempted.expect("group written") + 1;
            model.groups[0].attempted = Some(round);
            let db = Target::open(env, "db", sc).expect("open");
            let key = sc.groups[0][0].as_bytes();
            db.kv()
                .put(key, group_value(round, 0).as_bytes())
                .expect("put");
            db.close().expect("close");
        };
        let tombstone_not_durable: Doctor = |env, sc, model| {
            // Bring the covered keys back, then claim the tombstone durable
            // and nothing reborn.
            let db = Target::open(env, "db", sc).expect("open");
            for i in RD_DEL_BEGIN..RD_DEL_END {
                db.kv()
                    .put(rd_key(i).as_bytes(), &rd_alive(i))
                    .expect("put");
            }
            db.close().expect("close");
            model.rd = RdPhase::DeleteDurable;
        };
        let checkpoint_unpublished: Doctor = |env, _, model| {
            assert!(model.ckpt_acked);
            env.delete_file("ckpt/CURRENT").expect("delete CURRENT");
        };
        let single = SweepConfig {
            checkpoint: true,
            ..SweepConfig::default()
        };
        let sharded = SweepConfig::for_sharded();
        let rows: [(&str, &SweepConfig, Doctor); 6] = [
            ("I1", &single, floor_too_high),
            ("I2", &single, halves_differ),
            ("I5", &single, tombstone_not_durable),
            ("C1", &single, checkpoint_unpublished),
            ("A2", &sharded, floor_too_high),
            ("A1", &sharded, halves_differ),
        ];
        for (label, cfg, doctor) in rows {
            let (env, sc, mut model) = recovered(cfg);
            doctor(&env, &sc, &mut model);
            let violations = violations(&env, &sc, &model);
            assert!(
                !violations.is_empty()
                    && violations
                        .iter()
                        .all(|v| v.starts_with(&format!("probe: {label} "))),
                "{label}: expected only {label} violations, got {violations:#?}"
            );
        }
    }
}
