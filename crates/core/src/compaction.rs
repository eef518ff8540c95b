//! Compaction picking behind the pluggable [`CompactionPolicy`] trait:
//! victims, group selection, settled-compaction candidates, clusters, and
//! the entry-drop rule.
//!
//! Three policies ship (see `DESIGN.md` §13 for the design-space mapping
//! and `docs/compaction-tuning.md` for when to pick which):
//!
//! * [`CompactionPolicyKind::Leveled`] — the classic picker, behavior-
//!   identical to the engine before policies were pluggable;
//! * [`CompactionPolicyKind::SizeTiered`] — STCS size-band bucketing,
//!   every level holds overlapping runs;
//! * [`CompactionPolicyKind::LazyLeveled`] — tiered above, leveled at the
//!   largest level.
//!
//! This module is pure metadata logic (no I/O) so it can be unit-tested
//! exhaustively; execution lives in `db/compact.rs`.

use std::sync::Arc;

use bolt_table::comparator::{Comparator, InternalKeyComparator};
use bolt_table::ikey::{ParsedInternalKey, SequenceNumber, ValueType};

use crate::options::{CompactionPolicyKind, CompactionStyle, Options};
use crate::version::{Run, RunLayout, TableList, TableMeta, Version};

/// Why a compaction was scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionReason {
    /// Too many runs in level 0.
    Level0,
    /// A level exceeded its byte limit.
    Size,
    /// A table burned its seek budget (LevelDB seek compaction).
    Seek,
}

/// How a compaction's merged output lands at [`CompactionTask::output_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputShape {
    /// Output joins the level's single sorted run (tag 0). Inputs include
    /// the overlapping tables already there (`next_inputs`), the merge is
    /// split into independent [`Cluster`]s, and compact pointers advance.
    Leveled,
    /// Output becomes a *fresh* run appended at the output level, newer
    /// than every run already there. Existing runs are untouched, so
    /// `next_inputs` is empty and the whole input set merges as one unit.
    AppendRun,
    /// Output *replaces* the merged runs in place at the source level
    /// (deepest-level tiered merge: there is nowhere further down). The
    /// output run reuses `tag` — the tag of the newest input run — so it
    /// stays correctly ordered against any runs left behind.
    ReplaceRun {
        /// Run tag the merged output is committed under.
        tag: u64,
    },
}

/// A picked compaction, ready for execution by `db/compact.rs`.
///
/// Produced by a [`CompactionPolicy`] (via [`pick_compaction`]) or by the
/// manual-compaction path. `input_runs` holds the victims at `level`
/// grouped by source run; `output_level` and `output` describe where and
/// in what shape the merged result lands.
#[derive(Debug)]
pub struct CompactionTask {
    /// Source level.
    pub level: usize,
    /// Level the merged output (and any settled moves) lands at. Equal to
    /// `level + 1` except for in-place deepest-level tiered merges
    /// ([`OutputShape::ReplaceRun`]), where it equals `level`.
    pub output_level: usize,
    /// Why it was picked.
    pub reason: CompactionReason,
    /// Victims at `level` to merge, grouped by run (each group sorted and
    /// internally disjoint). A run taken whole is the version's own list,
    /// not a copy; only a subset of a run is a list of its own.
    pub input_runs: Vec<TableList>,
    /// Overlapping tables at `output_level` that must be rewritten with the
    /// victims (sorted, disjoint; non-empty only for
    /// [`OutputShape::Leveled`]).
    pub next_inputs: Vec<Arc<TableMeta>>,
    /// Zero-overlap victims promoted without rewriting (settled compaction
    /// or LevelDB trivial move).
    pub settled_moves: Vec<Arc<TableMeta>>,
    /// Shape of the merged output at `output_level`.
    pub output: OutputShape,
}

impl CompactionTask {
    /// The victims at `level` being merged, run by run.
    pub fn victims(&self) -> impl Iterator<Item = &Arc<TableMeta>> {
        self.input_runs.iter().flat_map(|run| run.iter())
    }

    /// All tables being merged (not the settled moves).
    pub fn merge_inputs(&self) -> impl Iterator<Item = &Arc<TableMeta>> {
        self.victims().chain(self.next_inputs.iter())
    }

    /// Total bytes entering the merge.
    pub fn input_bytes(&self) -> u64 {
        self.merge_inputs().map(|t| t.size).sum()
    }

    /// `true` when there is nothing to merge (pure settled move).
    pub fn is_move_only(&self) -> bool {
        self.input_runs.iter().all(|r| r.is_empty()) && self.next_inputs.is_empty()
    }

    /// Largest victim internal key (the new compact pointer for the level).
    pub fn max_victim_key(&self, icmp: &InternalKeyComparator) -> Option<Vec<u8>> {
        self.victims()
            .chain(self.settled_moves.iter())
            .map(|t| t.largest.clone())
            .max_by(|a, b| icmp.compare(a, b))
    }
}

/// Pluggable victim-selection strategy: the "victim choice" and "data
/// layout" knobs of the compaction design space (`DESIGN.md` §13).
///
/// Policies are stateless unit structs that read their tuning knobs from
/// [`Options`]; obtain the instance matching an option set with
/// [`policy_for`]. A policy decides *which* tables merge and *where* the
/// output lands ([`OutputShape`]); execution, barriers, and MANIFEST
/// commits in `db/compact.rs` are policy-agnostic.
///
/// The two hooks must agree: whenever [`CompactionPolicy::needs_compaction`]
/// is `true`, [`CompactionPolicy::pick`] must return a task, or the
/// background scheduler would spin without making progress.
///
/// ```
/// use bolt_core::{policy_for, CompactionPolicyKind, Options};
///
/// let opts = Options::bolt();
/// let policy = policy_for(opts.compaction_policy);
/// assert_eq!(policy.kind(), CompactionPolicyKind::Leveled);
/// ```
pub trait CompactionPolicy: Send + Sync + std::fmt::Debug {
    /// Which layout family this policy implements (also what gets pinned
    /// in the MANIFEST).
    fn kind(&self) -> CompactionPolicyKind;

    /// Per-level compaction scores; `>= 1.0` means the level needs work.
    /// The flush scheduler and `compact_until_quiet` consult these.
    fn level_scores(&self, opts: &Options, version: &Version) -> Vec<f64>;

    /// `true` if any level scores `>= 1.0` (ignoring seek candidates).
    fn needs_compaction(&self, opts: &Options, version: &Version) -> bool {
        self.level_scores(opts, version).iter().any(|&s| s >= 1.0)
    }

    /// Pick the next compaction, if any. The per-level round-robin cursors
    /// (used by the leveled policy only) are `version`'s own;
    /// `seek_candidate` is a `(level, table)` pair charged out of its seek
    /// budget, consulted only when no size-based compaction is due.
    fn pick(
        &self,
        opts: &Options,
        icmp: &InternalKeyComparator,
        version: &Version,
        seek_candidate: Option<(usize, Arc<TableMeta>)>,
    ) -> Option<CompactionTask>;
}

/// The static [`CompactionPolicy`] instance for `kind`.
///
/// Policies are stateless (all tuning lives on [`Options`]), so a static
/// reference suffices — no allocation, no registry.
pub fn policy_for(kind: CompactionPolicyKind) -> &'static dyn CompactionPolicy {
    match kind {
        CompactionPolicyKind::Leveled => &LeveledPolicy,
        CompactionPolicyKind::SizeTiered => &SizeTieredPolicy,
        CompactionPolicyKind::LazyLeveled => &LazyLeveledPolicy,
    }
}

/// The run-layout invariant `VersionBuilder::build` must enforce for this
/// option set (which levels may hold more than one sorted run).
pub fn run_layout_for(opts: &Options) -> RunLayout {
    if matches!(opts.compaction_style, CompactionStyle::Fragmented) {
        // The fragmented (guard-based) style predates pluggable policies
        // and allows overlapping runs everywhere.
        return RunLayout::Unrestricted;
    }
    match opts.compaction_policy {
        CompactionPolicyKind::Leveled => RunLayout::SingleRunBeyond(1),
        CompactionPolicyKind::SizeTiered => RunLayout::Unrestricted,
        CompactionPolicyKind::LazyLeveled => {
            RunLayout::SingleRunBeyond(opts.num_levels.saturating_sub(1))
        }
    }
}

/// Compute the compaction score of every level under the configured
/// policy; a score `>= 1.0` means "needs work".
///
/// Convenience wrapper over [`CompactionPolicy::level_scores`] for
/// `opts.compaction_policy`.
pub fn level_scores(opts: &Options, version: &Version) -> Vec<f64> {
    policy_for(opts.compaction_policy).level_scores(opts, version)
}

/// `true` if any level needs compaction under the configured policy
/// (ignoring seek candidates).
pub fn needs_compaction(opts: &Options, version: &Version) -> bool {
    policy_for(opts.compaction_policy).needs_compaction(opts, version)
}

/// Pick the next compaction, if any, under `opts.compaction_policy`.
///
/// `seek_candidate` is a `(level, table)` pair charged out of its seek
/// budget; it and `version`'s round-robin cursors are consulted only by
/// policies that use them (the leveled policy; tiered policies ignore them). Convenience wrapper over
/// [`CompactionPolicy::pick`].
pub fn pick_compaction(
    opts: &Options,
    icmp: &InternalKeyComparator,
    version: &Version,
    seek_candidate: Option<(usize, Arc<TableMeta>)>,
) -> Option<CompactionTask> {
    policy_for(opts.compaction_policy).pick(opts, icmp, version, seek_candidate)
}

/// The classic leveled picker: single sorted run per level beyond L0,
/// size-ratio triggers, round-robin (or settled least-overlap) victim
/// choice. Behavior-identical to the engine before policies were
/// pluggable; also hosts the fragmented-style and seek-compaction paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeveledPolicy;

impl CompactionPolicy for LeveledPolicy {
    fn kind(&self) -> CompactionPolicyKind {
        CompactionPolicyKind::Leveled
    }

    fn level_scores(&self, opts: &Options, version: &Version) -> Vec<f64> {
        let mut scores = vec![0.0; version.levels.len()];
        scores[0] = version.levels[0].num_runs() as f64 / opts.level0_compaction_trigger as f64;
        // The deepest level has no target below it.
        for (level, score) in scores
            .iter_mut()
            .enumerate()
            .take(version.levels.len().saturating_sub(1))
            .skip(1)
        {
            *score = version.levels[level].size() as f64 / opts.max_bytes_for_level(level) as f64;
        }
        scores
    }

    fn pick(
        &self,
        opts: &Options,
        icmp: &InternalKeyComparator,
        version: &Version,
        seek_candidate: Option<(usize, Arc<TableMeta>)>,
    ) -> Option<CompactionTask> {
        let scores = self.level_scores(opts, version);
        let (best_level, best_score) = scores
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))?;

        if best_score >= 1.0 {
            if matches!(opts.compaction_style, CompactionStyle::Fragmented) {
                return Some(pick_fragmented(version, best_level));
            }
            if best_level == 0 {
                return Some(pick_level0(icmp, version));
            }
            return Some(pick_leveled(opts, icmp, version, best_level));
        }

        // Seek compaction (stock LevelDB only).
        if opts.seek_compaction {
            if let Some((level, table)) = seek_candidate {
                if level + 1 < version.levels.len()
                    && version.levels[level]
                        .tables()
                        .any(|t| t.table_id == table.table_id)
                {
                    if level == 0 {
                        // L0 runs overlap each other: compacting one table in
                        // isolation would sink a newer version below an older
                        // one. Take the whole of level 0 (LevelDB expands L0
                        // inputs to all overlapping files for the same reason).
                        let mut task = pick_level0(icmp, version);
                        task.reason = CompactionReason::Seek;
                        return Some(task);
                    }
                    let next_inputs = version.overlapping_tables(
                        icmp,
                        level + 1,
                        table.smallest_user_key(),
                        table.largest_user_key(),
                    );
                    return Some(CompactionTask {
                        level,
                        output_level: level + 1,
                        reason: CompactionReason::Seek,
                        input_runs: vec![[table].into()],
                        next_inputs,
                        settled_moves: Vec::new(),
                        output: OutputShape::Leveled,
                    });
                }
            }
        }
        None
    }
}

fn pick_fragmented(version: &Version, level: usize) -> CompactionTask {
    // Merge the *entire* level into one run appended at level + 1. Merging
    // whole levels preserves the recency invariant between runs.
    CompactionTask {
        level,
        output_level: level + 1,
        reason: if level == 0 {
            CompactionReason::Level0
        } else {
            CompactionReason::Size
        },
        input_runs: version.levels[level].table_lists(),
        next_inputs: Vec::new(),
        settled_moves: Vec::new(),
        output: OutputShape::AppendRun,
    }
}

/// Level 0 is governed by run count, not size knobs: take all of it.
fn pick_level0(icmp: &InternalKeyComparator, version: &Version) -> CompactionTask {
    let input_runs = version.levels[0].table_lists();
    let (mut begin, mut end): (Option<Vec<u8>>, Option<Vec<u8>>) = (None, None);
    let ucmp = icmp.user_comparator();
    for table in version.levels[0].tables() {
        let s = table.smallest_user_key().to_vec();
        let l = table.largest_user_key().to_vec();
        begin = Some(match begin {
            None => s,
            Some(b) if ucmp.compare(&s, &b).is_lt() => s,
            Some(b) => b,
        });
        end = Some(match end {
            None => l,
            Some(e) if ucmp.compare(&l, &e).is_gt() => l,
            Some(e) => e,
        });
    }
    let next_inputs = match (&begin, &end) {
        (Some(b), Some(e)) => version.overlapping_tables(icmp, 1, b, e),
        _ => Vec::new(),
    };
    CompactionTask {
        level: 0,
        output_level: 1,
        reason: CompactionReason::Level0,
        input_runs,
        next_inputs,
        settled_moves: Vec::new(),
        output: OutputShape::Leveled,
    }
}

fn overlap_bytes(
    icmp: &InternalKeyComparator,
    version: &Version,
    level: usize,
    table: &TableMeta,
) -> u64 {
    version
        .overlapping_tables(
            icmp,
            level,
            table.smallest_user_key(),
            table.largest_user_key(),
        )
        .iter()
        .map(|t| t.size)
        .sum()
}

fn pick_leveled(
    opts: &Options,
    icmp: &InternalKeyComparator,
    version: &Version,
    level: usize,
) -> CompactionTask {
    let run = &version.levels[level].runs[0];
    let tables = &run.tables;
    debug_assert!(!tables.is_empty());

    let bolt = opts.bolt_options();
    let group_budget = bolt.map(|b| b.group_compaction_bytes).unwrap_or(0); // non-BoLT: single victim
    let settled = bolt.map(|b| b.settled_compaction).unwrap_or(false);

    let mut victims: Vec<Arc<TableMeta>> = Vec::new();
    if settled {
        // Settled compaction: pick the N least-overlapping victims
        // anywhere in the level (§3.4) until the group budget is covered.
        let mut scored: Vec<(u64, usize)> = tables
            .iter()
            .enumerate()
            .map(|(i, t)| (overlap_bytes(icmp, version, level + 1, t), i))
            .collect();
        scored.sort();
        let mut total = 0u64;
        for (_, idx) in scored {
            victims.push(Arc::clone(&tables[idx]));
            total += tables[idx].size;
            if total >= group_budget {
                break;
            }
        }
        victims.sort_by(|a, b| icmp.compare(&a.smallest, &b.smallest));
    } else {
        // Round-robin start after the compact pointer.
        let start = match version.compact_pointer(level) {
            Some(ptr) => {
                let idx = tables.partition_point(|t| icmp.compare(&t.largest, ptr).is_le());
                if idx >= tables.len() {
                    0
                } else {
                    idx
                }
            }
            None => 0,
        };
        let mut total = 0u64;
        for table in &tables[start..] {
            victims.push(Arc::clone(table));
            total += table.size;
            if total >= group_budget || group_budget == 0 {
                break;
            }
        }
    }

    // Partition victims into moves (no next-level overlap) and merge
    // victims. Zero-overlap victims are never rewritten: for settled
    // compaction this is the *deliberate* §3.4 mechanism (the selection
    // above preferred them); for the other styles it is LevelDB's
    // opportunistic trivial move.
    let mut settled_moves = Vec::new();
    let mut merge_victims = Vec::new();
    for victim in victims {
        let overlap = overlap_bytes(icmp, version, level + 1, &victim);
        if overlap == 0 {
            settled_moves.push(victim);
        } else {
            merge_victims.push(victim);
        }
    }

    let mut next_inputs: Vec<Arc<TableMeta>> = Vec::new();
    for victim in &merge_victims {
        for table in version.overlapping_tables(
            icmp,
            level + 1,
            victim.smallest_user_key(),
            victim.largest_user_key(),
        ) {
            if !next_inputs.iter().any(|t| t.table_id == table.table_id) {
                next_inputs.push(table);
            }
        }
    }
    next_inputs.sort_by(|a, b| icmp.compare(&a.smallest, &b.smallest));

    CompactionTask {
        level,
        output_level: level + 1,
        reason: CompactionReason::Size,
        input_runs: vec![merge_victims.into()],
        next_inputs,
        settled_moves,
        output: OutputShape::Leveled,
    }
}

/// STCS bucketing over a level's runs, oldest first.
///
/// Runs in a [`crate::version::LevelState`] are stored newest-first, so
/// this walks them in reverse, growing a bucket while each next run's size
/// stays inside the running-average band `[avg / ratio, avg * ratio]`
/// (aeternusdb-style STCS). Returns the number of *oldest* runs to merge
/// once the bucket reaches `size_tiered_min_threshold`. Only a contiguous
/// oldest suffix is ever eligible: merging a subset that skips an older
/// run would sink newer entries below it.
///
/// Fallback: when the size band is starved (runs too dissimilar) but the
/// level holds at least `2 * min_threshold` runs, the oldest
/// `min_threshold` runs merge anyway so the run count stays bounded.
fn tier_bucket(opts: &Options, runs: &[Run]) -> Option<usize> {
    let threshold = opts.size_tiered_min_threshold.max(2);
    if runs.len() < 2 {
        return None;
    }
    /// STCS bucketing band: a run joins the bucket while its size stays
    /// within `[avg / RATIO, avg * RATIO]` of the running average.
    const RATIO: f64 = 1.5;
    let mut avg = 0.0_f64;
    let mut len = 0usize;
    for run in runs.iter().rev() {
        let size = run.size() as f64;
        if len > 0 && (size < avg / RATIO || size > avg * RATIO) {
            break;
        }
        avg = (avg * len as f64 + size) / (len as f64 + 1.0);
        len += 1;
    }
    if len >= threshold {
        Some(len)
    } else if runs.len() >= threshold * 2 {
        Some(threshold)
    } else {
        None
    }
}

/// Score a tiered level: `bucket_len / min_threshold` when a mergeable
/// bucket exists (always `>= 1.0`, so scoring and picking agree), else a
/// sub-1.0 fill fraction for observability.
fn tier_score(opts: &Options, runs: &[Run]) -> f64 {
    let threshold = opts.size_tiered_min_threshold.max(2) as f64;
    match tier_bucket(opts, runs) {
        Some(len) => len as f64 / threshold,
        None => (runs.len() as f64 / threshold).min(0.99),
    }
}

/// Shallowest level with the highest score (ties go to the shallower
/// level so upstream debt is paid first).
fn best_scored_level(scores: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (level, &score) in scores.iter().enumerate() {
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((level, score));
        }
    }
    best
}

/// Build the tiered merge task for `level`: the oldest size bucket merges
/// into a fresh run appended one level down, or — at the deepest level —
/// replaces itself in place under the newest input run's tag.
fn pick_tiered(opts: &Options, version: &Version, level: usize) -> Option<CompactionTask> {
    let runs = &version.levels[level].runs;
    let len = tier_bucket(opts, runs)?;
    let oldest = runs.len() - len;
    let input_runs = runs[oldest..]
        .iter()
        .map(|r| Arc::clone(&r.tables))
        .collect();
    let (output_level, output) = if level + 1 < version.levels.len() {
        // The bucket is strictly older than everything already at
        // `level + 1` (data only ever flows down), so the output is
        // committed as the *newest* run there.
        (level + 1, OutputShape::AppendRun)
    } else {
        // Deepest level: merge in place. Reusing the newest input tag
        // keeps the output ordered after (older than) the runs left
        // behind, which all carry higher tags.
        (
            level,
            OutputShape::ReplaceRun {
                tag: runs[oldest].tag,
            },
        )
    };
    Some(CompactionTask {
        level,
        output_level,
        reason: if level == 0 {
            CompactionReason::Level0
        } else {
            CompactionReason::Size
        },
        input_runs,
        next_inputs: Vec::new(),
        settled_moves: Vec::new(),
        output,
    })
}

/// Pure size-tiered compaction (STCS): every level holds overlapping
/// runs ordered by recency, and a level compacts when its oldest
/// same-size-band bucket reaches `size_tiered_min_threshold` runs.
///
/// Minimizes write amplification (each entry is rewritten only when its
/// whole bucket merges) at the cost of read and space amplification
/// (point reads may consult every run on every level). Compact pointers
/// and seek candidates are ignored — recency ordering leaves no freedom
/// in victim choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct SizeTieredPolicy;

impl CompactionPolicy for SizeTieredPolicy {
    fn kind(&self) -> CompactionPolicyKind {
        CompactionPolicyKind::SizeTiered
    }

    fn level_scores(&self, opts: &Options, version: &Version) -> Vec<f64> {
        version
            .levels
            .iter()
            .map(|l| tier_score(opts, &l.runs))
            .collect()
    }

    fn pick(
        &self,
        opts: &Options,
        _icmp: &InternalKeyComparator,
        version: &Version,
        _seek_candidate: Option<(usize, Arc<TableMeta>)>,
    ) -> Option<CompactionTask> {
        let scores = self.level_scores(opts, version);
        let (level, score) = best_scored_level(&scores)?;
        if score < 1.0 {
            return None;
        }
        pick_tiered(opts, version, level)
    }
}

/// Lazy-leveled hybrid: tiered (overlapping runs, bucket merges) on every
/// level above the largest, leveled (single sorted run) at the largest
/// level.
///
/// Upper levels accumulate runs cheaply like STCS; when the level feeding
/// the largest one fills, the *whole* level merges leveled-style into the
/// bottom run in one group compaction — bigger merges at the same
/// 2-barrier cost, with bottom-level reads and space as good as leveled.
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyLeveledPolicy;

impl CompactionPolicy for LazyLeveledPolicy {
    fn kind(&self) -> CompactionPolicyKind {
        CompactionPolicyKind::LazyLeveled
    }

    fn level_scores(&self, opts: &Options, version: &Version) -> Vec<f64> {
        let n = version.levels.len();
        let mut scores = vec![0.0; n];
        // All levels above the last are tiered; the last level itself is
        // the leveled sink and never compacts further down.
        for (level, score) in scores.iter_mut().enumerate().take(n - 1) {
            *score = tier_score(opts, &version.levels[level].runs);
        }
        scores
    }

    fn pick(
        &self,
        opts: &Options,
        icmp: &InternalKeyComparator,
        version: &Version,
        _seek_candidate: Option<(usize, Arc<TableMeta>)>,
    ) -> Option<CompactionTask> {
        let scores = self.level_scores(opts, version);
        let (level, score) = best_scored_level(&scores)?;
        if score < 1.0 {
            return None;
        }
        let last = version.levels.len() - 1;
        if level + 1 < last {
            // Tiered region: oldest bucket becomes a fresh run one down.
            return pick_tiered(opts, version, level);
        }
        Some(pick_into_last(icmp, version, level))
    }
}

/// Leveled merge of the whole of `level` (the last tiered level) into the
/// single sorted run at the largest level.
///
/// Every run at `level` is taken — merging a subset would sink newer
/// entries below the remaining runs. Victims that overlap neither the
/// last level nor any other victim settle (move without rewriting),
/// preserving BoLT's settled-compaction payoff inside the hybrid.
fn pick_into_last(icmp: &InternalKeyComparator, version: &Version, level: usize) -> CompactionTask {
    let last = version.levels.len() - 1;
    let mut input_runs = version.levels[level].table_lists();

    // A victim may settle only if it overlaps nothing at the last level
    // AND no other victim: everything else lands in the last level's
    // single run, which must stay internally disjoint.
    let all: Vec<&Arc<TableMeta>> = version.levels[level].tables().collect();
    let ucmp = icmp.user_comparator();
    let overlaps_other_victim = |t: &Arc<TableMeta>| {
        all.iter().any(|o| {
            o.table_id != t.table_id
                && ucmp
                    .compare(o.smallest_user_key(), t.largest_user_key())
                    .is_le()
                && ucmp
                    .compare(o.largest_user_key(), t.smallest_user_key())
                    .is_ge()
        })
    };
    let mut settled_moves = Vec::new();
    for run in &mut input_runs {
        let (settle, merge): (Vec<_>, Vec<_>) = run
            .iter()
            .cloned()
            .partition(|t| overlap_bytes(icmp, version, last, t) == 0 && !overlaps_other_victim(t));
        // A run that settles nothing stays the version's own list.
        if !settle.is_empty() {
            settled_moves.extend(settle);
            *run = merge.into();
        }
    }

    let mut next_inputs: Vec<Arc<TableMeta>> = Vec::new();
    for victim in input_runs.iter().flat_map(|run| run.iter()) {
        for table in version.overlapping_tables(
            icmp,
            last,
            victim.smallest_user_key(),
            victim.largest_user_key(),
        ) {
            if !next_inputs.iter().any(|t| t.table_id == table.table_id) {
                next_inputs.push(table);
            }
        }
    }
    next_inputs.sort_by(|a, b| icmp.compare(&a.smallest, &b.smallest));

    CompactionTask {
        level,
        output_level: last,
        reason: if level == 0 {
            CompactionReason::Level0
        } else {
            CompactionReason::Size
        },
        input_runs,
        next_inputs,
        settled_moves,
        output: OutputShape::Leveled,
    }
}

/// A maximal set of merge inputs whose user-key ranges form one contiguous
/// interval. Outputs of one cluster replace exactly its members.
#[derive(Debug, Default)]
pub struct Cluster {
    /// Victim tables grouped by source run.
    pub input_runs: Vec<Vec<Arc<TableMeta>>>,
    /// Next-level tables.
    pub next_inputs: Vec<Arc<TableMeta>>,
}

/// Split a task's merge inputs into independent clusters by user-key
/// connectivity (scattered settled-compaction victims produce several).
pub fn clusters(icmp: &InternalKeyComparator, task: &CompactionTask) -> Vec<Cluster> {
    #[derive(Clone)]
    struct Item {
        run: Option<usize>, // None = next-level input
        table: Arc<TableMeta>,
    }
    let mut items: Vec<Item> = Vec::new();
    for (run_idx, run) in task.input_runs.iter().enumerate() {
        for table in run.iter() {
            items.push(Item {
                run: Some(run_idx),
                table: Arc::clone(table),
            });
        }
    }
    for table in &task.next_inputs {
        items.push(Item {
            run: None,
            table: Arc::clone(table),
        });
    }
    if items.is_empty() {
        return Vec::new();
    }
    let ucmp = icmp.user_comparator();
    items.sort_by(|a, b| ucmp.compare(a.table.smallest_user_key(), b.table.smallest_user_key()));

    let mut result: Vec<Cluster> = Vec::new();
    let mut current = Cluster {
        input_runs: vec![Vec::new(); task.input_runs.len()],
        next_inputs: Vec::new(),
    };
    let mut current_end: Option<Vec<u8>> = None;
    let mut current_empty = true;
    for item in items {
        let starts_new = match &current_end {
            None => false,
            Some(end) => ucmp.compare(item.table.smallest_user_key(), end).is_gt(),
        };
        if starts_new && !current_empty {
            result.push(std::mem::replace(
                &mut current,
                Cluster {
                    input_runs: vec![Vec::new(); task.input_runs.len()],
                    next_inputs: Vec::new(),
                },
            ));
            current_end = None;
        }
        let largest = item.table.largest_user_key().to_vec();
        current_end = Some(match current_end {
            None => largest,
            Some(end) if ucmp.compare(&largest, &end).is_gt() => largest,
            Some(end) => end,
        });
        match item.run {
            Some(run_idx) => current.input_runs[run_idx].push(item.table),
            None => current.next_inputs.push(item.table),
        }
        current_empty = false;
    }
    if !current_empty {
        result.push(current);
    }
    result
}

/// The LevelDB entry-drop rule applied while merging.
#[derive(Debug)]
pub struct DropFilter {
    smallest_snapshot: SequenceNumber,
    last_user_key: Option<Vec<u8>>,
    last_sequence_for_key: SequenceNumber,
}

impl DropFilter {
    /// Entries shadowed at or below `smallest_snapshot` may be dropped.
    pub fn new(smallest_snapshot: SequenceNumber) -> Self {
        DropFilter {
            smallest_snapshot,
            last_user_key: None,
            last_sequence_for_key: u64::MAX,
        }
    }

    /// The oldest sequence any live snapshot can observe. Range-tombstone
    /// coverage is evaluated at this horizon: only tombstones visible to
    /// *every* snapshot may erase entries during compaction.
    pub fn smallest_snapshot(&self) -> SequenceNumber {
        self.smallest_snapshot
    }

    /// Whether a range tombstone written at `sequence` is old enough that
    /// every live snapshot already sees it. Combined with a span-wide
    /// base-level check this decides tombstone retention. Deliberately
    /// does not touch the per-key shadow state: a tombstone shares its
    /// begin key with ordinary entries but never shadows them (coverage is
    /// applied through the fragmented overlay instead).
    pub fn tombstone_obsolete(&self, sequence: SequenceNumber) -> bool {
        sequence <= self.smallest_snapshot
    }

    /// Decide whether the entry (arriving in internal-key order) can be
    /// dropped. `is_base_level` must be `true` only if no deeper level can
    /// contain this user key.
    pub fn should_drop(&mut self, parsed: &ParsedInternalKey<'_>, is_base_level: bool) -> bool {
        if self
            .last_user_key
            .as_deref()
            .is_none_or(|k| k != parsed.user_key)
        {
            self.last_user_key = Some(parsed.user_key.to_vec());
            self.last_sequence_for_key = u64::MAX;
        }
        let drop = if self.last_sequence_for_key <= self.smallest_snapshot {
            // Shadowed by a newer entry that is itself visible at (or
            // below) the oldest snapshot.
            true
        } else {
            parsed.value_type == ValueType::Deletion
                && parsed.sequence <= self.smallest_snapshot
                && is_base_level
        };
        self.last_sequence_for_key = parsed.sequence;
        drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::{VersionBuilder, VersionEdit};
    use bolt_table::ikey::{make_internal_key, parse_internal_key};

    fn icmp() -> InternalKeyComparator {
        InternalKeyComparator::default()
    }

    fn meta(id: u64, smallest: &str, largest: &str, size: u64) -> TableMeta {
        TableMeta::new(
            id,
            id,
            0,
            size,
            1,
            make_internal_key(smallest.as_bytes(), 100, ValueType::Value),
            make_internal_key(largest.as_bytes(), 1, ValueType::Value),
        )
    }

    fn version_with(tables: &[(u32, u64, TableMeta)]) -> Version {
        let mut edit = VersionEdit::default();
        for (level, tag, m) in tables {
            edit.added_tables.push((*level, *tag, m.clone()));
        }
        let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
        builder.apply(&edit);
        builder.build().unwrap()
    }

    #[test]
    fn scores_trigger_on_l0_runs_and_level_size() {
        let opts = Options::leveldb();
        let v = version_with(&[
            (0, 1, meta(1, "a", "b", 1)),
            (0, 2, meta(2, "a", "b", 1)),
            (0, 3, meta(3, "a", "b", 1)),
            (0, 4, meta(4, "a", "b", 1)),
        ]);
        assert!(needs_compaction(&opts, &v));
        let scores = level_scores(&opts, &v);
        assert!((scores[0] - 1.0).abs() < 1e-9);

        let big = 11 << 20; // over the 10 MB L1 limit
        let v = version_with(&[(1, 0, meta(1, "a", "b", big))]);
        assert!(needs_compaction(&opts, &v));
        let v = version_with(&[(1, 0, meta(1, "a", "b", 9 << 20))]);
        assert!(!needs_compaction(&opts, &v));
    }

    #[test]
    fn deepest_level_never_compacts_down() {
        let opts = Options::leveldb();
        let v = version_with(&[(6, 0, meta(1, "a", "b", u64::MAX / 2))]);
        assert!(!needs_compaction(&opts, &v));
    }

    #[test]
    fn level0_pick_takes_all_runs_and_l1_overlaps() {
        let opts = Options::leveldb();
        let v = version_with(&[
            (0, 1, meta(1, "a", "m", 1)),
            (0, 2, meta(2, "c", "p", 1)),
            (0, 3, meta(3, "b", "d", 1)),
            (0, 4, meta(4, "x", "z", 1)),
            (1, 0, meta(5, "a", "c", 1)), // overlaps
            (1, 0, meta(6, "q", "r", 1)), // no overlap with a..z? yes overlaps (a..z covers q)
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        assert_eq!(task.level, 0);
        assert_eq!(task.reason, CompactionReason::Level0);
        assert_eq!(task.victims().count(), 4);
        // Combined L0 range is a..z: both L1 tables overlap.
        assert_eq!(task.next_inputs.len(), 2);
    }

    #[test]
    fn leveled_pick_respects_compact_pointer() {
        let mut opts = Options::leveldb();
        opts.level1_max_bytes = 1; // force level 1 over limit
        let v = Arc::new(version_with(&[
            (1, 0, meta(1, "a", "c", 100)),
            (1, 0, meta(2, "e", "g", 100)),
            (1, 0, meta(3, "i", "k", 100)),
        ]));
        // The version a commit carrying the level-1 cursor `key` installs.
        let with_pointer = |key: &[u8]| {
            let mut edit = VersionEdit::default();
            let key = make_internal_key(key, 1, ValueType::Value);
            edit.compact_pointers.push((1, key));
            let mut builder = VersionBuilder::new(icmp(), Arc::clone(&v));
            builder.apply(&edit);
            builder.build().unwrap()
        };
        let first_victim = |v: &Version| {
            let task = pick_compaction(&opts, &icmp(), v, None).unwrap();
            assert_eq!(task.level, 1);
            let mut victims = task.victims().chain(task.settled_moves.iter());
            victims.next().unwrap().table_id
        };
        assert_eq!(first_victim(&v), 1);
        assert_eq!(
            first_victim(&with_pointer(b"c")),
            2,
            "pointer advances the round-robin"
        );
        assert_eq!(first_victim(&with_pointer(b"z")), 1, "pointer wraps");
        // The cursor outlives edits that do not move it.
        let mut builder = VersionBuilder::new(icmp(), Arc::new(with_pointer(b"c")));
        builder.apply(&VersionEdit::default());
        assert_eq!(first_victim(&builder.build().unwrap()), 2);
    }

    #[test]
    fn trivial_move_for_stock_leveldb() {
        let mut opts = Options::leveldb();
        opts.level1_max_bytes = 1;
        let v = version_with(&[
            (1, 0, meta(1, "a", "c", 100)),
            (2, 0, meta(2, "x", "z", 100)), // no overlap with a..c
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        assert_eq!(task.settled_moves.len(), 1);
        assert!(task.is_move_only());
    }

    #[test]
    fn group_compaction_gathers_victims_to_budget() {
        let mut opts = Options::bolt();
        opts.level1_max_bytes = 1;
        if let CompactionStyle::Bolt(b) = &mut opts.compaction_style {
            b.group_compaction_bytes = 250;
            b.settled_compaction = false;
        }
        let v = version_with(&[
            (1, 0, meta(1, "a", "b", 100)),
            (1, 0, meta(2, "c", "d", 100)),
            (1, 0, meta(3, "e", "f", 100)),
            (1, 0, meta(4, "g", "h", 100)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        let victims = task.input_runs[0].len() + task.settled_moves.len();
        assert_eq!(victims, 3, "100+100+100 >= 250 budget -> 3 victims");
        // L2 is empty, so every victim is a zero-overlap (trivial) move.
        assert_eq!(task.settled_moves.len(), 3);
    }

    #[test]
    fn settled_compaction_prefers_low_overlap_victims() {
        let mut opts = Options::bolt();
        opts.level1_max_bytes = 1;
        if let CompactionStyle::Bolt(b) = &mut opts.compaction_style {
            b.group_compaction_bytes = 200;
        }
        let v = version_with(&[
            (1, 0, meta(1, "a", "c", 100)), // overlaps big L2 table
            (1, 0, meta(2, "h", "i", 100)), // no overlap
            (1, 0, meta(3, "p", "q", 100)), // no overlap
            (2, 0, meta(4, "a", "d", 1000)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        let moved: Vec<u64> = task.settled_moves.iter().map(|t| t.table_id).collect();
        assert_eq!(moved, vec![2, 3], "zero-overlap victims settle");
        assert!(task.input_runs[0].is_empty(), "no rewrite needed");
        assert!(task.is_move_only());
    }

    #[test]
    fn fragmented_pick_merges_whole_level() {
        let mut opts = Options::pebblesdb();
        opts.level1_max_bytes = 1;
        let v = version_with(&[
            (1, 5, meta(1, "a", "c", 100)),
            (1, 6, meta(2, "b", "d", 100)), // overlapping runs allowed
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        assert_eq!(task.output, OutputShape::AppendRun);
        assert_eq!(task.output_level, 2);
        assert_eq!(task.input_runs.len(), 2);
        assert!(task.next_inputs.is_empty());
    }

    #[test]
    fn seek_candidate_used_only_when_no_size_work() {
        let opts = Options::leveldb();
        let t = Arc::new(meta(9, "a", "c", 100));
        let v = version_with(&[(1, 0, meta(9, "a", "c", 100))]);
        let task = pick_compaction(&opts, &icmp(), &v, Some((1, Arc::clone(&t)))).unwrap();
        assert_eq!(task.reason, CompactionReason::Seek);

        // Stale candidate (table no longer in the version) is ignored.
        let v2 = version_with(&[(1, 0, meta(8, "a", "c", 100))]);
        assert!(pick_compaction(&opts, &icmp(), &v2, Some((1, t))).is_none());
    }

    #[test]
    fn clusters_split_disconnected_ranges() {
        let task = CompactionTask {
            level: 1,
            output_level: 2,
            reason: CompactionReason::Size,
            input_runs: vec![Arc::new([
                Arc::new(meta(1, "a", "c", 1)),
                Arc::new(meta(2, "m", "o", 1)),
            ])],
            next_inputs: vec![
                Arc::new(meta(3, "b", "d", 1)),
                Arc::new(meta(4, "n", "p", 1)),
                Arc::new(meta(5, "c", "e", 1)),
            ],
            settled_moves: Vec::new(),
            output: OutputShape::Leveled,
        };
        let cs = clusters(&icmp(), &task);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].input_runs[0].len(), 1);
        assert_eq!(cs[0].next_inputs.len(), 2); // b..d and c..e chain
        assert_eq!(cs[1].input_runs[0].len(), 1);
        assert_eq!(cs[1].next_inputs.len(), 1);
    }

    #[test]
    fn clusters_empty_task() {
        let task = CompactionTask {
            level: 1,
            output_level: 2,
            reason: CompactionReason::Size,
            input_runs: vec![Arc::new([])],
            next_inputs: Vec::new(),
            settled_moves: Vec::new(),
            output: OutputShape::Leveled,
        };
        assert!(clusters(&icmp(), &task).is_empty());
    }

    #[test]
    fn drop_filter_keeps_newest_drops_shadowed() {
        let mut filter = DropFilter::new(100);
        let k_new = make_internal_key(b"k", 50, ValueType::Value);
        let k_old = make_internal_key(b"k", 20, ValueType::Value);
        let other = make_internal_key(b"z", 10, ValueType::Value);
        assert!(!filter.should_drop(&parse_internal_key(&k_new).unwrap(), false));
        assert!(
            filter.should_drop(&parse_internal_key(&k_old).unwrap(), false),
            "older version shadowed below snapshot"
        );
        assert!(!filter.should_drop(&parse_internal_key(&other).unwrap(), false));
    }

    #[test]
    fn drop_filter_respects_snapshots() {
        // Oldest snapshot at 30: the version at 50 does NOT shadow the one
        // at 20, because a reader at snapshot 30 still needs it.
        let mut filter = DropFilter::new(30);
        let k_new = make_internal_key(b"k", 50, ValueType::Value);
        let k_mid = make_internal_key(b"k", 25, ValueType::Value);
        let k_old = make_internal_key(b"k", 10, ValueType::Value);
        assert!(!filter.should_drop(&parse_internal_key(&k_new).unwrap(), false));
        assert!(!filter.should_drop(&parse_internal_key(&k_mid).unwrap(), false));
        assert!(
            filter.should_drop(&parse_internal_key(&k_old).unwrap(), false),
            "k@10 shadowed by k@25 which is visible at snapshot 30"
        );
    }

    #[test]
    fn drop_filter_tombstones_only_at_base_level() {
        let del = make_internal_key(b"k", 5, ValueType::Deletion);
        let mut filter = DropFilter::new(100);
        assert!(!filter.should_drop(&parse_internal_key(&del).unwrap(), false));
        let mut filter = DropFilter::new(100);
        assert!(filter.should_drop(&parse_internal_key(&del).unwrap(), true));
        // Tombstone newer than the snapshot is kept even at base level.
        let del_new = make_internal_key(b"k", 200, ValueType::Deletion);
        let mut filter = DropFilter::new(100);
        assert!(!filter.should_drop(&parse_internal_key(&del_new).unwrap(), true));
    }

    fn tiered_opts(kind: CompactionPolicyKind) -> Options {
        let mut opts = Options::bolt();
        opts.compaction_policy = kind;
        opts
    }

    #[test]
    fn policy_for_dispatches_by_kind() {
        for kind in [
            CompactionPolicyKind::Leveled,
            CompactionPolicyKind::SizeTiered,
            CompactionPolicyKind::LazyLeveled,
        ] {
            assert_eq!(policy_for(kind).kind(), kind);
        }
    }

    #[test]
    fn run_layout_for_matches_policy() {
        assert_eq!(
            run_layout_for(&Options::bolt()),
            RunLayout::SingleRunBeyond(1)
        );
        assert_eq!(
            run_layout_for(&Options::leveldb()),
            RunLayout::SingleRunBeyond(1)
        );
        assert_eq!(
            run_layout_for(&tiered_opts(CompactionPolicyKind::SizeTiered)),
            RunLayout::Unrestricted
        );
        assert_eq!(
            run_layout_for(&tiered_opts(CompactionPolicyKind::LazyLeveled)),
            RunLayout::SingleRunBeyond(6)
        );
        // The fragmented style keeps its own everything-overlaps layout.
        assert_eq!(
            run_layout_for(&Options::pebblesdb()),
            RunLayout::Unrestricted
        );
    }

    #[test]
    fn size_tiered_merges_full_bucket_as_fresh_run() {
        let opts = tiered_opts(CompactionPolicyKind::SizeTiered);
        let v = version_with(&[
            (1, 1, meta(1, "a", "c", 100)),
            (1, 2, meta(2, "b", "d", 100)),
            (1, 3, meta(3, "a", "d", 100)),
            (1, 4, meta(4, "c", "e", 100)),
            (1, 5, meta(5, "a", "e", 100)),
        ]);
        assert!(needs_compaction(&opts, &v));
        let scores = level_scores(&opts, &v);
        assert!(scores[1] >= 1.0, "five similar runs over threshold 4");
        assert!(scores[0] < 1.0, "empty L0 stays quiet");

        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        assert_eq!(task.level, 1);
        assert_eq!(task.output_level, 2);
        assert_eq!(task.output, OutputShape::AppendRun);
        assert_eq!(task.input_runs.len(), 5, "whole bucket merges");
        assert!(task.next_inputs.is_empty(), "existing L2 runs untouched");
        assert!(task.settled_moves.is_empty());
    }

    #[test]
    fn size_tiered_bucket_is_oldest_suffix_within_size_band() {
        let mut opts = tiered_opts(CompactionPolicyKind::SizeTiered);
        opts.size_tiered_min_threshold = 3;
        // Oldest-first sizes 100,100,100,10_000: the newest run falls out
        // of the size band and must be left behind.
        let v = version_with(&[
            (1, 1, meta(1, "a", "c", 100)),
            (1, 2, meta(2, "b", "d", 100)),
            (1, 3, meta(3, "a", "d", 100)),
            (1, 4, meta(4, "c", "e", 10_000)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        let mut ids: Vec<u64> = task.victims().map(|t| t.table_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3], "oldest three merge, newest stays");
    }

    #[test]
    fn size_tiered_deepest_level_replaces_in_place() {
        let mut opts = tiered_opts(CompactionPolicyKind::SizeTiered);
        opts.size_tiered_min_threshold = 4;
        // Six runs at the deepest level; the newest two are out of band.
        let v = version_with(&[
            (6, 1, meta(1, "a", "c", 100)),
            (6, 2, meta(2, "b", "d", 100)),
            (6, 3, meta(3, "a", "d", 100)),
            (6, 4, meta(4, "c", "e", 100)),
            (6, 5, meta(5, "a", "e", 10_000)),
            (6, 6, meta(6, "b", "e", 10_000)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        assert_eq!(task.level, 6);
        assert_eq!(task.output_level, 6, "nowhere further down");
        assert_eq!(
            task.output,
            OutputShape::ReplaceRun { tag: 4 },
            "output reuses the newest input run's tag"
        );
        assert_eq!(task.input_runs.len(), 4);
    }

    #[test]
    fn size_tiered_fallback_bounds_run_count_when_band_starved() {
        let mut opts = tiered_opts(CompactionPolicyKind::SizeTiered);
        opts.size_tiered_min_threshold = 2;
        // Wildly dissimilar sizes: no band forms, but 4 >= 2 * threshold
        // forces the oldest `threshold` runs to merge anyway.
        let v = version_with(&[
            (1, 1, meta(1, "a", "c", 1)),
            (1, 2, meta(2, "b", "d", 100)),
            (1, 3, meta(3, "a", "d", 10_000)),
            (1, 4, meta(4, "c", "e", 1_000_000)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        let mut ids: Vec<u64> = task.victims().map(|t| t.table_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2], "oldest two force-merge");
    }

    #[test]
    fn lazy_leveled_merges_feeder_level_into_last_with_settling() {
        let opts = tiered_opts(CompactionPolicyKind::LazyLeveled);
        // Level 5 feeds the leveled last level (6). Victim 1 overlaps the
        // bottom run and must rewrite; victims 2..4 overlap nothing and
        // settle.
        let v = version_with(&[
            (5, 1, meta(1, "a", "c", 100)),
            (5, 2, meta(2, "e", "g", 100)),
            (5, 3, meta(3, "i", "k", 100)),
            (5, 4, meta(4, "m", "o", 100)),
            (6, 0, meta(5, "a", "d", 100)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        assert_eq!(task.level, 5);
        assert_eq!(task.output_level, 6);
        assert_eq!(task.output, OutputShape::Leveled);
        let merge_ids: Vec<u64> = task.victims().map(|t| t.table_id).collect();
        assert_eq!(merge_ids, vec![1], "only the overlapping victim rewrites");
        assert_eq!(task.next_inputs.len(), 1);
        assert_eq!(task.next_inputs[0].table_id, 5);
        let mut settled: Vec<u64> = task.settled_moves.iter().map(|t| t.table_id).collect();
        settled.sort_unstable();
        assert_eq!(settled, vec![2, 3, 4]);
    }

    #[test]
    fn lazy_leveled_keeps_mutually_overlapping_victims_in_the_merge() {
        let opts = tiered_opts(CompactionPolicyKind::LazyLeveled);
        // No last-level overlap at all, but victims 1 and 2 overlap each
        // other: both must rewrite into the single bottom run.
        let v = version_with(&[
            (5, 1, meta(1, "a", "d", 100)),
            (5, 2, meta(2, "c", "f", 100)),
            (5, 3, meta(3, "x", "z", 100)),
            (5, 4, meta(4, "p", "q", 100)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        let mut merge_ids: Vec<u64> = task.victims().map(|t| t.table_id).collect();
        merge_ids.sort_unstable();
        assert_eq!(merge_ids, vec![1, 2]);
        let mut settled: Vec<u64> = task.settled_moves.iter().map(|t| t.table_id).collect();
        settled.sort_unstable();
        assert_eq!(settled, vec![3, 4]);
    }

    #[test]
    fn lazy_leveled_tiers_shallow_levels_first() {
        let opts = tiered_opts(CompactionPolicyKind::LazyLeveled);
        let mut tables = Vec::new();
        for i in 0..4u64 {
            tables.push((2u32, i + 1, meta(i + 1, "a", "e", 100)));
            tables.push((5u32, i + 10, meta(i + 10, "a", "e", 100)));
        }
        let v = version_with(&tables);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        assert_eq!(task.level, 2, "shallower debt paid first");
        assert_eq!(task.output, OutputShape::AppendRun);
        assert_eq!(task.output_level, 3);
    }

    #[test]
    fn tiered_policies_agree_between_needs_and_pick() {
        // Whenever needs_compaction says yes, pick must produce a task —
        // otherwise the background scheduler would spin.
        for kind in [
            CompactionPolicyKind::SizeTiered,
            CompactionPolicyKind::LazyLeveled,
        ] {
            let opts = tiered_opts(kind);
            for runs in 0..6u64 {
                let tables: Vec<(u32, u64, TableMeta)> = (0..runs)
                    .map(|i| (1u32, i + 1, meta(i + 1, "a", "e", 100)))
                    .collect();
                let v = version_with(&tables);
                let picked = pick_compaction(&opts, &icmp(), &v, None).is_some();
                assert_eq!(
                    needs_compaction(&opts, &v),
                    picked,
                    "{kind:?} with {runs} runs: needs_compaction and pick disagree"
                );
            }
        }
    }
}
