//! Compaction decisions: what moves (victims, group selection,
//! settled-compaction candidates, clusters) and what the merge keeps (the
//! entry-drop rule, [`DropRule`]).
//!
//! One picker serves the four [`CompactionPolicyKind`]s (see `DESIGN.md`
//! §13 for the design-space mapping and `docs/compaction-tuning.md` for
//! when to pick which). The kind says how a level is scored and how many
//! of its runs a pick takes; everything else follows from which levels
//! stack runs ([`CompactionPolicyKind::single_run_from`]):
//!
//! * [`CompactionPolicyKind::Leveled`] — the classic picker: one sorted run
//!   per level beyond L0, size-ratio triggers, round-robin (or settled
//!   least-overlap) victim choice;
//! * [`CompactionPolicyKind::SizeTiered`] — STCS size-band bucketing,
//!   every level holds overlapping runs;
//! * [`CompactionPolicyKind::LazyLeveled`] — tiered above, leveled at the
//!   largest level;
//! * [`CompactionPolicyKind::Fragmented`] — every level holds overlapping
//!   runs, scored the leveled way and moved down whole.
//!
//! This module is pure metadata logic (no I/O) so it can be unit-tested
//! exhaustively; execution lives in `db/compact.rs`.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::ops::Range;
use std::sync::Arc;

use bolt_common::Result;
use bolt_table::comparator::{Comparator, InternalKeyComparator};
use bolt_table::ikey::{parse_internal_key, SequenceNumber, ValueType};
use bolt_table::rangedel::RangeTombstoneSet;

use crate::options::{CompactionPolicyKind, Options};
use crate::version::{Run, TableList, TableMeta, Version};
use crate::vlog::ValuePointer;

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
/// Produced by [`pick_compaction`] or [`manual_task`]. `input_runs` holds
/// the victims at `level` grouped by source run; `output_level` and
/// `output` describe where and in what shape the merged result lands.
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
    /// A task out of `level` into the level below it, nothing taken yet.
    fn new(level: usize, output: OutputShape) -> Self {
        CompactionTask {
            level,
            output_level: level + 1,
            reason: if level == 0 {
                CompactionReason::Level0
            } else {
                CompactionReason::Size
            },
            input_runs: Vec::new(),
            next_inputs: Vec::new(),
            settled_moves: Vec::new(),
            output,
        }
    }

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

/// The compaction score of every level under `opts.compaction_policy`; a
/// score `>= 1.0` means "needs work". The flush scheduler and
/// `compact_until_quiet` consult these.
pub fn level_scores(opts: &Options, version: &Version) -> Vec<f64> {
    use CompactionPolicyKind::{Fragmented, LazyLeveled, Leveled, SizeTiered};
    let deepest = version.levels.len() - 1;
    let levels = version.levels.iter().enumerate();
    let scores = levels.map(|(level, state)| match opts.compaction_policy {
        // The deepest level has no target below it (a size-tiered one
        // merges in place instead).
        Leveled | Fragmented | LazyLeveled if level == deepest => 0.0,
        // Level 0 is governed by run count, not size knobs.
        Leveled | Fragmented if level == 0 => {
            state.num_runs() as f64 / opts.level0_compaction_trigger as f64
        }
        Leveled | Fragmented => state.size() as f64 / opts.max_bytes_for_level(level) as f64,
        SizeTiered | LazyLeveled => tier_score(opts, &state.runs),
    });
    scores.collect()
}

/// `true` if any level needs compaction under the configured policy
/// (ignoring seek candidates). Whenever this is `true`,
/// [`pick_compaction`] returns a task, or the background scheduler would
/// spin without making progress.
pub fn needs_compaction(opts: &Options, version: &Version) -> bool {
    level_scores(opts, version).iter().any(|&s| s >= 1.0)
}

/// Pick the next compaction, if any, under `opts.compaction_policy`.
///
/// The policy decides *which* tables merge and *where* the output lands
/// ([`OutputShape`]); execution, barriers, and MANIFEST commits in
/// `db/compact.rs` are policy-agnostic. `seek_candidate` is a
/// `(level, table)` pair charged out of its seek budget, consulted only
/// when no size-based compaction is due.
pub fn pick_compaction(
    opts: &Options,
    icmp: &InternalKeyComparator,
    version: &Version,
    seek_candidate: Option<(usize, Arc<TableMeta>)>,
) -> Option<CompactionTask> {
    use CompactionPolicyKind::{Fragmented, LazyLeveled, Leveled, SizeTiered};
    let scores = level_scores(opts, version).into_iter().enumerate();
    // `max_by` returns the last of equal maxima.
    let by_score = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1);
    let (level, score) = match opts.compaction_policy {
        // Ties go to the deeper level.
        Leveled | Fragmented => scores.max_by(by_score),
        // Ties go to the shallower level so upstream debt is paid first.
        SizeTiered | LazyLeveled => scores.rev().max_by(by_score),
    }?;
    if score >= 1.0 {
        return pick_level(opts, icmp, version, level);
    }

    // Seek compaction (stock LevelDB only) sinks one table into the sorted
    // run below, so both levels must be single runs: a table taken out of
    // the newer of two stacked runs would carry its entries below the
    // older run. Elsewhere the candidate is dropped.
    let (level, table) = seek_candidate.filter(|_| opts.seek_compaction)?;
    let levels = version.levels.len();
    let single_run_from = opts.compaction_policy.single_run_from(levels);
    // Level 0 qualifies as a source because all of it goes (below).
    let sinks_in_order = (level == 0 || level >= single_run_from)
        && (single_run_from..levels).contains(&(level + 1));
    let live = |id| version.levels[level].tables().any(|t| t.table_id == id);
    if !sinks_in_order || !live(table.table_id) {
        return None;
    }
    let mut task = if level == 0 {
        // L0 runs overlap each other: compacting one table in isolation
        // would sink a newer version below an older one. Take the whole of
        // level 0 (LevelDB expands L0 inputs to all overlapping files for
        // the same reason).
        pick_level(opts, icmp, version, 0)?
    } else {
        CompactionTask {
            next_inputs: overlaps_at(icmp, version, level + 1, [&table]),
            input_runs: vec![[table].into()],
            ..CompactionTask::new(level, OutputShape::Leveled)
        }
    };
    task.reason = CompactionReason::Seek;
    Some(task)
}

/// Build a compaction task pushing the tables of `level` overlapping
/// `[begin, end]` down one level, or `None` if nothing overlaps.
pub fn manual_task(
    opts: &Options,
    icmp: &InternalKeyComparator,
    version: &Version,
    level: usize,
    begin: &[u8],
    end: &[u8],
) -> Option<CompactionTask> {
    let overlapping = version.overlapping_tables(icmp, level, begin, end);
    if overlapping.is_empty() {
        return None;
    }
    let single_run_from = opts.compaction_policy.single_run_from(version.levels.len());
    // When the output level may itself hold sibling runs, the merge
    // appends a fresh run there instead of folding into a sorted level.
    let mut task = if level + 1 < single_run_from {
        CompactionTask::new(level, OutputShape::AppendRun)
    } else {
        CompactionTask::new(level, OutputShape::Leveled)
    };
    task.reason = CompactionReason::Size;
    // Levels that may hold overlapping runs must move as whole runs to
    // preserve recency ordering; L0 runs always overlap each other.
    task.input_runs = if level < single_run_from {
        version.levels[level].table_lists()
    } else {
        vec![overlapping.into()]
    };
    if task.output == OutputShape::Leveled {
        task.next_inputs = overlaps_at(icmp, version, level + 1, task.victims());
    }
    Some(task)
}

/// The tables of the single sorted run at `level` that any of `victims`
/// overlaps: each once, in key order.
fn overlaps_at<'a>(
    icmp: &InternalKeyComparator,
    version: &Version,
    level: usize,
    victims: impl IntoIterator<Item = &'a Arc<TableMeta>>,
) -> Vec<Arc<TableMeta>> {
    let mut found: Vec<Arc<TableMeta>> = Vec::new();
    for victim in victims {
        let (begin, end) = (victim.smallest_user_key(), victim.largest_user_key());
        found.extend(version.overlapping(icmp, level, begin, end).cloned());
    }
    // Two victims may overlap one table; sorted, its copies are adjacent.
    found.sort_by(|a, b| icmp.compare(&a.smallest, &b.smallest));
    found.dedup_by_key(|t| t.table_id);
    found
}

/// The task that pays down the debt of `level` (one that scores `>= 1.0`).
fn pick_level(
    opts: &Options,
    icmp: &InternalKeyComparator,
    version: &Version,
    level: usize,
) -> Option<CompactionTask> {
    use CompactionPolicyKind::{LazyLeveled, Leveled, SizeTiered};
    let kind = opts.compaction_policy;
    let levels = version.levels.len();
    let single_run_from = kind.single_run_from(levels);
    if level >= single_run_from {
        // One sorted run: any of its tables may leave without the others.
        return Some(pick_from_single_run(opts, icmp, version, level));
    }
    // Stacked runs leave whole and oldest first (see `tier_bucket`).
    let runs = &version.levels[level].runs;
    let below_is_single_run = (single_run_from..levels).contains(&(level + 1));
    let take = match kind {
        // The tiered region merges one size bucket at a time.
        SizeTiered | LazyLeveled if !below_is_single_run => tier_bucket(opts, runs)?,
        // Leveled L0 and a fragmented level go whole: they are governed by
        // run count and bytes, not size bands. So does lazy-leveled's last
        // tiered level when it fills: one group compaction into the
        // largest level — bigger merges at the same 2-barrier cost.
        _ => runs.len(),
    };
    let oldest = runs.len() - take;
    // The runs taken are strictly older than everything already at
    // `level + 1` (data only ever flows down), so by default the output
    // is committed as the *newest* run there.
    let mut task = CompactionTask::new(level, OutputShape::AppendRun);
    task.input_runs = runs[oldest..]
        .iter()
        .map(|r| Arc::clone(&r.tables))
        .collect();
    if level + 1 == levels {
        // Deepest level: merge in place. Reusing the newest input tag
        // keeps the output ordered after (older than) the runs left
        // behind, which all carry higher tags.
        task.output_level = level;
        task.output = OutputShape::ReplaceRun {
            tag: runs[oldest].tag,
        };
    } else if below_is_single_run {
        task.output = OutputShape::Leveled;
        if kind == Leveled {
            task.next_inputs = level0_overlaps(icmp, version);
        } else {
            settle_into_single_run(icmp, version, &mut task);
        }
    }
    Some(task)
}

/// What a leveled L0 → L1 merge rewrites at level 1: everything the
/// *bounding range* of all of L0 overlaps (LevelDB's rule) — a superset of
/// what the L0 tables overlap one by one, so not [`overlaps_at`].
fn level0_overlaps(icmp: &InternalKeyComparator, version: &Version) -> Vec<Arc<TableMeta>> {
    let ucmp = icmp.user_comparator();
    let tables = || version.levels[0].tables();
    let begin = tables()
        .map(|t| t.smallest_user_key())
        .min_by(|a, b| ucmp.compare(a, b));
    let end = tables()
        .map(|t| t.largest_user_key())
        .max_by(|a, b| ucmp.compare(a, b));
    match (begin, end) {
        (Some(begin), Some(end)) => version.overlapping_tables(icmp, 1, begin, end),
        _ => Vec::new(),
    }
}

/// The smallest BoLT group, in targets of its level (`.0 / .1`).
///
/// With no floor a level a little over its target gives up that little in
/// a two-barrier compaction and stays populated: after `benchmark/`'s
/// preload level 1 holds 150 KiB for good, a fourth level under every read
/// (`read_cold` −9 %). At 1× what four flushed memtables leave in an empty
/// level 1 (1.4 targets there) goes in two compactions, not one (preload
/// `write_amp` +0.5 %, `setup_s` +2 … +9 %). From 3× up nothing is gained
/// at all: under load level 1 is picked at 2.9 targets on average, the
/// floor swallows it whole, and a whole-level group drags all of the next
/// level along (`fill_random` `write_amp` 14.1, against 12.1–12.2 for every
/// floor below). 1.5× and 2× measure alike, preloaded trees included; 1.5
/// is the one further from the cliff (EXPERIMENTS.md, *Methodology*). Only
/// level 1 can tell them apart: a deeper level's floor already exceeds the
/// cap.
const GROUP_FLOOR: (u64, u64) = (3, 2);

/// Victims out of the single sorted run at `level`, merged into the single
/// run below: round-robin from the compact pointer, a group of them under
/// BoLT (§3.3), and with settled compaction (§3.4) the group that drags the
/// least of the next level along per byte moved, victim by victim at the
/// margin ([`by_marginal_ratio`]): a table is charged only for next-level
/// tables no victim before it rewrites, so neighbours share what they
/// straddle.
///
/// A BoLT group moves what the level owes, not the level: its byte budget
/// is the level's debt (bytes over [`Options::max_bytes_for_level`]), no
/// less than `GROUP_FLOOR` targets and no more than
/// `group_compaction_bytes`. Every other style takes one victim.
fn pick_from_single_run(
    opts: &Options,
    icmp: &InternalKeyComparator,
    version: &Version,
    level: usize,
) -> CompactionTask {
    let run = &version.levels[level].runs[0];
    let tables = &run.tables;
    debug_assert!(!tables.is_empty());

    let bolt = opts.bolt_options();
    let cap = bolt.map_or(0, |b| b.group_compaction_bytes); // non-BoLT: single victim
    let settled = bolt.is_some_and(|b| b.settled_compaction);
    let level_bytes = run.size();
    let target = opts.max_bytes_for_level(level);
    let debt = level_bytes.saturating_sub(target);
    let floor = target.saturating_mul(GROUP_FLOOR.0) / GROUP_FLOOR.1;
    let budget = debt.max(floor).min(cap);
    let one_table = opts.output_table_bytes();

    // Victims in the order offered, each with the next-level bytes it
    // overlaps, until the budget is covered — and on to the cap rather
    // than leave less than one output table behind: under ratio order a
    // runt comes last, and alone in its level it is one more run for every
    // read to probe.
    let gather = |offered: &mut dyn Iterator<Item = (u64, usize)>| {
        let mut taken = Vec::new();
        let mut total = 0u64;
        for (overlap, idx) in offered {
            taken.push((overlap, idx));
            total += tables[idx].size;
            if total >= cap || (total >= budget && level_bytes - total >= one_table) {
                break;
            }
        }
        taken
    };
    let below = version.levels[level + 1].single_run();
    // Next-level bytes the settled order charged, to check its bookkeeping.
    let mut charged = 0;
    let mut victims = if settled {
        gather(&mut by_marginal_ratio(icmp, tables, below, &mut charged))
    } else {
        // Round-robin start after the compact pointer.
        let scored = |idx: usize| (bytes(&below[tables[idx].overlap_in(icmp, below)]), idx);
        let after = |ptr| tables.partition_point(|t| icmp.compare(&t.largest, ptr).is_le());
        let start = version.compact_pointer(level).map_or(0, after);
        let start = if start >= tables.len() { 0 } else { start };
        gather(&mut (start..tables.len()).map(scored))
    };
    victims.sort_unstable_by_key(|&(_, idx)| idx);

    // Partition victims into moves (no next-level overlap) and merge
    // victims. Zero-overlap victims are never rewritten: for settled
    // compaction this is the *deliberate* §3.4 mechanism (the selection
    // above preferred them); for the other styles it is LevelDB's
    // opportunistic trivial move.
    let mut settled_moves = Vec::new();
    let mut merge_victims = Vec::new();
    for (overlap, idx) in victims {
        let side = if overlap == 0 {
            &mut settled_moves
        } else {
            &mut merge_victims
        };
        side.push(Arc::clone(&tables[idx]));
    }

    let next_inputs = overlaps_at(icmp, version, level + 1, &merge_victims);
    debug_assert!(!settled || charged == bytes(&next_inputs));
    CompactionTask {
        next_inputs,
        input_runs: vec![merge_victims.into()],
        settled_moves,
        ..CompactionTask::new(level, OutputShape::Leveled)
    }
}

/// Settled compaction's victim order (§3.4): lowest *marginal* overlap
/// ratio first — the next-level bytes a table adds to what the victims
/// before it already rewrite, per byte it moves. Neighbours share the
/// next-level table they both straddle, so a group gathers around what it
/// already rewrites instead of scattering and paying both end tables of
/// every victim ("least overlapping parent", arXiv 2202.04522, per group).
/// Zero-overlap tables come first; a table whose overlap is already charged
/// rides free, but is merged, not moved. Yields `(overlap, index)`, the
/// overlap absolute, and adds each victim's marginal bytes to `charged`.
///
/// Lazy, so only what the group takes is charged. Each table's overlap is
/// one binary-searched interval of the run below; charging a next-level
/// table lowers the cost of the tables that straddle it. Two sorted disjoint
/// runs have at most n + m such pairs, so a pick stays O((n + m) log n)
/// under `core.state` and never rescans the level per victim.
fn by_marginal_ratio<'a>(
    icmp: &InternalKeyComparator,
    tables: &'a [Arc<TableMeta>],
    below: &'a [Arc<TableMeta>],
    charged: &'a mut u64,
) -> impl Iterator<Item = (u64, usize)> + 'a {
    // Each table's overlap as an interval of `below`: both ends ascend.
    let spans: Vec<Range<usize>> = tables.iter().map(|t| t.overlap_in(icmp, below)).collect();
    let overlaps: Vec<u64> = spans.iter().map(|s| bytes(&below[s.clone()])).collect();
    let offer = |cost, idx: usize| Reverse(Offer(cost, tables[idx].size.max(1), idx));
    // A lazy min-heap: a table's cost falls by new offers, not in place.
    let mut offers: BinaryHeap<_> = (0..tables.len()).map(|i| offer(overlaps[i], i)).collect();
    // What each table would still add; `None` once taken.
    let mut cost: Vec<Option<u64>> = overlaps.iter().copied().map(Some).collect();
    let mut rewritten = vec![false; below.len()];
    std::iter::from_fn(move || {
        // Costs only fall, so a table's first offer off the heap is its
        // current one; the stale ones after it find the table taken.
        let (taken, idx) = loop {
            let Reverse(Offer(_, _, idx)) = offers.pop()?;
            if let Some(taken) = cost[idx].take() {
                break (taken, idx);
            }
        };
        *charged += taken;
        // Each next-level table it is the first to rewrite costs the tables
        // that straddle it too that much less.
        let fresh = |&j: &usize| !std::mem::replace(&mut rewritten[j], true);
        for j in spans[idx].clone().filter(fresh) {
            let first = spans.partition_point(|s| s.end <= j);
            let end = spans.partition_point(|s| s.start <= j);
            for (other, left) in (first..end).zip(&mut cost[first..end]) {
                if let Some(left) = left {
                    *left -= below[j].size;
                    offers.push(offer(*left, other));
                }
            }
        }
        Some((overlaps[idx], idx))
    })
}

/// Table `.2` offered at `.0` next-level bytes for its `.1` bytes: ordered
/// by the ratio, cross-multiplied in `u128` (no rounding), then by index.
#[derive(PartialEq, Eq)]
struct Offer(u64, u64, usize);

impl Ord for Offer {
    fn cmp(&self, other: &Self) -> Ordering {
        let cross = |a: &Self, b: &Self| u128::from(a.0) * u128::from(b.1);
        let by_ratio = cross(self, other).cmp(&cross(other, self));
        by_ratio.then(self.2.cmp(&other.2))
    }
}

impl PartialOrd for Offer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total bytes of `tables`.
fn bytes(tables: &[Arc<TableMeta>]) -> u64 {
    tables.iter().map(|t| t.size).sum()
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

/// Merge the whole of `task.level` (lazy-leveled's last tiered level) into
/// the single sorted run below it. Victims that overlap neither that run
/// nor any other victim settle (move without rewriting), preserving BoLT's
/// settled-compaction payoff inside the hybrid.
fn settle_into_single_run(
    icmp: &InternalKeyComparator,
    version: &Version,
    task: &mut CompactionTask,
) {
    // A victim may settle only if it overlaps nothing at the output level
    // AND no other victim: everything else lands in that level's single
    // run, which must stay internally disjoint. In smallest-key order a
    // table overlaps an earlier one iff the largest key before it reaches
    // its smallest, and a later one iff the next one starts by its largest:
    // one sort, not a scan of the level per victim under `core.state`.
    let ucmp = icmp.user_comparator();
    let mut all: Vec<&Arc<TableMeta>> = version.levels[task.level].tables().collect();
    all.sort_by(|a, b| ucmp.compare(a.smallest_user_key(), b.smallest_user_key()));
    let mut crowded = HashSet::new();
    let mut reach: Option<&[u8]> = None;
    for (i, t) in all.iter().enumerate() {
        let largest = t.largest_user_key();
        let reached = reach.is_some_and(|r| ucmp.compare(r, t.smallest_user_key()).is_ge());
        let next = all.get(i + 1).map(|n| n.smallest_user_key());
        if reached || next.is_some_and(|n| ucmp.compare(n, largest).is_le()) {
            crowded.insert(t.table_id);
        }
        if reach.is_none_or(|r| ucmp.compare(largest, r).is_gt()) {
            reach = Some(largest);
        }
    }
    let below = version.levels[task.output_level].single_run();
    for run in &mut task.input_runs {
        let (settle, merge): (Vec<_>, Vec<_>) = run
            .iter()
            .cloned()
            .partition(|t| !crowded.contains(&t.table_id) && t.overlap_in(icmp, below).is_empty());
        // A run that settles nothing stays the version's own list.
        if !settle.is_empty() {
            task.settled_moves.extend(settle);
            *run = merge.into();
        }
    }
    task.next_inputs = overlaps_at(icmp, version, task.output_level, task.victims());
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
/// connectivity (victims with untouched tables between them produce
/// several; settled compaction's marginal order gathers its victims around
/// the next-level tables they share, so its groups split into about half
/// as many as when each victim was ranked on its own).
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

/// What a compaction keeps — the one owner of the entry-drop rule.
///
/// Scoped to the version `task` was picked from: "can anything else still
/// hold this key" is asked of that version's tables, and the task's own
/// merge inputs are the tables this very rewrite replaces. Entries arrive in
/// internal-key order (all versions of a user key adjacent, newest first);
/// [`DropRule::keep`] answers for each, and the value pointers it lets go of
/// are the compaction's dead value-log ranges ([`DropRule::into_dead`]).
#[derive(Debug)]
pub struct DropRule<'a> {
    icmp: &'a InternalKeyComparator,
    version: &'a Version,
    /// Ids of the tables being merged away.
    inputs: HashSet<u64>,
    /// Every range tombstone of `version`, queried at `horizon`.
    overlay: &'a RangeTombstoneSet,
    /// The oldest sequence a live snapshot reads at: what is shadowed or
    /// deleted at or below it is invisible to every reader.
    horizon: SequenceNumber,
    /// First level whose runs may hold an older version of an output key.
    base_from: usize,
    /// The user key of the previous point entry, in one reused buffer.
    key: Vec<u8>,
    /// Sequence of the previous entry of `key`; `None` at its first.
    newer: Option<SequenceNumber>,
    /// Pointers of `key` kept so far, and where its drops start in `dead`.
    kept: Vec<ValuePointer>,
    key_dead_from: usize,
    dead: Vec<ValuePointer>,
}

impl<'a> DropRule<'a> {
    /// The rule for executing `task`, picked from `version`, while no
    /// snapshot reads below `horizon`. `overlay` is `version`'s
    /// range-tombstone set (reading it is I/O, so the executor supplies it).
    pub fn new(
        icmp: &'a InternalKeyComparator,
        version: &'a Version,
        task: &CompactionTask,
        overlay: &'a RangeTombstoneSet,
        horizon: SequenceNumber,
    ) -> Self {
        DropRule {
            icmp,
            version,
            inputs: task.merge_inputs().map(|t| t.table_id).collect(),
            overlay,
            horizon,
            // An appended run lands above the runs already at its level; a
            // leveled merge has those that overlap among its inputs, and a
            // replaced run was the oldest suffix of the deepest level.
            base_from: match task.output {
                OutputShape::AppendRun => task.output_level,
                OutputShape::Leveled | OutputShape::ReplaceRun { .. } => task.output_level + 1,
            },
            key: Vec::new(),
            newer: None,
            kept: Vec::new(),
            key_dead_from: 0,
            dead: Vec::new(),
        }
    }

    /// Whether the merged output keeps this entry.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::Corruption`] for a malformed internal
    /// key or value pointer.
    pub fn keep(&mut self, internal_key: &[u8], value: &[u8]) -> Result<bool> {
        let entry = parse_internal_key(internal_key)?;
        if entry.value_type == ValueType::RangeTombstone {
            // Outside the per-key state: it shares its begin key with point
            // entries but never shadows them (it hides through the overlay)
            // and a newer put there must not shadow-drop the span. It goes
            // once every snapshot sees it and nothing is left for it to hide.
            let obsolete = entry.sequence <= self.horizon;
            return Ok(!(obsolete && self.span_is_base(entry.user_key, value)));
        }
        if self.newer.is_none() || self.key != entry.user_key {
            self.key.clear();
            self.key.extend_from_slice(entry.user_key);
            self.newer = None;
            self.kept.clear();
            self.key_dead_from = self.dead.len();
        }
        // Shadowed: a newer entry of the key is itself visible at the
        // horizon, so no reader reaches past it.
        let shadowed = self.newer.is_some_and(|newer| newer <= self.horizon);
        self.newer = Some(entry.sequence);
        let drop = shadowed
            || (entry.value_type == ValueType::Deletion
                && entry.sequence <= self.horizon
                && self.key_is_base(entry.user_key))
            || self
                .overlay
                .covers(entry.user_key, entry.sequence, self.horizon);
        if entry.value_type == ValueType::ValuePointer {
            // Replay-duplicate guard: identical `(key, sequence, pointer)`
            // entries reach two inputs when a crash makes recovery re-flush
            // WAL entries an earlier flush already committed (a flush need
            // not advance the WAL floor). A dropped copy must not report
            // bytes a kept copy still resolves through, and two dropped
            // copies are one range. Same-key entries are adjacent and
            // survivors precede the entries they shadow, so per-key
            // tracking suffices.
            let pointer = ValuePointer::decode(value)?;
            if !drop {
                self.kept.push(pointer);
            } else if !self.kept.contains(&pointer)
                && !self.dead[self.key_dead_from..].contains(&pointer)
            {
                self.dead.push(pointer);
            }
        }
        Ok(!drop)
    }

    /// The value pointers that left the tree: their value-log bytes are
    /// dead once the compaction commits.
    pub fn into_dead(self) -> Vec<ValuePointer> {
        self.dead
    }

    /// `true` if no run the output lands above can hold `user_key` — the
    /// condition for dropping a point tombstone.
    fn key_is_base(&self, user_key: &[u8]) -> bool {
        let below = self.version.levels.iter().skip(self.base_from);
        !below
            .flat_map(|level| &level.runs)
            .any(|run| run.find(self.icmp, user_key).is_some())
    }

    /// `true` if no table *outside this compaction's inputs* can hold a key
    /// in `[begin, end)` — the condition for dropping a range tombstone.
    /// Unlike the point-key check this looks at every level: a span
    /// routinely extends past the compaction's key range, so covered keys
    /// can sit in same-level or shallower tables the compaction never
    /// touches. Inputs are exempt because this merge erases their covered
    /// keys through the overlay.
    fn span_is_base(&self, begin: &[u8], end: &[u8]) -> bool {
        let ucmp = self.icmp.user_comparator();
        !self.version.all_tables().any(|(_, _, table)| {
            !self.inputs.contains(&table.table_id)
                && ucmp.compare(table.largest_user_key(), begin).is_ge()
                && ucmp.compare(table.smallest_user_key(), end).is_lt()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::CompactionStyle;
    use crate::version::{VersionBuilder, VersionEdit};
    use bolt_table::ikey::make_internal_key;

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

    /// BoLT options at table scale: a 1000-byte level 1, 100-byte logical
    /// SSTables, group compactions capped at `cap` bytes.
    fn group_opts(cap: u64, settled: bool) -> Options {
        let mut opts = Options::bolt();
        opts.level1_max_bytes = 1000;
        if let CompactionStyle::Bolt(b) = &mut opts.compaction_style {
            b.logical_sstable_bytes = 100;
            b.group_compaction_bytes = cap;
            b.settled_compaction = settled;
        }
        opts.validate().unwrap();
        opts
    }

    /// Level 1 as tables `1..` of the given sizes over `k01a..k01z`,
    /// `k02a..k02z`, …; under the `i`-th of them a level-2 table `100 + i`
    /// of `below[i]` bytes (none for 0) over the same keys.
    fn group_version(sizes: &[u64], below: &[u64]) -> Version {
        let mut tables = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let id = i as u64 + 1;
            let (lo, hi) = (format!("k{id:02}a"), format!("k{id:02}z"));
            tables.push((1, 0, meta(id, &lo, &hi, size)));
            if let Some(&under) = below.get(i).filter(|&&b| b > 0) {
                tables.push((2, 0, meta(100 + id, &lo, &hi, under)));
            }
        }
        version_with(&tables)
    }

    /// The ids a pick takes out of its level: merge victims and moves.
    fn taken(opts: &Options, v: &Version) -> Vec<u64> {
        let task = pick_compaction(opts, &icmp(), v, None).unwrap();
        assert_eq!((task.level, task.output), (1, OutputShape::Leveled));
        let tables = task.victims().chain(task.settled_moves.iter());
        let mut ids: Vec<u64> = tables.map(|t| t.table_id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn group_compaction_gathers_victims_to_budget() {
        // A 1-byte target: the debt (399) exceeds the cap, and the cap is
        // what goes.
        let mut opts = group_opts(250, false);
        opts.level1_max_bytes = 1;
        let v = group_version(&[100; 4], &[]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        let victims = task.input_runs[0].len() + task.settled_moves.len();
        assert_eq!(victims, 3, "100+100+100 >= 250 budget -> 3 victims");
        // L2 is empty, so every victim is a zero-overlap (trivial) move.
        assert_eq!(task.settled_moves.len(), 3);
    }

    #[test]
    fn settled_compaction_prefers_low_overlap_victims() {
        let mut opts = group_opts(200, true);
        opts.level1_max_bytes = 1;
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

    /// A BoLT group is the level's debt, no less than 1.5 level targets and
    /// no more than `group_compaction_bytes` — and never all but a runt.
    #[test]
    fn a_group_moves_what_the_level_owes() {
        const NO_CAP: u64 = 1 << 20;
        let all = |n: u64| (1..=n).collect::<Vec<u64>>();

        // Three targets: the debt (two) goes, lowest overlap ratio first —
        // table 3 overlaps nothing, 1, 6 and 4 little — and the two tables
        // that would drag the most of level 2 along per byte stay.
        let below = [100, 600, 0, 300, 900, 200];
        let v = group_version(&[500; 6], &below);
        assert_eq!(taken(&group_opts(NO_CAP, true), &v), [1, 3, 4, 6]);

        // Ratio beats bytes: tables 1 and 2 overlap the same 1000 bytes,
        // and the cap has room for one. The large one moves nine times the
        // bytes for them (ascending overlap *bytes* would take 1, then 2).
        let v = version_with(&[
            (1, 0, meta(1, "a", "c", 100)),
            (1, 0, meta(2, "d", "f", 900)),
            (2, 0, meta(3, "a", "f", 1000)),
        ]);
        assert_eq!(taken(&group_opts(900, true), &v), [2]);

        // The floor: a level 1 % over its target goes whole, not 10 bytes
        // of it; a level at two targets gives up one and a half, not one.
        let v = group_version(&[101; 10], &[]);
        assert_eq!(taken(&group_opts(NO_CAP, true), &v), all(10));
        let v = group_version(&[100; 20], &[]);
        assert_eq!(taken(&group_opts(NO_CAP, true), &v), all(15));

        // The cap: three targets over, 1200 bytes allowed.
        let v = group_version(&[100; 40], &[]);
        assert_eq!(taken(&group_opts(1200, true), &v), all(12));

        // Exactly at its target a level scores 1.0 and owes nothing: the
        // scheduler would spin if the picker agreed.
        let v = group_version(&[100; 10], &[]);
        let opts = group_opts(NO_CAP, true);
        assert!(needs_compaction(&opts, &v));
        assert_eq!(taken(&opts, &v), all(10));

        // The remainder: under ratio order a runt comes last (50 bytes
        // over a 100-byte table: ratio 2), and 1500 of 1550 bytes would
        // leave it alone in the level, one more run under every read. It
        // goes too — unless the cap says 1500.
        let sizes = [&[50][..], &[100; 15]].concat();
        let v = group_version(&sizes, &[100]);
        assert_eq!(taken(&group_opts(NO_CAP, true), &v), all(16));
        assert_eq!(
            taken(&group_opts(1500, true), &v),
            (2..=16).collect::<Vec<_>>()
        );

        // `+GC` (round-robin, no settled selection) honours the same
        // budget, from its compact pointer on: three targets, cursor after
        // table 5, two targets' worth goes.
        let v = Arc::new(group_version(&[100; 30], &[]));
        let mut edit = VersionEdit::default();
        edit.compact_pointers
            .push((1, v.levels[1].runs[0].tables[4].largest.clone()));
        let mut builder = VersionBuilder::new(icmp(), Arc::clone(&v));
        builder.apply(&edit);
        let v = builder.build().unwrap();
        let gc = group_opts(NO_CAP, false);
        assert_eq!(taken(&gc, &v), (6..=25).collect::<Vec<_>>());
        // One logical SSTable as the cap is `+LS`: one victim, as ever.
        assert_eq!(taken(&group_opts(100, false), &v), [6]);
    }

    /// Settled compaction's whole order out of level 1 of `v`, as
    /// `(overlap, index)`.
    fn marginal_order(v: &Version) -> Vec<(u64, usize)> {
        let level = |l: usize| &v.levels[l].runs[0].tables;
        by_marginal_ratio(&icmp(), level(1), level(2), &mut 0).collect()
    }

    /// Level 1 over a target of 1000 bytes: tables 1 and 2 straddle level
    /// 2's table 5, table 2 also overlaps 6, table 3 alone overlaps 7 and
    /// table 4 drags twice its size along. The debt is 2000 bytes.
    fn neighbours_and_a_loner() -> Vec<(u32, u64, TableMeta)> {
        vec![
            (1, 0, meta(1, "a", "c", 1000)),
            (1, 0, meta(2, "d", "g", 1000)),
            (1, 0, meta(3, "h", "j", 600)),
            (1, 0, meta(4, "m", "o", 400)),
            (2, 0, meta(5, "b", "e", 500)),
            (2, 0, meta(6, "f", "g", 300)),
            (2, 0, meta(7, "i", "i", 360)),
            (2, 0, meta(8, "n", "n", 800)),
        ]
    }

    #[test]
    fn a_group_shares_the_table_its_neighbours_straddle() {
        // Alone, table 3 (360 ÷ 600 = 0.6) beats table 2 (800 ÷ 1000 =
        // 0.8), and a per-victim order takes 1, 3, 2: 1160 bytes of level 2
        // for 2600 moved. Once table 1 is in, table 2 adds only table 6
        // (0.3): the group is 1 and 2, 800 bytes for 2000.
        let v = version_with(&neighbours_and_a_loner());
        let task = pick_from_single_run(&group_opts(1 << 20, true), &icmp(), &v, 1);
        let ids = |tables: &[Arc<TableMeta>]| tables.iter().map(|t| t.table_id).collect::<Vec<_>>();
        assert_eq!(ids(&task.input_runs[0]), [1, 2]);
        assert_eq!(ids(&task.next_inputs), [5, 6]);
        assert!(task.settled_moves.is_empty());
    }

    #[test]
    fn a_victim_whose_overlap_is_already_charged_rides_free_but_is_merged() {
        // Table 2 overlaps only table 5, which table 1 already rewrites: its
        // own ratio (2.5) is the level's worst, its marginal one 0.
        let v = version_with(&[
            (1, 0, meta(1, "a", "c", 1000)),
            (1, 0, meta(2, "d", "e", 200)),
            (1, 0, meta(3, "h", "j", 1000)),
            (1, 0, meta(4, "m", "o", 800)),
            (2, 0, meta(5, "b", "e", 500)),
            (2, 0, meta(6, "i", "i", 800)),
            (2, 0, meta(7, "n", "n", 2000)),
        ]);
        assert_eq!(
            marginal_order(&v),
            [(500, 0), (500, 1), (800, 2), (2000, 3)]
        );

        let task = pick_from_single_run(&group_opts(1 << 20, true), &icmp(), &v, 1);
        let merged: Vec<u64> = task.victims().map(|t| t.table_id).collect();
        assert_eq!(merged, [1, 2, 3], "taken, and merged: it does overlap");
        assert!(task.settled_moves.is_empty());
        let next: Vec<u64> = task.next_inputs.iter().map(|t| t.table_id).collect();
        assert_eq!(next, [5, 6]);
    }

    #[test]
    fn zero_overlap_tables_still_settle_first() {
        // Tables 3 and 4 overlap nothing and go first. Table 2 overlaps
        // only what table 1 does: it rides free, but only once 1 is in.
        let v = version_with(&[
            (1, 0, meta(1, "a", "c", 100)),
            (1, 0, meta(2, "d", "e", 100)),
            (1, 0, meta(3, "f", "f", 100)),
            (1, 0, meta(4, "h", "i", 100)),
            (1, 0, meta(5, "j", "k", 100)),
            (2, 0, meta(6, "b", "e", 50)),
            (2, 0, meta(7, "j", "j", 100)),
        ]);
        let order: Vec<usize> = marginal_order(&v).iter().map(|&(_, idx)| idx).collect();
        assert_eq!(order, [2, 3, 0, 1, 4]);

        // A budget of two tables is the two that overlap nothing: a move.
        let mut opts = group_opts(200, true);
        opts.level1_max_bytes = 1;
        let task = pick_from_single_run(&opts, &icmp(), &v, 1);
        let moved: Vec<u64> = task.settled_moves.iter().map(|t| t.table_id).collect();
        assert_eq!(moved, [3, 4]);
        assert!(task.is_move_only());
    }

    /// A run at `level` of tables `first_id..` out of `(gap, width, size)`:
    /// each starts `gap` keys past the end of the one before and ends
    /// `width` keys later.
    fn laid_out(
        level: u32,
        first_id: u64,
        shape: &[(u64, u64, u64)],
    ) -> Vec<(u32, u64, TableMeta)> {
        let mut at = 0;
        let table = |(&(gap, width, size), id)| {
            let start = at + gap;
            at = start + width;
            let (lo, hi) = (format!("k{start:05}"), format!("k{at:05}"));
            (level, 0, meta(id, &lo, &hi, size))
        };
        shape.iter().zip(first_id..).map(table).collect()
    }

    /// The marginal order the slow way: each step rescans both levels.
    fn marginal_order_by_rescan(level: &[Arc<TableMeta>], below: &[Arc<TableMeta>]) -> Vec<usize> {
        let icmp = icmp();
        let overlaps = |a: &TableMeta, b: &TableMeta| {
            a.overlaps(&icmp, b.smallest_user_key(), b.largest_user_key())
        };
        let mut charged = vec![false; below.len()];
        let mut left: Vec<usize> = (0..level.len()).collect();
        let mut order = Vec::new();
        while !left.is_empty() {
            let cost = |i: usize| -> u128 {
                let uncharged = below.iter().zip(&charged).filter(|(_, &c)| !c);
                let over = uncharged.filter(|(b, _)| overlaps(&level[i], b));
                over.map(|(b, _)| u128::from(b.size)).sum()
            };
            let size = |i: usize| u128::from(level[i].size.max(1));
            let by_ratio = |&a: &usize, &b: &usize| {
                (cost(a) * size(b))
                    .cmp(&(cost(b) * size(a)))
                    .then(a.cmp(&b))
            };
            let best = left.iter().copied().min_by(by_ratio).unwrap();
            left.retain(|&i| i != best);
            for (j, b) in below.iter().enumerate() {
                charged[j] |= overlaps(&level[best], b);
            }
            order.push(best);
        }
        order
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]

        /// Any two-level tree: narrow and wide tables, gaps, any sizes,
        /// target and cap.
        #[test]
        fn a_settled_pick_is_well_formed_and_greedy_at_the_margin(
            upper in proptest::collection::vec((1u64..4, 0u64..6, 1u64..1000), 1..40),
            lower in proptest::collection::vec((1u64..12, 0u64..40, 1u64..3000), 0..16),
            target in 1u64..20_000,
            cap in 100u64..20_000,
        ) {
            let icmp = icmp();
            let mut tables = laid_out(1, 1, &upper);
            tables.extend(laid_out(2, 1000, &lower));
            let v = version_with(&tables);
            let mut opts = group_opts(cap, true);
            opts.level1_max_bytes = target;
            let task = pick_from_single_run(&opts, &icmp, &v, 1);

            // Victims: out of one sorted run, so sorted and disjoint.
            let merged: Vec<&Arc<TableMeta>> = task.victims().collect();
            let mut taken = merged.clone();
            taken.extend(&task.settled_moves);
            taken.sort_by(|a, b| icmp.compare(&a.smallest, &b.smallest));
            for side in [&merged, &task.settled_moves.iter().collect(), &taken] {
                for pair in side.windows(2) {
                    let (a, b) = (pair[0].largest_user_key(), pair[1].smallest_user_key());
                    proptest::prop_assert!(a < b, "victims out of order or overlapping");
                }
            }
            // Split by absolute overlap: a move overlaps nothing below, a
            // merged victim something.
            let below = |t: &TableMeta| {
                let (begin, end) = (t.smallest_user_key(), t.largest_user_key());
                v.overlapping(&icmp, 2, begin, end).count()
            };
            proptest::prop_assert!(task.settled_moves.iter().all(|t| below(t) == 0));
            proptest::prop_assert!(merged.iter().all(|t| below(t) > 0));
            // The rewritten tables are exactly what the merged victims overlap.
            let ids = |tables: &[&Arc<TableMeta>]| tables.iter().map(|t| t.table_id).collect::<Vec<_>>();
            let straddled = |b: &&Arc<TableMeta>| {
                let (begin, end) = (b.smallest_user_key(), b.largest_user_key());
                merged.iter().any(|t| t.overlaps(&icmp, begin, end))
            };
            let rewritten: Vec<&Arc<TableMeta>> = v.levels[2].tables().filter(straddled).collect();
            let next_inputs: Vec<&Arc<TableMeta>> = task.next_inputs.iter().collect();
            proptest::prop_assert_eq!(ids(&rewritten), ids(&next_inputs));

            // The group: the rescanning order's prefix, cut where `gather`
            // cuts — the budget met with a table left behind, or the cap.
            let level: Vec<Arc<TableMeta>> = v.levels[1].tables().cloned().collect();
            let lower: Vec<Arc<TableMeta>> = v.levels[2].tables().cloned().collect();
            let level_bytes = bytes(&level);
            let floor = target * GROUP_FLOOR.0 / GROUP_FLOOR.1;
            let budget = level_bytes.saturating_sub(target).max(floor).min(cap);
            let (mut expected, mut total) = (Vec::new(), 0);
            for idx in marginal_order_by_rescan(&level, &lower) {
                expected.push(level[idx].table_id);
                total += level[idx].size;
                if total >= cap || (total >= budget && level_bytes - total >= 100) {
                    break;
                }
            }
            expected.sort_unstable();
            proptest::prop_assert_eq!(ids(&taken), expected);
        }
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

    /// An entry of a merge, as a drop-rule case spells it.
    type Entry = (&'static str, u64, ValueType, Vec<u8>);

    fn put(key: &'static str, seq: u64) -> Entry {
        (key, seq, ValueType::Value, b"v".to_vec())
    }

    fn del(key: &'static str, seq: u64) -> Entry {
        (key, seq, ValueType::Deletion, Vec::new())
    }

    /// A range tombstone over `[begin, end)`.
    fn rdel(begin: &'static str, end: &'static str, seq: u64) -> Entry {
        (
            begin,
            seq,
            ValueType::RangeTombstone,
            end.as_bytes().to_vec(),
        )
    }

    /// A pointer to ten value-log bytes at `offset` of segment 7.
    fn ptr(key: &'static str, seq: u64, offset: u64) -> Entry {
        let pointer = ValuePointer {
            file_number: 7,
            offset,
            len: 10,
            crc: 0,
        };
        (key, seq, ValueType::ValuePointer, pointer.encode().to_vec())
    }

    /// The rule checked where it lives, one row per clause: what a merge of
    /// the tables `inputs` (ids) of the version `tables`, landing at
    /// `output_level` in shape `output` under the range tombstones
    /// `overlay` while the oldest snapshot reads at `horizon`, keeps (`K`)
    /// and drops (`D`) of `entries`, and the value-log offsets it reports
    /// dead.
    #[test]
    fn drop_rule_decides_every_clause() {
        use OutputShape::{AppendRun, Leveled, ReplaceRun};
        struct Case {
            clause: &'static str,
            tables: Vec<(u32, u64, TableMeta)>,
            inputs: &'static [u64],
            output_level: usize,
            output: OutputShape,
            overlay: &'static [(&'static str, &'static str, u64)],
            horizon: u64,
            entries: Vec<Entry>,
            verdicts: &'static str,
            dead: &'static [u64],
        }
        // A leveled merge of table 1 (level 1) into level 2, nothing else
        // in the tree, no tombstones, no snapshot below sequence 100.
        let base = || Case {
            clause: "",
            tables: vec![(1, 0, meta(1, "a", "z", 1))],
            inputs: &[1],
            output_level: 2,
            output: Leveled,
            overlay: &[],
            horizon: 100,
            entries: Vec::new(),
            verdicts: "",
            dead: &[],
        };
        let deeper_k = || vec![(1, 0, meta(1, "a", "z", 1)), (3, 0, meta(2, "j", "l", 1))];
        let same_level_k = || vec![(1, 0, meta(1, "a", "z", 1)), (2, 5, meta(2, "j", "l", 1))];
        let cases = vec![
            Case {
                clause: "the newest version stays, what it shadows goes",
                entries: vec![put("k", 50), put("k", 20), put("z", 10)],
                verdicts: "KDK",
                ..base()
            },
            Case {
                clause: "a version a snapshot reads is not shadowed by a newer one",
                horizon: 30,
                entries: vec![put("k", 50), put("k", 25), put("k", 10)],
                verdicts: "KKD",
                ..base()
            },
            Case {
                clause: "a version exactly at the horizon shadows",
                horizon: 30,
                entries: vec![put("k", 30), put("k", 20)],
                verdicts: "KD",
                ..base()
            },
            Case {
                clause: "a version just above the horizon does not",
                horizon: 29,
                entries: vec![put("k", 30), put("k", 20)],
                verdicts: "KK",
                ..base()
            },
            Case {
                clause: "a point tombstone goes when nothing below can hold its key",
                entries: vec![del("k", 5)],
                verdicts: "D",
                ..base()
            },
            Case {
                clause: "a point tombstone stays while a deeper run can hold its key",
                tables: deeper_k(),
                entries: vec![del("a", 5), del("k", 5)],
                verdicts: "DK",
                ..base()
            },
            Case {
                clause: "a point tombstone a snapshot cannot see yet stays",
                entries: vec![del("k", 200)],
                verdicts: "K",
                ..base()
            },
            Case {
                clause: "an appended run lands above its level's runs: they decide too",
                tables: same_level_k(),
                output: AppendRun,
                entries: vec![del("a", 5), del("k", 5)],
                verdicts: "DK",
                ..base()
            },
            Case {
                clause: "a leveled merge has its level's overlaps among its inputs",
                tables: same_level_k(),
                inputs: &[1, 2],
                entries: vec![del("k", 5)],
                verdicts: "D",
                ..base()
            },
            Case {
                clause: "a replaced run is the oldest of the deepest level",
                tables: vec![(6, 3, meta(1, "a", "z", 1)), (6, 4, meta(2, "j", "l", 1))],
                output_level: 6,
                output: ReplaceRun { tag: 3 },
                entries: vec![del("k", 5)],
                verdicts: "D",
                ..base()
            },
            Case {
                clause: "a range tombstone every snapshot sees erases what it covers",
                overlay: &[("c", "m", 40)],
                horizon: 50,
                entries: vec![put("b", 10), put("c", 10), put("d", 45), put("m", 10)],
                verdicts: "KDKK",
                ..base()
            },
            Case {
                clause: "a range tombstone above the horizon erases nothing",
                overlay: &[("c", "m", 60)],
                horizon: 50,
                entries: vec![put("c", 10)],
                verdicts: "K",
                ..base()
            },
            Case {
                clause: "a range tombstone goes once every snapshot sees it and its span is base",
                horizon: 50,
                entries: vec![rdel("c", "m", 40)],
                verdicts: "D",
                ..base()
            },
            Case {
                clause: "a range tombstone newer than the oldest snapshot stays, base span or not",
                horizon: 30,
                entries: vec![rdel("c", "m", 40)],
                verdicts: "K",
                ..base()
            },
            Case {
                clause: "the span check looks past the output level, at every table not an input",
                tables: vec![
                    (0, 9, meta(3, "x", "z", 1)),
                    (1, 0, meta(1, "a", "c", 1)),
                    (1, 0, meta(2, "p", "q", 1)),
                ],
                entries: vec![rdel("a", "p", 40), rdel("a", "q", 40), rdel("r", "y", 40)],
                verdicts: "DKK",
                ..base()
            },
            Case {
                clause: "a range tombstone neither shadows nor is shadowed at its begin key",
                tables: vec![(1, 0, meta(1, "a", "c", 1)), (1, 0, meta(2, "p", "q", 1))],
                entries: vec![put("a", 60), rdel("a", "q", 40), put("a", 30)],
                verdicts: "KKD",
                ..base()
            },
            Case {
                clause: "a dropped replay duplicate of a kept pointer is not dead; two dropped copies are one range",
                entries: vec![
                    ptr("k", 50, 0),
                    ptr("k", 50, 0),
                    ptr("k", 20, 64),
                    ptr("k", 20, 64),
                    ptr("m", 9, 0),
                    ptr("m", 8, 0),
                    ptr("m", 7, 128),
                ],
                verdicts: "KDDDKDD",
                dead: &[64, 128],
                ..base()
            },
        ];
        for case in cases {
            let clause = case.clause;
            let version = version_with(&case.tables);
            let inputs = version.all_tables().map(|(_, _, table)| table);
            let inputs = inputs.filter(|table| case.inputs.contains(&table.table_id));
            let task = CompactionTask {
                input_runs: vec![inputs.cloned().collect()],
                output_level: case.output_level,
                ..CompactionTask::new(case.output_level.saturating_sub(1), case.output)
            };
            let tombstones = case.overlay.iter().map(|&(begin, end, sequence)| {
                bolt_table::rangedel::RangeTombstone {
                    begin: begin.as_bytes().to_vec(),
                    end: end.as_bytes().to_vec(),
                    sequence,
                }
            });
            let overlay = RangeTombstoneSet::build(tombstones.collect());
            let icmp = icmp();
            let mut rule = DropRule::new(&icmp, &version, &task, &overlay, case.horizon);
            let verdicts: String = (case.entries.iter())
                .map(|(key, seq, value_type, value)| {
                    let key = make_internal_key(key.as_bytes(), *seq, *value_type);
                    match rule.keep(&key, value).unwrap() {
                        true => 'K',
                        false => 'D',
                    }
                })
                .collect();
            assert_eq!(verdicts, case.verdicts, "{clause}");
            let dead: Vec<u64> = rule.into_dead().iter().map(|p| p.offset).collect();
            assert_eq!(dead, case.dead, "{clause}: dead value-log offsets");
        }
    }

    fn tiered_opts(kind: CompactionPolicyKind) -> Options {
        let mut opts = Options::bolt();
        opts.compaction_policy = kind;
        opts
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
        // other: both must rewrite into the single bottom run. So must 5 and
        // the two tables inside its range, 7 as much as 6 — the key that
        // reaches 7 is 5's, not its neighbour's.
        let v = version_with(&[
            (5, 1, meta(1, "a", "d", 100)),
            (5, 2, meta(2, "c", "f", 100)),
            (5, 3, meta(3, "x", "z", 100)),
            (5, 4, meta(4, "p", "q", 100)),
            (5, 5, meta(5, "g", "o", 100)),
            (5, 6, meta(6, "h", "i", 50)),
            (5, 6, meta(7, "k", "l", 50)),
        ]);
        let task = pick_compaction(&opts, &icmp(), &v, None).unwrap();
        let mut merge_ids: Vec<u64> = task.victims().map(|t| t.table_id).collect();
        merge_ids.sort_unstable();
        assert_eq!(merge_ids, vec![1, 2, 5, 6, 7]);
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
            CompactionPolicyKind::Fragmented,
        ] {
            let mut opts = tiered_opts(kind);
            opts.level1_max_bytes = 450; // the fifth 100-byte run tips level 1
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

    /// One picked task as a row: levels, shape, reason, victim ids run by
    /// run, next-level input ids, settled ids.
    fn row(task: Option<CompactionTask>) -> String {
        let Some(t) = task else {
            return "-".to_string();
        };
        let ids = |tables: &[Arc<TableMeta>]| tables.iter().map(|t| t.table_id).collect::<Vec<_>>();
        let victims: Vec<Vec<u64>> = t.input_runs.iter().map(|r| ids(r)).collect();
        format!(
            "L{}->L{} {:?} {:?} v{:?} n{:?} s{:?}",
            t.level,
            t.output_level,
            t.output,
            t.reason,
            victims,
            ids(&t.next_inputs),
            ids(&t.settled_moves),
        )
    }

    /// The picker names the tables it named before the policies shared one
    /// implementation: every row below was printed by the three-struct
    /// picker of PR 19 and is compared as a literal. `illegal` is a version
    /// the policy's layout refuses to build. The deliberate differences: a
    /// seek candidate under `fragmented` is dropped (that picker sank the
    /// table, on a stacked level below an older run), and the rung at three
    /// times level 1's budget is new with the debt-bounded group — no other
    /// rung holds a level far enough over its target for BoLT's row to
    /// differ from "all of it", so none was re-pinned — and the one beside
    /// it, where neighbours share a table below, with the marginal order
    /// (every earlier row kept).
    #[test]
    fn every_policy_picks_the_tasks_it_always_picked() {
        type Tables = Vec<(u32, u64, TableMeta)>;
        /// Name, version, seek candidate `(level, table id)`, and the
        /// expected rows in the order of `policies` below.
        type Rung = (
            &'static str,
            Tables,
            Option<(usize, u64)>,
            [&'static str; 5],
        );
        let l0 = || {
            vec![
                (0, 1, meta(1, "a", "m", 100)),
                (0, 2, meta(2, "c", "p", 100)),
                (0, 3, meta(3, "b", "d", 100)),
                (0, 4, meta(4, "x", "z", 100)),
            ]
        };
        let l1_over = || {
            vec![
                (1, 0, meta(1, "a", "c", 600)),
                (1, 0, meta(2, "e", "ea", 600)),
                (1, 0, meta(3, "i", "k", 600)),
            ]
        };
        let with = |mut base: Tables, more: Tables| {
            base.extend(more);
            base
        };
        let ladder: Vec<Rung> = vec![
            ("empty", vec![], None, ["-"; 5]),
            (
                // Table 6 overlaps the bounding range of L0 but no L0 table.
                "L0 at trigger",
                with(
                    l0(),
                    vec![
                        (1, 0, meta(5, "a", "c", 100)),
                        (1, 0, meta(6, "q", "r", 100)),
                    ],
                ),
                None,
                [
                    "L0->L1 Leveled Level0 v[[4], [3], [2], [1]] n[5, 6] s[]",
                    "L0->L1 Leveled Level0 v[[4], [3], [2], [1]] n[5, 6] s[]",
                    "L0->L1 AppendRun Level0 v[[4], [3], [2], [1]] n[] s[]",
                    "L0->L1 AppendRun Level0 v[[4], [3], [2], [1]] n[] s[]",
                    "L0->L1 AppendRun Level0 v[[4], [3], [2], [1]] n[] s[]",
                ],
            ),
            (
                // Both score 1.0: leveled scoring breaks the tie downwards.
                "L0 at trigger, L1 exactly at budget",
                with(
                    l0(),
                    vec![
                        (1, 0, meta(5, "a", "c", 500)),
                        (1, 0, meta(6, "q", "r", 500)),
                    ],
                ),
                None,
                [
                    "L1->L2 Leveled Size v[[]] n[] s[5]",
                    "L1->L2 Leveled Size v[[]] n[] s[5, 6]",
                    "L0->L1 AppendRun Level0 v[[4], [3], [2], [1]] n[] s[]",
                    "L0->L1 AppendRun Level0 v[[4], [3], [2], [1]] n[] s[]",
                    "L1->L2 AppendRun Size v[[5, 6]] n[] s[]",
                ],
            ),
            (
                "L1 over budget, nothing below",
                l1_over(),
                None,
                [
                    "L1->L2 Leveled Size v[[]] n[] s[1]",
                    "L1->L2 Leveled Size v[[]] n[] s[1, 2, 3]",
                    "-",
                    "-",
                    "L1->L2 AppendRun Size v[[1, 2, 3]] n[] s[]",
                ],
            ),
            (
                "L1 over budget, overlap below",
                with(
                    l1_over(),
                    vec![
                        (2, 0, meta(4, "a", "d", 100)),
                        (2, 0, meta(5, "f", "j", 100)),
                        (2, 0, meta(6, "x", "z", 100)),
                    ],
                ),
                None,
                [
                    "L1->L2 Leveled Size v[[1]] n[4] s[]",
                    "L1->L2 Leveled Size v[[1, 3]] n[4, 5] s[2]",
                    "-",
                    "-",
                    "L1->L2 AppendRun Size v[[1, 2, 3]] n[] s[]",
                ],
            ),
            (
                // The one rung where a BoLT group is not the whole level:
                // at three times its budget level 1 gives up the two it
                // owes, by overlap ratio — 2 and 5 overlap nothing, 1 and 3
                // a sixth of their size — and keeps table 4, which would
                // drag 1.5 bytes of level 2 along per byte.
                "L1 at three times its budget, overlap below",
                vec![
                    (1, 0, meta(1, "a", "c", 600)),
                    (1, 0, meta(2, "e", "ea", 600)),
                    (1, 0, meta(3, "i", "k", 600)),
                    (1, 0, meta(4, "m", "o", 600)),
                    (1, 0, meta(5, "q", "s", 600)),
                    (2, 0, meta(6, "a", "d", 100)),
                    (2, 0, meta(7, "f", "j", 100)),
                    (2, 0, meta(8, "l", "p", 900)),
                    (2, 0, meta(9, "x", "z", 100)),
                ],
                None,
                [
                    "L1->L2 Leveled Size v[[1]] n[6] s[]",
                    "L1->L2 Leveled Size v[[1, 3]] n[6, 7] s[2, 5]",
                    "-",
                    "-",
                    "L1->L2 AppendRun Size v[[1, 2, 3, 4, 5]] n[] s[]",
                ],
            ),
            (
                // Where the marginal ratio and a victim's own part ways:
                // with table 1 in, table 2 adds 0.3 bytes of level 2 per
                // byte and table 3 0.6, though alone 2 costs 0.8. A
                // per-victim order took v[[1, 2, 3]] n[5, 6, 7].
                "L1 at three times its budget, neighbours share a table below",
                neighbours_and_a_loner(),
                None,
                [
                    "L1->L2 Leveled Size v[[1]] n[5] s[]",
                    "L1->L2 Leveled Size v[[1, 2]] n[5, 6] s[]",
                    "-",
                    "-",
                    "L1->L2 AppendRun Size v[[1, 2, 3, 4]] n[] s[]",
                ],
            ),
            (
                // A size bucket for the tiered kinds, the whole level for
                // the fragmented one (over its byte budget).
                "three runs on a middle level, the newest out of band",
                vec![
                    (3, 5, meta(1, "a", "c", 100)),
                    (3, 6, meta(2, "b", "d", 100)),
                    (3, 7, meta(3, "a", "d", 100_000)),
                ],
                None,
                [
                    "illegal",
                    "illegal",
                    "L3->L4 AppendRun Size v[[2], [1]] n[] s[]",
                    "L3->L4 AppendRun Size v[[2], [1]] n[] s[]",
                    "L3->L4 AppendRun Size v[[3], [2], [1]] n[] s[]",
                ],
            ),
            (
                // Tiered scoring breaks the tie upwards.
                "equal debt on two levels",
                vec![
                    (2, 5, meta(1, "a", "c", 100)),
                    (2, 6, meta(2, "b", "d", 100)),
                    (4, 7, meta(3, "a", "c", 100)),
                    (4, 8, meta(4, "b", "d", 100)),
                ],
                None,
                [
                    "illegal",
                    "illegal",
                    "L2->L3 AppendRun Size v[[2], [1]] n[] s[]",
                    "L2->L3 AppendRun Size v[[2], [1]] n[] s[]",
                    "-",
                ],
            ),
            (
                "runs on the level above the deepest",
                vec![
                    (5, 1, meta(1, "a", "c", 100)),
                    (5, 2, meta(2, "e", "g", 100)),
                    (5, 3, meta(3, "m", "o", 100)),
                    (5, 4, meta(4, "n", "p", 100)),
                    (6, 0, meta(5, "a", "d", 100)),
                ],
                None,
                [
                    "illegal",
                    "illegal",
                    "L5->L6 AppendRun Size v[[4], [3], [2], [1]] n[] s[]",
                    "L5->L6 Leveled Size v[[4], [3], [], [1]] n[5] s[2]",
                    "-",
                ],
            ),
            (
                "deepest level, one huge run",
                vec![(6, 0, meta(1, "a", "z", 1 << 40))],
                None,
                ["-"; 5],
            ),
            (
                "deepest level, stacked",
                vec![
                    (6, 1, meta(1, "a", "c", 100)),
                    (6, 2, meta(2, "b", "d", 100)),
                    (6, 3, meta(3, "a", "d", 100)),
                    (6, 4, meta(4, "c", "e", 10_000)),
                ],
                None,
                [
                    "illegal",
                    "illegal",
                    "L6->L6 ReplaceRun { tag: 3 } Size v[[3], [2], [1]] n[] s[]",
                    "illegal",
                    "-",
                ],
            ),
            (
                "seek candidate at L0",
                vec![
                    (0, 1, meta(1, "a", "m", 100)),
                    (0, 2, meta(4, "c", "p", 10_000)),
                    (1, 0, meta(2, "a", "c", 100)),
                    (1, 0, meta(3, "x", "z", 100)),
                ],
                Some((0, 1)),
                [
                    "L0->L1 Leveled Seek v[[4], [1]] n[2] s[]",
                    "L0->L1 Leveled Seek v[[4], [1]] n[2] s[]",
                    "-",
                    "-",
                    "-", // was "L0->L1 Leveled Seek v[[4], [1]] n[2] s[]"
                ],
            ),
            (
                "seek candidate at a single-run level",
                vec![
                    (2, 0, meta(1, "a", "c", 100)),
                    (3, 0, meta(2, "b", "d", 100)),
                    (3, 0, meta(3, "x", "z", 100)),
                ],
                Some((2, 1)),
                [
                    "L2->L3 Leveled Seek v[[1]] n[2] s[]",
                    "L2->L3 Leveled Seek v[[1]] n[2] s[]",
                    "-",
                    "-",
                    "-", // was "L2->L3 Leveled Seek v[[1]] n[2] s[]"
                ],
            ),
            (
                "seek candidate at a stacked level",
                vec![
                    (1, 5, meta(1, "a", "m", 10)),
                    (1, 6, meta(2, "a", "z", 500)),
                    (2, 0, meta(3, "k", "l", 100)),
                ],
                Some((1, 2)),
                [
                    "illegal", "illegal", "-", "-",
                    "-", // was "L1->L2 Leveled Seek v[[2]] n[3] s[]": defect (a)
                ],
            ),
        ];
        let tune = |mut opts: Options| {
            opts.level1_max_bytes = 1000;
            opts.size_tiered_min_threshold = 2;
            opts.seek_compaction = true;
            // Output tables at the scale of the ladder's: a remainder of
            // one 600-byte table is no runt.
            if let CompactionStyle::Bolt(b) = &mut opts.compaction_style {
                b.logical_sstable_bytes = 100;
            }
            opts
        };
        let policies = [
            ("leveled, a file per table", tune(Options::leveldb())),
            ("leveled, BoLT", tune(Options::bolt())),
            (
                "size_tiered",
                tune(tiered_opts(CompactionPolicyKind::SizeTiered)),
            ),
            (
                "lazy_leveled",
                tune(tiered_opts(CompactionPolicyKind::LazyLeveled)),
            ),
            ("fragmented", tune(Options::pebblesdb())),
        ];
        for (rung, tables, seek, expected) in &ladder {
            for ((policy, opts), expected) in policies.iter().zip(expected) {
                let edit = VersionEdit {
                    added_tables: tables.clone(),
                    ..Default::default()
                };
                let mut builder = VersionBuilder::new(icmp(), Arc::new(Version::empty(7)));
                builder.set_single_run_from(opts.compaction_policy.single_run_from(7));
                builder.apply(&edit);
                let got = match builder.build() {
                    Err(_) => "illegal".to_string(),
                    Ok(v) => {
                        let sized = pick_compaction(opts, &icmp(), &v, None);
                        assert_eq!(needs_compaction(opts, &v), sized.is_some());
                        let seek = seek.map(|(level, id)| {
                            let mut tables = v.levels[level].tables();
                            let table = tables.find(|t| t.table_id == id).unwrap();
                            (level, Arc::clone(table))
                        });
                        row(pick_compaction(opts, &icmp(), &v, seek))
                    }
                };
                assert_eq!(&got, expected, "{rung}, {policy}");
            }
        }
    }
}
