//! The compaction executor — where the paper's mechanisms act:
//!
//! * **Stock styles** write each output table to its own file and pay one
//!   `fsync` per table plus one for the MANIFEST (Fig 3a).
//! * **BoLT** streams every output table of a compaction into one
//!   *compaction file* and pays exactly two barriers — one for the file,
//!   one for the MANIFEST (Fig 3b) — regardless of how many logical
//!   SSTables were produced ([`OutputSink`]).
//! * **Settled compaction** promotes zero-overlap victims with a pure
//!   MANIFEST edit; their bytes never move.
//!
//! Picking lives in [`crate::compaction`]; this module only executes a
//! [`CompactionTask`]. It owns no [`super::DbState`] field: it reads
//! `snapshots` for the drop horizon and runs on the background thread. Its
//! commit is one of the three view installs (the version alone changes).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::Result;
use bolt_table::comparator::InternalKeyComparator;
use bolt_table::ikey::{parse_internal_key, ValueType};
use bolt_table::rangedel::RangeTombstoneSet;
use bolt_table::seq::SeqReadStats;
use bolt_table::{BuiltTable, Table, TableBuilder, TableCache};

use super::{DbInner, ReadView};
use crate::compaction::{clusters, CompactionReason, CompactionTask, DropFilter, OutputShape};
use crate::filename::table_file;
use crate::iterator::{InternalIterator, MergingIter, RunIter};
use crate::version::{TableList, TableMeta, Version, VersionEdit};
use crate::versions::{RangeSet, VersionSet};
use crate::vlog::ValuePointer;

impl DbInner {
    pub(super) fn run_compaction(&self, task: CompactionTask) -> Result<()> {
        let output_level = task.output_level;
        let smallest_snapshot = {
            let state = self.state.lock();
            state
                .snapshots
                .iter()
                .copied()
                .min()
                .unwrap_or_else(|| self.last_sequence.load(Ordering::Acquire))
        };
        let version = Arc::clone(&self.view().version);

        let compaction_id = self.compaction_ids.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(EngineEvent::CompactionBegin {
            id: compaction_id,
            level: task.level as u32,
            victims: (task.merge_inputs().count() + task.settled_moves.len()) as u64,
            input_bytes: task.input_bytes(),
            policy: self.opts.compaction_policy.as_str(),
        });

        let mut edit = VersionEdit::default();
        // Settled compaction / trivial move: MANIFEST-only promotion.
        let deliberate_settling = self
            .opts
            .bolt_options()
            .is_some_and(|b| b.settled_compaction);
        for table in &task.settled_moves {
            edit.deleted_tables
                .push((task.level as u32, table.table_id));
            edit.added_tables
                .push((output_level as u32, 0, table.as_ref().clone()));
            if deliberate_settling {
                self.stats.record_settled_move(1);
            } else {
                self.stats.record_trivial_move(1);
            }
        }
        if !task.settled_moves.is_empty() {
            self.sink.emit(EngineEvent::SettledMove {
                id: compaction_id,
                level: task.level as u32,
                tables: task.settled_moves.len() as u64,
            });
        }

        let mut outputs: Vec<Output> = Vec::new();
        let mut dead_pointers: Vec<ValuePointer> = Vec::new();
        if !task.is_move_only() {
            let input_bytes = task.input_bytes();
            self.stats.record_compaction_input(input_bytes);

            // BoLT: one physical compaction file for the entire compaction.
            let target = self.opts.output_table_bytes();
            let mut sink = OutputSink::new(self, self.opts.bolt_options().is_some(), target);

            // Compaction-wide range-tombstone overlay, built from the
            // pinned version (which still contains the input tables).
            let overlay = if version.has_range_tombstones() {
                version.range_tombstones(&self.table_cache, &self.name)?
            } else {
                Arc::new(RangeTombstoneSet::default())
            };

            // Tables this compaction merges away: their covered keys die
            // in this very rewrite, so they never block tombstone drops.
            let input_ids: HashSet<u64> = task.merge_inputs().map(|t| t.table_id).collect();

            // Every data barrier the rewrite pays is attributed to this
            // compaction (a preempted flush re-tags its own barriers).
            let _scope = BarrierScope::new(BarrierCause::CompactionData);
            // Inputs are read once, front to back: in large spans, past the
            // caches foreground reads are served from.
            let reads = Arc::new(SeqReadStats::default());
            // Merge one independent unit of the task into the sink: its
            // runs, which for a leveled output include the overlapped
            // tables already at the output level.
            let merge_into = |sink: &mut OutputSink<'_>,
                              runs: Vec<TableList>,
                              include_output_level: bool|
             -> Result<()> {
                let children = runs
                    .into_iter()
                    .filter(|r| !r.is_empty())
                    .map(|r| -> Box<dyn InternalIterator> {
                        Box::new(RunIter::sequential(
                            self.icmp.clone(),
                            Arc::clone(&self.table_cache),
                            Arc::clone(&self.name),
                            r,
                            Arc::clone(&reads),
                        ))
                    })
                    .collect();
                let mut merged = MergingIter::new(self.icmp.clone(), children);
                merged.seek_to_first()?;
                let mut filter = DropFilter::new(smallest_snapshot);
                sink.write_run(
                    &mut merged,
                    Some(&mut filter),
                    &overlay,
                    &DropScope {
                        version: &version,
                        inputs: &input_ids,
                        output_level,
                        include_output_level,
                    },
                )
            };
            let built = (|| -> Result<Vec<Output>> {
                match task.output {
                    OutputShape::Leveled => {
                        // A cluster's runs are subsets: lists of their own.
                        for cluster in clusters(&self.icmp, &task) {
                            let runs = cluster.input_runs.into_iter();
                            let runs = runs.chain([cluster.next_inputs]);
                            merge_into(&mut sink, runs.map(TableList::from).collect(), false)?;
                        }
                    }
                    // The whole input set merges as one unit and nothing at
                    // the output level joins. Point keys: AppendRun outputs
                    // land above still-live runs, so a point tombstone
                    // survives unless no run at or below the output level
                    // can hold its key; a ReplaceRun merges the oldest
                    // suffix of the deepest level, so deeper levels alone
                    // decide. (Range tombstones use the span-wide all-level
                    // check — see `is_base_level_span`.)
                    shape => merge_into(
                        &mut sink,
                        task.input_runs.clone(),
                        shape == OutputShape::AppendRun,
                    )?,
                }
                sink.finish()
            })();
            self.stats.record_compaction_read_ops(reads.ops());
            self.stats.record_compaction_read_bytes(reads.bytes());
            outputs = match built {
                Ok(outputs) => {
                    dead_pointers = sink.take_dead_pointers();
                    outputs
                }
                Err(e) => {
                    // Nothing references these outputs yet (no MANIFEST
                    // append has happened); reclaim them so an I/O error
                    // mid-compaction cannot leak partial files or pending
                    // marks that would block garbage collection forever.
                    sink.abandon();
                    return Err(e);
                }
            };
        }

        let output_tables = outputs.len() as u64;
        let output_bytes = {
            // The commit barrier (MANIFEST append + sync) is this
            // compaction's second — and for settled moves, only — barrier.
            let _scope = BarrierScope::new(BarrierCause::CompactionManifest);
            let mut versions = self.versions.lock();
            for table in task.merge_inputs() {
                // Inputs at `task.level` and `output_level`; level recorded
                // for bookkeeping only (deletion is by table id).
                edit.deleted_tables
                    .push((task.level as u32, table.table_id));
            }
            if task.reason == CompactionReason::Size && task.output == OutputShape::Leveled {
                if let Some(key) = task.max_victim_key(&self.icmp) {
                    edit.compact_pointers.push((task.level as u32, key));
                }
            }
            // Feed the ranges this compaction dropped into the value-log
            // liveness ledger inside the same MANIFEST commit, and condemn
            // segments whose dead-range union now covers every written
            // byte. The sweep covers the whole ledger — not just touched
            // segments — so a segment left fully dead by a crashed
            // predecessor is retired too.
            let mut dead_after: HashMap<u64, RangeSet> = HashMap::new();
            for ptr in &dead_pointers {
                if let Some(info) = versions.vlog_segments().get(&ptr.file_number) {
                    let (offset, len) = (ptr.offset, u64::from(ptr.len));
                    edit.vlog_dead.push((ptr.file_number, offset, len));
                    let after = dead_after.entry(ptr.file_number);
                    let after = after.or_insert_with(|| info.dead.clone());
                    after.insert(offset, len);
                }
            }
            let mut committed_dead = 0u64;
            let mut retired = 0u64;
            for (&segment, info) in versions.vlog_segments() {
                // Union delta, not a sum of pointer lengths: duplicate
                // drops of the same range count once.
                let dead = dead_after.get(&segment).unwrap_or(&info.dead).total();
                committed_dead += dead - info.dead.total();
                if info.written.is_some_and(|w| dead >= w) {
                    edit.vlog_deleted.push(segment);
                    retired += 1;
                }
            }
            let output_bytes = commit_outputs(
                &mut versions,
                &self.table_cache,
                edit,
                output_level,
                task.output,
                outputs,
            )?;
            if committed_dead > 0 {
                self.stats.record_vlog_dead_bytes(committed_dead);
            }
            if retired > 0 {
                self.stats.record_vlog_segment_retired(retired);
            }
            self.install_view(|old| ReadView {
                version: versions.current(),
                ..old.clone()
            });
            let garbage = versions.collect_garbage(&self.table_cache);
            drop(versions);
            self.reclaim(garbage);
            self.stats.record_compaction(1);
            self.stats.record_compaction_output(output_bytes);
            output_bytes
        };
        self.sink.emit(EngineEvent::CompactionEnd {
            id: compaction_id,
            outputs: output_tables,
            output_bytes,
            settled: task.settled_moves.len() as u64,
            rewrote: output_tables > 0,
            policy: self.opts.compaction_policy.as_str(),
        });
        Ok(())
    }
}

/// One finished table of an [`OutputSink`]: the file it is in, what the
/// MANIFEST records of it, and its reader — made from the index and filter
/// the builder framed (moved out of `built`), so that nothing reads the
/// table back to open it.
pub(super) struct Output {
    file_number: u64,
    built: BuiltTable,
    reader: Arc<Table>,
}

/// Install built tables: name `outputs` in `edit` as tables of `level`
/// under the run tag `shape` dictates (a fresh run is tagged with its first
/// table id), commit the edit to the MANIFEST, release the files' pending
/// marks and cache the tables' readers under their new ids. Returns the
/// bytes installed. The one path from an [`OutputSink`]'s product to the
/// version set, shared by flush and compaction.
///
/// On a commit error the pending marks stay: the record may have reached
/// the MANIFEST despite the failed sync, so the files must outlive it. No
/// reader is cached: the ids were never installed.
pub(super) fn commit_outputs(
    versions: &mut VersionSet,
    cache: &TableCache,
    mut edit: VersionEdit,
    level: usize,
    shape: OutputShape,
    outputs: Vec<Output>,
) -> Result<u64> {
    let mut run_tag = match shape {
        OutputShape::Leveled | OutputShape::AppendRun => 0,
        OutputShape::ReplaceRun { tag } => tag,
    };
    let mut bytes = 0u64;
    let mut installed = Vec::with_capacity(outputs.len());
    for (i, output) in outputs.into_iter().enumerate() {
        let Output {
            file_number,
            built,
            reader,
        } = output;
        let table_id = versions.ids().new_table_id();
        if i == 0 && shape == OutputShape::AppendRun {
            run_tag = table_id;
        }
        bytes += built.size;
        edit.added_tables.push((
            level as u32,
            run_tag,
            TableMeta::new(
                table_id,
                file_number,
                built.offset,
                built.size,
                built.num_entries,
                built.smallest,
                built.largest,
            )
            .with_range_tombstones(built.range_tombstones)
            .with_tail_bytes(built.tail_bytes),
        ));
        installed.push((table_id, file_number, reader));
    }
    versions.log_and_apply(edit)?;
    for (table_id, file_number, reader) in installed {
        versions.reclaim.clear_pending(file_number);
        cache.insert_built(table_id, reader);
    }
    Ok(bytes)
}

/// Streams sorted entries into output tables; one physical file per table
/// for stock styles, one shared compaction file for BoLT.
pub(super) struct OutputSink<'a> {
    inner: &'a DbInner,
    bolt: bool,
    target: u64,
    file: Option<(u64, Box<dyn bolt_env::WritableFile>)>,
    outputs: Vec<(u64, BuiltTable)>,
    /// Every file number this sink created, for cleanup on failure.
    created: Vec<u64>,
    /// Value pointers dropped by the filter — their value-log bytes are
    /// dead once this compaction commits.
    dead_pointers: Vec<ValuePointer>,
}

impl<'a> OutputSink<'a> {
    pub(super) fn new(inner: &'a DbInner, bolt: bool, target: u64) -> Self {
        OutputSink {
            inner,
            bolt,
            target,
            file: None,
            outputs: Vec::new(),
            created: Vec::new(),
            dead_pointers: Vec::new(),
        }
    }

    fn take_dead_pointers(&mut self) -> Vec<ValuePointer> {
        std::mem::take(&mut self.dead_pointers)
    }

    fn ensure_file(&mut self) -> Result<()> {
        if self.file.is_none() {
            let number = self.inner.ids.new_file_number();
            self.inner.versions.lock().reclaim.mark_pending(number);
            self.created.push(number);
            let file = self
                .inner
                .env
                .new_writable_file(&table_file(&self.inner.name, number))?;
            self.file = Some((number, file));
        }
        Ok(())
    }

    /// Undo a failed build: delete every file this sink created and release
    /// its pending marks so garbage collection is not blocked forever.
    ///
    /// Safe only because none of these outputs has been named in a MANIFEST
    /// append yet — once a VersionEdit referencing them is appended, the
    /// record may commit despite a sync error (a torn-tail crash can retain
    /// it), so from that point the files must be preserved.
    pub(super) fn abandon(&mut self) {
        self.file = None;
        for &number in &self.created {
            let _ = self
                .inner
                .env
                .delete_file(&table_file(&self.inner.name, number));
        }
        let mut versions = self.inner.versions.lock();
        for number in self.created.drain(..) {
            versions.reclaim.clear_pending(number);
        }
        self.outputs.clear();
    }

    fn sync_file(inner: &DbInner, file: &mut dyn bolt_env::WritableFile) -> Result<()> {
        if inner.opts.use_ordering_barriers && inner.env.supports_ordering_barrier() {
            // BarrierFS: ordering (not durability) is enough for data files
            // because the MANIFEST fsync that follows is the commit point.
            file.ordering_barrier()
        } else {
            file.sync()
        }
    }

    /// Merge one cluster into output tables, applying the drop rule when a
    /// filter is supplied (compaction) and keeping everything otherwise
    /// (flush). `overlay` is the compaction-wide range-tombstone set,
    /// queried at the snapshot horizon to erase covered entries.
    pub(super) fn write_run(
        &mut self,
        iter: &mut dyn InternalIterator,
        mut filter: Option<&mut DropFilter>,
        overlay: &RangeTombstoneSet,
        scope: &DropScope<'_>,
    ) -> Result<()> {
        let DropScope {
            version,
            inputs,
            output_level,
            include_output_level,
        } = *scope;
        // Only compactions preempt for flushes; a flush must not recurse.
        let allow_preemption = filter.is_some();
        // Local because `builder` below holds a &mut borrow through
        // `self.file` for the whole inner loop.
        let mut dead: Vec<ValuePointer> = Vec::new();
        // Replay-duplicate guard: identical `(key, sequence, pointer)`
        // entries can reach two inputs when a crash makes recovery re-flush
        // WAL entries an earlier flush already committed (a flush need not
        // advance the WAL floor). Dropping the duplicate copy must not
        // record bytes the kept copy still resolves through, and two
        // dropped copies must not be recorded twice. Same-key entries are
        // adjacent in merge order and survivors precede dropped shadows,
        // so per-user-key tracking suffices.
        let mut guard_key: Vec<u8> = Vec::new();
        let mut kept_ptrs: Vec<Vec<u8>> = Vec::new();
        let mut counted_ptrs: Vec<Vec<u8>> = Vec::new();
        while iter.valid() {
            self.ensure_file()?;
            // ensure_file() above either populated `self.file` or returned the
            // error. bolt-lint: allow(unwrap-in-crash-path)
            let (file_number, file) = self.file.as_mut().expect("file open");
            let file_number = *file_number;
            // Flush preemption point: between output tables.
            if allow_preemption {
                self.inner.maybe_flush_pending_imm()?;
            }
            let mut builder =
                TableBuilder::new(file.as_mut(), self.inner.opts.table_format.clone());
            let mut last_added_user_key: Option<Vec<u8>> = None;
            while iter.valid() {
                let drop = match filter.as_deref_mut() {
                    None => false,
                    Some(filter) => {
                        let parsed = parse_internal_key(iter.key())?;
                        if parsed.value_type == ValueType::RangeTombstone {
                            // Tombstones bypass the per-key shadow state
                            // entirely (a newer put at the begin key must
                            // never shadow-drop the span). Retention: old
                            // enough that every snapshot sees it, and no
                            // table outside this compaction's inputs can
                            // still hold a key in its span.
                            let drop = filter.tombstone_obsolete(parsed.sequence)
                                && is_base_level_span(
                                    &self.inner.icmp,
                                    version,
                                    inputs,
                                    parsed.user_key,
                                    iter.value(),
                                );
                            if !drop {
                                builder.add(iter.key(), iter.value())?;
                                let user_key = bolt_table::ikey::extract_user_key(iter.key());
                                if last_added_user_key.as_deref() != Some(user_key) {
                                    last_added_user_key = Some(user_key.to_vec());
                                }
                            }
                            iter.next()?;
                            continue;
                        }
                        let base = is_base_level(
                            &self.inner.icmp,
                            version,
                            output_level,
                            include_output_level,
                            parsed.user_key,
                        );
                        // `should_drop` must always run (it maintains the
                        // per-key shadow state); coverage by a universally
                        // visible range tombstone is an extra drop reason.
                        let drop = filter.should_drop(&parsed, base)
                            || overlay.covers(
                                parsed.user_key,
                                parsed.sequence,
                                filter.smallest_snapshot(),
                            );
                        if parsed.value_type == ValueType::ValuePointer {
                            if guard_key != parsed.user_key {
                                guard_key.clear();
                                guard_key.extend_from_slice(parsed.user_key);
                                kept_ptrs.clear();
                                counted_ptrs.clear();
                            }
                            let value = iter.value();
                            if !drop {
                                kept_ptrs.push(value.to_vec());
                            } else if !kept_ptrs.iter().any(|p| p == value)
                                && !counted_ptrs.iter().any(|p| p == value)
                            {
                                // The entry leaves the LSM here; its
                                // value-log bytes are dead once the
                                // compaction commits.
                                dead.push(ValuePointer::decode(value)?);
                                counted_ptrs.push(value.to_vec());
                            }
                        }
                        drop
                    }
                };
                if !drop {
                    builder.add(iter.key(), iter.value())?;
                    let user_key = bolt_table::ikey::extract_user_key(iter.key());
                    if last_added_user_key.as_deref() != Some(user_key) {
                        last_added_user_key = Some(user_key.to_vec());
                    }
                }
                iter.next()?;
                if builder.estimated_size() >= self.target {
                    // Never cut between two versions of the same user key:
                    // runs must stay disjoint by user key.
                    let next_same_key = iter.valid()
                        && last_added_user_key.as_deref()
                            == Some(bolt_table::ikey::extract_user_key(iter.key()));
                    if !next_same_key {
                        break;
                    }
                }
            }
            if builder.is_empty() {
                break;
            }
            let built = builder.finish()?;
            self.outputs.push((file_number, built));
            if !self.bolt {
                // Inside `while iter.valid()` after ensure_file(); the classic
                // path closes the file per table. bolt-lint: allow(unwrap-in-crash-path)
                let (_, mut file) = self.file.take().expect("file open");
                Self::sync_file(self.inner, file.as_mut())?;
            }
        }
        self.dead_pointers.extend(dead);
        Ok(())
    }

    /// Sync any shared compaction file and return the outputs, each with a
    /// reader over the file's handle (through the fd cache: one env open per
    /// physical file, made here so that the commit needs none under
    /// `core.versions`).
    pub(super) fn finish(&mut self) -> Result<Vec<Output>> {
        if let Some((number, mut file)) = self.file.take() {
            if file.is_empty() {
                // Never written: drop the empty file.
                let _ = self
                    .inner
                    .env
                    .delete_file(&table_file(&self.inner.name, number));
                let mut versions = self.inner.versions.lock();
                versions.reclaim.clear_pending(number);
            } else {
                Self::sync_file(self.inner, file.as_mut())?;
            }
        }
        std::mem::take(&mut self.outputs)
            .into_iter()
            .map(|(file_number, mut built)| {
                let path = table_file(&self.inner.name, file_number);
                let cache = &self.inner.table_cache;
                let reader = cache.reader_of_built(file_number, &path, &mut built)?;
                Ok(Output {
                    file_number,
                    built,
                    reader,
                })
            })
            .collect()
    }
}

/// Compaction context the drop rules in [`OutputSink::write_run`] consult:
/// the pinned input version, the ids of the compaction's own input tables
/// (exempt from the span check — this merge erases their covered keys),
/// and the output placement for the point-key base check.
pub(super) struct DropScope<'a> {
    pub(super) version: &'a Version,
    pub(super) inputs: &'a HashSet<u64>,
    pub(super) output_level: usize,
    pub(super) include_output_level: bool,
}

/// `true` if no table at a deeper level (or, for fragmented compactions,
/// at the output level itself) can contain `user_key` — the condition for
/// dropping a tombstone.
fn is_base_level(
    icmp: &InternalKeyComparator,
    version: &Version,
    output_level: usize,
    include_output_level: bool,
    user_key: &[u8],
) -> bool {
    if output_level >= version.levels.len() {
        return true;
    }
    let start = if include_output_level {
        output_level
    } else {
        output_level + 1
    };
    for level in start..version.levels.len() {
        for run in &version.levels[level].runs {
            if run.find(icmp, user_key).is_some() {
                return false;
            }
        }
    }
    true
}

/// Span-wide variant of [`is_base_level`] for range tombstones: `true` if
/// no table *outside this compaction's own inputs* can contain any user
/// key in `[begin, end)` — the condition for dropping the tombstone
/// outright. Unlike the point-key check this must not stop at the output
/// level or restrict itself to deeper levels: a tombstone's span routinely
/// extends past the compaction's input key range, so covered keys can sit
/// in same-level (or even shallower-run) tables the compaction never
/// touches. Input tables are exempt because this very merge erases their
/// covered keys via the overlay.
fn is_base_level_span(
    icmp: &InternalKeyComparator,
    version: &Version,
    inputs: &HashSet<u64>,
    begin: &[u8],
    end: &[u8],
) -> bool {
    let ucmp = icmp.user_comparator();
    for level in &version.levels {
        for run in &level.runs {
            for table in run.tables.iter() {
                if inputs.contains(&table.table_id) {
                    continue;
                }
                // Overlap with the half-open span: the table reaches at
                // least `begin` and starts strictly before `end`.
                if ucmp.compare(table.largest_user_key(), begin) != std::cmp::Ordering::Less
                    && ucmp.compare(table.smallest_user_key(), end) == std::cmp::Ordering::Less
                {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;

    fn load_and_verify(opts: Options, n: u32) {
        let (_env, db) = mem_db(small_opts(opts));
        let value = |i: u32| format!("value-{i}-{}", "p".repeat(100)).into_bytes();
        for i in 0..n {
            db.put(format!("key{:06}", i % (n / 2)).as_bytes(), &value(i))
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        // Every key holds its newest value.
        for k in 0..(n / 2) {
            let newest = if k < n % (n / 2) {
                n - (n / 2) + k
            } else {
                k + (n / 2) - (n % (n / 2))
            };
            let _ = newest;
            // The newest write of key k is the last i with i % (n/2) == k.
            let last_i = ((n - 1 - k) / (n / 2)) * (n / 2) + k;
            assert_eq!(
                db.get(format!("key{k:06}").as_bytes()).unwrap(),
                Some(value(last_i)),
                "key{k}"
            );
        }
        db.close().unwrap();
    }

    #[test]
    fn compaction_preserves_data_leveldb() {
        load_and_verify(Options::leveldb(), 3000);
    }

    #[test]
    fn compaction_preserves_data_bolt() {
        load_and_verify(Options::bolt(), 3000);
    }

    #[test]
    fn compaction_preserves_data_fragmented() {
        load_and_verify(Options::pebblesdb(), 3000);
    }

    /// Two L0 runs over the same keys — below the compaction trigger, so
    /// they merge when the test says so — whose tables are cut at different
    /// keys, so the merge is one cluster. The second holds `newer()`.
    fn two_overlapping_runs(db: &Db) {
        for value in [vec![b'a'; 100], newer()] {
            for i in 0..300u32 {
                db.put(format!("key{i:05}").as_bytes(), &value).unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.level_info()[0].runs, 2);
    }

    fn newer() -> Vec<u8> {
        vec![b'b'; 60]
    }

    fn whole_l0(db: &Db) -> crate::compaction::CompactionTask {
        let (inner, version) = (&db.inner, db.current_version());
        crate::compaction::manual_task(&inner.opts, &inner.icmp, &version, 0, b"", b"zzzz").unwrap()
    }

    #[test]
    fn compaction_inputs_bypass_block_cache_and_table_lru() {
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        two_overlapping_runs(&db);
        // Foreground reads fill both caches with the tables about to merge.
        for i in (0..300u32).step_by(7) {
            db.get(format!("key{i:05}").as_bytes()).unwrap().unwrap();
        }
        let tables = db.table_cache();
        let blocks = tables.block_cache().unwrap();
        let caches = || {
            let (b, t) = (blocks.stats(), tables.stats());
            let block_cache = (blocks.usage(), b.hits(), b.misses(), b.evictions());
            (block_cache, tables.open_count(), t.hits(), t.misses())
        };
        let before = caches();
        // (The flushes cached their own tables' readers: hits, no opens.)
        assert!(
            before.0 .0 > 0 && before.2 > 0,
            "nothing cached: {before:?}"
        );

        db.inner.run_compaction(whole_l0(&db)).unwrap();
        let stats = db.stats().snapshot();
        assert_eq!(stats.compactions, 1);
        assert_eq!(caches(), before, "the compaction went through a cache");
        // What it read instead: every input byte once, one span per run
        // (each run is one flush's file, its logical tables back to back).
        assert_eq!(stats.compaction_read_ops, 2, "{stats:?}");
        assert_eq!(stats.compaction_read_bytes, stats.compaction_input_bytes);
        assert_eq!(db.get(b"key00123").unwrap(), Some(newer()));
        db.close().unwrap();
    }

    #[test]
    fn input_read_error_abandons_the_outputs_and_a_retry_succeeds() {
        let env = Arc::new(ReadFaultEnv::default());
        let opts = small_opts(Options::bolt());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        two_overlapping_runs(&db);
        let files = || {
            let mut names = env.list_dir("db").unwrap();
            names.sort();
            (names, db.inner.versions.lock().reclaim.referenced_files())
        };
        let before = files();

        env.set_fail_reads(true);
        let err = db.inner.run_compaction(whole_l0(&db)).unwrap_err();
        assert!(matches!(err, bolt_common::Error::Io(_)), "{err:?}");
        env.set_fail_reads(false);
        // No output file and no pending mark outlives the failure, the
        // version is the one before it, and reads are served from it.
        assert_eq!(files(), before);
        assert_eq!(db.level_info()[0].runs, 2);
        assert_eq!(db.get(b"key00123").unwrap(), Some(newer()));

        db.inner.run_compaction(whole_l0(&db)).unwrap();
        assert_eq!(db.level_info()[0].runs, 0);
        assert_eq!(db.stats().compactions(), 1);
        for i in (0..300u32).step_by(11) {
            let got = db.get(format!("key{i:05}").as_bytes()).unwrap();
            assert_eq!(got, Some(newer()), "key{i}");
        }
        db.close().unwrap();
    }

    /// The paper's barrier claim, asserted on counts no background timing
    /// can move: every BoLT rewrite compaction pays one data barrier for
    /// its compaction file, every LevelDB compaction one per output table.
    #[test]
    fn bolt_uses_far_fewer_fsyncs_than_leveldb() {
        use bolt_common::events::{BarrierCause, EngineEvent};

        let run = |opts: Options| {
            let (_env, db) = mem_db(small_opts(opts));
            let (mut rewrites, mut output_tables) = (0u64, 0u64);
            let mut tally = || {
                for ev in db.events() {
                    if let EngineEvent::CompactionEnd {
                        outputs,
                        rewrote: true,
                        ..
                    } = ev.event
                    {
                        rewrites += 1;
                        output_tables += outputs;
                    }
                }
            };
            for i in 0..4000u32 {
                db.put(format!("key{i:06}").as_bytes(), &[b'v'; 100])
                    .unwrap();
                // Drained often enough that the trace ring never wraps.
                if i % 250 == 0 {
                    tally();
                }
            }
            db.flush().unwrap();
            db.compact_until_quiet().unwrap();
            tally();
            let metrics = db.metrics();
            assert_eq!(metrics.events_dropped, 0, "the tally missed events");
            db.close().unwrap();
            (rewrites, output_tables, metrics)
        };

        let (rewrites, _, metrics) = run(Options::bolt());
        let bolt_data_barriers = metrics.barrier_count(BarrierCause::CompactionData);
        assert!(rewrites > 0, "the workload must compact");
        assert_eq!(bolt_data_barriers, rewrites);
        assert!(metrics.barriers_per_compaction() <= 2.0);

        let (_, output_tables, metrics) = run(Options::leveldb());
        let leveldb_data_barriers = metrics.barrier_count(BarrierCause::CompactionData);
        assert_eq!(leveldb_data_barriers, output_tables);
        assert!(
            leveldb_data_barriers > bolt_data_barriers,
            "leveldb {leveldb_data_barriers} data barriers vs bolt {bolt_data_barriers}"
        );
    }

    #[test]
    fn settled_compaction_happens_for_bolt() {
        let mut opts = small_opts(Options::bolt());
        opts.level0_compaction_trigger = 2;
        let (_env, db) = mem_db(opts);
        // Write several disjoint key ranges so zero-overlap victims exist.
        for round in 0..12u32 {
            for i in 0..200u32 {
                db.put(
                    format!("r{:02}key{i:05}", round % 6).as_bytes(),
                    &[b'z'; 128],
                )
                .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_until_quiet().unwrap();
        let moves = db.stats().settled_moves();
        assert!(moves > 0, "expected settled moves, stats: {:?}", db.stats());
        db.close().unwrap();
    }

    #[test]
    fn compaction_retires_fully_dead_vlog_segments() {
        let (env, db) = mem_db(sep_opts(128));
        for round in 0..4u32 {
            for i in 0..48u32 {
                let value = vec![b'a' + (round as u8), (i % 251) as u8]
                    .into_iter()
                    .cycle()
                    .take(1024)
                    .collect::<Vec<u8>>();
                db.put(format!("big{i:03}").as_bytes(), &value).unwrap();
            }
            db.flush().unwrap();
        }
        // Rewriting every key three times over 16 KiB segments leaves whole
        // early segments dead; compaction must report the drops and GC must
        // retire those files.
        db.compact_range(b"", b"zzzz").unwrap();
        let stats = db.stats().snapshot();
        assert!(stats.vlog_dead_bytes > 0, "{stats:?}");
        assert!(stats.vlog_segments_retired > 0, "{stats:?}");
        // Every surviving key still reads its full latest value.
        for i in 0..48u32 {
            let got = db.get(format!("big{i:03}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.len(), 1024);
            assert_eq!(got[0], b'a' + 3);
        }
        // Deletes condemned during a compaction are deferred while that
        // compaction's own pinned version is live; one more GC pass with no
        // pins reclaims them.
        let garbage = (db.inner.versions.lock()).collect_garbage(&db.inner.table_cache);
        db.inner.reclaim(garbage);
        // Retired segment files are really gone from disk.
        let names = env.list_dir("db").unwrap();
        let vlogs = names.iter().filter(|n| n.ends_with(".vlog")).count();
        let ledger = db.inner.versions.lock().vlog_segments().len();
        assert_eq!(vlogs, ledger, "on-disk segments diverge from the ledger");
        db.close().unwrap();
    }
}
