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
//! A compaction is keep → write → commit. What moves and what the merge
//! keeps are decided in [`crate::compaction`] ([`CompactionTask`],
//! [`DropRule`]); this module writes ([`OutputSink`]) and commits
//! ([`DbInner::commit`], which a flush shares). It owns no
//! [`super::DbState`] field: it reads `snapshots` for the drop horizon. A
//! compaction runs on the compaction thread, and no flush is reachable from
//! inside one: the flush thread's commits interleave with this module's
//! only at [`DbInner::commit`].

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::Result;
use bolt_table::ikey::extract_user_key;
use bolt_table::rangedel::RangeTombstoneSet;
use bolt_table::seq::{ReadPlan, Span};
use bolt_table::{BuiltTable, Comparator, InternalKeyComparator, Table, TableBuilder, TableCache};

use super::{DbInner, ReadView};
use crate::compaction::{clusters, CompactionReason, CompactionTask, DropRule, OutputShape};
use crate::filename::table_file;
use crate::iterator::{InternalIterator, MergingIter, RunIter};
use crate::version::{TableList, TableMeta, Version, VersionEdit};
use crate::versions::VersionSet;
use crate::vlog::ValuePointer;

impl DbInner {
    /// Execute `task`, which was picked from `version`.
    pub(super) fn run_compaction(&self, task: CompactionTask, version: &Version) -> Result<()> {
        let started = Instant::now();
        let compaction_id = self.compaction_ids.fetch_add(1, Ordering::Relaxed);
        let settled = task.settled_moves.len() as u64;
        // What the task was picked to move, and what moving it drags along.
        let victim_bytes: u64 = task.victims().map(|t| t.size).sum();
        let overlap_bytes: u64 = task.next_inputs.iter().map(|t| t.size).sum();
        let input_bytes = victim_bytes + overlap_bytes;
        self.sink.emit(EngineEvent::CompactionBegin {
            id: compaction_id,
            level: task.level as u32,
            victims: task.merge_inputs().count() as u64 + settled,
            input_bytes,
            victim_bytes,
            overlap_bytes,
            policy: self.opts.compaction_policy.as_str(),
        });
        if settled > 0 {
            self.sink.emit(EngineEvent::SettledMove {
                id: compaction_id,
                level: task.level as u32,
                tables: settled,
            });
        }

        let (outputs, dead) = if task.is_move_only() {
            (Vec::new(), Vec::new())
        } else {
            self.rewrite(&task, version)?
        };

        let mut edit = VersionEdit::default();
        // Settled compaction / trivial move: MANIFEST-only promotion.
        for table in &task.settled_moves {
            edit.deleted_tables
                .push((task.level as u32, table.table_id));
            edit.added_tables
                .push((task.output_level as u32, 0, table.as_ref().clone()));
        }
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
        let output_tables = outputs.len() as u64;
        let output_bytes = {
            // The commit barrier (MANIFEST append + sync) is this
            // compaction's second — and for settled moves, only — barrier.
            let _scope = BarrierScope::new(BarrierCause::CompactionManifest);
            let install = |old: &ReadView, version| ReadView {
                version,
                ..old.clone()
            };
            self.commit(
                edit,
                task.output_level,
                task.output,
                outputs,
                Some(&dead),
                install,
            )?
        };
        // Booked once committed: an attempt that failed and was retried
        // counts what it moved once, like what it wrote.
        if (self.opts.bolt_options()).is_some_and(|b| b.settled_compaction) {
            self.stats.record_settled_move(settled);
        } else {
            self.stats.record_trivial_move(settled);
        }
        self.stats.record_compaction(1);
        self.stats.record_compaction_input(input_bytes);
        self.stats.record_compaction_victim(victim_bytes);
        self.stats.record_compaction_overlap(overlap_bytes);
        self.stats.record_compaction_output(output_bytes);
        self.stats
            .record_compaction_busy_nanos(started.elapsed().as_nanos() as u64);
        self.sink.emit(EngineEvent::CompactionEnd {
            id: compaction_id,
            outputs: output_tables,
            output_bytes,
            settled,
            rewrote: output_tables > 0,
            policy: self.opts.compaction_policy.as_str(),
        });
        Ok(())
    }

    /// Merge the inputs of `task` into synced output tables, keeping what
    /// its [`DropRule`] keeps. Returns the tables and the value pointers
    /// that were let go.
    fn rewrite(
        &self,
        task: &CompactionTask,
        version: &Version,
    ) -> Result<(Vec<Output>, Vec<ValuePointer>)> {
        let horizon = {
            let snapshots = &self.state.lock().snapshots;
            let oldest = snapshots.iter().copied().min();
            oldest.unwrap_or_else(|| self.last_sequence.load(Ordering::Acquire))
        };
        // Compaction-wide range-tombstone overlay: that of the pinned
        // version, which still contains the input tables.
        let overlay = if version.has_range_tombstones() {
            version.range_tombstones(&self.table_cache, &self.name)?
        } else {
            Arc::new(RangeTombstoneSet::default())
        };
        let mut rule = DropRule::new(&self.icmp, version, task, &overlay, horizon);
        // BoLT: one physical compaction file for the entire compaction.
        let target = self.opts.output_table_bytes();
        let mut sink = OutputSink::new(self, self.opts.bolt_options().is_some(), target);
        // Every data barrier the rewrite pays is attributed to this
        // compaction (the scope is this thread's: a flush running beside
        // it tags its own).
        let _scope = BarrierScope::new(BarrierCause::CompactionData);
        // Inputs are read once, front to back: in large spans, past the
        // caches foreground reads are served from, by a reader that runs
        // ahead of the merge.
        let units = merge_units(&self.icmp, task);
        let plan = self.read_plan(&units);
        let merge = || -> Result<()> {
            let mut readers = (0..).map(|run| plan.reader(run));
            for unit in &units {
                let children = unit
                    .iter()
                    .zip(&mut readers)
                    .map(|(run, reader)| -> Box<dyn InternalIterator> {
                        Box::new(RunIter::sequential(
                            self.icmp.clone(),
                            Arc::clone(&self.table_cache),
                            Arc::clone(&self.name),
                            run.clone(),
                            reader,
                        ))
                    })
                    .collect();
                let mut merged = MergingIter::new(self.icmp.clone(), children);
                merged.seek_to_first()?;
                sink.write_run(&mut merged, Some(&mut rule))?;
            }
            Ok(())
        };
        // The first unit's merge starts with one span of each of its runs.
        let written = plan.run_ahead(units.first().map_or(0, Vec::len), merge);
        let reads = plan.stats();
        self.stats.record_compaction_read_ops(reads.ops());
        self.stats.record_compaction_read_bytes(reads.bytes());
        self.stats
            .record_compaction_read_wait_nanos(reads.wait_nanos());
        self.stats
            .record_compaction_readahead_spans(reads.readahead_spans());
        self.stats
            .record_compaction_demand_spans(reads.demand_spans());
        Ok((sink.finish(written)?, rule.into_dead()))
    }

    /// The input reads of a compaction over `units`, from metadata alone:
    /// every run's spans, ordered by when the merge needs them. A span is
    /// needed when the table before it in its run is exhausted — at that
    /// table's largest key, which for spans of whole tables is exact — and
    /// the first span of a run when its unit starts. The parts of a table
    /// larger than a span (no key says when its n-th window is needed) go
    /// tail first, then window by window, in step with the other runs'.
    pub(super) fn read_plan(&self, units: &[Vec<TableList>]) -> Arc<ReadPlan> {
        let runs = units.iter().enumerate();
        let runs: Vec<(usize, &TableList)> = runs
            .flat_map(|(unit, runs)| runs.iter().map(move |run| (unit, run)))
            .collect();
        let specs = runs
            .iter()
            .map(|(_, run)| run.iter().map(|t| t.spec(&self.name)).collect());
        let needed_at = |(run, span): (usize, &Span)| {
            let (unit, tables) = runs[run];
            let after = span.table.checked_sub(1).map(|t| &tables[t].largest);
            (unit, after, span.part)
        };
        ReadPlan::new(Arc::clone(&self.table_cache), specs.collect(), |a, b| {
            let ((unit_a, after_a, part_a), (unit_b, after_b, part_b)) =
                (needed_at(a), needed_at(b));
            let by_key = match (after_a, after_b) {
                (Some(a), Some(b)) => self.icmp.compare(a, b),
                (a, b) => a.is_some().cmp(&b.is_some()),
            };
            unit_a.cmp(&unit_b).then(by_key).then(part_a.cmp(&part_b))
        })
    }

    /// The one commit of a flush and of a compaction: install `outputs` at
    /// `level` with `edit` ([`commit_outputs`]), publish the view `install`
    /// builds around the new version, and reclaim what the commit killed.
    /// `dead` is what a compaction's [`DropRule`] let go of (a flush drops
    /// nothing and passes `None`): the value-log ledger takes it in the
    /// same MANIFEST record. Returns the bytes installed.
    ///
    /// *Swap before GC*: the view is installed inside the `core.versions`
    /// critical section, after `log_and_apply` and before the reclaim
    /// decision, so the outgoing version has lost the view's reference when
    /// that decision scans for live versions and its files go into this
    /// very pass's batch — which runs with the lock released.
    pub(super) fn commit(
        &self,
        mut edit: VersionEdit,
        level: usize,
        shape: OutputShape,
        outputs: Vec<Output>,
        dead: Option<&[ValuePointer]>,
        install: impl FnOnce(&ReadView, Arc<Version>) -> ReadView,
    ) -> Result<u64> {
        let mut versions = self.versions.lock();
        let staged = dead.map(|dead| versions.stage_vlog_dead(&mut edit, dead));
        let bytes = commit_outputs(
            &mut versions,
            &self.table_cache,
            edit,
            level,
            shape,
            outputs,
        )?;
        self.install_view(|old| install(old, versions.current()));
        let garbage = versions.collect_garbage(&self.table_cache);
        drop(versions);
        self.reclaim(garbage);
        if let Some((newly_dead, retired)) = staged {
            self.stats.record_vlog_dead_bytes(newly_dead);
            self.stats.record_vlog_segment_retired(retired);
        }
        Ok(bytes)
    }
}

/// The units of `task` that merge independently, in the order they are
/// merged, each as its non-empty runs (newest first).
pub(super) fn merge_units(
    icmp: &InternalKeyComparator,
    task: &CompactionTask,
) -> Vec<Vec<TableList>> {
    let units: Vec<Vec<TableList>> = match task.output {
        // A cluster's runs — the overlapped tables already at the output
        // level among them — are subsets: lists of their own.
        OutputShape::Leveled => clusters(icmp, task)
            .into_iter()
            .map(|cluster| {
                let runs = cluster.input_runs.into_iter();
                runs.chain([cluster.next_inputs])
                    .map(TableList::from)
                    .collect()
            })
            .collect(),
        // The whole input set merges as one unit and nothing at the output
        // level joins.
        OutputShape::AppendRun | OutputShape::ReplaceRun { .. } => vec![task.input_runs.clone()],
    };
    let non_empty = |unit: Vec<TableList>| unit.into_iter().filter(|run| !run.is_empty()).collect();
    units.into_iter().map(non_empty).collect()
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
/// version set.
///
/// On a commit error the pending marks stay: the record may have reached
/// the MANIFEST despite the failed sync, so the files must outlive it. No
/// reader is cached: the ids were never installed.
fn commit_outputs(
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
/// for stock styles, one shared compaction file for BoLT. It cuts tables
/// and pays barriers; what to keep is the [`DropRule`]'s decision.
pub(super) struct OutputSink<'a> {
    inner: &'a DbInner,
    bolt: bool,
    target: u64,
    file: Option<(u64, Box<dyn bolt_env::WritableFile>)>,
    outputs: Vec<(u64, BuiltTable)>,
    /// Every file number this sink created, for cleanup on failure.
    created: Vec<u64>,
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
        }
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
    /// its pending marks, so that an I/O error mid-flush or mid-compaction
    /// leaks no partial file and blocks garbage collection forever.
    ///
    /// Safe only because none of these outputs has been named in a MANIFEST
    /// append yet — once a VersionEdit referencing them is appended, the
    /// record may commit despite a sync error (a torn-tail crash can retain
    /// it), so from that point the files must be preserved.
    fn abandon(&mut self) {
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

    /// Stream `iter` into output tables of about `target` bytes: every
    /// entry `rule` keeps (a compaction), or every entry (a flush, which
    /// must preserve its memtable whole and passes `None`).
    pub(super) fn write_run(
        &mut self,
        iter: &mut dyn InternalIterator,
        mut rule: Option<&mut DropRule<'_>>,
    ) -> Result<()> {
        while iter.valid() {
            self.ensure_file()?;
            // ensure_file() above either populated `self.file` or returned the
            // error. bolt-lint: allow(unwrap-in-crash-path)
            let (file_number, file) = self.file.as_mut().expect("file open");
            let mut builder =
                TableBuilder::new(file.as_mut(), self.inner.opts.table_format.clone());
            while iter.valid() {
                let keep = match rule.as_deref_mut() {
                    Some(rule) => rule.keep(iter.key(), iter.value())?,
                    None => true,
                };
                if keep {
                    builder.add(iter.key(), iter.value())?;
                }
                iter.next()?;
                // Never cut between two versions of the same user key:
                // runs must stay disjoint by user key.
                if builder.estimated_size() >= self.target
                    && !(iter.valid()
                        && builder.last_key().map(extract_user_key)
                            == Some(extract_user_key(iter.key())))
                {
                    break;
                }
            }
            if builder.is_empty() {
                break;
            }
            let built = builder.finish()?;
            self.outputs.push((*file_number, built));
            if !self.bolt {
                // Inside `while iter.valid()` after ensure_file(); the classic
                // path closes the file per table. bolt-lint: allow(unwrap-in-crash-path)
                let (_, mut file) = self.file.take().expect("file open");
                Self::sync_file(self.inner, file.as_mut())?;
            }
        }
        Ok(())
    }

    /// End the build whose `write_run`s returned `written`: the outputs, or
    /// — after any error — nothing, on disk either (`abandon`).
    pub(super) fn finish(&mut self, written: Result<()>) -> Result<Vec<Output>> {
        let outputs = written.and_then(|()| self.sync_and_open());
        if outputs.is_err() {
            self.abandon();
        }
        outputs
    }

    /// Sync any shared compaction file and return the outputs, each with a
    /// reader over the file's handle (through the fd cache: one env open per
    /// physical file, made here so that the commit needs none under
    /// `core.versions`).
    fn sync_and_open(&mut self) -> Result<Vec<Output>> {
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

    /// Merge the whole of level 0 down, on this thread.
    fn compact_l0(db: &Db) -> bolt_common::Result<u64> {
        let (inner, version) = (&db.inner, db.current_version());
        let task =
            crate::compaction::manual_task(&inner.opts, &inner.icmp, &version, 0, b"", b"zzzz");
        let task = task.unwrap();
        let input_bytes = task.input_bytes();
        inner.run_compaction(task, &version).map(|()| input_bytes)
    }

    /// The sink cuts a table at the target size, but never between two
    /// versions of one user key: a run's tables stay disjoint by user key.
    #[test]
    fn a_table_is_never_cut_between_two_versions_of_a_user_key() {
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        // One key with more versions than a table's 8 KiB, between others.
        for i in 0..100u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'v'; 200])
                .unwrap();
            db.put(b"key00020-hot", &[b'h'; 200]).unwrap();
        }
        db.flush().unwrap();
        let version = db.current_version();
        let tables = &version.levels[0].runs[0].tables;
        assert!(tables.len() > 2, "the flush cut {} tables", tables.len());
        for pair in tables.windows(2) {
            assert!(
                pair[0].largest_user_key() < pair[1].smallest_user_key(),
                "{:?} continues in the next table",
                String::from_utf8_lossy(pair[0].largest_user_key())
            );
        }
        db.close().unwrap();
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

        compact_l0(&db).unwrap();
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

    /// Push the whole of `level` down one level, on this thread.
    fn compact_level(db: &Db, level: usize) -> bolt_common::Result<()> {
        let (inner, version) = (&db.inner, db.current_version());
        let task =
            crate::compaction::manual_task(&inner.opts, &inner.icmp, &version, level, b"", b"zzzz");
        inner.run_compaction(task.unwrap(), &version)
    }

    /// A failed input read — every one, the second of the plan (the merge
    /// has not produced anything yet), or the sixth (the merge is under way
    /// and the reader thread ahead of it) — abandons the compaction: no
    /// output file and no pending mark outlives it, the reader thread is
    /// gone with it, the engine reads on, and the next attempt succeeds.
    #[test]
    fn input_read_error_abandons_the_outputs_and_a_retry_succeeds() {
        for fail_in in [None, Some(2), Some(6)] {
            let env = Arc::new(ReadFaultEnv::default());
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
            match fail_in {
                None => two_overlapping_runs(&db),
                // Runs of several read spans: a plan the thread runs ahead of.
                Some(_) => {
                    flush_run(&db, 0..12_000, &[b'a'; 100]);
                    flush_run(&db, 0..12_000, &newer());
                    assert_eq!(db.level_info()[0].runs, 2);
                }
            }
            // (Table files only: a flushed WAL goes when the background
            // thread gets to it.)
            let files = || {
                let mut names = env.list_dir("db").unwrap();
                names.retain(|name| name.ends_with(".sst"));
                names.sort();
                (names, db.inner.versions.lock().reclaim.referenced_files())
            };
            let before = files();

            match fail_in {
                None => env.set_fail_reads(true),
                Some(n) => env.fail_read_in(n),
            }
            env.take_read_log();
            let started = std::time::Instant::now();
            let err = compact_l0(&db).unwrap_err();
            // `run_compaction` joins the reader thread before it returns:
            // that it returned at all is that thread gone, not parked on a
            // buffer nobody takes from any more.
            assert!(started.elapsed().as_secs() < 30, "{:?}", started.elapsed());
            assert!(matches!(err, bolt_common::Error::Io(_)), "{err:?}");
            if let Some(n) = fail_in {
                let reads = env.take_read_log().len() as u64;
                assert_eq!(reads, n, "a span past the failed one was read");
            }
            env.set_fail_reads(false);
            // No output file and no pending mark outlives the failure, the
            // version is the one before it, and reads are served from it.
            assert_eq!(files(), before);
            assert_eq!(db.level_info()[0].runs, 2);
            let first_byte = |i: u32| {
                let value = db.get(format!("key{i:05}").as_bytes()).unwrap();
                value.map(|v| v[0])
            };
            assert_eq!(first_byte(123), Some(newer()[0]));

            let input_bytes = compact_l0(&db).unwrap();
            assert_eq!(db.level_info()[0].runs, 0);
            // Only the attempt that committed is booked: its inputs once.
            let stats = db.stats().snapshot();
            assert_eq!(stats.compactions, 1);
            assert_eq!(stats.compaction_input_bytes, input_bytes);
            assert_eq!(stats.compaction_victim_bytes, input_bytes);
            assert_eq!(stats.compaction_overlap_bytes, 0);
            for i in (0..300u32).step_by(11) {
                assert_eq!(first_byte(i), Some(newer()[0]), "key{i}");
            }
            db.close().unwrap();
        }
    }

    /// The plan puts a compaction's reads in the order its merge takes them:
    /// whoever issues a read — the reader thread ahead of the merge or the
    /// merge itself, for a span the thread has not got to — the file sees
    /// the plan's reads in the plan's order. A plan in the wrong order would
    /// have the merge jump the queue, and the two would differ.
    #[test]
    fn a_compaction_reads_its_inputs_in_the_order_it_planned() {
        let planned_and_read = |db: &Db, env: &ReadFaultEnv, level: usize| {
            let (inner, version) = (&db.inner, db.current_version());
            let task = crate::compaction::manual_task(
                &inner.opts,
                &inner.icmp,
                &version,
                level,
                b"",
                b"zzzz",
            )
            .unwrap();
            let units = super::merge_units(&inner.icmp, &task);
            let planned: Vec<(String, u64, usize)> = (inner.read_plan(&units).order().iter())
                .map(|&(file, offset, len)| {
                    let path = crate::filename::table_file(&inner.name, file);
                    (path, offset, len as usize)
                })
                .collect();
            env.take_read_log();
            inner.run_compaction(task, &version).unwrap();
            (units, planned, env.take_read_log())
        };

        // Nine L0 runs over one key range, each several spans long and each
        // with its own density, so that their tables end at different keys.
        let env = Arc::new(ReadFaultEnv::default());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        for run in 0..9u32 {
            flush_run(
                &db,
                (0..36_000).step_by(run as usize + 2),
                &[b'a' + run as u8; 100],
            );
        }
        assert_eq!(db.level_info()[0].runs, 9);
        let (units, planned, read) = planned_and_read(&db, &env, 0);
        assert_eq!(units.iter().map(Vec::len).collect::<Vec<_>>(), [9]);
        assert!(planned.len() >= 3 * 9, "{} spans", planned.len());
        assert_eq!(read, planned);
        let stats = db.stats().snapshot();
        assert_eq!(stats.compaction_read_ops, planned.len() as u64);
        assert_eq!(
            stats.compaction_readahead_spans + stats.compaction_demand_spans,
            planned.len() as u64
        );
        assert_eq!(stats.compaction_read_bytes, stats.compaction_input_bytes);
        db.close().unwrap();

        // Level 2 holds every key; level 1 four ranges far apart: the
        // victims and what they overlap fall into four clusters.
        let env = Arc::new(ReadFaultEnv::default());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        flush_run(&db, 0..80_000, &[b'a'; 100]);
        compact_level(&db, 0).unwrap();
        compact_level(&db, 1).unwrap();
        let group = |g: u32| (g * 20_000..g * 20_000 + 9_000).step_by(3);
        // (Values of another length: tables of another entry count, so that
        // the two levels' table boundaries do not fall in step.)
        flush_run(&db, (0..4).flat_map(group), &[b'b'; 137]);
        compact_level(&db, 0).unwrap();
        let shape: Vec<usize> = db.level_info().iter().map(|l| l.runs).collect();
        assert_eq!(shape[..3], [0, 1, 1], "{shape:?}");
        let (units, planned, read) = planned_and_read(&db, &env, 1);
        // (A range splits further wherever a table ends at the same key in
        // both levels.) Every cluster is two runs, some of several spans.
        assert!(units.len() >= 4 && units.iter().all(|u| u.len() == 2));
        assert!(planned.len() >= 2 * units.len() + 4, "{planned:?}");
        assert_eq!(read, planned);
        let stats = db.stats().snapshot();
        assert!(stats.compaction_overlap_bytes > 0, "{stats:?}");
        assert_eq!(db.get(b"key20003").unwrap(), Some(vec![b'b'; 137]));
        assert_eq!(db.get(b"key20004").unwrap(), Some(vec![b'a'; 100]));
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
