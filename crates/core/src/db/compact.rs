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

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::{Error, Result};
use bolt_table::block::Block;
use bolt_table::format::BlockHandle;
use bolt_table::ikey::{extract_user_key, TAG_SIZE};
use bolt_table::rangedel::RangeTombstoneSet;
use bolt_table::seq::SeqReadStats;
use bolt_table::{BuiltTable, InternalKeyComparator, Table, TableBuilder};

use super::{DbInner, ReadView};
use crate::compaction::{clusters, CompactionReason, CompactionTask, DropRule, OutputShape};
use crate::filename::{table_file, FileType};
use crate::iterator::{InternalIterator, MergingIter, RunIter};
use crate::version::{TableList, TableMeta, Version, VersionEdit};
use crate::versions::{ReclaimBatch, VersionSet};
use crate::vlog::ValuePointer;

impl DbInner {
    /// Execute `task`, which was picked from `version`.
    pub(super) fn run_compaction(
        &self,
        task: CompactionTask,
        version: &Version,
    ) -> std::result::Result<(), CompactionFailure> {
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
            if let Some(key) = task.max_victim_key() {
                edit.compact_pointers.push((task.level as u32, key));
            }
        }
        let output_tables = outputs.len() as u64;
        let output_bytes = {
            // The commit barrier (MANIFEST append + sync) is this
            // compaction's second — and for settled moves, only — barrier.
            let _scope = BarrierScope::new(&self.sink, BarrierCause::CompactionManifest);
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
    ) -> std::result::Result<(Vec<Output>, Vec<ValuePointer>), CompactionFailure> {
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
        let mut rule = DropRule::new(version, task, &overlay, horizon);
        // BoLT: one physical compaction file for the entire compaction.
        let target = self.opts.output_table_bytes();
        let mut sink = OutputSink::new(self, self.opts.bolt_options().is_some(), target);
        sink.warm.hot = Some(self.cached_input_spans(task));
        // Every data barrier the rewrite pays is attributed to this
        // compaction (the scope is this thread's: a flush running beside
        // it tags its own).
        let _scope = BarrierScope::new(&self.sink, BarrierCause::CompactionData);
        // Inputs are read once, front to back: in large spans, past the
        // caches foreground reads are served from, on this thread, where the
        // merge takes them.
        let reads = Arc::new(SeqReadStats::default());
        let written = merge_units(task).into_iter().try_for_each(|unit| {
            let children = unit
                .into_iter()
                .map(|run| -> Box<dyn InternalIterator> {
                    Box::new(RunIter::sequential(
                        Arc::clone(&self.table_cache),
                        Arc::clone(&self.name),
                        run,
                        &reads,
                    ))
                })
                .collect();
            let mut merged = MergingIter::new(InternalKeyComparator::default(), children);
            merged.seek_to_first()?;
            sink.write_run(&mut merged, Some(&mut rule))
        });
        self.stats.record_compaction_read_ops(reads.ops());
        self.stats.record_compaction_read_bytes(reads.bytes());
        self.stats
            .record_compaction_read_wait_nanos(reads.wait_nanos());
        let outputs = sink.finish(written).map_err(|error| CompactionFailure {
            retryable: reads.failures() > 0 && !sink.synced,
            error,
        })?;
        Ok((outputs, rule.into_dead()))
    }

    /// The user-key spans of `task`'s input blocks the block cache holds,
    /// sorted and merged: the only spans the compaction's kept blocks may
    /// come from, so that they take the place of blocks readers used and
    /// evict nothing for blocks no reader asked for.
    fn cached_input_spans(&self, task: &CompactionTask) -> Vec<(Vec<u8>, Vec<u8>)> {
        let inputs: Vec<_> = (task.merge_inputs())
            .map(|t| (t.file_number, t.offset..t.offset + t.size))
            .collect();
        let mut spans: Vec<_> = (self.table_cache.cached_blocks(&inputs).iter())
            .filter_map(user_key_span)
            .collect();
        spans.sort_unstable();
        // A span that starts inside the one before joins it.
        spans.dedup_by(|(first, last), (_, end)| {
            let joins = first <= end;
            if joins && last > end {
                std::mem::swap(last, end);
            }
            joins
        });
        spans
    }

    /// The one commit of a flush, of a compaction and of an open (which
    /// installs no output, only its fresh WAL's number): install `outputs` at
    /// `level` with `edit` ([`commit_outputs`]), publish the view `install`
    /// builds around the new version, cache the outputs' readers and kept
    /// blocks, and reclaim what the commit killed.
    /// `dead` is what a compaction's [`DropRule`] let go of (a flush drops
    /// nothing and passes `None`): the value-log ledger takes it in the
    /// same MANIFEST record. Returns the bytes installed.
    ///
    /// *Swap before GC*: the view is installed inside the `core.versions`
    /// critical section, after `log_and_apply` and before the reclaim
    /// decision, so the outgoing version has lost the view's reference when
    /// that decision scans for live versions and its files go into this
    /// very pass's batch — which runs with the lock released, as the cache
    /// inserts do. Nothing is cached before its table can be read, nor for
    /// a commit that failed.
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
        let (bytes, installed) = commit_outputs(&mut versions, edit, level, shape, outputs)?;
        self.install_view(|old| install(old, versions.current()));
        let garbage = versions.collect_garbage(&self.table_cache);
        drop(versions);
        for (table_id, _, reader, blocks) in installed {
            self.table_cache.insert_built(table_id, reader, blocks);
        }
        self.reclaim(garbage);
        if let Some((newly_dead, retired)) = staged {
            self.stats.record_vlog_dead_bytes(newly_dead);
            self.stats.record_vlog_segment_retired(retired);
        }
        Ok(bytes)
    }
}

/// The first and last user keys of `block`, a block of internal keys
/// (`None` for an empty or undecodable one).
fn user_key_span(block: &Arc<Block>) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut iter = block.iter(TAG_SIZE);
    iter.seek_to_first().ok()?;
    let first = extract_user_key(iter.valid().then(|| iter.key())?).to_vec();
    let mut last = first.clone();
    while iter.valid() {
        last.clear();
        last.extend_from_slice(extract_user_key(iter.key()));
        iter.next().ok()?;
    }
    Some((first, last))
}

/// The units of `task` that merge independently, in the order they are
/// merged, each as its non-empty runs (newest first).
pub(super) fn merge_units(task: &CompactionTask) -> Vec<Vec<TableList>> {
    let units: Vec<Vec<TableList>> = match task.output {
        // A cluster's runs — the overlapped tables already at the output
        // level among them — are subsets: lists of their own.
        OutputShape::Leveled => clusters(task)
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
/// MANIFEST records of it, its reader — made from the index and filter the
/// builder framed (moved out of `built`), so that nothing reads the table
/// back to open it — and the data blocks the sink kept of it.
pub(super) struct Output {
    file_number: u64,
    built: BuiltTable,
    reader: Arc<Table>,
    blocks: Vec<(BlockHandle, Arc<Block>)>,
}

/// A committed output's table id, file, reader and kept blocks.
type Installed = (u64, u64, Arc<Table>, Vec<(BlockHandle, Arc<Block>)>);

/// Install built tables: name `outputs` in `edit` as tables of `level`
/// under the run tag `shape` dictates (a fresh run is tagged with its first
/// table id), commit the edit to the MANIFEST and release the files'
/// pending marks. Returns the bytes installed and the tables under their
/// new ids, for [`bolt_table::TableCache::insert_built`]. The one path from an
/// [`OutputSink`]'s product to the version set.
///
/// On a commit error the pending marks stay: the record may have reached
/// the MANIFEST despite the failed sync, so the files must outlive it.
/// Nothing is returned to cache: the ids were never installed.
fn commit_outputs(
    versions: &mut VersionSet,
    mut edit: VersionEdit,
    level: usize,
    shape: OutputShape,
    outputs: Vec<Output>,
) -> Result<(u64, Vec<Installed>)> {
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
            blocks,
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
        installed.push((table_id, file_number, reader, blocks));
    }
    versions.log_and_apply(edit)?;
    for &(_, file_number, ..) in &installed {
        versions.reclaim.clear_pending(file_number);
    }
    Ok((bytes, installed))
}

/// A failed compaction, and whether the picker may simply find it again:
/// an input read failed before its first output sync, so nothing of it is
/// left on disk.
#[derive(Debug)]
pub(super) struct CompactionFailure {
    pub(super) error: Error,
    pub(super) retryable: bool,
}

impl From<Error> for CompactionFailure {
    fn from(error: Error) -> Self {
        CompactionFailure {
            error,
            retryable: false,
        }
    }
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
    /// Whether an output file was synced: a failure before it leaves
    /// nothing of the job on disk once `abandon` has run.
    synced: bool,
    /// The data blocks the outputs' builders framed, for the block cache.
    warm: WarmBlocks,
}

/// The data blocks a job's builders framed, each with the index of the
/// output it is in: the newest, at most `bound` bytes — the block cache's
/// capacity — the oldest dropped first.
struct WarmBlocks {
    bound: u64,
    bytes: u64,
    blocks: VecDeque<(usize, BlockHandle, Arc<Block>)>,
    /// A compaction's [`cached_input_spans`](DbInner::cached_input_spans):
    /// a block overlapping none of them is not kept. `None` for a flush,
    /// whose output is the newest data and is kept whole.
    hot: Option<Vec<(Vec<u8>, Vec<u8>)>>,
}

impl WarmBlocks {
    /// Keep `block` of output `output`, and drop the oldest past the bound.
    fn keep(&mut self, output: usize, handle: BlockHandle, block: Arc<Block>) {
        if let Some(hot) = &self.hot {
            let Some((first, last)) = user_key_span(&block) else {
                return;
            };
            let at = hot.partition_point(|(_, end)| *end < first);
            if hot.get(at).is_none_or(|(start, _)| *start > last) {
                return;
            }
        }
        self.bytes += block.size() as u64;
        self.blocks.push_back((output, handle, block));
        while self.bytes > self.bound {
            let Some((_, _, old)) = self.blocks.pop_front() else {
                break;
            };
            self.bytes -= old.size() as u64;
        }
    }

    /// The kept blocks of output `output`, once those of every earlier
    /// output are taken.
    fn take(&mut self, output: usize) -> Vec<(BlockHandle, Arc<Block>)> {
        let n = (self.blocks.iter())
            .take_while(|&&(of, ..)| of == output)
            .count();
        let taken = self.blocks.drain(..n);
        taken.map(|(_, handle, block)| (handle, block)).collect()
    }
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
            synced: false,
            warm: WarmBlocks {
                bound: inner.opts.block_cache_bytes,
                bytes: 0,
                blocks: VecDeque::new(),
                hot: None,
            },
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
    /// leaks no partial file and blocks garbage collection forever (a file
    /// whose unlink fails too is owed by the reclaim ledger).
    ///
    /// Safe only because none of these outputs has been named in a MANIFEST
    /// append yet — once a VersionEdit referencing them is appended, the
    /// record may commit despite a sync error (a torn-tail crash can retain
    /// it), so from that point the files must be preserved.
    fn abandon(&mut self) {
        self.file = None;
        self.discard(&self.created);
        self.created.clear();
        self.outputs.clear();
    }

    /// Release the pending marks of `files`, outputs no MANIFEST record
    /// names, and unlink them off the lock (a failure is the ledger's).
    fn discard(&self, files: &[u64]) {
        for &number in files {
            self.inner.versions.lock().reclaim.clear_pending(number);
        }
        let tables = files.iter().map(|&number| FileType::Table(number));
        self.inner.reclaim(ReclaimBatch::unlinking(tables));
    }

    fn sync_file(inner: &DbInner, file: &mut dyn bolt_env::WritableFile) -> Result<()> {
        if inner.env.supports_ordering_barrier() {
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
            let output = self.outputs.len();
            let mut keep_block = |handle, block| self.warm.keep(output, handle, block);
            let mut builder =
                TableBuilder::new(file.as_mut(), self.inner.opts.table_format.clone())
                    .keeping_blocks(&mut keep_block);
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
                self.synced = true;
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
                self.discard(&[number]);
            } else {
                self.synced = true;
                Self::sync_file(self.inner, file.as_mut())?;
            }
        }
        std::mem::take(&mut self.outputs)
            .into_iter()
            .enumerate()
            .map(|(i, (file_number, mut built))| {
                let path = table_file(&self.inner.name, file_number);
                let cache = &self.inner.table_cache;
                let reader = cache.reader_of_built(file_number, &path, &mut built)?;
                Ok(Output {
                    file_number,
                    built,
                    reader,
                    blocks: self.warm.take(i),
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
        let task = crate::compaction::manual_task(&inner.opts, &version, 0, b"", b"zzzz");
        let task = task.unwrap();
        let input_bytes = task.input_bytes();
        (inner.run_compaction(task, &version))
            .map(|()| input_bytes)
            .map_err(|f| f.error)
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

    /// The merge reads its inputs past both caches: no lookup, open or
    /// eviction. Its commit caches the outputs: every data block, charged
    /// its bytes.
    #[test]
    fn compaction_inputs_bypass_block_cache_and_table_lru() {
        let (env, db) = mem_db(small_opts(Options::bolt()));
        two_overlapping_runs(&db);
        // Foreground reads fill both caches with the tables about to merge.
        for i in (0..300u32).step_by(7) {
            db.get(format!("key{i:05}").as_bytes()).unwrap().unwrap();
        }
        let tables = db.table_cache();
        let blocks = tables.block_cache().unwrap();
        let caches = || {
            let (b, t) = (blocks.stats(), tables.stats());
            let block_cache = (b.hits(), b.misses(), b.evictions());
            (block_cache, tables.open_count(), t.hits(), t.misses())
        };
        let warm = || {
            let b = tables.block_cache_snapshot();
            (b.usage, b.warm_inserts)
        };
        let (before, warm_before) = (caches(), warm());
        // (The flushes cached their own tables' readers: hits, no opens.)
        assert!(
            warm_before.0 > 0 && before.2 > 0,
            "nothing cached: {before:?}"
        );

        compact_l0(&db).unwrap();
        let stats = db.stats().snapshot();
        assert_eq!(stats.compactions, 1);
        assert_eq!(caches(), before, "the compaction went through a cache");
        let outputs = data_blocks(env.as_ref(), &db, 1);
        let charge: u64 = outputs.iter().map(|&(_, bytes)| bytes).sum();
        assert!(!outputs.is_empty());
        assert_eq!(
            warm(),
            (warm_before.0 + charge, warm_before.1 + outputs.len() as u64),
            "the outputs' blocks are cached whole"
        );
        // What it read instead: every input byte once, one span per run
        // (each run is one flush's file, its logical tables back to back).
        assert_eq!(stats.compaction_read_ops, 2, "{stats:?}");
        assert_eq!(stats.compaction_read_bytes, stats.compaction_input_bytes);
        assert_eq!(db.get(b"key00123").unwrap(), Some(newer()));
        db.close().unwrap();
    }

    /// A key whose block a compaction just rewrote is read from the block
    /// cache.
    #[test]
    fn a_get_of_a_block_a_compaction_just_wrote_reads_no_device() {
        let (env, db) = mem_db(manual_opts());
        two_overlapping_runs(&db);
        compact_l0(&db).unwrap();
        assert_eq!(db.level_info()[0].runs, 0);
        let value = get_from_block_cache(&env, &db, b"key00123");
        assert_eq!(value, Some(newer()));
        db.close().unwrap();
    }

    /// A job whose output is larger than the block cache keeps at most the
    /// cache's capacity of it: a flush its newest blocks that fit, a
    /// compaction no more bytes than that; the cache holds no more either.
    #[test]
    fn a_job_larger_than_the_block_cache_inserts_at_most_its_capacity() {
        const CAPACITY: u64 = 256 << 10;
        let mut opts = manual_opts();
        opts.block_cache_bytes = CAPACITY;
        let (env, db) = mem_db(opts);
        let warm = || db.metrics().block_cache.warm_inserts as usize;
        flush_run(&db, 0..12_000, &[b'a'; 100]);
        let flushed = warm();
        let newest_first: Vec<u64> = (data_blocks(env.as_ref(), &db, 0).iter())
            .rev()
            .map(|&(_, bytes)| bytes)
            .collect();
        let kept: u64 = newest_first[..flushed].iter().sum();
        assert!(
            kept <= CAPACITY && kept + newest_first[flushed] > CAPACITY,
            "{flushed} blocks, {kept} B"
        );

        flush_run(&db, 0..12_000, &newer());
        let before = warm();
        compact_l0(&db).unwrap();
        let inserted = warm() - before;
        let mut sizes: Vec<u64> = (data_blocks(env.as_ref(), &db, 1).iter())
            .map(|&(_, bytes)| bytes)
            .collect();
        assert!(sizes.iter().sum::<u64>() > 2 * CAPACITY, "a small output");
        sizes.sort_unstable();
        let least: u64 = sizes[..inserted].iter().sum();
        assert!(inserted > 0 && least <= CAPACITY, "{inserted} blocks");
        assert!(db.metrics().block_cache.usage <= CAPACITY);
        db.close().unwrap();
    }

    /// A compaction keeps only the output blocks whose keys overlap an input
    /// block the cache held when it started: what readers used is replaced,
    /// and nothing no reader asked for comes in.
    #[test]
    fn a_compaction_keeps_only_blocks_over_its_cached_inputs() {
        let (env, db) = mem_db(manual_opts());
        flush_run(&db, 0..3_000, &[b'a'; 100]);
        flush_run(&db, 0..3_000, &newer());
        // Reopened, the cache is cold; one get makes one input block hot.
        db.close().unwrap();
        drop(db);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        assert_eq!(db.get(b"key01500").unwrap(), Some(newer()));
        let before = db.metrics().block_cache.warm_inserts;
        compact_l0(&db).unwrap();
        let inserted = db.metrics().block_cache.warm_inserts - before;
        assert!(
            (1..=2).contains(&inserted),
            "{inserted} of {} blocks",
            data_blocks(env.as_ref(), &db, 1).len()
        );
        assert_eq!(get_from_block_cache(&env, &db, b"key01500"), Some(newer()));
        let reads = env.stats().snapshot().read_ops;
        db.get(b"key00010").unwrap();
        assert_eq!(
            env.stats().snapshot().read_ops,
            reads + 1,
            "a cold block was cached"
        );
        db.close().unwrap();
    }

    /// Push the whole of `level` down one level, on this thread.
    fn compact_level(db: &Db, level: usize) -> bolt_common::Result<()> {
        let (inner, version) = (&db.inner, db.current_version());
        let task = crate::compaction::manual_task(&inner.opts, &version, level, b"", b"zzzz");
        (inner.run_compaction(task.unwrap(), &version)).map_err(|f| f.error)
    }

    /// A failed input read — the first, the second (the merge has not
    /// produced anything yet), or the sixth (the merge is under way) —
    /// abandons the compaction: no output file and no pending mark outlives
    /// it, the engine reads on, and the next attempt succeeds.
    #[test]
    fn input_read_error_abandons_the_outputs_and_a_retry_succeeds() {
        for fail_in in [None, Some(2), Some(6)] {
            let env = Arc::new(FaultEnv::over_mem());
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
            env.start_recording();
            match fail_in {
                None => two_overlapping_runs(&db),
                // Runs of several read spans each.
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
            let cached = || {
                let blocks = db.metrics().block_cache;
                (blocks.warm_inserts, blocks.usage)
            };
            let cached_before = cached();

            // (The n-th read from now is the clause's ordinal n - 1.)
            arm(
                &env,
                &format!("eio:read:glob=*.sst:nth={}", fail_in.unwrap_or(1) - 1),
            );
            env.take_read_log();
            let started = std::time::Instant::now();
            let err = compact_l0(&db).unwrap_err();
            // The failure ends the compaction at the read that met it:
            // nothing is left waiting for bytes nobody will take.
            assert!(started.elapsed().as_secs() < 30, "{:?}", started.elapsed());
            assert!(matches!(err, bolt_common::Error::Io(_)), "{err:?}");
            assert_eq!(cached(), cached_before, "the failed job cached blocks");
            if let Some(n) = fail_in {
                let reads = env.take_read_log().len() as u64;
                assert_eq!(reads, n, "a span past the failed one was read");
            }
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

    /// A failed build whose output unlink fails too leaves its file owed by
    /// the reclaim ledger, not forgotten until the next open: the commit of
    /// the retry is the pass that removes it.
    #[test]
    fn an_abandoned_output_whose_unlink_fails_is_retried_by_the_next_commit() {
        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        // Runs of several read spans each, so that the sixth read fails
        // with the merge under way and its output file created.
        flush_run(&db, 0..12_000, &[b'a'; 100]);
        flush_run(&db, 0..12_000, &newer());
        let tables = || {
            let mut names = env.list_dir("db").unwrap();
            names.retain(|name| name.ends_with(".sst"));
            names
        };
        let before = tables();
        arm(
            &env,
            "eio:read:glob=*.sst:nth=5,eio:delete:glob=*.sst:nth=0",
        );
        let err = compact_l0(&db).unwrap_err();
        assert!(matches!(err, bolt_common::Error::Io(_)), "{err:?}");
        assert_eq!(env.faults_injected(), 2, "the output's unlink never ran");
        let abandoned: Vec<String> = tables()
            .into_iter()
            .filter(|n| !before.contains(n))
            .collect();
        assert_eq!(abandoned.len(), 1, "{abandoned:?}");
        assert!(db.metrics().pending_unlink_files >= 1);

        compact_l0(&db).unwrap();
        assert_eq!(db.level_info()[0].runs, 0);
        assert!(
            !tables().contains(&abandoned[0]),
            "the retry's commit left it"
        );
        assert_eq!(db.metrics().pending_unlink_files, 0);
        assert_eq!(db.get(b"key00123").unwrap(), Some(newer()));
        db.close().unwrap();
    }

    /// A compaction whose input holds a block key shorter than the tag
    /// fails with `Corruption` on the compaction thread, where the
    /// sequential reader's table hands the key to the merge.
    #[test]
    fn a_short_block_key_in_a_compaction_input_is_corruption() {
        let (_env, db) = db_with_a_short_block_key();
        let err = db.compact_range(b"", b"zzzz").unwrap_err();
        assert!(matches!(err, bolt_common::Error::Corruption(_)), "{err:?}");
        assert_eq!(db.level_info()[0].runs, 2);
    }

    /// A compaction reads each span of each of its runs once, where its
    /// merge takes it: the file sees exactly the merge units' spans — no
    /// more, none twice — and each run's in the order [`spans`] gives them.
    #[test]
    fn a_compaction_reads_each_input_span_once() {
        use bolt_table::seq::spans;
        let spans_and_reads = |db: &Db, env: &FaultEnv, level: usize| {
            let (inner, version) = (&db.inner, db.current_version());
            let task =
                crate::compaction::manual_task(&inner.opts, &version, level, b"", b"zzzz").unwrap();
            let units = super::merge_units(&task);
            let runs: Vec<Vec<(String, u64, usize)>> = (units.iter().flatten())
                .map(|run| {
                    let specs: Vec<_> = run.iter().map(|t| t.spec(&inner.name)).collect();
                    let read = |s: bolt_table::seq::Span| {
                        (specs[s.table].path.clone(), s.offset, s.len as usize)
                    };
                    spans(&specs).into_iter().map(read).collect()
                })
                .collect();
            env.take_read_log();
            inner.run_compaction(task, &version).unwrap();
            let read = env.take_read_log();
            // As a multiset, the reads are the spans.
            let sorted = |mut reads: Vec<(String, u64, usize)>| {
                reads.sort();
                reads
            };
            assert_eq!(sorted(read.clone()), sorted(runs.concat()));
            // Front to back within each run.
            for run in &runs {
                let in_run: Vec<_> = read.iter().filter(|r| run.contains(r)).cloned().collect();
                assert_eq!(&in_run, run);
            }
            (units, runs.concat().len() as u64)
        };

        // Nine L0 runs over one key range, each several spans long and each
        // with its own density, so that their tables end at different keys.
        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        env.start_recording();
        for run in 0..9u32 {
            flush_run(
                &db,
                (0..36_000).step_by(run as usize + 2),
                &[b'a' + run as u8; 100],
            );
        }
        assert_eq!(db.level_info()[0].runs, 9);
        let (units, spans) = spans_and_reads(&db, &env, 0);
        assert_eq!(units.iter().map(Vec::len).collect::<Vec<_>>(), [9]);
        assert!(spans >= 3 * 9, "{spans} spans");
        let stats = db.stats().snapshot();
        assert_eq!(stats.compaction_read_ops, spans);
        assert_eq!(stats.compaction_read_bytes, stats.compaction_input_bytes);
        db.close().unwrap();

        // Level 2 holds every key; level 1 four ranges far apart: the
        // victims and what they overlap fall into four clusters.
        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        env.start_recording();
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
        let before = db.stats().snapshot();
        let (units, spans) = spans_and_reads(&db, &env, 1);
        // (A range splits further wherever a table ends at the same key in
        // both levels.) Every cluster is two runs, some of several spans.
        assert!(units.len() >= 4 && units.iter().all(|u| u.len() == 2));
        assert!(spans >= 2 * units.len() as u64 + 4, "{spans} spans");
        let stats = db.stats().snapshot();
        assert!(stats.compaction_overlap_bytes > 0, "{stats:?}");
        assert_eq!(
            stats.compaction_read_ops - before.compaction_read_ops,
            spans
        );
        assert_eq!(
            stats.compaction_read_bytes - before.compaction_read_bytes,
            stats.compaction_input_bytes - before.compaction_input_bytes
        );
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
