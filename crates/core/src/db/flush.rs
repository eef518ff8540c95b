//! The background thread, the requests it serves (`flush`,
//! `compact_range`, `compact_until_quiet`), and memtable flushes.
//!
//! Owns the background group of [`super::DbState`] — `bg_busy`,
//! `bg_error`, the `manual`/`seek_candidate` requests it serves. The flush
//! commit is one of the three view installs: it retires `imm`, installs the
//! version holding its L0 run and advances `flushed_seq` in one swap.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::Result;
use bolt_table::ikey::SequenceNumber;
use bolt_table::rangedel::RangeTombstoneSet;

use super::compact::{commit_outputs, DropScope, Output, OutputSink};
use super::{Db, DbInner, DbState, ReadView};
use crate::compaction::{
    manual_task, needs_compaction, pick_compaction, CompactionReason, CompactionTask, OutputShape,
};
use crate::iterator::InternalIterator;
use crate::memtable::MemTable;
use crate::sync::MutexGuard;
use crate::version::{Version, VersionEdit};

impl Db {
    /// Force the current memtable to disk and wait for the flush.
    ///
    /// # Errors
    ///
    /// Returns background errors.
    pub fn flush(&self) -> Result<()> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        // Wait out any in-flight flush first — switching while an immutable
        // memtable is pending would clobber it — and any in-flight group
        // commit, which owns the WAL and is still inserting into `mem`.
        inner.await_flush(&mut state)?;
        while state.wal.is_none() {
            inner.writers_cv.wait(&mut state);
            inner.await_flush(&mut state)?;
        }
        if !inner.view().mem.is_empty() {
            inner.switch_memtable(&mut state)?;
        }
        inner.await_flush(&mut state)?;
        Ok(())
    }

    /// Block until no flush or compaction work remains.
    ///
    /// # Errors
    ///
    /// Returns background errors.
    pub fn compact_until_quiet(&self) -> Result<()> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        loop {
            state.check_poisoned()?;
            let has_work = state.bg_busy || {
                let view = inner.view();
                view.imm.is_some() || needs_compaction(&inner.opts, &view.version)
            };
            if !has_work {
                return Ok(());
            }
            inner.work_cv.notify_one();
            inner
                .done_cv
                .wait_for(&mut state, Duration::from_millis(50));
        }
    }

    /// Compact every level that overlaps the user-key range `[begin, end]`
    /// down one level at a time until no level above the deepest occupied
    /// one overlaps it. The work runs on the background thread (serialized
    /// with automatic compactions); this call blocks until it completes.
    /// Like LevelDB's `CompactRange`.
    ///
    /// # Errors
    ///
    /// Returns background errors.
    pub fn compact_range(&self, begin: &[u8], end: &[u8]) -> Result<()> {
        self.flush()?;
        self.compact_until_quiet()?;
        for level in 0..self.inner.opts.num_levels - 1 {
            loop {
                let overlapping = {
                    let version = self.current_version();
                    !version
                        .overlapping_tables(&self.inner.icmp, level, begin, end)
                        .is_empty()
                };
                if !overlapping {
                    break;
                }
                let mut state = self.inner.state.lock();
                state.check_poisoned()?;
                let generation = state.manual_done;
                state.manual = Some((level, begin.to_vec(), end.to_vec()));
                self.inner.work_cv.notify_one();
                while state.manual_done == generation && state.bg_error.is_none() {
                    self.inner.done_cv.wait(&mut state);
                }
                state.check_poisoned()?;
            }
        }
        Ok(())
    }
}

impl DbInner {
    /// Wait, holding `state`, until no flush is pending (or the engine is
    /// poisoned) and return the view that says so. The flush commit swaps
    /// the view, then takes `state` to notify: no wake-up is lost.
    pub(super) fn await_flush(&self, state: &mut MutexGuard<'_, DbState>) -> Result<Arc<ReadView>> {
        loop {
            state.check_poisoned()?;
            let view = self.view();
            if view.imm.is_none() {
                return Ok(view);
            }
            // Parked without it: a waiter must not pin the outgoing version.
            drop(view);
            self.work_cv.notify_one();
            self.done_cv.wait(state);
        }
    }

    pub(super) fn background_loop(self: Arc<Self>) {
        loop {
            enum Work {
                Flush,
                Compact(CompactionTask),
                Manual(CompactionTask),
            }
            let work = {
                let mut state = self.state.lock();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if self.view().imm.is_some() {
                        state.bg_busy = true;
                        break Work::Flush;
                    }
                    if let Some((level, begin, end)) = state.manual.take() {
                        let version = &self.view().version;
                        match manual_task(&self.opts, &self.icmp, version, level, &begin, &end) {
                            Some(task) => {
                                state.bg_busy = true;
                                break Work::Manual(task);
                            }
                            None => {
                                // Nothing overlaps (anymore): complete it.
                                state.manual_done += 1;
                                self.done_cv.notify_all();
                                continue;
                            }
                        }
                    }
                    let task = pick_compaction(
                        &self.opts,
                        &self.icmp,
                        &self.view().version,
                        state.seek_candidate.clone(),
                    );
                    if let Some(task) = task {
                        if task.reason == CompactionReason::Seek {
                            state.seek_candidate = None;
                            self.stats.record_seek_compaction(1);
                        }
                        state.bg_busy = true;
                        break Work::Compact(task);
                    }
                    state.seek_candidate = None;
                    self.work_cv.wait(&mut state);
                }
            };

            let (result, was_manual) = match work {
                Work::Flush => (self.maybe_flush_pending_imm(), false),
                Work::Compact(task) => (self.run_compaction(task), false),
                Work::Manual(task) => (self.run_compaction(task), true),
            };

            let mut state = self.state.lock();
            state.bg_busy = false;
            if was_manual {
                state.manual_done += 1;
            }
            match result {
                Ok(()) => {}
                Err(e) => {
                    // Transient MANIFEST sync failures never reach here:
                    // log_and_apply self-heals them by re-cutting a fresh
                    // MANIFEST (O5), so background work keeps flowing. Only
                    // a double fault (the re-cut itself failed, writer
                    // poisoned) or a non-MANIFEST error parks the engine.
                    state.bg_error = Some(e);
                }
            }
            self.done_cv.notify_all();
        }
    }

    /// Write `mem` to level 0 and commit: the view's `imm` on the
    /// background thread, a replayed memtable (never in the view) during
    /// recovery. Every write at or below `seq_boundary` is in it or older.
    pub(super) fn flush_memtable(
        &self,
        mem: &Arc<MemTable>,
        log_boundary: u64,
        seq_boundary: SequenceNumber,
    ) -> Result<()> {
        let flush_id = self.flush_ids.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(EngineEvent::FlushBegin {
            id: flush_id,
            input_bytes: mem.approximate_memory_usage(),
        });
        let mut iter = mem.iter();
        iter.seek_to_first();
        let internal: &mut dyn InternalIterator = &mut iter;
        // Stock LevelDB flushes the whole memtable as ONE SSTable file;
        // BoLT cuts logical SSTables but still writes one compaction file.
        let target = match self.opts.bolt_options() {
            Some(b) => b.logical_sstable_bytes,
            None => u64::MAX,
        };
        let outputs = {
            let _scope = BarrierScope::new(BarrierCause::FlushData);
            self.write_sorted_run(internal, target)
        }?;

        let flush_bytes = {
            let _scope = BarrierScope::new(BarrierCause::FlushManifest);
            let mut versions = self.versions.lock();
            let edit = VersionEdit {
                log_number: Some(log_boundary),
                last_sequence: Some(self.last_sequence.load(Ordering::Acquire)),
                ..VersionEdit::default()
            };
            // A flush lands as one fresh L0 run, newer than every other.
            let bytes = commit_outputs(
                &mut versions,
                &self.table_cache,
                edit,
                0,
                OutputShape::AppendRun,
                outputs,
            )?;
            // One swap: the run enters the view as its memtable leaves, and
            // the boundary it establishes arrives with it.
            self.install_view(|old| ReadView {
                imm: None,
                version: versions.current(),
                flushed_seq: seq_boundary,
                ..old.clone()
            });
            let garbage = versions.collect_garbage(&self.table_cache);
            drop(versions);
            self.reclaim(garbage);
            bytes
        };
        self.stats.record_flush(1);
        self.stats.record_flush_bytes(flush_bytes);
        self.sink.emit(EngineEvent::FlushEnd {
            id: flush_id,
            output_bytes: flush_bytes,
            level: 0,
        });
        {
            // Wake writers stalled on the full memtable immediately — this
            // may run mid-compaction (flush preemption). Under `state`,
            // which every waiter holds while it reads the view.
            let _state = self.state.lock();
            self.done_cv.notify_all();
        }
        self.delete_obsolete_logs(log_boundary);
        Ok(())
    }

    /// Flush the pending immutable memtable right now if one exists. Called
    /// from within long compactions, mirroring the pending-memtable check
    /// in LevelDB's `DoCompactionWork`: without preemption a 64 MB group
    /// compaction would stall writers for its entire duration.
    pub(super) fn maybe_flush_pending_imm(&self) -> Result<()> {
        // Bound first: the view itself must not stay pinned across the
        // flush, whose commit expects the outgoing version to be released.
        let pending = self.view().imm.clone();
        pending.map_or(Ok(()), |imm| {
            self.flush_memtable(&imm.mem, imm.log_boundary, imm.seq_boundary)
        })
    }

    /// Stream one sorted input into output tables without dropping entries
    /// (the flush path; a flush must preserve every memtable entry). With
    /// `target = u64::MAX` everything lands in a single table.
    fn write_sorted_run(
        &self,
        iter: &mut dyn InternalIterator,
        target: u64,
    ) -> Result<Vec<Output>> {
        let mut sink = OutputSink::new(self, self.opts.bolt_options().is_some(), target);
        let version = Version::empty(self.opts.num_levels);
        let overlay = RangeTombstoneSet::default();
        let inputs = std::collections::HashSet::new();
        let scope = DropScope {
            version: &version,
            inputs: &inputs,
            output_level: usize::MAX,
            include_output_level: false,
        };
        let result = sink
            .write_run(iter, None, &overlay, &scope)
            .and_then(|()| sink.finish());
        if result.is_err() {
            // Nothing references these outputs yet; reclaim them so an I/O
            // error mid-flush cannot leak partially written files.
            sink.abandon();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;

    #[test]
    fn flush_moves_data_to_l0_and_reads_still_work() {
        let (_env, db) = mem_db(small_opts(Options::leveldb()));
        for i in 0..500u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'x'; 100])
                .unwrap();
        }
        db.flush().unwrap();
        let info = db.level_info();
        assert!(info[0].tables >= 1, "L0 has tables after flush: {info:?}");
        for i in (0..500u32).step_by(37) {
            assert_eq!(
                db.get(format!("key{i:05}").as_bytes()).unwrap(),
                Some(vec![b'x'; 100]),
                "key{i}"
            );
        }
        db.close().unwrap();
    }
}
