//! The background thread, the requests it serves (`flush`,
//! `compact_range`, `compact_until_quiet`), and memtable flushes.
//!
//! Owns the background group of [`super::DbState`] — `bg_busy`,
//! `bg_error`, the `manual`/`seek_candidate` requests it serves. A flush
//! is write → commit: it drops nothing, and its commit is the tail it
//! shares with compaction (`DbInner::commit`), with a view that retires
//! `imm`, installs the version holding its L0 run and advances
//! `flushed_seq` in one swap.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::sync::MutexGuard;
use bolt_common::Result;
use bolt_table::ikey::SequenceNumber;

use super::compact::{Output, OutputSink};
use super::{Db, DbInner, DbState, ReadView};
use crate::compaction::{
    manual_task, needs_compaction, pick_compaction, CompactionReason, CompactionTask, OutputShape,
};
use crate::iterator::InternalIterator;
use crate::memtable::MemTable;
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
                Compact {
                    task: CompactionTask,
                    /// The version `task` was picked from.
                    version: Arc<Version>,
                    manual: bool,
                },
            }
            let work = {
                let mut state = self.state.lock();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // A poisoned engine changes nothing more (LevelDB's
                    // `MaybeScheduleCompaction` rule): the job that failed
                    // would be picked again and fail again — leaving, when
                    // it is the commit that fails, one more set of output
                    // files behind each time. Parked until shutdown.
                    if state.bg_error.is_none() {
                        let view = self.view();
                        if view.imm.is_some() {
                            state.bg_busy = true;
                            break Work::Flush;
                        }
                        let version = &view.version;
                        // A manual request comes first; its task is never a
                        // seek compaction.
                        let manual = state.manual.take();
                        let task = match &manual {
                            Some((level, begin, end)) => {
                                manual_task(&self.opts, &self.icmp, version, *level, begin, end)
                            }
                            None => {
                                let candidate = state.seek_candidate.clone();
                                pick_compaction(&self.opts, &self.icmp, version, candidate)
                            }
                        };
                        if let Some(task) = task {
                            if task.reason == CompactionReason::Seek {
                                state.seek_candidate = None;
                                self.stats.record_seek_compaction(1);
                            }
                            state.bg_busy = true;
                            break Work::Compact {
                                task,
                                version: Arc::clone(version),
                                manual: manual.is_some(),
                            };
                        }
                        if manual.is_some() {
                            // Nothing overlaps (anymore): complete it.
                            state.manual_done += 1;
                            self.done_cv.notify_all();
                            continue;
                        }
                        state.seek_candidate = None;
                    }
                    // Parked without the view: a waiter must not pin the
                    // outgoing version.
                    self.work_cv.wait(&mut state);
                }
            };

            let (result, was_manual) = match work {
                Work::Flush => (self.maybe_flush_pending_imm(), false),
                Work::Compact {
                    task,
                    version,
                    manual,
                } => (self.run_compaction(task, &version), manual),
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
            let edit = VersionEdit {
                log_number: Some(log_boundary),
                last_sequence: Some(self.last_sequence.load(Ordering::Acquire)),
                ..VersionEdit::default()
            };
            // A flush lands as one fresh L0 run, newer than every other. One
            // swap: the run enters the view as its memtable leaves, and the
            // boundary it establishes arrives with it.
            let install = |old: &ReadView, version| ReadView {
                imm: None,
                version,
                flushed_seq: seq_boundary,
                ..old.clone()
            };
            self.commit(edit, 0, OutputShape::AppendRun, outputs, None, install)?
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
        let written = sink.write_run(iter, None);
        sink.finish(written)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

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

    #[test]
    fn a_poisoned_engine_parks_its_background_thread() {
        use bolt_common::events::EngineEvent;

        let env = Arc::new(ReadFaultEnv::default());
        let mut opts = small_opts(Options::bolt());
        opts.level0_compaction_trigger = 2;
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        // Two L0 runs reach the trigger; the compaction they call for
        // cannot read its inputs.
        env.set_fail_reads(true);
        for round in 0..2u32 {
            for i in 0..100u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'a' + round as u8; 100])
                    .unwrap();
            }
            // The second flush may already report the failed compaction.
            let _ = db.flush();
        }
        let err = db.compact_until_quiet().unwrap_err();
        assert!(matches!(err, bolt_common::Error::Io(_)), "{err:?}");
        assert_eq!(db.put(b"k", b"v").unwrap_err(), err);

        let attempts = |db: &Db| {
            let begun = |e: &bolt_common::events::TraceEvent| {
                matches!(e.event, EngineEvent::CompactionBegin { .. })
            };
            db.events().iter().filter(|e| begun(e)).count()
        };
        let files = || {
            let mut names = env.list_dir("db").unwrap();
            names.sort();
            names
        };
        assert_eq!(attempts(&db), 1);
        let (before, emitted) = (files(), db.metrics().events_emitted);
        // Nothing is retried, however often the thread is woken: no event,
        // no file, no second attempt.
        for _ in 0..50 {
            db.inner.work_cv.notify_all();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(attempts(&db), 0);
        assert_eq!(db.metrics().events_emitted, emitted);
        assert_eq!(files(), before);
        assert_eq!(db.close().unwrap_err(), err);
    }
}
