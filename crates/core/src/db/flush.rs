//! The two background threads, the requests they serve (`flush`,
//! `compact_range`, `compact_until_quiet`), and memtable flushes.
//!
//! `bolt-flush` waits on `flush_cv` for the view to hold an `imm` and
//! flushes it; `bolt-compaction` waits on `work_cv` for a manual request
//! or a task the picker finds and runs it. A flush runs *beside* a
//! compaction, never inside one: while it waits on its two barriers the
//! merge keeps the device's write queue fed. Both loops are `next_job` →
//! run → `job_done`, and this module owns the background group of
//! [`super::DbState`] through those two: `bg_jobs` (jobs in flight, 0–2)
//! and `bg_error` (the first failure; it parks both threads) are written by
//! either thread, `manual`/`manual_done`/`seek_candidate` by the compaction
//! thread alone. A flush is write → commit: it drops nothing, and its
//! commit is the tail it shares with compaction (`DbInner::commit`, which
//! serialises the two threads on `core.versions`), with a view that
//! retires `imm`, installs the version holding its L0 run and advances
//! `flushed_seq` in one swap.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::sync::{Condvar, MutexGuard};
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
            let has_work = state.bg_jobs > 0 || {
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
    /// one overlaps it. The work runs on the compaction thread (serialized
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
            self.done_cv.wait(state);
        }
    }

    /// Park on `cv` until `pick` finds a job — counted in flight before
    /// `state` is released — or, at shutdown, `None`. A poisoned engine
    /// changes nothing more (LevelDB's `MaybeScheduleCompaction` rule): the
    /// job that failed would be picked again and fail again — leaving, when
    /// it is the commit that fails, one more set of output files behind
    /// each time — so both threads stay parked until shutdown.
    fn next_job<T>(
        &self,
        cv: &Condvar,
        mut pick: impl FnMut(&mut DbState) -> Option<T>,
    ) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if state.bg_error.is_none() {
                if let Some(job) = pick(&mut state) {
                    state.bg_jobs += 1;
                    return Some(job);
                }
            }
            // Parked without the view: a waiter must not pin the outgoing
            // version.
            cv.wait(&mut state);
        }
    }

    /// The end of every background job, on either thread. Transient
    /// MANIFEST sync failures never reach here: `log_and_apply` self-heals
    /// them by re-cutting a fresh MANIFEST (O5). Only a double fault (the
    /// re-cut itself failed, writer poisoned) or a non-MANIFEST error parks
    /// the engine — and the first error stays the one every later
    /// `check_poisoned` reports, whichever thread fails after it.
    fn job_done(&self, result: Result<()>, manual: bool) {
        let mut state = self.state.lock();
        state.bg_jobs -= 1;
        if manual {
            state.manual_done += 1;
        }
        if let Err(e) = result {
            state.bg_error.get_or_insert(e);
        }
        // A flush's L0 run may be the compaction the other thread waits for.
        self.work_cv.notify_one();
        self.done_cv.notify_all();
    }

    /// `bolt-flush`: the one thread that flushes the view's `imm`, beside
    /// whatever the compaction thread is merging.
    pub(super) fn flush_loop(&self) {
        while let Some(imm) = self.next_job(&self.flush_cv, |_| self.view().imm.clone()) {
            let flushed = self.flush_memtable(&imm.mem, imm.log_boundary, imm.seq_boundary);
            self.job_done(flushed, false);
        }
    }

    /// `bolt-compaction`: manual requests, then what the picker finds.
    pub(super) fn compaction_loop(&self) {
        while let Some((task, version, manual)) =
            self.next_job(&self.work_cv, |state| self.pick_task(state))
        {
            let compacted = self.run_compaction(task, &version);
            // Released before anyone hears of it: to the next reclaim
            // decision a version this thread still held is a reader's.
            drop(version);
            self.job_done(compacted, manual);
        }
    }

    /// The next compaction, the version it was picked from, and whether a
    /// manual request asked for it. A manual request comes first; its task
    /// is never a seek compaction.
    fn pick_task(&self, state: &mut DbState) -> Option<(CompactionTask, Arc<Version>, bool)> {
        let view = self.view();
        let version = &view.version;
        let manual = (state.manual.take()).map(|(level, begin, end)| {
            manual_task(&self.opts, &self.icmp, version, level, &begin, &end)
        });
        if let Some(None) = manual {
            // Nothing overlaps (anymore): complete it.
            state.manual_done += 1;
            self.done_cv.notify_all();
        }
        let (task, manual) = match manual.flatten() {
            Some(task) => (task, true),
            None => {
                let candidate = state.seek_candidate.clone();
                let task = pick_compaction(&self.opts, &self.icmp, version, candidate);
                // The candidate waits out a size compaction, nothing else.
                if task
                    .as_ref()
                    .is_none_or(|t| t.reason == CompactionReason::Seek)
                {
                    state.seek_candidate = None;
                    self.seek_pending.store(false, Ordering::Release);
                }
                (task?, false)
            }
        };
        if task.reason == CompactionReason::Seek {
            self.stats.record_seek_compaction(1);
        }
        Some((task, Arc::clone(version), manual))
    }

    /// Write `mem` to level 0 and commit: the view's `imm` on the flush
    /// thread, a replayed memtable (never in the view) during recovery,
    /// before either thread exists. Every write at or below `seq_boundary`
    /// is in it or older.
    pub(super) fn flush_memtable(
        &self,
        mem: &Arc<MemTable>,
        log_boundary: u64,
        seq_boundary: SequenceNumber,
    ) -> Result<()> {
        let started = Instant::now();
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
            let install = |old: &ReadView, version| {
                // One flusher: nobody retired `imm` — or switched in the
                // next — while this one was written.
                let pending = old.imm.as_ref();
                assert!(
                    pending.is_none_or(|imm| Arc::ptr_eq(&imm.mem, mem)),
                    "a flush retires the memtable it wrote"
                );
                ReadView {
                    imm: None,
                    version,
                    flushed_seq: seq_boundary,
                    ..old.clone()
                }
            };
            self.commit(edit, 0, OutputShape::AppendRun, outputs, None, install)?
        };
        self.stats.record_flush(1);
        self.stats.record_flush_bytes(flush_bytes);
        self.stats
            .record_flush_busy_nanos(started.elapsed().as_nanos() as u64);
        self.sink.emit(EngineEvent::FlushEnd {
            id: flush_id,
            output_bytes: flush_bytes,
            level: 0,
        });
        {
            // Wake writers stalled on the full memtable now, before the
            // log sweep (`bg_jobs` still counts this flush: to
            // `compact_until_quiet` it is not over). Under `state`, which
            // every waiter holds while it reads the view.
            let _state = self.state.lock();
            self.done_cv.notify_all();
        }
        self.delete_obsolete_logs(log_boundary);
        Ok(())
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
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    use bolt_common::events::{EngineEvent, TraceEvent};

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

    /// File a manual request for the whole of level 0, as `compact_range`
    /// does, and return the generation its completion ends.
    fn request_l0_compaction(db: &Db) -> u64 {
        let mut state = db.inner.state.lock();
        state.manual = Some((0, Vec::new(), b"zzzz".to_vec()));
        db.inner.work_cv.notify_one();
        state.manual_done
    }

    /// Wait until `done(state)`, woken by `done_cv` like every other waiter.
    fn await_state(db: &Db, done: impl Fn(&super::DbState) -> bool) {
        let mut state = db.inner.state.lock();
        while !done(&state) {
            db.inner.done_cv.wait(&mut state);
        }
    }

    /// Run `action` on a thread of its own and wait for it, but not for
    /// ever: should it block, the gate is opened (so that the scope joins)
    /// and the test fails with `why`.
    fn finishes(env: &FaultEnv, why: &str, action: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            let (done, wait_done) = std::sync::mpsc::channel();
            s.spawn(move || {
                action();
                done.send(()).unwrap();
            });
            let finished = wait_done.recv_timeout(Duration::from_secs(20));
            if finished.is_err() {
                env.release();
            }
            finished.expect(why);
        });
    }

    fn position(events: &[TraceEvent], which: impl Fn(&EngineEvent) -> bool) -> Option<usize> {
        events.iter().position(|e| which(&e.event))
    }

    /// Opens the gate when dropped: a failed assertion then fails the test
    /// instead of leaving `close` to join a thread nobody will let go.
    struct OpenOnDrop<'a>(&'a FaultEnv);

    impl Drop for OpenOnDrop<'_> {
        fn drop(&mut self) {
            self.0.release();
        }
    }

    /// Two L0 runs of several read spans each, and a compaction thread
    /// parked in the sixth input read of their merge: the merge is under
    /// way and its reader ahead of it. Returns the request's generation.
    fn compaction_held_mid_merge<'a>(env: &'a FaultEnv, db: &Db) -> (u64, OpenOnDrop<'a>) {
        flush_run(db, 0..12_000, &[b'a'; 100]);
        flush_run(db, 0..12_000, &[b'b'; 60]);
        arm(env, "hold:read:glob=*.sst:nth=5");
        let generation = request_l0_compaction(db);
        env.wait_until_held();
        (generation, OpenOnDrop(env))
    }

    #[test]
    fn a_flush_commits_while_a_compaction_is_mid_merge() {
        use bolt_common::events::BarrierCause;

        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        let (generation, gate) = compaction_held_mid_merge(&env, &db);
        let mut events = db.events();

        // A writer rotates the memtable and parks until it is flushed. It
        // is released while the compaction stands still: the flush has a
        // thread of its own.
        finishes(&env, "the flush waited for the compaction", || {
            flush_run(&db, 20_000..20_300, &[b'c'; 100]);
        });
        // (Its log sweep over, the flush leaves the compaction in flight.)
        await_state(&db, |state| state.bg_jobs == 1);
        let runs = |db: &Db| {
            let levels = db.level_info();
            (levels[0].runs, levels[1].runs)
        };
        assert_eq!(runs(&db), (3, 0));

        drop(gate);
        await_state(&db, |state| state.manual_done != generation);
        events.extend(db.events());
        let begun = position(&events, |e| {
            matches!(e, EngineEvent::CompactionBegin { .. })
        });
        let flushed = events
            .iter()
            .rposition(|e| matches!(e.event, EngineEvent::FlushEnd { .. }));
        let merged = position(&events, |e| matches!(e, EngineEvent::CompactionEnd { .. }));
        assert!(begun < flushed && flushed < merged, "{events:?}");
        // The compaction's edit applied on top of the flush's version: the
        // new L0 run survives it, and the key space is whole.
        assert_eq!(runs(&db), (1, 1));
        assert_eq!(db.get(b"key00123").unwrap(), Some(vec![b'b'; 60]));
        assert_eq!(db.get(b"key20123").unwrap(), Some(vec![b'c'; 100]));
        let mut iter = db.iter().unwrap();
        iter.seek_to_first().unwrap();
        let mut rows = 0;
        while iter.valid() {
            rows += 1;
            iter.next().unwrap();
        }
        assert_eq!(rows, 12_300);
        // Each thread tagged its own barriers.
        let metrics = db.metrics();
        assert_eq!(metrics.db.flushes, 3);
        assert_eq!(metrics.barrier_count(BarrierCause::FlushData), 3);
        assert_eq!(metrics.barrier_count(BarrierCause::FlushManifest), 3);
        assert_eq!(metrics.barrier_count(BarrierCause::CompactionData), 1);
        assert_eq!(metrics.barrier_count(BarrierCause::CompactionManifest), 1);
        assert_eq!(metrics.barrier_count(BarrierCause::Unattributed), 0);
        assert!(metrics.db.flush_busy_nanos > 0 && metrics.db.compaction_busy_nanos > 0);
        db.close().unwrap();
    }

    #[test]
    fn close_joins_both_threads_with_a_flush_in_flight() {
        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        db.put(b"k", b"v").unwrap();
        // The flush is past its commit, parked in its log sweep.
        arm(&env, "hold:delete:glob=*.log:nth=0");
        let _gate = OpenOnDrop(&env);
        db.flush().unwrap();
        env.wait_until_held();
        assert_eq!(db.inner.state.lock().bg_jobs, 1);
        std::thread::scope(|s| {
            let closing = s.spawn(|| db.close());
            // `close` has told both threads to stop; it cannot have joined
            // the one at the gate.
            while !db.inner.shutdown.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let joined_early = closing.is_finished();
            env.release();
            assert!(!joined_early);
            closing.join().unwrap().unwrap();
        });
        // The flush ran to its end, nothing new was started, both are gone.
        assert_eq!(db.inner.state.lock().bg_jobs, 0);
        assert!(db.bg.lock().is_empty());
        let logs = env.list_dir("db").unwrap();
        let logs: Vec<_> = logs.iter().filter(|n| n.ends_with(".log")).collect();
        assert_eq!(logs.len(), 1, "the flushed WAL is gone: {logs:?}");
        let reopened = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        assert_eq!(reopened.get(b"k").unwrap(), Some(b"v".to_vec()));
        reopened.close().unwrap();
    }

    /// A flush is not over when its view is in: `bg_jobs` counts it until
    /// its log sweep is done, and `compact_until_quiet` — "no flush or
    /// compaction work remains" — waits for that.
    #[test]
    fn compact_until_quiet_waits_for_a_flush_past_its_view_swap() {
        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        db.put(b"k", b"v").unwrap();
        let flushed_log = crate::filename::log_file("db", db.inner.state.lock().wal_number);
        arm(&env, "hold:delete:glob=*.log:nth=0");
        let _gate = OpenOnDrop(&env);
        db.flush().unwrap();
        env.wait_until_held();
        let view = db.inner.view();
        assert!(view.imm.is_none() && view.version.levels[0].num_runs() == 1);
        drop(view);

        std::thread::scope(|s| {
            let (quiet, wait_quiet) = std::sync::mpsc::channel();
            let (db, env, flushed_log) = (&db, &env, &flushed_log);
            s.spawn(move || {
                let result = db.compact_until_quiet();
                quiet.send(env.file_exists(flushed_log)).unwrap();
                result.unwrap();
            });
            // Not while the flush is at the gate (a negative: bounded).
            let early = wait_quiet.recv_timeout(Duration::from_millis(200));
            env.release();
            assert!(early.is_err(), "quiet with a flush in flight");
            let log_left = wait_quiet.recv().unwrap();
            assert!(!log_left, "quiet before the log sweep was over");
        });
        db.close().unwrap();
    }

    /// A failed compaction parks the flush thread and a failed flush the
    /// compaction thread, and the error that parked them stays the one the
    /// engine reports, whatever fails after it.
    #[test]
    fn a_poisoned_engine_parks_its_background_threads() {
        let begins = |e: &EngineEvent| {
            matches!(
                e,
                EngineEvent::CompactionBegin { .. } | EngineEvent::FlushBegin { .. }
            )
        };
        let files = |env: &FaultEnv| {
            let mut names = env.list_dir("db").unwrap();
            names.sort();
            names
        };
        // Nothing is retried or started, however often the threads are
        // woken: no event, no file, the requests left where they were.
        let stays_parked = |env: &FaultEnv, db: &Db| {
            // (A flush that committed before the failure ends its log sweep.)
            await_state(db, |state| state.bg_jobs == 0);
            let mut state = db.inner.state.lock();
            if db.inner.view().imm.is_none() {
                db.inner.switch_memtable(&mut state).unwrap();
            }
            state.manual = Some((0, Vec::new(), b"zzzz".to_vec()));
            drop(state);
            db.events();
            let (before, emitted) = (files(env), db.metrics().events_emitted);
            for _ in 0..50 {
                db.inner.work_cv.notify_all();
                db.inner.flush_cv.notify_all();
                std::thread::yield_now();
            }
            assert_eq!(position(&db.events(), begins), None);
            assert_eq!(db.metrics().events_emitted, emitted);
            assert_eq!(files(env), before);
            assert!(db.inner.state.lock().manual.is_some() && db.inner.view().imm.is_some());
        };

        // The compaction fails: its inputs cannot be read.
        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        flush_run(&db, 0..100, &[b'a'; 100]);
        db.put(b"k", b"v").unwrap();
        arm(&env, "eio:read:glob=*.sst:nth=0");
        let generation = request_l0_compaction(&db);
        await_state(&db, |state| state.manual_done != generation);
        let err = db.compact_until_quiet().unwrap_err();
        assert!(matches!(err, bolt_common::Error::Io(_)), "{err:?}");
        assert_eq!(db.put(b"k", b"v").unwrap_err(), err);
        stays_parked(&env, &db);
        assert_eq!(db.close().unwrap_err(), err);

        // The flush fails while a compaction is mid-merge, and then the
        // compaction fails too: the first error wins.
        let env = Arc::new(FaultEnv::over_mem());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", manual_opts()).unwrap();
        let (_, gate) = compaction_held_mid_merge(&env, &db);
        db.put(b"k", b"v").unwrap();
        arm(&env, "eio:create:glob=*.sst:nth=0");
        let err = db.flush().unwrap_err();
        assert!(
            err.to_string().contains("injected EIO at create"),
            "{err:?}"
        );
        // (The parked read goes on against this clause once released.)
        arm(&env, "eio:read:glob=*.sst:nth=0");
        drop(gate);
        await_state(&db, |state| state.bg_jobs == 0);
        assert_eq!(db.compact_until_quiet().unwrap_err(), err);
        stays_parked(&env, &db);
        assert_eq!(db.close().unwrap_err(), err);
        assert!(db.bg.lock().is_empty());
    }
}
