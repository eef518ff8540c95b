//! The read path: point lookups, iterators, and value-pointer resolution.
//!
//! A read clones the current [`super::ReadView`] (memtables and version in
//! one pointer) from its thread's slot, behind the leaf lock
//! `core.view_slot`, and runs on it with no engine lock held: it takes
//! neither `core.state` nor `core.versions`, so it never waits behind a
//! MANIFEST sync or a garbage-collection pass. A `get` borrows the metadata
//! of the tables it probes from the view, looks each up through its
//! thread's stripe of the table cache ([`bolt_table::TableCache::get`]),
//! and charges wasted seeks by sampling, so two readers on different slots
//! that hit in their stripes share no line the engine writes. This module
//! owns the `snapshots` list of [`super::DbState`] (compaction only reads
//! it) and files seek-compaction candidates for the compaction thread —
//! the only two things it takes `core.state` for.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bolt_common::Result;
use bolt_table::ikey::SequenceNumber;
use bolt_table::rangedel::{RangeTombstone, RangeTombstoneSet};
use bolt_table::InternalKeyComparator;

use super::{Db, DbInner, DbIterator, Snapshot};
use crate::iterator::{DbIter, InternalIterator, MergingIter, RunIter, ValueResolver};
use crate::memtable::LookupResult;
use crate::options::ReadOptions;
use crate::version::TableMeta;
use crate::vlog::{self, ValuePointer};

/// A thread charges every this-many-th wasted seek, this many seeks' worth.
const SEEK_SAMPLE: u32 = 16;

impl Db {
    /// Point lookup at the latest sequence — shorthand for
    /// [`Db::get_opt`] with [`ReadOptions::default`].
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_opt(key, &ReadOptions::new())
    }

    /// Point lookup honoring `opts` — the one read entry point everything
    /// else delegates to.
    ///
    /// ```
    /// use bolt_core::{Db, Options, ReadOptions};
    /// use bolt_env::MemEnv;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> bolt_common::Result<()> {
    /// let env: Arc<dyn bolt_env::Env> = Arc::new(MemEnv::new());
    /// let db = Db::open(env, "ro-demo", Options::bolt())?;
    /// db.put(b"k", b"v1")?;
    /// let snap = db.snapshot();
    /// db.put(b"k", b"v2")?;
    /// let ro = ReadOptions::new().with_snapshot(&snap);
    /// assert_eq!(db.get_opt(b"k", &ro)?, Some(b"v1".to_vec()));
    /// assert_eq!(db.get(b"k")?, Some(b"v2".to_vec()));
    /// db.close()?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn get_opt(&self, key: &[u8], opts: &ReadOptions<'_>) -> Result<Option<Vec<u8>>> {
        self.inner.get_at(key, opts.snapshot.map(|s| s.seq))
    }

    /// Take a consistent read view.
    pub fn snapshot(&self) -> Snapshot {
        let mut state = self.inner.state.lock();
        // Read and registered in one `core.state` critical section; see the
        // capture-order note on `DbInner::get_at`.
        let seq = self.inner.last_sequence.load(Ordering::Acquire);
        state.snapshots.push(seq);
        Snapshot {
            seq,
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Iterator over the live keys at the latest sequence — shorthand for
    /// [`Db::iter_opt`] with [`ReadOptions::default`].
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn iter(&self) -> Result<DbIterator> {
        self.iter_opt(&ReadOptions::new())
    }

    /// Iterator honoring `opts` (see [`Db::get_opt`]).
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn iter_opt(&self, opts: &ReadOptions<'_>) -> Result<DbIterator> {
        DbInner::iter_at(&self.inner, opts.snapshot.map(|s| s.seq))
    }
}

impl ValueResolver for DbInner {
    fn resolve(&self, pointer: &[u8]) -> Result<Vec<u8>> {
        self.resolve_pointer(pointer)
    }
}

impl DbInner {
    /// Read at `snapshot`, or at the freshest consistent point when `None`.
    ///
    /// Capture order matters: the view first, then (for snapshot-less
    /// reads) the sequence. A sequence captured *before* the version is
    /// pinned could be older than the `smallest_snapshot` of a
    /// concurrently committing compaction, which is allowed to drop entry
    /// versions that such a reader still needs. Explicit [`Snapshot`]s are
    /// registered and respected by compaction instead — which holds only
    /// because [`Db::snapshot`] reads the sequence *inside* the `core.state`
    /// critical section that registers it, the same lock `run_compaction`
    /// computes `smallest_snapshot` under. A sequence read before taking
    /// the lock is, for a moment, a snapshot no compaction can see: one
    /// that starts in that gap drops the very version it is about to pin.
    fn get_at(&self, user_key: &[u8], snapshot: Option<SequenceNumber>) -> Result<Option<Vec<u8>>> {
        let view = self.view();
        let version = &view.version;
        let snapshot = snapshot.unwrap_or_else(|| self.last_sequence.load(Ordering::Acquire));
        // Newest range tombstone covering this key, across every source.
        // The first point hit below is the *newest* point entry visible at
        // the snapshot (sources are probed newest-first and each source
        // yields descending sequences), so comparing only that hit against
        // the covering sequence applies every tombstone correctly.
        let mut covering = 0;
        for memtable in view.memtables() {
            covering = covering.max(memtable.max_range_del_seq(user_key, snapshot));
        }
        if version.has_range_tombstones() {
            covering = covering.max(
                version
                    .range_tombstones(&self.table_cache, &self.name)?
                    .max_covering_seq(user_key, snapshot),
            );
        }
        // `Some(outcome)` ends the lookup at this source; `None` means the
        // source holds no entry for the key and the next one is probed.
        type Outcome = Option<Option<Vec<u8>>>;
        let probe = |(found, seq): (LookupResult, SequenceNumber)| -> Result<Outcome> {
            Ok(match found {
                LookupResult::NotFound => None,
                LookupResult::Deleted => Some(None),
                _ if seq < covering => Some(None),
                LookupResult::Value(v) => Some(Some(v)),
                LookupResult::Pointer(p) => Some(Some(self.resolve_pointer(&p)?)),
            })
        };
        for source in view.memtables() {
            if let Some(outcome) = probe(source.get_with_seq(user_key, snapshot))? {
                return Ok(outcome);
            }
        }
        let got = version.get(&self.table_cache, &self.name, user_key, snapshot)?;
        if let Some((level, table)) = got.seek_charge.filter(|_| self.opts.seek_compaction) {
            self.charge_seek(level, table);
        }
        Ok(probe((got.result, got.sequence))?.flatten())
    }

    /// Charge `table` a wasted seek, by sampling: each thread counts its own
    /// wasted seeks and charges every [`SEEK_SAMPLE`]-th one that many, so a
    /// table's budget runs out after the same number of wasted seeks on
    /// average while its shared counter is written a sixteenth as often. A
    /// spent budget files the table as the seek-compaction candidate; while
    /// one is pending, nothing takes `core.state`.
    fn charge_seek(&self, level: usize, table: &Arc<TableMeta>) {
        thread_local! {
            static WASTED: Cell<u32> = const { Cell::new(0) };
        }
        let wasted = WASTED.with(|wasted| {
            let n = (wasted.get() + 1) % SEEK_SAMPLE;
            wasted.set(n);
            n
        });
        if wasted != 0 {
            return;
        }
        let charge = i64::from(SEEK_SAMPLE);
        let left = table.allowed_seeks.fetch_sub(charge, Ordering::Relaxed) - charge;
        if left > 0 || self.seek_pending.load(Ordering::Acquire) {
            return;
        }
        let mut state = self.state.lock();
        self.file_seek_candidate(&mut state, level, Arc::clone(table));
    }

    /// Fetch the value a separated entry points at.
    fn resolve_pointer(&self, pointer: &[u8]) -> Result<Vec<u8>> {
        let ptr = ValuePointer::decode(pointer)?;
        let value = vlog::read_value(&self.env, &self.name, &ptr)?;
        self.stats.record_vlog_resolve(1);
        Ok(value)
    }

    // Associated fn (not a method): the iterator needs an owned
    // `Arc<dyn ValueResolver>` clone of the handle, and `self: &Arc<Self>`
    // receivers are not stable Rust.
    fn iter_at(inner: &Arc<DbInner>, snapshot: Option<SequenceNumber>) -> Result<DbIterator> {
        let view = inner.view();
        let version = &view.version;
        // See `get_at` for why the sequence is captured after the view.
        let snapshot = snapshot.unwrap_or_else(|| inner.last_sequence.load(Ordering::Acquire));
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        for memtable in view.memtables() {
            children.push(Box::new(memtable.iter()));
        }
        for run in version.levels.iter().flat_map(|level| &level.runs) {
            children.push(Box::new(RunIter::new(
                Arc::clone(&inner.table_cache),
                Arc::clone(&inner.name),
                Arc::clone(&run.tables),
            )));
        }
        let merged = MergingIter::new(InternalKeyComparator::default(), children);
        // Always attach the resolver: the store may hold pointers written
        // under an earlier configuration even if separation is off now.
        let resolver = Arc::clone(inner) as Arc<dyn ValueResolver>;
        let mut iter = DbIter::new(merged, snapshot).with_resolver(resolver);
        // The overlay aggregates every source the iterator reads. The
        // version's cached set serves as it is unless a memtable adds to it;
        // with no tombstone anywhere the iterator carries none.
        let mut overlay = version
            .has_range_tombstones()
            .then(|| version.range_tombstones(&inner.table_cache, &inner.name))
            .transpose()?;
        let in_memory: Vec<RangeTombstone> = view
            .memtables()
            .flat_map(|memtable| memtable.range_tombstones())
            .collect();
        if !in_memory.is_empty() {
            let mut all = overlay.map_or_else(Vec::new, |set| set.raw().to_vec());
            all.extend(in_memory);
            overlay = Some(Arc::new(RangeTombstoneSet::build(all)));
        }
        if let Some(overlay) = overlay {
            iter = iter.with_tombstones(overlay);
        }
        Ok(DbIterator {
            inner: iter,
            _view: view,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;
    use bolt_common::sync::READER_SLOTS;

    /// A scan that steps onto a block key shorter than the tag gets
    /// `Corruption`, not a panic where the merge compares it.
    #[test]
    fn a_short_block_key_reached_by_a_scan_is_corruption() {
        let (_env, db) = db_with_a_short_block_key();
        let mut it = db.iter().unwrap();
        let mut walked = it.seek_to_first();
        let mut rows = 0;
        while walked.is_ok() && it.valid() {
            rows += 1;
            walked = it.next();
        }
        assert!(
            matches!(walked, Err(bolt_common::Error::Corruption(_))),
            "{walked:?}"
        );
        assert!(rows <= 1, "{rows} rows before the short key");
        assert!(!it.valid());
    }

    /// Two level-0 runs: even keys, then odd keys over the same range. A
    /// `get` of an even key probes the odd run's table first, in vain, and
    /// charges it a wasted seek; that table is returned.
    fn wasted_seek_tree(db: &Db) -> Arc<TableMeta> {
        flush_run(db, (0..200).step_by(2), b"even");
        flush_run(db, (1..200).step_by(2), b"odd");
        let version = db.current_version();
        let newest = &version.levels[0].runs[0].tables;
        assert_eq!(newest.len(), 1, "one table per run");
        Arc::clone(&newest[0])
    }

    fn even_key(n: u64) -> Vec<u8> {
        format!("key{:05}", 2 + 2 * (n % 98)).into_bytes()
    }

    #[test]
    fn snapshot_reads_are_stable() {
        let (_env, db) = mem_db(Options::leveldb());
        db.put(b"k", b"old").unwrap();
        let snap = db.snapshot();
        db.put(b"k", b"new").unwrap();
        db.delete(b"k2").unwrap();
        let ro = ReadOptions::new().with_snapshot(&snap);
        assert_eq!(db.get_opt(b"k", &ro).unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));
        drop(snap);
        db.close().unwrap();
    }

    /// `snapshot()` must read its sequence in the critical section that
    /// registers it. The writer overwrites `k` and compacts the overwrite
    /// into the table holding the previous version; a compaction that
    /// computes its drop horizon between an unregistered snapshot's read and
    /// its registration drops the version that snapshot then looks for.
    /// Two levels keep one overwrite to one flush plus one merge, so the
    /// unfixed race fired within ~700 rounds in 30 of 30 runs.
    #[test]
    fn snapshot_is_registered_before_any_compaction_can_miss_it() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let mut opts = small_opts(Options::bolt());
        opts.num_levels = 2;
        let (_env, db) = mem_db(opts);
        let version = |v: u64| format!("{v:020}").into_bytes();
        db.put(b"k", &version(0)).unwrap();
        let (attempted, acked) = (AtomicU64::new(0), AtomicU64::new(0));
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        while !done.load(Ordering::Acquire) {
                            let lo = acked.load(Ordering::Acquire);
                            let snap = db.snapshot();
                            let hi = attempted.load(Ordering::Acquire);
                            let ro = ReadOptions::new().with_snapshot(&snap);
                            let got = db
                                .get_opt(b"k", &ro)
                                .unwrap()
                                .map(|v| String::from_utf8(v).unwrap().parse::<u64>().unwrap());
                            assert!(
                                got.is_some_and(|v| lo <= v && v <= hi),
                                "snapshot read {got:?}, expected a version in [{lo}, {hi}]"
                            );
                        }
                    })
                })
                .collect();
            for v in 1..=2000u64 {
                attempted.store(v, Ordering::Release);
                db.put(b"k", &version(v)).unwrap();
                acked.store(v, Ordering::Release);
                db.compact_range(b"a", b"z").unwrap();
                if readers.iter().any(|r| r.is_finished()) {
                    break;
                }
            }
            done.store(true, Ordering::Release);
            for reader in readers {
                reader.join().expect("a snapshot read lost its version");
            }
        });
        db.close().unwrap();
    }

    /// Reads clone the view and touch neither engine lock. A gatekeeper
    /// parks on `core.versions` — where a background thread sits for a
    /// whole MANIFEST sync and GC pass — and every read entry point must
    /// still finish. Bounded wait: a reader that does block fails the test
    /// (the gate is opened either way, so the scope always joins).
    #[test]
    fn reads_do_not_wait_for_the_manifest_lock() {
        use std::sync::mpsc;
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        for i in 0..200u32 {
            db.put(format!("key{i:05}").as_bytes(), b"flushed").unwrap();
        }
        db.flush().unwrap();
        db.put(b"key00007", b"fresh").unwrap();
        let inner = &db.inner;
        std::thread::scope(|s| {
            let (gate_held, wait_held) = mpsc::channel();
            let (release, wait_release) = mpsc::channel::<()>();
            s.spawn(move || {
                let _gate = inner.versions.lock();
                gate_held.send(()).unwrap();
                let _ = wait_release.recv();
            });
            wait_held.recv().unwrap();
            let (done, wait_done) = mpsc::channel();
            let db = &db;
            s.spawn(move || {
                assert_eq!(db.get(b"key00007").unwrap(), Some(b"fresh".to_vec()));
                assert_eq!(db.get(b"key00100").unwrap(), Some(b"flushed".to_vec()));
                let mut iter = db.iter().unwrap();
                iter.seek(b"key00050").unwrap();
                for _ in 0..10 {
                    assert!(iter.valid());
                    iter.next().unwrap();
                }
                assert_eq!(iter.key(), b"key00060");
                assert!(db.current_version().num_tables() >= 1);
                assert!(db.level_info()[0].tables >= 1);
                done.send(()).unwrap();
            });
            let finished = wait_done.recv_timeout(std::time::Duration::from_secs(10));
            drop(release);
            finished.expect("a read waited for `core.versions`");
        });
        db.close().unwrap();
    }

    /// No instant at which a flushed memtable has left the view before its
    /// L0 run has entered it: under writers, forced flushes and the
    /// compactions they trigger, a key whose `put` was acknowledged is found
    /// — at that value or a newer one — by `get` and by a fresh iterator
    /// alike, every time. The run ends on work done — every reader has
    /// checked `CHECKS` keys and more than 10 flushes were forced — so a slow
    /// host only makes it longer; the deadline bounds a stuck run.
    #[test]
    fn a_flush_install_is_one_step() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        use std::time::{Duration, Instant};
        const KEYS: u64 = 64;
        const CHECKS: u64 = 200;
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        let key = |writer: usize, n: u64| format!("w{writer}-{:03}", n % KEYS).into_bytes();
        let parse = |v: &[u8]| std::str::from_utf8(v).unwrap().trim_start().parse::<u64>();
        // Per writer: every put numbered at or below this was acknowledged.
        let acked = [AtomicU64::new(0), AtomicU64::new(0)];
        let done = AtomicBool::new(false);
        // Per reader: keys checked so far.
        let checks: Vec<AtomicU64> = (0..READER_SLOTS + 2).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for (writer, acked) in acked.iter().enumerate() {
                let (db, done) = (&db, &done);
                s.spawn(move || {
                    for n in 1.. {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        // Padded so that a few hundred puts fill a memtable.
                        db.put(&key(writer, n), format!("{n:>200}").as_bytes())
                            .unwrap();
                        acked.store(n, Ordering::Release);
                    }
                });
            }
            // More readers than slots: some threads share a slot.
            let readers: Vec<_> = (checks.iter().enumerate())
                .map(|(reader, checked)| {
                    let (db, done, acked) = (&db, &done, &acked);
                    s.spawn(move || {
                        for round in 0u64.. {
                            if done.load(Ordering::Acquire) {
                                break;
                            }
                            let writer = (reader + round as usize) % 2;
                            let high = acked[writer].load(Ordering::Acquire);
                            if high == 0 {
                                continue;
                            }
                            let n = high - round % high.min(KEYS);
                            let key = key(writer, n);
                            let got = db.get(&key).unwrap().expect("get lost an acked key");
                            assert!(parse(&got).unwrap() >= n, "get went back in time");
                            let mut iter = db.iter().unwrap();
                            iter.seek(&key).unwrap();
                            assert!(iter.valid(), "iterator lost an acked key");
                            assert_eq!(iter.key(), key, "iterator lost an acked key");
                            assert!(parse(iter.value()).unwrap() >= n, "iterator went back");
                            checked.fetch_add(1, Ordering::Release);
                        }
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(60);
            let worked = || {
                db.stats().snapshot().flushes > 10
                    && checks.iter().all(|c| c.load(Ordering::Acquire) >= CHECKS)
            };
            while Instant::now() < deadline && !worked() && !readers.iter().any(|r| r.is_finished())
            {
                db.flush().unwrap();
            }
            done.store(true, Ordering::Release);
            for reader in readers {
                reader.join().expect("a read missed an acknowledged write");
            }
            for checked in &checks {
                assert!(
                    checked.load(Ordering::Acquire) >= CHECKS,
                    "a reader never ran"
                );
            }
        });
        assert!(
            db.stats().snapshot().flushes > 10,
            "flushes were not forced"
        );
        // The witness saw every install path: `core.view` is taken only to
        // rewrite the slots, and a slot lock is a leaf.
        #[cfg(feature = "debug_locks")]
        {
            let edges = bolt_common::debug_locks::recorded_edges();
            assert!(edges.iter().any(|(_, to)| to == "core.view"), "{edges:?}");
            assert!(
                edges.iter().any(|(_, to)| to == "core.view_slot"),
                "{edges:?}"
            );
            for (from, to) in &edges {
                assert!(from != "core.view" || to == "core.view_slot", "{edges:?}");
                assert!(from != "core.view_slot", "{edges:?}");
            }
        }
        db.close().unwrap();
    }

    /// A commit rewrites every view slot before it returns, so the version
    /// it replaced is held by nothing the engine keeps: once the one
    /// iterator still reading it is dropped, the version is gone.
    #[test]
    fn a_commit_leaves_no_slot_holding_the_outgoing_version() {
        let (_env, db) = mem_db(manual_opts());
        flush_run(&db, 0..100, b"old");
        flush_run(&db, 50..150, b"new");
        let slots: std::collections::HashSet<usize> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READER_SLOTS)
                .map(|_| {
                    s.spawn(|| {
                        assert_eq!(db.get(b"key00070").unwrap(), Some(b"new".to_vec()));
                        std::ptr::from_ref(db.inner.view_slot()) as usize
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(slots.len() >= 2, "the readers shared one slot");
        let outgoing = Arc::downgrade(&db.current_version());
        let pinned = db.iter().unwrap();
        db.compact_range(b"key", b"key~").unwrap();
        assert_eq!(
            db.level_info()[0].runs,
            0,
            "the commit replaced the version"
        );
        assert!(outgoing.upgrade().is_some(), "the iterator pins it");
        drop(pinned);
        assert!(
            outgoing.upgrade().is_none(),
            "a slot kept the outgoing version"
        );
        assert_eq!(db.get(b"key00070").unwrap(), Some(b"new".to_vec()));
        db.close().unwrap();
    }

    /// Wasted seeks are charged by sampling: a thread that wastes one seek
    /// after another on a table files it as the seek-compaction candidate
    /// within one sample of its budget — not before, and not much after.
    #[test]
    fn a_sampled_seek_charge_spends_the_budget_within_one_sample() {
        const BUDGET: i64 = 64;
        let (_env, db) = mem_db(manual_opts());
        let charged = wasted_seek_tree(&db);
        charged.allowed_seeks.store(BUDGET, Ordering::Relaxed);
        let filed = || {
            let state = db.inner.state.lock();
            state.seek_candidate.is_some() || db.stats().snapshot().seek_compactions > 0
        };
        // A thread of its own: its count of wasted seeks starts at zero.
        let wasted = std::thread::scope(|s| {
            s.spawn(|| {
                (1..=4 * BUDGET as u64).find(|&n| {
                    assert_eq!(db.get(&even_key(n)).unwrap(), Some(b"even".to_vec()));
                    filed()
                })
            })
            .join()
            .unwrap()
        });
        let wasted = wasted.expect("the budget was never spent") as i64;
        let sample = i64::from(SEEK_SAMPLE);
        assert!(
            BUDGET - sample < wasted && wasted < BUDGET + sample,
            "filed after {wasted} wasted seeks, budget {BUDGET}"
        );
        db.close().unwrap();
    }

    /// A spent seek budget takes `core.state` only to file a candidate, and
    /// not while one is pending: with a candidate filed and a gatekeeper
    /// parked on `core.state`, gets that keep charging the spent table still
    /// finish. Bounded wait, as in `reads_do_not_wait_for_the_manifest_lock`.
    #[test]
    fn a_spent_seek_budget_does_not_wait_for_the_engine_lock() {
        use std::sync::mpsc;
        let (_env, db) = mem_db(manual_opts());
        let charged = wasted_seek_tree(&db);
        charged.allowed_seeks.store(0, Ordering::Relaxed);
        let inner = &db.inner;
        std::thread::scope(|s| {
            let (gate_held, wait_held) = mpsc::channel();
            let (release, wait_release) = mpsc::channel::<()>();
            let candidate = Arc::clone(&charged);
            s.spawn(move || {
                let mut state = inner.state.lock();
                inner.file_seek_candidate(&mut state, 0, candidate);
                gate_held.send(()).unwrap();
                let _ = wait_release.recv();
            });
            wait_held.recv().unwrap();
            let (done, wait_done) = mpsc::channel();
            let db = &db;
            s.spawn(move || {
                for n in 0..4 * u64::from(SEEK_SAMPLE) {
                    assert_eq!(db.get(&even_key(n)).unwrap(), Some(b"even".to_vec()));
                }
                done.send(()).unwrap();
            });
            let finished = wait_done.recv_timeout(std::time::Duration::from_secs(10));
            drop(release);
            finished.expect("a get on a spent table waited for `core.state`");
        });
        assert!(
            charged.allowed_seeks.load(Ordering::Relaxed) < 0,
            "the gets charged it"
        );
        db.close().unwrap();
    }

    /// An iterator takes each run by its shared list: a hundred of them
    /// leave every reference count of the tree where it was, and one that
    /// outlives its version keeps scanning the tables it pinned.
    #[test]
    fn iterators_share_run_lists_and_pin_their_version() {
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        let key = |i: u32| format!("key{i:05}").into_bytes();
        for round in 0..4u32 {
            for i in (round..2000).step_by(4) {
                db.put(&key(i), b"old").unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_until_quiet().unwrap();
        let version = db.current_version();
        let deep = version.levels.iter().rev().find(|l| l.num_tables() > 1);
        let list = &deep.expect("a deep level").runs[0].tables;
        let table = &list[list.len() / 2];
        let counts = || (Arc::strong_count(list), Arc::strong_count(table));
        let before = counts();
        for _ in 0..100 {
            let mut iter = db.iter().unwrap();
            assert_eq!(counts(), (before.0 + 1, before.1), "the list, not a copy");
            iter.seek(&key(1000)).unwrap();
            assert_eq!(iter.key(), key(1000));
        }
        assert_eq!(counts(), before);

        // From here on only `pinned` holds the version.
        let mut pinned = db.iter().unwrap();
        let pinned_version = Arc::as_ptr(&version);
        drop(version);
        for i in 0..2000 {
            db.put(&key(i), b"new").unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        assert_eq!(db.get(&key(7)).unwrap(), Some(b"new".to_vec()));
        assert_ne!(pinned_version, Arc::as_ptr(&db.current_version()));
        pinned.seek_to_first().unwrap();
        for i in 0..2000 {
            assert_eq!((pinned.key(), pinned.value()), (&key(i)[..], &b"old"[..]));
            pinned.next().unwrap();
        }
        assert!(!pinned.valid());
        drop(pinned);
        db.close().unwrap();
    }

    #[test]
    fn scan_returns_sorted_live_keys() {
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        for i in (0..300u32).rev() {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.delete(b"key00100").unwrap();
        db.flush().unwrap();
        for i in 300..400u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let mut iter = db.iter().unwrap();
        iter.seek(b"key00050").unwrap();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while iter.valid() {
            let key = iter.key().to_vec();
            assert_ne!(key, b"key00100".to_vec(), "deleted key must not appear");
            if let Some(p) = &prev {
                assert!(*p < key);
            }
            prev = Some(key);
            count += 1;
            iter.next().unwrap();
        }
        assert_eq!(count, 400 - 50 - 1);
        db.close().unwrap();
    }

    #[test]
    fn separated_values_roundtrip_all_read_paths() {
        let (env, db) = mem_db(sep_opts(128));
        for i in 0..32u32 {
            db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
            db.put(format!("small{i:03}").as_bytes(), b"tiny").unwrap();
        }
        // Memtable hits resolve pointers.
        assert_eq!(db.get(b"big003").unwrap(), Some(big(3)));
        assert_eq!(db.get(b"small003").unwrap(), Some(b"tiny".to_vec()));
        let snap = db.snapshot();
        db.put(b"big003", &vec![b'z'; 2048]).unwrap();
        db.flush().unwrap();
        // SSTable hits resolve pointers; the snapshot still sees the old
        // separated value.
        assert_eq!(db.get(b"big003").unwrap(), Some(vec![b'z'; 2048]));
        let ro = ReadOptions::new().with_snapshot(&snap);
        assert_eq!(db.get_opt(b"big003", &ro).unwrap(), Some(big(3)));
        drop(snap);
        // Iterators resolve pointers to the full value bytes.
        let mut iter = db.iter().unwrap();
        iter.seek_to_first().unwrap();
        let mut bigs = 0;
        while iter.valid() {
            if iter.key().starts_with(b"big") {
                assert!(iter.value().len() >= 1024, "iterator leaked a pointer");
                bigs += 1;
            } else {
                assert_eq!(iter.value(), b"tiny");
            }
            iter.next().unwrap();
        }
        assert_eq!(bigs, 32);
        let stats = db.stats().snapshot();
        assert!(stats.vlog_values_separated >= 33, "{stats:?}");
        assert!(stats.vlog_resolves >= 34, "{stats:?}");
        // Separated payloads stay out of flush write amplification: 32 KiB
        // of big values cannot fit in the flushed table bytes.
        assert!(stats.flush_bytes < 16 << 10, "{stats:?}");
        let _ = env;
        db.close().unwrap();
    }
}
