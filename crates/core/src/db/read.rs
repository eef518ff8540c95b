//! The read path: point lookups, iterators, and value-pointer resolution.
//!
//! A read clones the current [`super::ReadView`] (memtables and version in
//! one pointer, behind the leaf lock `core.view`) and runs on it with no
//! lock held: it takes neither `core.state` nor `core.versions`, so it never
//! waits behind a MANIFEST sync or a garbage-collection pass. This module
//! owns the `snapshots` list of [`super::DbState`] (compaction only reads
//! it) and files seek-compaction candidates for the compaction thread —
//! the only two things it takes `core.state` for.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bolt_common::Result;
use bolt_table::ikey::SequenceNumber;
use bolt_table::rangedel::{RangeTombstone, RangeTombstoneSet};

use super::{Db, DbInner, DbIterator, Snapshot};
use crate::iterator::{DbIter, InternalIterator, MergingIter, RunIter, ValueResolver};
use crate::memtable::LookupResult;
use crate::options::ReadOptions;
use crate::vlog::{self, ValuePointer};

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
        let got = version.get(
            &self.icmp,
            &self.table_cache,
            &self.name,
            user_key,
            snapshot,
        )?;
        if self.opts.seek_compaction {
            if let Some((level, table)) = got.seek_charge {
                if table.allowed_seeks.fetch_sub(1, Ordering::Relaxed) <= 1 {
                    let mut state = self.state.lock();
                    if state.seek_candidate.is_none() {
                        state.seek_candidate = Some((level, table));
                        self.work_cv.notify_one();
                    }
                }
            }
        }
        Ok(probe((got.result, got.sequence))?.flatten())
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
                inner.icmp.clone(),
                Arc::clone(&inner.table_cache),
                Arc::clone(&inner.name),
                Arc::clone(&run.tables),
            )));
        }
        let merged = MergingIter::new(inner.icmp.clone(), children);
        // Always attach the resolver: the store may hold pointers written
        // under an earlier configuration even if separation is off now.
        let resolver = Arc::clone(inner) as Arc<dyn ValueResolver>;
        let mut iter = DbIter::new(inner.icmp.clone(), merged, snapshot).with_resolver(resolver);
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
    /// alike, every time.
    #[test]
    fn a_flush_install_is_one_step() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        use std::time::{Duration, Instant};
        const KEYS: u64 = 64;
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        let key = |writer: usize, n: u64| format!("w{writer}-{:03}", n % KEYS).into_bytes();
        let parse = |v: &[u8]| std::str::from_utf8(v).unwrap().trim_start().parse::<u64>();
        // Per writer: every put numbered at or below this was acknowledged.
        let acked = [AtomicU64::new(0), AtomicU64::new(0)];
        let done = AtomicBool::new(false);
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
            let readers: Vec<_> = (0..2usize)
                .map(|reader| {
                    let (db, done, acked) = (&db, &done, &acked);
                    s.spawn(move || {
                        let mut checked = 0u64;
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
                            checked += 1;
                        }
                        checked
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(1);
            while Instant::now() < deadline && !readers.iter().any(|r| r.is_finished()) {
                db.flush().unwrap();
            }
            done.store(true, Ordering::Release);
            for reader in readers {
                let checked = reader.join().expect("a read missed an acknowledged write");
                assert!(checked > 0, "a reader never ran");
            }
        });
        assert!(
            db.stats().snapshot().flushes > 10,
            "flushes were not forced"
        );
        // The witness saw every install path; `core.view` must be a leaf.
        #[cfg(feature = "debug_locks")]
        {
            let edges = bolt_common::debug_locks::recorded_edges();
            assert!(edges.iter().any(|(_, to)| to == "core.view"), "{edges:?}");
            assert!(
                edges.iter().all(|(from, _)| from != "core.view"),
                "{edges:?}"
            );
        }
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
