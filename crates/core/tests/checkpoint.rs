//! Online checkpoints: a `Db::checkpoint(dir)` call must produce an
//! independently openable copy equal to the pinned snapshot, stay intact
//! while the source database keeps compacting and garbage-collecting
//! (shared inodes must never be hole-punched), and degrade to ignorable
//! garbage if the process dies before CURRENT lands.

use std::sync::Arc;

use bolt_core::{Db, Options};
use bolt_env::{CrashConfig, Env, FaultEnv, FaultPlan, MemEnv};

fn opts() -> Options {
    Options::bolt().scaled(1.0 / 256.0)
}

fn scan(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let mut it = db.iter().unwrap();
    it.seek_to_first().unwrap();
    while it.valid() {
        out.push((it.key().to_vec(), it.value().to_vec()));
        it.next().unwrap();
    }
    out
}

#[test]
fn checkpoint_rejects_bad_targets() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    assert!(db.checkpoint("").unwrap_err().is_invalid_argument());
    assert!(db.checkpoint("db").unwrap_err().is_invalid_argument());
    db.close().unwrap();
}

#[test]
fn checkpoint_opens_and_equals_snapshot() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    for i in 0..400u32 {
        db.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    // Leave some writes in the memtable so the checkpoint has to flush.
    let seq = db.checkpoint("ckpt").unwrap();
    assert_eq!(
        seq,
        db.snapshot().sequence(),
        "quiescent: everything acked is pinned"
    );
    let want = scan(&db);
    // What the MANIFEST records of each table, tail length included.
    let tables = |db: &Db| -> Vec<(u64, u64, u64)> {
        let version = db.current_version();
        let tables = version.all_tables();
        tables
            .map(|(_, _, t)| (t.table_id, t.size, t.tail_bytes))
            .collect()
    };
    let recorded = tables(&db);
    assert!(!recorded.is_empty() && recorded.iter().all(|t| t.2 > 0));
    db.close().unwrap();

    let copy = Db::open(Arc::clone(&env), "ckpt", opts()).unwrap();
    assert_eq!(scan(&copy), want);
    // The copy's MANIFEST carries the same records, so its opens cost the
    // same one read each.
    assert_eq!(tables(&copy), recorded);
    let tc = copy.metrics().table_cache;
    assert_eq!((tc.opens, tc.open_reads), (recorded.len() as u64, tc.opens));
    // The checkpoint is a real database: it accepts writes of its own.
    copy.put(b"zzz-new", b"1").unwrap();
    assert_eq!(copy.get(b"zzz-new").unwrap(), Some(b"1".to_vec()));
    copy.close().unwrap();
}

#[test]
fn checkpoint_is_isolated_from_future_writes() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    for i in 0..300u32 {
        db.put(format!("k{i:05}").as_bytes(), b"before").unwrap();
    }
    db.checkpoint("ckpt").unwrap();
    let want = scan(&db);

    // Mutate the source heavily after the checkpoint: overwrites, point
    // and range deletes, then compaction to rewrite the physical files.
    for i in 0..300u32 {
        db.put(format!("k{i:05}").as_bytes(), b"after").unwrap();
    }
    db.delete_range(b"k00100", b"k00200").unwrap();
    db.flush().unwrap();
    db.compact_until_quiet().unwrap();
    db.close().unwrap();

    let copy = Db::open(Arc::clone(&env), "ckpt", opts()).unwrap();
    assert_eq!(scan(&copy), want, "checkpoint saw post-pin mutations");
    copy.close().unwrap();
}

/// Regression: table and value-log files hard-linked into a checkpoint
/// share their inode with the source database. Source-side garbage
/// collection (hole punching of dead regions) must skip those files
/// forever, or the checkpoint silently loses bytes.
#[test]
fn checkpoint_survives_source_compaction_and_gc() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut o = opts();
    o.value_separation_threshold = Some(64); // big values go to the vlog
    let db = Db::open(Arc::clone(&env), "db", o.clone()).unwrap();
    let big = vec![0xabu8; 512];
    for i in 0..200u32 {
        db.put(format!("k{i:05}").as_bytes(), &big).unwrap();
    }
    db.flush().unwrap();
    db.checkpoint("ckpt").unwrap();
    let want = scan(&db);

    // Kill every other key so each value-log segment is partially (not
    // fully) dead — the shape that gets hole-punched rather than retired
    // whole — and compact; a final flush+compact round runs GC with no old
    // readers so queued punches actually execute. Without the punch gate
    // this punches dead regions through the shared inodes.
    for i in (0..200u32).step_by(2) {
        db.delete(format!("k{i:05}").as_bytes()).unwrap();
    }
    db.compact_range(b"k00000", b"k99999").unwrap();
    db.put(b"zzz", b"tail").unwrap();
    db.flush().unwrap();
    db.compact_until_quiet().unwrap();
    db.close().unwrap();

    let copy = Db::open(Arc::clone(&env), "ckpt", o).unwrap();
    assert_eq!(scan(&copy), want, "source GC corrupted the checkpoint");
    copy.close().unwrap();
}

/// Regression: the punch-suppression set is in-memory only, so after the
/// source database is closed and reopened, only the shared inode's link
/// count tells the new process that a checkpoint still references its
/// files. Without that gate, post-restart GC punches holes straight
/// through the checkpoint's tables and value-log segments.
#[test]
fn checkpoint_survives_source_gc_after_reopen() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut o = opts();
    o.value_separation_threshold = Some(64);
    let db = Db::open(Arc::clone(&env), "db", o.clone()).unwrap();
    let big = vec![0xabu8; 512];
    for i in 0..200u32 {
        db.put(format!("k{i:05}").as_bytes(), &big).unwrap();
    }
    db.flush().unwrap();
    db.checkpoint("ckpt").unwrap();
    let want = scan(&db);
    db.close().unwrap();

    // A fresh process has no memory of the checkpoint. Kill every *other*
    // key and compact: each value-log segment is now about half dead —
    // exactly the partial-death shape that gets hole-punched rather than
    // retired whole (whole-file retirement only unlinks this database's
    // name and is always checkpoint-safe).
    let db = Db::open(Arc::clone(&env), "db", o.clone()).unwrap();
    for i in (0..200u32).step_by(2) {
        db.delete(format!("k{i:05}").as_bytes()).unwrap();
    }
    db.compact_range(b"k00000", b"k99999").unwrap();
    // Punching is deferred while the compactions above hold old versions;
    // one more flush+compact round runs a GC pass with no old readers, so
    // the queued dead ranges actually reach the hole puncher.
    db.put(b"zzz", b"tail").unwrap();
    db.flush().unwrap();
    db.compact_until_quiet().unwrap();
    db.close().unwrap();

    let copy = Db::open(Arc::clone(&env), "ckpt", o).unwrap();
    assert_eq!(
        scan(&copy),
        want,
        "post-restart GC corrupted the checkpoint"
    );
    copy.close().unwrap();
}

#[test]
fn checkpoint_carries_range_tombstones() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    for i in 0..200u32 {
        db.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
    }
    db.delete_range(b"k00050", b"k00150").unwrap();
    db.checkpoint("ckpt").unwrap();
    let want = scan(&db);
    db.close().unwrap();

    let copy = Db::open(Arc::clone(&env), "ckpt", opts()).unwrap();
    assert_eq!(scan(&copy), want);
    assert_eq!(copy.get(b"k00100").unwrap(), None);
    assert_eq!(copy.get(b"k00049").unwrap(), Some(b"v".to_vec()));
    copy.close().unwrap();
}

/// The pinned snapshot is a *write prefix*: under concurrent writers each
/// thread's acknowledged writes appear in the checkpoint up to some point
/// with no gaps, and nothing issued after the returned sequence leaks in.
#[test]
fn checkpoint_under_concurrent_writers_is_a_write_prefix() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Arc::new(Db::open(Arc::clone(&env), "db", opts()).unwrap());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..3u32 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                db.put(
                    format!("t{t}-{i:06}").as_bytes(),
                    format!("{t}:{i}").as_bytes(),
                )
                .unwrap();
                i += 1;
            }
            i
        }));
    }
    // Let the writers build up some state, then checkpoint mid-flight.
    while db.snapshot().sequence() < 500 {
        std::thread::yield_now();
    }
    db.checkpoint("ckpt").unwrap();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let written: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    db.close().unwrap();

    let copy = Db::open(Arc::clone(&env), "ckpt", opts()).unwrap();
    let entries = scan(&copy);
    assert!(!entries.is_empty(), "checkpoint captured nothing");
    // Per-thread prefix check: if t-i is present, every t-j with j < i is.
    let mut max_seen = [None::<u32>; 3];
    let mut count = [0u32; 3];
    for (k, v) in &entries {
        let k = std::str::from_utf8(k).unwrap();
        let (t, i) = k[1..].split_once('-').unwrap();
        let (t, i): (usize, u32) = (t.parse().unwrap(), i.parse().unwrap());
        assert_eq!(v, format!("{t}:{i}").as_bytes(), "torn value");
        max_seen[t] = Some(max_seen[t].map_or(i, |m| m.max(i)));
        count[t] += 1;
    }
    for t in 0..3 {
        if let Some(max) = max_seen[t] {
            assert_eq!(count[t], max + 1, "gap in thread {t}'s write prefix");
            assert!(max < written[t], "checkpoint holds unwritten key");
        }
    }
    copy.close().unwrap();
}

/// A crash before CURRENT lands leaves the checkpoint directory as
/// ignorable garbage — no CURRENT file — and the source database reopens
/// with all of its data (invariant C1's negative half).
#[test]
fn crash_mid_checkpoint_leaves_ignorable_garbage() {
    let plans = [
        "crash:link:glob=ckpt/*:nth=0",             // first table link
        "crash:link:glob=ckpt/*:nth=1",             // a later link
        "crash:create:glob=ckpt/MANIFEST-*:nth=0",  // manifest creation
        "crash:sync:glob=ckpt/CURRENT.tmp:nth=0",   // CURRENT staged, unsynced
        "crash:rename:glob=ckpt/CURRENT.tmp:nth=0", // the publishing rename
    ];
    for plan in plans {
        let env = FaultEnv::over_mem();
        let shared: Arc<dyn Env> = Arc::new(env.clone());
        let db = Db::open(Arc::clone(&shared), "db", opts()).unwrap();
        for i in 0..300u32 {
            db.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        env.set_plan(FaultPlan::parse(plan).expect("static plan"));
        let err = db.checkpoint("ckpt");
        assert!(err.is_err(), "plan `{plan}` should have killed checkpoint");
        std::mem::forget(db); // simulate a hard kill without Drop
        env.crash_inner(CrashConfig::Clean);
        env.reset();

        // The half-built directory has no CURRENT: not a database.
        assert!(
            !env.file_exists("ckpt/CURRENT"),
            "plan `{plan}`: crashed checkpoint acquired a CURRENT"
        );
        // The source survives untouched.
        let db = Db::open(Arc::clone(&shared), "db", opts()).unwrap();
        assert_eq!(db.get(b"k00000").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.get(b"k00299").unwrap(), Some(b"v".to_vec()));
        db.close().unwrap();
    }
}
