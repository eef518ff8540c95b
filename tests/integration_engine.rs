//! Cross-crate integration tests: the full engine driven through the
//! public `bolt` facade, across all system profiles.

use std::collections::BTreeMap;
use std::sync::Arc;

use bolt::{Db, Error, Options};
use bolt_env::{Env, MemEnv};

fn profiles() -> impl Iterator<Item = (&'static str, Options)> {
    Options::PROFILE_NAMES
        .into_iter()
        .map(|name| (name, Options::profile(name).unwrap()))
}

fn tiny(opts: Options) -> Options {
    // Scale to exercise several levels with a few thousand keys.
    opts.scaled(1.0 / 256.0)
}

/// Reference-model check: a workload of puts/deletes/overwrites compared
/// against a BTreeMap, through flushes and compactions, for every profile.
#[test]
fn every_profile_matches_reference_model() {
    for (name, opts) in profiles() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", tiny(opts)).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut rng = bolt_common::rng::Rng64::new(0xfeed);

        for round in 0..4 {
            for _ in 0..1500 {
                let k = format!("key{:05}", rng.next_below(800)).into_bytes();
                if rng.next_below(5) == 0 {
                    db.delete(&k).unwrap();
                    model.remove(&k);
                } else {
                    let v = format!("v{}", rng.next_u64()).into_bytes();
                    db.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
            }
            db.flush().unwrap();
            if round % 2 == 1 {
                db.compact_until_quiet().unwrap();
            }
            // Point lookups.
            for i in 0..800u32 {
                let k = format!("key{i:05}").into_bytes();
                assert_eq!(
                    db.get(&k).unwrap(),
                    model.get(&k).cloned(),
                    "profile {name}, round {round}, key {i}"
                );
            }
            // Full scan must equal the model exactly.
            let mut iter = db.iter().unwrap();
            iter.seek_to_first().unwrap();
            let mut scanned = Vec::new();
            while iter.valid() {
                scanned.push((iter.key().to_vec(), iter.value().to_vec()));
                iter.next().unwrap();
            }
            let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(scanned, expected, "profile {name}, round {round} scan");
        }
        db.close().unwrap();
    }
}

/// Crash the database at arbitrary points and verify durability of synced
/// data for the BoLT profile (compaction files + hole punching must never
/// lose committed state).
#[test]
fn bolt_crash_recovery_loop() {
    let mem_env = Arc::new(MemEnv::new());
    let env: Arc<dyn Env> = Arc::clone(&mem_env) as Arc<dyn Env>;
    let opts = tiny(Options::bolt());
    let mut durable: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for epoch in 0..6u64 {
        let db = Db::open(Arc::clone(&env), "db", opts.clone()).unwrap();
        for (k, v) in &durable {
            assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "epoch {epoch}");
        }
        for i in 0..800u64 {
            let k = format!("e{epoch}-k{i:04}").into_bytes();
            let v = format!("value-{epoch}-{i}").into_bytes();
            db.put(&k, &v).unwrap();
            durable.insert(k, v);
        }
        db.flush().unwrap();
        // Unsynced writes that may be lost.
        for i in 0..200u64 {
            db.put(format!("volatile-{epoch}-{i}").as_bytes(), b"x")
                .unwrap();
        }
        drop(db);
        mem_env.crash(bolt_env::CrashConfig::TornTail { seed: epoch });
    }

    let db = Db::open(env, "db", opts).unwrap();
    for (k, v) in &durable {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
    }
    db.close().unwrap();
}

/// The headline barrier claim: a BoLT compaction costs exactly two
/// barriers (compaction file + MANIFEST) regardless of output count.
#[test]
fn bolt_flush_costs_two_barriers() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", Options::bolt().scaled(1.0 / 64.0)).unwrap();
    for i in 0..1000u32 {
        db.put(format!("key{i:06}").as_bytes(), &[b'v'; 200])
            .unwrap();
    }
    // Drain any automatic flushes, then stage fresh data below the
    // memtable limit so the measured flush is the only one.
    db.flush().unwrap();
    db.compact_until_quiet().unwrap();
    for i in 0..150u32 {
        db.put(format!("fresh{i:06}").as_bytes(), &[b'w'; 200])
            .unwrap();
    }
    let before = env.stats().fsync_calls();
    db.flush().unwrap();
    let cost = env.stats().fsync_calls() - before;
    assert_eq!(
        cost, 2,
        "flush must cost compaction-file + MANIFEST barriers"
    );
    // And it produced multiple logical SSTables inside one physical file.
    let version = db.current_version();
    let fresh: Vec<_> = version.levels[0]
        .tables()
        .filter(|t| t.smallest_user_key().starts_with(b"fresh"))
        .collect();
    assert!(
        fresh.len() > 1,
        "expected several logical SSTables, got {}",
        fresh.len()
    );
    let files: std::collections::HashSet<u64> = fresh.iter().map(|t| t.file_number).collect();
    assert_eq!(
        files.len(),
        1,
        "all logical SSTables share one compaction file"
    );
    db.close().unwrap();
}

/// Stock LevelDB pays one barrier per output SSTable during compaction;
/// BoLT pays two per compaction. Verify the relative fsync ordering over a
/// compaction-heavy load.
#[test]
fn barrier_counts_order_leveldb_gt_bolt() {
    let run = |opts: Options| {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", opts.scaled(1.0 / 256.0)).unwrap();
        for i in 0..6000u32 {
            db.put(format!("key{i:06}").as_bytes(), &[b'v'; 120])
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        let count = env.stats().fsync_calls();
        db.close().unwrap();
        count
    };
    let leveldb = run(Options::leveldb());
    let bolt = run(Options::bolt());
    assert!(
        bolt * 2 <= leveldb,
        "expected BoLT ({bolt}) << LevelDB ({leveldb})"
    );
}

/// Settled compaction must not change any physical bytes: promoted tables
/// keep their (file, offset, size).
#[test]
fn settled_moves_preserve_physical_location() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut opts = Options::bolt().scaled(1.0 / 256.0);
    opts.level0_compaction_trigger = 2;
    let db = Db::open(Arc::clone(&env), "db", opts).unwrap();

    // Disjoint ranges per round force zero-overlap victims.
    for round in 0..10u32 {
        for i in 0..400u32 {
            db.put(
                format!("r{:02}key{i:05}", round % 5).as_bytes(),
                &[b'z'; 100],
            )
            .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_until_quiet().unwrap();
    assert!(
        db.stats().settled_moves() > 0,
        "no settled moves happened: {:?}",
        db.stats()
    );

    // Deeper-level tables that settled must point into still-existing
    // compaction files at valid offsets, and reads must work.
    let version = db.current_version();
    for (level, _, table) in version.all_tables() {
        let path = format!("db/{:06}.sst", table.file_number);
        let size = env
            .file_size(&path)
            .unwrap_or_else(|_| panic!("level {level} table {} file missing", table.table_id));
        assert!(
            table.offset + table.size <= size,
            "table {} out of bounds",
            table.table_id
        );
    }
    for round in 0..5u32 {
        for i in (0..400u32).step_by(97) {
            assert!(
                db.get(format!("r{round:02}key{i:05}").as_bytes())
                    .unwrap()
                    .is_some(),
                "round {round} key {i}"
            );
        }
    }
    db.close().unwrap();
}

/// Hole punching reclaims dead logical SSTables without breaking live ones
/// in the same compaction file.
#[test]
fn hole_punching_never_corrupts_live_tables() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", Options::bolt().scaled(1.0 / 256.0)).unwrap();
    let mut rng = bolt_common::rng::Rng64::new(17);
    // Overwrite-heavy workload: compactions constantly invalidate logical
    // SSTables, punching holes in shared compaction files.
    for _ in 0..20_000 {
        let k = format!("key{:05}", rng.next_below(2_000)).into_bytes();
        db.put(&k, &[b'h'; 100]).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_quiet().unwrap();
    let io = env.stats().snapshot();
    assert!(
        io.holes_punched > 0 || io.files_deleted > 0,
        "expected space reclamation (holes punched or dead files deleted): {io:?}"
    );
    for i in 0..2_000u32 {
        let k = format!("key{i:05}");
        assert_eq!(db.get(k.as_bytes()).unwrap(), Some(vec![b'h'; 100]), "{k}");
    }
    db.close().unwrap();
}

/// Snapshots must stay consistent across flushes and compactions.
#[test]
fn snapshots_survive_compactions() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", Options::bolt().scaled(1.0 / 256.0)).unwrap();
    for i in 0..500u32 {
        db.put(format!("key{i:04}").as_bytes(), b"before").unwrap();
    }
    let snap = db.snapshot();
    for round in 0..4u32 {
        for i in 0..500u32 {
            db.put(
                format!("key{i:04}").as_bytes(),
                format!("after-{round}").as_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
    }
    db.compact_until_quiet().unwrap();
    let at_snap = bolt::ReadOptions::new().with_snapshot(&snap);
    for i in (0..500u32).step_by(41) {
        let k = format!("key{i:04}");
        assert_eq!(
            db.get_opt(k.as_bytes(), &at_snap).unwrap(),
            Some(b"before".to_vec()),
            "snapshot read {k}"
        );
        assert_eq!(
            db.get(k.as_bytes()).unwrap(),
            Some(b"after-3".to_vec()),
            "latest read {k}"
        );
    }
    drop(snap);
    db.close().unwrap();
}

/// Reopen a database under a different (compatible) profile: the on-disk
/// format is shared, so a LevelDB-written store must open under BoLT and
/// vice versa.
#[test]
fn cross_profile_reopen() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    {
        let db = Db::open(
            Arc::clone(&env),
            "db",
            Options::leveldb().scaled(1.0 / 256.0),
        )
        .unwrap();
        for i in 0..2000u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        db.close().unwrap();
    }
    {
        let db = Db::open(Arc::clone(&env), "db", Options::bolt().scaled(1.0 / 256.0)).unwrap();
        assert_eq!(db.get(b"key00042").unwrap(), Some(b"v42".to_vec()));
        for i in 2000..3000u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        assert_eq!(db.get(b"key02500").unwrap(), Some(b"v2500".to_vec()));
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        db.close().unwrap();
    }
    // The fragmented layout is a different policy, not a compatible profile.
    let err = Db::open(env, "db", Options::pebblesdb().scaled(1.0 / 256.0))
        .expect_err("fragmented open of a leveled database must fail");
    assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
}

/// The MANIFEST pins the compaction policy: reopening with a different
/// `Options::compaction_policy` must fail with a clear error naming both
/// policies, and reopening with the pinned one must succeed.
#[test]
fn reopen_with_mismatched_compaction_policy_is_refused() {
    use bolt::CompactionPolicyKind;

    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let opts = Options {
        compaction_policy: CompactionPolicyKind::SizeTiered,
        size_tiered_min_threshold: 2,
        ..Options::bolt().scaled(1.0 / 256.0)
    };
    {
        let db = Db::open(Arc::clone(&env), "db", opts.clone()).unwrap();
        for i in 0..3000u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        db.close().unwrap();
    }
    // A silently re-leveled open would trip over the overlapping tiered
    // runs (or quietly rewrite them); it must be refused instead.
    let err = Db::open(Arc::clone(&env), "db", Options::bolt().scaled(1.0 / 256.0))
        .expect_err("leveled open of a size-tiered database must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("size_tiered") && msg.contains("leveled"),
        "error must name both policies: {msg}"
    );
    let mut lazy = opts.clone();
    lazy.compaction_policy = CompactionPolicyKind::LazyLeveled;
    Db::open(Arc::clone(&env), "db", lazy)
        .expect_err("lazy-leveled open of a size-tiered database must fail");
    // The pinned policy still opens and reads everything back.
    let db = Db::open(env, "db", opts.clone()).unwrap();
    assert_eq!(db.get(b"key00042").unwrap(), Some(b"v42".to_vec()));
    db.close().unwrap();

    // The pin covers the fragmented layout: a store whose levels stack runs
    // is refused by name, never reported corrupt.
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    // One flush per round and the tree settled before the next, so that the
    // layout is the same whatever the background threads' timing: every
    // second round merges two L0 runs into one more run of a deeper level.
    let pebbles = Options {
        memtable_bytes: 1 << 20,
        level0_compaction_trigger: 2,
        ..Options::pebblesdb().scaled(1.0 / 256.0)
    };
    {
        let db = Db::open(Arc::clone(&env), "db", pebbles.clone()).unwrap();
        for round in 0..6u32 {
            for i in 0..3000u32 {
                let value = format!("v{round}-{i}");
                db.put(format!("key{i:05}").as_bytes(), value.as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            db.compact_until_quiet().unwrap();
        }
        let runs: Vec<usize> = db.level_info().iter().map(|l| l.runs).collect();
        assert!(runs[1..].iter().any(|&runs| runs >= 2), "{runs:?}");
        db.close().unwrap();
    }
    for (name, other) in [
        ("leveled", Options::leveldb().scaled(1.0 / 256.0)),
        ("leveled", Options::bolt().scaled(1.0 / 256.0)),
        ("size_tiered", opts),
    ] {
        let err = Db::open(Arc::clone(&env), "db", other).expect_err("mismatch must be refused");
        assert!(
            matches!(&err, Error::InvalidArgument(msg)
                if msg.contains("fragmented") && msg.contains(name)),
            "error must name both policies: {err:?}"
        );
    }
    let db = Db::open(env, "db", pebbles).unwrap();
    for i in (0..3000u32).step_by(97) {
        let value = format!("v5-{i}");
        assert_eq!(
            db.get(format!("key{i:05}").as_bytes()).unwrap(),
            Some(value.into_bytes())
        );
    }
    db.close().unwrap();
}

/// A seek compaction sinks one table, so it may only take it from a level
/// that is one sorted run (or take all of level 0): sinking the newer of
/// two stacked runs' tables puts its entries below the older run, and reads
/// then return overwritten values. Where the layout stacks runs the
/// candidate is dropped; under `leveled` seek compactions still happen.
#[test]
fn seek_compaction_never_reorders_runs() {
    use bolt::CompactionPolicyKind;
    type Model = BTreeMap<Vec<u8>, Vec<u8>>;

    fn flush(db: &Db, model: &mut Model, entries: &[(String, &str)]) {
        for (key, value) in entries {
            db.put(key.as_bytes(), value.as_bytes()).unwrap();
            model.insert(key.clone().into_bytes(), value.as_bytes().to_vec());
        }
        db.flush().unwrap();
    }
    fn probe(db: &Db) {
        for _ in 0..300 {
            assert_eq!(db.get(b"kprime").unwrap(), Some(b"x".to_vec()));
        }
    }
    fn check(db: &Db, model: &Model, policy: CompactionPolicyKind) {
        db.compact_until_quiet().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()), "{policy:?}");
        let mut iter = db.iter().unwrap();
        iter.seek_to_first().unwrap();
        let mut scanned = Vec::new();
        while iter.valid() {
            scanned.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next().unwrap();
        }
        let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scanned, expected, "{policy:?}");
    }

    for policy in [
        CompactionPolicyKind::Leveled,
        CompactionPolicyKind::SizeTiered,
        CompactionPolicyKind::LazyLeveled,
        CompactionPolicyKind::Fragmented,
    ] {
        let opts = Options {
            seek_compaction: true,
            compaction_policy: policy,
            ..Options::pebblesdb()
        };
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(env, "db", opts).unwrap();
        let mut model = Model::new();
        // An older run holding `kprime`, then a newer one that spans it
        // without holding it: every `get(kprime)` probes the newer run's
        // table first, misses, and charges it a seek.
        for f in 0..4 {
            let own = (format!("a{f}"), "");
            flush(
                &db,
                &mut model,
                &[("k".into(), "v1"), ("kprime".into(), "x"), own],
            );
        }
        db.compact_until_quiet().unwrap();
        for f in 0..4 {
            let own = (format!("z{f}"), "");
            flush(
                &db,
                &mut model,
                &[("k".into(), "v2"), ("a".into(), ""), own],
            );
        }
        db.compact_until_quiet().unwrap();
        probe(&db);
        check(&db, &model, policy);
        // One more run, left at level 0, that spans `kprime` too: now its
        // table is the one charged, also under `leveled` (one run below).
        flush(&db, &mut model, &[("a".into(), "y"), ("z9".into(), "")]);
        probe(&db);
        if policy == CompactionPolicyKind::Leveled {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while db.stats().seek_compactions() == 0 {
                assert!(std::time::Instant::now() < deadline, "no seek compaction");
                std::thread::yield_now();
            }
        }
        check(&db, &model, policy);
        db.close().unwrap();
    }
}

/// `EIO` on a WAL sync during group commit: the leader must propagate the
/// error to every writer riding its barrier (no writer may see `Ok` for a
/// batch whose sync failed), the database must stay poisoned afterwards,
/// and recovery must preserve exactly the acknowledged batches.
#[test]
fn eio_on_wal_sync_poisons_group_commit() {
    use bolt::{WriteBatch, WriteOptions};
    use bolt_env::{CrashConfig, FaultEnv, FaultPlan};

    const WRITERS: usize = 8;
    const BATCHES: u32 = 30;

    let fault_env = FaultEnv::over_mem();
    let env: Arc<dyn Env> = Arc::new(fault_env.clone());
    let opts = Options {
        sync_wal: true,
        ..Options::bolt()
    };
    let db = Arc::new(Db::open(Arc::clone(&env), "db", opts.clone()).unwrap());

    // Fail one WAL sync a few barriers into the concurrent phase, targeted
    // by path (`*.log`) so the clause is immune to however many MANIFEST or
    // table barriers open() spent. Group commit makes the exact grouping
    // nondeterministic, but whichever leader hits the EIO must fail its
    // whole group.
    fault_env.set_plan(FaultPlan::parse("eio:sync:glob=*.log:nth=4").unwrap());

    let threads: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                let mut errors = 0u32;
                for i in 0..BATCHES {
                    let mut batch = WriteBatch::new();
                    let value = format!("{t}-{i}");
                    batch.put(format!("w{t}/b{i:03}/a").as_bytes(), value.as_bytes());
                    batch.put(format!("w{t}/b{i:03}/b").as_bytes(), value.as_bytes());
                    match db.write(batch) {
                        Ok(()) => acked.push(i),
                        Err(_) => errors += 1,
                    }
                }
                (t, acked, errors)
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    assert_eq!(fault_env.faults_injected(), 1, "the EIO plan must fire");
    let total_errors: u32 = results.iter().map(|(_, _, e)| e).sum();
    assert!(
        total_errors > 0,
        "injected WAL-sync EIO was swallowed: every writer saw Ok"
    );

    // PR-1 contract: a failed WAL sync poisons the database; later writes
    // must keep failing rather than silently losing durability.
    let mut probe = WriteBatch::new();
    probe.put(b"probe", b"x");
    assert!(
        db.write_opt(probe, &WriteOptions::with_sync(true)).is_err(),
        "database accepted writes after a WAL-sync EIO"
    );
    drop(Arc::try_unwrap(db).expect("all writers joined"));

    // Crash (dropping unsynced state) and recover: exactly the
    // acknowledged batches survive, each all-or-nothing.
    fault_env.crash_inner(CrashConfig::Clean);
    fault_env.reset();
    let db = Db::open(env, "db", opts).unwrap();
    for (t, acked, _) in &results {
        for i in 0..BATCHES {
            let a = db.get(format!("w{t}/b{i:03}/a").as_bytes()).unwrap();
            let b = db.get(format!("w{t}/b{i:03}/b").as_bytes()).unwrap();
            if acked.contains(&i) {
                let value = Some(format!("{t}-{i}").into_bytes());
                assert_eq!(a, value, "acknowledged synced batch w{t}/b{i} lost a key");
                assert_eq!(b, value, "acknowledged synced batch w{t}/b{i} lost b key");
            } else {
                assert_eq!(a, b, "torn unacknowledged batch w{t}/b{i}: {a:?} vs {b:?}");
            }
        }
    }
    db.close().unwrap();
}

/// `EIO` on the MANIFEST commit barrier, targeted by path
/// (`eio:sync:glob=MANIFEST-*:nth=0`): the flush must absorb the failed
/// commit barrier by re-cutting a fresh MANIFEST (DESIGN §9 O5) — it
/// returns `Ok`, later puts and flushes succeed durably without a reopen,
/// the abandoned MANIFEST is scavenged with CURRENT pointing at the fresh
/// one, and recovery after a crash serves every acknowledged write.
#[test]
fn eio_on_manifest_barrier_self_heals_via_recut() {
    use bolt_env::{CrashConfig, FaultEnv, FaultPlan};

    let fault_env = FaultEnv::over_mem();
    let env: Arc<dyn Env> = Arc::new(fault_env.clone());
    let opts = Options {
        sync_wal: true,
        ..Options::bolt()
    };
    let db = Db::open(Arc::clone(&env), "db", opts.clone()).unwrap();
    for i in 0..100u32 {
        db.put(format!("key{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }

    // The next barrier on the MANIFEST itself is the flush's commit point,
    // regardless of how many WAL or compaction-file ops come first.
    fault_env.set_plan(FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").unwrap());
    db.flush()
        .expect("flush self-heals the failed commit barrier via a re-cut");
    assert_eq!(fault_env.faults_injected(), 1, "the path clause must fire");
    assert_eq!(db.metrics().manifest_recuts, 1, "one re-cut recorded");

    // The writer stays healthy: subsequent puts + flush succeed durably
    // with no reopen.
    for i in 100..200u32 {
        db.put(format!("key{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .expect("puts keep landing after the re-cut");
    }
    db.flush()
        .expect("subsequent flush succeeds without a reopen");

    // Stale-MANIFEST scavenging: the abandoned file is gone and CURRENT
    // points at the survivor.
    let mut manifests: Vec<String> = env
        .list_dir("db")
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("MANIFEST-"))
        .collect();
    manifests.sort();
    assert_eq!(
        manifests.len(),
        1,
        "abandoned MANIFEST must be scavenged: {manifests:?}"
    );
    let current = env.new_random_access_file("db/CURRENT").unwrap();
    let content = current.read(0, current.len() as usize).unwrap();
    assert_eq!(
        String::from_utf8(content).unwrap().trim(),
        manifests[0],
        "CURRENT names the fresh MANIFEST"
    );
    db.close().unwrap();

    // Power-cycle and recover: writes from before and after the re-cut all
    // survive.
    fault_env.crash_inner(CrashConfig::Clean);
    fault_env.reset();
    let db = Db::open(env, "db", opts).unwrap();
    for i in 0..200u32 {
        assert_eq!(
            db.get(format!("key{i:03}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "key{i:03} lost after MANIFEST-EIO crash recovery"
        );
    }
    db.close().unwrap();
}

/// Double fault: the re-cut's own MANIFEST sync fails too (two path
/// clauses — a fired rule consumes its op, so the second `nth=0` lands on
/// the re-cut's snapshot sync). The writer degrades to the poisoned state:
/// the flush surfaces a clean `InvalidState`, later operations keep
/// failing with it, and a reopen fully recovers every acknowledged write
/// with no resurrected uncommitted edit.
#[test]
fn double_fault_during_recut_poisons_until_reopen() {
    use bolt::Error;
    use bolt_env::{CrashConfig, FaultEnv, FaultPlan};

    let fault_env = FaultEnv::over_mem();
    let env: Arc<dyn Env> = Arc::new(fault_env.clone());
    let opts = Options {
        sync_wal: true,
        ..Options::bolt()
    };
    let db = Db::open(Arc::clone(&env), "db", opts.clone()).unwrap();
    for i in 0..100u32 {
        db.put(format!("key{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }

    fault_env.set_plan(
        FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0,eio:sync:glob=MANIFEST-*:nth=0").unwrap(),
    );
    let err = db.flush().expect_err("double fault must poison the writer");
    assert!(
        matches!(err, Error::InvalidState(_)),
        "flush surfaces a clean InvalidState, got: {err:?}"
    );
    assert_eq!(fault_env.faults_injected(), 2, "both clauses must fire");
    assert_eq!(db.metrics().manifest_recuts, 0, "no successful re-cut");
    let tc = db.metrics().table_cache;
    assert_eq!(tc.warm_inserts, 0, "a failed commit caches no reader");

    // Poisoned until reopen: later flushes fail the same way.
    assert!(
        matches!(db.flush(), Err(Error::InvalidState(_))),
        "version set must stay poisoned after the failed re-cut"
    );
    let _ = db.close();

    // Power-cycle and recover: the commit never became durable, but every
    // acknowledged (WAL-synced) write must still be there, and nothing
    // from the torn/abandoned MANIFESTs resurfaces.
    fault_env.crash_inner(CrashConfig::Clean);
    fault_env.reset();
    let db = Db::open(env, "db", opts).unwrap();
    for i in 0..100u32 {
        assert_eq!(
            db.get(format!("key{i:03}").as_bytes()).unwrap(),
            Some(format!("v{i}").into_bytes()),
            "key{i:03} lost after double-fault crash recovery"
        );
    }
    db.close().unwrap();
}

/// The write pipeline under contention: eight synced writers must share
/// WAL barriers through group commit (strictly fewer barriers than
/// batches), keep published sequences monotonic, and never lose or tear an
/// acknowledged batch — including across a torn crash that cuts an
/// unsynced group mid-record.
#[test]
fn concurrent_writers_group_commit_and_recover() {
    use bolt::{WriteBatch, WriteOptions};
    use bolt_env::{CrashConfig, DeviceModel, SimEnv};

    const WRITERS: usize = 8;
    const BATCHES: u32 = 40;

    // A device where the barrier is the dominant cost, so writers queue
    // behind the leader's sync and groups actually form.
    let model = DeviceModel {
        barrier_latency: std::time::Duration::from_micros(200),
        ..DeviceModel::fast_test()
    };
    let sim_env = Arc::new(SimEnv::new(model));
    let env: Arc<dyn Env> = Arc::clone(&sim_env) as Arc<dyn Env>;
    let opts = Options {
        sync_wal: true,
        ..Options::bolt()
    };
    let db = Arc::new(Db::open(Arc::clone(&env), "db", opts.clone()).unwrap());

    let threads: Vec<_> = (0..WRITERS)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut last_seq = 0u64;
                for i in 0..BATCHES {
                    let mut batch = WriteBatch::new();
                    let value = format!("{t}-{i}");
                    batch.put(format!("t{t}/b{i:03}/a").as_bytes(), value.as_bytes());
                    batch.put(format!("t{t}/b{i:03}/b").as_bytes(), value.as_bytes());
                    // sync_wal = true: the batch is durable when this returns.
                    db.write(batch).unwrap();
                    let seq = db.snapshot().sequence();
                    assert!(
                        seq >= last_seq + 2,
                        "writer {t}: sequence {seq} after batch {i} did not \
                         advance past {last_seq} by the batch's two entries"
                    );
                    last_seq = seq;
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }

    let stats = db.stats().snapshot();
    assert_eq!(stats.group_batches, (WRITERS as u64) * u64::from(BATCHES));
    assert!(
        stats.wal_syncs < stats.group_batches,
        "expected < 1 barrier per committed batch, got {} syncs for {} batches",
        stats.wal_syncs,
        stats.group_batches
    );
    assert!(
        stats.wal_syncs_elided > 0,
        "no batch ever rode another's barrier: {stats:?}"
    );
    assert!(stats.batches_per_group() > 1.0, "no grouping: {stats:?}");

    // Unsynced tail the crash below may cut mid-group. A torn WAL record
    // drops the whole group, so each batch must stay all-or-nothing.
    for i in 0..20u32 {
        let mut batch = WriteBatch::new();
        batch.put(format!("post/b{i:02}/a").as_bytes(), b"pa");
        batch.put(format!("post/b{i:02}/b").as_bytes(), b"pb");
        db.write_opt(batch, &WriteOptions::with_sync(false))
            .unwrap();
    }

    // Die without close() (which would sync the tail), then tear it.
    std::mem::forget(db);
    sim_env.crash(CrashConfig::TornTail { seed: 7 });

    let db = Db::open(env, "db", opts).unwrap();
    for t in 0..WRITERS {
        for i in 0..BATCHES {
            let value = Some(format!("{t}-{i}").into_bytes());
            assert_eq!(
                db.get(format!("t{t}/b{i:03}/a").as_bytes()).unwrap(),
                value,
                "acknowledged synced batch t{t}/b{i} lost its first key"
            );
            assert_eq!(
                db.get(format!("t{t}/b{i:03}/b").as_bytes()).unwrap(),
                value,
                "acknowledged synced batch t{t}/b{i} lost its second key"
            );
        }
    }
    for i in 0..20u32 {
        let a = db.get(format!("post/b{i:02}/a").as_bytes()).unwrap();
        let b = db.get(format!("post/b{i:02}/b").as_bytes()).unwrap();
        match (&a, &b) {
            (Some(av), Some(bv)) => {
                assert_eq!(av, b"pa");
                assert_eq!(bv, b"pb");
            }
            (None, None) => {}
            _ => panic!("torn batch post/b{i:02}: a={a:?} b={b:?}"),
        }
    }
    db.close().unwrap();
}
