//! Property-based tests (proptest) on the engine's core invariants.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use bolt::{Db, Options};
use bolt_env::{CrashConfig, Env, MemEnv};

/// An operation in a generated workload.
#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Flush,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| Op::Put(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

/// Like [`op_strategy`] but with values up to 200 bytes so a 48-byte
/// separation threshold splits the workload between inline values and
/// value-log pointers.
fn large_value_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(k, v)| Op::Put(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % 512)),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn key_of(k: u16) -> Vec<u8> {
    format!("key{k:05}").into_bytes()
}

fn apply_ops(db: &Db, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                db.put(&key_of(*k), v).unwrap();
                model.insert(key_of(*k), v.clone());
            }
            Op::Delete(k) => {
                db.delete(&key_of(*k)).unwrap();
                model.remove(&key_of(*k));
            }
            Op::Flush => db.flush().unwrap(),
            Op::Compact => db.compact_until_quiet().unwrap(),
        }
    }
}

fn assert_matches_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Point lookups for every key ever touched plus absent keys.
    for k in 0..512u16 {
        let key = key_of(k);
        assert_eq!(db.get(&key).unwrap(), model.get(&key).cloned(), "key {k}");
    }
    // Scan equivalence.
    let mut iter = db.iter().unwrap();
    iter.seek_to_first().unwrap();
    let mut scanned = Vec::new();
    while iter.valid() {
        scanned.push((iter.key().to_vec(), iter.value().to_vec()));
        iter.next().unwrap();
    }
    let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "scan mismatch");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// Any interleaving of puts/deletes/flushes/compactions leaves the
    /// BoLT-profile database equivalent to a sorted map.
    #[test]
    fn bolt_equivalent_to_btreemap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", Options::bolt().scaled(1.0 / 512.0)).unwrap();
        let mut model = BTreeMap::new();
        apply_ops(&db, &mut model, &ops);
        assert_matches_model(&db, &model);
        db.close().unwrap();
    }

    /// Same for the fragmented (PebblesDB-style) profile, whose level
    /// structure is the most different.
    #[test]
    fn fragmented_equivalent_to_btreemap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", Options::pebblesdb().scaled(1.0 / 512.0)).unwrap();
        let mut model = BTreeMap::new();
        apply_ops(&db, &mut model, &ops);
        assert_matches_model(&db, &model);
        db.close().unwrap();
    }

    /// The compaction policy is invisible to reads: leveled, size-tiered,
    /// lazy-leveled and fragmented databases fed the same op sequence
    /// produce byte-identical full scans (and all match the model).
    #[test]
    fn compaction_policies_agree_on_scan_results(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        use bolt::CompactionPolicyKind;
        let mut scans: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
        for policy in [
            CompactionPolicyKind::Leveled,
            CompactionPolicyKind::SizeTiered,
            CompactionPolicyKind::LazyLeveled,
            CompactionPolicyKind::Fragmented,
        ] {
            let env: Arc<dyn Env> = Arc::new(MemEnv::new());
            let mut opts = Options::bolt().scaled(1.0 / 512.0);
            opts.compaction_policy = policy;
            // Aggressive tiering so the small generated workloads actually
            // exercise tiered merges, not just L0 accumulation.
            opts.size_tiered_min_threshold = 2;
            let db = Db::open(Arc::clone(&env), "db", opts).unwrap();
            let mut model = BTreeMap::new();
            apply_ops(&db, &mut model, &ops);
            assert_matches_model(&db, &model);
            let mut iter = db.iter().unwrap();
            iter.seek_to_first().unwrap();
            let mut scanned = Vec::new();
            while iter.valid() {
                scanned.push((iter.key().to_vec(), iter.value().to_vec()));
                iter.next().unwrap();
            }
            db.close().unwrap();
            scans.push(scanned);
        }
        prop_assert_eq!(&scans[0], &scans[1], "size-tiered diverged from leveled");
        prop_assert_eq!(&scans[0], &scans[2], "lazy-leveled diverged from leveled");
        prop_assert_eq!(&scans[0], &scans[3], "fragmented diverged from leveled");
    }

    /// Value separation is invisible to reads: a database with WAL-time
    /// key-value separation enabled and one without, fed the same op
    /// sequence, match the model and produce byte-identical full scans.
    /// Tiny segments force rotation and compaction-driven GC mid-run.
    #[test]
    fn value_separation_is_read_transparent(
        ops in proptest::collection::vec(large_value_op_strategy(), 1..300),
    ) {
        let mut scans: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
        for threshold in [None, Some(48)] {
            let env: Arc<dyn Env> = Arc::new(MemEnv::new());
            let mut opts = Options::bolt().scaled(1.0 / 512.0);
            opts.value_separation_threshold = threshold;
            opts.vlog_segment_bytes = 4 << 10;
            let db = Db::open(Arc::clone(&env), "db", opts).unwrap();
            let mut model = BTreeMap::new();
            apply_ops(&db, &mut model, &ops);
            assert_matches_model(&db, &model);
            let mut iter = db.iter().unwrap();
            iter.seek_to_first().unwrap();
            let mut scanned = Vec::new();
            while iter.valid() {
                scanned.push((iter.key().to_vec(), iter.value().to_vec()));
                iter.next().unwrap();
            }
            db.close().unwrap();
            scans.push(scanned);
        }
        prop_assert_eq!(&scans[0], &scans[1], "separated database diverged from unseparated");
    }

    /// Crash anywhere (torn tail) after a flush: everything up to the last
    /// flush must survive; the store must stay consistent.
    #[test]
    fn crash_preserves_flushed_writes(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        post in proptest::collection::vec(op_strategy(), 0..60),
        seed in any::<u64>(),
    ) {
        let mem_env = Arc::new(MemEnv::new());
        let env: Arc<dyn Env> = Arc::clone(&mem_env) as Arc<dyn Env>;
        let opts = Options::bolt().scaled(1.0 / 512.0);
        let mut model = BTreeMap::new();
        {
            let db = Db::open(Arc::clone(&env), "db", opts.clone()).unwrap();
            apply_ops(&db, &mut model, &ops);
            db.flush().unwrap(); // `model` is now the durable floor
            // Post-flush operations may or may not survive, except
            // flush/compact which would extend the durable floor — skip
            // their model effects entirely by not tracking them.
            for op in &post {
                match op {
                    Op::Put(k, v) => db.put(&key_of(*k), v).unwrap(),
                    Op::Delete(k) => db.delete(&key_of(*k)).unwrap(),
                    _ => {}
                }
            }
            drop(db); // simulate process death without close()
        }
        mem_env.crash(CrashConfig::TornTail { seed });
        let db = Db::open(env, "db", opts).unwrap();
        // Keys untouched after the flush must match the model exactly.
        let touched: std::collections::HashSet<Vec<u8>> = post.iter().filter_map(|op| match op {
            Op::Put(k, _) | Op::Delete(k) => Some(key_of(*k)),
            _ => None,
        }).collect();
        for k in 0..512u16 {
            let key = key_of(k);
            if touched.contains(&key) {
                continue;
            }
            assert_eq!(db.get(&key).unwrap(), model.get(&key).cloned(), "key {k}");
        }
        db.close().unwrap();
    }

    /// Random version-edit sequences with randomly injected MANIFEST-sync
    /// failures, at the `VersionSet` layer. Invariants: with 0 or 1 armed
    /// faults a commit self-heals (re-cut) and is acked; with 2 armed
    /// faults (the double-fault case) the writer poisons and never acks
    /// again; after a power cycle, recovery yields exactly the acked-alive
    /// table set — every acknowledged `log_and_apply` survives, no
    /// unacknowledged edit resurfaces, and `VersionBuilder::build` accepts
    /// the recovered version (disjoint ranges, so any resurfaced or lost
    /// edit would change the set or break the build).
    #[test]
    fn version_commits_survive_random_sync_faults(
        ops in proptest::collection::vec(
            (any::<bool>(), any::<u8>(),
             prop_oneof![6 => Just(0u8), 3 => Just(1u8), 1 => Just(2u8)]),
            1..40,
        ),
    ) {
        use bolt::bolt_core::version::{TableMeta, VersionEdit};
        use bolt::bolt_core::versions::VersionSet;
        use bolt::bolt_core::CompactionPolicyKind;
        use bolt::bolt_table::ikey::{make_internal_key, ValueType};
        use bolt_env::{FaultEnv, FaultPlan};

        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        env.create_dir_all("db").unwrap();
        let open_set = || VersionSet::new(
            Arc::clone(&env), "db", 7,
            CompactionPolicyKind::Leveled, Arc::default());
        let mut vs = open_set();
        vs.create_new().unwrap();

        let mut alive: Vec<u64> = Vec::new(); // acked model
        let mut poisoned = false;
        for (is_add, sel, faults) in ops {
            for _ in 0..faults {
                fault.extend_plan(
                    FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").unwrap());
            }
            let mut edit = VersionEdit::default();
            let action: Result<u64, u64> = if is_add || alive.is_empty() {
                let t = vs.ids().new_table_id();
                let f = vs.ids().new_file_number();
                edit.added_tables.push((0, t, TableMeta::new(
                    t, f, 0, 100, 1,
                    make_internal_key(
                        format!("k{t:06}a").as_bytes(), 10, ValueType::Value),
                    make_internal_key(
                        format!("k{t:06}z").as_bytes(), 1, ValueType::Value),
                )));
                Ok(t)
            } else {
                let victim = alive[sel as usize % alive.len()];
                edit.deleted_tables.push((0, victim));
                Err(victim)
            };
            let result = vs.log_and_apply(edit);
            if poisoned || faults >= 2 {
                prop_assert!(
                    result.is_err(),
                    "poisoned/double-faulted commit must not ack");
                poisoned = true;
            } else {
                prop_assert!(
                    result.is_ok(),
                    "healthy commit with {} armed fault(s) failed: {:?}",
                    faults, result.err());
                match action {
                    Ok(t) => alive.push(t),
                    Err(victim) => alive.retain(|&x| x != victim),
                }
            }
        }
        drop(vs);

        // Power-cycle and recover: exactly the acked-alive set.
        fault.crash_inner(CrashConfig::Clean);
        fault.reset();
        let mut vs = open_set();
        vs.recover().unwrap();
        let mut recovered: Vec<u64> = vs
            .current()
            .all_tables()
            .map(|(_, _, m)| m.table_id)
            .collect();
        recovered.sort_unstable();
        let mut expected = alive;
        expected.sort_unstable();
        prop_assert_eq!(recovered, expected);
    }

    /// Iterators pinned before mutations must be unaffected by them.
    #[test]
    fn snapshot_iterators_are_immutable(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        more in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", Options::bolt().scaled(1.0 / 512.0)).unwrap();
        let mut model = BTreeMap::new();
        apply_ops(&db, &mut model, &ops);

        let snap = db.snapshot();
        let frozen = model.clone();
        apply_ops(&db, &mut model, &more);

        let mut iter = db.iter_opt(&bolt::ReadOptions::new().with_snapshot(&snap)).unwrap();
        iter.seek_to_first().unwrap();
        let mut scanned = Vec::new();
        while iter.valid() {
            scanned.push((iter.key().to_vec(), iter.value().to_vec()));
            iter.next().unwrap();
        }
        let expected: Vec<_> = frozen.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
        db.close().unwrap();
    }
}

/// `write_batch_roundtrip`'s one recorded shrunk case,
/// `ops = [(false, [], [])]`: a batch holding one delete of the empty key.
#[test]
fn write_batch_roundtrip_of_one_delete_of_the_empty_key() {
    use bolt::bolt_table::ikey::ValueType;
    let mut batch = bolt::WriteBatch::new();
    batch.delete(b"");
    batch.set_sequence(777);
    let decoded = bolt::WriteBatch::decode(&batch.encode()).unwrap();
    assert_eq!(decoded.encode(), batch.encode());
    assert_eq!(decoded.sequence(), 777);
    assert_eq!(decoded.count(), 1);
    let mut replayed = Vec::new();
    (decoded.for_each(|t, k, v| replayed.push((t, k.to_vec(), v.to_vec())))).unwrap();
    assert_eq!(replayed, [(ValueType::Deletion, vec![], vec![])]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// WriteBatch encode/decode is the identity.
    #[test]
    fn write_batch_roundtrip(ops in proptest::collection::vec(
        (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..40),
         proptest::collection::vec(any::<u8>(), 0..40)), 0..50)) {
        let mut batch = bolt::WriteBatch::new();
        for (is_put, k, v) in &ops {
            if *is_put { batch.put(k, v); } else { batch.delete(k); }
        }
        batch.set_sequence(777);
        let decoded = bolt::WriteBatch::decode(&batch.encode()).unwrap();
        prop_assert_eq!(decoded.encode(), batch.encode());
        prop_assert_eq!(decoded.sequence(), 777);
        prop_assert_eq!(decoded.count(), batch.count());
        let mut replayed = Vec::new();
        decoded.for_each(|t, k, v| replayed.push((t, k.to_vec(), v.to_vec()))).unwrap();
        prop_assert_eq!(replayed.len(), ops.len());
    }
}
