//! Range deletes: one ranged tombstone must hide every covered key from
//! point gets and iterators, respect snapshots taken before it, survive
//! flushes, compactions and reopens, and — via the equivalence property
//! test — stay byte-identical to a `BTreeMap` reference model under random
//! interleavings across every compaction policy, with and without value
//! separation.

use std::collections::BTreeMap;
use std::sync::Arc;

use bolt_common::rng::Rng64;
use bolt_core::{CompactionPolicyKind, Db, Options, ReadOptions};
use bolt_env::{Env, MemEnv};

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
fn empty_and_inverted_ranges_are_rejected() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    assert!(db
        .delete_range(b"a", b"a")
        .unwrap_err()
        .is_invalid_argument());
    assert!(db
        .delete_range(b"b", b"a")
        .unwrap_err()
        .is_invalid_argument());
    db.close().unwrap();
}

#[test]
fn point_get_iterator_and_snapshot_visibility() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    for i in 0..100u32 {
        db.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    let before = db.snapshot();
    db.delete_range(b"k020", b"k060").unwrap();

    // Point gets: covered keys vanish, the end bound is exclusive.
    assert_eq!(db.get(b"k019").unwrap(), Some(b"v19".to_vec()));
    assert_eq!(db.get(b"k020").unwrap(), None);
    assert_eq!(db.get(b"k059").unwrap(), None);
    assert_eq!(db.get(b"k060").unwrap(), Some(b"v60".to_vec()));

    // Iterator: exactly the uncovered keys remain, in order.
    let keys: Vec<Vec<u8>> = scan(&db).into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys.len(), 60);
    assert!(!keys.contains(&b"k020".to_vec()));
    assert!(!keys.contains(&b"k059".to_vec()));

    // A snapshot taken before the delete still sees the whole range.
    let ro = ReadOptions::new().with_snapshot(&before);
    assert_eq!(db.get_opt(b"k040", &ro).unwrap(), Some(b"v40".to_vec()));
    let mut it = db.iter_opt(&ro).unwrap();
    it.seek_to_first().unwrap();
    let mut n = 0;
    while it.valid() {
        n += 1;
        it.next().unwrap();
    }
    assert_eq!(n, 100, "pre-delete snapshot lost keys");

    // A write after the delete is visible even inside the dead range.
    db.put(b"k030", b"reborn").unwrap();
    assert_eq!(db.get(b"k030").unwrap(), Some(b"reborn".to_vec()));
    db.close().unwrap();
}

/// The tombstone lands in a younger table than the data it covers: it must
/// keep suppressing those keys across the flush boundary and a reopen.
#[test]
fn tombstone_straddles_flush_and_reopen() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    for i in 0..200u32 {
        db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
    }
    db.flush().unwrap(); // data is on disk
    db.delete_range(b"k050", b"k150").unwrap(); // tombstone in the memtable
    assert_eq!(db.get(b"k100").unwrap(), None);
    db.flush().unwrap(); // tombstone flushes into its own table
    assert_eq!(db.get(b"k100").unwrap(), None);
    assert_eq!(db.get(b"k151").unwrap(), Some(b"v".to_vec()));
    assert_eq!(scan(&db).len(), 100);
    db.close().unwrap();

    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    assert_eq!(db.get(b"k100").unwrap(), None, "tombstone lost on reopen");
    assert_eq!(scan(&db).len(), 100);
    db.close().unwrap();
}

/// The tombstone straddles compaction: covered keys must stay hidden while
/// the tombstone and its victims move through (and out of) the tree, under
/// every compaction policy.
#[test]
fn tombstone_straddles_compaction_under_all_policies() {
    for policy in [
        CompactionPolicyKind::Leveled,
        CompactionPolicyKind::SizeTiered,
        CompactionPolicyKind::LazyLeveled,
        CompactionPolicyKind::Fragmented,
    ] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut o = opts();
        o.compaction_policy = policy;
        let db = Db::open(Arc::clone(&env), "db", o.clone()).unwrap();
        // Several generations of tables so compaction has real work.
        for gen in 0..4u32 {
            for i in 0..300u32 {
                db.put(format!("k{i:03}").as_bytes(), format!("g{gen}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
        }
        db.delete_range(b"k100", b"k200").unwrap();
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();

        assert_eq!(db.get(b"k150").unwrap(), None, "{policy:?}");
        assert_eq!(db.get(b"k099").unwrap(), Some(b"g3".to_vec()), "{policy:?}");
        assert_eq!(db.get(b"k200").unwrap(), Some(b"g3".to_vec()), "{policy:?}");
        assert_eq!(scan(&db).len(), 200, "{policy:?}");
        db.close().unwrap();

        // And again after recovery, when the tombstone may only exist in
        // SSTable form.
        let db = Db::open(Arc::clone(&env), "db", o).unwrap();
        assert_eq!(db.get(b"k150").unwrap(), None, "{policy:?} after reopen");
        assert_eq!(scan(&db).len(), 200, "{policy:?} after reopen");
        db.close().unwrap();
    }
}

/// A compaction that runs while a snapshot older than the tombstone is held
/// can erase nothing the tombstone covers — so it must keep the tombstone,
/// however complete the merge: dropping it would resurrect the range for
/// latest readers.
#[test]
fn tombstone_outlives_a_compaction_run_under_an_older_snapshot() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    for i in 0..100u32 {
        db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
    }
    let before = db.snapshot();
    db.delete_range(b"k020", b"k060").unwrap();
    db.compact_range(b"k000", b"k100").unwrap();

    assert_eq!(db.get(b"k040").unwrap(), None, "range resurrected");
    assert_eq!(scan(&db).len(), 60);
    let ro = ReadOptions::new().with_snapshot(&before);
    assert_eq!(db.get_opt(b"k040", &ro).unwrap(), Some(b"v".to_vec()));
    drop(before);
    db.close().unwrap();
}

/// Deleting a range of *separated* values (vlog pointers) must mark the
/// pointed-to bytes dead in the value-log ledger once compaction drops the
/// pointers.
#[test]
fn range_delete_over_separated_values_marks_vlog_dead() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut o = opts();
    o.value_separation_threshold = Some(64);
    let db = Db::open(Arc::clone(&env), "db", o).unwrap();
    let big = vec![0x5au8; 500];
    for i in 0..100u32 {
        db.put(format!("k{i:03}").as_bytes(), &big).unwrap();
    }
    db.flush().unwrap();
    assert!(db.stats().snapshot().vlog_values_separated > 0);

    db.delete_range(b"k000", b"k090").unwrap();
    db.flush().unwrap();
    // Force the tombstone down through the data: manual compaction of the
    // whole key space merges the tombstone table with the value tables.
    db.compact_range(b"k000", b"k100").unwrap();

    let dead = db.stats().snapshot().vlog_dead_bytes;
    assert!(
        dead >= 90 * 500,
        "expected >= {} vlog bytes marked dead, got {dead}",
        90 * 500
    );
    // Survivors still resolve through the value log.
    assert_eq!(db.get(b"k095").unwrap(), Some(big.clone()));
    db.close().unwrap();
}

/// Random interleavings of put / delete / delete_range / flush / compact /
/// reopen must remain byte-identical to a `BTreeMap` reference model, for
/// every compaction policy, with value separation on and off.
#[test]
fn range_delete_equiv() {
    for policy in [
        CompactionPolicyKind::Leveled,
        CompactionPolicyKind::SizeTiered,
        CompactionPolicyKind::LazyLeveled,
        CompactionPolicyKind::Fragmented,
    ] {
        for separation in [false, true] {
            let seed = 0xb017 + policy.as_str().len() as u64 * 31 + separation as u64;
            run_equiv(policy, separation, seed);
        }
    }
}

fn run_equiv(policy: CompactionPolicyKind, separation: bool, seed: u64) {
    let tag = format!("{policy:?}/sep={separation}");
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut o = opts();
    o.compaction_policy = policy;
    if separation {
        o.value_separation_threshold = Some(48);
    }
    let mut db = Db::open(Arc::clone(&env), "db", o.clone()).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut rng = Rng64::new(seed);
    let key = |n: u64| format!("key{n:04}").into_bytes();

    for step in 0..2000 {
        match rng.next_below(100) {
            // put: half short values, half long enough to separate
            0..=49 => {
                let k = key(rng.next_below(300));
                let v = if rng.next_below(2) == 0 {
                    format!("v{}", rng.next_u64()).into_bytes()
                } else {
                    let mut v = format!("V{}", rng.next_u64()).into_bytes();
                    v.resize(80, b'x');
                    v
                };
                db.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            50..=64 => {
                let k = key(rng.next_below(300));
                db.delete(&k).unwrap();
                model.remove(&k);
            }
            65..=79 => {
                let a = rng.next_below(300);
                let b = a + 1 + rng.next_below(60);
                let (begin, end) = (key(a), key(b));
                db.delete_range(&begin, &end).unwrap();
                let dead: Vec<Vec<u8>> = model.range(begin..end).map(|(k, _)| k.clone()).collect();
                for k in dead {
                    model.remove(&k);
                }
            }
            80..=89 => db.flush().unwrap(),
            90..=94 => db.compact_until_quiet().unwrap(),
            95..=96 => {
                db.close().unwrap();
                db = Db::open(Arc::clone(&env), "db", o.clone()).unwrap();
            }
            _ => {
                let k = key(rng.next_below(300));
                assert_eq!(
                    db.get(&k).unwrap(),
                    model.get(&k).cloned(),
                    "{tag}: step {step} point-get mismatch on {}",
                    String::from_utf8_lossy(&k)
                );
            }
        }
    }

    let got = scan(&db);
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(
        got.len(),
        want.len(),
        "{tag}: scan length diverged from model"
    );
    assert_eq!(got, want, "{tag}: scan diverged from model");
    db.close().unwrap();
}
