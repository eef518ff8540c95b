use bolt_core::{Db, Options};
use bolt_env::{Env, MemEnv};
use std::sync::Arc;

/// `benchmark/`'s set-up recipe — 200 puts, `flush`, `compact_until_quiet`,
/// over 20 000 keys in random order — on `MemEnv`: no memtable rotates on
/// its own, so every step picks from the same tree in every run.
///
/// This is the regime the group floor exists for: level 1 is never more
/// than 1.4 targets full when picked, so it still goes whole and the tree
/// reads must probe is the one it was. What the groups drag along per byte
/// moved must not grow back (level 2 picks its victims by marginal overlap
/// ratio, so neighbours share the level-3 tables they straddle), and no
/// level may be left holding less than one output table: one more run under
/// every read, for nothing.
#[test]
fn preload_groups_drag_what_they_did_and_leave_no_runts() {
    /// `compaction_overlap_bytes ÷ compaction_victim_bytes` of this test
    /// with victims by marginal ratio: 31,580,111 ÷ 14,458,093 = 2.1843.
    /// By each victim's own ratio it was 2.1976 (31,953,451 ÷ 14,540,370),
    /// and 2.1972 before the group was bounded by the level's debt; a
    /// selection that gives the saving back fails here.
    const OVERLAP_PER_VICTIM_BYTE: f64 = 2.1843;
    const RECORDS: u64 = 20_000;

    let opts = Options::bolt().scaled(1.0 / 64.0);
    let one_table = opts.output_table_bytes();
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(env, "db", opts).unwrap();
    for rank in 0..RECORDS {
        // An odd multiplier permutes the residues of a power of two:
        // distinct keys, in no key order.
        let key = format!(
            "user{:016}",
            rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (1 << 44)
        );
        db.put(key.as_bytes(), &[b'v'; 256]).unwrap();
        if (rank + 1) % 200 == 0 {
            db.flush().unwrap();
            db.compact_until_quiet().unwrap();
            let levels = db.level_info();
            for (level, info) in levels.iter().enumerate().skip(1) {
                assert!(
                    info.bytes == 0 || info.bytes >= one_table,
                    "after {} records level {level} holds {} bytes: {levels:?}",
                    rank + 1,
                    info.bytes
                );
            }
        }
    }
    let stats = db.stats().snapshot();
    let ratio = stats.compaction_overlap_bytes as f64 / stats.compaction_victim_bytes as f64;
    println!(
        "overlap {} B / victims {} B = {ratio:.4} (pinned {OVERLAP_PER_VICTIM_BYTE}), tree {:?}",
        stats.compaction_overlap_bytes,
        stats.compaction_victim_bytes,
        db.level_info()
    );
    assert!(ratio <= OVERLAP_PER_VICTIM_BYTE * 1.001, "{ratio}");
    assert_eq!(db.level_info()[1].bytes, 0, "a populated level 1");
    db.close().unwrap();
}
