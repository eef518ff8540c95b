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
/// moved must stay what it was (level 2 now orders its victims by ratio,
/// which moves the fourth digit), and no level may be left holding less
/// than one output table: one more run under every read, for nothing.
#[test]
fn preload_groups_drag_what_they_did_and_leave_no_runts() {
    /// `compaction_overlap_bytes ÷ compaction_victim_bytes` of this test at
    /// the parent of the debt-bounded group (PR 22: 31,950,636 ÷ 14,541,482;
    /// this test prints its own: 2.1976 when written).
    const PARENT_OVERLAP_PER_VICTIM_BYTE: f64 = 2.1972;
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
        "overlap {} B / victims {} B = {ratio:.4} (parent {PARENT_OVERLAP_PER_VICTIM_BYTE}), tree {:?}",
        stats.compaction_overlap_bytes,
        stats.compaction_victim_bytes,
        db.level_info()
    );
    assert!(ratio <= PARENT_OVERLAP_PER_VICTIM_BYTE * 1.001, "{ratio}");
    assert_eq!(db.level_info()[1].bytes, 0, "a populated level 1");
    db.close().unwrap();
}
