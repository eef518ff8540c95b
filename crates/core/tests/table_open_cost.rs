//! What a table-cache miss costs, end to end: one device read for a table
//! whose MANIFEST record carries its tail length, two for a record written
//! before the length was kept, none for a table this process just wrote.

use std::sync::Arc;

use bolt_core::filename::{current_file, manifest_file};
use bolt_core::options::CompactionStyle;
use bolt_core::version::VersionEdit;
use bolt_core::{Db, Options};
use bolt_env::{Env, MemEnv};
use bolt_wal::{LogReader, LogWriter};

/// Small logical tables, so that a few hundred keys span dozens of them.
fn opts() -> Options {
    let mut opts = Options::bolt().scaled(1.0 / 64.0);
    if let CompactionStyle::Bolt(b) = &mut opts.compaction_style {
        b.logical_sstable_bytes = 2 << 10;
    }
    opts
}

fn key(i: u32) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}-{}", "x".repeat(90)).into_bytes()
}

const KEYS: u32 = 600;

/// `KEYS` keys, flushed, compacted until quiet, closed.
fn build(env: &Arc<dyn Env>) {
    let db = Db::open(Arc::clone(env), "db", opts()).unwrap();
    for i in 0..KEYS {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_quiet().unwrap();
    db.close().unwrap();
}

/// Reopen and get every 5th key: `(tables, table-cache counters, device
/// reads, block-cache misses)` of those gets alone, the cache counters as
/// `Db::metrics` reports them.
fn cold_gets(env: &Arc<dyn Env>) -> (usize, bolt_table::TableCacheSnapshot, u64, u64) {
    let db = Db::open(Arc::clone(env), "db", opts()).unwrap();
    let tables: usize = db.level_info().iter().map(|l| l.tables).sum();
    let before = (env.stats().snapshot().read_ops, db.metrics());
    assert_eq!(before.1.table_cache.opens, 0, "recovery opens no table");
    assert_eq!(before.1.block_cache.usage, 0, "nor reads a data block");
    for i in (0..KEYS).step_by(5) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
    }
    let reads = env.stats().snapshot().read_ops - before.0;
    let after = db.metrics();
    let blocks = after.block_cache;
    let block_misses = blocks.misses - before.1.block_cache.misses;
    assert!(block_misses > 0 && blocks.usage > 0, "{blocks:?}");
    db.close().unwrap();
    (tables, after.table_cache, reads, block_misses)
}

#[test]
fn a_cold_open_costs_one_device_read() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    build(&env);
    let (tables, tc, reads, block_misses) = cold_gets(&env);
    assert!(tables >= 20, "{tables} tables");
    // Every table is opened once, by its first get, in exactly one read;
    // the other reads are the data blocks.
    assert_eq!(tc.opens, tables as u64, "{tc:?}");
    assert_eq!((tc.open_reads, tc.warm_inserts), (tc.opens, 0), "{tc:?}");
    assert_eq!(tc.reads_per_open(), 1.0);
    assert_eq!(reads, tc.open_reads + block_misses, "{tc:?}");
    // The tail is a small part of a table, and it is all an open fetches.
    let table_bytes: u64 = {
        let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
        let bytes = db.level_info().iter().map(|l| l.bytes).sum();
        db.close().unwrap();
        bytes
    };
    assert!(tc.open_bytes * 5 < table_bytes, "{tc:?} of {table_bytes}");
}

/// Rewrite the current MANIFEST as a build from before tail lengths wrote
/// it: the same records, no `TABLE_TAIL_BYTES` annotation.
fn strip_tail_lengths(env: &Arc<dyn Env>) {
    let current = env.new_random_access_file(&current_file("db")).unwrap();
    let name = String::from_utf8(current.read(0, current.len() as usize).unwrap()).unwrap();
    let number: u64 = name.trim().trim_start_matches("MANIFEST-").parse().unwrap();
    let path = manifest_file("db", number);
    let records = LogReader::new(env.new_random_access_file(&path).unwrap())
        .read_all()
        .unwrap();
    let mut stripped = 0;
    let mut writer = LogWriter::new(env.new_writable_file(&path).unwrap());
    for record in records {
        let mut edit = VersionEdit::decode(&record).unwrap();
        for (_, _, table) in &mut edit.added_tables {
            stripped += usize::from(table.tail_bytes > 0);
            table.tail_bytes = 0;
        }
        let old_format = edit.encode();
        assert!(old_format.len() <= record.len());
        writer.add_record(&old_format).unwrap();
    }
    writer.sync().unwrap();
    assert!(stripped >= 20, "{stripped} records carried a tail length");
}

#[test]
fn a_manifest_without_tail_lengths_opens_and_reads_in_two() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    build(&env);
    strip_tail_lengths(&env);
    // Unknown lengths stay unknown across reopens (each cuts a fresh
    // MANIFEST from what it recovered): footer first, then the blocks it
    // names — two reads, never three, and every value reads back.
    for _ in 0..2 {
        let (tables, tc, reads, block_misses) = cold_gets(&env);
        assert_eq!(tc.opens, tables as u64, "{tc:?}");
        assert_eq!(tc.open_reads, 2 * tc.opens, "{tc:?}");
        assert_eq!(reads, tc.open_reads + block_misses, "{tc:?}");
    }
    // Tables written from now on record theirs: rewriting the tree brings
    // every open back to one read.
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    db.compact_range(b"", b"~").unwrap();
    let version = db.current_version();
    assert!(version.all_tables().all(|(_, _, t)| t.tail_bytes > 0));
    db.close().unwrap();
    let (_, tc, _, _) = cold_gets(&env);
    assert_eq!(tc.reads_per_open(), 1.0, "{tc:?}");
}

#[test]
fn tables_the_engine_just_wrote_are_never_opened() {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
    let get_all = |what: &str| {
        let before = db.metrics().table_cache;
        for i in 0..KEYS {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "{what}: key {i}");
        }
        let after = db.metrics().table_cache;
        assert_eq!(after.opens, before.opens, "{what}: a get opened a table");
        assert_eq!(after.misses, before.misses, "{what}");
        assert!(after.hits > before.hits, "{what}");
    };
    for i in 0..KEYS {
        db.put(&key(i), &value(i)).unwrap();
    }
    db.flush().unwrap();
    let flushed = db.metrics().table_cache.warm_inserts;
    assert!(flushed > 0);
    get_all("after the flush");
    db.compact_range(b"", b"~").unwrap();
    let tables: usize = db.level_info().iter().map(|l| l.tables).sum();
    let tc = db.metrics().table_cache;
    assert!(tc.warm_inserts >= flushed + tables as u64, "{tc:?}");
    get_all("after the compaction");
    assert_eq!(db.table_cache().open_count(), 0);
    assert_eq!(db.metrics().table_cache.open_reads, 0);
    db.close().unwrap();
}
