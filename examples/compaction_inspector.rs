//! Inspect how BoLT lays out logical SSTables inside compaction files.
//!
//! Loads data, then walks the current version and the physical files,
//! showing settled-compaction promotions (tables whose physical location
//! never changed while their level did) and hole-punch reclamation.
//!
//! Run with `cargo run --release --example compaction_inspector`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bolt::{Db, Options};
use bolt_env::{Env, MemEnv};

fn main() -> bolt::Result<()> {
    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let db = Db::open(
        Arc::clone(&env),
        "inspect-db",
        Options::bolt().scaled(1.0 / 64.0),
    )?;

    // Load a few disjoint key ranges in rounds so settled compaction finds
    // zero-overlap victims.
    for round in 0..10u32 {
        for i in 0..4_000u32 {
            let key = format!("r{:02}/key{i:06}", round % 5);
            db.put(key.as_bytes(), &[b'v'; 64])?;
        }
        db.flush()?;
    }
    db.compact_until_quiet()?;

    println!("Level shape: {:?}\n", db.level_info());

    // Group logical SSTables by physical file.
    let version = db.current_version();
    let mut by_file: BTreeMap<u64, Vec<(usize, u64, u64, u64)>> = BTreeMap::new();
    for (level, _tag, table) in version.all_tables() {
        by_file.entry(table.file_number).or_default().push((
            level,
            table.table_id,
            table.offset,
            table.size,
        ));
    }

    println!("physical file -> logical SSTables (level, id, offset, size):");
    let mut multi_level_files = 0;
    for (file, mut tables) in by_file {
        tables.sort_by_key(|t| t.2);
        let levels: std::collections::BTreeSet<usize> = tables.iter().map(|t| t.0).collect();
        if levels.len() > 1 {
            multi_level_files += 1;
        }
        let path = format!("inspect-db/{file:06}.sst");
        let physical = env.file_size(&path).unwrap_or(0);
        let live: u64 = tables.iter().map(|t| t.3).sum();
        println!(
            "  {file:06}.sst  ({} logical tables, {} levels, {physical} B physical, {live} B live)",
            tables.len(),
            levels.len(),
        );
        for (level, id, offset, size) in tables.iter().take(4) {
            println!("      L{level} table#{id} @{offset}+{size}");
        }
        if tables.len() > 4 {
            println!("      ... {} more", tables.len() - 4);
        }
    }

    // One merged snapshot carries every counter the old hand-stitched
    // env.stats()/db.stats()/queue_wait() combination did.
    let metrics = db.metrics();
    println!(
        "\nsettled moves: {} (logical SSTables promoted without rewriting)",
        metrics.db.settled_moves
    );
    println!("compaction files with logical tables on >1 level: {multi_level_files}");
    println!(
        "holes punched: {} ({} KB reclaimed lazily, no barrier)",
        metrics.io.holes_punched,
        metrics.io.hole_bytes / 1024
    );
    println!(
        "fsync calls: {} | bytes written: {} MB | write amplification: {:.2}",
        metrics.io.fsync_calls,
        metrics.io.bytes_written / (1 << 20),
        metrics.write_amplification()
    );
    println!(
        "barriers by cause: {:?} ({:.2} per compaction)",
        metrics
            .barriers_by_cause
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{}={n}", c.as_str()))
            .collect::<Vec<_>>(),
        metrics.barriers_per_compaction()
    );
    println!(
        "compaction inputs: {} KB moved + {} KB overlap; {} reads, blocked {} ms",
        metrics.db.compaction_victim_bytes / 1024,
        metrics.db.compaction_overlap_bytes / 1024,
        metrics.db.compaction_read_ops,
        metrics.db.compaction_read_wait_nanos / 1_000_000
    );
    println!(
        "background busy: flush thread {} ms, compaction thread {} ms (they overlap)",
        metrics.db.flush_busy_nanos / 1_000_000,
        metrics.db.compaction_busy_nanos / 1_000_000
    );
    println!(
        "write pipeline: {} batches in {} commit groups ({:.2} batches/group)",
        metrics.db.group_batches,
        metrics.db.write_groups,
        metrics.batches_per_group()
    );
    println!(
        "WAL barriers: {} issued, {} elided by group commit ({:.3} per batch)",
        metrics.db.wal_syncs,
        metrics.db.wal_syncs_elided,
        metrics.wal_syncs_per_batch()
    );
    println!(
        "writer queue wait: p50 {} ns, p99 {} ns, max {} ns",
        metrics.queue_wait.p50, metrics.queue_wait.p99, metrics.queue_wait.max
    );
    db.close()?;
    Ok(())
}
