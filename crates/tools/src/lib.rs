//! # bolt-tools
//!
//! Offline inspection and maintenance commands for BoLT databases — the
//! `leveldbutil` of this workspace. Each command is a library function
//! (testable against any [`Env`]) with a thin CLI binary (`bolt-tool`)
//! on top. Measuring lives elsewhere: experiments are `cargo bench -p
//! bolt-bench` targets and the pinned regression gate is `benchmark/`.
//!
//! | Command | What it does |
//! |---|---|
//! | [`stat`] | one merged [`MetricsSnapshot`] as text, JSON, or Prometheus |
//! | [`trace`] | run a canonical micro workload and dump its event stream |
//! | [`dump_manifest`] | decode every version edit in the live MANIFEST |
//! | [`dump_tables`] | list every logical SSTable with its physical location |
//! | [`scan`] | print key/value pairs in order |
//! | [`get`] / [`put`] / [`delete_key`] | point operations |
//! | [`load`] | bulk-load N synthetic records |
//! | [`compact`] | flush + compact until quiet |
//! | [`verify`] | full integrity walk: checksums, run ordering, level invariants |
//! | [`run_crash_sweep`] | the fault sweep over a [`bolt_env::FaultEnv`]: record → crash → EIO → double crash, on one engine or (with [`SweepConfig::sharded`]) inside cross-shard 2PC commit windows |
//! | [`stat_per_shard`] | [`stat`] for a [`bolt_sharded::ShardedDb`]: aggregate + per-shard series |

#![warn(missing_docs)]

mod backup;
pub mod json;
mod sweep;
mod sweep_scenario;

pub use backup::{
    backup_create, backup_restore, backup_verify, render_backup_report, BackupReport,
};
pub use sweep::{render_report, run_crash_sweep, SweepConfig, SweepCoverage, SweepOutcome};

use std::fmt::Write as _;
use std::sync::Arc;

use bolt_common::{Error, Result};
use bolt_core::{Db, MetricsSnapshot, Options};
use bolt_env::Env;
use bolt_table::comparator::Comparator;
use bolt_table::ikey::parse_internal_key;
use bolt_wal::LogReader;

/// Parse a profile name into [`Options`].
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] for unknown profile names.
pub fn profile(name: &str) -> Result<Options> {
    Options::profile(name).ok_or_else(|| {
        Error::InvalidArgument(format!(
            "unknown profile `{name}` (try: {})",
            Options::PROFILE_NAMES.join(", ")
        ))
    })
}

fn open(env: &Arc<dyn Env>, db: &str, opts: Options) -> Result<Db> {
    Db::open(Arc::clone(env), db, opts)
}

/// Output format for [`stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatFormat {
    /// Human-readable summary.
    Text,
    /// The [`MetricsSnapshot`] JSON document.
    Json,
    /// Prometheus text exposition format.
    Prometheus,
}

/// Render one [`MetricsSnapshot`] as human-readable text. Every number
/// below comes from the same snapshot the JSON and Prometheus exporters
/// serialize, so the three formats can never disagree.
fn render_metrics_text(metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "compaction policy: {}",
        if metrics.policy.is_empty() {
            "leveled"
        } else {
            metrics.policy
        }
    )
    .expect("write");
    writeln!(out, "levels (runs / tables / bytes):").expect("write");
    for (i, level) in metrics.levels.iter().enumerate() {
        if level.tables > 0 {
            writeln!(
                out,
                "  L{i}: {:>3} runs  {:>5} tables  {:>12} bytes",
                level.runs, level.tables, level.bytes
            )
            .expect("write");
        }
    }
    let s = &metrics.db;
    let io = &metrics.io;
    writeln!(out, "engine:").expect("write");
    writeln!(
        out,
        "  flushes {} | compactions {} | settled moves {} | trivial moves {} | seek compactions {}",
        s.flushes, s.compactions, s.settled_moves, s.trivial_moves, s.seek_compactions
    )
    .expect("write");
    writeln!(
        out,
        "  background busy: flush thread {} ms | compaction thread {} ms",
        s.flush_busy_nanos / 1_000_000,
        s.compaction_busy_nanos / 1_000_000
    )
    .expect("write");
    writeln!(
        out,
        "  stalls {} ({} ms) | slowdowns {}",
        s.stalls,
        s.stall_nanos / 1_000_000,
        s.slowdowns
    )
    .expect("write");
    writeln!(
        out,
        "  write groups {} ({} batches, {:.2}/group) | WAL syncs {} ({} elided)",
        s.write_groups,
        s.group_batches,
        metrics.batches_per_group(),
        s.wal_syncs,
        s.wal_syncs_elided
    )
    .expect("write");
    if s.compaction_read_ops > 0 {
        writeln!(
            out,
            "  compaction reads {} ({} bytes, {} per read) | spans {} read ahead, {} on demand | blocked {} ms",
            s.compaction_read_ops,
            s.compaction_read_bytes,
            s.compaction_read_bytes / s.compaction_read_ops,
            s.compaction_readahead_spans,
            s.compaction_demand_spans,
            s.compaction_read_wait_nanos / 1_000_000
        )
        .expect("write");
    }
    if s.compaction_victim_bytes > 0 {
        writeln!(
            out,
            "  compaction inputs: {} B moved + {} B overlap ({:.2} overlap B per moved B)",
            s.compaction_victim_bytes,
            s.compaction_overlap_bytes,
            s.compaction_overlap_bytes as f64 / s.compaction_victim_bytes as f64
        )
        .expect("write");
    }
    writeln!(out, "  manifest re-cuts {}", metrics.manifest_recuts).expect("write");
    writeln!(
        out,
        "  reclaim pending: {} B to punch | {} files to unlink",
        metrics.pending_punch_bytes, metrics.pending_unlink_files
    )
    .expect("write");
    let tc = &metrics.table_cache;
    writeln!(
        out,
        "  table cache: {} hits | {} misses | {} opens ({} reads, {} B, {:.2} reads/open) | {} warm inserts",
        tc.hits,
        tc.misses,
        tc.opens,
        tc.open_reads,
        tc.open_bytes,
        tc.reads_per_open(),
        tc.warm_inserts
    )
    .expect("write");
    if s.range_deletes > 0 || s.checkpoints > 0 || metrics.range_tombstones_live > 0 {
        writeln!(
            out,
            "  range deletes {} ({} tombstones live) | checkpoints {}",
            s.range_deletes, metrics.range_tombstones_live, s.checkpoints
        )
        .expect("write");
    }
    if s.vlog_values_separated > 0 {
        writeln!(
            out,
            "  vlog: {} values separated ({} B) | {} resolves | {} B dead | {} segments retired",
            s.vlog_values_separated,
            s.vlog_bytes_written,
            s.vlog_resolves,
            s.vlog_dead_bytes,
            s.vlog_segments_retired
        )
        .expect("write");
    }
    writeln!(out, "io:").expect("write");
    writeln!(
        out,
        "  fsync {} | ordering barriers {} | written {} B | read {} B | holes punched {} ({} B)",
        io.fsync_calls,
        io.ordering_barriers,
        io.bytes_written,
        io.bytes_read,
        io.holes_punched,
        io.hole_bytes
    )
    .expect("write");
    writeln!(out, "barriers by cause:").expect("write");
    for (cause, count) in &metrics.barriers_by_cause {
        if *count > 0 {
            writeln!(out, "  {:<20} {count}", cause.as_str()).expect("write");
        }
    }
    writeln!(
        out,
        "derived: write amp {:.2} | barriers/compaction {:.2} | WAL syncs/batch {:.3}",
        metrics.write_amplification(),
        metrics.barriers_per_compaction(),
        metrics.wal_syncs_per_batch()
    )
    .expect("write");
    writeln!(
        out,
        "events: {} emitted, {} dropped (ring overflow)",
        metrics.events_emitted, metrics.events_dropped
    )
    .expect("write");
    out
}

/// What the compactions in `events` moved and what that dragged along, per
/// source level: one line per level with a `compaction_begin`, none without.
fn render_compaction_ledger(events: &[bolt_core::TraceEvent]) -> String {
    // Per source level: compactions, victim bytes, overlap bytes.
    let mut levels = std::collections::BTreeMap::<u32, (u64, u64, u64)>::new();
    for event in events {
        if let bolt_core::EngineEvent::CompactionBegin {
            level,
            victim_bytes,
            overlap_bytes,
            ..
        } = event.event
        {
            let (count, victims, overlap) = levels.entry(level).or_default();
            (*count, *victims, *overlap) = (
                *count + 1,
                *victims + victim_bytes,
                *overlap + overlap_bytes,
            );
        }
    }
    let mut out = String::new();
    if !levels.is_empty() {
        writeln!(
            out,
            "compaction inputs by source level (from the event trace):"
        )
        .expect("write");
    }
    for (level, (count, victims, overlap)) in levels {
        writeln!(
            out,
            "  L{level}: {count:>4} compactions  {victims:>12} B moved  {overlap:>12} B overlap  {:.2} overlap B per moved B",
            overlap as f64 / victims.max(1) as f64
        )
        .expect("write");
    }
    out
}

/// Open the database, open each of its live tables once, and render its
/// merged [`MetricsSnapshot`] in the requested format. All three formats
/// serialize the **same** snapshot.
///
/// # Errors
///
/// Returns open/recovery errors, and table open errors.
pub fn stat(env: &Arc<dyn Env>, db: &str, opts: Options, format: StatFormat) -> Result<String> {
    let db = open(env, db, opts)?;
    // A process that just opened the database has opened no table yet. Open
    // every live one once, so that the table-cache line reports what a miss
    // costs on *this* database: one device read each, two for a table whose
    // MANIFEST record predates tail lengths.
    for (_, _, table) in db.current_version().all_tables() {
        table.open(db.table_cache(), db.name())?;
    }
    let metrics = db.metrics();
    // The compactions this process ran (recovery can leave the tree over a
    // trigger): the ring holds the last 4 096 events.
    let events = db.events();
    db.close()?;
    Ok(match format {
        StatFormat::Text => render_metrics_text(&metrics) + &render_compaction_ledger(&events),
        StatFormat::Json => {
            let mut s = metrics.to_json();
            s.push('\n');
            s
        }
        StatFormat::Prometheus => metrics.to_prometheus_text(),
    })
}

/// `stat --per-shard`: open a sharded database (its `SHARDS` file pins the
/// router, so none needs to be supplied) and render the aggregate followed
/// by every shard's own snapshot. JSON and Prometheus output carry the
/// per-shard series under a `shard="i"` label.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when `db` holds no `SHARDS` file,
/// plus open/recovery errors.
pub fn stat_per_shard(
    env: &Arc<dyn Env>,
    db: &str,
    opts: Options,
    format: StatFormat,
) -> Result<String> {
    let shards_path = bolt_env::join_path(db, "SHARDS");
    if !env.file_exists(&shards_path) {
        return Err(Error::InvalidArgument(format!(
            "{db}: not a sharded database (no SHARDS file); use plain `stat`"
        )));
    }
    let file = env.new_random_access_file(&shards_path)?;
    let raw = file.read(0, file.len() as usize)?;
    let text =
        String::from_utf8(raw).map_err(|_| Error::Corruption("SHARDS file: not UTF-8".into()))?;
    let router = bolt_sharded::Router::decode(&text)?;
    let db = bolt_sharded::ShardedDb::open(Arc::clone(env), db, opts, router)?;
    let metrics = db.metrics();
    db.close()?;
    Ok(match format {
        StatFormat::Text => {
            let mut out = String::new();
            writeln!(out, "aggregate over {} shards:", metrics.per_shard.len()).expect("write");
            out.push_str(&render_metrics_text(&metrics.aggregate));
            for (i, shard) in metrics.per_shard.iter().enumerate() {
                writeln!(out, "\nshard {i}:").expect("write");
                out.push_str(&render_metrics_text(shard));
            }
            out
        }
        StatFormat::Json => {
            let mut s = metrics.to_json();
            s.push('\n');
            s
        }
        StatFormat::Prometheus => metrics.to_prometheus_text(),
    })
}

/// Run the canonical trace micro workload on an in-memory filesystem and
/// return `(event stream, final metrics)`: disjoint key ranges loaded in
/// rounds (so settled compaction finds zero-overlap victims), explicit
/// flushes, then compaction until quiet.
///
/// # Errors
///
/// Returns engine errors from the workload itself.
pub fn trace_workload() -> Result<(Vec<bolt_core::TraceEvent>, MetricsSnapshot)> {
    let fault = bolt_env::FaultEnv::over_mem();
    let env: Arc<dyn Env> = Arc::new(fault.clone());
    let mut opts = Options::bolt().scaled(1.0 / 256.0);
    // Separate the 64-byte values into tiny value-log segments so the trace
    // also carries vlog_rotate/vlog_gc/vlog_retire events and vlog_data
    // barriers (schema v3) — the overwritten rounds leave early segments
    // fully dead for compaction-driven GC to retire.
    opts.value_separation_threshold = Some(48);
    opts.vlog_segment_bytes = 16 << 10;
    let db = Db::open(Arc::clone(&env), "trace-db", opts)?;
    let mut events = Vec::new();
    for round in 0..8u32 {
        for i in 0..400u32 {
            let key = format!("r{:02}/key{i:05}", round % 4);
            if i % 100 == 0 {
                // A few synced writes so the trace shows WAL-commit barriers
                // (and the syncs the group-commit path elides).
                let mut batch = bolt_core::WriteBatch::new();
                batch.put(key.as_bytes(), &[b'v'; 64]);
                db.write_opt(batch, &bolt_core::WriteOptions { sync: Some(true) })?;
            } else {
                db.put(key.as_bytes(), &[b'v'; 64])?;
            }
        }
        if round == 5 {
            // Arm a one-shot MANIFEST-sync EIO: the next commit barrier
            // (this round's flush, or a concurrent compaction's) absorbs it
            // by re-cutting a fresh MANIFEST (O5), so the live trace always
            // carries a `manifest_recut` event with its cause-tagged
            // barriers — which CI then validates against the schema.
            fault.extend_plan(
                bolt_env::FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").expect("static plan"),
            );
        }
        db.flush()?;
        // Drain incrementally so the ring buffer cannot overflow mid-run.
        events.extend(db.events());
    }
    // Schema v4 events: a ranged tombstone straddling a resident prefix
    // (range_delete, then dropped by the compaction below) and an online
    // checkpoint (checkpoint_begin/checkpoint_end plus checkpoint-cause
    // barriers). The checkpoint comes after the final compaction so its
    // pinned version does not suppress the hole_punch events above.
    db.delete_range(b"r01/", b"r02/")?;
    db.flush()?;
    events.extend(db.events());
    db.compact_until_quiet()?;
    events.extend(db.events());
    db.checkpoint("trace-ckpt")?;
    events.extend(db.events());
    db.close()?;
    // Close issues the final WAL barrier; pick it up before snapshotting.
    events.extend(db.events());
    let metrics = db.metrics();
    Ok((events, metrics))
}

/// `bolt-tool trace`: run [`trace_workload`] and render the event stream,
/// one event per line — JSON lines with `--json`, aligned text otherwise.
///
/// # Errors
///
/// Returns engine errors from the workload.
pub fn trace(json_lines: bool) -> Result<String> {
    let (events, metrics) = trace_workload()?;
    let mut out = String::new();
    for event in &events {
        if json_lines {
            writeln!(out, "{}", event.to_json()).expect("write");
        } else {
            writeln!(
                out,
                "#{:<6} {:>9} us  {}",
                event.seq,
                event.micros,
                event.event.describe()
            )
            .expect("write");
        }
    }
    if !json_lines {
        writeln!(
            out,
            "({} events, {} dropped, {:.2} barriers/compaction)",
            metrics.events_emitted,
            metrics.events_dropped,
            metrics.barriers_per_compaction()
        )
        .expect("write");
        out.push_str(&render_compaction_ledger(&events));
    }
    Ok(out)
}

/// Validate `bolt-tool trace --json` output (one JSON object per line)
/// against a JSON schema document. Returns the number of validated lines.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the schema or any line fails to parse,
/// or [`Error::InvalidArgument`] listing every schema violation found.
pub fn validate_trace_lines(output: &str, schema_text: &str) -> Result<usize> {
    validate_json_lines(output, schema_text)
}

/// Validate any JSON Lines stream (one object per line, blank lines
/// skipped) against a JSON schema document — used for both the trace event
/// stream and `bolt-lint --json` findings. Returns the number of validated
/// lines.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the schema or any line fails to parse,
/// or [`Error::InvalidArgument`] listing every schema violation found.
pub fn validate_json_lines(output: &str, schema_text: &str) -> Result<usize> {
    let schema = json::parse(schema_text)?;
    let mut checked = 0usize;
    let mut violations = Vec::new();
    for (lineno, line) in output.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = json::parse(line)
            .map_err(|e| Error::corruption(format!("line {}: {e}", lineno + 1)))?;
        for v in json::validate(&schema, &value) {
            violations.push(format!("line {}: {v}", lineno + 1));
        }
        checked += 1;
    }
    if violations.is_empty() {
        Ok(checked)
    } else {
        Err(Error::InvalidArgument(violations.join("\n")))
    }
}

/// Decode the live MANIFEST into human-readable version edits.
///
/// # Errors
///
/// Returns I/O or corruption errors.
pub fn dump_manifest(env: &Arc<dyn Env>, db: &str) -> Result<String> {
    let current = env.new_random_access_file(&bolt_env::join_path(db, "CURRENT"))?;
    let name = String::from_utf8(current.read(0, current.len() as usize)?)
        .map_err(|_| Error::corruption("CURRENT not utf-8"))?;
    let manifest_path = bolt_env::join_path(db, name.trim());
    let mut reader = LogReader::new(env.new_random_access_file(&manifest_path)?);
    let mut out = String::new();
    writeln!(out, "manifest: {}", name.trim()).expect("write");
    let mut index = 0usize;
    while let Some(record) = reader.read_record()? {
        let edit = bolt_core::version::VersionEdit::decode(&record)?;
        writeln!(out, "edit #{index}:").expect("write");
        if let Some(v) = edit.log_number {
            writeln!(out, "  log_number: {v}").expect("write");
        }
        if let Some(v) = edit.next_file_number {
            writeln!(out, "  next_file: {v}").expect("write");
        }
        if let Some(v) = edit.next_table_id {
            writeln!(out, "  next_table: {v}").expect("write");
        }
        if let Some(v) = edit.last_sequence {
            writeln!(out, "  last_sequence: {v}").expect("write");
        }
        if let Some(v) = edit.compaction_policy {
            writeln!(out, "  compaction_policy: {}", v.as_str()).expect("write");
        }
        for (level, id) in &edit.deleted_tables {
            writeln!(out, "  delete: L{level} table#{id}").expect("write");
        }
        for (segment, offset, len) in &edit.vlog_dead {
            writeln!(out, "  vlog_dead: segment {segment:06} @{offset}+{len}").expect("write");
        }
        for segment in &edit.vlog_deleted {
            writeln!(out, "  vlog_retire: segment {segment:06}").expect("write");
        }
        for (level, tag, meta) in &edit.added_tables {
            writeln!(
                out,
                "  add: L{level} run={tag} table#{} file={:06} @{}+{} entries={} [{}..{}]",
                meta.table_id,
                meta.file_number,
                meta.offset,
                meta.size,
                meta.num_entries,
                String::from_utf8_lossy(meta.smallest_user_key()),
                String::from_utf8_lossy(meta.largest_user_key()),
            )
            .expect("write");
        }
        index += 1;
    }
    Ok(out)
}

/// List every live logical SSTable grouped by physical file.
///
/// # Errors
///
/// Returns open/recovery errors.
pub fn dump_tables(env: &Arc<dyn Env>, db_name: &str, opts: Options) -> Result<String> {
    let db = open(env, db_name, opts)?;
    let version = db.current_version();
    let mut by_file: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut logical = 0usize;
    for (level, tag, table) in version.all_tables() {
        logical += 1;
        by_file.entry(table.file_number).or_default().push(format!(
            "  L{level} run={tag} table#{} @{}+{} entries={} [{}..{}]",
            table.table_id,
            table.offset,
            table.size,
            table.num_entries,
            String::from_utf8_lossy(table.smallest_user_key()),
            String::from_utf8_lossy(table.largest_user_key()),
        ));
    }
    let mut out = String::new();
    writeln!(
        out,
        "{} logical SSTable(s) in {} physical file(s):",
        logical,
        by_file.len()
    )
    .expect("write");
    for (file, mut lines) in by_file {
        let physical = env
            .file_size(&bolt_env::join_path(db_name, &format!("{file:06}.sst")))
            .unwrap_or(0);
        writeln!(out, "{file:06}.sst ({physical} B):").expect("write");
        lines.sort();
        for line in lines {
            writeln!(out, "{line}").expect("write");
        }
    }
    db.close()?;
    Ok(out)
}

/// Print up to `limit` live entries starting at `start`.
///
/// # Errors
///
/// Returns open or read errors.
pub fn scan(
    env: &Arc<dyn Env>,
    db: &str,
    opts: Options,
    start: &[u8],
    limit: usize,
) -> Result<String> {
    let db = open(env, db, opts)?;
    let mut iter = db.iter()?;
    if start.is_empty() {
        iter.seek_to_first()?;
    } else {
        iter.seek(start)?;
    }
    let mut out = String::new();
    let mut n = 0usize;
    while iter.valid() && n < limit {
        writeln!(
            out,
            "{} => {}",
            String::from_utf8_lossy(iter.key()),
            String::from_utf8_lossy(iter.value())
        )
        .expect("write");
        n += 1;
        iter.next()?;
    }
    writeln!(out, "({n} entries)").expect("write");
    db.close()?;
    Ok(out)
}

/// Point lookup.
///
/// # Errors
///
/// Returns open or read errors.
pub fn get(env: &Arc<dyn Env>, db: &str, opts: Options, key: &[u8]) -> Result<Option<Vec<u8>>> {
    let db = open(env, db, opts)?;
    let value = db.get(key)?;
    db.close()?;
    Ok(value)
}

/// Insert one key.
///
/// # Errors
///
/// Returns open or write errors.
pub fn put(env: &Arc<dyn Env>, db: &str, opts: Options, key: &[u8], value: &[u8]) -> Result<()> {
    let db = open(env, db, opts)?;
    db.put(key, value)?;
    db.close()
}

/// Delete one key.
///
/// # Errors
///
/// Returns open or write errors.
pub fn delete_key(env: &Arc<dyn Env>, db: &str, opts: Options, key: &[u8]) -> Result<()> {
    let db = open(env, db, opts)?;
    db.delete(key)?;
    db.close()
}

/// Bulk-load `records` YCSB-style records of `value_len` bytes.
///
/// # Errors
///
/// Returns open or write errors.
pub fn load(
    env: &Arc<dyn Env>,
    db: &str,
    opts: Options,
    records: u64,
    value_len: usize,
) -> Result<String> {
    let db = Arc::new(open(env, db, opts)?);
    let cfg = bolt_ycsb::BenchConfig {
        record_count: records,
        op_count: 0,
        threads: 4,
        value_len,
        seed: 1,
    };
    let result = bolt_ycsb::load_db(&db, &cfg)?;
    db.flush()?;
    db.compact_until_quiet()?;
    let out = format!(
        "loaded {} records ({} B values) at {:.0} ops/s\n",
        records,
        value_len,
        result.throughput()
    );
    db.close()?;
    Ok(out)
}

/// Flush and compact until the tree is quiescent.
///
/// # Errors
///
/// Returns open or background errors.
pub fn compact(env: &Arc<dyn Env>, db: &str, opts: Options) -> Result<String> {
    let db = open(env, db, opts)?;
    db.flush()?;
    db.compact_until_quiet()?;
    let levels = db.level_info();
    db.close()?;
    Ok(format!("compacted; levels: {levels:?}\n"))
}

/// Integrity walk: open every live logical SSTable, iterate every entry
/// (verifying block checksums along the way), and check the structural
/// invariants — tables sorted and disjoint within each run, entries sorted
/// within each table, table metadata matching contents.
///
/// # Errors
///
/// Returns the first corruption found, or open errors.
pub fn verify(env: &Arc<dyn Env>, db_name: &str, opts: Options) -> Result<String> {
    let db = open(env, db_name, opts.clone())?;
    let (tables_checked, entries_checked) = verify_db(&db)?;
    db.close()?;
    Ok(format!(
        "ok: {tables_checked} logical SSTable(s), {entries_checked} entries verified\n"
    ))
}

/// The integrity walk behind [`verify`], reusable against an already-open
/// database (the crash-sweep harness runs it after every recovery). Returns
/// `(tables_checked, entries_checked)`.
///
/// # Errors
///
/// Returns the first corruption found, or read errors.
pub fn verify_db(db: &Db) -> Result<(usize, u64)> {
    let db_name = db.name().to_string();
    let version = db.current_version();
    let icmp = bolt_table::comparator::InternalKeyComparator::default();
    let ucmp = icmp.user_comparator();

    let mut tables_checked = 0usize;
    let mut entries_checked = 0u64;

    for (level, state) in version.levels.iter().enumerate() {
        for run in &state.runs {
            // Invariant: tables within a run are sorted and disjoint.
            for pair in run.tables.windows(2) {
                if !ucmp
                    .compare(pair[0].largest_user_key(), pair[1].smallest_user_key())
                    .is_lt()
                {
                    return Err(Error::corruption(format!(
                        "L{level} run {}: tables {} and {} overlap",
                        run.tag, pair[0].table_id, pair[1].table_id
                    )));
                }
            }
            for meta in run.tables.iter() {
                let reader = meta.open(db.table_cache(), &db_name)?;
                let mut iter = reader.iter();
                iter.seek_to_first()?;
                let mut count = 0u64;
                let mut prev: Option<Vec<u8>> = None;
                while iter.valid() {
                    let key = iter.key().to_vec();
                    parse_internal_key(&key)?;
                    if let Some(p) = &prev {
                        if !icmp.compare(p, &key).is_lt() {
                            return Err(Error::corruption(format!(
                                "table {} entries out of order",
                                meta.table_id
                            )));
                        }
                    }
                    if count == 0 && icmp.compare(&key, &meta.smallest).is_ne() {
                        return Err(Error::corruption(format!(
                            "table {} smallest key mismatch",
                            meta.table_id
                        )));
                    }
                    prev = Some(key);
                    count += 1;
                    iter.next()?;
                }
                if count != meta.num_entries {
                    return Err(Error::corruption(format!(
                        "table {} has {count} entries, MANIFEST says {}",
                        meta.table_id, meta.num_entries
                    )));
                }
                if let Some(last) = prev {
                    if icmp.compare(&last, &meta.largest).is_ne() {
                        return Err(Error::corruption(format!(
                            "table {} largest key mismatch",
                            meta.table_id
                        )));
                    }
                }
                tables_checked += 1;
                entries_checked += count;
            }
        }
    }
    Ok((tables_checked, entries_checked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_env::MemEnv;

    fn setup() -> (Arc<dyn Env>, Options) {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        (env, Options::bolt().scaled(1.0 / 256.0))
    }

    fn seed_db(env: &Arc<dyn Env>, opts: &Options) {
        let db = Db::open(Arc::clone(env), "db", opts.clone()).unwrap();
        for i in 0..2000u32 {
            db.put(
                format!("key{i:05}").as_bytes(),
                format!("value{i}").as_bytes(),
            )
            .unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        db.close().unwrap();
    }

    #[test]
    fn lint_json_findings_match_checked_in_schema() {
        // Non-vacuous: analyze a crafted bad source so the JSON stream
        // actually contains error and warn findings, then validate every
        // line against the schema CI uses.
        let cfg = bolt_lint::Config::parse(
            "[order]\nlocks = [\"a.first\", \"a.second\"]\n\
             [aliases]\nfirst = \"a.first\"\nsecond = \"a.second\"\n",
        )
        .unwrap();
        let src = r#"
fn bad(first: &Mutex<S>, second: &Mutex<T>, w: &mut W) {
    let s = second.lock();
    let f = first.lock();
    w.sync();
    drop(f);
    drop(s);
}
fn stale() {
    // bolt-lint: allow(unsynced-commit)
    let x = 1;
}
"#;
        let findings =
            bolt_lint::analyze_sources(&[("bad \"path\".rs".to_string(), src.to_string())], &cfg);
        assert!(
            findings
                .iter()
                .any(|f| f.severity == bolt_lint::Severity::Error),
            "crafted source must produce error findings: {findings:#?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| f.severity == bolt_lint::Severity::Warn),
            "crafted source must produce a dead-allow warning: {findings:#?}"
        );
        let out = bolt_lint::findings_json_lines(&findings);
        let schema = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/lint.schema.json"
        ))
        .unwrap();
        let checked = validate_json_lines(&out, &schema).unwrap();
        assert_eq!(checked, findings.len());

        // A line violating the schema must be rejected.
        let bad = "{\"file\":\"x.rs\",\"line\":0,\"rule\":\"no-such-rule\",\"severity\":\"error\",\"message\":\"m\"}";
        assert!(validate_json_lines(bad, &schema).is_err());
    }

    #[test]
    fn profile_parsing() {
        assert!(profile("bolt").is_ok());
        assert!(profile("rocksbolt").is_ok());
        assert!(profile("bolt_gc").is_ok(), "the ablations are reachable");
        let unknown = profile("nope").unwrap_err().to_string();
        for name in Options::PROFILE_NAMES {
            assert!(unknown.contains(name), "{unknown}");
        }
    }

    #[test]
    fn stats_and_dumps_render() {
        for (name, policy) in [("bolt", "leveled"), ("pebbles", "fragmented")] {
            let env: Arc<dyn Env> = Arc::new(MemEnv::new());
            let opts = profile(name).unwrap().scaled(1.0 / 256.0);
            seed_db(&env, &opts);
            let s = stat(&env, "db", opts.clone(), StatFormat::Text).unwrap();
            let first = format!("compaction policy: {policy}\n");
            assert!(s.starts_with(&first), "{s}");
            assert!(s.contains("levels"), "{s}");
            assert!(s.contains("fsync"), "{s}");
            let m = dump_manifest(&env, "db").unwrap();
            assert!(m.contains(&format!("compaction_policy: {policy}\n")), "{m}");
            assert!(m.contains("add: L"), "{m}");
            let t = dump_tables(&env, "db", opts).unwrap();
            assert!(t.contains("logical SSTable(s)"), "{t}");
            assert!(t.contains(".sst"), "{t}");
        }
    }

    #[test]
    fn stat_formats_come_from_one_snapshot() {
        let (env, opts) = setup();
        seed_db(&env, &opts);
        let text = stat(&env, "db", opts.clone(), StatFormat::Text).unwrap();
        assert!(text.contains("barriers by cause"), "{text}");
        assert!(text.contains("derived:"), "{text}");

        let json_out = stat(&env, "db", opts.clone(), StatFormat::Json).unwrap();
        let doc = json::parse(&json_out).unwrap();
        let entries = doc
            .get("metrics")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        // Engine counters reset on reopen, but the env's I/O counters see the
        // recovery reads/syncs — assert on one of those.
        let fsyncs = entries
            .iter()
            .find(|m| {
                m.get("name").and_then(json::JsonValue::as_str) == Some("bolt_io_fsyncs_total")
            })
            .and_then(|m| m.get("value"))
            .and_then(json::JsonValue::as_f64)
            .unwrap();
        assert!(fsyncs >= 1.0, "{json_out}");

        let prom = stat(&env, "db", opts, StatFormat::Prometheus).unwrap();
        assert!(prom.contains("bolt_flushes_total"), "{prom}");
        assert!(
            prom.contains("bolt_barriers_total{cause=\"open_manifest\"}"),
            "{prom}"
        );
        assert!(prom.contains("bolt_manifest_recuts_total"), "{prom}");
        assert!(prom.contains("bolt_checkpoints_total"), "{prom}");
        assert!(prom.contains("bolt_range_tombstones_live"), "{prom}");
        assert!(text.contains("manifest re-cuts"), "{text}");
        // `stat` opens every live table once, so the table-cache line is a
        // measurement of this database: one device read per open.
        assert!(text.contains(" opens ("), "{text}");
        assert!(text.contains("1.00 reads/open)"), "{text}");
        assert!(!text.contains(" 0 opens"), "{text}");
        assert!(prom.contains("bolt_table_cache_open_reads_total"), "{prom}");
    }

    #[test]
    fn trace_renders_and_validates_against_checked_in_schema() {
        let out = trace(true).unwrap();
        assert!(out.contains("\"type\":\"flush_begin\""), "{out}");
        assert!(out.contains("\"type\":\"compaction_end\""), "{out}");
        assert!(out.contains("\"cause\":\"wal_commit\""), "{out}");
        // The workload arms a MANIFEST EIO mid-run, so the live stream
        // always carries the self-healing re-cut and its barrier cause.
        assert!(out.contains("\"type\":\"manifest_recut\""), "{out}");
        assert!(out.contains("\"cause\":\"manifest_recut\""), "{out}");
        // Schema v4 scenario events: the workload issues one delete_range
        // and one online checkpoint.
        assert!(out.contains("\"type\":\"range_delete\""), "{out}");
        assert!(out.contains("\"type\":\"checkpoint_begin\""), "{out}");
        assert!(out.contains("\"type\":\"checkpoint_end\""), "{out}");
        assert!(out.contains("\"cause\":\"checkpoint\""), "{out}");
        let schema = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/trace.schema.json"
        ))
        .unwrap();
        let checked = validate_trace_lines(&out, &schema).unwrap();
        assert!(checked > 50, "only {checked} events traced");

        // A line violating the schema must be rejected.
        let bad = "{\"seq\":0,\"us\":1,\"type\":\"no_such_event\"}";
        assert!(validate_trace_lines(bad, &schema).is_err());

        let human = trace(false).unwrap();
        assert!(human.contains("barriers/compaction"), "{human}");
        assert!(human.contains("MANIFEST commit"), "{human}");
        assert!(human.contains("MANIFEST re-cut"), "{human}");
    }

    #[test]
    fn point_ops_and_scan() {
        let (env, opts) = setup();
        put(&env, "db", opts.clone(), b"alpha", b"1").unwrap();
        put(&env, "db", opts.clone(), b"beta", b"2").unwrap();
        assert_eq!(
            get(&env, "db", opts.clone(), b"alpha").unwrap(),
            Some(b"1".to_vec())
        );
        delete_key(&env, "db", opts.clone(), b"alpha").unwrap();
        assert_eq!(get(&env, "db", opts.clone(), b"alpha").unwrap(), None);
        let out = scan(&env, "db", opts, b"", 10).unwrap();
        assert!(out.contains("beta => 2"), "{out}");
        assert!(out.contains("(1 entries)"), "{out}");
    }

    #[test]
    fn load_then_verify() {
        let (env, opts) = setup();
        let out = load(&env, "db", opts.clone(), 1500, 64).unwrap();
        assert!(out.contains("loaded 1500 records"), "{out}");
        let out = verify(&env, "db", opts).unwrap();
        assert!(out.starts_with("ok:"), "{out}");
    }

    #[test]
    fn verify_detects_corruption() {
        let (env, opts) = setup();
        seed_db(&env, &opts);
        // Find a live table file and flip one byte in the middle.
        let db = Db::open(Arc::clone(&env), "db", opts.clone()).unwrap();
        let version = db.current_version();
        let (_, _, table) = version.all_tables().next().expect("a table");
        let path = format!("db/{:06}.sst", table.file_number);
        let offset = table.offset + table.size / 2;
        db.close().unwrap();

        let r = env.new_random_access_file(&path).unwrap();
        let mut bytes = r.read(0, r.len() as usize).unwrap();
        bytes[offset as usize] ^= 0xff;
        let mut f = env.new_writable_file(&path).unwrap();
        f.append(&bytes).unwrap();
        f.sync().unwrap();
        drop(f);

        let err = verify(&env, "db", opts).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
    }

    #[test]
    fn compact_reports_levels() {
        let (env, opts) = setup();
        seed_db(&env, &opts);
        let out = compact(&env, "db", opts).unwrap();
        assert!(out.contains("compacted"), "{out}");
    }
}
