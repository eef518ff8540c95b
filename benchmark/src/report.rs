//! From run outcomes to named metrics, and their text and JSON forms.
//!
//! End-to-end metrics always come from the untraced run. Per-layer metrics
//! describe the measured phase of the traced run (the drain is reported on
//! its own), plus the layer probes, plus user-visible numbers that are not
//! gated (`run.*`), which again come from the untraced run.

use std::fmt::Write as _;

use bolt::BarrierCause;

use crate::config::{self, SCAN_ROWS};
use crate::gen::{KEY_LEN, VALUE_LEN};
use crate::json;
use crate::trace::{self_times, EnvOp, FileClass, OpKind, OpTotals};
use crate::workload::{Class, OpStream, RunOutcome, RunSpec};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The metrics a user of the store sees; every workload reports all of
/// them, and none is ever 0.
pub fn end_to_end(run: &RunOutcome) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", run.setup_median_s()),
        Metric::new("ops_per_s", "1/s", ratio(run.ops() as f64, run.measured_s)),
        Metric::new("op_p50_us", "us", run.op_latency().percentile_us(0.50)),
        Metric::new("write_amp", "ratio", run.write_amp),
        Metric::new("space_amp", "ratio", run.space_amp),
    ]
}

/// Share of raw operation-span time on which the children recorded under
/// the span and the interval arithmetic over raw spans disagree.
fn self_time_mismatch(traced: &RunOutcome) -> f64 {
    let Some(recorder) = &traced.recorder else {
        return 0.0;
    };
    let spans = recorder.raw_spans();
    let from_raw: u64 = self_times(&spans)
        .iter()
        .filter(|(name, _)| name.starts_with("op."))
        .map(|(_, t)| t.child_ns)
        .sum();
    let (inline, total) = spans
        .iter()
        .filter(|s| s.name.starts_with("op."))
        .fold((0u64, 0u64), |(c, t), s| {
            (c + s.child_ns, t + s.duration_ns())
        });
    ratio(from_raw.abs_diff(inline) as f64, total as f64)
}

/// The per-layer metrics of one workload: `traced` and `untraced` are runs
/// of the same workload and seed, `probes` the layer probes.
pub fn per_layer(
    traced: &RunOutcome,
    untraced: &RunOutcome,
    probes: &[Metric],
    reads_per_table_open: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        out.push(Metric::new(name, unit, value));
    };
    let secs = |ns: u64| ns as f64 / 1e9;

    let ops = traced.ops() as f64;
    let measured_s = traced.measured_s;
    let env = traced.after.env.clone().unwrap_or_default();
    let db = traced.after.db();
    let db0 = traced.before.db();
    let no_trace = OpTotals::default();
    let op = |kind: OpKind| {
        traced
            .report
            .trace
            .as_ref()
            .map_or(&no_trace, |t| t.totals(kind))
    };
    let barriers = |cause: BarrierCause| {
        (traced.after.metrics.barrier_count(cause) - traced.before.metrics.barrier_count(cause))
            as f64
    };

    // env
    let all = |op: EnvOp| env.sum(op, None, None);
    push("env.append.count", "count", all(EnvOp::Append).count as f64);
    push("env.append.bytes", "B", all(EnvOp::Append).bytes as f64);
    push("env.append.busy_s", "s", secs(all(EnvOp::Append).busy_ns));
    push("env.sync.count", "count", all(EnvOp::Sync).count as f64);
    push("env.sync.busy_s", "s", secs(all(EnvOp::Sync).busy_ns));
    push("env.read.count", "count", all(EnvOp::Read).count as f64);
    push("env.read.bytes", "B", all(EnvOp::Read).bytes as f64);
    push("env.read.busy_s", "s", secs(all(EnvOp::Read).busy_ns));
    push("env.open.count", "count", all(EnvOp::Open).count as f64);
    push("env.open.busy_s", "s", secs(all(EnvOp::Open).busy_ns));
    push("env.create.count", "count", all(EnvOp::Create).count as f64);
    push("env.delete.count", "count", all(EnvOp::Delete).count as f64);
    push("env.rename.count", "count", all(EnvOp::Rename).count as f64);
    push("env.punch.count", "count", all(EnvOp::Punch).count as f64);
    push("env.punch.bytes", "B", all(EnvOp::Punch).bytes as f64);
    push("env.other.count", "count", all(EnvOp::Other).count as f64);
    let meta_ops: u64 = [
        EnvOp::Open,
        EnvOp::Create,
        EnvOp::Delete,
        EnvOp::Rename,
        EnvOp::Punch,
        EnvOp::Other,
    ]
    .iter()
    .map(|&op| all(op).count)
    .sum();
    push(
        "env.meta_ops_per_kop",
        "1/kop",
        ratio(meta_ops as f64 * 1e3, ops),
    );
    push(
        "env.fg_busy_frac",
        "ratio",
        ratio(secs(env.busy_ns(false)), measured_s),
    );
    push("env.bg_busy_s", "s", secs(env.busy_ns(true)));
    push(
        "env.barriers.wal_commit",
        "count",
        barriers(BarrierCause::WalCommit),
    );
    push(
        "env.barriers.flush_data",
        "count",
        barriers(BarrierCause::FlushData),
    );
    push(
        "env.barriers.flush_manifest",
        "count",
        barriers(BarrierCause::FlushManifest),
    );
    push(
        "env.barriers.compaction_data",
        "count",
        barriers(BarrierCause::CompactionData),
    );
    push(
        "env.barriers.compaction_manifest",
        "count",
        barriers(BarrierCause::CompactionManifest),
    );
    push(
        "env.barriers.unattributed",
        "count",
        barriers(BarrierCause::Unattributed),
    );

    // wal
    let wal_append = env.sum(EnvOp::Append, Some(FileClass::Wal), None);
    let user_bytes = traced.report.latency[Class::Write as usize].count() * config::RECORD_BYTES;
    push("wal.bytes", "B", wal_append.bytes as f64);
    push(
        "wal.bytes_per_user_byte",
        "ratio",
        ratio(wal_append.bytes as f64, user_bytes as f64),
    );
    push("wal.append.busy_s", "s", secs(wal_append.busy_ns));
    push(
        "wal.syncs",
        "count",
        env.sum(EnvOp::Sync, Some(FileClass::Wal), None).count as f64,
    );

    // core.write
    let groups = (db.write_groups - db0.write_groups) as f64;
    let stall_s = secs(db.stall_nanos - db0.stall_nanos);
    let slowdowns = (db.slowdowns - db0.slowdowns) as f64;
    push(
        "core.write.self_us",
        "us",
        op(OpKind::Put).mean_self_ns() / 1e3,
    );
    push("core.write.groups", "count", groups);
    push(
        "core.write.batches_per_group",
        "ratio",
        ratio((db.group_batches - db0.group_batches) as f64, groups),
    );
    push(
        "core.write.queue_wait_p99_us",
        "us",
        traced.after.metrics.queue_wait.p99 as f64 / 1e3,
    );
    push(
        "core.write.stall_count",
        "count",
        (db.stalls - db0.stalls) as f64,
    );
    push("core.write.stall_s", "s", stall_s);
    push("core.write.slowdown_count", "count", slowdowns);
    push(
        "core.write.throttled_frac",
        "ratio",
        ratio(stall_s + slowdowns * 1e-3, measured_s),
    );

    // core.flush and core.compaction
    let flush_busy_s = secs(traced.events.flush_busy_ns);
    let compaction_busy_s = secs(traced.events.compaction_busy_ns);
    let compactions = (db.compactions - db0.compactions) as f64;
    let compaction_barriers =
        barriers(BarrierCause::CompactionData) + barriers(BarrierCause::CompactionManifest);
    let output_bytes = (db.compaction_output_bytes - db0.compaction_output_bytes) as f64;
    push(
        "core.flush.count",
        "count",
        (db.flushes - db0.flushes) as f64,
    );
    push(
        "core.flush.bytes",
        "B",
        (db.flush_bytes - db0.flush_bytes) as f64,
    );
    push("core.flush.busy_s", "s", flush_busy_s);
    push("core.compaction.count", "count", compactions);
    push("core.compaction.busy_s", "s", compaction_busy_s);
    push(
        "core.compaction.input_bytes",
        "B",
        (db.compaction_input_bytes - db0.compaction_input_bytes) as f64,
    );
    push("core.compaction.output_bytes", "B", output_bytes);
    push(
        "core.compaction.settled_moves",
        "count",
        (db.settled_moves - db0.settled_moves) as f64,
    );
    push(
        "core.compaction.trivial_moves",
        "count",
        (db.trivial_moves - db0.trivial_moves) as f64,
    );
    push(
        "core.compaction.seek_compactions",
        "count",
        (db.seek_compactions - db0.seek_compactions) as f64,
    );
    push(
        "core.compaction.barriers_per_compaction",
        "ratio",
        ratio(compaction_barriers, compactions),
    );
    push(
        "core.compaction.bytes_per_barrier",
        "B",
        ratio(output_bytes, compaction_barriers),
    );
    push(
        "core.compaction.bg_self_s",
        "s",
        (flush_busy_s + compaction_busy_s - secs(env.busy_ns(true))).max(0.0),
    );
    push(
        "core.compaction.bg_util",
        "ratio",
        ratio(flush_busy_s + compaction_busy_s, measured_s),
    );

    // core.versions
    push(
        "core.versions.manifest_bytes",
        "B",
        env.sum(EnvOp::Append, Some(FileClass::Manifest), None)
            .bytes as f64,
    );
    push(
        "core.versions.manifest_sync_s",
        "s",
        secs(
            env.sum(EnvOp::Sync, Some(FileClass::Manifest), None)
                .busy_ns,
        ),
    );
    push(
        "core.versions.l0_runs_max",
        "count",
        traced.events.l0_runs_max as f64,
    );
    push(
        "core.versions.levels_nonempty",
        "count",
        traced.events.levels_nonempty as f64,
    );

    // core.read
    let get = op(OpKind::Get);
    let gets = get.durations.count() as f64;
    push("core.read.self_us", "us", get.mean_self_ns() / 1e3);
    push(
        "core.read.env_reads_per_get",
        "ratio",
        ratio(get.env_reads as f64, gets),
    );
    push(
        "core.read.env_bytes_per_get",
        "B",
        ratio(get.env_read_bytes as f64, gets),
    );
    push(
        "core.read.found_frac",
        "ratio",
        ratio(traced.report.gets_found as f64, gets),
    );

    // table
    let hits = (traced.after.table_cache_hits - traced.before.table_cache_hits) as f64;
    let misses = (traced.after.table_cache_misses - traced.before.table_cache_misses) as f64;
    let opens = (traced.after.table_cache_opens - traced.before.table_cache_opens) as f64;
    // Exact while the background is idle; compaction opens tables too.
    let table_reads = env
        .sum(EnvOp::Read, Some(FileClass::Table), Some(false))
        .count as f64;
    push("table.cache.hit_ratio", "ratio", ratio(hits, hits + misses));
    push("table.cache.opens", "count", opens);
    push(
        "table.cache.evictions",
        "count",
        (traced.after.table_cache_evictions - traced.before.table_cache_evictions) as f64,
    );
    push(
        "table.block_miss_per_op",
        "ratio",
        ratio((table_reads - reads_per_table_open * opens).max(0.0), ops),
    );

    // core.iterator
    let scans = op(OpKind::Next).durations.count() as f64;
    let scan_parts = [OpKind::IterCreate, OpKind::Seek, OpKind::Next];
    let scan_reads: u64 = scan_parts.iter().map(|&k| op(k).env_reads).sum();
    let scan_bytes: u64 = scan_parts.iter().map(|&k| op(k).env_read_bytes).sum();
    push(
        "core.iterator.create_us",
        "us",
        op(OpKind::IterCreate).durations.mean_ns() / 1e3,
    );
    push(
        "core.iterator.seek_self_us",
        "us",
        op(OpKind::Seek).mean_self_ns() / 1e3,
    );
    push(
        "core.iterator.next_self_ns",
        "ns",
        op(OpKind::Next).mean_self_ns() / SCAN_ROWS as f64,
    );
    push(
        "core.iterator.env_reads_per_scan",
        "ratio",
        ratio(scan_reads as f64, scans),
    );
    push(
        "core.iterator.env_bytes_per_scan",
        "B",
        ratio(scan_bytes as f64, scans),
    );

    // core.open
    push("core.open.reopen_s", "s", untraced.reopen_s);

    // trace
    let untraced_rate = ratio(untraced.ops() as f64, untraced.measured_s);
    push(
        "trace.overhead_frac",
        "ratio",
        1.0 - ratio(ratio(ops, measured_s), untraced_rate),
    );
    push(
        "trace.events_dropped",
        "count",
        (traced.after.metrics.events_dropped - traced.before.metrics.events_dropped) as f64,
    );
    push(
        "trace.spans",
        "count",
        traced.recorder.as_ref().map_or(0, |r| r.span_count()) as f64,
    );
    push("trace.io_mismatches", "count", traced.io_mismatches as f64);
    push(
        "trace.self_time_mismatch_frac",
        "ratio",
        self_time_mismatch(traced),
    );

    // User-visible numbers that are reported but not gated.
    let class = |c: Class| &untraced.report.latency[c as usize];
    push("run.ops", "count", untraced.ops() as f64);
    let spec = &untraced.spec;
    push(
        "run.clients",
        "count",
        spec.workload.clients(spec.cores) as f64,
    );
    push(
        "run.op_p99_us",
        "us",
        untraced.op_latency().percentile_us(0.99),
    );
    push(
        "run.op_p999_us",
        "us",
        untraced.op_latency().percentile_us(0.999),
    );
    push("run.drain_s", "s", untraced.drain_s);
    push(
        "run.measured_write_amp",
        "ratio",
        untraced.measured_write_amp,
    );
    push(
        "run.peak_rss_mb",
        "MiB",
        untraced.peak_rss_mb.max(traced.peak_rss_mb),
    );
    for (c, name) in [
        (Class::Read, "read"),
        (Class::Write, "write"),
        (Class::Scan, "scan"),
    ] {
        for (p, label) in [(0.50, "p50"), (0.99, "p99"), (0.999, "p999")] {
            push(
                &format!("run.{name}_{label}_us"),
                "us",
                class(c).percentile_us(p),
            );
        }
    }
    push(
        "run.failed_frac",
        "ratio",
        ratio(
            (untraced.report.failed + traced.report.failed) as f64,
            (untraced.report.attempted + traced.report.attempted) as f64,
        ),
    );

    out.extend_from_slice(probes);
    out
}

/// The pinned configuration, printed by every run.
pub fn header(spec: &RunSpec, trace: bool) -> String {
    let device = config::device_model();
    let opts = config::engine_options();
    let workload = spec.workload;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# bolt benchmark: workload {} seed {} seconds {} trace {}",
        workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(trace)
    );
    let _ = writeln!(
        out,
        "# load: closed loop, {} client thread(s) + 1 engine background thread, nproc {}",
        workload.clients(spec.cores),
        spec.cores
    );
    let _ = writeln!(
        out,
        "# device: SimEnv write {} MiB/s, read {} MiB/s, read base {} us, barrier {} us, \
         time_scale {} (latencies are this model's, not a device's)",
        device.write_bandwidth >> 20,
        device.read_bandwidth >> 20,
        device.read_base_latency.as_micros(),
        device.barrier_latency.as_micros(),
        device.time_scale
    );
    let _ = writeln!(
        out,
        "# engine: Options::bolt().scaled(1/64): memtable {} KiB, block cache {} KiB, \
         table cache {} tables, sync_wal {}",
        opts.memtable_bytes >> 10,
        opts.block_cache_bytes >> 10,
        opts.max_open_files,
        opts.sync_wal
    );
    let _ = writeln!(
        out,
        "# records: {KEY_LEN}-byte keys, {VALUE_LEN}-byte values; set-up: preload({}) in steps \
         of {} + {} warm-up operations",
        spec.preload_records(),
        config::PRELOAD_STEP,
        workload.warmup_ops()
    );
    let _ = writeln!(out, "# measured operation: {}", workload.operation());
    let stream = OpStream::new(workload, spec.seed, 0, spec.preload_records().max(1));
    let _ = writeln!(
        out,
        "# fingerprint of client 0's first 1000 operations: {:016x}",
        stream.fingerprint(1000)
    );
    out
}

/// One line per metric: name, value, unit.
pub fn text_table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}
