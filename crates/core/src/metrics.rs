//! The merged observability surface.
//!
//! Historically callers stitched three sources by hand — `Db::stats()`,
//! `env.stats()`, and `Db::level_info()` — to build one report.
//! [`MetricsSnapshot`] (returned by [`crate::Db::metrics`]) merges all of
//! them plus the event subsystem's per-cause barrier counters and the
//! derived ratios the paper reports, and lowers into a
//! [`MetricsRegistry`] so the JSON and Prometheus exporters always emit the
//! same numbers.

use bolt_common::events::BarrierCause;
use bolt_common::metrics::MetricsRegistry;
use bolt_env::IoSnapshot;
use bolt_table::{BlockCacheSnapshot, TableCacheSnapshot};

use crate::db::LevelInfo;
use crate::stats::DbStatsSnapshot;

/// Selected quantiles of the writer queue-wait histogram, captured at
/// snapshot time (the live histogram keeps accumulating).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueWaitSummary {
    /// Number of recorded waits.
    pub count: u64,
    /// Total nanoseconds waited.
    pub sum: u64,
    /// Median wait in nanoseconds.
    pub p50: u64,
    /// 95th-percentile wait in nanoseconds.
    pub p95: u64,
    /// 99th-percentile wait in nanoseconds.
    pub p99: u64,
    /// Largest recorded wait in nanoseconds.
    pub max: u64,
}

/// A point-in-time merge of every observability source the engine has:
/// engine counters, env I/O counters, per-level shape, queue-wait summary,
/// and per-cause barrier counts from the trace subsystem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Engine counters ([`crate::Db::stats`]).
    pub db: DbStatsSnapshot,
    /// Env I/O counters (`env.stats().snapshot()`).
    pub io: IoSnapshot,
    /// Per-level shape (runs, tables, bytes).
    pub levels: Vec<LevelInfo>,
    /// Stable name of the compaction policy this database runs
    /// (`leveled`, `size_tiered`, `lazy_leveled`, or `fragmented`; empty
    /// in a default snapshot, rendered as `leveled`).
    pub policy: &'static str,
    /// Writer time-in-queue summary.
    pub queue_wait: QueueWaitSummary,
    /// Cumulative barriers attributed to each cause, in
    /// [`BarrierCause::ALL`] order.
    pub barriers_by_cause: Vec<(BarrierCause, u64)>,
    /// Events emitted to the ring since open (including dropped ones).
    pub events_emitted: u64,
    /// Events overwritten before being drained.
    pub events_dropped: u64,
    /// Successful self-healing MANIFEST re-cuts since open (O5): failed
    /// commit barriers absorbed without poisoning the writer.
    pub manifest_recuts: u64,
    /// What GC is holding back, read from the reclaim ledger: bytes of dead
    /// ranges awaiting a hole punch (behind a reader, a checkpoint pin or
    /// link, or a failed punch) …
    pub pending_punch_bytes: u64,
    /// … and condemned files awaiting their unlink.
    pub pending_unlink_files: u64,
    /// Range tombstones recorded across live tables in the current version
    /// (sum of the MANIFEST per-table counts; drops to 0 once compaction
    /// has rewritten every covered span).
    pub range_tombstones_live: u64,
    /// The table cache's own counters, read from it at snapshot time: hits,
    /// misses, opens, the device reads and bytes those opens cost, and
    /// readers cached straight from a flush or compaction.
    pub table_cache: TableCacheSnapshot,
    /// The data-block cache's counters, summed over its shards at snapshot
    /// time: hits, misses, evictions and the bytes it holds.
    pub block_cache: BlockCacheSnapshot,
}

impl MetricsSnapshot {
    /// Cumulative barriers attributed to `cause` (0 if never seen).
    pub fn barrier_count(&self, cause: BarrierCause) -> u64 {
        self.barriers_by_cause
            .iter()
            .find(|(c, _)| *c == cause)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Total device barriers (full + ordering-only).
    pub fn total_barriers(&self) -> u64 {
        self.io.fsync_calls + self.io.ordering_barriers
    }

    /// Device bytes written per user byte accepted.
    pub fn write_amplification(&self) -> f64 {
        self.db.write_amplification(self.io.bytes_written)
    }

    /// Barriers paid per compaction (data + MANIFEST causes over completed
    /// compactions) — the paper's headline metric. BoLT's rewrite
    /// compactions pay exactly 2; settled-only compactions pay 1 (MANIFEST
    /// only), pulling the average below 2.
    pub fn barriers_per_compaction(&self) -> f64 {
        if self.db.compactions == 0 {
            0.0
        } else {
            let n = self.barrier_count(BarrierCause::CompactionData)
                + self.barrier_count(BarrierCause::CompactionManifest);
            n as f64 / self.db.compactions as f64
        }
    }

    /// WAL barriers per committed batch (below 1.0 under group commit).
    pub fn wal_syncs_per_batch(&self) -> f64 {
        self.db.wal_syncs_per_batch()
    }

    /// Average batches merged per commit group.
    pub fn batches_per_group(&self) -> f64 {
        self.db.batches_per_group()
    }

    /// Lower into a [`MetricsRegistry`]: the single source both exporters
    /// iterate, so `to_json` and `to_prometheus_text` cannot disagree.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let d = &self.db;
        for (name, value) in d.registry_counters() {
            reg.counter(name, &[], value);
        }
        reg.gauge(
            "bolt_range_tombstones_live",
            &[],
            self.range_tombstones_live as f64,
        );

        let tc = &self.table_cache;
        reg.counter("bolt_table_cache_hits_total", &[], tc.hits);
        reg.counter("bolt_table_cache_misses_total", &[], tc.misses);
        reg.counter("bolt_table_cache_opens_total", &[], tc.opens);
        reg.counter("bolt_table_cache_open_reads_total", &[], tc.open_reads);
        reg.counter("bolt_table_cache_open_bytes_total", &[], tc.open_bytes);
        reg.counter("bolt_table_cache_warm_inserts_total", &[], tc.warm_inserts);
        let bc = &self.block_cache;
        reg.counter("bolt_block_cache_hits_total", &[], bc.hits);
        reg.counter("bolt_block_cache_misses_total", &[], bc.misses);
        reg.counter("bolt_block_cache_evictions_total", &[], bc.evictions);
        reg.gauge("bolt_block_cache_usage_bytes", &[], bc.usage as f64);

        let io = &self.io;
        reg.counter("bolt_io_fsyncs_total", &[], io.fsync_calls);
        reg.counter("bolt_io_ordering_barriers_total", &[], io.ordering_barriers);
        reg.counter("bolt_io_bytes_written_total", &[], io.bytes_written);
        reg.counter("bolt_io_bytes_read_total", &[], io.bytes_read);
        reg.counter("bolt_io_write_ops_total", &[], io.write_ops);
        reg.counter("bolt_io_read_ops_total", &[], io.read_ops);
        reg.counter("bolt_io_files_created_total", &[], io.files_created);
        reg.counter("bolt_io_files_deleted_total", &[], io.files_deleted);
        reg.counter("bolt_io_holes_punched_total", &[], io.holes_punched);
        reg.counter("bolt_io_hole_bytes_total", &[], io.hole_bytes);
        reg.counter("bolt_io_sync_wait_nanos_total", &[], io.sync_wait_nanos);

        for (cause, n) in &self.barriers_by_cause {
            reg.counter("bolt_barriers_total", &[("cause", cause.as_str())], *n);
        }
        reg.counter("bolt_events_emitted_total", &[], self.events_emitted);
        reg.counter("bolt_events_dropped_total", &[], self.events_dropped);
        reg.counter("bolt_manifest_recuts_total", &[], self.manifest_recuts);
        let (bytes, files) = (self.pending_punch_bytes, self.pending_unlink_files);
        reg.gauge("bolt_reclaim_pending_punch_bytes", &[], bytes as f64);
        reg.gauge("bolt_reclaim_pending_unlink_files", &[], files as f64);

        // Per-policy breakdown: a database runs one policy for life (the
        // MANIFEST pins it), so the label tags this database's series and
        // aggregation across databases sums per policy.
        let policy = [(
            "policy",
            if self.policy.is_empty() {
                "leveled"
            } else {
                self.policy
            },
        )];
        reg.counter("bolt_policy_compactions_total", &policy, d.compactions);
        reg.counter(
            "bolt_policy_compaction_input_bytes_total",
            &policy,
            d.compaction_input_bytes,
        );
        reg.counter(
            "bolt_policy_compaction_output_bytes_total",
            &policy,
            d.compaction_output_bytes,
        );
        reg.gauge(
            "bolt_policy_write_amplification",
            &policy,
            self.write_amplification(),
        );

        for (i, level) in self.levels.iter().enumerate() {
            let label = i.to_string();
            let labels = [("level", label.as_str())];
            reg.gauge("bolt_level_runs", &labels, level.runs as f64);
            reg.gauge("bolt_level_tables", &labels, level.tables as f64);
            reg.gauge("bolt_level_bytes", &labels, level.bytes as f64);
        }

        reg.gauge("bolt_write_amplification", &[], self.write_amplification());
        reg.gauge(
            "bolt_barriers_per_compaction",
            &[],
            self.barriers_per_compaction(),
        );
        reg.gauge("bolt_wal_syncs_per_batch", &[], self.wal_syncs_per_batch());
        reg.gauge("bolt_batches_per_group", &[], self.batches_per_group());

        let qw = &self.queue_wait;
        reg.summary(
            "bolt_queue_wait_nanos",
            &[],
            qw.count,
            qw.sum,
            vec![(0.5, qw.p50), (0.95, qw.p95), (0.99, qw.p99), (1.0, qw.max)],
        );
        reg
    }

    /// Render as one JSON document (via [`MetricsSnapshot::to_registry`]).
    pub fn to_json(&self) -> String {
        self.to_registry().to_json()
    }

    /// Render in the Prometheus text format (via
    /// [`MetricsSnapshot::to_registry`]).
    pub fn to_prometheus_text(&self) -> String {
        self.to_registry().to_prometheus_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_common::metrics::MetricValue;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            db: DbStatsSnapshot {
                flushes: 3,
                compactions: 4,
                user_bytes_written: 100,
                write_groups: 5,
                group_batches: 10,
                wal_syncs: 2,
                range_deletes: 2,
                checkpoints: 1,
                ..Default::default()
            },
            io: IoSnapshot {
                fsync_calls: 9,
                ordering_barriers: 1,
                bytes_written: 400,
                ..Default::default()
            },
            levels: vec![
                LevelInfo {
                    runs: 2,
                    tables: 5,
                    bytes: 1000,
                },
                LevelInfo {
                    runs: 1,
                    tables: 3,
                    bytes: 3000,
                },
            ],
            policy: "leveled",
            queue_wait: QueueWaitSummary {
                count: 10,
                sum: 5000,
                p50: 400,
                p95: 800,
                p99: 900,
                max: 950,
            },
            barriers_by_cause: vec![
                (BarrierCause::CompactionData, 4),
                (BarrierCause::CompactionManifest, 4),
                (BarrierCause::WalCommit, 2),
            ],
            events_emitted: 42,
            events_dropped: 0,
            manifest_recuts: 1,
            pending_punch_bytes: 8192,
            pending_unlink_files: 2,
            range_tombstones_live: 3,
            table_cache: TableCacheSnapshot {
                hits: 30,
                misses: 10,
                opens: 10,
                open_reads: 12,
                open_bytes: 4000,
                warm_inserts: 7,
            },
            block_cache: BlockCacheSnapshot {
                hits: 50,
                misses: 20,
                evictions: 5,
                usage: 65536,
            },
        }
    }

    #[test]
    fn derived_ratios() {
        let m = sample();
        assert!((m.write_amplification() - 4.0).abs() < 1e-9);
        assert!((m.barriers_per_compaction() - 2.0).abs() < 1e-9);
        assert!((m.batches_per_group() - 2.0).abs() < 1e-9);
        assert_eq!(m.total_barriers(), 10);
        assert_eq!(m.barrier_count(BarrierCause::WalCommit), 2);
        assert_eq!(m.barrier_count(BarrierCause::WalClose), 0);
        let empty = MetricsSnapshot::default();
        assert_eq!(empty.barriers_per_compaction(), 0.0);
    }

    #[test]
    fn registry_carries_every_source() {
        let m = sample();
        let reg = m.to_registry();
        assert_eq!(
            reg.find("bolt_flushes_total", &[]),
            Some(&MetricValue::Counter(3))
        );
        assert_eq!(
            reg.find("bolt_io_fsyncs_total", &[]),
            Some(&MetricValue::Counter(9))
        );
        assert_eq!(
            reg.find("bolt_barriers_total", &[("cause", "compaction_data")]),
            Some(&MetricValue::Counter(4))
        );
        assert_eq!(
            reg.find("bolt_level_bytes", &[("level", "1")]),
            Some(&MetricValue::Gauge(3000.0))
        );
        assert!(matches!(
            reg.find("bolt_queue_wait_nanos", &[]),
            Some(&MetricValue::Summary { count: 10, .. })
        ));
        assert_eq!(
            reg.find("bolt_manifest_recuts_total", &[]),
            Some(&MetricValue::Counter(1))
        );
        assert_eq!(
            reg.find("bolt_range_deletes_total", &[]),
            Some(&MetricValue::Counter(2))
        );
        assert_eq!(
            reg.find("bolt_checkpoints_total", &[]),
            Some(&MetricValue::Counter(1))
        );
        for (name, value) in [
            ("bolt_range_tombstones_live", 3.0),
            ("bolt_reclaim_pending_punch_bytes", 8192.0),
            ("bolt_reclaim_pending_unlink_files", 2.0),
        ] {
            assert_eq!(reg.find(name, &[]), Some(&MetricValue::Gauge(value)));
        }
        assert_eq!(
            reg.find("bolt_policy_compactions_total", &[("policy", "leveled")]),
            Some(&MetricValue::Counter(4))
        );
        for (name, value) in [
            ("bolt_table_cache_hits_total", 30),
            ("bolt_table_cache_misses_total", 10),
            ("bolt_table_cache_opens_total", 10),
            ("bolt_table_cache_open_reads_total", 12),
            ("bolt_table_cache_open_bytes_total", 4000),
            ("bolt_table_cache_warm_inserts_total", 7),
            ("bolt_block_cache_hits_total", 50),
            ("bolt_block_cache_misses_total", 20),
            ("bolt_block_cache_evictions_total", 5),
        ] {
            assert_eq!(reg.find(name, &[]), Some(&MetricValue::Counter(value)));
        }
        assert_eq!(
            reg.find("bolt_block_cache_usage_bytes", &[]),
            Some(&MetricValue::Gauge(65536.0))
        );
        assert!((m.table_cache.reads_per_open() - 1.2).abs() < 1e-9);
        assert_eq!(
            reg.find("bolt_policy_write_amplification", &[("policy", "leveled")]),
            Some(&MetricValue::Gauge(4.0))
        );
    }

    #[test]
    fn every_declared_counter_is_exported_once_under_its_registry_name() {
        let db = DbStatsSnapshot::numbered();
        let declared = db.registry_counters();
        let m = MetricsSnapshot {
            db,
            ..Default::default()
        };
        let reg = m.to_registry();
        let json = m.to_json();
        for (i, (name, value)) in declared.iter().enumerate() {
            // Distinct values prove the name is wired to *its* field.
            assert_eq!(*value, i as u64 + 1, "{name} out of table order");
            let hits: Vec<_> = reg
                .entries()
                .iter()
                .filter(|e| e.name == *name && e.labels.is_empty())
                .collect();
            assert_eq!(hits.len(), 1, "{name} exported {} times", hits.len());
            assert_eq!(hits[0].value, MetricValue::Counter(*value), "{name}");
            let line = format!(
                "{{\"name\":\"{name}\",\"type\":\"counter\",\"labels\":{{}},\"value\":{value}}}"
            );
            assert_eq!(json.matches(&line).count(), 1, "{name} in JSON: {json}");
        }
        // Accumulating the table into itself doubles every counter.
        let mut doubled = db;
        doubled.accumulate(&db);
        for ((_, one), (name, two)) in declared.iter().zip(doubled.registry_counters()) {
            assert_eq!(two, one * 2, "{name} skipped by accumulate");
        }
    }

    #[test]
    fn exporters_share_one_source() {
        let m = sample();
        let json = m.to_json();
        let text = m.to_prometheus_text();
        assert!(json.contains("\"name\":\"bolt_barriers_per_compaction\""));
        assert!(text.contains("bolt_barriers_per_compaction 2\n"));
        assert!(json.contains("\"cause\":\"wal_commit\""));
        assert!(text.contains("bolt_barriers_total{cause=\"wal_commit\"} 2\n"));
    }
}
