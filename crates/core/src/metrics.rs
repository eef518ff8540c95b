//! The merged observability surface.
//!
//! [`MetricsSnapshot`] (returned by [`crate::Db::metrics`]) is one
//! point-in-time record of every source the engine has: the counter groups
//! (engine, env I/O, table cache, block cache), the per-level shape, the
//! queue-wait summary, the event subsystem's per-cause barrier counters and
//! what GC holds back. It carries the derived ratios the paper reports, sums
//! across databases ([`MetricsSnapshot::accumulate`]), and lowers into a
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

    /// The compaction policy's stable name (`leveled` in a default
    /// snapshot, whose `policy` is empty).
    pub fn policy_name(&self) -> &'static str {
        if self.policy.is_empty() {
            "leveled"
        } else {
            self.policy
        }
    }

    /// Add `other` (another database's snapshot) into `self`: counters and
    /// per-cause barriers are summed, per-level shapes added elementwise,
    /// and the queue-wait summary merged by summing counts and taking the
    /// maximum of each quantile (a bound: exact cross-database quantiles
    /// would need the raw histograms). `count_io` is false when `other`
    /// shares an env already counted, whose I/O counters it repeats.
    pub fn accumulate(&mut self, other: &MetricsSnapshot, count_io: bool) {
        self.db.accumulate(&other.db);
        if count_io {
            self.io.accumulate(&other.io);
        }
        self.table_cache.accumulate(&other.table_cache);
        self.block_cache.accumulate(&other.block_cache);
        if self.levels.len() < other.levels.len() {
            self.levels
                .resize_with(other.levels.len(), LevelInfo::default);
        }
        for (acc, l) in self.levels.iter_mut().zip(&other.levels) {
            acc.runs += l.runs;
            acc.tables += l.tables;
            acc.bytes += l.bytes;
        }
        let (q, w) = (&mut self.queue_wait, &other.queue_wait);
        *q = QueueWaitSummary {
            count: q.count + w.count,
            sum: q.sum + w.sum,
            p50: q.p50.max(w.p50),
            p95: q.p95.max(w.p95),
            p99: q.p99.max(w.p99),
            max: q.max.max(w.max),
        };
        for (cause, n) in &other.barriers_by_cause {
            match self.barriers_by_cause.iter_mut().find(|(c, _)| c == cause) {
                Some((_, acc)) => *acc += n,
                None => self.barriers_by_cause.push((*cause, *n)),
            }
        }
        self.events_emitted += other.events_emitted;
        self.events_dropped += other.events_dropped;
        self.manifest_recuts += other.manifest_recuts;
        self.pending_punch_bytes += other.pending_punch_bytes;
        self.pending_unlink_files += other.pending_unlink_files;
        self.range_tombstones_live += other.range_tombstones_live;
        // A sum over databases of one policy (a sharded database's shards
        // share one `Options`).
        self.policy = other.policy;
    }

    /// Lower into a [`MetricsRegistry`]: the single source both exporters
    /// iterate, so `to_json` and `to_prometheus_text` cannot disagree.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.db.export(&mut reg);
        reg.gauge(
            "bolt_range_tombstones_live",
            &[],
            self.range_tombstones_live as f64,
        );
        self.table_cache.export(&mut reg);
        self.block_cache.export(&mut reg);
        self.io.export(&mut reg);

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
        let policy = [("policy", self.policy_name())];
        let d = &self.db;
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
                stripe_hits: 24,
                misses: 10,
                opens: 10,
                open_reads: 12,
                open_bytes: 4000,
                warm_inserts: 7,
            },
            block_cache: BlockCacheSnapshot {
                hits: 50,
                stripe_hits: 45,
                misses: 20,
                evictions: 5,
                usage: 65536,
                warm_inserts: 12,
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
            ("bolt_table_cache_stripe_hits_total", 24),
            ("bolt_table_cache_misses_total", 10),
            ("bolt_table_cache_opens_total", 10),
            ("bolt_table_cache_open_reads_total", 12),
            ("bolt_table_cache_open_bytes_total", 4000),
            ("bolt_table_cache_warm_inserts_total", 7),
            ("bolt_block_cache_hits_total", 50),
            ("bolt_block_cache_stripe_hits_total", 45),
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

    /// A snapshot in which every counter of every group holds a distinct
    /// value: the engine table numbered from 1 (the golden skips 12 and
    /// 13), every other source by hundreds.
    fn every_counter_distinct() -> MetricsSnapshot {
        MetricsSnapshot {
            db: DbStatsSnapshot {
                flushes: 1,
                compactions: 2,
                settled_moves: 3,
                trivial_moves: 4,
                seek_compactions: 5,
                compaction_input_bytes: 6,
                compaction_victim_bytes: 7,
                compaction_overlap_bytes: 8,
                compaction_read_ops: 9,
                compaction_read_bytes: 10,
                compaction_read_wait_nanos: 11,
                compaction_retries: 12,
                compaction_output_bytes: 14,
                flush_bytes: 15,
                flush_busy_nanos: 16,
                compaction_busy_nanos: 17,
                slowdowns: 18,
                stalls: 19,
                stall_nanos: 20,
                user_bytes_written: 21,
                write_groups: 22,
                group_batches: 23,
                wal_syncs: 24,
                wal_syncs_elided: 25,
                vlog_values_separated: 26,
                vlog_bytes_written: 27,
                vlog_resolves: 28,
                vlog_dead_bytes: 29,
                vlog_segments_retired: 30,
                range_deletes: 31,
                checkpoints: 32,
                stalls_imm_pending: 33,
                stall_nanos_imm_pending: 34,
                stalls_l0_stop: 35,
                stall_nanos_l0_stop: 36,
            },
            io: IoSnapshot {
                fsync_calls: 101,
                ordering_barriers: 102,
                bytes_written: 103,
                bytes_read: 104,
                write_ops: 105,
                read_ops: 106,
                files_created: 107,
                files_deleted: 108,
                holes_punched: 109,
                hole_bytes: 110,
                sync_wait_nanos: 111,
            },
            table_cache: TableCacheSnapshot {
                hits: 201,
                stripe_hits: 207,
                misses: 202,
                opens: 203,
                open_reads: 204,
                open_bytes: 205,
                warm_inserts: 206,
            },
            block_cache: BlockCacheSnapshot {
                hits: 301,
                stripe_hits: 305,
                misses: 302,
                evictions: 303,
                usage: 304,
                warm_inserts: 306,
            },
            events_emitted: 401,
            events_dropped: 402,
            manifest_recuts: 403,
            pending_punch_bytes: 404,
            pending_unlink_files: 405,
            range_tombstones_live: 406,
            barriers_by_cause: BarrierCause::ALL.iter().copied().zip(501..).collect(),
            levels: vec![
                LevelInfo {
                    runs: 601,
                    tables: 602,
                    bytes: 603,
                },
                LevelInfo {
                    runs: 604,
                    tables: 605,
                    bytes: 606,
                },
            ],
            queue_wait: QueueWaitSummary {
                count: 701,
                sum: 702,
                p50: 703,
                p95: 704,
                p99: 705,
                max: 706,
            },
            policy: "lazy_leveled",
        }
    }

    /// The registry's names, labels, values and order, pinned: a change to
    /// how any source is lowered shows up here as a diff of the text.
    #[test]
    fn registry_text_is_pinned() {
        let golden = include_str!("../testdata/registry.prom");
        assert_eq!(every_counter_distinct().to_prometheus_text(), golden);
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
