//! Aggregated observability over shards.
//!
//! [`ShardedMetrics`] carries every shard's [`MetricsSnapshot`] plus one
//! aggregate: counters are summed, per-level shapes added elementwise, and
//! the queue-wait summary merged by summing counts and taking the maximum
//! of each reported percentile (a conservative bound — exact cross-shard
//! percentiles would need the raw histograms). Shards sharing an
//! environment see that environment's global I/O counters, so I/O is
//! aggregated once per *distinct* environment — correct for all-shared,
//! all-private, and mixed env layouts alike.
//!
//! The exporters emit the aggregate under the usual metric names and every
//! per-shard series again with a `shard="i"` label, so dashboards can show
//! both the fleet view and the skew between shards.

use bolt_common::metrics::{MetricValue, MetricsRegistry};
use bolt_core::metrics::QueueWaitSummary;
use bolt_core::{LevelInfo, MetricsSnapshot};

/// Per-shard snapshots plus their aggregate.
#[derive(Debug, Clone)]
pub struct ShardedMetrics {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<MetricsSnapshot>,
    /// The cross-shard aggregate (see the module docs for merge rules).
    pub aggregate: MetricsSnapshot,
}

/// `env_owner[i]` is `true` iff shard `i` is the first shard on its env
/// (see `ShardedDb::env_owner`); only owners contribute I/O counters.
pub(crate) fn aggregate(per_shard: &[MetricsSnapshot], env_owner: &[bool]) -> MetricsSnapshot {
    let mut agg = MetricsSnapshot::default();
    for (i, m) in per_shard.iter().enumerate() {
        agg.db.accumulate(&m.db);

        if env_owner.get(i).copied().unwrap_or(true) {
            let io = &mut agg.io;
            let j = &m.io;
            io.fsync_calls += j.fsync_calls;
            io.ordering_barriers += j.ordering_barriers;
            io.bytes_written += j.bytes_written;
            io.bytes_read += j.bytes_read;
            io.write_ops += j.write_ops;
            io.read_ops += j.read_ops;
            io.files_created += j.files_created;
            io.files_deleted += j.files_deleted;
            io.holes_punched += j.holes_punched;
            io.hole_bytes += j.hole_bytes;
            io.sync_wait_nanos += j.sync_wait_nanos;
        }

        if agg.levels.len() < m.levels.len() {
            agg.levels.resize_with(m.levels.len(), LevelInfo::default);
        }
        for (acc, l) in agg.levels.iter_mut().zip(m.levels.iter()) {
            acc.runs += l.runs;
            acc.tables += l.tables;
            acc.bytes += l.bytes;
        }

        let q = &mut agg.queue_wait;
        let w = &m.queue_wait;
        *q = QueueWaitSummary {
            count: q.count + w.count,
            sum: q.sum + w.sum,
            p50: q.p50.max(w.p50),
            p95: q.p95.max(w.p95),
            p99: q.p99.max(w.p99),
            max: q.max.max(w.max),
        };

        for (cause, n) in &m.barriers_by_cause {
            match agg.barriers_by_cause.iter_mut().find(|(c, _)| c == cause) {
                Some((_, acc)) => *acc += n,
                None => agg.barriers_by_cause.push((*cause, *n)),
            }
        }
        agg.events_emitted += m.events_emitted;
        agg.events_dropped += m.events_dropped;
        agg.manifest_recuts += m.manifest_recuts;
        agg.pending_punch_bytes += m.pending_punch_bytes;
        agg.pending_unlink_files += m.pending_unlink_files;
        agg.range_tombstones_live += m.range_tombstones_live;
        agg.table_cache.accumulate(&m.table_cache);
        // Every shard shares one Options, hence one compaction policy.
        agg.policy = m.policy;
    }
    agg
}

impl ShardedMetrics {
    /// Lower into one registry: the aggregate under the plain names, then
    /// every shard's series re-labeled with `shard="i"`.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = self.aggregate.to_registry();
        for (i, m) in self.per_shard.iter().enumerate() {
            let shard = i.to_string();
            for metric in m.to_registry().entries() {
                let mut labels: Vec<(&str, &str)> = metric
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                labels.push(("shard", shard.as_str()));
                match &metric.value {
                    MetricValue::Counter(v) => reg.counter(&metric.name, &labels, *v),
                    MetricValue::Gauge(v) => reg.gauge(&metric.name, &labels, *v),
                    MetricValue::Summary {
                        count,
                        sum,
                        quantiles,
                    } => reg.summary(&metric.name, &labels, *count, *sum, quantiles.clone()),
                }
            }
        }
        reg
    }

    /// Render as one JSON document.
    pub fn to_json(&self) -> String {
        self.to_registry().to_json()
    }

    /// Render in the Prometheus text format.
    pub fn to_prometheus_text(&self) -> String {
        self.to_registry().to_prometheus_text()
    }
}
