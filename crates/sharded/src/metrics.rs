//! Aggregated observability over shards.
//!
//! [`ShardedMetrics`] carries every shard's [`MetricsSnapshot`] plus one
//! aggregate, summed by [`MetricsSnapshot::accumulate`]. Shards sharing an
//! environment see that environment's global I/O counters, so I/O is
//! aggregated once per *distinct* environment — correct for all-shared,
//! all-private, and mixed env layouts alike.
//!
//! The exporters emit the aggregate under the usual metric names and every
//! per-shard series again with a `shard="i"` label, so dashboards can show
//! both the fleet view and the skew between shards.

use bolt_common::metrics::MetricsRegistry;
use bolt_core::MetricsSnapshot;

/// Per-shard snapshots plus their aggregate.
///
/// A shard's barrier counts are its own on a shared env too: each barrier
/// lands, exactly once, in the sink of the engine whose scope issued it —
/// the coordinator log's in shard 0's, whose env holds it. The aggregate's
/// per-cause counts are their sum; only a barrier no shard scoped (the
/// `SHARDS` pin at creation) is in none of them.
#[derive(Debug, Clone)]
pub struct ShardedMetrics {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<MetricsSnapshot>,
    /// The cross-shard aggregate (see [`MetricsSnapshot::accumulate`]).
    pub aggregate: MetricsSnapshot,
}

/// `env_owner[i]` is `true` iff shard `i` is the first shard on its env
/// (see `ShardedDb::env_owner`); only owners contribute I/O counters.
pub(crate) fn aggregate(per_shard: &[MetricsSnapshot], env_owner: &[bool]) -> MetricsSnapshot {
    let mut agg = MetricsSnapshot::default();
    for (i, m) in per_shard.iter().enumerate() {
        agg.accumulate(m, env_owner.get(i).copied().unwrap_or(true));
    }
    agg
}

impl ShardedMetrics {
    /// Lower into one registry: the aggregate under the plain names, then
    /// every shard's series re-labeled with `shard="i"`.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = self.aggregate.to_registry();
        for (i, m) in self.per_shard.iter().enumerate() {
            reg.append_labelled(m.to_registry(), ("shard", &i.to_string()));
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
