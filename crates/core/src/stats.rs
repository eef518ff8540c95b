//! Engine-level statistics: the write-stall and compaction counters the
//! paper's evaluation reports alongside the env's I/O counters.

use std::sync::atomic::{AtomicU64, Ordering};

use bolt_common::histogram::Histogram;

// The one table of engine counters. Each row is
// `doc, record_fn / field => "registry name"` and generates the
// [`DbStats`] atomic, its `pub(crate)` recorder and public getter, the
// [`DbStatsSnapshot`] field, its copy in [`DbStats::snapshot`], its sum in
// [`DbStatsSnapshot::accumulate`] and its registry export — so a counter
// cannot exist in one of those places and be missing from another.
macro_rules! engine_counters {
    ($($(#[$doc:meta])+ $record:ident / $field:ident => $registry:literal),* $(,)?) => {
        /// Cumulative engine counters (all monotonically increasing).
        #[derive(Debug, Default)]
        pub struct DbStats {
            $($field: AtomicU64,)*
            /// Nanoseconds each writer spent queued before its group
            /// committed (leaders record their wait for leadership;
            /// followers their wait for the leader's result).
            queue_wait: Histogram,
        }

        /// Point-in-time copy of [`DbStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct DbStatsSnapshot {
            $($(#[$doc])+ pub $field: u64,)*
        }

        impl DbStats {
            $(
                /// Increment the counter by `n`.
                pub(crate) fn $record(&self, n: u64) {
                    self.$field.fetch_add(n, Ordering::Relaxed);
                }

                /// Read the counter.
                pub fn $field(&self) -> u64 {
                    self.$field.load(Ordering::Relaxed)
                }
            )*

            /// Copy all counters.
            pub fn snapshot(&self) -> DbStatsSnapshot {
                DbStatsSnapshot { $($field: self.$field(),)* }
            }
        }

        impl DbStatsSnapshot {
            /// Add every counter of `other` into `self` (cross-shard
            /// aggregation).
            pub fn accumulate(&mut self, other: &DbStatsSnapshot) {
                $(self.$field += other.$field;)*
            }

            /// Every counter as `(registry name, value)`, in table order.
            pub(crate) fn registry_counters(&self) -> Vec<(&'static str, u64)> {
                vec![$(($registry, self.$field),)*]
            }

            /// A snapshot whose n-th declared counter holds `n` (from 1).
            #[cfg(test)]
            pub(crate) fn numbered() -> DbStatsSnapshot {
                let mut n = 0;
                DbStatsSnapshot { $($field: { n += 1; n },)* }
            }
        }
    };
}

engine_counters! {
    /// MemTable flushes completed.
    record_flush / flushes => "bolt_flushes_total",
    /// Compactions completed (excluding flushes).
    record_compaction / compactions => "bolt_compactions_total",
    /// Logical tables promoted by settled compaction (no rewrite).
    record_settled_move / settled_moves => "bolt_settled_moves_total",
    /// Tables promoted by LevelDB-style trivial moves.
    record_trivial_move / trivial_moves => "bolt_trivial_moves_total",
    /// Compactions triggered by wasted seeks.
    record_seek_compaction / seek_compactions => "bolt_seek_compactions_total",
    /// Bytes read into compactions.
    record_compaction_input / compaction_input_bytes => "bolt_compaction_input_bytes_total",
    /// Of those, the victims: the tables a compaction was picked to move
    /// out of its source level (settled moves, which move no byte, excluded).
    record_compaction_victim / compaction_victim_bytes => "bolt_compaction_victim_bytes_total",
    /// Of those, the overlap: the tables already at the output level that
    /// had to be rewritten with the victims (÷ victim bytes = what moving a
    /// byte down costs in bytes dragged along).
    record_compaction_overlap / compaction_overlap_bytes => "bolt_compaction_overlap_bytes_total",
    /// Device reads compactions issued for their inputs.
    record_compaction_read_ops / compaction_read_ops => "bolt_compaction_read_ops_total",
    /// Bytes those reads returned (÷ ops = bytes per compaction read).
    record_compaction_read_bytes / compaction_read_bytes => "bolt_compaction_read_bytes_total",
    /// Nanoseconds compactions were blocked for input bytes: waiting for
    /// the read-ahead thread to finish a span, or reading one themselves.
    record_compaction_read_wait_nanos / compaction_read_wait_nanos => "bolt_compaction_read_wait_nanos_total",
    /// Input spans a compaction found already read when it needed them.
    record_compaction_readahead_spans / compaction_readahead_spans => "bolt_compaction_readahead_spans_total",
    /// Input spans a compaction had to wait for or read itself.
    record_compaction_demand_spans / compaction_demand_spans => "bolt_compaction_demand_spans_total",
    /// Bytes written by compactions.
    record_compaction_output / compaction_output_bytes => "bolt_compaction_output_bytes_total",
    /// Bytes written by flushes.
    record_flush_bytes / flush_bytes => "bolt_flush_bytes_total",
    /// Wall nanoseconds inside committed flushes, on the flush thread (at
    /// open, on the opening thread).
    record_flush_busy_nanos / flush_busy_nanos => "bolt_flush_busy_nanos_total",
    /// Wall nanoseconds inside committed compactions, on the compaction
    /// thread. With `flush_busy_nanos`, ÷ wall time = how busy the two
    /// background threads were; above 1 they overlapped.
    record_compaction_busy_nanos / compaction_busy_nanos => "bolt_compaction_busy_nanos_total",
    /// Times a writer slept 1 ms because of the L0SlowDown governor.
    record_slowdown / slowdowns => "bolt_slowdowns_total",
    /// Full write stalls (memtable full with imm pending, or L0Stop).
    record_stall / stalls => "bolt_stalls_total",
    /// Total nanoseconds writers spent stalled.
    record_stall_nanos / stall_nanos => "bolt_stall_nanos_total",
    /// Raw user payload bytes accepted by `put`/`delete`.
    record_user_bytes / user_bytes_written => "bolt_user_bytes_total",
    /// Commit groups formed by the write pipeline (one WAL record each).
    record_write_group / write_groups => "bolt_write_groups_total",
    /// Writer batches committed through groups (= batches accepted).
    record_group_batches / group_batches => "bolt_group_batches_total",
    /// WAL durability barriers actually issued on the write path.
    record_wal_sync / wal_syncs => "bolt_wal_syncs_total",
    /// Sync requests answered by another batch's barrier in the same group.
    record_wal_sync_elided / wal_syncs_elided => "bolt_wal_syncs_elided_total",
    /// Values routed to the value log instead of the memtable.
    record_vlog_separated / vlog_values_separated => "bolt_vlog_values_separated_total",
    /// Value payload bytes appended to value-log segments.
    record_vlog_bytes / vlog_bytes_written => "bolt_vlog_bytes_written_total",
    /// Point reads and iterator steps that resolved a value pointer.
    record_vlog_resolve / vlog_resolves => "bolt_vlog_resolves_total",
    /// Dead value bytes reported to the liveness ledger by compactions.
    record_vlog_dead_bytes / vlog_dead_bytes => "bolt_vlog_dead_bytes_total",
    /// Fully dead value-log segments whose files were retired.
    record_vlog_segment_retired / vlog_segments_retired => "bolt_vlog_segments_retired_total",
    /// Ranged tombstones accepted by `delete_range`.
    record_range_delete / range_deletes => "bolt_range_deletes_total",
    /// Consistent checkpoints successfully acked.
    record_checkpoint / checkpoints => "bolt_checkpoints_total",
}

impl DbStatsSnapshot {
    /// Write amplification: device bytes per user byte (caller provides
    /// total device bytes, typically from the env's `bytes_written`).
    pub fn write_amplification(&self, device_bytes_written: u64) -> f64 {
        if self.user_bytes_written == 0 {
            0.0
        } else {
            device_bytes_written as f64 / self.user_bytes_written as f64
        }
    }

    /// Average batches merged per commit group (1.0 = no grouping).
    pub fn batches_per_group(&self) -> f64 {
        if self.write_groups == 0 {
            0.0
        } else {
            self.group_batches as f64 / self.write_groups as f64
        }
    }

    /// WAL barriers per committed batch — the foreground analogue of the
    /// paper's barriers-per-compaction metric. Under group commit with
    /// concurrent synced writers this drops below 1.0.
    pub fn wal_syncs_per_batch(&self) -> f64 {
        if self.group_batches == 0 {
            0.0
        } else {
            self.wal_syncs as f64 / self.group_batches as f64
        }
    }
}

impl DbStats {
    /// Per-writer time-in-queue histogram (nanoseconds).
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = DbStats::default();
        stats.record_flush(1);
        stats.record_compaction(2);
        stats.record_settled_move(3);
        stats.record_stall_nanos(500);
        stats.record_user_bytes(1000);
        let snap = stats.snapshot();
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.compactions, 2);
        assert_eq!(snap.settled_moves, 3);
        assert_eq!(snap.stall_nanos, 500);
        assert_eq!(snap.user_bytes_written, 1000);
    }

    #[test]
    fn group_commit_ratios() {
        let stats = DbStats::default();
        stats.record_write_group(10);
        stats.record_group_batches(40);
        stats.record_wal_sync(10);
        stats.record_wal_sync_elided(30);
        stats.queue_wait().record(1_000);
        let snap = stats.snapshot();
        assert!((snap.batches_per_group() - 4.0).abs() < 1e-9);
        assert!((snap.wal_syncs_per_batch() - 0.25).abs() < 1e-9);
        assert_eq!(stats.queue_wait().count(), 1);
        // Empty snapshots divide safely.
        let empty = DbStatsSnapshot::default();
        assert_eq!(empty.batches_per_group(), 0.0);
        assert_eq!(empty.wal_syncs_per_batch(), 0.0);
    }

    #[test]
    fn write_amplification() {
        let stats = DbStats::default();
        stats.record_user_bytes(100);
        let snap = stats.snapshot();
        assert!((snap.write_amplification(350) - 3.5).abs() < 1e-9);
        let empty = DbStatsSnapshot::default();
        assert_eq!(empty.write_amplification(100), 0.0);
    }
}
