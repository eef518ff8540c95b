//! Engine-level statistics: the write-stall and compaction counters the
//! paper's evaluation reports alongside the env's I/O counters. A new
//! engine counter is one row of the table below.

use bolt_common::events::StallCause;
use bolt_common::histogram::Histogram;

bolt_common::counter_table! {
    /// Point-in-time copy of [`DbStats`].
    pub struct DbStatsSnapshot;
    /// Cumulative engine counters (all monotonically increasing).
    pub struct DbStats {
        /// Nanoseconds each writer spent queued before its group
        /// committed (leaders record their wait for leadership;
        /// followers their wait for the leader's result).
        queue_wait: Histogram,
    }
    /// MemTable flushes completed.
    flushes / record_flush => "bolt_flushes_total",
    /// Compactions completed (excluding flushes).
    compactions / record_compaction => "bolt_compactions_total",
    /// Logical tables promoted by settled compaction (no rewrite).
    settled_moves / record_settled_move => "bolt_settled_moves_total",
    /// Tables promoted by LevelDB-style trivial moves.
    trivial_moves / record_trivial_move => "bolt_trivial_moves_total",
    /// Compactions triggered by wasted seeks.
    seek_compactions / record_seek_compaction => "bolt_seek_compactions_total",
    /// Bytes read into compactions.
    compaction_input_bytes / record_compaction_input => "bolt_compaction_input_bytes_total",
    /// Of those, the victims: the tables a compaction was picked to move
    /// out of its source level (settled moves, which move no byte, excluded).
    compaction_victim_bytes / record_compaction_victim => "bolt_compaction_victim_bytes_total",
    /// Of those, the overlap: the tables already at the output level that
    /// had to be rewritten with the victims (÷ victim bytes = what moving a
    /// byte down costs in bytes dragged along).
    compaction_overlap_bytes / record_compaction_overlap => "bolt_compaction_overlap_bytes_total",
    /// Device reads compactions issued for their inputs.
    compaction_read_ops / record_compaction_read_ops => "bolt_compaction_read_ops_total",
    /// Bytes those reads returned (÷ ops = bytes per compaction read).
    compaction_read_bytes / record_compaction_read_bytes => "bolt_compaction_read_bytes_total",
    /// Nanoseconds compactions spent reading their inputs: the merge waits
    /// for every read, which it issues itself.
    compaction_read_wait_nanos / record_compaction_read_wait_nanos => "bolt_compaction_read_wait_nanos_total",
    /// Compactions picked again after an input read failed before their
    /// first output sync, instead of poisoning the engine.
    compaction_retries / record_compaction_retry => "bolt_compaction_retries_total",
    /// Bytes written by compactions.
    compaction_output_bytes / record_compaction_output => "bolt_compaction_output_bytes_total",
    /// Bytes written by flushes.
    flush_bytes / record_flush_bytes => "bolt_flush_bytes_total",
    /// Wall nanoseconds inside committed flushes, on the flush thread (at
    /// open, on the opening thread).
    flush_busy_nanos / record_flush_busy_nanos => "bolt_flush_busy_nanos_total",
    /// Wall nanoseconds inside committed compactions, on the compaction
    /// thread. With `flush_busy_nanos`, ÷ wall time = how busy the two
    /// background threads were; above 1 they overlapped.
    compaction_busy_nanos / record_compaction_busy_nanos => "bolt_compaction_busy_nanos_total",
    /// Times a writer slept 1 ms because of the L0SlowDown governor.
    slowdowns / record_slowdown => "bolt_slowdowns_total",
    /// Full write stalls (memtable full with imm pending, or L0Stop).
    stalls / record_stall => "bolt_stalls_total",
    /// Total nanoseconds writers spent stalled.
    stall_nanos / record_stall_nanos => "bolt_stall_nanos_total",
    /// Raw user payload bytes accepted by `put`/`delete`.
    user_bytes_written / record_user_bytes => "bolt_user_bytes_total",
    /// Commit groups formed by the write pipeline (one WAL record each).
    write_groups / record_write_group => "bolt_write_groups_total",
    /// Writer batches committed through groups (= batches accepted).
    group_batches / record_group_batches => "bolt_group_batches_total",
    /// WAL durability barriers actually issued on the write path.
    wal_syncs / record_wal_sync => "bolt_wal_syncs_total",
    /// Sync requests answered by another batch's barrier in the same group.
    wal_syncs_elided / record_wal_sync_elided => "bolt_wal_syncs_elided_total",
    /// Values routed to the value log instead of the memtable.
    vlog_values_separated / record_vlog_separated => "bolt_vlog_values_separated_total",
    /// Value payload bytes appended to value-log segments.
    vlog_bytes_written / record_vlog_bytes => "bolt_vlog_bytes_written_total",
    /// Point reads and iterator steps that resolved a value pointer.
    vlog_resolves / record_vlog_resolve => "bolt_vlog_resolves_total",
    /// Dead value bytes reported to the liveness ledger by compactions.
    vlog_dead_bytes / record_vlog_dead_bytes => "bolt_vlog_dead_bytes_total",
    /// Fully dead value-log segments whose files were retired.
    vlog_segments_retired / record_vlog_segment_retired => "bolt_vlog_segments_retired_total",
    /// Ranged tombstones accepted by `delete_range`.
    range_deletes / record_range_delete => "bolt_range_deletes_total",
    /// Consistent checkpoints successfully acked.
    checkpoints / record_checkpoint => "bolt_checkpoints_total",
    // `stalls` and `stall_nanos` by cause; these rows sum to those totals.
    /// Of the stalls, those waiting for the previous memtable's flush.
    stalls_imm_pending / record_stall_imm_pending => "bolt_stalls_imm_pending_total",
    /// Their nanoseconds.
    stall_nanos_imm_pending / record_stall_nanos_imm_pending => "bolt_stall_nanos_imm_pending_total",
    /// Of the stalls, those parked by the L0Stop governor.
    stalls_l0_stop / record_stall_l0_stop => "bolt_stalls_l0_stop_total",
    /// Their nanoseconds.
    stall_nanos_l0_stop / record_stall_nanos_l0_stop => "bolt_stall_nanos_l0_stop_total",
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
    /// A writer stalled for `cause`: one in the total and in its cause's row.
    pub(crate) fn record_stall_begin(&self, cause: StallCause) {
        self.record_stall(1);
        match cause {
            StallCause::ImmPending => self.record_stall_imm_pending(1),
            StallCause::L0Stop => self.record_stall_l0_stop(1),
        }
    }

    /// The stall of `cause` ended after `nanos`: the total and its cause's row.
    pub(crate) fn record_stall_end(&self, cause: StallCause, nanos: u64) {
        self.record_stall_nanos(nanos);
        match cause {
            StallCause::ImmPending => self.record_stall_nanos_imm_pending(nanos),
            StallCause::L0Stop => self.record_stall_nanos_l0_stop(nanos),
        }
    }

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
