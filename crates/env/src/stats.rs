//! Always-on I/O instrumentation.
//!
//! The paper's headline metrics are *counts of `fsync()`/`fdatasync()` calls*
//! (Figs 4a, 11) and *total bytes written* (Fig 12's write-amplification
//! inserts, Fig 15c). Every [`Env`](crate::Env) implementation feeds these
//! counters so any experiment can report them without touching engine code.
//! Each barrier counted here is also recorded in the calling thread's scope
//! ([`bolt_common::events::emit_barrier`]): the one choke point that puts
//! every barrier an engine pays in that engine's trace.

use std::sync::atomic::Ordering;

use bolt_common::events::{emit_barrier, BarrierKind};

bolt_common::counter_table! {
    /// A point-in-time copy of [`IoStats`], suitable for diffing.
    pub struct IoSnapshot;
    /// Cumulative I/O counters for one environment instance.
    pub struct IoStats {}
    /// Number of full durability barriers (`fsync`/`fdatasync`).
    fsync_calls => "bolt_io_fsyncs_total",
    /// Number of ordering-only barriers (the BarrierFS `fbarrier()` extension).
    ordering_barriers => "bolt_io_ordering_barriers_total",
    /// Total bytes appended to files.
    bytes_written => "bolt_io_bytes_written_total",
    /// Total bytes read from files.
    bytes_read => "bolt_io_bytes_read_total",
    /// Number of append operations.
    write_ops => "bolt_io_write_ops_total",
    /// Number of read operations.
    read_ops => "bolt_io_read_ops_total",
    /// Files created.
    files_created / record_create => "bolt_io_files_created_total",
    /// Files deleted.
    files_deleted / record_delete => "bolt_io_files_deleted_total",
    /// `punch_hole` calls.
    holes_punched => "bolt_io_holes_punched_total",
    /// Bytes reclaimed by hole punching.
    hole_bytes => "bolt_io_hole_bytes_total",
    /// Nanoseconds spent blocked inside `sync()` (device drain + barrier).
    sync_wait_nanos / record_sync_wait => "bolt_io_sync_wait_nanos_total",
}

impl IoStats {
    /// Record a durability barrier that blocked for `wait_nanos`.
    pub fn record_fsync(&self, wait_nanos: u64) {
        self.fsync_calls.fetch_add(1, Ordering::Relaxed);
        self.sync_wait_nanos
            .fetch_add(wait_nanos, Ordering::Relaxed);
        emit_barrier(BarrierKind::Fsync);
    }

    /// Record an ordering-only barrier.
    pub fn record_ordering_barrier(&self) {
        self.ordering_barriers.fetch_add(1, Ordering::Relaxed);
        emit_barrier(BarrierKind::Ordering);
    }

    /// Record an append of `n` bytes.
    pub fn record_write(&self, n: u64) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a read of `n` bytes.
    pub fn record_read(&self, n: u64) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a hole punch reclaiming `n` bytes.
    pub fn record_punch_hole(&self, n: u64) {
        self.holes_punched.fetch_add(1, Ordering::Relaxed);
        self.hole_bytes.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = IoStats::default();
        stats.record_fsync(100);
        stats.record_fsync(50);
        stats.record_write(10);
        stats.record_read(20);
        stats.record_create(1);
        stats.record_delete(1);
        stats.record_punch_hole(4096);
        stats.record_ordering_barrier();
        let snap = stats.snapshot();
        assert_eq!(snap.fsync_calls, 2);
        assert_eq!(snap.sync_wait_nanos, 150);
        assert_eq!(snap.bytes_written, 10);
        assert_eq!(snap.bytes_read, 20);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.read_ops, 1);
        assert_eq!(snap.files_created, 1);
        assert_eq!(snap.files_deleted, 1);
        assert_eq!(snap.holes_punched, 1);
        assert_eq!(snap.hole_bytes, 4096);
        assert_eq!(snap.ordering_barriers, 1);
    }

    /// A barrier goes to the sink of the scope it was issued in; one issued
    /// outside every scope, and a hole punch, are only counted.
    #[test]
    fn barriers_flow_to_the_scopes_sink_only() {
        use bolt_common::events::{BarrierCause, BarrierScope};
        use std::sync::Arc;
        let stats = IoStats::default();
        let sink = Arc::default();
        {
            let _scope = BarrierScope::new(&sink, BarrierCause::FlushData);
            stats.record_fsync(10);
        }
        stats.record_ordering_barrier();
        stats.record_punch_hole(4096);
        assert_eq!(sink.barrier_count(BarrierCause::FlushData), 1);
        assert_eq!(sink.drain().len(), 1, "the scoped fsync only");
        let snap = stats.snapshot();
        assert_eq!((snap.fsync_calls, snap.ordering_barriers), (1, 1));
    }

    #[test]
    fn snapshot_delta() {
        let stats = IoStats::default();
        stats.record_write(5);
        let a = stats.snapshot();
        stats.record_write(7);
        stats.record_fsync(0);
        let b = stats.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.bytes_written, 7);
        assert_eq!(d.write_ops, 1);
        assert_eq!(d.fsync_calls, 1);
    }
}
