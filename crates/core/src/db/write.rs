//! The write path: the group-commit queue, the cross-shard transaction
//! records (prepare, apply, abort), the write governors (`make_room`), memtable
//! switching, and WAL-time value separation.
//!
//! Owns the write group of [`DbState`]: `writers`, `wal`/`wal_number`,
//! `vlog`, `pending_txns`. `switch_memtable` is one of the three callers of
//! `install_view`: it moves `mem` into `imm`, stamped with the boundaries that
//! `flush` later retires.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent, EventSink, StallCause};
use bolt_common::sync::MutexGuard;
use bolt_common::{Error, Result};
use bolt_table::ikey::ValueType;
use bolt_wal::LogWriter;

use super::recover::last_sequence;
use super::{Db, DbInner, DbState, Imm, ReadView};
use crate::batch::WriteBatch;
use crate::filename::log_file;
use crate::memtable::MemTable;
use crate::options::WriteOptions;
use crate::txn::{self, ShardTxnMarker};
use crate::vlog::{ValuePointer, VlogWriter};

/// A writer waiting in the group-commit queue: plain state under
/// `core.state`, like the queue itself.
pub(super) struct QueuedWrite {
    /// The writer's place in line; the queue holds ascending tickets.
    ticket: u64,
    /// Whether this batch asked for a WAL durability barrier.
    sync: bool,
    /// What the writer commits. Normal batches merge into groups; the
    /// transaction records are WAL-exclusive and always commit alone.
    op: WriteOp,
    /// Encoded size of the batch.
    bytes: usize,
    /// The batch (a prepare's slice; none for an apply), taken once, by
    /// the leader of the group it joins.
    batch: Option<WriteBatch>,
}

/// The operation a [`QueuedWrite`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteOp {
    /// An ordinary batch, mergeable into a commit group.
    Write,
    /// Stage a cross-shard slice: synced WAL record, no memtable effect.
    TxnPrepare(ShardTxnMarker),
    /// Apply a staged slice: memtable insert plus an unsynced position
    /// marker, no new payload bytes in the WAL.
    TxnApply { txn_id: u64 },
    /// Drop a staged slice: a synced abort record, no memtable effect.
    TxnAbort { txn_id: u64 },
}

impl QueuedWrite {
    fn take_batch(&mut self) -> WriteBatch {
        // Only the leader of the entry's group takes it, and only once.
        // bolt-lint: allow(unwrap-in-crash-path)
        self.batch.take().expect("batch taken once")
    }
}

impl DbState {
    /// The queue's completion watermark: every ticket below it has retired.
    /// Entries retire front-first, so it is the front's ticket.
    fn retired_below(&self) -> u64 {
        self.writers.front().map_or(self.next_ticket, |w| w.ticket)
    }

    /// The entry of the writer that leads: the front, which stays queued
    /// until its group retires.
    fn leader(&mut self) -> &mut QueuedWrite {
        // Only the front writer leads. bolt-lint: allow(unwrap-in-crash-path)
        self.writers.front_mut().expect("leader queued")
    }

    /// What the group of a retired `ticket` returned.
    fn outcome(&self, ticket: u64) -> Result<()> {
        match &self.failed_group {
            Some((tickets, e)) if tickets.contains(&ticket) => Err(e.clone()),
            _ => Ok(()),
        }
    }
}

/// Wrap a fresh WAL file: its barriers are `wal_commit` in the engine's
/// `sink` by default (an explicit operation scope like `wal_close` still
/// overrides). With `debug_locks`, additionally arm the writer's assertion
/// that log I/O never runs while this thread holds the engine state lock —
/// the runtime counterpart of lint rule L1 (guard-across-barrier).
pub(super) fn new_wal_writer(
    file: Box<dyn bolt_env::WritableFile>,
    sink: &Arc<EventSink>,
) -> LogWriter {
    let mut wal = LogWriter::new(file);
    wal.set_default_scope(sink, BarrierCause::WalCommit);
    #[cfg(feature = "debug_locks")]
    wal.forbid_lock_during_io("core.state");
    wal
}

/// A staged cross-shard slice awaiting its apply (or the open's abort).
pub(super) struct PendingTxn {
    /// The operations, exactly as carried by the WAL prepare record.
    pub(super) payload: WriteBatch,
    /// The transaction's identity, as the prepare record carries it.
    pub(super) marker: ShardTxnMarker,
    /// WAL file holding the prepare record; obsolete-log deletion must not
    /// advance past it while the prepare is the slice's only durable copy.
    pub(super) log_number: u64,
    /// WAL era the apply landed in, once it has. The pin holds until the
    /// log floor passes this era — the `Applied` marker carries only the
    /// sequence, so until the memtable the slice went into is flushed, the
    /// prepare record is still the only place the bytes live.
    pub(super) applied_in: Option<u64>,
}

impl Db {
    /// Insert or overwrite `key`.
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(batch)
    }

    /// Delete `key`.
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(batch)
    }

    /// Delete every key in `[begin, end)` with one ranged tombstone. The
    /// tombstone rides the group-commit pipeline like any write, costs one
    /// entry regardless of how many keys it covers, and hides only entries
    /// with smaller sequence numbers — snapshots taken before the delete
    /// still see the range.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `begin >= end` (empty and
    /// inverted ranges are rejected), plus background and WAL I/O errors.
    pub fn delete_range(&self, begin: &[u8], end: &[u8]) -> Result<()> {
        if begin >= end {
            return Err(Error::InvalidArgument(
                "delete_range requires begin < end".into(),
            ));
        }
        let mut batch = WriteBatch::new();
        batch.delete_range(begin, end);
        self.write(batch)?;
        self.inner.stats.record_range_delete(1);
        self.inner.sink.emit(EngineEvent::RangeDelete {
            bytes: (begin.len() + end.len()) as u64,
        });
        Ok(())
    }

    /// Apply a batch atomically, with durability per [`crate::Options::sync_wal`].
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(batch, &WriteOptions::default())
    }

    /// Apply a batch atomically with a per-batch durability override.
    ///
    /// Writes go through the group-commit pipeline: the first queued writer
    /// becomes the *leader*, merges the batches of every queued follower (up
    /// to a 1 MiB group), writes one WAL record and pays
    /// at most one durability barrier for the whole group — outside the
    /// engine mutex — then distributes the per-writer results. A follower's
    /// batch is durable iff the leader's sync covering it completed.
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn write_opt(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let inner = &self.inner;
        inner
            .stats
            .record_user_bytes(batch.approximate_size() as u64);
        let sync = wopts.sync.unwrap_or(inner.opts.sync_wal);
        inner.enqueue_and_commit(WriteOp::Write, sync, Some(batch))
    }

    /// Stage one shard's slice of a cross-shard batch (2PC phase 1): a
    /// synced WAL record, no memtable effect. The slice stays pending until
    /// [`Db::txn_apply`] (commit) or [`Db::txn_forget`] (abort); recovery
    /// leaves a slice with neither record staged for the coordinator to
    /// resolve the same way ([`Db::staged_txns`]).
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors. On error nothing is
    /// staged.
    pub fn txn_prepare(&self, marker: ShardTxnMarker, slice: WriteBatch) -> Result<()> {
        if slice.is_empty() {
            return Err(Error::InvalidArgument(
                "cannot prepare an empty transaction slice".into(),
            ));
        }
        self.inner
            .stats
            .record_user_bytes(slice.approximate_size() as u64);
        // Always synced: the transaction commits once every participant's
        // prepare is durable, so the sync *is* this shard's vote.
        self.inner
            .enqueue_and_commit(WriteOp::TxnPrepare(marker), true, Some(slice))
    }

    /// Apply a staged slice (2PC phase 2), making it visible to readers.
    /// Call only once every participant's prepare is durable, and on each
    /// shard in transaction-id order: the applied-transaction floor
    /// ([`Db::applied_txn_floor`]) is one number because of it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `txn_id` has no staged slice,
    /// plus background and WAL I/O errors.
    pub fn txn_apply(&self, txn_id: u64) -> Result<()> {
        self.inner
            .enqueue_and_commit(WriteOp::TxnApply { txn_id }, false, None)
    }

    /// Abort a staged slice (2PC abort): a synced `Aborted` record, so that
    /// no later recovery stages the prepare again, whatever log survives. A
    /// no-op if `txn_id` has no staged slice or was already applied (an
    /// applied entry still pins its WAL and is released by the flush that
    /// covers it, never by forget).
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors. On error the slice
    /// stays staged.
    pub fn txn_forget(&self, txn_id: u64) -> Result<()> {
        self.inner
            .enqueue_and_commit(WriteOp::TxnAbort { txn_id }, true, None)
    }

    /// The staged, unapplied slices, ascending by id: after an open, the
    /// prepares recovery found without an `Applied` or `Aborted` record,
    /// which only the coordinator can resolve.
    pub fn staged_txns(&self) -> Vec<ShardTxnMarker> {
        let state = self.inner.state.lock();
        let staged = state
            .pending_txns
            .values()
            .filter(|t| t.applied_in.is_none());
        let mut markers: Vec<ShardTxnMarker> = staged.map(|t| t.marker).collect();
        markers.sort_unstable_by_key(|m| m.txn_id);
        markers
    }

    /// The applied-transaction floor: the highest cross-shard id applied on
    /// this shard — the MANIFEST's floor or an `Applied` marker replayed at
    /// open, then every live apply. Every transaction at or below it that
    /// this shard took part in was applied here.
    pub fn applied_txn_floor(&self) -> u64 {
        self.inner.state.lock().applied_txn
    }
}

impl DbInner {
    /// Queue a writer and wait until a leader committed it or it leads
    /// itself — the single entry point for everything that needs the WAL
    /// exclusively (batches and the transaction records), since leaders
    /// take the log without waiting and exclusion is purely structural via
    /// queue position.
    fn enqueue_and_commit(&self, op: WriteOp, sync: bool, batch: Option<WriteBatch>) -> Result<()> {
        let enqueued = Instant::now();
        let bytes = batch.as_ref().map_or(0, WriteBatch::approximate_size);
        let mut state = self.state.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.writers.push_back(QueuedWrite {
            ticket,
            sync,
            op,
            bytes,
            batch,
        });
        while state.retired_below() < ticket {
            self.writers_cv.wait(&mut state);
        }
        self.stats
            .queue_wait()
            .record(enqueued.elapsed().as_nanos() as u64);
        if state.retired_below() > ticket {
            // A leader committed (or failed) this batch on our behalf.
            return state.outcome(ticket);
        }
        let (members, result) = match op {
            WriteOp::Write => self.group_commit(&mut state),
            WriteOp::TxnPrepare(marker) => (1, self.commit_prepare(&mut state, marker)),
            WriteOp::TxnApply { txn_id } => (1, self.commit_apply(&mut state, txn_id)),
            WriteOp::TxnAbort { txn_id } => (1, self.commit_abort(&mut state, txn_id)),
        };
        self.retire(&mut state, members, &result);
        result
    }

    /// Retire the leader's entry and the `members - 1` followers it
    /// committed with `result`, and hand leadership to the next entry: the
    /// one place entries leave the queue, for write groups and both
    /// transaction phases alike.
    ///
    /// A follower reads its outcome from the watermark and the one failed
    /// group on record. One is enough: a group fails with followers only
    /// inside `with_wal`, which poisons the engine, and from then on every
    /// leader fails alone in `check_poisoned`, before it takes a follower.
    fn retire(&self, state: &mut DbState, members: usize, result: &Result<()>) {
        match result {
            Err(e) if members > 1 => {
                debug_assert!(state.failed_group.is_none(), "a second group failed");
                let first = state.retired_below();
                state.failed_group = Some((first..first + members as u64, e.clone()));
            }
            _ => {}
        }
        for _ in 0..members {
            state.writers.pop_front();
        }
        self.writers_cv.notify_all();
    }

    /// The WAL-leader protocol, in one place: take the WAL — and the value
    /// log, which travels with it — out of `state`, run `io` with the
    /// state mutex released, put both back, and poison the engine if `io`
    /// failed (a failed append may leave a torn record mid-log; anything
    /// appended after it would be dropped by recovery's torn-tail rule, so
    /// later acknowledged writes could be silently lost).
    ///
    /// Queue leaders call this without waiting — queue position is what
    /// excludes a second holder — and wake `writers_cv` when they retire,
    /// still inside the same critical section, which is also what tells
    /// `flush`/`close` the log is back.
    pub(super) fn with_wal<T>(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        io: impl FnOnce(&mut LogWriter, &mut Option<VlogWriter>) -> Result<T>,
    ) -> Result<T> {
        // Leaders run only while the DB is open, and `flush`/`close` wait
        // for the slot to be restored. bolt-lint: allow(unwrap-in-crash-path)
        let mut wal = state.wal.take().expect("wal open");
        let mut vlog = state.vlog.take();
        let result = MutexGuard::unlocked(state, || io(&mut wal, &mut vlog));
        state.wal = Some(wal);
        state.vlog = vlog;
        if let Err(e) = &result {
            state.bg_error.get_or_insert_with(|| e.clone());
        }
        result
    }

    /// Append and sync one transaction record, a group of one under the
    /// same leader protocol as [`DbInner::group_commit`].
    fn commit_synced(&self, state: &mut MutexGuard<'_, DbState>, record: &[u8]) -> Result<()> {
        state.check_poisoned()?;
        self.with_wal(state, |wal, _| {
            wal.add_record(record)?;
            wal.sync()
        })?;
        self.stats.record_wal_sync(1);
        Ok(())
    }

    /// Stage a cross-shard slice.
    fn commit_prepare(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        marker: ShardTxnMarker,
    ) -> Result<()> {
        let payload = state.leader().take_batch();
        let log_number = state.wal_number;
        self.commit_synced(state, &txn::encode_prepare(&marker, &payload))?;
        state.pending_txns.insert(
            marker.txn_id,
            PendingTxn {
                payload,
                marker,
                log_number,
                applied_in: None,
            },
        );
        Ok(())
    }

    /// Apply a staged slice (a group of one, like the prepare). Once the
    /// slice is found, a failure poisons the shard: an apply after it would
    /// raise the floor past `txn_id`, and the next open would then drop
    /// this id's stage unapplied.
    fn commit_apply(&self, state: &mut MutexGuard<'_, DbState>, txn_id: u64) -> Result<()> {
        let payload = match state.pending_txns.get(&txn_id) {
            Some(staged) if staged.applied_in.is_none() => staged.payload.clone(),
            _ => {
                return Err(Error::InvalidArgument(format!(
                    "transaction {txn_id} has no staged slice"
                )));
            }
        };
        let applied = self.apply_staged(state, txn_id, payload);
        if let Err(e) = &applied {
            state.bg_error.get_or_insert_with(|| e.clone());
        }
        applied
    }

    fn apply_staged(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        txn_id: u64,
        mut payload: WriteBatch,
    ) -> Result<()> {
        // The apply inserts into the memtable, so the governors run
        // exactly as for a batch commit.
        self.make_room(state)?;
        let apply_era = state.wal_number;
        let base = self.last_sequence.load(Ordering::Relaxed);
        let last = last_sequence(base + 1, payload.count())?;
        payload.set_sequence(base + 1);
        // The marker is appended *unsynced*: the payload is already
        // durable (every participant's prepare is synced), and if a crash
        // tears the marker off the log tail it also tears every later
        // record, so the slice stays staged at the next open and the
        // coordinator applies it again at the end of the surviving log, in
        // id order.
        let marker_record = txn::encode_applied(txn_id, base + 1);
        let mem = Arc::clone(&self.view().mem);
        self.with_wal(state, |wal, _| {
            wal.add_record(&marker_record)?;
            payload.apply_to(&mem)
        })?;
        self.last_sequence.store(last, Ordering::Release);
        self.stats.record_write_group(1);
        self.stats.record_group_batches(1);
        // Keep the entry (and its WAL pin) until the flush that covers
        // this era; see `delete_obsolete_logs`.
        if let Some(staged) = state.pending_txns.get_mut(&txn_id) {
            staged.applied_in = Some(apply_era);
        }
        state.applied_txn = state.applied_txn.max(txn_id);
        Ok(())
    }

    /// Abort a staged slice. The record is synced before the stage goes,
    /// so the prepare it cancels never stages again at a later open.
    fn commit_abort(&self, state: &mut MutexGuard<'_, DbState>, txn_id: u64) -> Result<()> {
        let staged = state.pending_txns.get(&txn_id);
        if staged.is_none_or(|t| t.applied_in.is_some()) {
            return Ok(());
        }
        self.commit_synced(state, &txn::encode_aborted(txn_id))?;
        state.pending_txns.remove(&txn_id);
        Ok(())
    }

    /// Commit the group led by the front of the queue, and return how many
    /// entries it took (the leader's included) with its outcome.
    ///
    /// Runs with the state mutex held, but releases it for the expensive
    /// phase: the WAL append, the (single) durability barrier, and the
    /// memtable insert all happen unlocked. Exclusion is structural — the
    /// leader stays at the front of the queue until done, so no second
    /// leader can exist, and `flush`/`close` wait for the WAL's return
    /// before touching it.
    fn group_commit(&self, state: &mut MutexGuard<'_, DbState>) -> (usize, Result<()>) {
        // Run the governors (slowdown/stall/memtable switch) for the whole
        // group. Followers keep queueing while the leader waits here, which
        // is exactly what makes post-stall groups large.
        if let Err(e) = self.make_room(state) {
            return (1, Err(e));
        }

        // Merge queued follower batches into the leader's, oldest first,
        // until the byte cap. A small leading batch caps the group at its
        // own size + 128 KiB so a tiny write's latency is never hostage to
        // a megabyte of followers (HyperLevelDB's rule).
        const GROUP_COMMIT_BYTES: usize = 1 << 20;
        const SMALL_BATCH_SLACK: usize = 128 << 10;
        let leader = state.leader();
        let (own, group_sync) = (leader.bytes, leader.sync);
        let mut combined = leader.take_batch();
        let mut cap = GROUP_COMMIT_BYTES;
        if own <= SMALL_BATCH_SLACK {
            cap = cap.min(own + SMALL_BATCH_SLACK);
        }
        let mut group_len = 1usize;
        let mut group_bytes = own;
        let mut sync_requests = u64::from(group_sync);
        for follower in state.writers.iter().skip(1) {
            if follower.op != WriteOp::Write {
                // Transaction phases are WAL-exclusive and never merge.
                break;
            }
            if follower.sync && !group_sync {
                // A sync write must not be absorbed by a non-sync group:
                // its durability guarantee would silently vanish.
                break;
            }
            if group_bytes + follower.bytes > cap {
                break;
            }
            group_bytes += follower.bytes;
            sync_requests += u64::from(follower.sync);
            group_len += 1;
        }
        if group_len > 1 {
            combined.reserve(group_bytes - own);
            for follower in state.writers.range_mut(1..group_len) {
                // WriteBatch::append is an in-memory merge returning `()`,
                // not fallible file I/O. bolt-lint: allow(swallowed-io-error)
                combined.append(&follower.take_batch());
            }
        }

        let base = self.last_sequence.load(Ordering::Relaxed);
        combined.set_sequence(base + 1);
        let count = u64::from(combined.count());
        let mem = Arc::clone(&self.view().mem);
        let mut rotations: Vec<u64> = Vec::new();

        // The expensive phase, outside the state mutex: value separation,
        // one WAL record for the whole group, at most one barrier each for
        // the value log and the WAL, then the memtable insert (safe
        // unlocked: this leader is the only writer, and the memtable cannot
        // be switched while we hold the WAL).
        let io = self.with_wal(state, |wal, vlog| {
            if let Some(threshold) = self.opts.value_separation_threshold {
                let (separated, vlog_bytes) =
                    self.separate_large_values(&mut combined, threshold, vlog, &mut rotations)?;
                if separated > 0 {
                    // Invariant V1: the segment holding this group's values
                    // is barriered before the WAL record that makes their
                    // pointers visible — even for unsynced groups — so
                    // recovery can never replay a pointer whose bytes were
                    // still in flight.
                    let _scope = BarrierScope::new(&self.sink, BarrierCause::VlogData);
                    let writer = vlog.as_mut().ok_or_else(|| {
                        Error::InvalidState(
                            "values separated without an open vlog writer".to_string(),
                        )
                    })?;
                    writer.barrier(self.vlog_ordering_only())?;
                    self.stats.record_vlog_separated(separated);
                    self.stats.record_vlog_bytes(vlog_bytes);
                }
            }
            wal.add_record(combined.encoded())?;
            if group_sync {
                wal.sync()?;
                self.stats.record_wal_sync(1);
                if sync_requests > 1 {
                    self.stats.record_wal_sync_elided(sync_requests - 1);
                }
            }
            combined.apply_to(&mem)
        });
        // Rotations happened physically even if a later write failed.
        for segment in rotations {
            self.sink.emit(EngineEvent::VlogRotate {
                new_segment: segment,
            });
        }

        let result = io.map(|()| {
            // Publish only after the insert: readers snapshot
            // `last_sequence` and must find every entry at or below it.
            self.last_sequence.store(base + count, Ordering::Release);
            self.stats.record_write_group(1);
            self.stats.record_group_batches(group_len as u64);
            self.sink.emit(EngineEvent::WriteGroup {
                batches: group_len as u64,
                bytes: group_bytes as u64,
                synced: group_sync,
                syncs_elided: if group_sync {
                    sync_requests.saturating_sub(1)
                } else {
                    0
                },
            });
        });
        (group_len, result)
    }

    fn make_room(&self, state: &mut MutexGuard<'_, DbState>) -> Result<()> {
        let mut allow_delay = true;
        loop {
            state.check_poisoned()?;
            // Under `state`: the flush commit swaps the view, then takes
            // `state` to notify, so a stall decided here gets its wake-up.
            let view = self.view();
            let l0 = view.version.levels[0].num_runs();
            if allow_delay && self.opts.level0_slowdown_trigger.is_some_and(|t| l0 >= t) {
                // L0SlowDown governor: sleep 1 ms, once, outside the lock.
                allow_delay = false;
                drop(view);
                self.stats.record_slowdown(1);
                self.sink.emit(EngineEvent::Slowdown);
                MutexGuard::unlocked(state, || {
                    std::thread::sleep(Duration::from_millis(1));
                });
                continue;
            }
            // An empty memtable is never full, however small the budget: its
            // arena reports one block before the first entry, and rotating
            // it would put an empty one in its place, forever.
            if view.mem.is_empty() || view.mem.approximate_memory_usage() < self.opts.memtable_bytes
            {
                return Ok(());
            }
            if view.imm.is_some() || self.opts.level0_stop_trigger.is_some_and(|t| l0 >= t) {
                // Write stall — the previous memtable is still flushing, or
                // the L0Stop governor tripped: wait for background progress
                // (without the view: a parked writer must not keep the
                // outgoing version alive past the commit's GC pass).
                let cause = match view.imm {
                    Some(_) => StallCause::ImmPending,
                    None => StallCause::L0Stop,
                };
                drop(view);
                self.stats.record_stall_begin(cause);
                self.sink.emit(EngineEvent::StallBegin { cause });
                let start = Instant::now();
                self.work_cv.notify_one();
                self.done_cv.wait(state);
                let waited_nanos = start.elapsed().as_nanos() as u64;
                self.stats.record_stall_end(cause, waited_nanos);
                self.sink.emit(EngineEvent::StallEnd { waited_nanos });
                continue;
            }
            self.switch_memtable(state)?;
        }
    }

    pub(super) fn switch_memtable(&self, state: &mut MutexGuard<'_, DbState>) -> Result<()> {
        debug_assert!(
            state.wal.is_some(),
            "cannot switch while a group commit holds the WAL"
        );
        let new_log = self.ids.new_file_number();
        let file = self.env.new_writable_file(&log_file(&self.name, new_log))?;
        // The WAL is in hand (asserted above), so no commit is in flight:
        // `last_sequence` is exactly the boundary between `imm` and the
        // fresh memtable.
        let seq_boundary = self.last_sequence.load(Ordering::Acquire);
        let txn_boundary = state.applied_txn;
        let fresh = Arc::new(MemTable::new());
        self.install_view(|old| {
            assert!(old.imm.is_none(), "cannot switch with a pending flush");
            ReadView {
                mem: fresh,
                imm: Some(Imm {
                    mem: Arc::clone(&old.mem),
                    log_boundary: new_log,
                    seq_boundary,
                    txn_boundary,
                }),
                ..old.clone()
            }
        });
        state.wal = Some(new_wal_writer(file, &self.sink));
        state.wal_number = new_log;
        state.logs.push_back(new_log);
        self.sink.emit(EngineEvent::WalRotate { new_log });
        self.flush_cv.notify_one();
        Ok(())
    }

    /// Whether value-log barriers can be ordering-only (BarrierFS-style):
    /// the WAL record that follows is the commit point, so ordering
    /// suffices exactly as it does for table data files.
    fn vlog_ordering_only(&self) -> bool {
        self.env.supports_ordering_barrier()
    }

    /// Rewrite `batch` in place so every value strictly larger than
    /// `threshold` lives in the value log, leaving a fixed-size pointer
    /// behind. Returns `(values_separated, value_bytes_appended)`.
    ///
    /// On error the value log may hold orphaned bytes, but no pointer to
    /// them was written anywhere; the caller poisons the DB, and the dead
    /// bytes are bounded by one group.
    fn separate_large_values(
        &self,
        batch: &mut WriteBatch,
        threshold: u64,
        vlog: &mut Option<VlogWriter>,
        rotations: &mut Vec<u64>,
    ) -> Result<(u64, u64)> {
        // Fast pass: most groups carry no oversized values and must not pay
        // for a rewrite.
        let mut any = false;
        batch.for_each(|vt, _, value| {
            any = any || (vt == ValueType::Value && value.len() as u64 > threshold);
        })?;
        if !any {
            return Ok((0, 0));
        }
        let mut out = WriteBatch::new();
        out.set_sequence(batch.sequence());
        // `for_each` hands out infallible callbacks, so appends park their
        // error here and the rewrite short-circuits to a no-op.
        let mut failed: Option<Error> = None;
        let mut count = 0u64;
        let mut bytes = 0u64;
        batch.for_each(|vt, key, value| {
            if failed.is_some() {
                return;
            }
            match vt {
                ValueType::Value if value.len() as u64 > threshold => {
                    match self.vlog_append(vlog, value, rotations) {
                        Ok(ptr) => {
                            count += 1;
                            bytes += value.len() as u64;
                            out.put_pointer(key, &ptr.encode());
                        }
                        Err(e) => failed = Some(e),
                    }
                }
                ValueType::Value => out.put(key, value),
                ValueType::Deletion => out.delete(key),
                // Already-separated entries (e.g. forwarded by a router)
                // carry their pointer through unchanged.
                ValueType::ValuePointer => out.put_pointer(key, value),
                // A tombstone's "value" is its exclusive end key, never a
                // user payload — separation must not touch it.
                ValueType::RangeTombstone => out.delete_range(key, value),
            }
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
        *batch = out;
        Ok((count, bytes))
    }

    /// Append one value to the active segment, rotating to a fresh one
    /// when it is full. Rotation barriers the old writer *before* sealing
    /// so its tail satisfies invariant V1, then seals its final size in
    /// the liveness ledger.
    fn vlog_append(
        &self,
        vlog: &mut Option<VlogWriter>,
        value: &[u8],
        rotations: &mut Vec<u64>,
    ) -> Result<ValuePointer> {
        let rotate = vlog.as_ref().is_some_and(|w| {
            w.written() > 0 && w.written() + value.len() as u64 > self.opts.vlog_segment_bytes
        });
        if rotate {
            // bolt-lint: allow(unwrap-in-crash-path) -- guarded just above.
            let mut old = vlog.take().expect("active vlog writer");
            {
                let _scope = BarrierScope::new(&self.sink, BarrierCause::VlogData);
                old.barrier(self.vlog_ordering_only())?;
            }
            self.versions
                .lock()
                .seal_vlog_segment(old.file_number(), old.written());
        }
        if vlog.is_none() {
            let number = self.ids.new_file_number();
            self.versions.lock().register_vlog_segment(number);
            *vlog = Some(VlogWriter::create(self.env.as_ref(), &self.name, number)?);
            rotations.push(number);
        }
        // bolt-lint: allow(unwrap-in-crash-path) -- populated just above.
        vlog.as_mut().expect("vlog writer").append(value)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;

    #[test]
    fn a_budget_below_one_arena_block_never_rotates_an_empty_memtable() {
        // 4 KiB of memtable: an empty arena already reports that much, and
        // the first `put` used to rotate empty memtables forever. The writes
        // run on a thread of their own so that a hang fails the test here.
        let opts = Options::bolt().scaled(1.0 / 1024.0);
        assert_eq!(opts.memtable_bytes, 4096);
        let (_env, db) = mem_db(opts);
        assert!(db.inner.view().mem.approximate_memory_usage() >= 4096);
        let (done, watchdog) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            for i in 0..300u32 {
                db.put(format!("key{i:04}").as_bytes(), &[b'v'; 100])
                    .unwrap();
            }
            db.flush().unwrap();
            let first = db.get(b"key0000").unwrap();
            let flushes = db.stats().snapshot().flushes;
            db.close().unwrap();
            done.send((first, flushes)).unwrap();
        });
        let (first, flushes) = watchdog
            .recv_timeout(Duration::from_secs(60))
            .expect("writes hung: make_room is rotating empty memtables");
        writer.join().unwrap();
        assert_eq!(first, Some(vec![b'v'; 100]));
        // A full memtable still rotates: 300 × 100 B do not fit one 4 KiB.
        assert!(flushes > 1, "{flushes} flushes");
    }

    #[test]
    fn write_opt_overrides_sync_per_batch() {
        // Default async: Db::write pays no barrier, an explicit sync pays one.
        let (_env, db) = mem_db(Options::leveldb());
        db.put(b"a", b"1").unwrap();
        assert_eq!(db.stats().wal_syncs(), 0);
        let mut batch = WriteBatch::new();
        batch.put(b"b", b"2");
        db.write_opt(batch, &WriteOptions::with_sync(true)).unwrap();
        assert_eq!(db.stats().wal_syncs(), 1);
        db.close().unwrap();

        // Default sync: Db::write pays the barrier, an explicit non-sync
        // write skips it.
        let mut opts = Options::leveldb();
        opts.sync_wal = true;
        let (_env, db) = mem_db(opts);
        db.put(b"a", b"1").unwrap();
        assert_eq!(db.stats().wal_syncs(), 1);
        let mut batch = WriteBatch::new();
        batch.put(b"b", b"2");
        db.write_opt(batch, &WriteOptions::with_sync(false))
            .unwrap();
        assert_eq!(db.stats().wal_syncs(), 1);
        db.close().unwrap();
    }

    /// A memtable switch allocates its WAL number from the shared allocator,
    /// not under `core.versions`: with a gatekeeper parked on that lock —
    /// where a background thread sits for a MANIFEST sync — a switch by
    /// hand and a `put` that rotates the memtable both finish. Bounded wait:
    /// a writer that does block fails the test (the gate is opened either
    /// way, so the scope always joins).
    #[test]
    fn a_memtable_switch_does_not_wait_for_the_manifest_lock() {
        use std::sync::mpsc;
        let mut opts = Options::leveldb();
        opts.memtable_bytes = 64 << 10;
        let (_env, db) = mem_db(opts);
        let inner = &db.inner;
        let full = vec![b'x'; 80 << 10]; // one write fills the memtable
        let under_gate = |action: &(dyn Fn() + Sync)| {
            std::thread::scope(|s| {
                let (gate_held, wait_held) = mpsc::channel();
                let (release, wait_release) = mpsc::channel::<()>();
                s.spawn(move || {
                    let _gate = inner.versions.lock();
                    gate_held.send(()).unwrap();
                    let _ = wait_release.recv();
                });
                wait_held.recv().unwrap();
                let (done, wait_done) = mpsc::channel();
                s.spawn(move || {
                    action();
                    done.send(()).unwrap();
                });
                let finished = wait_done.recv_timeout(Duration::from_secs(10));
                drop(release);
                finished.expect("a memtable switch waited for `core.versions`");
            });
        };

        db.put(b"a", &full).unwrap();
        under_gate(&|| {
            let mut state = inner.state.lock();
            inner.switch_memtable(&mut state).unwrap();
        });
        db.flush().unwrap(); // the gate is open: `imm` drains
        db.put(b"b", &full).unwrap();
        db.events(); // drained: what follows is the gated put's alone
        under_gate(&|| db.put(b"c", &full).unwrap());
        let events = db.events();
        let rotations = events
            .iter()
            .filter(|e| matches!(e.event, EngineEvent::WalRotate { .. }));
        assert_eq!(rotations.count(), 1, "the gated put rotated the memtable");
        for key in [b"a", b"b", b"c"] {
            assert_eq!(db.get(key).unwrap().as_deref(), Some(&full[..]));
        }
        db.close().unwrap();
    }

    #[test]
    fn both_stall_causes_count_time_and_pair_their_events() {
        let mut opts = Options::leveldb();
        opts.memtable_bytes = 64 << 10;
        opts.level0_slowdown_trigger = None;
        opts.level0_stop_trigger = Some(1);
        let (_env, db) = mem_db(opts);
        let inner = &db.inner;
        let full = vec![b'x'; 80 << 10]; // one write fills the memtable
        db.put(b"a", &full).unwrap();

        std::thread::scope(|s| {
            // Cause 1 — imm still flushing. Switch by hand and, before the
            // flush thread can run (it needs `state` to pick up the
            // flush), have a gatekeeper take `versions`: the flush parks on
            // it with `imm` pending. (A thread of its own, so that no thread
            // ever takes `state` while holding `versions`.)
            let (gate_held, wait_held) = std::sync::mpsc::channel();
            let (release, wait_release) = std::sync::mpsc::channel::<()>();
            let mut state = inner.state.lock();
            inner.switch_memtable(&mut state).unwrap();
            s.spawn(move || {
                let _gate = inner.versions.lock();
                gate_held.send(()).unwrap();
                let _ = wait_release.recv();
            });
            wait_held.recv().unwrap();
            drop(state);
            db.put(b"b", &full).unwrap();
            let writer = s.spawn(|| db.put(b"c", &full).unwrap());
            while db.stats().stalls() < 1 {
                std::thread::yield_now();
            }
            {
                let view = inner.view();
                assert!(view.imm.is_some(), "stall 1 must be the imm-pending kind");
                assert_eq!(view.version.levels[0].num_runs(), 0);
            }

            // Cause 2 — L0Stop. Releasing the flush lands one L0 run, which
            // is the stop trigger: the woken writer finds `imm` gone, the
            // memtable still full, and stalls again. One run is below the
            // compaction trigger, so nothing ends this stall until we flush.
            drop(release);
            loop {
                let view = inner.view();
                if db.stats().stalls() >= 2 && view.imm.is_none() {
                    assert!(view.version.levels[0].num_runs() >= 1);
                    break;
                }
                drop(view);
                std::thread::yield_now();
            }
            db.flush().unwrap();
            writer.join().unwrap();
        });
        assert_eq!(db.get(b"c").unwrap(), Some(full));

        // Every stall is one Begin/End pair, in order, and the time the
        // events report is the time the counter holds. (A spurious wake-up
        // re-enters the stall, so the count may exceed 2.) Each says why:
        // imm-pending stalls first, then L0Stop ones, and the rows of each
        // cause hold its events' count and time.
        let snap = db.stats().snapshot();
        assert!(snap.stalls >= 2, "{snap:?}");
        let (mut begins, mut ends, mut waited, mut open) = (0u64, 0u64, 0u64, None);
        let mut by_cause = std::collections::BTreeMap::<&str, (u64, u64)>::new();
        let mut causes = Vec::new();
        for event in db.events() {
            match event.event {
                EngineEvent::StallBegin { cause } => {
                    assert!(open.is_none(), "StallBegin inside an open stall");
                    (open, begins) = (Some(cause), begins + 1);
                    causes.push(cause);
                }
                EngineEvent::StallEnd { waited_nanos } => {
                    let cause = open.take().expect("StallEnd without a StallBegin");
                    (ends, waited) = (ends + 1, waited + waited_nanos);
                    let row = by_cause.entry(cause.as_str()).or_default();
                    *row = (row.0 + 1, row.1 + waited_nanos);
                }
                _ => {}
            }
        }
        assert_eq!((begins, ends), (snap.stalls, snap.stalls));
        assert_eq!(waited, snap.stall_nanos);
        assert!(snap.stall_nanos > 0);
        assert_eq!(causes.first(), Some(&StallCause::ImmPending), "{causes:?}");
        assert_eq!(causes.last(), Some(&StallCause::L0Stop), "{causes:?}");
        let switches = causes.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(
            switches, 1,
            "imm-pending stalls, then L0Stop ones: {causes:?}"
        );
        assert_eq!(
            (by_cause["imm_pending"], by_cause["l0_stop"]),
            (
                (snap.stalls_imm_pending, snap.stall_nanos_imm_pending),
                (snap.stalls_l0_stop, snap.stall_nanos_l0_stop)
            )
        );
        assert_eq!(snap.stalls_imm_pending + snap.stalls_l0_stop, snap.stalls);
        assert_eq!(
            snap.stall_nanos_imm_pending + snap.stall_nanos_l0_stop,
            snap.stall_nanos
        );
        db.close().unwrap();
    }

    #[test]
    fn every_write_passes_through_a_commit_group() {
        let (_env, db) = mem_db(Options::leveldb());
        for i in 0..10u32 {
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let snap = db.stats().snapshot();
        assert_eq!(snap.group_batches, 10);
        assert!(snap.write_groups >= 1 && snap.write_groups <= 10);
        assert_eq!(db.stats().queue_wait().count(), 10);
        db.close().unwrap();
    }

    #[test]
    fn group_commit_publishes_contiguous_sequences() {
        // Concurrent multi-entry batches: sequences must stay contiguous
        // (every batch gets `count` numbers, none skipped or reused) and
        // every batch must be atomic.
        let (_env, db) = mem_db(Options::leveldb());
        let db = Arc::new(db);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let mut batch = WriteBatch::new();
                        batch.put(format!("t{t}-k{i:03}-a").as_bytes(), b"1");
                        batch.put(format!("t{t}-k{i:03}-b").as_bytes(), b"2");
                        db.write(batch).unwrap();
                        let seq = db.snapshot().sequence();
                        assert!(seq >= 2 * (i as u64 + 1), "t{t} i{i} seq {seq}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 8 threads x 100 batches x 2 entries each.
        assert_eq!(db.snapshot().sequence(), 1600);
        let snap = db.stats().snapshot();
        assert_eq!(snap.group_batches, 800);
        for t in 0..8 {
            for i in 0..100u32 {
                assert_eq!(
                    db.get(format!("t{t}-k{i:03}-a").as_bytes()).unwrap(),
                    Some(b"1".to_vec())
                );
                assert_eq!(
                    db.get(format!("t{t}-k{i:03}-b").as_bytes()).unwrap(),
                    Some(b"2".to_vec())
                );
            }
        }
        db.close().unwrap();
    }

    #[test]
    fn small_leader_is_not_held_hostage_by_large_followers() {
        // The merge cap for a tiny leading batch is its size + 128 KiB:
        // write a tiny batch followed (in the queue) by nothing and verify
        // the pipeline still commits it alone — then verify a huge batch
        // larger than the group cap also commits (the cap limits merging,
        // not batch size).
        let mut opts = Options::leveldb();
        opts.memtable_bytes = 16 << 20;
        let (_env, db) = mem_db(opts);
        db.put(b"tiny", b"v").unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"huge", &vec![b'x'; 2 << 20]);
        db.write(batch).unwrap();
        assert_eq!(db.get(b"tiny").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.get(b"huge").unwrap(), Some(vec![b'x'; 2 << 20]));
        assert_eq!(db.stats().snapshot().group_batches, 2);
        db.close().unwrap();
    }

    /// A synced group of two writers whose WAL sync fails. The first leader
    /// is held in its sync until two writers queue behind it; their group's
    /// sync is held until a third writer queues behind the group, and then
    /// fails. Both members return the group's I/O error, the writer behind
    /// it the poison, and every acknowledged write survives a reopen.
    #[test]
    fn a_failed_sync_fails_every_member_of_its_group_and_poisons_the_queue() {
        let env = Arc::new(FaultEnv::over_mem());
        let mut opts = Options::leveldb();
        opts.sync_wal = true;
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
        db.put(b"before", b"1").unwrap();
        let queued = |n: usize| {
            while db.inner.state.lock().writers.len() < n {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let db = &db;
            arm(&env, "hold:sync:glob=*.log:nth=0");
            let first = s.spawn(|| db.put(b"first", b"2"));
            env.wait_until_held();
            let group = [b"g1", b"g2"].map(|key| s.spawn(move || db.put(key, b"3")));
            queued(3);
            arm(&env, "hold:sync:glob=*.log:nth=0");
            env.release();
            env.wait_until_held(); // the group's leader, in the group's sync
            assert_eq!(first.join().unwrap(), Ok(()));
            let behind = s.spawn(|| db.put(b"behind", b"4"));
            queued(3);
            arm(&env, "eio:sync:glob=*.log:nth=0");
            env.release();
            let [a, b] = group.map(|member| member.join().unwrap().unwrap_err());
            assert!(matches!(a, Error::Io(_)), "{a:?}");
            assert_eq!(a, b, "the members of one group share its outcome");
            assert_eq!(behind.join().unwrap(), Err(a), "the engine is poisoned");
        });
        assert!(db.close().is_err());
        drop(db);

        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        assert_eq!(db.get(b"before").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"first").unwrap(), Some(b"2".to_vec()));
        // The group's one record reached the log before its sync failed.
        // It was never acknowledged, but with no crash a reopen replays it
        // — both members, which shows that they were one group — while the
        // poisoned writer never appended at all.
        assert_eq!(db.get(b"g1").unwrap(), Some(b"3".to_vec()));
        assert_eq!(db.get(b"g2").unwrap(), Some(b"3".to_vec()));
        assert_eq!(db.get(b"behind").unwrap(), None);
        db.close().unwrap();
    }

    #[test]
    fn txn_prepare_is_invisible_until_apply() {
        let (_env, db) = mem_db(Options::leveldb());
        let marker = ShardTxnMarker {
            txn_id: 1,
            shard_bitmap: 0b1,
        };
        db.txn_prepare(marker, txn_slice(&[(b"tk", b"tv")]))
            .unwrap();
        assert_eq!(db.get(b"tk").unwrap(), None);
        db.txn_apply(1).unwrap();
        assert_eq!(db.get(b"tk").unwrap(), Some(b"tv".to_vec()));
        // Interleaved writes still sequence correctly around the apply.
        db.put(b"tk", b"after").unwrap();
        assert_eq!(db.get(b"tk").unwrap(), Some(b"after".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn txn_forget_aborts_and_apply_rejects_unknown() {
        let (_env, db) = mem_db(Options::leveldb());
        let marker = ShardTxnMarker {
            txn_id: 5,
            shard_bitmap: 0b1,
        };
        db.txn_prepare(marker, txn_slice(&[(b"gone", b"x")]))
            .unwrap();
        db.txn_forget(5).unwrap();
        assert!(matches!(db.txn_apply(5), Err(Error::InvalidArgument(_))));
        assert_eq!(db.get(b"gone").unwrap(), None);
        // Double-apply is rejected too.
        db.txn_prepare(marker, txn_slice(&[(b"once", b"x")]))
            .unwrap();
        db.txn_apply(5).unwrap();
        assert!(matches!(db.txn_apply(5), Err(Error::InvalidArgument(_))));
        db.close().unwrap();
    }

    /// An apply that fails to switch the memtable poisons the shard, so no
    /// later apply raises the applied-transaction floor past the failed id:
    /// the next open would read that floor as "applied here" and drop the
    /// id's stage unapplied.
    #[test]
    fn a_failed_apply_leaves_the_floor_below_its_id() {
        let env = Arc::new(FaultEnv::over_mem());
        // One slice fills a memtable, so the second apply switches it.
        let mut opts = Options::leveldb();
        opts.memtable_bytes = 4096;
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
        for txn_id in 1..=3u64 {
            let marker = ShardTxnMarker {
                txn_id,
                shard_bitmap: 0b11,
            };
            let key = format!("t{txn_id}");
            (db.txn_prepare(marker, txn_slice(&[(key.as_bytes(), &[b'v'; 8192])]))).unwrap();
        }
        db.txn_apply(1).unwrap();
        arm(&env, "eio:create:glob=*.log:nth=0");
        assert!(db.txn_apply(2).is_err());
        assert!(db.txn_apply(3).is_err());
        assert_eq!(db.applied_txn_floor(), 1);
        drop(db);
        let db = Db::open(env, "db", opts).unwrap();
        assert_eq!(staged_ids(&db), [2, 3]);
        assert_eq!(db.get(b"t1").unwrap().map(|v| v.len()), Some(8192));
        db.close().unwrap();
    }
}
