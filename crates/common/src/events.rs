//! Structured engine-event tracing.
//!
//! The paper's argument is about *where barriers happen and what they cost*,
//! so the trace subsystem makes every durability barrier attributable: a
//! thread-local [`BarrierScope`] tags the cause, the env's I/O choke point
//! emits one [`EngineEvent::Barrier`] per device barrier, and the engine
//! emits begin/end events for flushes, compactions, write groups, stalls,
//! and MANIFEST commits. Events land in a bounded ring ([`EventSink`]) that
//! callers drain via `Db::events()`; per-cause barrier counters are kept
//! forever so barriers-per-compaction is measurable even after the ring
//! wraps. See DESIGN.md §11 for the taxonomy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Why a barrier was issued. Attached to every [`EngineEvent::Barrier`] so
/// barrier counts can be broken down by the operation that paid for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierCause {
    /// WAL sync issued on the foreground group-commit path.
    WalCommit,
    /// Final WAL sync while closing the database.
    WalClose,
    /// Table data written by a memtable flush.
    FlushData,
    /// MANIFEST commit of a flush result.
    FlushManifest,
    /// Table data written by a rewrite compaction.
    CompactionData,
    /// MANIFEST commit of a compaction result (including settled moves).
    CompactionManifest,
    /// MANIFEST or snapshot writes during open / recovery.
    OpenManifest,
    /// The CURRENT pointer file swing.
    CurrentPointer,
    /// Re-cutting a fresh MANIFEST after a failed commit barrier (the
    /// self-healing path: snapshot write + re-appended edit sync).
    ManifestRecut,
    /// Value-log segment barrier paid before the WAL record carrying its
    /// pointers (WAL-time key-value separation).
    VlogData,
    /// Checkpoint publication: the linked file set and the checkpoint's
    /// MANIFEST/CURRENT must be durable before `checkpoint()` acks.
    Checkpoint,
    /// No scope was active: the barrier could not be attributed.
    Unattributed,
}

impl BarrierCause {
    /// Every cause, in stable order (used by exporters and counters).
    pub const ALL: [BarrierCause; 12] = [
        BarrierCause::WalCommit,
        BarrierCause::WalClose,
        BarrierCause::FlushData,
        BarrierCause::FlushManifest,
        BarrierCause::CompactionData,
        BarrierCause::CompactionManifest,
        BarrierCause::OpenManifest,
        BarrierCause::CurrentPointer,
        BarrierCause::ManifestRecut,
        BarrierCause::VlogData,
        BarrierCause::Checkpoint,
        BarrierCause::Unattributed,
    ];

    /// Stable snake_case name (used in JSON and Prometheus labels).
    pub fn as_str(self) -> &'static str {
        match self {
            BarrierCause::WalCommit => "wal_commit",
            BarrierCause::WalClose => "wal_close",
            BarrierCause::FlushData => "flush_data",
            BarrierCause::FlushManifest => "flush_manifest",
            BarrierCause::CompactionData => "compaction_data",
            BarrierCause::CompactionManifest => "compaction_manifest",
            BarrierCause::OpenManifest => "open_manifest",
            BarrierCause::CurrentPointer => "current_pointer",
            BarrierCause::ManifestRecut => "manifest_recut",
            BarrierCause::VlogData => "vlog_data",
            BarrierCause::Checkpoint => "checkpoint",
            BarrierCause::Unattributed => "unattributed",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The flavor of barrier the device saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierKind {
    /// Full durability barrier (`fsync`/`fdatasync`).
    Fsync,
    /// Ordering-only barrier (the BarrierFS `fbarrier()` extension).
    Ordering,
}

impl BarrierKind {
    /// Stable snake_case name.
    pub fn as_str(self) -> &'static str {
        match self {
            BarrierKind::Fsync => "fsync",
            BarrierKind::Ordering => "ordering",
        }
    }
}

std::thread_local! {
    static CURRENT_CAUSE: std::cell::Cell<Option<BarrierCause>> =
        const { std::cell::Cell::new(None) };
}

/// The barrier cause currently in scope on this thread
/// ([`BarrierCause::Unattributed`] when none).
pub fn current_barrier_cause() -> BarrierCause {
    CURRENT_CAUSE
        .with(|c| c.get())
        .unwrap_or(BarrierCause::Unattributed)
}

/// RAII guard that tags barriers issued by the current thread with a cause.
///
/// Scopes nest lexically: the innermost active scope wins, and dropping a
/// scope restores whatever was in effect before it. The engine opens a scope
/// around each multi-barrier operation (flush, compaction, close); the WAL
/// writer opens a *default* scope ([`BarrierScope::default_for`]) so that
/// un-scoped syncs on a tagged writer still attribute correctly.
#[derive(Debug)]
pub struct BarrierScope {
    prev: Option<BarrierCause>,
}

impl BarrierScope {
    /// Enter a scope: barriers on this thread are tagged `cause` until drop.
    pub fn new(cause: BarrierCause) -> Self {
        let prev = CURRENT_CAUSE.with(|c| c.replace(Some(cause)));
        BarrierScope { prev }
    }

    /// Enter a *default* scope: tags barriers `cause` only when no explicit
    /// scope is already active (an enclosing [`BarrierScope::new`] wins).
    pub fn default_for(cause: BarrierCause) -> Self {
        let prev = CURRENT_CAUSE.with(|c| {
            let prev = c.get();
            if prev.is_none() {
                c.set(Some(cause));
            }
            prev
        });
        BarrierScope { prev }
    }
}

impl Drop for BarrierScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_CAUSE.with(|c| c.set(prev));
    }
}

/// One structured engine event. Every variant that describes a multi-event
/// operation carries a monotonic `id` so a consumer can window the stream
/// (e.g. count the barriers between a compaction's begin and end even when a
/// flush on the other background thread commits inside that window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A memtable flush started.
    FlushBegin {
        /// Monotonic flush id.
        id: u64,
        /// Approximate bytes in the immutable memtable.
        input_bytes: u64,
    },
    /// A memtable flush completed.
    FlushEnd {
        /// Monotonic flush id (matches the begin event).
        id: u64,
        /// Table bytes written.
        output_bytes: u64,
        /// Level the output landed on.
        level: u32,
    },
    /// A background compaction started.
    CompactionBegin {
        /// Monotonic compaction id.
        id: u64,
        /// Source level.
        level: u32,
        /// Number of victim tables selected.
        victims: u64,
        /// Bytes of input selected for the compaction.
        input_bytes: u64,
        /// Of those, the tables being moved out of `level` (settled moves,
        /// which move no byte, not counted).
        victim_bytes: u64,
        /// Of those, the tables already at the output level that overlap
        /// the victims and are rewritten with them.
        overlap_bytes: u64,
        /// Stable name of the compaction policy that picked the victims
        /// (`leveled`, `size_tiered`, `lazy_leveled`, or `fragmented`).
        policy: &'static str,
    },
    /// A background compaction committed.
    CompactionEnd {
        /// Monotonic compaction id (matches the begin event).
        id: u64,
        /// Logical tables written by the rewrite phase.
        outputs: u64,
        /// Bytes written by the rewrite phase.
        output_bytes: u64,
        /// Victim tables promoted without rewrite (settled compaction).
        settled: u64,
        /// Whether any data was rewritten (false = settled moves only).
        rewrote: bool,
        /// Stable name of the compaction policy that picked the victims
        /// (`leveled`, `size_tiered`, `lazy_leveled`, or `fragmented`).
        policy: &'static str,
    },
    /// Victim tables were promoted in place by settled compaction.
    SettledMove {
        /// Compaction id this move belongs to.
        id: u64,
        /// Source level of the promoted tables.
        level: u32,
        /// Number of tables promoted without rewrite.
        tables: u64,
    },
    /// A commit group retired on the write path.
    WriteGroup {
        /// Writer batches merged into the group.
        batches: u64,
        /// Encoded bytes appended to the WAL.
        bytes: u64,
        /// Whether a WAL durability barrier was issued for the group.
        synced: bool,
        /// Sync requests answered by the group barrier without their own.
        syncs_elided: u64,
    },
    /// A writer entered a full stall (memtable and imm both full, or L0Stop).
    StallBegin,
    /// The stalled writer resumed.
    StallEnd {
        /// Nanoseconds the writer was blocked.
        waited_nanos: u64,
    },
    /// The L0SlowDown governor put a writer to sleep for 1 ms.
    Slowdown,
    /// The WAL was rotated to a fresh log file.
    WalRotate {
        /// File number of the new log.
        new_log: u64,
    },
    /// A VersionEdit was appended to the MANIFEST and synced (the commit
    /// barrier of a flush or compaction).
    ManifestCommit {
        /// Encoded size of the edit.
        edit_bytes: u64,
        /// Tables added by the edit.
        added: u64,
        /// Tables deleted by the edit.
        deleted: u64,
    },
    /// A failed MANIFEST commit barrier was self-healed: the torn MANIFEST
    /// was abandoned, a fresh one was cut from a full snapshot of the
    /// current version, CURRENT was durably swung, and the failed edit was
    /// re-appended and re-synced against the fresh writer.
    ManifestRecut {
        /// File number of the abandoned (torn) MANIFEST.
        abandoned: u64,
        /// File number of the freshly cut MANIFEST now named by CURRENT.
        new_manifest: u64,
        /// Live tables captured in the fresh MANIFEST's snapshot record.
        snapshot_tables: u64,
    },
    /// The device saw a barrier. Emitted from the env's I/O accounting choke
    /// point, so *every* barrier in the process appears here exactly once.
    Barrier {
        /// The operation that paid for the barrier.
        cause: BarrierCause,
        /// Full durability or ordering-only.
        kind: BarrierKind,
    },
    /// Dead logical-table bytes were reclaimed by punching a hole.
    HolePunch {
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// The value log rotated to a fresh segment (WAL-time separation).
    VlogRotate {
        /// File number of the new segment.
        new_segment: u64,
    },
    /// Dead value bytes were reclaimed from a value-log segment by
    /// punching holes over the ranges compaction reported dead.
    VlogGc {
        /// Segment the holes were punched in.
        segment: u64,
        /// Cumulative dead bytes in the segment after this pass.
        dead_bytes: u64,
        /// Bytes reclaimed by this pass's punches.
        punched_bytes: u64,
    },
    /// A fully dead value-log segment's file was deleted.
    VlogRetire {
        /// The retired segment.
        segment: u64,
        /// Bytes the deleted file occupied.
        reclaimed_bytes: u64,
    },
    /// A ranged tombstone was accepted by `delete_range`.
    RangeDelete {
        /// Combined length of the begin and end user keys.
        bytes: u64,
    },
    /// An online consistent checkpoint started (version pinned).
    CheckpointBegin {
        /// Monotonic checkpoint id.
        id: u64,
    },
    /// A checkpoint was durably published and acked.
    CheckpointEnd {
        /// Monotonic checkpoint id (matches the begin event).
        id: u64,
        /// Logical tables captured in the checkpoint.
        tables: u64,
        /// Files hard-linked (or copied) into the checkpoint directory.
        files: u64,
    },
}

/// One field value of an event's wire form.
enum Field {
    Num(u64),
    Bool(bool),
    Str(&'static str),
}

/// One row of [`EngineEvent::wire`]: the type name, then each field as
/// `Kind binding` — a field's wire name is its name in the enum.
macro_rules! wire {
    ($name:literal $(, $kind:ident $field:ident)*) => {
        ($name, vec![$((stringify!($field), Field::$kind($field.into()))),*])
    };
}

impl EngineEvent {
    /// The event's wire form: its stable snake_case type name and its
    /// fields, by wire name, in wire order. The one per-variant table
    /// [`EngineEvent::type_name`] and [`TraceEvent::to_json`] are both read
    /// from; `schemas/trace.schema.json` lists the same names (a test holds
    /// the `type` enum to that).
    fn wire(&self) -> (&'static str, Vec<(&'static str, Field)>) {
        match *self {
            Self::FlushBegin { id, input_bytes } => wire!("flush_begin", Num id, Num input_bytes),
            Self::FlushEnd {
                id,
                output_bytes,
                level,
            } => wire!("flush_end", Num id, Num output_bytes, Num level),
            Self::CompactionBegin {
                id,
                level,
                victims,
                input_bytes,
                victim_bytes,
                overlap_bytes,
                policy,
            } => {
                wire!("compaction_begin", Num id, Num level, Num victims, Num input_bytes, Num victim_bytes, Num overlap_bytes, Str policy)
            }
            Self::CompactionEnd {
                id,
                outputs,
                output_bytes,
                settled,
                rewrote,
                policy,
            } => {
                wire!("compaction_end", Num id, Num outputs, Num output_bytes, Num settled, Bool rewrote, Str policy)
            }
            Self::SettledMove { id, level, tables } => {
                wire!("settled_move", Num id, Num level, Num tables)
            }
            Self::WriteGroup {
                batches,
                bytes,
                synced,
                syncs_elided,
            } => wire!("write_group", Num batches, Num bytes, Bool synced, Num syncs_elided),
            Self::StallBegin => wire!("stall_begin"),
            Self::StallEnd { waited_nanos } => wire!("stall_end", Num waited_nanos),
            Self::Slowdown => wire!("slowdown"),
            Self::WalRotate { new_log } => wire!("wal_rotate", Num new_log),
            Self::ManifestCommit {
                edit_bytes,
                added,
                deleted,
            } => wire!("manifest_commit", Num edit_bytes, Num added, Num deleted),
            Self::ManifestRecut {
                abandoned,
                new_manifest,
                snapshot_tables,
            } => wire!("manifest_recut", Num abandoned, Num new_manifest, Num snapshot_tables),
            Self::Barrier { cause, kind } => {
                let (cause, kind) = (cause.as_str(), kind.as_str());
                wire!("barrier", Str cause, Str kind)
            }
            Self::HolePunch { bytes } => wire!("hole_punch", Num bytes),
            Self::VlogRotate { new_segment } => wire!("vlog_rotate", Num new_segment),
            Self::VlogGc {
                segment,
                dead_bytes,
                punched_bytes,
            } => wire!("vlog_gc", Num segment, Num dead_bytes, Num punched_bytes),
            Self::VlogRetire {
                segment,
                reclaimed_bytes,
            } => wire!("vlog_retire", Num segment, Num reclaimed_bytes),
            Self::RangeDelete { bytes } => wire!("range_delete", Num bytes),
            Self::CheckpointBegin { id } => wire!("checkpoint_begin", Num id),
            Self::CheckpointEnd { id, tables, files } => {
                wire!("checkpoint_end", Num id, Num tables, Num files)
            }
        }
    }

    /// Stable snake_case event-type name.
    pub fn type_name(&self) -> &'static str {
        self.wire().0
    }

    /// One-line human description (the `bolt-tool trace` text format).
    pub fn describe(&self) -> String {
        match self {
            EngineEvent::FlushBegin { id, input_bytes } => {
                format!("flush #{id} begin ({input_bytes} B in memtable)")
            }
            EngineEvent::FlushEnd {
                id,
                output_bytes,
                level,
            } => format!("flush #{id} end -> L{level} ({output_bytes} B)"),
            EngineEvent::CompactionBegin {
                id,
                level,
                victims,
                input_bytes,
                victim_bytes,
                overlap_bytes,
                policy,
            } => format!(
                "compaction #{id} begin L{level} [{policy}] ({victims} victims, {input_bytes} B = {victim_bytes} B moved + {overlap_bytes} B overlap)"
            ),
            EngineEvent::CompactionEnd {
                id,
                outputs,
                output_bytes,
                settled,
                rewrote,
                policy,
            } => format!(
                "compaction #{id} end [{policy}] ({outputs} outputs, {output_bytes} B, {settled} settled, rewrote={rewrote})"
            ),
            EngineEvent::SettledMove { id, level, tables } => {
                format!("compaction #{id} settled {tables} table(s) from L{level}")
            }
            EngineEvent::WriteGroup {
                batches,
                bytes,
                synced,
                syncs_elided,
            } => format!(
                "write group ({batches} batches, {bytes} B, synced={synced}, {syncs_elided} syncs elided)"
            ),
            EngineEvent::StallBegin => "writer stall begin".to_string(),
            EngineEvent::StallEnd { waited_nanos } => {
                format!("writer stall end ({waited_nanos} ns)")
            }
            EngineEvent::Slowdown => "writer slowdown (1 ms)".to_string(),
            EngineEvent::WalRotate { new_log } => format!("WAL rotated to log {new_log:06}"),
            EngineEvent::ManifestCommit {
                edit_bytes,
                added,
                deleted,
            } => format!(
                "MANIFEST commit ({edit_bytes} B edit, +{added}/-{deleted} tables)"
            ),
            EngineEvent::ManifestRecut {
                abandoned,
                new_manifest,
                snapshot_tables,
            } => format!(
                "MANIFEST re-cut ({abandoned:06} -> {new_manifest:06}, {snapshot_tables} tables snapshotted)"
            ),
            EngineEvent::Barrier { cause, kind } => {
                format!("barrier [{}] cause={}", kind.as_str(), cause.as_str())
            }
            EngineEvent::HolePunch { bytes } => format!("hole punched ({bytes} B reclaimed)"),
            EngineEvent::VlogRotate { new_segment } => {
                format!("value log rotated to segment {new_segment:06}")
            }
            EngineEvent::VlogGc {
                segment,
                dead_bytes,
                punched_bytes,
            } => format!(
                "vlog GC segment {segment:06} ({punched_bytes} B punched, {dead_bytes} B dead total)"
            ),
            EngineEvent::VlogRetire {
                segment,
                reclaimed_bytes,
            } => format!("vlog segment {segment:06} retired ({reclaimed_bytes} B reclaimed)"),
            EngineEvent::RangeDelete { bytes } => {
                format!("range delete accepted ({bytes} B of bounds)")
            }
            EngineEvent::CheckpointBegin { id } => format!("checkpoint #{id} begin"),
            EngineEvent::CheckpointEnd { id, tables, files } => {
                format!("checkpoint #{id} end ({tables} tables, {files} files linked)")
            }
        }
    }
}

/// One traced event: the payload plus its global sequence number and the
/// microsecond offset from sink creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (dense, starts at 0).
    pub seq: u64,
    /// Microseconds since the sink was created.
    pub micros: u64,
    /// The event payload.
    pub event: EngineEvent,
}

impl TraceEvent {
    /// Render as one self-contained JSON object (the `bolt-tool trace`
    /// line format; see `schemas/trace.schema.json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let (type_name, fields) = self.event.wire();
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"seq\":{},\"us\":{},\"type\":\"{type_name}\"",
            self.seq, self.micros
        );
        for (name, value) in fields {
            let _ = match value {
                Field::Num(v) => write!(s, ",\"{name}\":{v}"),
                Field::Bool(v) => write!(s, ",\"{name}\":{v}"),
                Field::Str(v) => write!(s, ",\"{name}\":\"{v}\""),
            };
        }
        s.push('}');
        s
    }
}

/// Capacity of the [`EventSink`] ring. Old events are overwritten (and
/// counted as dropped) when a consumer falls this far behind.
pub const EVENT_RING_CAPACITY: usize = 4096;

const NUM_CAUSES: usize = BarrierCause::ALL.len();

/// Bounded multi-producer event ring.
///
/// `emit` is wait-free in the common case: a `fetch_add` claims a sequence
/// number and a per-slot mutex (never contended except against a concurrent
/// drain of the same slot) publishes the event. Per-cause barrier counters
/// are cumulative and survive ring wrap, so `barrier_count` is exact for the
/// lifetime of the sink.
pub struct EventSink {
    slots: Box<[Mutex<Option<TraceEvent>>]>,
    head: AtomicU64,
    /// Next sequence number a drain will hand out.
    drained: Mutex<u64>,
    dropped: AtomicU64,
    barriers: [AtomicU64; NUM_CAUSES],
    start: Instant,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("emitted", &self.emitted())
            .field("dropped", &self.dropped())
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl Default for EventSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink {
    /// Create an empty sink with [`EVENT_RING_CAPACITY`] slots.
    pub fn new() -> Self {
        let slots: Vec<Mutex<Option<TraceEvent>>> =
            (0..EVENT_RING_CAPACITY).map(|_| Mutex::new(None)).collect();
        EventSink {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            drained: Mutex::new(0),
            dropped: AtomicU64::new(0),
            barriers: std::array::from_fn(|_| AtomicU64::new(0)),
            start: Instant::now(),
        }
    }

    /// Record `event` with the next sequence number and a timestamp.
    pub fn emit(&self, event: EngineEvent) {
        if let EngineEvent::Barrier { cause, .. } = &event {
            self.barriers[cause.index()].fetch_add(1, Ordering::Relaxed);
        }
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        let micros = self.start.elapsed().as_micros() as u64;
        let idx = (seq % self.slots.len() as u64) as usize;
        *self.slots[idx].lock() = Some(TraceEvent { seq, micros, event });
    }

    /// Emit a [`EngineEvent::Barrier`] tagged with the calling thread's
    /// current [`BarrierCause`] scope.
    pub fn emit_barrier(&self, kind: BarrierKind) {
        self.emit(EngineEvent::Barrier {
            cause: current_barrier_cause(),
            kind,
        });
    }

    /// Remove and return every event not yet drained, in sequence order.
    /// Events overwritten before they could be drained are counted in
    /// [`EventSink::dropped`].
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut cursor = self.drained.lock();
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = if head.saturating_sub(*cursor) > cap {
            self.dropped
                .fetch_add(head - *cursor - cap, Ordering::Relaxed);
            head - cap
        } else {
            *cursor
        };
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let idx = (seq % cap) as usize;
            let taken = self.slots[idx].lock().take();
            if let Some(ev) = taken {
                if ev.seq == seq {
                    out.push(ev);
                } else {
                    // A concurrent emitter lapped this slot between our head
                    // read and now; the newer event stays for the next drain.
                    *self.slots[idx].lock() = Some(ev);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            // `None` = the emitter claimed the slot but hasn't published yet;
            // it will surface (and be skipped as stale) on a later drain.
        }
        *cursor = head;
        out
    }

    /// Total events emitted since creation (including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events overwritten before any drain could observe them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Cumulative barriers attributed to `cause` (exact; survives ring wrap).
    pub fn barrier_count(&self, cause: BarrierCause) -> u64 {
        self.barriers[cause.index()].load(Ordering::Relaxed)
    }

    /// All per-cause cumulative barrier counters, in [`BarrierCause::ALL`]
    /// order.
    pub fn barrier_counts(&self) -> [(BarrierCause, u64); NUM_CAUSES] {
        let mut out = [(BarrierCause::Unattributed, 0u64); NUM_CAUSES];
        for (i, cause) in BarrierCause::ALL.iter().enumerate() {
            out[i] = (*cause, self.barriers[i].load(Ordering::Relaxed));
        }
        out
    }

    /// Sum of all per-cause barrier counters.
    pub fn total_barriers(&self) -> u64 {
        self.barriers
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One event of every variant, with the JSON line the hand-written
    /// `to_json` produced for it before `wire` replaced the three copies:
    /// same field names, same order (`compaction_begin` gained its two
    /// byte counts with schema v5). The schema's `type` enum lists exactly
    /// these type names, so a variant added to one place and not the others
    /// fails here.
    #[test]
    fn wire_form_of_every_variant_is_pinned() {
        use EngineEvent::*;
        let pinned = [
            (
                FlushBegin {
                    id: 1,
                    input_bytes: 2,
                },
                r#"{"seq":0,"us":100,"type":"flush_begin","id":1,"input_bytes":2}"#,
            ),
            (
                FlushEnd {
                    id: 1,
                    output_bytes: 3,
                    level: 0,
                },
                r#"{"seq":1,"us":101,"type":"flush_end","id":1,"output_bytes":3,"level":0}"#,
            ),
            (
                CompactionBegin {
                    id: 4,
                    level: 1,
                    victims: 5,
                    input_bytes: 6,
                    victim_bytes: 2,
                    overlap_bytes: 4,
                    policy: "leveled",
                },
                r#"{"seq":2,"us":102,"type":"compaction_begin","id":4,"level":1,"victims":5,"input_bytes":6,"victim_bytes":2,"overlap_bytes":4,"policy":"leveled"}"#,
            ),
            (
                CompactionEnd {
                    id: 4,
                    outputs: 7,
                    output_bytes: 8,
                    settled: 9,
                    rewrote: true,
                    policy: "lazy_leveled",
                },
                r#"{"seq":3,"us":103,"type":"compaction_end","id":4,"outputs":7,"output_bytes":8,"settled":9,"rewrote":true,"policy":"lazy_leveled"}"#,
            ),
            (
                SettledMove {
                    id: 4,
                    level: 2,
                    tables: 10,
                },
                r#"{"seq":4,"us":104,"type":"settled_move","id":4,"level":2,"tables":10}"#,
            ),
            (
                WriteGroup {
                    batches: 11,
                    bytes: 12,
                    synced: false,
                    syncs_elided: 13,
                },
                r#"{"seq":5,"us":105,"type":"write_group","batches":11,"bytes":12,"synced":false,"syncs_elided":13}"#,
            ),
            (StallBegin, r#"{"seq":6,"us":106,"type":"stall_begin"}"#),
            (
                StallEnd { waited_nanos: 14 },
                r#"{"seq":7,"us":107,"type":"stall_end","waited_nanos":14}"#,
            ),
            (Slowdown, r#"{"seq":8,"us":108,"type":"slowdown"}"#),
            (
                WalRotate { new_log: 15 },
                r#"{"seq":9,"us":109,"type":"wal_rotate","new_log":15}"#,
            ),
            (
                ManifestCommit {
                    edit_bytes: 16,
                    added: 17,
                    deleted: 18,
                },
                r#"{"seq":10,"us":110,"type":"manifest_commit","edit_bytes":16,"added":17,"deleted":18}"#,
            ),
            (
                ManifestRecut {
                    abandoned: 19,
                    new_manifest: 20,
                    snapshot_tables: 21,
                },
                r#"{"seq":11,"us":111,"type":"manifest_recut","abandoned":19,"new_manifest":20,"snapshot_tables":21}"#,
            ),
            (
                Barrier {
                    cause: BarrierCause::CompactionData,
                    kind: BarrierKind::Ordering,
                },
                r#"{"seq":12,"us":112,"type":"barrier","cause":"compaction_data","kind":"ordering"}"#,
            ),
            (
                HolePunch { bytes: 22 },
                r#"{"seq":13,"us":113,"type":"hole_punch","bytes":22}"#,
            ),
            (
                VlogRotate { new_segment: 23 },
                r#"{"seq":14,"us":114,"type":"vlog_rotate","new_segment":23}"#,
            ),
            (
                VlogGc {
                    segment: 24,
                    dead_bytes: 25,
                    punched_bytes: 26,
                },
                r#"{"seq":15,"us":115,"type":"vlog_gc","segment":24,"dead_bytes":25,"punched_bytes":26}"#,
            ),
            (
                VlogRetire {
                    segment: 27,
                    reclaimed_bytes: 28,
                },
                r#"{"seq":16,"us":116,"type":"vlog_retire","segment":27,"reclaimed_bytes":28}"#,
            ),
            (
                RangeDelete { bytes: 29 },
                r#"{"seq":17,"us":117,"type":"range_delete","bytes":29}"#,
            ),
            (
                CheckpointBegin { id: 30 },
                r#"{"seq":18,"us":118,"type":"checkpoint_begin","id":30}"#,
            ),
            (
                CheckpointEnd {
                    id: 30,
                    tables: 31,
                    files: 32,
                },
                r#"{"seq":19,"us":119,"type":"checkpoint_end","id":30,"tables":31,"files":32}"#,
            ),
        ];
        let mut type_names = Vec::new();
        for (i, (event, json)) in pinned.into_iter().enumerate() {
            type_names.push(event.type_name());
            let traced = TraceEvent {
                seq: i as u64,
                micros: 100 + i as u64,
                event,
            };
            assert_eq!(traced.to_json(), json);
        }

        // The first `enum` of the schema is the one of its `type` property.
        let schema = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/trace.schema.json"
        ));
        let (_, after) = schema
            .split_once("\"enum\": [")
            .expect("schema has an enum");
        let (list, _) = after.split_once(']').expect("enum list ends");
        let mut in_schema: Vec<&str> = list
            .split(',')
            .map(|name| name.trim().trim_matches('"'))
            .collect();
        assert!(
            in_schema.contains(&"flush_begin"),
            "not the type enum: {in_schema:?}"
        );
        in_schema.sort_unstable();
        type_names.sort_unstable();
        assert_eq!(type_names, in_schema);
    }

    #[test]
    fn emit_and_drain_in_order() {
        let sink = EventSink::new();
        sink.emit(EngineEvent::Slowdown);
        sink.emit(EngineEvent::WalRotate { new_log: 7 });
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].event, EngineEvent::Slowdown);
        assert_eq!(events[1].event, EngineEvent::WalRotate { new_log: 7 });
        assert!(sink.drain().is_empty(), "drain consumes");
        assert_eq!(sink.emitted(), 2);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts_them() {
        let sink = EventSink::new();
        let extra = 100u64;
        for i in 0..EVENT_RING_CAPACITY as u64 + extra {
            sink.emit(EngineEvent::WalRotate { new_log: i });
        }
        let events = sink.drain();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(events[0].seq, extra, "oldest surviving event");
        assert_eq!(sink.dropped(), extra);
    }

    #[test]
    fn barrier_scopes_nest_and_restore() {
        assert_eq!(current_barrier_cause(), BarrierCause::Unattributed);
        {
            let _outer = BarrierScope::new(BarrierCause::FlushData);
            assert_eq!(current_barrier_cause(), BarrierCause::FlushData);
            {
                let _inner = BarrierScope::new(BarrierCause::FlushManifest);
                assert_eq!(current_barrier_cause(), BarrierCause::FlushManifest);
            }
            assert_eq!(current_barrier_cause(), BarrierCause::FlushData);
            // A default scope must NOT override the active explicit scope.
            {
                let _default = BarrierScope::default_for(BarrierCause::WalCommit);
                assert_eq!(current_barrier_cause(), BarrierCause::FlushData);
            }
        }
        assert_eq!(current_barrier_cause(), BarrierCause::Unattributed);
        {
            let _default = BarrierScope::default_for(BarrierCause::WalCommit);
            assert_eq!(current_barrier_cause(), BarrierCause::WalCommit);
        }
        assert_eq!(current_barrier_cause(), BarrierCause::Unattributed);
    }

    #[test]
    fn per_cause_barrier_counters() {
        let sink = EventSink::new();
        {
            let _scope = BarrierScope::new(BarrierCause::CompactionData);
            sink.emit_barrier(BarrierKind::Ordering);
        }
        sink.emit_barrier(BarrierKind::Fsync);
        assert_eq!(sink.barrier_count(BarrierCause::CompactionData), 1);
        assert_eq!(sink.barrier_count(BarrierCause::Unattributed), 1);
        assert_eq!(sink.total_barriers(), 2);
        let by_cause = sink.barrier_counts();
        assert_eq!(by_cause.iter().map(|(_, n)| n).sum::<u64>(), 2);
    }

    #[test]
    fn json_lines_are_well_formed() {
        let sink = EventSink::new();
        sink.emit(EngineEvent::CompactionBegin {
            id: 3,
            level: 1,
            victims: 4,
            input_bytes: 4096,
            victim_bytes: 1024,
            overlap_bytes: 3072,
            policy: "leveled",
        });
        sink.emit(EngineEvent::Barrier {
            cause: BarrierCause::CompactionManifest,
            kind: BarrierKind::Fsync,
        });
        let lines: Vec<String> = sink.drain().iter().map(TraceEvent::to_json).collect();
        assert!(lines[0].contains("\"type\":\"compaction_begin\""));
        assert!(lines[0].contains("\"victims\":4"));
        assert!(lines[0].contains("\"policy\":\"leveled\""));
        assert!(lines[1].contains("\"cause\":\"compaction_manifest\""));
        assert!(lines[1].contains("\"kind\":\"fsync\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn concurrent_emitters_do_not_lose_sequence_numbers() {
        let sink = Arc::new(EventSink::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        sink.emit(EngineEvent::Slowdown);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sink.emitted(), 2000);
        let events = sink.drain();
        assert_eq!(events.len(), 2000);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
    }
}
