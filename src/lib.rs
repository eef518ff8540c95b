//! # bolt
//!
//! A complete, from-scratch Rust reproduction of **BoLT: Barrier-optimized
//! LSM-Tree** (Dongui Kim, Chanyeol Park, Sang-Won Lee, Beomseok Nam —
//! ACM/IFIP MIDDLEWARE 2020).
//!
//! BoLT attacks the *data-barrier overhead* of LSM-tree compaction: in
//! LevelDB-family stores every output SSTable is its own file and costs its
//! own `fsync()` before the MANIFEST commit. BoLT decouples SSTables from
//! files with four mechanisms — **compaction files**, **logical SSTables**,
//! **group compaction**, and **settled compaction** — cutting barriers per
//! compaction to exactly two while keeping SSTables fine-grained.
//!
//! This crate is a facade over the workspace:
//!
//! * [`bolt_core`] — the engine and every baseline profile (LevelDB,
//!   HyperLevelDB, PebblesDB-style, RocksDB-style, BoLT, HyperBoLT),
//! * [`bolt_env`] — the storage substrate (in-memory with crash injection,
//!   simulated-SSD cost model, real filesystem),
//! * [`bolt_table`] / [`bolt_wal`] — the on-disk formats,
//! * [`bolt_ycsb`] — the YCSB workloads used in the paper's evaluation,
//! * [`bolt_common`] — shared utilities.
//!
//! ## Quickstart
//!
//! ```
//! use bolt::{Db, Options};
//! use bolt_env::{Env, MemEnv};
//! use std::sync::Arc;
//!
//! # fn main() -> bolt::Result<()> {
//! let env: Arc<dyn Env> = Arc::new(MemEnv::new());
//! let db = Db::open(Arc::clone(&env), "my-db", Options::bolt())?;
//! db.put(b"key", b"value")?;
//! db.flush()?; // one compaction file + one MANIFEST barrier
//! assert_eq!(db.get(b"key")?, Some(b"value".to_vec()));
//! let metrics = db.metrics(); // merged engine + I/O + event counters
//! println!("barriers so far: {}", metrics.total_barriers());
//! for event in db.events() {
//!     println!("{}", event.to_json()); // structured engine trace
//! }
//! db.close()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use bolt_common::{Error, Result};
pub use bolt_core::{
    BarrierCause, BarrierKind, BoltOptions, CompactionPolicyKind, CompactionStyle, Db, DbIterator,
    DbStats, DbStatsSnapshot, EngineEvent, LevelInfo, Metric, MetricValue, MetricsRegistry,
    MetricsSnapshot, Options, QueueWaitSummary, ReadOptions, Snapshot, StallCause, TraceEvent,
    WriteBatch, WriteOptions,
};
pub use bolt_env::{
    CrashConfig, CrashEnv, DeviceModel, Env, FaultEnv, FaultPlan, IoSnapshot, IoStats, MemEnv,
    OpKind, OpRecord, RealEnv, SimEnv,
};
pub use bolt_sharded::{Router, ShardedDb, ShardedIterator, ShardedMetrics, ShardedSnapshot};

/// Re-export of the shared-utilities crate.
pub use bolt_common;
/// Re-export of the engine crate.
pub use bolt_core;
/// Re-export of the storage substrate crate.
pub use bolt_env;
/// Re-export of the sharding layer crate.
pub use bolt_sharded;
/// Re-export of the SSTable-format crate.
pub use bolt_table;
/// Re-export of the WAL crate.
pub use bolt_wal;
/// Re-export of the YCSB workload crate.
pub use bolt_ycsb;
