//! # bolt-core
//!
//! A from-scratch reproduction of **BoLT: Barrier-optimized LSM-Tree**
//! (Kim, Park, Lee & Nam, ACM/IFIP MIDDLEWARE 2020) as a Rust library —
//! including every baseline system the paper compares against, expressed
//! as configuration profiles over one engine so that measured differences
//! isolate the algorithms:
//!
//! * [`Options::leveldb`] / [`Options::leveldb_64mb`] — stock LevelDB,
//! * [`Options::hyperleveldb`] — governors removed, larger tables,
//! * [`Options::pebblesdb`] — fragmented (overlap-tolerant) levels,
//! * [`Options::rocksdb`] — big tables, compact record encoding,
//! * [`Options::bolt`] / [`Options::hyperbolt`] — the paper's system:
//!   compaction files, logical SSTables, group compaction, settled
//!   compaction, and the fd cache,
//! * `Options::bolt_ls` / `bolt_gc` / `bolt_stl` — the Fig 12 ablations.
//!
//! ```
//! use bolt_core::{Db, Options};
//! use bolt_env::{Env, MemEnv};
//! use std::sync::Arc;
//!
//! # fn main() -> bolt_common::Result<()> {
//! let env: Arc<dyn Env> = Arc::new(MemEnv::new());
//! let db = Db::open(Arc::clone(&env), "example", Options::bolt())?;
//! db.put(b"hello", b"world")?;
//! db.flush()?; // one compaction file + one MANIFEST barrier
//! assert_eq!(db.get(b"hello")?, Some(b"world".to_vec()));
//! db.close()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod compaction;
pub mod db;
pub mod filename;
pub mod iterator;
pub mod memtable;
pub mod metrics;
pub mod options;
pub mod stats;
pub mod txn;
pub mod version;
pub mod versions;
pub mod vlog;

pub use batch::WriteBatch;
pub use bolt_common::events::{BarrierCause, BarrierKind, EngineEvent, TraceEvent};
pub use bolt_common::metrics::{Metric, MetricValue, MetricsRegistry};
pub use compaction::{CompactionTask, OutputShape};
pub use db::{Db, DbIterator, LevelInfo, Snapshot};
pub use metrics::{MetricsSnapshot, QueueWaitSummary};
pub use options::{
    BoltOptions, CompactionPolicyKind, CompactionStyle, Options, ReadOptions, WriteOptions,
};
pub use stats::{DbStats, DbStatsSnapshot};
pub use txn::{ShardTxnMarker, TxnWalRecord};
pub use vlog::ValuePointer;
