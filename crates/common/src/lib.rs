//! # bolt-common
//!
//! Shared foundation for the BoLT (Barrier-optimized LSM-Tree) workspace:
//! the byte-level coding, checksums, bloom filters, caches, histograms,
//! arena, and skiplist that LevelDB-family engines keep in `util/`.
//!
//! Everything here is dependency-light and engine-agnostic; the storage
//! substrate lives in `bolt-env`, the file formats in `bolt-wal` /
//! `bolt-table`, and the engine itself in `bolt-core`.
//!
//! ```
//! use bolt_common::bloom::BloomFilterPolicy;
//!
//! let policy = BloomFilterPolicy::default(); // the paper's 10 bits/key
//! let mut filter = Vec::new();
//! policy.create_filter(&[b"k1", b"k2"], &mut filter);
//! assert!(policy.key_may_match(b"k1", &filter));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod bloom;
pub mod cache;
pub mod coding;
pub mod crc32c;
#[cfg(feature = "debug_locks")]
pub mod debug_locks;
pub mod error;
pub mod events;
pub mod histogram;
pub mod metrics;
pub mod rng;
pub mod skiplist;
pub mod sync;

pub use error::{Error, Result};
