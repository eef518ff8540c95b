//! # bolt-table
//!
//! The SSTable format for the BoLT workspace.
//!
//! The one design decision that enables everything in the BoLT paper is
//! here: a table is addressed by **`(file, offset, size)`**, never by a
//! whole file. [`builder::TableBuilder`] starts at the current end of any
//! [`bolt_env::WritableFile`] and never syncs, so a compaction can stream
//! several *logical SSTables* into a single *compaction file* and pay for
//! exactly one durability barrier; [`table::Table`] reads a table back from
//! any byte range of a file.
//!
//! Also here: the internal-key encoding ([`ikey`]), comparators
//! ([`comparator`]), prefix-compressed blocks with the Legacy/Compact
//! encodings ([`block`], [`builder::TableFormat`]), the block cache, the
//! TableCache + BoLT fd cache ([`cache`]), and the sequential input reader
//! compactions fetch their victims with ([`seq`]).
//!
//! ```
//! use bolt_env::{Env, MemEnv};
//! use bolt_table::builder::{TableBuilder, TableFormat};
//! use bolt_table::ikey::{make_internal_key, ValueType};
//!
//! # fn main() -> bolt_common::Result<()> {
//! let env = MemEnv::new();
//! let mut file = env.new_writable_file("000001.cf")?;
//! // Two logical SSTables, one physical file, one barrier:
//! for t in 0..2 {
//!     let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
//!     let key = make_internal_key(format!("key{t}").as_bytes(), 1, ValueType::Value);
//!     b.add(&key, b"value")?;
//!     let built = b.finish()?;
//!     assert!(built.size > 0);
//! }
//! file.sync()?; // the only fsync
//! assert_eq!(env.stats().fsync_calls(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod cache;
pub mod comparator;
#[cfg(test)]
#[path = "../../common/src/damage.rs"]
mod damage;
pub mod format;
pub mod ikey;
pub mod rangedel;
pub mod seq;
pub mod table;

pub use builder::{BuiltTable, FilterKey, TableBuilder, TableFormat};
pub use cache::{BlockCacheSnapshot, TableCache, TableCacheSnapshot, TableSpec};
pub use comparator::{BytewiseComparator, Comparator, InternalKeyComparator};
pub use rangedel::{RangeTombstone, RangeTombstoneSet};
pub use seq::{SeqReadStats, SeqReader, SEQ_READ_WINDOW};
pub use table::{BlockCache, BlockCacheKey, Table, TableEntry, TableIter, TableReadOptions};
