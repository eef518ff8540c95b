//! SSTable builder.
//!
//! [`TableBuilder`] writes one (logical) table into a [`WritableFile`]
//! *starting at the file's current offset* and never calls `sync()` itself.
//! That contract is what makes BoLT's compaction file possible: a compaction
//! thread runs several builders back-to-back on one physical file and issues
//! a **single** durability barrier at the end, instead of one per SSTable.

use std::sync::Arc;

use bolt_common::bloom::BloomFilterPolicy;
use bolt_common::Result;
use bolt_env::WritableFile;

use crate::block::{Block, BlockBuilder};
use crate::format::{frame_block, BlockHandle, Footer};
use crate::ikey::{extract_user_key, ValueType};

/// Which part of each key feeds the bloom filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterKey {
    /// Filter on the user-key prefix of internal keys (engine default).
    #[default]
    UserKey,
    /// Filter on the whole key (for tables of non-internal keys).
    WholeKey,
}

/// Physical-format knobs for tables.
#[derive(Debug, Clone)]
pub struct TableFormat {
    /// Target uncompressed size of a data block.
    pub block_size: usize,
    /// Entries between restart points (1 = LevelDB-era Legacy encoding,
    /// 16 = the Compact encoding; see DESIGN.md §4).
    pub restart_interval: usize,
    /// Bloom filter policy; `None` disables the filter block.
    pub filter_policy: Option<BloomFilterPolicy>,
    /// What the filter hashes.
    pub filter_key: FilterKey,
}

impl Default for TableFormat {
    fn default() -> Self {
        TableFormat {
            block_size: 4096,
            restart_interval: 16,
            filter_policy: Some(BloomFilterPolicy::default()),
            filter_key: FilterKey::UserKey,
        }
    }
}

impl TableFormat {
    /// The LevelDB-era encoding used by the paper's "LevelDB variants":
    /// no prefix sharing, so each record carries its full internal key.
    pub fn legacy() -> Self {
        TableFormat {
            restart_interval: 1,
            ..Self::default()
        }
    }

    /// The RocksDB-style compact encoding (prefix sharing on).
    pub fn compact() -> Self {
        Self::default()
    }
}

/// Summary of a finished table, as recorded in the MANIFEST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuiltTable {
    /// Byte offset of the table within its physical file.
    pub offset: u64,
    /// Total encoded size in bytes (blocks + filter + index + footer).
    pub size: u64,
    /// Number of entries.
    pub num_entries: u64,
    /// Number of range-tombstone entries among them.
    pub range_tombstones: u64,
    /// Smallest key added.
    pub smallest: Vec<u8>,
    /// Largest key added.
    pub largest: Vec<u8>,
    /// Bytes of the table's tail: filter block, index block and footer,
    /// trailers included, laid back to back at its end. Recorded in the
    /// MANIFEST so that an open fetches exactly this much in one read.
    pub tail_bytes: u64,
    /// Contents of the index block just written.
    pub index: Vec<u8>,
    /// Contents of the filter block just written (`None` = no filter).
    pub filter: Option<Vec<u8>>,
}

/// Streams sorted key/value pairs into a table.
pub struct TableBuilder<'a> {
    file: &'a mut dyn WritableFile,
    format: TableFormat,
    base_offset: u64,
    data_block: BlockBuilder,
    index_block: BlockBuilder,
    filter_keys: Vec<Vec<u8>>,
    pending_index: Option<(Vec<u8>, BlockHandle)>,
    num_entries: u64,
    range_tombstones: u64,
    smallest: Option<Vec<u8>>,
    largest: Option<Vec<u8>>,
    finished: bool,
    /// Where each data block goes once framed, when the caller keeps them.
    keep: Option<&'a mut dyn FnMut(BlockHandle, Arc<Block>)>,
}

impl std::fmt::Debug for TableBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableBuilder")
            .field("base_offset", &self.base_offset)
            .field("num_entries", &self.num_entries)
            .finish()
    }
}

impl<'a> TableBuilder<'a> {
    /// Start a table at the current end of `file`.
    pub fn new(file: &'a mut dyn WritableFile, format: TableFormat) -> Self {
        let base_offset = file.len();
        let restart_interval = format.restart_interval;
        TableBuilder {
            file,
            format,
            base_offset,
            data_block: BlockBuilder::new(restart_interval),
            index_block: BlockBuilder::new(1),
            filter_keys: Vec::new(),
            pending_index: None,
            num_entries: 0,
            range_tombstones: 0,
            smallest: None,
            largest: None,
            finished: false,
            keep: None,
        }
    }

    /// Hand each data block, once framed, to `keep` with its handle. The
    /// contents move into the [`Block`] trimmed to their length, so a cache
    /// that charges [`Block::size`] charges all the block holds.
    pub fn keeping_blocks(mut self, keep: &'a mut dyn FnMut(BlockHandle, Arc<Block>)) -> Self {
        self.keep = Some(keep);
        self
    }

    /// Append an entry; keys must arrive in strictly increasing order by the
    /// table's comparator (the builder does not verify ordering).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the underlying file.
    ///
    /// # Panics
    ///
    /// Panics if called after [`TableBuilder::finish`].
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        assert!(!self.finished, "builder already finished");
        if let Some((last_key, handle)) = self.pending_index.take() {
            self.index_block.add(&last_key, &encode_handle(handle));
        }
        if self.smallest.is_none() {
            self.smallest = Some(key.to_vec());
        }
        self.largest = Some(key.to_vec());
        if self.format.filter_policy.is_some() {
            let filter_key = match self.format.filter_key {
                FilterKey::UserKey => extract_user_key(key),
                FilterKey::WholeKey => key,
            };
            self.filter_keys.push(filter_key.to_vec());
        }
        self.data_block.add(key, value);
        self.num_entries += 1;
        // Internal-key tag layout: type lives in the low byte of the
        // fixed64 tag, i.e. 8 bytes from the end.
        if key.len() >= 8 && key[key.len() - 8] == ValueType::RangeTombstone as u8 {
            self.range_tombstones += 1;
        }
        if self.data_block.current_size_estimate() >= self.format.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let last_key = self
            .largest
            .clone()
            .expect("non-empty block implies a largest key");
        let mut contents = self.data_block.finish();
        let handle = self.write_framed(&contents)?;
        self.pending_index = Some((last_key, handle));
        if let Some(keep) = self.keep.as_mut() {
            contents.shrink_to_fit();
            keep(handle, Arc::new(Block::new(contents)?));
        }
        Ok(())
    }

    fn write_framed(&mut self, contents: &[u8]) -> Result<BlockHandle> {
        let offset = self.file.len() - self.base_offset;
        let framed = frame_block(contents);
        self.file.append(&framed)?;
        Ok(BlockHandle::new(offset, contents.len() as u64))
    }

    /// Bytes written so far (plus the buffered block estimate).
    pub fn estimated_size(&self) -> u64 {
        (self.file.len() - self.base_offset) + self.data_block.current_size_estimate() as u64
    }

    /// Entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// `true` when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// The key added last, if any.
    pub fn last_key(&self) -> Option<&[u8]> {
        self.largest.as_deref()
    }

    /// Write the filter block, index block, and footer; returns the table's
    /// location and key range. Does **not** sync the file.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the underlying file.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or `finish` was already called.
    pub fn finish(mut self) -> Result<BuiltTable> {
        assert!(!self.finished, "builder already finished");
        assert!(self.num_entries > 0, "cannot finish an empty table");
        self.finished = true;
        self.flush_data_block()?;
        if let Some((last_key, handle)) = self.pending_index.take() {
            self.index_block.add(&last_key, &encode_handle(handle));
        }

        let tail_offset = self.file.len();

        // Filter block (one full-table bloom filter).
        let filter = self.format.filter_policy.as_ref().map(|policy| {
            let refs: Vec<&[u8]> = self.filter_keys.iter().map(|k| k.as_slice()).collect();
            let mut filter = Vec::new();
            policy.create_filter(&refs, &mut filter);
            filter
        });
        let filter_handle = match &filter {
            Some(filter) => self.write_framed(filter)?,
            None => BlockHandle::default(),
        };

        // Index block.
        let index = self.index_block.finish();
        let index_handle = self.write_framed(&index)?;

        // Footer.
        let footer = Footer {
            filter_handle,
            index_handle,
        };
        self.file.append(&footer.encode())?;

        Ok(BuiltTable {
            offset: self.base_offset,
            size: self.file.len() - self.base_offset,
            num_entries: self.num_entries,
            range_tombstones: self.range_tombstones,
            smallest: self.smallest.expect("non-empty"),
            largest: self.largest.expect("non-empty"),
            tail_bytes: self.file.len() - tail_offset,
            index,
            filter,
        })
    }
}

fn encode_handle(handle: BlockHandle) -> Vec<u8> {
    let mut buf = Vec::with_capacity(10);
    handle.encode_to(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BLOCK_TRAILER_SIZE, FOOTER_SIZE};
    use crate::ikey::{make_internal_key, ValueType};
    use bolt_env::{Env, MemEnv};

    #[test]
    fn build_single_table() {
        let env = MemEnv::new();
        let mut file = env.new_writable_file("t").unwrap();
        let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        for i in 0..100u32 {
            let key = make_internal_key(format!("key{i:04}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, format!("value{i}").as_bytes()).unwrap();
        }
        let built = builder.finish().unwrap();
        assert_eq!(built.offset, 0);
        assert_eq!(built.num_entries, 100);
        assert!(built.size > FOOTER_SIZE as u64 + BLOCK_TRAILER_SIZE as u64);
        assert_eq!(file.len(), built.size);
        assert_eq!(
            built.smallest,
            make_internal_key(b"key0000", 1, ValueType::Value)
        );
        assert_eq!(
            built.largest,
            make_internal_key(b"key0099", 1, ValueType::Value)
        );
    }

    #[test]
    fn multiple_tables_in_one_file_track_offsets() {
        let env = MemEnv::new();
        let mut file = env.new_writable_file("compaction").unwrap();
        let mut builts = Vec::new();
        for t in 0..4u32 {
            let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
            for i in 0..50u32 {
                let key =
                    make_internal_key(format!("t{t}-key{i:04}").as_bytes(), 1, ValueType::Value);
                builder.add(&key, b"v").unwrap();
            }
            builts.push(builder.finish().unwrap());
        }
        file.sync().unwrap();
        assert_eq!(env.stats().fsync_calls(), 1, "one barrier for four tables");
        for pair in builts.windows(2) {
            assert_eq!(pair[0].offset + pair[0].size, pair[1].offset);
        }
        assert_eq!(
            file.len(),
            builts.last().unwrap().offset + builts.last().unwrap().size
        );
    }

    #[test]
    fn legacy_format_is_larger_than_compact() {
        let env = MemEnv::new();
        let build = |name: &str, format: TableFormat| {
            let mut file = env.new_writable_file(name).unwrap();
            let mut builder = TableBuilder::new(file.as_mut(), format);
            for i in 0..2000u32 {
                let key =
                    make_internal_key(format!("user/key/{i:08}").as_bytes(), 1, ValueType::Value);
                builder.add(&key, &[0u8; 100]).unwrap();
            }
            builder.finish().unwrap().size
        };
        let legacy = build("legacy", TableFormat::legacy());
        let compact = build("compact", TableFormat::compact());
        assert!(
            legacy > compact + compact / 20,
            "legacy {legacy} vs compact {compact}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot finish an empty table")]
    fn empty_table_panics() {
        let env = MemEnv::new();
        let mut file = env.new_writable_file("t").unwrap();
        let builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        let _ = builder.finish();
    }
}
