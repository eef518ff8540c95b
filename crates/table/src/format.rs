//! On-disk table framing: block handles, block trailers, and the footer.
//!
//! Every block is followed by a 5-byte trailer: a compression byte (always
//! `0` — the paper's evaluation disables compression "for ease of analysis",
//! and so do we) and a masked CRC32C of the contents. The footer is a fixed
//! 48 bytes at the end of each (logical) table:
//!
//! ```text
//! [ filter handle (varints) | index handle (varints) | padding ] 40 bytes
//! [ magic number                                              ]  8 bytes
//! ```
//!
//! All handle offsets are **relative to the table's base offset** inside its
//! physical file, which is what lets BoLT pack many logical SSTables into
//! one compaction file and still address them uniformly.
//!
//! The builder lays the filter block, the index block and the footer back to
//! back, so everything an open needs is one contiguous *tail*
//! ([`TableTail`]): one device read when the caller knows its length, two
//! when it does not.
//!
//! Everything here decodes bytes a device handed back: no arithmetic on a
//! decoded offset or size is unchecked, and nothing panics (`bolt-lint` L3).

use bolt_common::coding::{get_varint64, put_varint64};
use bolt_common::{crc32c, Error, Result};
use bolt_env::RandomAccessFile;

/// Magic trailer identifying a BoLT table.
pub const TABLE_MAGIC: u64 = 0x424f_4c54_5353_5431; // "BOLTSST1"

/// Fixed footer size.
pub const FOOTER_SIZE: usize = 48;

/// Bytes of trailer after each block (compression byte + CRC).
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Location of a block within a table (offset relative to table base).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockHandle {
    /// Offset of the block from the table base.
    pub offset: u64,
    /// Size of the block contents (without trailer).
    pub size: u64,
}

impl BlockHandle {
    /// Create a handle.
    pub fn new(offset: u64, size: u64) -> Self {
        BlockHandle { offset, size }
    }

    /// Append the varint encoding to `dst`.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    /// Decode a handle from the front of `src`, returning bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on malformed varints.
    pub fn decode_from(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let (offset, n) = get_varint64(src)?;
        let (size, m) = get_varint64(&src[n..])?;
        Ok((BlockHandle { offset, size }, n + m))
    }

    /// Bytes the block occupies on disk: contents plus trailer.
    fn framed_len(&self) -> Result<usize> {
        usize::try_from(self.size)
            .ok()
            .and_then(|size| size.checked_add(BLOCK_TRAILER_SIZE))
            .ok_or_else(|| Error::corruption("block handle size overflows"))
    }
}

/// The fixed-size table footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the bloom-filter block (size 0 = no filter).
    pub filter_handle: BlockHandle,
    /// Handle of the index block.
    pub index_handle: BlockHandle,
}

impl Footer {
    /// Serialize to exactly [`FOOTER_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_SIZE);
        self.filter_handle.encode_to(&mut out);
        self.index_handle.encode_to(&mut out);
        out.resize(FOOTER_SIZE - 8, 0);
        out.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        out
    }

    /// Parse a footer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the size or magic is wrong.
    pub fn decode(src: &[u8]) -> Result<Footer> {
        let sized = Some(src).filter(|src| src.len() == FOOTER_SIZE);
        let Some((handles, magic)) = sized.and_then(<[u8]>::split_last_chunk::<8>) else {
            return Err(Error::corruption("footer size mismatch"));
        };
        if u64::from_le_bytes(*magic) != TABLE_MAGIC {
            return Err(Error::corruption("bad table magic"));
        }
        let (filter_handle, n) = BlockHandle::decode_from(handles)?;
        let (index_handle, _) = BlockHandle::decode_from(&handles[n..])?;
        Ok(Footer {
            filter_handle,
            index_handle,
        })
    }
}

/// Serialize block contents plus trailer (compression byte + masked CRC).
pub fn frame_block(contents: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(contents.len() + BLOCK_TRAILER_SIZE);
    framed.extend_from_slice(contents);
    framed.push(0); // no compression
    let crc = crc32c::extend(crc32c::crc32c(contents), &[0]);
    framed.extend_from_slice(&crc32c::mask(crc).to_le_bytes());
    framed
}

/// Check one framed block — contents, compression byte, masked CRC — and
/// return its contents. Every block that comes off a device is verified
/// here and nowhere else: [`read_block`] and [`TableTail`] both end in it.
///
/// # Errors
///
/// Returns [`Error::Corruption`] when `framed` is shorter than a trailer,
/// names an unknown compression type, or fails its checksum.
pub fn verify_block(framed: &[u8]) -> Result<&[u8]> {
    let Some((contents, &[compression, crc @ ..])) =
        framed.split_last_chunk::<BLOCK_TRAILER_SIZE>()
    else {
        return Err(Error::corruption("truncated block read"));
    };
    if compression != 0 {
        return Err(Error::corruption("unknown compression type"));
    }
    let actual = crc32c::extend(crc32c::crc32c(contents), &[0]);
    if crc32c::unmask(u32::from_le_bytes(crc)) != actual {
        return Err(Error::corruption("block checksum mismatch"));
    }
    Ok(contents)
}

/// Read and verify one block given its handle (relative to `base`).
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a short read, bad checksum, or unknown
/// compression byte, and I/O errors from the file.
pub fn read_block(file: &dyn RandomAccessFile, base: u64, handle: BlockHandle) -> Result<Vec<u8>> {
    let framed_len = handle.framed_len()?;
    let offset = base
        .checked_add(handle.offset)
        .ok_or_else(|| Error::corruption("block handle offset overflows"))?;
    let mut framed = file.read(offset, framed_len)?;
    if framed.len() != framed_len {
        return Err(Error::corruption("truncated block read"));
    }
    let size = verify_block(&framed)?.len();
    // The framed buffer becomes the block: one allocation per block read.
    framed.truncate(size);
    Ok(framed)
}

/// The end of a table — filter block, index block, footer — in memory after
/// one device read, or two when the caller could not say how long it is.
#[derive(Debug)]
pub struct TableTail {
    /// Offset of `bytes[0]` from the table's base.
    start: u64,
    bytes: Vec<u8>,
    reads: u64,
    index: BlockHandle,
    /// `None` when the table has no filter block or the reader ignores it.
    filter: Option<BlockHandle>,
}

impl TableTail {
    /// Read the tail of the table spanning `[base, base + size)` of `file`.
    ///
    /// `tail_bytes` is the length the table's builder recorded
    /// ([`BuiltTable::tail_bytes`](crate::BuiltTable::tail_bytes)), or 0 for
    /// unknown. The last `clamp(tail_bytes, FOOTER_SIZE, size)` bytes are
    /// fetched in one read and the footer decoded from their end; if one of
    /// the blocks it names starts before them — no length was given, or a
    /// short or wrong one — exactly one more read fetches the missing front.
    /// So a tail costs one read with the recorded length and two without,
    /// on the same path. The filter block is fetched only with `want_filter`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for a table smaller than a footer, a
    /// short read, a malformed footer, or a handle that overflows or points
    /// past the blocks' end, and I/O errors from the file.
    pub fn read(
        file: &dyn RandomAccessFile,
        base: u64,
        size: u64,
        tail_bytes: u64,
        want_filter: bool,
    ) -> Result<TableTail> {
        let blocks_end = size
            .checked_sub(FOOTER_SIZE as u64)
            .ok_or_else(|| Error::corruption("table smaller than footer"))?;
        if base.checked_add(size).is_none() {
            return Err(Error::corruption("table extent overflows"));
        }
        let fetch = |from: u64, to: u64| -> Result<Vec<u8>> {
            let len = usize::try_from(to - from)
                .map_err(|_| Error::corruption("table tail larger than memory"))?;
            let bytes = file.read(base + from, len)?;
            if bytes.len() != len {
                return Err(Error::corruption("truncated table tail read"));
            }
            Ok(bytes)
        };
        let mut start = size - tail_bytes.clamp(FOOTER_SIZE as u64, size);
        let mut bytes = fetch(start, size)?;
        let mut reads = 1;
        let footer = match bytes.last_chunk::<FOOTER_SIZE>() {
            Some(footer) => Footer::decode(footer)?,
            None => return Err(Error::corruption("truncated table tail read")),
        };
        let index = footer.index_handle;
        let filter = Some(footer.filter_handle).filter(|h| want_filter && h.size > 0);
        let mut first = start;
        for handle in filter.iter().chain([&index]) {
            let end = handle.offset.checked_add(handle.framed_len()? as u64);
            if end.is_none_or(|end| end > blocks_end) {
                return Err(Error::corruption("block handle past the table's end"));
            }
            first = first.min(handle.offset);
        }
        if first < start {
            let mut front = fetch(first, start)?;
            front.extend_from_slice(&bytes);
            (start, bytes, reads) = (first, front, 2);
        }
        Ok(TableTail {
            start,
            bytes,
            reads,
            index,
            filter,
        })
    }

    /// Device reads [`read`](Self::read) issued: 1 or 2.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Bytes those reads returned.
    pub fn bytes_read(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The verified contents of the index block.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] from [`verify_block`].
    pub fn index(&self) -> Result<&[u8]> {
        self.block(self.index)
    }

    /// The verified contents of the filter block, if there is one and the
    /// reader asked for it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] from [`verify_block`].
    pub fn filter(&self) -> Result<Option<&[u8]>> {
        self.filter.map(|handle| self.block(handle)).transpose()
    }

    fn block(&self, handle: BlockHandle) -> Result<&[u8]> {
        let framed = handle
            .offset
            .checked_sub(self.start)
            .and_then(|from| usize::try_from(from).ok())
            .zip(handle.framed_len().ok())
            .and_then(|(from, len)| self.bytes.get(from..from.checked_add(len)?))
            .ok_or_else(|| Error::corruption("block handle outside the table tail"))?;
        verify_block(framed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_env::{Env, MemEnv};

    #[test]
    fn handle_roundtrip() {
        for (offset, size) in [(0u64, 0u64), (1, 2), (1 << 20, 4096), (u64::MAX >> 1, 77)] {
            let mut buf = Vec::new();
            BlockHandle::new(offset, size).encode_to(&mut buf);
            let (decoded, n) = BlockHandle::decode_from(&buf).unwrap();
            assert_eq!(decoded, BlockHandle::new(offset, size));
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn footer_roundtrip() {
        let footer = Footer {
            filter_handle: BlockHandle::new(123, 456),
            index_handle: BlockHandle::new(789, 1011),
        };
        let encoded = footer.encode();
        assert_eq!(encoded.len(), FOOTER_SIZE);
        assert_eq!(Footer::decode(&encoded).unwrap(), footer);
    }

    #[test]
    fn footer_rejects_bad_magic_and_size() {
        let footer = Footer {
            filter_handle: BlockHandle::default(),
            index_handle: BlockHandle::default(),
        };
        let mut encoded = footer.encode();
        assert!(Footer::decode(&encoded[1..]).is_err());
        encoded[FOOTER_SIZE - 1] ^= 0xff;
        assert!(Footer::decode(&encoded).is_err());
    }

    #[test]
    fn block_frame_roundtrip_at_offset() {
        let env = MemEnv::new();
        let mut f = env.new_writable_file("t").unwrap();
        f.append(b"prefix-junk").unwrap(); // simulate earlier logical tables
        let base = f.len();
        let contents = b"block contents here".to_vec();
        let framed = frame_block(&contents);
        f.append(&framed).unwrap();
        f.sync().unwrap();
        drop(f);

        let file = env.new_random_access_file("t").unwrap();
        let handle = BlockHandle::new(0, contents.len() as u64);
        assert_eq!(read_block(file.as_ref(), base, handle).unwrap(), contents);
    }

    #[test]
    fn read_block_detects_corruption() {
        let env = MemEnv::new();
        let contents = vec![7u8; 100];
        let framed = frame_block(&contents);
        let mut f = env.new_writable_file("t").unwrap();
        f.append(&framed).unwrap();
        f.sync().unwrap();
        drop(f);

        // Flip one content byte.
        let r = env.new_random_access_file("t").unwrap();
        let mut bytes = r.read(0, framed.len()).unwrap();
        bytes[50] ^= 1;
        let mut f = env.new_writable_file("t2").unwrap();
        f.append(&bytes).unwrap();
        f.sync().unwrap();
        drop(f);

        let file = env.new_random_access_file("t2").unwrap();
        let handle = BlockHandle::new(0, contents.len() as u64);
        let err = read_block(file.as_ref(), 0, handle).unwrap_err();
        assert!(err.is_corruption());
    }

    #[test]
    fn read_block_rejects_truncation() {
        let env = MemEnv::new();
        let framed = frame_block(&[1, 2, 3]);
        let mut f = env.new_writable_file("t").unwrap();
        f.append(&framed[..framed.len() - 1]).unwrap();
        f.sync().unwrap();
        drop(f);
        let file = env.new_random_access_file("t").unwrap();
        assert!(read_block(file.as_ref(), 0, BlockHandle::new(0, 3)).is_err());
    }
}
