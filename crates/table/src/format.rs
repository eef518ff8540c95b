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
        if src.len() != FOOTER_SIZE {
            return Err(Error::corruption("footer size mismatch"));
        }
        let magic = u64::from_le_bytes(src[FOOTER_SIZE - 8..].try_into().expect("magic"));
        if magic != TABLE_MAGIC {
            return Err(Error::corruption("bad table magic"));
        }
        let (filter_handle, n) = BlockHandle::decode_from(src)?;
        let (index_handle, _) = BlockHandle::decode_from(&src[n..])?;
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

/// Read and verify one block given its handle (relative to `base`).
///
/// # Errors
///
/// Returns [`Error::Corruption`] on a short read, bad checksum, or unknown
/// compression byte, and I/O errors from the file.
pub fn read_block(file: &dyn RandomAccessFile, base: u64, handle: BlockHandle) -> Result<Vec<u8>> {
    let size = handle.size as usize;
    let mut framed = file.read(base + handle.offset, size + BLOCK_TRAILER_SIZE)?;
    if framed.len() != size + BLOCK_TRAILER_SIZE {
        return Err(Error::corruption("truncated block read"));
    }
    let (contents, trailer) = framed.split_at(size);
    if trailer[0] != 0 {
        return Err(Error::corruption("unknown compression type"));
    }
    let stored = u32::from_le_bytes(trailer[1..5].try_into().expect("crc"));
    let actual = crc32c::extend(crc32c::crc32c(contents), &[0]);
    if crc32c::unmask(stored) != actual {
        return Err(Error::corruption("block checksum mismatch"));
    }
    // The framed buffer becomes the block: one allocation per block read.
    framed.truncate(size);
    Ok(framed)
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
