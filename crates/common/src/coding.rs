//! Integer and slice coding primitives shared by the WAL, SSTable, and
//! MANIFEST formats.
//!
//! The encodings match LevelDB's `util/coding.*`: little-endian fixed-width
//! integers and LEB128-style varints, plus length-prefixed slices.

use crate::error::{Error, Result};

/// Append a little-endian `u32` to `dst`.
pub fn put_fixed32(dst: &mut Vec<u8>, value: u32) {
    dst.extend_from_slice(&value.to_le_bytes());
}

/// Append a little-endian `u64` to `dst`.
pub fn put_fixed64(dst: &mut Vec<u8>, value: u64) {
    dst.extend_from_slice(&value.to_le_bytes());
}

/// Decode a little-endian `u32` from the first 4 bytes of `src`.
///
/// # Panics
///
/// Panics if `src` is shorter than 4 bytes.
#[inline]
pub fn decode_fixed32(src: &[u8]) -> u32 {
    u32::from_le_bytes(src[..4].try_into().expect("fixed32 needs 4 bytes"))
}

/// Decode a little-endian `u64` from the first 8 bytes of `src`.
///
/// # Panics
///
/// Panics if `src` is shorter than 8 bytes.
#[inline]
pub fn decode_fixed64(src: &[u8]) -> u64 {
    u64::from_le_bytes(src[..8].try_into().expect("fixed64 needs 8 bytes"))
}

/// Append a varint-encoded `u32` to `dst`.
pub fn put_varint32(dst: &mut Vec<u8>, value: u32) {
    put_varint64(dst, u64::from(value));
}

/// Append a varint-encoded `u64` to `dst` (LEB128, 7 bits per byte).
pub fn put_varint64(dst: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        dst.push((value as u8 & 0x7f) | 0x80);
        value >>= 7;
    }
    dst.push(value as u8);
}

/// Decode a varint `u64` from the front of `src`.
///
/// Returns the decoded value and the number of bytes consumed.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the input is truncated or the encoding
/// exceeds 10 bytes.
#[inline]
pub fn get_varint64(src: &[u8]) -> Result<(u64, usize)> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in src.iter().enumerate() {
        if shift > 63 {
            return Err(Error::corruption("varint64 too long"));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((result, i + 1));
        }
        shift += 7;
    }
    Err(Error::corruption("truncated varint64"))
}

/// Decode a varint `u32` from the front of `src`.
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the input is truncated or the value does
/// not fit in 32 bits.
#[inline]
pub fn get_varint32(src: &[u8]) -> Result<(u32, usize)> {
    // One and two bytes — lengths under 16 KiB — decode in place.
    match *src {
        [b0, ..] if b0 < 0x80 => Ok((u32::from(b0), 1)),
        [b0, b1, ..] if b1 < 0x80 => Ok((u32::from(b0 & 0x7f) | u32::from(b1) << 7, 2)),
        _ => get_long_varint32(src),
    }
}

fn get_long_varint32(src: &[u8]) -> Result<(u32, usize)> {
    let (v, n) = get_varint64(src)?;
    u32::try_from(v)
        .map(|v| (v, n))
        .map_err(|_| Error::corruption("varint32 overflow"))
}

/// Append a varint length prefix followed by the bytes of `slice`.
pub fn put_length_prefixed_slice(dst: &mut Vec<u8>, slice: &[u8]) {
    put_varint64(dst, slice.len() as u64);
    dst.extend_from_slice(slice);
}

/// Decode a length-prefixed slice from the front of `src`.
///
/// Returns the slice and the total number of bytes consumed (prefix + data).
///
/// # Errors
///
/// Returns [`Error::Corruption`] if the prefix is malformed or the payload is
/// truncated.
pub fn get_length_prefixed_slice(src: &[u8]) -> Result<(&[u8], usize)> {
    let (len, n) = get_varint64(src)?;
    let len = usize::try_from(len).map_err(|_| Error::corruption("slice length overflow"))?;
    let end = n
        .checked_add(len)
        .ok_or_else(|| Error::corruption("slice length overflow"))?;
    if src.len() < end {
        return Err(Error::corruption("truncated length-prefixed slice"));
    }
    Ok((&src[n..end], end))
}

/// Number of bytes `put_varint64` would use for `value`.
pub fn varint_length(mut value: u64) -> usize {
    let mut len = 1;
    while value >= 0x80 {
        value >>= 7;
        len += 1;
    }
    len
}

/// A cursor over an input buffer that pops coded values from the front.
///
/// Used by MANIFEST and WriteBatch decoding, where a record is a sequence of
/// tagged fields.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    input: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Wrap `input` for sequential decoding.
    pub fn new(input: &'a [u8]) -> Self {
        Decoder { input }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> &'a [u8] {
        self.input
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// Pop a varint `u64`.
    ///
    /// # Errors
    ///
    /// Propagates [`get_varint64`] failures.
    pub fn varint64(&mut self) -> Result<u64> {
        let (v, n) = get_varint64(self.input)?;
        self.input = &self.input[n..];
        Ok(v)
    }

    /// Pop a varint `u32`.
    ///
    /// # Errors
    ///
    /// Propagates [`get_varint32`] failures.
    pub fn varint32(&mut self) -> Result<u32> {
        let (v, n) = get_varint32(self.input)?;
        self.input = &self.input[n..];
        Ok(v)
    }

    /// Pop a fixed-width little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] when fewer than 8 bytes remain.
    pub fn fixed64(&mut self) -> Result<u64> {
        if self.input.len() < 8 {
            return Err(Error::corruption("truncated fixed64"));
        }
        let v = decode_fixed64(self.input);
        self.input = &self.input[8..];
        Ok(v)
    }

    /// Pop a fixed-width little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] when fewer than 4 bytes remain.
    pub fn fixed32(&mut self) -> Result<u32> {
        if self.input.len() < 4 {
            return Err(Error::corruption("truncated fixed32"));
        }
        let v = decode_fixed32(self.input);
        self.input = &self.input[4..];
        Ok(v)
    }

    /// Pop a length-prefixed slice.
    ///
    /// # Errors
    ///
    /// Propagates [`get_length_prefixed_slice`] failures.
    pub fn length_prefixed_slice(&mut self) -> Result<&'a [u8]> {
        let (s, n) = get_length_prefixed_slice(self.input)?;
        self.input = &self.input[n..];
        Ok(s)
    }

    /// Pop exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.input.len() < n {
            return Err(Error::corruption("truncated raw bytes"));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roundtrip() {
        let mut buf = Vec::new();
        put_fixed32(&mut buf, 0xdead_beef);
        put_fixed64(&mut buf, 0x0123_4567_89ab_cdef);
        assert_eq!(decode_fixed32(&buf), 0xdead_beef);
        assert_eq!(decode_fixed64(&buf[4..]), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let values = [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            (1 << 21) - 1,
            1 << 21,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            put_varint64(&mut buf, v);
            assert_eq!(buf.len(), varint_length(v));
            let (decoded, n) = get_varint64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint32_rejects_overflow() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_varint32(&buf).is_err());
    }

    /// The one- and two-byte fast path decodes every input of up to three
    /// bytes as the general decoder does, errors included.
    #[test]
    fn varint32_fast_path_matches_the_general_decoder() {
        for b0 in 0..=255u8 {
            for b1 in 0..=255u8 {
                for src in [&[b0][..], &[b0, b1], &[b0, b1, 0x01], &[b0, b1, 0x80]] {
                    let (fast, general) = (get_varint32(src), get_long_varint32(src));
                    assert_eq!(fast.ok(), general.ok(), "{src:x?}");
                }
            }
        }
        assert!(get_varint32(&[]).is_err());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(get_varint64(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn varint_rejects_overlong_encoding() {
        let buf = [0x80u8; 11];
        assert!(get_varint64(&buf).is_err());
    }

    #[test]
    fn length_prefixed_slice_roundtrip() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        put_length_prefixed_slice(&mut buf, b"");
        put_length_prefixed_slice(&mut buf, &[7u8; 300]);
        let (a, n) = get_length_prefixed_slice(&buf).unwrap();
        assert_eq!(a, b"hello");
        let (b, m) = get_length_prefixed_slice(&buf[n..]).unwrap();
        assert_eq!(b, b"");
        let (c, _) = get_length_prefixed_slice(&buf[n + m..]).unwrap();
        assert_eq!(c, &[7u8; 300][..]);
    }

    #[test]
    fn length_prefixed_slice_rejects_truncated_payload() {
        let mut buf = Vec::new();
        put_length_prefixed_slice(&mut buf, b"hello");
        assert!(get_length_prefixed_slice(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn decoder_walks_mixed_fields() {
        let mut buf = Vec::new();
        put_varint64(&mut buf, 42);
        put_fixed64(&mut buf, 7);
        put_length_prefixed_slice(&mut buf, b"key");
        put_fixed32(&mut buf, 9);
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.varint64().unwrap(), 42);
        assert_eq!(dec.fixed64().unwrap(), 7);
        assert_eq!(dec.length_prefixed_slice().unwrap(), b"key");
        assert_eq!(dec.fixed32().unwrap(), 9);
        assert!(dec.is_empty());
    }

    /// Every damage of a record of mixed fields decodes field by field to
    /// values or to [`Error::Corruption`], never a panic.
    #[test]
    fn every_damaged_record_decodes_or_is_corruption() {
        let mut good = Vec::new();
        put_varint64(&mut good, u64::MAX);
        put_varint32(&mut good, 300);
        put_length_prefixed_slice(&mut good, &[7u8; 130]);
        put_fixed64(&mut good, 7);
        put_fixed32(&mut good, 9);
        for (case, data) in crate::damage::damaged(&good).enumerate() {
            let mut dec = Decoder::new(&data);
            let decoded = (dec.varint64())
                .and_then(|_| dec.varint32())
                .and_then(|_| dec.length_prefixed_slice().map(<[u8]>::len))
                .and_then(|_| dec.fixed64())
                .and_then(|_| dec.fixed32());
            if let Err(err) = decoded {
                assert!(err.is_corruption(), "{case}: {err:?}");
            }
        }
    }

    #[test]
    fn decoder_bytes_and_errors() {
        let buf = [1u8, 2, 3];
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.bytes(2).unwrap(), &[1, 2]);
        assert!(dec.bytes(2).is_err());
        assert_eq!(dec.remaining(), &[3]);
        assert!(dec.fixed32().is_err());
        assert!(dec.fixed64().is_err());
    }
}
