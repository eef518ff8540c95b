//! Internal-key encoding.
//!
//! An internal key is `user_key ⊕ tag`, where the 8-byte little-endian tag
//! packs a 56-bit sequence number and an 8-bit [`ValueType`]:
//! `tag = (sequence << 8) | type`. This matches LevelDB's `dbformat.h`.

use bolt_common::{Error, Result};

/// Kind of a versioned entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ValueType {
    /// A tombstone: the user key was deleted at this sequence.
    Deletion = 0,
    /// A regular value.
    Value = 1,
    /// An indirect value: the entry's payload is a fixed-size pointer into
    /// the value log, not the value itself (WAL-time key-value separation).
    ValuePointer = 2,
    /// A ranged tombstone: deletes every user key in `[key, value)` with a
    /// smaller sequence number. The entry's key is the range begin, its
    /// payload the exclusive range end. Flows through WAL/memtable/SSTable
    /// like a point entry; reads merge it in via a tombstone overlay.
    RangeTombstone = 3,
}

/// The type a point-lookup seek key carries. Must be the **numerically
/// largest** type: within one user key the comparator orders tags
/// descending, so a seek tag of `(snapshot << 8) | max_type` sorts at or
/// before every entry with `sequence <= snapshot` regardless of its type.
pub const VALUE_TYPE_FOR_SEEK: ValueType = ValueType::RangeTombstone;

impl ValueType {
    /// Decode a type byte.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] for unknown type bytes.
    #[inline]
    pub fn from_u8(v: u8) -> Result<ValueType> {
        match v {
            0 => Ok(ValueType::Deletion),
            1 => Ok(ValueType::Value),
            2 => Ok(ValueType::ValuePointer),
            3 => Ok(ValueType::RangeTombstone),
            other => Err(Error::corruption(format!("bad value type {other}"))),
        }
    }
}

/// A monotonically increasing version number (56 bits usable).
pub type SequenceNumber = u64;

/// Largest representable sequence number.
pub const MAX_SEQUENCE_NUMBER: SequenceNumber = (1 << 56) - 1;

/// Size of the packed tag appended to every user key.
pub const TAG_SIZE: usize = 8;

/// Pack a sequence number and type into a tag.
///
/// # Panics
///
/// Panics if `seq` exceeds [`MAX_SEQUENCE_NUMBER`].
pub fn pack_tag(seq: SequenceNumber, value_type: ValueType) -> u64 {
    assert!(seq <= MAX_SEQUENCE_NUMBER, "sequence overflow");
    (seq << 8) | value_type as u64
}

/// Split a tag back into `(sequence, type)`.
///
/// # Errors
///
/// Returns [`Error::Corruption`] for an unknown type byte.
#[inline]
pub fn unpack_tag(tag: u64) -> Result<(SequenceNumber, ValueType)> {
    Ok((tag >> 8, ValueType::from_u8(tag as u8)?))
}

/// Build the internal key `user_key ⊕ tag`.
pub fn make_internal_key(user_key: &[u8], seq: SequenceNumber, value_type: ValueType) -> Vec<u8> {
    let mut key = Vec::with_capacity(user_key.len() + TAG_SIZE);
    key.extend_from_slice(user_key);
    key.extend_from_slice(&pack_tag(seq, value_type).to_le_bytes());
    key
}

/// The user-key prefix of an internal key.
///
/// # Panics
///
/// Panics if `internal_key` is shorter than the tag.
#[inline]
pub fn extract_user_key(internal_key: &[u8]) -> &[u8] {
    assert!(internal_key.len() >= TAG_SIZE, "internal key too short");
    &internal_key[..internal_key.len() - TAG_SIZE]
}

/// The packed tag of an internal key.
///
/// # Panics
///
/// Panics if `internal_key` is shorter than the tag.
#[inline]
pub fn extract_tag(internal_key: &[u8]) -> u64 {
    assert!(internal_key.len() >= TAG_SIZE, "internal key too short");
    u64::from_le_bytes(
        internal_key[internal_key.len() - TAG_SIZE..]
            .try_into()
            .expect("tag slice"),
    )
}

/// Parsed view of an internal key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedInternalKey<'a> {
    /// The user key.
    pub user_key: &'a [u8],
    /// The sequence number.
    pub sequence: SequenceNumber,
    /// The entry kind.
    pub value_type: ValueType,
}

/// Parse an internal key.
///
/// # Errors
///
/// Returns [`Error::Corruption`] when too short or of unknown type.
#[inline]
pub fn parse_internal_key(internal_key: &[u8]) -> Result<ParsedInternalKey<'_>> {
    if internal_key.len() < TAG_SIZE {
        return Err(Error::corruption("internal key too short"));
    }
    let (sequence, value_type) = unpack_tag(extract_tag(internal_key))?;
    Ok(ParsedInternalKey {
        user_key: extract_user_key(internal_key),
        sequence,
        value_type,
    })
}

/// The internal key that sorts *before every entry* of `user_key` visible at
/// `snapshot` — i.e. the seek target for a point lookup.
pub fn lookup_key(user_key: &[u8], snapshot: SequenceNumber) -> Vec<u8> {
    make_internal_key(user_key, snapshot, VALUE_TYPE_FOR_SEEK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for seq in [0u64, 1, 255, 256, MAX_SEQUENCE_NUMBER] {
            for vt in [
                ValueType::Deletion,
                ValueType::Value,
                ValueType::ValuePointer,
                ValueType::RangeTombstone,
            ] {
                let tag = pack_tag(seq, vt);
                assert_eq!(unpack_tag(tag).unwrap(), (seq, vt));
            }
        }
    }

    #[test]
    #[should_panic(expected = "sequence overflow")]
    fn sequence_overflow_panics() {
        pack_tag(MAX_SEQUENCE_NUMBER + 1, ValueType::Value);
    }

    #[test]
    fn internal_key_roundtrip() {
        let ik = make_internal_key(b"user", 42, ValueType::Value);
        let parsed = parse_internal_key(&ik).unwrap();
        assert_eq!(parsed.user_key, b"user");
        assert_eq!(parsed.sequence, 42);
        assert_eq!(parsed.value_type, ValueType::Value);
    }

    #[test]
    fn empty_user_key_is_valid() {
        let ik = make_internal_key(b"", 1, ValueType::Deletion);
        assert_eq!(ik.len(), TAG_SIZE);
        let parsed = parse_internal_key(&ik).unwrap();
        assert_eq!(parsed.user_key, b"");
        assert_eq!(parsed.value_type, ValueType::Deletion);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_internal_key(b"short").is_err());
        let mut bad = make_internal_key(b"k", 1, ValueType::Value);
        let tag_pos = bad.len() - TAG_SIZE;
        bad[tag_pos] = 99; // unknown type byte
        assert!(parse_internal_key(&bad).is_err());
    }

    #[test]
    fn lookup_key_sorts_before_older_entries() {
        use crate::comparator::{Comparator, InternalKeyComparator};
        let cmp = InternalKeyComparator::default();
        let lk = lookup_key(b"k", 10);
        let visible = make_internal_key(b"k", 9, ValueType::Value);
        let invisible = make_internal_key(b"k", 11, ValueType::Value);
        assert!(cmp.compare(&lk, &visible) == std::cmp::Ordering::Less);
        assert!(cmp.compare(&invisible, &lk) == std::cmp::Ordering::Less);
    }

    #[test]
    fn lookup_key_sees_same_sequence_entries_of_every_type() {
        use crate::comparator::{Comparator, InternalKeyComparator};
        let cmp = InternalKeyComparator::default();
        let lk = lookup_key(b"k", 10);
        // A snapshot-exact read must not skip an entry written at exactly the
        // snapshot sequence, whatever its type — the seek type is the max.
        for vt in [
            ValueType::Deletion,
            ValueType::Value,
            ValueType::ValuePointer,
            ValueType::RangeTombstone,
        ] {
            let exact = make_internal_key(b"k", 10, vt);
            assert!(
                cmp.compare(&lk, &exact) != std::cmp::Ordering::Greater,
                "lookup key must sort at-or-before same-seq {vt:?} entry"
            );
        }
    }

    /// Every truncation, bit flip and `0x00`/`0xFF` byte of an internal key
    /// parses as `Ok` or `Corruption`. One that parses keeps every byte
    /// before its tag as the user key, and a sequence a tag can hold.
    #[test]
    fn every_damaged_internal_key_is_ok_or_corruption() {
        let good = make_internal_key(b"user-key", 0x0102_0304_0506, ValueType::Value);
        for (case, data) in crate::damage::damaged(&good).enumerate() {
            match parse_internal_key(&data) {
                Ok(parsed) => {
                    assert_eq!(parsed.user_key, &data[..data.len() - TAG_SIZE], "{case}");
                    assert!(parsed.sequence <= MAX_SEQUENCE_NUMBER, "{case}");
                }
                Err(err) => assert!(matches!(err, Error::Corruption(_)), "{case}: {err:?}"),
            }
        }
    }
}
