//! Key comparators.
//!
//! The engine orders *internal keys* — a user key followed by an 8-byte
//! packed `(sequence, value-type)` tag — so that newer versions of the same
//! user key sort first. Tables themselves are comparator-agnostic.

use std::cmp::Ordering;

use crate::ikey::{extract_tag, extract_user_key, TAG_SIZE};

/// A total order over keys, shared across the engine.
pub trait Comparator: Send + Sync {
    /// Compare two keys.
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering;

    /// A short name persisted nowhere but useful in debugging output.
    fn name(&self) -> &'static str;

    /// The shortest key this order compares. A decoded key shorter than this
    /// is corrupt, and a block seek rejects it before comparing it.
    fn min_key_len(&self) -> usize {
        0
    }
}

/// The engine's one user-key order: plain lexicographic byte order, as a
/// free function the engine calls inline, with no `dyn` dispatch.
#[inline]
pub fn bytewise(a: &[u8], b: &[u8]) -> Ordering {
    a.cmp(b)
}

/// Plain lexicographic byte order: [`bytewise`] behind the trait.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BytewiseComparator;

impl Comparator for BytewiseComparator {
    #[inline]
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        bytewise(a, b)
    }

    fn name(&self) -> &'static str {
        "bolt.BytewiseComparator"
    }
}

/// The engine's one internal-key order: ascending by user key under
/// [`bytewise`], then *descending* by sequence/type so the newest version of
/// a key is seen first. A free function the engine calls inline; nothing
/// carries the order as a value.
///
/// Both keys must hold the 8-byte tag: a shorter key panics in
/// [`extract_user_key`], so a decoder rejects one before it is compared (a
/// block seek by [`Comparator::min_key_len`]).
#[inline]
pub fn compare_internal(a: &[u8], b: &[u8]) -> Ordering {
    match bytewise(extract_user_key(a), extract_user_key(b)) {
        Ordering::Equal => extract_tag(b).cmp(&extract_tag(a)),
        ord => ord,
    }
}

/// [`compare_internal`] behind the trait, for the table reader's options and
/// the merging iterator. It has no state: built with
/// `InternalKeyComparator::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct InternalKeyComparator;

impl Comparator for InternalKeyComparator {
    #[inline]
    fn compare(&self, a: &[u8], b: &[u8]) -> Ordering {
        compare_internal(a, b)
    }

    fn name(&self) -> &'static str {
        "bolt.InternalKeyComparator"
    }

    fn min_key_len(&self) -> usize {
        TAG_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ikey::{make_internal_key, ValueType};

    #[test]
    fn bytewise_is_lexicographic() {
        let c = BytewiseComparator;
        assert_eq!(c.compare(b"a", b"b"), Ordering::Less);
        assert_eq!(c.compare(b"b", b"a"), Ordering::Greater);
        assert_eq!(c.compare(b"ab", b"ab"), Ordering::Equal);
        assert_eq!(c.compare(b"a", b"ab"), Ordering::Less);
    }

    /// `bytewise` is `<[u8]>::cmp` on every pair of a set of keys of length
    /// 0–17: word-boundary lengths, keys that are prefixes of each other, and
    /// the bytes either side of the sign bit and at both ends — the pairs a
    /// hand-written word-at-a-time form would get wrong.
    #[test]
    fn bytewise_equals_slice_order() {
        const EDGES: [u8; 4] = [0x00, 0x7F, 0x80, 0xFF];
        let mut rng = bolt_common::rng::Rng64::new(0xB17E);
        let random: Vec<u8> = (0..17).map(|_| rng.next_below(256) as u8).collect();
        let alternating: Vec<u8> = (0..17).map(|i| EDGES[i % 4]).collect();
        let stems = [vec![0x00; 17], vec![0xFF; 17], alternating, random];
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for stem in &stems {
            for len in 0..=17 {
                let prefix = &stem[..len];
                keys.push(prefix.to_vec());
                if len < 17 {
                    keys.extend(EDGES.iter().map(|&b| [prefix, &[b]].concat()));
                }
                for at in [0, 7, 8, 15, 16].into_iter().filter(|&at| at < len) {
                    for b in EDGES {
                        let mut varied = prefix.to_vec();
                        varied[at] = b;
                        keys.push(varied);
                    }
                }
            }
        }
        for a in &keys {
            for b in &keys {
                assert_eq!(bytewise(a, b), a.as_slice().cmp(b), "{a:x?} vs {b:x?}");
            }
        }
    }

    #[test]
    fn internal_orders_user_keys_ascending() {
        let c = InternalKeyComparator::default();
        let a = make_internal_key(b"apple", 5, ValueType::Value);
        let b = make_internal_key(b"banana", 5, ValueType::Value);
        assert_eq!(c.compare(&a, &b), Ordering::Less);
    }

    #[test]
    fn internal_orders_sequences_descending() {
        let c = InternalKeyComparator::default();
        let newer = make_internal_key(b"k", 10, ValueType::Value);
        let older = make_internal_key(b"k", 3, ValueType::Value);
        assert_eq!(c.compare(&newer, &older), Ordering::Less);
        assert_eq!(c.compare(&older, &newer), Ordering::Greater);
    }

    #[test]
    fn deletion_sorts_before_value_at_same_sequence() {
        // type Value(1) > Deletion(0), and higher tag sorts first.
        let c = InternalKeyComparator::default();
        let del = make_internal_key(b"k", 7, ValueType::Deletion);
        let val = make_internal_key(b"k", 7, ValueType::Value);
        assert_eq!(c.compare(&val, &del), Ordering::Less);
    }
}
