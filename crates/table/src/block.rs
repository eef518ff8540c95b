//! Data/index blocks with restart-point prefix compression.
//!
//! A block is a sequence of entries
//! `varint(shared) varint(non_shared) varint(value_len) key_tail value`
//! followed by an array of fixed32 restart offsets and a fixed32 restart
//! count. Every `restart_interval`-th entry stores its full key (shared=0),
//! letting a reader binary-search the restart array.
//!
//! The **Legacy** encoding (`restart_interval = 1`, LevelDB-era overhead for
//! the paper's Fig 15c comparison) stores every key in full; the **Compact**
//! encoding (`restart_interval = 16`) shares prefixes.

use std::cmp::Ordering;
use std::sync::Arc;

use bolt_common::coding::{decode_fixed32, get_varint32, put_fixed32, put_varint32};
use bolt_common::{Error, Result};

use crate::comparator::Comparator;

/// Builds one block.
pub struct BlockBuilder {
    buffer: Vec<u8>,
    restarts: Vec<u32>,
    counter: usize,
    restart_interval: usize,
    last_key: Vec<u8>,
    num_entries: usize,
}

impl std::fmt::Debug for BlockBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockBuilder")
            .field("entries", &self.num_entries)
            .field("bytes", &self.current_size_estimate())
            .finish()
    }
}

impl BlockBuilder {
    /// Create a builder; `restart_interval` entries share each restart point.
    ///
    /// # Panics
    ///
    /// Panics if `restart_interval` is zero.
    pub fn new(restart_interval: usize) -> Self {
        assert!(restart_interval >= 1, "restart interval must be >= 1");
        BlockBuilder {
            buffer: Vec::new(),
            restarts: vec![0],
            counter: 0,
            restart_interval,
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Append an entry; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        let mut shared = 0usize;
        if self.counter < self.restart_interval {
            let max = self.last_key.len().min(key.len());
            while shared < max && self.last_key[shared] == key[shared] {
                shared += 1;
            }
        } else {
            self.restarts.push(self.buffer.len() as u32);
            self.counter = 0;
        }
        put_varint32(&mut self.buffer, shared as u32);
        put_varint32(&mut self.buffer, (key.len() - shared) as u32);
        put_varint32(&mut self.buffer, value.len() as u32);
        self.buffer.extend_from_slice(&key[shared..]);
        self.buffer.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.counter += 1;
        self.num_entries += 1;
    }

    /// Bytes the finished block will occupy (without trailer).
    pub fn current_size_estimate(&self) -> usize {
        self.buffer.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// `true` when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Serialize and reset the builder, returning the block contents.
    pub fn finish(&mut self) -> Vec<u8> {
        for &restart in &self.restarts {
            put_fixed32(&mut self.buffer, restart);
        }
        put_fixed32(&mut self.buffer, self.restarts.len() as u32);
        let block = std::mem::take(&mut self.buffer);
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.last_key.clear();
        self.num_entries = 0;
        block
    }
}

/// An immutable, parsed block.
pub struct Block {
    data: Vec<u8>,
    restarts_offset: usize,
    num_restarts: usize,
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block")
            .field("bytes", &self.data.len())
            .field("restarts", &self.num_restarts)
            .finish()
    }
}

impl Block {
    /// Parse block `data` (as produced by [`BlockBuilder::finish`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the restart array is malformed.
    pub fn new(data: Vec<u8>) -> Result<Block> {
        if data.len() < 4 {
            return Err(Error::corruption("block too small"));
        }
        let num_restarts = decode_fixed32(&data[data.len() - 4..]) as usize;
        let restarts_size = num_restarts
            .checked_mul(4)
            .and_then(|s| s.checked_add(4))
            .ok_or_else(|| Error::corruption("restart count overflow"))?;
        if restarts_size > data.len() {
            return Err(Error::corruption("restart array larger than block"));
        }
        Ok(Block {
            restarts_offset: data.len() - restarts_size,
            num_restarts,
            data,
        })
    }

    /// Size of the raw block contents.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, index: usize) -> usize {
        decode_fixed32(&self.data[self.restarts_offset + index * 4..]) as usize
    }

    /// Iterate this block under an order that compares no key shorter
    /// than `min_key_len` ([`Comparator::min_key_len`], read once by the
    /// caller): a step that decodes a shorter one is [`Error::Corruption`].
    pub fn iter(self: &Arc<Self>, min_key_len: usize) -> BlockIter {
        BlockIter {
            block: Arc::clone(self),
            at: Cursor::default(),
            min_key_len,
        }
    }

    /// The first entry with key >= `target`, or `None` past the end: a
    /// borrow of its value, with its key decoded into `key` (a buffer the
    /// caller reuses). A point lookup's one-shot seek — it borrows the block
    /// and the comparator where a [`BlockIter`] holds both.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on malformed entries.
    pub fn seek(
        &self,
        cmp: &dyn Comparator,
        target: &[u8],
        key: &mut Vec<u8>,
    ) -> Result<Option<&[u8]>> {
        let mut at = Cursor {
            key: std::mem::take(key),
            ..Cursor::default()
        };
        let sought = self.seek_cursor(&mut at, cmp, target);
        *key = at.key;
        sought?;
        Ok(at.valid.then(|| &self.data[at.value]))
    }

    /// Decode the entry at `at.offset` into `at`; returns false at end of
    /// data. The one entry decoder of the block: a key shorter than
    /// `min_key_len` is [`Error::Corruption`], never handed on.
    fn parse_next(&self, at: &mut Cursor, min_key_len: usize) -> Result<bool> {
        if at.offset >= self.restarts_offset {
            at.valid = false;
            return Ok(false);
        }
        let data = &self.data[..self.restarts_offset];
        let mut pos = at.offset;
        let (shared, n) = get_varint32(&data[pos..])?;
        pos += n;
        let (non_shared, n) = get_varint32(&data[pos..])?;
        pos += n;
        let (value_len, n) = get_varint32(&data[pos..])?;
        pos += n;
        let shared = shared as usize;
        let non_shared = non_shared as usize;
        let value_len = value_len as usize;
        if pos + non_shared + value_len > data.len() || shared > at.key.len() {
            return Err(Error::corruption("block entry out of bounds"));
        }
        at.key.truncate(shared);
        at.key.extend_from_slice(&data[pos..pos + non_shared]);
        if at.key.len() < min_key_len {
            at.valid = false;
            return Err(Error::corruption("block key shorter than the order's tag"));
        }
        at.value = pos + non_shared..pos + non_shared + value_len;
        at.offset = pos + non_shared + value_len;
        at.valid = true;
        Ok(true)
    }

    /// Decode the entry at `offset`, a restart point (its key is whole).
    fn parse_at_restart(&self, at: &mut Cursor, offset: usize, min_key_len: usize) -> Result<bool> {
        at.offset = offset;
        at.key.clear();
        self.parse_next(at, min_key_len)
    }

    /// Position `at` on the first entry with key >= `target`. A key shorter
    /// than `cmp` can compare is [`Error::Corruption`], never compared.
    fn seek_cursor(&self, at: &mut Cursor, cmp: &dyn Comparator, target: &[u8]) -> Result<()> {
        let min_len = cmp.min_key_len();
        let before_target = |key: &[u8]| cmp.compare(key, target) == Ordering::Less;
        // Binary search the restart array for the last restart whose key is
        // < target.
        let mut left = 0usize;
        let mut right = self.num_restarts.saturating_sub(1);
        while left < right {
            let mid = (left + right).div_ceil(2);
            if !self.parse_at_restart(at, self.restart_point(mid), min_len)? {
                return Err(Error::corruption("restart points past end"));
            }
            if before_target(&at.key) {
                left = mid;
            } else {
                right = mid - 1;
            }
        }
        // Linear scan from that restart.
        let mut more = self.parse_at_restart(at, self.restart_point(left), min_len)?;
        while more && before_target(&at.key) {
            more = self.parse_next(at, min_len)?;
        }
        Ok(()) // past the end: invalid
    }
}

/// A position in a block: the entry before `offset`, decoded.
#[derive(Default)]
struct Cursor {
    /// Offset of the *next* entry to decode.
    offset: usize,
    key: Vec<u8>,
    value: std::ops::Range<usize>,
    valid: bool,
}

/// Cursor over a [`Block`]'s entries. It holds no comparator: a
/// [`seek`](Self::seek) borrows its caller's, and a step checks only the
/// key length that order needs.
pub struct BlockIter {
    block: Arc<Block>,
    at: Cursor,
    min_key_len: usize,
}

impl std::fmt::Debug for BlockIter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockIter")
            .field("valid", &self.at.valid)
            .field("offset", &self.at.offset)
            .finish()
    }
}

impl BlockIter {
    /// `true` when positioned on an entry.
    #[inline]
    pub fn valid(&self) -> bool {
        self.at.valid
    }

    /// Current key.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    #[inline]
    pub fn key(&self) -> &[u8] {
        assert!(self.at.valid, "iterator not positioned");
        &self.at.key
    }

    /// Current value.
    ///
    /// # Panics
    ///
    /// Panics if not [`valid`](Self::valid).
    #[inline]
    pub fn value(&self) -> &[u8] {
        assert!(self.at.valid, "iterator not positioned");
        &self.block.data[self.at.value.clone()]
    }

    /// Move to the first entry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on malformed entries.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.block
            .parse_at_restart(&mut self.at, 0, self.min_key_len)?;
        Ok(())
    }

    /// Advance; becomes invalid at the end.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on malformed entries.
    #[allow(clippy::should_implement_trait)] // LevelDB-style fallible cursor
    pub fn next(&mut self) -> Result<()> {
        assert!(self.at.valid, "iterator not positioned");
        self.block.parse_next(&mut self.at, self.min_key_len)?;
        Ok(())
    }

    /// Position at the first entry with key >= `target` under `cmp`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on malformed entries.
    pub fn seek(&mut self, cmp: &dyn Comparator, target: &[u8]) -> Result<()> {
        self.block.seek_cursor(&mut self.at, cmp, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparator::{BytewiseComparator, InternalKeyComparator};
    use crate::ikey::{make_internal_key, ValueType, TAG_SIZE};

    /// A block a table builder hands out holds no more heap than its size,
    /// the charge `TableCache::insert_built` caches it at.
    #[test]
    fn a_kept_block_holds_no_more_than_its_size() {
        use crate::builder::{TableBuilder, TableFormat};
        use bolt_env::{Env, MemEnv};

        let env = MemEnv::new();
        let mut file = env.new_writable_file("t").unwrap();
        let mut kept = Vec::new();
        let mut keep = |_, block: Arc<Block>| kept.push(block);
        let mut builder =
            TableBuilder::new(file.as_mut(), TableFormat::default()).keeping_blocks(&mut keep);
        for i in 0..2_000u32 {
            let key = make_internal_key(format!("key{i:06}").as_bytes(), 1, ValueType::Value);
            builder.add(&key, &[b'v'; 100]).unwrap();
        }
        builder.finish().unwrap();
        assert!(kept.len() > 10, "{} blocks", kept.len());
        for block in &kept {
            assert!(block.data.capacity() <= block.size(), "{block:?}");
        }
    }

    fn build(entries: &[(&[u8], &[u8])], restart_interval: usize) -> Arc<Block> {
        let mut builder = BlockBuilder::new(restart_interval);
        for (k, v) in entries {
            builder.add(k, v);
        }
        Arc::new(Block::new(builder.finish()).unwrap())
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let block = build(&[], 16);
        let mut it = block.iter(0);
        it.seek_to_first().unwrap();
        assert!(!it.valid());
        it.seek(&BytewiseComparator, b"anything").unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn roundtrip_various_restart_intervals() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..500u32)
            .map(|i| {
                (
                    format!("key{i:06}").into_bytes(),
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect();
        for interval in [1usize, 2, 16, 64] {
            let refs: Vec<(&[u8], &[u8])> = entries
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .collect();
            let block = build(&refs, interval);
            let mut it = block.iter(0);
            it.seek_to_first().unwrap();
            for (k, v) in &entries {
                assert!(it.valid(), "interval {interval}");
                assert_eq!(it.key(), &k[..]);
                assert_eq!(it.value(), &v[..]);
                it.next().unwrap();
            }
            assert!(!it.valid());
        }
    }

    #[test]
    fn prefix_compression_shrinks_block() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..200u32)
            .map(|i| (format!("commonprefix/key{i:06}").into_bytes(), vec![0u8; 8]))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let legacy = build(&refs, 1);
        let compact = build(&refs, 16);
        assert!(
            (compact.size() as f64) < legacy.size() as f64 * 0.75,
            "compact {} vs legacy {}",
            compact.size(),
            legacy.size()
        );
    }

    #[test]
    fn seek_finds_exact_and_gap_targets() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..100u32)
            .map(|i| (format!("k{:04}", i * 2).into_bytes(), vec![i as u8]))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        for interval in [1usize, 4, 16] {
            let block = build(&refs, interval);
            let mut it = block.iter(0);

            it.seek(&BytewiseComparator, b"k0000").unwrap();
            assert_eq!(it.key(), b"k0000");

            it.seek(&BytewiseComparator, b"k0005").unwrap();
            assert_eq!(it.key(), b"k0006"); // gap -> next even key

            it.seek(&BytewiseComparator, b"k0198").unwrap();
            assert_eq!(it.key(), b"k0198");

            it.seek(&BytewiseComparator, b"k0199").unwrap();
            assert!(!it.valid()); // past the last key

            it.seek(&BytewiseComparator, b"").unwrap();
            assert_eq!(it.key(), b"k0000");

            // The borrowed point seek lands where the iterator does.
            for i in 0..=200u32 {
                let target = format!("k{i:04}").into_bytes();
                it.seek(&BytewiseComparator, &target).unwrap();
                let want = it.valid().then(|| (it.key().to_vec(), it.value()));
                let mut key = Vec::new();
                let got = block.seek(&BytewiseComparator, &target, &mut key).unwrap();
                assert_eq!(
                    got.map(|value| (key, value)),
                    want,
                    "{i}, interval {interval}"
                );
            }
        }
    }

    #[test]
    fn corrupt_block_is_rejected() {
        assert!(Block::new(vec![]).is_err());
        assert!(Block::new(vec![0, 0]).is_err());
        // Restart count pointing beyond the data.
        let mut data = Vec::new();
        put_fixed32(&mut data, 1000);
        assert!(Block::new(data).is_err());
    }

    /// Every damage of a small class, applied to blocks of both encodings:
    /// each truncation, each single-bit flip, each byte set to `0x00` and to
    /// `0xFF`. Parsing, a full walk and seeks under both orders give entries
    /// or [`Error::Corruption`], never a panic — for a block of plain keys
    /// and one of internal keys alike, whatever length damage leaves a key.
    #[test]
    fn every_damaged_block_is_ok_or_corruption() {
        let long_key = vec![b'k'; 150];
        let shared_a = [vec![b'p'; 140], b"a".to_vec()].concat();
        let shared_b = [vec![b'p'; 140], b"b".to_vec()].concat();
        let plain: [(&[u8], &[u8]); 7] = [
            (b"a", b"1"),
            (b"ab", b""),
            (&long_key, b"long key"),
            (b"m", &[b'v'; 200]),
            (&shared_a, b"x"),
            (&shared_b, b"y"),
            (b"z", b"last"),
        ];
        let internal: Vec<Vec<u8>> = [(&b"a"[..], 9), (b"a", 3), (&shared_a, 5), (b"z", 1)]
            .into_iter()
            .map(|(user_key, seq)| make_internal_key(user_key, seq, ValueType::Value))
            .collect();
        let internal: Vec<(&[u8], &[u8])> = internal.iter().map(|k| (&k[..], &b"v"[..])).collect();
        let targets: [&[u8]; 4] = [b"", b"ab", &shared_b, b"zz"];
        let internal_targets = targets.map(|t| make_internal_key(t, 4, ValueType::Value));
        let check = |data: Vec<u8>| -> Result<()> {
            let block = Arc::new(Block::new(data)?);
            let mut it = block.iter(0);
            it.seek_to_first()?;
            while it.valid() {
                let _ = (it.key(), it.value());
                it.next()?;
            }
            // A walk under the internal order hands on no key shorter than
            // its tag.
            let mut walk = block.iter(TAG_SIZE);
            let walked = walk.seek_to_first();
            if walked.is_ok() {
                while walk.valid() {
                    assert!(walk.key().len() >= TAG_SIZE);
                    if walk.next().is_err() {
                        break;
                    }
                }
            }
            walked?;
            for target in targets {
                it.seek(&BytewiseComparator, target)?;
                block.seek(&BytewiseComparator, target, &mut Vec::new())?;
            }
            for target in &internal_targets {
                let icmp = InternalKeyComparator::default();
                it.seek(&icmp, target)?;
                block.seek(&icmp, target, &mut Vec::new())?;
            }
            Ok(())
        };
        let blocks = [
            (&plain[..], 1),
            (&plain[..], 16),
            (&internal[..], 1),
            (&internal[..], 16),
        ];
        for (entries, interval) in blocks {
            let good = build(entries, interval).data.clone();
            let mut damaged: Vec<Vec<u8>> = (0..good.len()).map(|n| good[..n].to_vec()).collect();
            for at in 0..good.len() {
                for bit in 0..8 {
                    let mut flipped = good.to_vec();
                    flipped[at] ^= 1 << bit;
                    damaged.push(flipped);
                }
                for byte in [0x00, 0xFF] {
                    let mut set = good.to_vec();
                    set[at] = byte;
                    damaged.push(set);
                }
            }
            for (case, data) in damaged.into_iter().enumerate() {
                if let Err(err) = check(data) {
                    assert!(matches!(err, Error::Corruption(_)), "{case}: {err:?}");
                }
            }
        }
    }

    /// A CRC-valid block whose key is shorter than the 8-byte tag, sought
    /// under the engine's internal order: `Corruption`, not a panic in
    /// `extract_user_key`.
    #[test]
    fn a_key_shorter_than_the_tag_is_corruption_under_the_internal_order() {
        let block = build(&[(b"ab", b"v")], 16);
        let target = make_internal_key(b"ab", 1, ValueType::Value);
        let icmp = InternalKeyComparator::default();
        assert!(matches!(
            block.seek(&icmp, &target, &mut Vec::new()),
            Err(Error::Corruption(_))
        ));
        let mut it = block.iter(0);
        assert!(matches!(it.seek(&icmp, &target), Err(Error::Corruption(_))));
        // The bytewise order compares any key.
        let mut key = Vec::new();
        assert!(block
            .seek(&BytewiseComparator, b"ab", &mut key)
            .unwrap()
            .is_some());

        // Reached by a step, after a whole internal key: the step is
        // `Corruption`, and the cursor is no longer positioned.
        let block = build(&[(&target, b"v"), (b"ab", b"v")], 16);
        let mut it = block.iter(icmp.min_key_len());
        it.seek_to_first().unwrap();
        assert_eq!(it.key(), &target[..]);
        assert!(matches!(it.next(), Err(Error::Corruption(_))));
        assert!(!it.valid());
        let short_first = build(&[(b"ab", b"v")], 16);
        assert!(short_first.iter(TAG_SIZE).seek_to_first().is_err());
        // The plain order's walk hands both on.
        let mut it = block.iter(0);
        it.seek_to_first().unwrap();
        it.next().unwrap();
        assert_eq!(it.key(), b"ab");
    }

    #[test]
    fn single_entry_block() {
        let block = build(&[(b"only", b"value")], 16);
        let mut it = block.iter(0);
        it.seek_to_first().unwrap();
        assert_eq!(it.key(), b"only");
        assert_eq!(it.value(), b"value");
        it.next().unwrap();
        assert!(!it.valid());
        it.seek(&BytewiseComparator, b"only").unwrap();
        assert!(it.valid());
        it.seek(&BytewiseComparator, b"onlz").unwrap();
        assert!(!it.valid());
    }

    #[test]
    fn empty_values_roundtrip() {
        let block = build(&[(b"a", b""), (b"b", b""), (b"c", b"x")], 2);
        let mut it = block.iter(0);
        it.seek(&BytewiseComparator, b"b").unwrap();
        assert_eq!(it.key(), b"b");
        assert_eq!(it.value(), b"");
    }
}
