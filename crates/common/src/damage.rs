//! Every damage of one small class applied to a valid encoding: every
//! truncation, every single-bit flip, and every byte set to `0x00` and to
//! `0xFF`. A decoder's damage test runs each copy through the decoder and
//! accepts `Ok` or `Err(Corruption)`, never a panic. Test-only; the tests
//! of the wal, table, core, sharded and tools crates include this file by
//! path.

use std::ops::Range;

/// Every damaged copy of `good`: the truncations first, then per byte its
/// eight bit flips and the two byte values.
pub(crate) fn damaged(good: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    damaged_within(good, 0..good.len())
}

/// The damages of [`damaged`] that fall inside `window`: the truncations to
/// a length in it, then the damages of each byte in it.
pub(crate) fn damaged_within(
    good: &[u8],
    window: Range<usize>,
) -> impl Iterator<Item = Vec<u8>> + '_ {
    let truncations = window.clone().map(|n| good[..n].to_vec());
    let bytes = window.flat_map(move |at| {
        let flips = (0..8).map(move |bit| (at, good[at] ^ (1 << bit)));
        flips.chain([(at, 0x00), (at, 0xFF)])
    });
    truncations.chain(bytes.map(|(at, byte)| {
        let mut copy = good.to_vec();
        copy[at] = byte;
        copy
    }))
}
