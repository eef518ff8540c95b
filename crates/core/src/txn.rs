//! Cross-shard transaction WAL records (the `bolt-sharded` 2PC seam).
//!
//! A cross-shard `write_batch` commits with two-phase commit and no
//! coordinator log (Cornus, DESIGN.md §12):
//!
//! 1. **Prepare** — each participant shard appends (and syncs) a
//!    [`TxnWalRecord::Prepare`] carrying the shard's slice of the batch and
//!    the bitmap of every participant. Nothing is applied to the memtable
//!    yet. The transaction is committed once every participant's prepare
//!    is durable: no other record decides it.
//! 2. **Apply** — each participant inserts the staged slice into its
//!    memtable and appends an *unsynced* [`TxnWalRecord::Applied`] marker
//!    recording the sequence the slice was stamped with. The marker's WAL
//!    position fixes the transaction's commit order relative to
//!    surrounding writes for recovery; its durability rides on whatever
//!    barrier next hits the log (losing it is safe: the slice stays staged
//!    and the coordinator applies it again at the end of the log). The
//!    flush of the memtable the slice went into records the shard's
//!    applied-transaction floor in the MANIFEST.
//!
//! An open that finds a transaction not durably prepared everywhere
//! aborts it with a synced [`TxnWalRecord::Aborted`] record on each shard
//! that staged it. Recovery consumes an `Aborted` record as it consumes an
//! `Applied` marker, so the stale prepare never stages again, whatever
//! log survives.
//!
//! All three records share a 12-byte sentinel header that is impossible
//! for a real [`WriteBatch`]: the sequence field holds [`TXN_MAGIC`]
//! (a sequence ≥ 2⁵⁶, unreachable by counting writes) and the count field
//! holds `u32::MAX`. The WAL replay loop checks the sentinel before
//! attempting a batch decode, so transaction records never collide with
//! the LevelDB batch format.

use bolt_common::{Error, Result};

use crate::batch::WriteBatch;

/// Sentinel value of the 8-byte sequence field for transaction records.
pub const TXN_MAGIC: [u8; 8] = [0xFF, b'B', b'O', b'L', b'T', b'T', b'X', 0xFF];

const SENTINEL_LEN: usize = 12;
const KIND_PREPARE: u8 = 1;
const KIND_ABORTED: u8 = 2;
const KIND_APPLIED: u8 = 3;

/// Identity of a cross-shard transaction as persisted in WAL records: the
/// coordinator-assigned id plus the bitmap of participating shards (bit
/// `i` set = shard `i` holds a slice of the batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTxnMarker {
    /// Coordinator-assigned transaction id (monotonic per `ShardedDb`).
    pub txn_id: u64,
    /// Participating shards, one bit per shard index.
    pub shard_bitmap: u64,
}

/// A decoded transaction WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnWalRecord {
    /// Phase 1: a shard's slice of the batch, durable but not applied.
    Prepare {
        /// Transaction identity.
        marker: ShardTxnMarker,
        /// This shard's operations (sequence field unset).
        payload: WriteBatch,
    },
    /// The open's abort of a staged slice: recovery drops the stage.
    Aborted {
        /// Transaction id the record resolves.
        txn_id: u64,
    },
    /// Phase 2 position marker: the staged slice was applied at
    /// `base_seq`.
    Applied {
        /// Transaction id the marker resolves.
        txn_id: u64,
        /// Sequence number stamped on the slice's first operation.
        base_seq: u64,
    },
}

fn sentinel_and_kind(kind: u8) -> Vec<u8> {
    let mut rec = Vec::with_capacity(SENTINEL_LEN + 17);
    rec.extend_from_slice(&TXN_MAGIC);
    rec.extend_from_slice(&u32::MAX.to_le_bytes());
    rec.push(kind);
    rec
}

/// Encode a prepare record for a shard WAL.
pub fn encode_prepare(marker: &ShardTxnMarker, payload: &WriteBatch) -> Vec<u8> {
    let mut rec = sentinel_and_kind(KIND_PREPARE);
    rec.extend_from_slice(&marker.txn_id.to_le_bytes());
    rec.extend_from_slice(&marker.shard_bitmap.to_le_bytes());
    rec.extend_from_slice(&payload.encode());
    rec
}

/// Encode an abort record for a shard WAL.
pub fn encode_aborted(txn_id: u64) -> Vec<u8> {
    let mut rec = sentinel_and_kind(KIND_ABORTED);
    rec.extend_from_slice(&txn_id.to_le_bytes());
    rec
}

/// Encode an applied marker for a shard WAL.
pub fn encode_applied(txn_id: u64, base_seq: u64) -> Vec<u8> {
    let mut rec = sentinel_and_kind(KIND_APPLIED);
    rec.extend_from_slice(&txn_id.to_le_bytes());
    rec.extend_from_slice(&base_seq.to_le_bytes());
    rec
}

fn read_u64(data: &[u8], at: usize) -> Result<u64> {
    data.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        .ok_or_else(|| Error::Corruption("truncated transaction record".into()))
}

/// Decode `record` if it is a transaction record.
///
/// Returns `None` when the sentinel is absent (a normal [`WriteBatch`]
/// record), `Some(Err(..))` when the sentinel is present but the body is
/// malformed.
pub fn decode(record: &[u8]) -> Option<Result<TxnWalRecord>> {
    if record.len() < SENTINEL_LEN + 1
        || record[..8] != TXN_MAGIC
        || record[8..SENTINEL_LEN] != u32::MAX.to_le_bytes()
    {
        return None;
    }
    let kind = record[SENTINEL_LEN];
    let body = SENTINEL_LEN + 1;
    Some(match kind {
        KIND_PREPARE => (|| {
            let marker = ShardTxnMarker {
                txn_id: read_u64(record, body)?,
                shard_bitmap: read_u64(record, body + 8)?,
            };
            let payload = WriteBatch::decode(&record[body + 16..])?;
            Ok(TxnWalRecord::Prepare { marker, payload })
        })(),
        KIND_ABORTED => read_u64(record, body).map(|txn_id| TxnWalRecord::Aborted { txn_id }),
        KIND_APPLIED => (|| {
            Ok(TxnWalRecord::Applied {
                txn_id: read_u64(record, body)?,
                base_seq: read_u64(record, body + 8)?,
            })
        })(),
        other => Err(Error::Corruption(format!(
            "unknown transaction record kind {other}"
        ))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(b"alpha", b"1");
        b.delete(b"beta");
        b
    }

    #[test]
    fn prepare_roundtrip() {
        let marker = ShardTxnMarker {
            txn_id: 7,
            shard_bitmap: 0b1010,
        };
        let rec = encode_prepare(&marker, &sample_batch());
        match decode(&rec) {
            Some(Ok(TxnWalRecord::Prepare { marker: m, payload })) => {
                assert_eq!(m, marker);
                assert_eq!(payload.count(), 2);
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn aborted_and_applied_roundtrip() {
        match decode(&encode_aborted(99)) {
            Some(Ok(TxnWalRecord::Aborted { txn_id })) => assert_eq!(txn_id, 99),
            other => panic!("bad decode: {other:?}"),
        }
        match decode(&encode_applied(99, 12345)) {
            Some(Ok(TxnWalRecord::Applied { txn_id, base_seq })) => {
                assert_eq!((txn_id, base_seq), (99, 12345));
            }
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn normal_batches_are_not_txn_records() {
        let mut batch = sample_batch();
        batch.set_sequence(42);
        assert!(decode(batch.encoded()).is_none());
        assert!(decode(b"").is_none());
        assert!(decode(&[0xFF; 4]).is_none());
    }

    #[test]
    fn sentinel_with_garbage_body_is_corruption() {
        let mut rec = sentinel_and_kind(KIND_PREPARE);
        rec.extend_from_slice(&[1, 2, 3]); // far too short
        assert!(matches!(decode(&rec), Some(Err(Error::Corruption(_)))));
        let rec = sentinel_and_kind(77);
        assert!(matches!(decode(&rec), Some(Err(Error::Corruption(_)))));
    }
}
