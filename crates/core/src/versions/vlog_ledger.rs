//! The value-log liveness ledger's value types: what the version set keeps
//! per segment ([`VlogSegInfo`]) and the idempotent byte-range union
//! ([`RangeSet`]) its dead bytes — and the reclaim ledger's pending hole
//! punches — are kept as.

use std::collections::BTreeMap;

/// A set of disjoint byte ranges, merged on insert.
///
/// The value-log dead ledger is kept as *ranges*, not byte counts, because
/// range insertion is idempotent: WAL replay after a crash can legitimately
/// put the same `(key, sequence, pointer)` entry into two SSTables (a flush
/// need not advance the WAL floor), and compaction then drops the duplicate
/// copy. Summing per-drop byte counts would double-count that value and
/// retire its segment while the surviving copy still resolves through it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    /// `start → end` (exclusive); entries never overlap or touch.
    ranges: BTreeMap<u64, u64>,
    total: u64,
}

impl RangeSet {
    /// Insert `[offset, offset + len)`, merging with any overlapping or
    /// adjacent ranges. Re-inserting covered bytes is a no-op.
    pub fn insert(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let mut start = offset;
        let mut end = offset.saturating_add(len);
        if let Some((&s, &e)) = self.ranges.range(..=start).next_back() {
            if e >= start {
                start = s;
                end = end.max(e);
                self.ranges.remove(&s);
                self.total -= e - s;
            }
        }
        while let Some((&s, &e)) = self.ranges.range(start..=end).next() {
            end = end.max(e);
            self.ranges.remove(&s);
            self.total -= e - s;
        }
        self.ranges.insert(start, end);
        self.total += end - start;
    }

    /// Total bytes covered.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterate `(offset, len)` over the merged ranges.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e - s))
    }

    /// `true` when no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// Liveness ledger entry for one value-log segment.
///
/// `written` is `None` while the segment is the active appender target
/// (its final size is unknown, so it is never retired); sealing — at
/// rotation or at recovery from the on-disk size — makes it eligible.
/// `dead` is persisted in the MANIFEST as ranges (see
/// [`crate::version::VersionEdit::vlog_dead`]); `written` is recomputed at recovery from
/// `Env::file_size`, so it is never encoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VlogSegInfo {
    /// Final byte size once sealed; `None` while actively appended.
    pub written: Option<u64>,
    /// Byte ranges whose pointers compaction has dropped.
    pub dead: RangeSet,
}

impl VlogSegInfo {
    /// `true` when every written byte is dead and the file can be deleted.
    pub fn fully_dead(&self) -> bool {
        self.written.is_some_and(|w| self.dead.total() >= w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vlog_fully_dead_sealed_segment_detection() {
        let dead_range = |offset, len| {
            let mut set = RangeSet::default();
            set.insert(offset, len);
            set
        };
        let info = VlogSegInfo {
            written: Some(100),
            dead: dead_range(0, 100),
        };
        assert!(info.fully_dead());
        let active = VlogSegInfo {
            written: None,
            dead: dead_range(0, 1 << 40),
        };
        assert!(!active.fully_dead(), "active segment is never retired");
        let partial = VlogSegInfo {
            written: Some(100),
            dead: dead_range(0, 99),
        };
        assert!(!partial.fully_dead());
    }

    #[test]
    fn range_set_unions_overlaps_and_is_idempotent() {
        let mut set = RangeSet::default();
        set.insert(0, 100);
        set.insert(200, 100);
        assert_eq!(set.total(), 200);
        // Re-inserting an already-dead range changes nothing.
        set.insert(0, 100);
        assert_eq!(set.total(), 200);
        // Partial overlap only adds the uncovered bytes.
        set.insert(50, 100);
        assert_eq!(set.total(), 250);
        // Bridging range merges everything into one.
        set.insert(150, 50);
        assert_eq!(set.total(), 300);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![(0, 300)]);
        // Zero-length inserts are ignored.
        set.insert(999, 0);
        assert_eq!(set.total(), 300);
    }
}
