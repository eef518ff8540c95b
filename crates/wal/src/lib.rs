//! # bolt-wal
//!
//! The write-ahead-log record format shared by the WAL and the MANIFEST
//! (both are "log files" in LevelDB terms).
//!
//! The format is LevelDB's `db/log_format.h`: the file is a sequence of
//! 32 KiB blocks; each block holds records framed as
//!
//! ```text
//! +---------+--------+------+----------------------+
//! | crc32c  | length | type |  payload             |
//! | 4 bytes | 2 B LE | 1 B  |  `length` bytes      |
//! +---------+--------+------+----------------------+
//! ```
//!
//! Payloads larger than the space left in a block are split into
//! FIRST/MIDDLE/LAST fragments; a block tail smaller than the 7-byte header
//! is zero-padded. The CRC covers the type byte plus payload and is stored
//! masked ([`bolt_common::crc32c::mask`]).
//!
//! [`LogReader`] is *torn-tail tolerant*: a truncated or checksum-corrupt
//! record is treated as end-of-log, which is exactly the recovery semantics
//! a crashed writer needs.

#![warn(missing_docs)]

use bolt_common::crc32c;
use bolt_common::events::{BarrierCause, BarrierScope, EventSink};
use bolt_common::{Error, Result};
use bolt_env::{RandomAccessFile, WritableFile};

use std::sync::Arc;

/// Size of a log block.
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Bytes of framing per record fragment.
pub const HEADER_SIZE: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum RecordType {
    Full = 1,
    First = 2,
    Middle = 3,
    Last = 4,
}

impl RecordType {
    fn from_u8(v: u8) -> Option<RecordType> {
        match v {
            1 => Some(RecordType::Full),
            2 => Some(RecordType::First),
            3 => Some(RecordType::Middle),
            4 => Some(RecordType::Last),
            _ => None,
        }
    }
}

/// Appends framed records to a [`WritableFile`].
///
/// The writer tracks how many bytes have been made durable so that
/// [`LogWriter::sync`] is idempotent: a sync with no bytes appended since
/// the previous one is elided entirely. This is what lets a group-commit
/// leader answer several `sync`-requesting writers with a single barrier.
pub struct LogWriter {
    file: Box<dyn WritableFile>,
    block_offset: usize,
    /// File length as of the last completed [`LogWriter::sync`]. Starts at 0
    /// even for reopened files: durability of pre-existing bytes is unknown,
    /// so the first sync always reaches the device.
    synced_len: u64,
    /// The scope — engine sink and cause — of barriers issued by this
    /// writer when the calling thread has none active (see
    /// [`LogWriter::set_default_scope`]).
    default_scope: Option<(Arc<EventSink>, BarrierCause)>,
    /// With `debug_locks`: a tracked-lock name that must not be held by the
    /// thread performing I/O on this writer (lint rule L1 at runtime).
    #[cfg(feature = "debug_locks")]
    forbidden_lock: Option<&'static str>,
}

impl std::fmt::Debug for LogWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogWriter")
            .field("block_offset", &self.block_offset)
            .field("len", &self.file.len())
            .finish()
    }
}

impl LogWriter {
    /// Wrap a (new or reopened) file; resumes mid-block when appending.
    pub fn new(file: Box<dyn WritableFile>) -> Self {
        let block_offset = (file.len() % BLOCK_SIZE as u64) as usize;
        LogWriter {
            file,
            block_offset,
            synced_len: 0,
            default_scope: None,
            #[cfg(feature = "debug_locks")]
            forbidden_lock: None,
        }
    }

    /// Attribute barriers issued through this writer to `sink` under
    /// `cause` whenever the calling thread has no [`BarrierScope`] active.
    /// The engine scopes its WAL writers [`BarrierCause::WalCommit`] and
    /// MANIFEST writers [`BarrierCause::OpenManifest`], each to its own sink;
    /// operation-level scopes (flush commit, compaction commit, close)
    /// override this default.
    pub fn set_default_scope(&mut self, sink: &Arc<EventSink>, cause: BarrierCause) {
        self.default_scope = Some((Arc::clone(sink), cause));
    }

    /// Enter this writer's default scope, if it has one.
    fn enter_default_scope(&self) -> Option<BarrierScope> {
        let (sink, cause) = self.default_scope.as_ref()?;
        Some(BarrierScope::default_for(sink, *cause))
    }

    /// Arm the `debug_locks` runtime analogue of lint rule L1: every
    /// subsequent append/sync on this writer panics if the calling thread
    /// holds the tracked lock named `name`. The engine arms its WAL writers
    /// with the engine-state lock; MANIFEST writers stay unarmed because
    /// MANIFEST I/O legitimately runs under the version-set lock (the commit
    /// point must be ordered against version installation).
    #[cfg(feature = "debug_locks")]
    pub fn forbid_lock_during_io(&mut self, name: &'static str) {
        self.forbidden_lock = Some(name);
    }

    #[cfg(feature = "debug_locks")]
    fn assert_no_forbidden_lock(&self, op: &str) {
        if let Some(name) = self.forbidden_lock {
            assert!(
                !bolt_common::debug_locks::thread_holds(name),
                "WAL {op} while holding tracked lock `{name}` — \
                 log I/O must run outside the engine mutex (lint rule L1)"
            );
        }
    }

    #[cfg(not(feature = "debug_locks"))]
    #[inline]
    fn assert_no_forbidden_lock(&self, _op: &str) {}

    /// Append one record (any size, including empty).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying file.
    pub fn add_record(&mut self, payload: &[u8]) -> Result<()> {
        self.assert_no_forbidden_lock("append");
        let mut remaining = payload;
        let mut begin = true;
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                if leftover > 0 {
                    const ZEROS: [u8; HEADER_SIZE] = [0; HEADER_SIZE];
                    self.file.append(&ZEROS[..leftover])?;
                }
                self.block_offset = 0;
            }

            let available = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let fragment_len = remaining.len().min(available);
            let end = fragment_len == remaining.len();
            let record_type = match (begin, end) {
                (true, true) => RecordType::Full,
                (true, false) => RecordType::First,
                (false, true) => RecordType::Last,
                (false, false) => RecordType::Middle,
            };
            self.emit(record_type, &remaining[..fragment_len])?;
            remaining = &remaining[fragment_len..];
            begin = false;
            if end {
                return Ok(());
            }
        }
    }

    fn emit(&mut self, record_type: RecordType, fragment: &[u8]) -> Result<()> {
        debug_assert!(fragment.len() <= u16::MAX as usize);
        let mut header = [0u8; HEADER_SIZE];
        let crc = crc32c::extend(crc32c::crc32c(&[record_type as u8]), fragment);
        header[..4].copy_from_slice(&crc32c::mask(crc).to_le_bytes());
        header[4..6].copy_from_slice(&(fragment.len() as u16).to_le_bytes());
        header[6] = record_type as u8;
        self.file.append(&header)?;
        self.file.append(fragment)?;
        self.block_offset += HEADER_SIZE + fragment.len();
        Ok(())
    }

    /// Full durability barrier on the log file. Elided (no device barrier)
    /// when nothing was appended since the last sync.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying file.
    pub fn sync(&mut self) -> Result<()> {
        self.assert_no_forbidden_lock("sync");
        let len = self.file.len();
        if len == self.synced_len {
            return Ok(());
        }
        let _scope = self.enter_default_scope();
        self.file.sync()?;
        self.synced_len = len;
        Ok(())
    }

    /// Bytes appended since the last completed [`LogWriter::sync`].
    pub fn unsynced_bytes(&self) -> u64 {
        self.file.len() - self.synced_len
    }

    /// Ordering-only barrier (see [`WritableFile::ordering_barrier`]).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying file.
    pub fn ordering_barrier(&mut self) -> Result<()> {
        let _scope = self.enter_default_scope();
        self.file.ordering_barrier()
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }
}

/// Reads framed records back from a [`RandomAccessFile`].
///
/// A torn tail (truncated fragment, bad checksum, or a FIRST/MIDDLE chain
/// that never completes) terminates iteration cleanly.
pub struct LogReader {
    file: Arc<dyn RandomAccessFile>,
    size: u64,
    offset: u64,
    buffer: Vec<u8>,
    buffer_start: u64,
}

impl std::fmt::Debug for LogReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogReader")
            .field("offset", &self.offset)
            .field("size", &self.size)
            .finish()
    }
}

impl LogReader {
    /// Wrap `file` for sequential record reading from the start.
    pub fn new(file: Arc<dyn RandomAccessFile>) -> Self {
        let size = file.len();
        LogReader {
            file,
            size,
            offset: 0,
            buffer: Vec::new(),
            buffer_start: 0,
        }
    }

    /// Byte offset just past the last whole record successfully returned.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Result<&[u8]> {
        let within = offset >= self.buffer_start
            && offset + len as u64 <= self.buffer_start + self.buffer.len() as u64;
        if !within {
            let block_start = offset - offset % BLOCK_SIZE as u64;
            let want = (BLOCK_SIZE * 2).min((self.size - block_start) as usize);
            self.buffer = self.file.read(block_start, want)?;
            self.buffer_start = block_start;
        }
        let start = (offset - self.buffer_start) as usize;
        if start + len > self.buffer.len() {
            return Err(Error::corruption("log truncated"));
        }
        Ok(&self.buffer[start..start + len])
    }

    /// Read one fragment at the current offset. `Ok(None)` = clean EOF or a
    /// torn tail.
    fn next_fragment(&mut self) -> Result<Option<(RecordType, Vec<u8>)>> {
        loop {
            let block_remaining = BLOCK_SIZE as u64 - self.offset % BLOCK_SIZE as u64;
            if block_remaining < HEADER_SIZE as u64 {
                self.offset += block_remaining; // zero padding
                continue;
            }
            if self.offset + HEADER_SIZE as u64 > self.size {
                return Ok(None); // truncated header = torn tail
            }
            let header = self.read_at(self.offset, HEADER_SIZE)?.to_vec();
            let stored_crc = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let length = u16::from_le_bytes([header[4], header[5]]) as usize;
            let type_byte = header[6];
            if stored_crc == 0 && length == 0 && type_byte == 0 {
                // Zero padding = end of data in this log.
                return Ok(None);
            }
            let Some(record_type) = RecordType::from_u8(type_byte) else {
                return Ok(None); // unknown type = garbage tail
            };
            if HEADER_SIZE + length > block_remaining as usize {
                return Ok(None); // a valid fragment never spans blocks
            }
            if self.offset + (HEADER_SIZE + length) as u64 > self.size {
                return Ok(None); // truncated payload = torn tail
            }
            let payload = self
                .read_at(self.offset + HEADER_SIZE as u64, length)?
                .to_vec();
            let actual = crc32c::extend(crc32c::crc32c(&[type_byte]), &payload);
            if crc32c::unmask(stored_crc) != actual {
                return Ok(None); // checksum mismatch = torn tail
            }
            self.offset += (HEADER_SIZE + length) as u64;
            return Ok(Some((record_type, payload)));
        }
    }

    /// Read the next whole record, reassembling fragments.
    ///
    /// Returns `Ok(None)` at end-of-log (including a torn tail).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying file.
    pub fn read_record(&mut self) -> Result<Option<Vec<u8>>> {
        let checkpoint = self.offset;
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            match self.next_fragment()? {
                None => {
                    if assembled.is_some() {
                        // Incomplete chain at the tail: roll back so
                        // `offset()` reports the end of the last whole record.
                        self.offset = checkpoint;
                    }
                    return Ok(None);
                }
                Some((RecordType::Full, payload)) => {
                    return Ok(Some(payload));
                }
                Some((RecordType::First, payload)) => {
                    assembled = Some(payload);
                }
                Some((RecordType::Middle, payload)) => match assembled.as_mut() {
                    Some(buf) => buf.extend_from_slice(&payload),
                    None => return Ok(None), // orphan MIDDLE = garbage
                },
                Some((RecordType::Last, payload)) => match assembled.take() {
                    Some(mut buf) => {
                        buf.extend_from_slice(&payload);
                        return Ok(Some(buf));
                    }
                    None => return Ok(None), // orphan LAST = garbage
                },
            }
        }
    }

    /// Drain every remaining record into a vector.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying file.
    pub fn read_all(&mut self) -> Result<Vec<Vec<u8>>> {
        let mut records = Vec::new();
        while let Some(record) = self.read_record()? {
            records.push(record);
        }
        Ok(records)
    }
}

#[cfg(test)]
#[path = "../../common/src/damage.rs"]
mod damage;

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_env::{CrashConfig, Env, MemEnv};

    fn roundtrip(payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        for p in payloads {
            writer.add_record(p).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        let mut reader = LogReader::new(env.new_random_access_file("log").unwrap());
        reader.read_all().unwrap()
    }

    #[test]
    fn empty_log() {
        let env = MemEnv::new();
        let w = LogWriter::new(env.new_writable_file("log").unwrap());
        assert!(w.is_empty());
        drop(w);
        let mut reader = LogReader::new(env.new_random_access_file("log").unwrap());
        assert!(reader.read_record().unwrap().is_none());
    }

    #[test]
    fn small_records_roundtrip() {
        let payloads = vec![
            b"foo".to_vec(),
            b"bar".to_vec(),
            Vec::new(),
            b"xyzzy".to_vec(),
        ];
        assert_eq!(roundtrip(&payloads), payloads);
    }

    #[test]
    fn records_spanning_blocks_roundtrip() {
        let payloads = vec![
            vec![1u8; BLOCK_SIZE / 2],
            vec![2u8; BLOCK_SIZE],     // spans two blocks
            vec![3u8; BLOCK_SIZE * 3], // FIRST + MIDDLEs + LAST
            vec![4u8; 10],
        ];
        assert_eq!(roundtrip(&payloads), payloads);
    }

    #[test]
    fn record_near_block_boundary() {
        // Leave around-the-header amounts of slack at the block tail.
        for slack in 0..=HEADER_SIZE * 2 {
            let first = BLOCK_SIZE - HEADER_SIZE - HEADER_SIZE - slack;
            let payloads = vec![vec![9u8; first], b"second".to_vec()];
            assert_eq!(roundtrip(&payloads), payloads, "slack {slack}");
        }
    }

    #[test]
    fn torn_tail_drops_only_last_record() {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        writer.add_record(b"one").unwrap();
        writer.add_record(b"two").unwrap();
        writer.sync().unwrap();
        writer.add_record(&[5u8; 100]).unwrap(); // never synced
        drop(writer);

        env.crash(CrashConfig::TornTail { seed: 7 });

        let mut reader = LogReader::new(env.new_random_access_file("log").unwrap());
        let records = reader.read_all().unwrap();
        // The synced records always survive; the torn one may or may not.
        assert!(records.len() >= 2);
        assert_eq!(records[0], b"one");
        assert_eq!(records[1], b"two");
        if records.len() == 3 {
            assert_eq!(records[2], vec![5u8; 100]);
        }
    }

    #[test]
    fn torn_multiblock_record_is_dropped_entirely() {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        writer.add_record(b"keep").unwrap();
        writer.sync().unwrap();
        let synced = writer.len();
        writer.add_record(&vec![6u8; BLOCK_SIZE * 2]).unwrap();
        drop(writer);

        // Keep exactly one extra block: the FIRST fragment survives but its
        // LAST never does.
        {
            let mut f = env.new_writable_file("cut").unwrap();
            let r = env.new_random_access_file("log").unwrap();
            let keep = synced as usize + BLOCK_SIZE - (synced as usize % BLOCK_SIZE);
            f.append(&r.read(0, keep).unwrap()).unwrap();
            f.sync().unwrap();
        }
        let mut reader = LogReader::new(env.new_random_access_file("cut").unwrap());
        let records = reader.read_all().unwrap();
        assert_eq!(records, vec![b"keep".to_vec()]);
        assert_eq!(reader.offset(), synced);
    }

    #[test]
    fn corrupt_byte_terminates_cleanly() {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        writer.add_record(b"alpha").unwrap();
        writer.add_record(b"beta").unwrap();
        writer.sync().unwrap();
        drop(writer);

        // Flip a payload byte of the second record.
        let r = env.new_random_access_file("log").unwrap();
        let mut bytes = r.read(0, r.len() as usize).unwrap();
        let second_payload = HEADER_SIZE + 5 + HEADER_SIZE; // into "beta"
        bytes[second_payload] ^= 0xff;
        let mut f = env.new_writable_file("log2").unwrap();
        f.append(&bytes).unwrap();
        f.sync().unwrap();
        drop(f);

        let mut reader = LogReader::new(env.new_random_access_file("log2").unwrap());
        assert_eq!(reader.read_all().unwrap(), vec![b"alpha".to_vec()]);
    }

    #[test]
    fn reopen_and_append_continues_block_alignment() {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        writer.add_record(&vec![1u8; 1000]).unwrap();
        writer.sync().unwrap();
        drop(writer);

        let mut writer = LogWriter::new(env.new_appendable_file("log").unwrap());
        writer.add_record(&vec![2u8; BLOCK_SIZE]).unwrap();
        writer.sync().unwrap();
        drop(writer);

        let mut reader = LogReader::new(env.new_random_access_file("log").unwrap());
        let records = reader.read_all().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], vec![1u8; 1000]);
        assert_eq!(records[1], vec![2u8; BLOCK_SIZE]);
    }

    #[test]
    fn redundant_syncs_are_elided() {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        writer.add_record(b"rec").unwrap();
        assert!(writer.unsynced_bytes() > 0);
        writer.sync().unwrap();
        assert_eq!(writer.unsynced_bytes(), 0);
        let after_first = env.stats().fsync_calls();
        // No new bytes: these must not reach the device.
        writer.sync().unwrap();
        writer.sync().unwrap();
        assert_eq!(env.stats().fsync_calls(), after_first);
        // New bytes: the barrier is real again.
        writer.add_record(b"more").unwrap();
        writer.sync().unwrap();
        assert_eq!(env.stats().fsync_calls(), after_first + 1);
    }

    #[test]
    fn writer_default_scope_attributes_barriers() {
        use bolt_common::events::{BarrierCause, BarrierScope, EventSink};
        let env = MemEnv::new();
        let (own, other) = (Arc::new(EventSink::new()), Arc::new(EventSink::new()));
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        writer.set_default_scope(&own, BarrierCause::WalCommit);
        writer.add_record(b"rec").unwrap();
        writer.sync().unwrap();
        assert_eq!(own.barrier_count(BarrierCause::WalCommit), 1);
        // An explicit scope on the calling thread overrides the default:
        // its sink and its cause.
        writer.add_record(b"rec2").unwrap();
        {
            let _scope = BarrierScope::new(&other, BarrierCause::WalClose);
            writer.sync().unwrap();
        }
        assert_eq!(other.barrier_count(BarrierCause::WalClose), 1);
        assert_eq!(own.total_barriers(), 1);
        // A writer without a default scope pays barriers no sink sees.
        let mut bare = LogWriter::new(env.new_writable_file("bare").unwrap());
        bare.add_record(b"rec").unwrap();
        bare.sync().unwrap();
        assert_eq!(own.total_barriers() + other.total_barriers(), 2);
        assert_eq!(env.stats().fsync_calls(), 3);
    }

    #[test]
    fn reopened_log_first_sync_is_never_elided() {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        writer.add_record(b"one").unwrap();
        writer.sync().unwrap();
        drop(writer);
        // Reopened: durability of existing bytes is unknown to the writer.
        let mut writer = LogWriter::new(env.new_appendable_file("log").unwrap());
        let before = env.stats().fsync_calls();
        writer.sync().unwrap();
        assert_eq!(env.stats().fsync_calls(), before + 1);
    }

    #[test]
    fn many_random_sized_records() {
        let mut rng = bolt_common::rng::Rng64::new(2024);
        let payloads: Vec<Vec<u8>> = (0..300)
            .map(|_| {
                let len = rng.next_below(3 * BLOCK_SIZE as u64) as usize;
                (0..len)
                    .map(|i| (i as u8) ^ (rng.next_u64() as u8))
                    .collect()
            })
            .collect();
        assert_eq!(roundtrip(&payloads), payloads);
    }

    /// The log `records` make, as bytes.
    fn encoded(records: &[Vec<u8>]) -> Vec<u8> {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("log").unwrap());
        for record in records {
            writer.add_record(record).unwrap();
        }
        drop(writer);
        let file = env.new_random_access_file("log").unwrap();
        file.read(0, file.len() as usize).unwrap()
    }

    /// Read each of `damages` back. Each read must end — at a clean end of
    /// log or a `Corruption`, never a panic — having returned a prefix of
    /// `records`.
    fn every_damage_reads_a_prefix(records: &[Vec<u8>], damages: impl Iterator<Item = Vec<u8>>) {
        let env = MemEnv::new();
        for (case, data) in damages.enumerate() {
            let mut file = env.new_writable_file("damaged").unwrap();
            file.append(&data).unwrap();
            drop(file);
            let mut reader = LogReader::new(env.new_random_access_file("damaged").unwrap());
            let mut read = Vec::new();
            let end = loop {
                match reader.read_record() {
                    Ok(Some(record)) => read.push(record),
                    Ok(None) => break Ok(()),
                    Err(err) => break Err(err),
                }
            };
            if let Err(err) = end {
                assert!(matches!(err, Error::Corruption(_)), "{case}: {err:?}");
            }
            assert!(
                read.len() <= records.len() && read == records[..read.len()],
                "{case}: the reader returned records that were not written"
            );
        }
    }

    /// Every truncation, bit flip and `0x00`/`0xFF` byte of a one-block log
    /// of several records, zero-length ones among them.
    #[test]
    fn every_damaged_single_block_log_reads_a_prefix() {
        let records: Vec<Vec<u8>> = [&b""[..], b"a", b"", b"hello, world", &[7u8; 100], b""]
            .iter()
            .map(|r| r.to_vec())
            .collect();
        let good = encoded(&records);
        assert!(good.len() < BLOCK_SIZE);
        every_damage_reads_a_prefix(&records, crate::damage::damaged(&good));
    }

    /// Every damage within 64 bytes of the first block boundary, which a
    /// record crosses as a FIRST fragment in the first block and a LAST one
    /// in the second.
    #[test]
    fn every_damage_around_a_record_across_the_block_boundary_reads_a_prefix() {
        let records = vec![vec![1u8; BLOCK_SIZE - 68], vec![2u8; 200], b"tail".to_vec()];
        let good = encoded(&records);
        // The second record starts 61 bytes before the boundary.
        assert_eq!(BLOCK_SIZE - (HEADER_SIZE + records[0].len()), 61);
        let window = BLOCK_SIZE - 64..BLOCK_SIZE + 64;
        every_damage_reads_a_prefix(&records, crate::damage::damaged_within(&good, window));
    }
}
