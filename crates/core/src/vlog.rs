//! Value log: WAL-time key-value separation (BVLSM-style).
//!
//! Writes whose value exceeds [`crate::Options::value_separation_threshold`]
//! append the raw value bytes to a sequential, append-only **value-log
//! segment** (`NNNNNN.vlog`) and carry a fixed-size [`ValuePointer`] through
//! the WAL/memtable/SSTable path instead. Large values therefore never enter
//! the memtable, never get rewritten by flush, and never ride through
//! compaction — the write-amplification win the separation buys.
//!
//! ## Segment format
//!
//! A segment is nothing but concatenated raw value bytes; all structure
//! lives in the pointers. Recovery recomputes a segment's written size from
//! `Env::file_size`, and the per-segment dead-byte ledger is persisted in
//! the MANIFEST (see `VersionEdit`), so segments need no header or footer.
//!
//! ## Durability contract
//!
//! The group-commit leader appends separated values and **barriers the
//! segment before writing the WAL record that carries the pointers** (an
//! ordering barrier where the env supports one, a full sync otherwise).
//! A pointer that survives in the WAL therefore always points at bytes that
//! reached the device first — invariant V1, checked by the crash sweep.
//!
//! ## Garbage collection
//!
//! Compaction's tombstone drop reports dead pointers; `VersionSet` keeps a
//! per-segment dead-byte ledger in the MANIFEST. When every byte of a sealed
//! segment is dead the file is deleted; in between, dead ranges are
//! reclaimed with barrier-free hole punches. A punched range reads back as
//! zeros, which the pointer CRC rejects — a dangling pointer surfaces as
//! [`bolt_common::Error::Corruption`], never as silent wrong data.

use std::sync::Arc;

use bolt_common::crc32c::crc32c;
use bolt_common::{Error, Result};
use bolt_env::{Env, WritableFile};

use crate::filename::vlog_file;

/// Encoded size of a [`ValuePointer`]: file (8) ⊕ offset (8) ⊕ len (4) ⊕
/// crc (4).
pub const POINTER_SIZE: usize = 24;

/// A fixed-size pointer into a value-log segment, stored as the entry
/// payload wherever the value itself would have been.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValuePointer {
    /// Value-log segment file number.
    pub file_number: u64,
    /// Byte offset of the value inside the segment.
    pub offset: u64,
    /// Value length in bytes.
    pub len: u32,
    /// CRC32C of the value bytes. Detects torn appends and reads from
    /// punched (zeroed) ranges.
    pub crc: u32,
}

impl ValuePointer {
    /// Serialize to the fixed 24-byte wire form.
    pub fn encode(&self) -> [u8; POINTER_SIZE] {
        let mut buf = [0u8; POINTER_SIZE];
        buf[..8].copy_from_slice(&self.file_number.to_le_bytes());
        buf[8..16].copy_from_slice(&self.offset.to_le_bytes());
        buf[16..20].copy_from_slice(&self.len.to_le_bytes());
        buf[20..24].copy_from_slice(&self.crc.to_le_bytes());
        buf
    }

    /// Parse the fixed wire form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if `data` is not exactly
    /// [`POINTER_SIZE`] bytes.
    pub fn decode(data: &[u8]) -> Result<ValuePointer> {
        if data.len() != POINTER_SIZE {
            return Err(Error::corruption(format!(
                "bad value pointer length {}",
                data.len()
            )));
        }
        let u64_at = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let u32_at = |at: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&data[at..at + 4]);
            u32::from_le_bytes(b)
        };
        Ok(ValuePointer {
            file_number: u64_at(0),
            offset: u64_at(8),
            len: u32_at(16),
            crc: u32_at(20),
        })
    }
}

/// Appender for the active value-log segment.
///
/// Owned by the group-commit leader via `DbState` exactly like the WAL
/// writer: taken out of the state mutex for I/O, restored afterwards, so
/// appends are single-threaded by construction.
pub struct VlogWriter {
    file_number: u64,
    file: Box<dyn WritableFile>,
    offset: u64,
}

impl VlogWriter {
    /// Create segment `file_number` inside `db`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the environment.
    pub fn create(env: &dyn Env, db: &str, file_number: u64) -> Result<VlogWriter> {
        let file = env.new_writable_file(&vlog_file(db, file_number))?;
        Ok(VlogWriter {
            file_number,
            file,
            offset: 0,
        })
    }

    /// Append one value, returning the pointer to store in its place.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the environment.
    pub fn append(&mut self, value: &[u8]) -> Result<ValuePointer> {
        let ptr = ValuePointer {
            file_number: self.file_number,
            offset: self.offset,
            len: u32::try_from(value.len())
                .map_err(|_| Error::InvalidArgument("separated value exceeds 4 GiB".to_string()))?,
            crc: crc32c(value),
        };
        self.file.append(value)?;
        self.offset += value.len() as u64;
        Ok(ptr)
    }

    /// Barrier the segment so every appended byte is ordered before (or
    /// durable ahead of) whatever the caller writes next. Must run before
    /// the WAL record carrying this group's pointers (invariant V1).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the environment.
    pub fn barrier(&mut self, ordering_only: bool) -> Result<()> {
        if ordering_only {
            self.file.ordering_barrier()
        } else {
            self.file.sync()
        }
    }

    /// Segment file number.
    pub fn file_number(&self) -> u64 {
        self.file_number
    }

    /// Bytes appended to this segment so far.
    pub fn written(&self) -> u64 {
        self.offset
    }
}

/// Resolve a pointer to its value bytes, verifying the CRC.
///
/// Opens the segment per call; the table/fd caches do not apply to value
/// logs (segments are few and large, and the OS page cache does the heavy
/// lifting on real filesystems).
///
/// # Errors
///
/// Returns [`Error::Corruption`] for a dangling pointer — one whose
/// segment does not exist or whose range passes the segment's end — and
/// on short reads or CRC mismatch, including reads from a hole-punched
/// (zeroed) range. A failed read of a present segment stays
/// [`Error::Io`].
pub fn read_value(env: &Arc<dyn Env>, db: &str, ptr: &ValuePointer) -> Result<Vec<u8>> {
    let dangling = |what: &str| {
        Error::corruption(format!(
            "dangling value pointer: segment {} offset {} len {}: {what}",
            ptr.file_number, ptr.offset, ptr.len
        ))
    };
    let file = match env.new_random_access_file(&vlog_file(db, ptr.file_number)) {
        Err(Error::NotFound) => return Err(dangling("no such segment")),
        file => file?,
    };
    let end = ptr.offset.checked_add(u64::from(ptr.len));
    if end.is_none_or(|end| end > file.len()) {
        return Err(dangling("the range passes the segment's end"));
    }
    let data = file.read(ptr.offset, ptr.len as usize)?;
    if data.len() != ptr.len as usize {
        return Err(Error::corruption(format!(
            "vlog short read: segment {} offset {} wanted {} got {}",
            ptr.file_number,
            ptr.offset,
            ptr.len,
            data.len()
        )));
    }
    if crc32c(&data) != ptr.crc {
        return Err(Error::corruption(format!(
            "vlog crc mismatch: segment {} offset {} len {}",
            ptr.file_number, ptr.offset, ptr.len
        )));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_env::MemEnv;

    fn mem() -> Arc<dyn Env> {
        Arc::new(MemEnv::new())
    }

    #[test]
    fn pointer_roundtrip() {
        let ptr = ValuePointer {
            file_number: 7,
            offset: 4096,
            len: 16384,
            crc: 0xdead_beef,
        };
        let encoded = ptr.encode();
        assert_eq!(encoded.len(), POINTER_SIZE);
        assert_eq!(ValuePointer::decode(&encoded).unwrap(), ptr);
        assert!(ValuePointer::decode(&encoded[..20]).is_err());
    }

    #[test]
    fn append_read_roundtrip() {
        let env = mem();
        env.create_dir_all("db").unwrap();
        let mut w = VlogWriter::create(env.as_ref(), "db", 3).unwrap();
        let a = w.append(&vec![b'a'; 5000]).unwrap();
        let b = w.append(&vec![b'b'; 7000]).unwrap();
        w.barrier(false).unwrap();
        assert_eq!(w.written(), 12000);
        assert_eq!(a.offset, 0);
        assert_eq!(b.offset, 5000);
        assert_eq!(read_value(&env, "db", &a).unwrap(), vec![b'a'; 5000]);
        assert_eq!(read_value(&env, "db", &b).unwrap(), vec![b'b'; 7000]);
    }

    #[test]
    fn punched_range_reads_as_corruption_not_wrong_data() {
        let env = mem();
        env.create_dir_all("db").unwrap();
        let mut w = VlogWriter::create(env.as_ref(), "db", 9).unwrap();
        let ptr = w.append(&vec![b'x'; 8192]).unwrap();
        w.barrier(false).unwrap();
        drop(w);
        env.punch_hole(&vlog_file("db", 9), 0, 8192).unwrap();
        let err = read_value(&env, "db", &ptr).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "got {err:?}");
    }

    #[test]
    fn a_dangling_pointer_is_corruption() {
        let env = mem();
        env.create_dir_all("db").unwrap();
        let mut w = VlogWriter::create(env.as_ref(), "db", 9).unwrap();
        let ptr = w.append(&[b'x'; 100]).unwrap();
        w.barrier(false).unwrap();
        drop(w);
        let missing = ValuePointer {
            file_number: 42,
            ..ptr
        };
        let past_end = ValuePointer { offset: 50, ..ptr };
        let overflowing = ValuePointer {
            offset: u64::MAX,
            ..ptr
        };
        for ptr in [missing, past_end, overflowing] {
            let err = read_value(&env, "db", &ptr).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{ptr:?}: {err:?}");
        }
    }

    /// A segment that is there but fails to read is an I/O error, not a
    /// dangling pointer.
    #[test]
    fn a_failed_segment_read_stays_io() {
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fault.clone());
        env.create_dir_all("db").unwrap();
        let mut w = VlogWriter::create(env.as_ref(), "db", 9).unwrap();
        let ptr = w.append(&[b'x'; 100]).unwrap();
        w.barrier(false).unwrap();
        drop(w);
        fault.set_plan(FaultPlan::parse("eio:read:glob=*.vlog:nth=0").unwrap());
        let err = read_value(&env, "db", &ptr).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
        assert_eq!(read_value(&env, "db", &ptr).unwrap(), vec![b'x'; 100]);
    }

    /// Every truncation, bit flip and `0x00`/`0xFF` byte of a pointer decodes
    /// as `Ok` or `Corruption`. One that decodes resolves to the value it was
    /// written for or to `Corruption` — never to other bytes, another error
    /// or a panic.
    #[test]
    fn every_damaged_pointer_is_ok_or_corruption() {
        let env = mem();
        env.create_dir_all("db").unwrap();
        let mut w = VlogWriter::create(env.as_ref(), "db", 9).unwrap();
        w.append(b"a neighbour").unwrap();
        let value = vec![b'v'; 300];
        let good = w.append(&value).unwrap();
        w.append(b"another").unwrap();
        w.barrier(false).unwrap();
        drop(w);
        for (case, data) in crate::damage::damaged(&good.encode()).enumerate() {
            match ValuePointer::decode(&data) {
                Ok(ptr) => match read_value(&env, "db", &ptr) {
                    Ok(read) => assert_eq!(read, value, "{case}: {ptr:?}"),
                    Err(err) => assert!(matches!(err, Error::Corruption(_)), "{case}: {err:?}"),
                },
                Err(err) => assert!(matches!(err, Error::Corruption(_)), "{case}: {err:?}"),
            }
        }
    }
}
