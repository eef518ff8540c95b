//! # bolt-env
//!
//! The storage substrate for the BoLT LSM-tree workspace: a LevelDB-style
//! `Env` abstraction plus four implementations.
//!
//! * [`MemEnv`] — an in-memory filesystem with **crash injection** (unsynced
//!   bytes are lost, optionally with torn tails). Used by the correctness and
//!   recovery test suites. Reach for it whenever a test only cares about
//!   *what* survives a crash, not how long I/O takes.
//! * [`SimEnv`] — [`MemEnv`] plus an **SSD cost model**: buffered appends are
//!   nearly free, the device drains its write queue at a configured
//!   sequential bandwidth, and a durability barrier (`fsync`) blocks until
//!   the queue is empty plus a fixed barrier latency. This is the substitute
//!   for the paper's Samsung 860 EVO testbed; it makes barrier *frequency*
//!   the dominant write-side cost, exactly the effect the paper studies.
//!   Use it for benchmarks and any test that depends on barrier timing
//!   (e.g. group-commit batching under concurrency).
//! * [`RealEnv`] — `std::fs` with real `fsync`, and real
//!   `fallocate(FALLOC_FL_PUNCH_HOLE)` on Linux. Use it to validate the
//!   engine against an actual kernel and device.
//! * [`FaultEnv`] — a **deterministic fault-injection** wrapper over any
//!   [`CrashEnv`] ([`MemEnv`] or [`SimEnv`]). It numbers every
//!   durability-relevant operation (create, append, sync/barrier, rename,
//!   link, delete, hole punch) with a global op counter, sees every read
//!   without numbering it, and executes a scripted [`FaultPlan`]. Use it to
//!   sweep crash points and error paths, and to park an engine thread at a
//!   chosen op; see below.
//!
//! All implementations feed the [`IoStats`] counters (fsync calls, bytes
//! written/read, holes punched) that the benchmark harness reports.
//!
//! ## Fault-plan grammar
//!
//! A [`FaultPlan`] is one ordered list of clauses `MODE:CLASS:glob=G:nth=N`:
//! the clause fires on the `N`-th (0-based) op of `CLASS` whose path matches
//! `G`, counted from when it was installed ([`FaultPlan`] states the two
//! evaluation rules).
//!
//! | `MODE` | effect on the op it fires on |
//! |---|---|
//! | `eio` | returns `EIO` once, no crash |
//! | `crash` | does not execute; every later op (reads included) fails until [`FaultEnv::reset`] |
//! | `torn=B` | as `crash`, but an append keeps a `B`-byte prefix (short write) |
//! | `hold` | parks its thread until [`FaultEnv::release`] ([`FaultEnv::wait_until_held`] waits for it) |
//!
//! `CLASS` is `any` (every numbered op) or one of `create`, `append`,
//! `sync` (syncs and ordering barriers), `rename`, `link`, `delete`,
//! `punch`, and `read` (matched, never numbered). On a fresh env or right
//! after [`FaultEnv::reset`], `crash:any:glob=*:nth=K` crashes at op index
//! `K` and `eio:sync:glob=*:nth=N` fails the `N`-th sync or barrier.
//!
//! The record/replay loop used by the crash-sweep harness:
//!
//! ```
//! use std::sync::Arc;
//! use bolt_env::{CrashConfig, Env, FaultEnv, FaultPlan};
//!
//! let env = FaultEnv::over_mem();
//! env.start_recording();
//! // ... run the workload, calling env.mark("phase") between phases ...
//! let trace = env.stop_recording();
//!
//! for k in 0..trace.len() as u64 {
//!     env.reset();
//!     // ... wipe/rebuild state, install the plan, re-run the workload ...
//!     env.set_plan(FaultPlan::parse(&format!("crash:any:glob=*:nth={k}")).unwrap());
//!     // ... the workload errors out at op k; drop the engine, then:
//!     env.crash_inner(CrashConfig::TornTail { seed: k });
//!     env.reset();
//!     // ... reopen and check recovery invariants ...
//! }
//! ```

#![warn(missing_docs)]

mod fault;
mod mem;
mod real;
mod sim;
mod stats;

pub use fault::{CrashEnv, FaultEnv, FaultPlan, OpKind, OpRecord};
pub use mem::{CrashConfig, MemEnv};
pub use real::RealEnv;
pub use sim::{precise_sleep, DeviceModel, SimEnv};
pub use stats::{IoSnapshot, IoStats};

use std::sync::Arc;

use bolt_common::{Error, Result};

/// A writable, append-only file handle.
///
/// Mirrors LevelDB's `WritableFile`: appends buffer in the page cache;
/// [`WritableFile::sync`] is the expensive durability barrier the paper
/// optimizes.
pub trait WritableFile: Send {
    /// Append `data` at the end of the file (buffered; not yet durable).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying store.
    fn append(&mut self, data: &[u8]) -> Result<()>;

    /// Push any library-level buffer to the OS page cache (no durability).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying store.
    fn flush(&mut self) -> Result<()>;

    /// Full durability barrier (`fsync`/`fdatasync`): blocks until every
    /// buffered byte of this file is on stable storage.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying store.
    fn sync(&mut self) -> Result<()>;

    /// Ordering-only barrier (BarrierFS `fbarrier()`): guarantees that bytes
    /// appended before the call reach storage before bytes appended after
    /// it, *without* waiting for durability.
    ///
    /// The default falls back to [`WritableFile::sync`], which is what a
    /// legacy filesystem provides. Only environments with
    /// [`Env::supports_ordering_barrier`] make this cheaper.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying store.
    fn ordering_barrier(&mut self) -> Result<()> {
        self.sync()
    }

    /// Current file length in bytes (all appended data, durable or not).
    fn len(&self) -> u64;

    /// `true` when no bytes have been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A read-only file handle supporting positional reads from many threads.
pub trait RandomAccessFile: Send + Sync {
    /// Read up to `len` bytes starting at `offset`; short reads happen only
    /// at end-of-file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if `offset` is beyond the end of the file or the
    /// underlying store fails.
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// Total file length in bytes.
    fn len(&self) -> u64;

    /// `true` when the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The storage environment: file creation, deletion, renaming, directory
/// listing, hole punching, and I/O accounting.
///
/// Paths are plain UTF-8 strings with `/` separators in every
/// implementation, so engine code is identical over [`MemEnv`], [`SimEnv`],
/// and [`RealEnv`].
pub trait Env: Send + Sync {
    /// Create (or truncate) a file for appending.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying store.
    fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>>;

    /// Open an existing file for appending, preserving current contents
    /// (used to reopen the MANIFEST/WAL).
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if the file does not exist.
    fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>>;

    /// Open a file for positional reads.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if the file does not exist.
    fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>>;

    /// `true` if `path` exists.
    fn file_exists(&self, path: &str) -> bool;

    /// Length of `path` in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if the file does not exist.
    fn file_size(&self, path: &str) -> Result<u64>;

    /// Delete `path`.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if the file does not exist.
    fn delete_file(&self, path: &str) -> Result<()>;

    /// Atomically rename `from` to `to`, replacing `to` if present.
    ///
    /// Rename is modeled as durable (journaling-filesystem semantics), which
    /// matches how LevelDB publishes the `CURRENT` pointer.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if `from` does not exist.
    fn rename_file(&self, from: &str, to: &str) -> Result<()>;

    /// Create directory `path` and its parents (no-op where meaningless).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying store.
    fn create_dir_all(&self, path: &str) -> Result<()>;

    /// List the file names (not full paths) directly inside directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the underlying store.
    fn list_dir(&self, dir: &str) -> Result<Vec<String>>;

    /// Deallocate `[offset, offset + len)` of `path`, keeping the file size
    /// unchanged (reads of the hole return zeros). This is how BoLT reclaims
    /// dead logical SSTables from compaction files without a barrier.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if the file does not exist.
    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()>;

    /// Make the immutable file `src` also reachable as `dst` — a hard link
    /// where the store supports one, a full copy otherwise. Checkpoints use
    /// this to publish SSTables and value-log segments into a checkpoint
    /// directory without rewriting their bytes.
    ///
    /// The default implementation copies and syncs `dst`, so linked content
    /// is durable on return in every implementation. Callers must only link
    /// files that are never appended to again (tables, sealed segments):
    /// with a true hard link, later writes through either name would alias.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if `src` does not exist.
    fn link_file(&self, src: &str, dst: &str) -> Result<()> {
        let reader = self.new_random_access_file(src)?;
        let mut out = self.new_writable_file(dst)?;
        let len = reader.len();
        let mut offset = 0u64;
        while offset < len {
            let chunk = ((len - offset) as usize).min(1 << 20);
            let data = reader.read(offset, chunk)?;
            if data.is_empty() {
                break;
            }
            offset += data.len() as u64;
            out.append(&data)?;
        }
        out.sync()
    }

    /// Number of names (hard links) referencing `path`'s inode.
    ///
    /// The engine consults this before hole-punching: a count above one
    /// means another name — typically a checkpoint directory, possibly
    /// created before this process started — shares the bytes, and a punch
    /// through the shared inode would corrupt that copy.
    ///
    /// The default returns 1, which is correct for any environment using
    /// the default (copying) [`Env::link_file`]. Implementations that
    /// override `link_file` with true hard links MUST override this too,
    /// or linked files lose their punch protection after a restart.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if the file does not exist.
    fn link_count(&self, path: &str) -> Result<u64> {
        if self.file_exists(path) {
            Ok(1)
        } else {
            Err(Error::NotFound)
        }
    }

    /// The I/O counters of this environment.
    fn stats(&self) -> &IoStats;

    /// Whether [`WritableFile::ordering_barrier`] is cheaper than a full
    /// sync here (the BarrierFS extension; `false` for legacy stacks). When
    /// it is, the engine pays ordering-only barriers wherever durability is
    /// not required: table and value-log data before their commit record.
    fn supports_ordering_barrier(&self) -> bool {
        false
    }
}

/// Join a directory and file name with a `/` separator.
pub fn join_path(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else if dir.ends_with('/') {
        format!("{dir}{name}")
    } else {
        format!("{dir}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_path_variants() {
        assert_eq!(join_path("", "a"), "a");
        assert_eq!(join_path("d", "a"), "d/a");
        assert_eq!(join_path("d/", "a"), "d/a");
        assert_eq!(join_path("d/e", "a"), "d/e/a");
    }

    /// Generic conformance suite run against every Env implementation.
    pub(crate) fn env_conformance(env: &dyn Env) {
        env.create_dir_all("db").unwrap();

        // Writable file lifecycle.
        let mut f = env.new_writable_file("db/a.txt").unwrap();
        assert!(f.is_empty());
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        assert_eq!(f.len(), 11);
        f.flush().unwrap();
        f.sync().unwrap();
        drop(f);

        assert!(env.file_exists("db/a.txt"));
        assert_eq!(env.file_size("db/a.txt").unwrap(), 11);

        // Random access reads.
        let r = env.new_random_access_file("db/a.txt").unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(r.read(0, 5).unwrap(), b"hello");
        assert_eq!(r.read(6, 5).unwrap(), b"world");
        assert_eq!(r.read(6, 100).unwrap(), b"world"); // short read at EOF
        assert!(r.read(100, 1).is_err());

        // Append to existing file.
        let mut f = env.new_appendable_file("db/a.txt").unwrap();
        f.append(b"!").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(env.file_size("db/a.txt").unwrap(), 12);

        // Rename.
        env.rename_file("db/a.txt", "db/b.txt").unwrap();
        assert!(!env.file_exists("db/a.txt"));
        assert!(env.file_exists("db/b.txt"));
        assert!(env.rename_file("db/missing", "db/x").is_err());

        // Listing.
        let mut f = env.new_writable_file("db/c.txt").unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        drop(f);
        let mut names = env.list_dir("db").unwrap();
        names.sort();
        assert_eq!(names, vec!["b.txt".to_string(), "c.txt".to_string()]);

        // Punch hole keeps size, zeros content.
        let mut f = env.new_writable_file("db/holey").unwrap();
        f.append(&[0xffu8; 8192]).unwrap();
        f.sync().unwrap();
        drop(f);
        env.punch_hole("db/holey", 1024, 4096).unwrap();
        assert_eq!(env.file_size("db/holey").unwrap(), 8192);
        let r = env.new_random_access_file("db/holey").unwrap();
        let data = r.read(0, 8192).unwrap();
        assert!(data[..1024].iter().all(|&b| b == 0xff));
        assert!(data[1024..5120].iter().all(|&b| b == 0));
        assert!(data[5120..].iter().all(|&b| b == 0xff));

        // Link: both names read the same (immutable) content, and deleting
        // one name leaves the other intact.
        env.create_dir_all("db/ckpt").unwrap();
        assert_eq!(env.link_count("db/b.txt").unwrap(), 1);
        env.link_file("db/b.txt", "db/ckpt/b.txt").unwrap();
        assert!(env.file_exists("db/b.txt"));
        assert!(env.file_exists("db/ckpt/b.txt"));
        assert_eq!(env.file_size("db/ckpt/b.txt").unwrap(), 12);
        // Hard-link envs report the shared inode through either name; an
        // env whose link_file copies reports 1 for both — both answers keep
        // punch suppression truthful.
        let links = env.link_count("db/b.txt").unwrap();
        assert_eq!(links, env.link_count("db/ckpt/b.txt").unwrap());
        assert!((1..=2).contains(&links));
        assert!(env.link_count("db/missing").is_err());
        let r = env.new_random_access_file("db/ckpt/b.txt").unwrap();
        assert_eq!(r.read(0, 12).unwrap(), b"hello world!");
        assert!(env.link_file("db/missing", "db/ckpt/missing").is_err());
        env.delete_file("db/b.txt").unwrap();
        assert!(env.file_exists("db/ckpt/b.txt"));
        assert_eq!(env.link_count("db/ckpt/b.txt").unwrap(), 1);
        assert_eq!(
            env.new_random_access_file("db/ckpt/b.txt")
                .unwrap()
                .read(0, 12)
                .unwrap(),
            b"hello world!"
        );
        env.link_file("db/ckpt/b.txt", "db/b.txt").unwrap();

        // Deletion.
        env.delete_file("db/c.txt").unwrap();
        assert!(!env.file_exists("db/c.txt"));
        assert!(env.delete_file("db/c.txt").is_err());

        // Stats recorded something.
        let snap = env.stats().snapshot();
        assert!(snap.fsync_calls >= 4);
        assert!(snap.bytes_written >= 12 + 8192);
    }

    #[test]
    fn mem_env_conformance() {
        env_conformance(&MemEnv::new());
    }

    #[test]
    fn sim_env_conformance() {
        env_conformance(&SimEnv::new(DeviceModel::fast_test()));
    }

    #[test]
    fn real_env_conformance() {
        let dir =
            std::env::temp_dir().join(format!("bolt-env-conformance-{}", std::process::id(),));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let env = RealEnv::new(dir.to_str().unwrap());
        env_conformance(&env);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
