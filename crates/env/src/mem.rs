//! In-memory filesystem with crash injection.
//!
//! `MemEnv` is the reference substrate for correctness testing: it tracks,
//! per file, which prefix has been made durable by `sync()`, and
//! [`MemEnv::crash`] discards everything else — optionally keeping a *torn
//! tail* (a random prefix of the unsynced bytes), which is exactly the
//! failure mode WAL and MANIFEST recovery must tolerate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use bolt_common::rng::Rng64;
use bolt_common::{Error, Result};

use crate::stats::IoStats;
use crate::{Env, RandomAccessFile, WritableFile};

/// What survives of each file's unsynced suffix when a crash is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashConfig {
    /// Only bytes covered by a completed `sync()` survive.
    Clean,
    /// Additionally keep a pseudo-random prefix of the unsynced suffix of
    /// each file (block-device torn writes). Deterministic per `seed`.
    TornTail {
        /// Seed for the per-file torn length.
        seed: u64,
    },
}

#[derive(Debug, Default)]
struct FileData {
    bytes: Vec<u8>,
    synced_len: usize,
}

#[derive(Debug, Default)]
struct MemFile {
    data: RwLock<FileData>,
}

/// An in-memory [`Env`] with per-file durability tracking and crash
/// injection.
pub struct MemEnv {
    files: RwLock<HashMap<String, Arc<MemFile>>>,
    stats: Arc<IoStats>,
}

impl Default for MemEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MemEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemEnv")
            .field("files", &self.files.read().len())
            .finish()
    }
}

impl MemEnv {
    /// Create an empty in-memory filesystem.
    pub fn new() -> Self {
        MemEnv {
            files: RwLock::new(HashMap::new()),
            stats: Arc::new(IoStats::default()),
        }
    }

    /// Simulate a power failure: every file keeps its synced prefix; with
    /// [`CrashConfig::TornTail`], a deterministic pseudo-random prefix of
    /// the unsynced suffix survives as well.
    ///
    /// Open handles created before the crash keep operating on the
    /// post-crash state (tests should drop them instead, like a real
    /// process death).
    pub fn crash(&self, config: CrashConfig) {
        let files = self.files.read();
        let mut rng = match config {
            CrashConfig::Clean => None,
            CrashConfig::TornTail { seed } => Some(Rng64::new(seed)),
        };
        // Deterministic iteration order for TornTail reproducibility.
        let mut names: Vec<&String> = files.keys().collect();
        names.sort();
        for name in names {
            let file = &files[name];
            let mut data = file.data.write();
            let keep = match &mut rng {
                None => data.synced_len,
                Some(rng) => {
                    let unsynced = data.bytes.len() - data.synced_len;
                    data.synced_len + rng.next_below(unsynced as u64 + 1) as usize
                }
            };
            data.bytes.truncate(keep);
            data.synced_len = keep;
        }
    }

    /// Bytes a crash would preserve for `path` (synced prefix length).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if the file does not exist.
    pub fn synced_len(&self, path: &str) -> Result<u64> {
        let file = self.get(path)?;
        let synced = file.data.read().synced_len as u64;
        Ok(synced)
    }

    /// Shared handle to the env's counters for layered environments.
    pub(crate) fn shared_stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    fn get(&self, path: &str) -> Result<Arc<MemFile>> {
        self.files.read().get(path).cloned().ok_or(Error::NotFound)
    }
}

struct MemWritableFile {
    file: Arc<MemFile>,
    stats: Arc<IoStats>,
}

impl WritableFile for MemWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.data.write().bytes.extend_from_slice(data);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut data = self.file.data.write();
        data.synced_len = data.bytes.len();
        drop(data);
        self.stats.record_fsync(0);
        Ok(())
    }

    fn ordering_barrier(&mut self) -> Result<()> {
        // An ordering barrier guarantees crash-ordering of prior appends;
        // MemEnv models that as durable-up-to-here, counted separately.
        let mut data = self.file.data.write();
        data.synced_len = data.bytes.len();
        drop(data);
        self.stats.record_ordering_barrier();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.data.read().bytes.len() as u64
    }
}

struct MemRandomAccessFile {
    file: Arc<MemFile>,
    stats: Arc<IoStats>,
}

impl RandomAccessFile for MemRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let data = self.file.data.read();
        let total = data.bytes.len() as u64;
        if offset > total {
            return Err(Error::io(format!(
                "read offset {offset} beyond end of file ({total})"
            )));
        }
        let start = offset as usize;
        let end = (start + len).min(data.bytes.len());
        let out = data.bytes[start..end].to_vec();
        self.stats.record_read(out.len() as u64);
        Ok(out)
    }

    fn len(&self) -> u64 {
        self.file.data.read().bytes.len() as u64
    }
}

impl Env for MemEnv {
    fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let file = Arc::new(MemFile::default());
        self.files
            .write()
            .insert(path.to_string(), Arc::clone(&file));
        self.stats.record_create(1);
        Ok(Box::new(MemWritableFile {
            file,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let file = self.get(path)?;
        Ok(Box::new(MemWritableFile {
            file,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let file = self.get(path)?;
        Ok(Arc::new(MemRandomAccessFile {
            file,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn file_exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        Ok(self.get(path)?.data.read().bytes.len() as u64)
    }

    fn delete_file(&self, path: &str) -> Result<()> {
        self.files
            .write()
            .remove(path)
            .map(|_| self.stats.record_delete(1))
            .ok_or(Error::NotFound)
    }

    fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.write();
        let file = files.remove(from).ok_or(Error::NotFound)?;
        files.insert(to.to_string(), file);
        Ok(())
    }

    fn link_file(&self, src: &str, dst: &str) -> Result<()> {
        // True hard-link semantics: both names share the same inode, so
        // the destination inherits the source's synced prefix and the
        // link itself survives a crash iff the source's bytes did.
        let mut files = self.files.write();
        let file = files.get(src).cloned().ok_or(Error::NotFound)?;
        files.insert(dst.to_string(), file);
        Ok(())
    }

    fn link_count(&self, path: &str) -> Result<u64> {
        // The inode is the shared `Arc<MemFile>`; every map entry holding
        // the same allocation is a name for it.
        let files = self.files.read();
        let target = files.get(path).ok_or(Error::NotFound)?;
        Ok(files.values().filter(|f| Arc::ptr_eq(f, target)).count() as u64)
    }

    fn create_dir_all(&self, _path: &str) -> Result<()> {
        Ok(())
    }

    fn list_dir(&self, dir: &str) -> Result<Vec<String>> {
        let prefix = if dir.is_empty() || dir.ends_with('/') {
            dir.to_string()
        } else {
            format!("{dir}/")
        };
        let mut names: Vec<String> = self
            .files
            .read()
            .keys()
            .filter_map(|path| {
                let rest = path.strip_prefix(&prefix)?;
                if rest.is_empty() || rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect();
        // Sorted so directory scans (and everything built on them, like
        // recovery and the crash-sweep harness) are deterministic.
        names.sort();
        Ok(names)
    }

    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
        let file = self.get(path)?;
        let mut data = file.data.write();
        let total = data.bytes.len() as u64;
        let start = offset.min(total) as usize;
        let end = offset.saturating_add(len).min(total) as usize;
        data.bytes[start..end].fill(0);
        drop(data);
        self.stats.record_punch_hole((end - start) as u64);
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_file(env: &MemEnv, path: &str, data: &[u8], sync: bool) {
        let mut f = env.new_writable_file(path).unwrap();
        f.append(data).unwrap();
        if sync {
            f.sync().unwrap();
        }
    }

    #[test]
    fn crash_discards_unsynced_bytes() {
        let env = MemEnv::new();
        write_file(&env, "synced", b"durable", true);
        write_file(&env, "unsynced", b"volatile", false);

        let mut f = env.new_appendable_file("synced").unwrap();
        f.append(b"-tail").unwrap();
        drop(f);

        env.crash(CrashConfig::Clean);

        assert_eq!(env.file_size("synced").unwrap(), 7);
        assert_eq!(env.file_size("unsynced").unwrap(), 0);
        let r = env.new_random_access_file("synced").unwrap();
        assert_eq!(r.read(0, 7).unwrap(), b"durable");
    }

    #[test]
    fn torn_tail_keeps_a_prefix_of_unsynced_bytes() {
        for seed in 0..20 {
            let env = MemEnv::new();
            let mut f = env.new_writable_file("log").unwrap();
            f.append(b"0123456789").unwrap();
            f.sync().unwrap();
            f.append(b"abcdefghij").unwrap();
            drop(f);

            env.crash(CrashConfig::TornTail { seed });
            let size = env.file_size("log").unwrap();
            assert!((10..=20).contains(&size), "seed {seed}: size {size}");
            let r = env.new_random_access_file("log").unwrap();
            let data = r.read(0, size as usize).unwrap();
            let expected: &[u8] = b"0123456789abcdefghij";
            assert_eq!(&data[..], &expected[..size as usize]);
        }
    }

    #[test]
    fn torn_tail_is_deterministic() {
        let sizes = |seed| {
            let env = MemEnv::new();
            let mut f = env.new_writable_file("log").unwrap();
            f.append(&[7u8; 1000]).unwrap();
            drop(f);
            env.crash(CrashConfig::TornTail { seed });
            env.file_size("log").unwrap()
        };
        assert_eq!(sizes(3), sizes(3));
    }

    #[test]
    fn synced_len_tracks_sync_calls() {
        let env = MemEnv::new();
        let mut f = env.new_writable_file("f").unwrap();
        f.append(b"aaa").unwrap();
        assert_eq!(env.synced_len("f").unwrap(), 0);
        f.sync().unwrap();
        assert_eq!(env.synced_len("f").unwrap(), 3);
        f.append(b"bb").unwrap();
        assert_eq!(env.synced_len("f").unwrap(), 3);
    }

    #[test]
    fn rename_replaces_target() {
        let env = MemEnv::new();
        write_file(&env, "a", b"aaa", true);
        write_file(&env, "b", b"bbbb", true);
        env.rename_file("a", "b").unwrap();
        assert_eq!(env.file_size("b").unwrap(), 3);
        assert!(!env.file_exists("a"));
    }

    #[test]
    fn list_dir_only_direct_children() {
        let env = MemEnv::new();
        write_file(&env, "db/a", b"x", true);
        write_file(&env, "db/b", b"x", true);
        write_file(&env, "db/sub/c", b"x", true);
        write_file(&env, "other/d", b"x", true);
        let mut names = env.list_dir("db").unwrap();
        names.sort();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn punch_hole_beyond_eof_is_clamped() {
        let env = MemEnv::new();
        write_file(&env, "f", &[1u8; 100], true);
        env.punch_hole("f", 50, 1000).unwrap();
        let r = env.new_random_access_file("f").unwrap();
        let data = r.read(0, 100).unwrap();
        assert!(data[..50].iter().all(|&b| b == 1));
        assert!(data[50..].iter().all(|&b| b == 0));
        assert!(env.punch_hole("missing", 0, 1).is_err());
    }

    #[test]
    fn writable_file_truncates_existing() {
        let env = MemEnv::new();
        write_file(&env, "f", b"long content", true);
        write_file(&env, "f", b"x", true);
        assert_eq!(env.file_size("f").unwrap(), 1);
    }
}
