//! Real-filesystem environment.
//!
//! [`RealEnv`] maps the [`Env`] abstraction onto `std::fs` with real
//! `fsync`/`fdatasync` barriers. On Linux, [`Env::punch_hole`] uses
//! `fallocate(FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE)` — the same call
//! BoLT uses to reclaim dead logical SSTables; elsewhere it falls back to
//! overwriting the range with zeros (functionally equivalent, not
//! space-reclaiming).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bolt_common::{Error, Result};

use crate::stats::IoStats;
use crate::{Env, RandomAccessFile, WritableFile};

/// An [`Env`] over a real directory tree rooted at `root`.
pub struct RealEnv {
    root: PathBuf,
    stats: Arc<IoStats>,
}

impl std::fmt::Debug for RealEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealEnv").field("root", &self.root).finish()
    }
}

impl RealEnv {
    /// Create an environment whose paths are resolved relative to `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        RealEnv {
            root: root.into(),
            stats: Arc::new(IoStats::default()),
        }
    }

    fn resolve(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }
}

struct RealWritableFile {
    file: File,
    len: u64,
    stats: Arc<IoStats>,
}

impl WritableFile for RealWritableFile {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.file.write_all(data)?;
        self.len += data.len() as u64;
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.file.flush()?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let start = Instant::now();
        self.file.sync_data()?;
        self.stats.record_fsync(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

struct RealRandomAccessFile {
    file: File,
    len: u64,
    stats: Arc<IoStats>,
}

impl RandomAccessFile for RealRandomAccessFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        if offset > self.len {
            return Err(Error::io(format!(
                "read offset {offset} beyond end of file ({})",
                self.len
            )));
        }
        let want = len.min((self.len - offset) as usize);
        let mut buf = vec![0u8; want];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            let mut done = 0usize;
            while done < want {
                let n = self.file.read_at(&mut buf[done..], offset + done as u64)?;
                if n == 0 {
                    break;
                }
                done += n;
            }
            buf.truncate(done);
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.try_clone()?;
            f.seek(SeekFrom::Start(offset))?;
            let mut done = 0usize;
            while done < want {
                let n = f.read(&mut buf[done..])?;
                if n == 0 {
                    break;
                }
                done += n;
            }
            buf.truncate(done);
        }
        self.stats.record_read(buf.len() as u64);
        Ok(buf)
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl Env for RealEnv {
    fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.resolve(path))?;
        self.stats.record_create(1);
        Ok(Box::new(RealWritableFile {
            file,
            len: 0,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let full = self.resolve(path);
        if !full.exists() {
            return Err(Error::NotFound);
        }
        let file = OpenOptions::new().append(true).open(&full)?;
        let len = file.metadata()?.len();
        Ok(Box::new(RealWritableFile {
            file,
            len,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let file = File::open(self.resolve(path))?;
        let len = file.metadata()?.len();
        Ok(Arc::new(RealRandomAccessFile {
            file,
            len,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn file_exists(&self, path: &str) -> bool {
        self.resolve(path).exists()
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        Ok(std::fs::metadata(self.resolve(path))?.len())
    }

    fn delete_file(&self, path: &str) -> Result<()> {
        std::fs::remove_file(self.resolve(path))?;
        self.stats.record_delete(1);
        Ok(())
    }

    fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        std::fs::rename(self.resolve(from), self.resolve(to))?;
        Ok(())
    }

    // True hard links only where the link count is also observable
    // (`link_count` below); elsewhere a synced copy keeps punch suppression
    // truthful — a copy has no shared inode to protect.
    fn link_file(&self, src: &str, dst: &str) -> Result<()> {
        let src = self.resolve(src);
        if !src.exists() {
            return Err(Error::NotFound);
        }
        let dst = self.resolve(dst);
        if dst.exists() {
            // `dst` may be `src` itself under another spelling: it already
            // names the file, and unlinking it would destroy the source.
            if std::fs::canonicalize(&dst)? == std::fs::canonicalize(&src)? {
                return Ok(());
            }
            // Replace a stale destination (e.g. a retried checkpoint) the
            // way rename does.
            std::fs::remove_file(&dst)?;
        }
        #[cfg(unix)]
        std::fs::hard_link(&src, &dst)?;
        #[cfg(not(unix))]
        {
            std::fs::copy(&src, &dst)?;
            File::open(&dst)?.sync_all()?;
        }
        Ok(())
    }

    #[cfg(unix)]
    fn link_count(&self, path: &str) -> Result<u64> {
        use std::os::unix::fs::MetadataExt;
        let full = self.resolve(path);
        if !full.exists() {
            return Err(Error::NotFound);
        }
        Ok(std::fs::metadata(full)?.nlink())
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        std::fs::create_dir_all(self.resolve(path))?;
        Ok(())
    }

    fn list_dir(&self, dir: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(self.resolve(dir))? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        Ok(names)
    }

    #[cfg(target_os = "linux")]
    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
        use std::os::unix::io::AsRawFd;
        let size = self.file_size(path)?;
        let start = offset.min(size);
        let effective = offset.saturating_add(len).min(size).saturating_sub(start);
        if effective == 0 {
            self.stats.record_punch_hole(0);
            return Ok(());
        }
        // Local declaration of the glibc symbol (the build has no `libc`
        // crate). `off_t` is i64 on every 64-bit Linux target.
        const FALLOC_FL_KEEP_SIZE: i32 = 0x01;
        const FALLOC_FL_PUNCH_HOLE: i32 = 0x02;
        const EOPNOTSUPP: i32 = 95;
        extern "C" {
            fn fallocate(fd: i32, mode: i32, offset: i64, len: i64) -> i32;
        }

        let file = OpenOptions::new().write(true).open(self.resolve(path))?;
        // SAFETY: valid fd, flags and range are well-formed.
        let ret = unsafe {
            fallocate(
                file.as_raw_fd(),
                FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                start as i64,
                effective as i64,
            )
        };
        if ret != 0 {
            let errno = std::io::Error::last_os_error();
            // Filesystems without hole support (e.g. some tmpfs configs):
            // fall back to zeroing.
            if errno.raw_os_error() == Some(EOPNOTSUPP) {
                zero_range(&file, start, effective)?;
            } else {
                return Err(errno.into());
            }
        }
        self.stats.record_punch_hole(effective);
        Ok(())
    }

    #[cfg(not(target_os = "linux"))]
    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
        let size = self.file_size(path)?;
        let start = offset.min(size);
        let effective = offset.saturating_add(len).min(size).saturating_sub(start);
        let file = OpenOptions::new().write(true).open(self.resolve(path))?;
        zero_range(&file, start, effective)?;
        self.stats.record_punch_hole(effective);
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// Overwrite `[offset, offset+len)` with zeros (hole-punch fallback).
fn zero_range(file: &File, offset: u64, len: u64) -> Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    let zeros = [0u8; 8192];
    let mut remaining = len;
    while remaining > 0 {
        let n = remaining.min(zeros.len() as u64) as usize;
        f.write_all(&zeros[..n])?;
        remaining -= n as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_env(tag: &str) -> (RealEnv, PathBuf) {
        let dir = std::env::temp_dir().join(format!("bolt-realenv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        (RealEnv::new(&dir), dir)
    }

    #[test]
    fn punch_hole_reclaims_or_zeroes() {
        let (env, dir) = temp_env("punch");
        let mut f = env.new_writable_file("data").unwrap();
        f.append(&[0xaa; 64 * 1024]).unwrap();
        f.sync().unwrap();
        drop(f);
        env.punch_hole("data", 4096, 8192).unwrap();
        assert_eq!(env.file_size("data").unwrap(), 64 * 1024);
        let r = env.new_random_access_file("data").unwrap();
        let data = r.read(4096, 8192).unwrap();
        assert!(data.iter().all(|&b| b == 0));
        let edge = r.read(0, 4096).unwrap();
        assert!(edge.iter().all(|&b| b == 0xaa));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fsync_records_wait_time() {
        let (env, dir) = temp_env("fsync");
        let mut f = env.new_writable_file("w").unwrap();
        f.append(b"payload").unwrap();
        f.sync().unwrap();
        assert_eq!(env.stats().fsync_calls(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn link_onto_another_spelling_of_the_source_keeps_it() {
        let (env, dir) = temp_env("self-link");
        env.create_dir_all("db").unwrap();
        let mut f = env.new_writable_file("db/t.sst").unwrap();
        f.append(b"table").unwrap();
        f.sync().unwrap();
        drop(f);
        for dst in ["./db/t.sst", "db//t.sst"] {
            env.link_file("db/t.sst", dst).unwrap();
            let r = env.new_random_access_file("db/t.sst").unwrap();
            assert_eq!(r.read(0, 5).unwrap(), b"table", "after linking onto {dst}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn appendable_requires_existing() {
        let (env, dir) = temp_env("appendable");
        assert!(matches!(
            env.new_appendable_file("nope"),
            Err(Error::NotFound)
        ));
        let _ = std::fs::remove_dir_all(dir);
    }
}
