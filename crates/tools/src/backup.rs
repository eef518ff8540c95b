//! Incremental backup built on [`Db::checkpoint`].
//!
//! A backup directory holds any number of *generations*, each one a
//! complete, restorable image of the database at a checkpointed sequence
//! number — but physically the generations share payloads: every file of a
//! checkpoint is stored once under a content identity key
//! (`<name>@<size>-<crc32c>`), so an SSTable or value-log segment that
//! did not change between generations costs nothing the second time.
//!
//! ```text
//! <backup>/
//!   files/<name>@<size>-<crc>     shared payload store (rename-committed)
//!   gen-000001/BACKUP             generation manifest: file list + CRCs
//!   gen-000002/BACKUP
//!   staging/                      transient checkpoint, recreated per run
//! ```
//!
//! Crash safety, both directions:
//!
//! * **create** — payloads land under `files/` via temp-file + rename, so a
//!   half-copied payload can never be mistaken for a complete one; the
//!   generation's `BACKUP` manifest is written last, also via rename. A
//!   crash at any point leaves either a fully valid new generation or
//!   ignorable garbage (an orphan staging dir, unreferenced payloads, a
//!   `gen-N` dir with no manifest) — prior generations are never touched.
//! * **restore** — the destination is wiped (`CURRENT` deleted first) and
//!   rebuilt from the store with every byte CRC-verified; `CURRENT` is
//!   copied last, so an interrupted restore is not openable as a database. Restore is idempotent: running
//!   it again after any crash (even a crash *during the re-run*) converges
//!   to the same verified image.

use std::sync::Arc;

use bolt_common::crc32c::extend;
use bolt_common::{Error, Result};
use bolt_core::Db;
use bolt_env::{join_path, Env};

/// Copy chunk size; also the CRC streaming granularity.
const CHUNK: usize = 1 << 20;

/// What a backup operation did, for reports and assertions.
#[derive(Debug, Clone, Default)]
pub struct BackupReport {
    /// Generation created, restored, or (for verify) generations checked.
    pub generation: u64,
    /// Files referenced by the manifest(s) involved.
    pub files: u64,
    /// Files that were already present in the payload store (create) —
    /// the incremental savings — or generations verified (verify).
    pub shared: u64,
    /// Payload bytes newly written (create) or copied out (restore).
    pub bytes: u64,
    /// Checkpoint sequence number of the generation.
    pub sequence: u64,
}

fn files_dir(backup: &str) -> String {
    join_path(backup, "files")
}

fn gen_dir(backup: &str, generation: u64) -> String {
    join_path(backup, &format!("gen-{generation:06}"))
}

fn manifest_path(backup: &str, generation: u64) -> String {
    join_path(&gen_dir(backup, generation), "BACKUP")
}

fn staging_dir(backup: &str) -> String {
    join_path(backup, "staging")
}

/// One `file` line of a generation manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    name: String,
    size: u64,
    crc: u32,
}

impl ManifestEntry {
    fn store_key(&self) -> String {
        format!("{}@{}-{:08x}", self.name, self.size, self.crc)
    }
}

/// Highest generation whose manifest exists, or 0 if none do. Generations
/// are numbered densely from 1, so probing upward terminates at the first
/// gap; a crashed create leaves a manifest-less `gen-N` dir which is then
/// reused by the next create.
fn latest_generation(env: &dyn Env, backup: &str) -> u64 {
    let mut generation = 0;
    while env.file_exists(&manifest_path(backup, generation + 1)) {
        generation += 1;
    }
    generation
}

/// Read a whole file through the env in chunks, feeding `sink`.
fn read_file_chunks(
    env: &dyn Env,
    path: &str,
    mut sink: impl FnMut(&[u8]) -> Result<()>,
) -> Result<u64> {
    let file = env.new_random_access_file(path)?;
    let len = file.len();
    let mut offset = 0u64;
    while offset < len {
        let take = CHUNK.min((len - offset) as usize);
        let chunk = file.read(offset, take)?;
        if chunk.is_empty() {
            return Err(Error::io(format!("short read from {path} at {offset}")));
        }
        offset += chunk.len() as u64;
        sink(&chunk)?;
    }
    Ok(len)
}

/// CRC32C of a whole file's contents, streamed chunk-at-a-time —
/// `extend` chains so memory stays O(CHUNK) regardless of file size, and
/// an empty file hashes to 0 (extend over nothing leaves the seed).
fn file_crc(env: &dyn Env, path: &str) -> Result<(u64, u32)> {
    let mut crc = 0u32;
    let size = read_file_chunks(env, path, |chunk| {
        crc = extend(crc, chunk);
        Ok(())
    })?;
    Ok((size, crc))
}

/// Copy `src` to `dst` via temp-file + rename so `dst`'s existence implies
/// a complete, synced copy. Returns the streamed CRC of the bytes written.
fn copy_committed(env: &dyn Env, src: &str, dst: &str) -> Result<(u64, u32)> {
    let tmp = format!("{dst}.tmp");
    let mut out = env.new_writable_file(&tmp)?;
    let mut crc = 0u32;
    let size = read_file_chunks(env, src, |chunk| {
        crc = extend(crc, chunk);
        out.append(chunk)
    })?;
    out.sync()?;
    drop(out);
    env.rename_file(&tmp, dst)?;
    Ok((size, crc))
}

/// Write a generation manifest (temp-file + rename; the trailing `ok` line
/// rejects truncated manifests at parse time).
fn write_manifest(
    env: &dyn Env,
    backup: &str,
    generation: u64,
    sequence: u64,
    entries: &[ManifestEntry],
) -> Result<()> {
    let mut body = String::from("bolt-backup 1\n");
    body.push_str(&format!("seq {sequence}\n"));
    for e in entries {
        body.push_str(&format!("file {} {} {:08x}\n", e.name, e.size, e.crc));
    }
    body.push_str("ok\n");
    let path = manifest_path(backup, generation);
    let tmp = format!("{path}.tmp");
    env.create_dir_all(&gen_dir(backup, generation))?;
    let mut f = env.new_writable_file(&tmp)?;
    f.append(body.as_bytes())?;
    f.sync()?;
    drop(f);
    env.rename_file(&tmp, &path)
}

/// Parse a generation manifest, rejecting torn or malformed files.
fn read_manifest(
    env: &dyn Env,
    backup: &str,
    generation: u64,
) -> Result<(u64, Vec<ManifestEntry>)> {
    let path = manifest_path(backup, generation);
    let mut data = Vec::new();
    read_file_chunks(env, &path, |chunk| {
        data.extend_from_slice(chunk);
        Ok(())
    })?;
    let text =
        String::from_utf8(data).map_err(|_| Error::corruption(format!("{path}: not UTF-8")))?;
    let mut lines = text.lines();
    if lines.next() != Some("bolt-backup 1") {
        return Err(Error::corruption(format!("{path}: bad header")));
    }
    let sequence = lines
        .next()
        .and_then(|l| l.strip_prefix("seq "))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::corruption(format!("{path}: bad seq line")))?;
    let mut entries = Vec::new();
    let mut closed = false;
    for line in lines {
        if line == "ok" {
            closed = true;
            break;
        }
        let mut parts = line.split(' ');
        let entry = (|| {
            if parts.next() != Some("file") {
                return None;
            }
            let name = parts.next()?.to_string();
            let size = parts.next()?.parse().ok()?;
            let crc = u32::from_str_radix(parts.next()?, 16).ok()?;
            Some(ManifestEntry { name, size, crc })
        })()
        .ok_or_else(|| Error::corruption(format!("{path}: bad line `{line}`")))?;
        entries.push(entry);
    }
    if !closed {
        return Err(Error::corruption(format!("{path}: truncated (no `ok`)")));
    }
    Ok((sequence, entries))
}

/// Create a new backup generation from a live database.
///
/// Takes an online [`Db::checkpoint`] into `<backup>/staging`, ingests
/// every checkpoint file into the shared payload store (skipping payloads
/// an earlier generation already stored), writes the generation manifest,
/// and dismantles the staging checkpoint.
///
/// # Errors
///
/// Propagates checkpoint and I/O errors; a failed create leaves previous
/// generations fully intact.
pub fn backup_create(env: &Arc<dyn Env>, db: &Db, backup: &str) -> Result<BackupReport> {
    env.create_dir_all(backup)?;
    env.create_dir_all(&files_dir(backup))?;
    // A previous create may have died mid-flight: clear its staging links
    // so the checkpoint below starts from an empty directory.
    let staging = staging_dir(backup);
    if let Ok(stale) = env.list_dir(&staging) {
        for name in stale {
            env.delete_file(&join_path(&staging, &name))?;
        }
    }

    let sequence = db.checkpoint(&staging)?;
    let mut report = BackupReport {
        generation: latest_generation(env.as_ref(), backup) + 1,
        sequence,
        ..BackupReport::default()
    };
    let mut entries = Vec::new();
    for name in env.list_dir(&staging)? {
        let src = join_path(&staging, &name);
        let (size, crc) = file_crc(env.as_ref(), &src)?;
        let entry = ManifestEntry { name, size, crc };
        let stored = join_path(&files_dir(backup), &entry.store_key());
        if env.file_exists(&stored) {
            report.shared += 1;
        } else {
            let (copied, copied_crc) = copy_committed(env.as_ref(), &src, &stored)?;
            if copied != size || copied_crc != crc {
                return Err(Error::io(format!(
                    "{src}: changed while being backed up ({copied} bytes vs {size})"
                )));
            }
            report.bytes += copied;
        }
        entries.push(entry);
        report.files += 1;
    }
    write_manifest(env.as_ref(), backup, report.generation, sequence, &entries)?;
    // The generation is committed; the staging checkpoint is now garbage.
    // Deleting only unlinks the staged names — payloads live in `files/`.
    for name in env.list_dir(&staging)? {
        env.delete_file(&join_path(&staging, &name))?;
    }
    Ok(report)
}

/// Restore generation `generation` (or the latest when `None`) into
/// `dest`, wiping whatever was there. Every payload byte is CRC-verified
/// on the way out; `CURRENT` is copied last so an interrupted restore
/// leaves a non-openable directory rather than a wrong database. Safe to
/// re-run after a crash — including a crash during the re-run itself.
///
/// # Errors
///
/// `NotFound` when the backup holds no generations (or not the requested
/// one), `Corruption` when a payload fails its CRC, plus I/O errors.
pub fn backup_restore(
    env: &Arc<dyn Env>,
    backup: &str,
    generation: Option<u64>,
    dest: &str,
) -> Result<BackupReport> {
    let generation = match generation {
        Some(generation) => generation,
        None => latest_generation(env.as_ref(), backup),
    };
    if generation == 0 || !env.file_exists(&manifest_path(backup, generation)) {
        return Err(Error::NotFound);
    }
    let (sequence, entries) = read_manifest(env.as_ref(), backup, generation)?;
    env.create_dir_all(dest)?;
    // Wipe the destination: stale files (a previous partial restore, an old
    // database) could otherwise leak into recovery — a leftover WAL would
    // replay, a leftover CURRENT could make a half-restored image openable.
    // CURRENT goes first: once any other file is gone the directory must
    // not claim to be a database, even if we crash mid-wipe.
    let mut stale = env.list_dir(dest)?;
    stale.sort_by_key(|name| name != "CURRENT");
    for name in stale {
        env.delete_file(&join_path(dest, &name))?;
    }
    let mut report = BackupReport {
        generation,
        sequence,
        ..BackupReport::default()
    };
    // CURRENT last: it is the atom that makes the directory a database.
    let mut ordered: Vec<&ManifestEntry> = entries.iter().collect();
    ordered.sort_by_key(|e| e.name == "CURRENT");
    for entry in ordered {
        let stored = join_path(&files_dir(backup), &entry.store_key());
        let (size, crc) = copy_committed(env.as_ref(), &stored, &join_path(dest, &entry.name))?;
        if size != entry.size || crc != entry.crc {
            return Err(Error::corruption(format!(
                "backup payload {} fails verification ({size} bytes, crc {crc:08x}, \
                 manifest says {} / {:08x})",
                entry.store_key(),
                entry.size,
                entry.crc
            )));
        }
        report.files += 1;
        report.bytes += size;
    }
    Ok(report)
}

/// Verify every generation in the backup: manifests parse, every payload
/// exists, and every payload's bytes match the manifest's size and CRC.
///
/// # Errors
///
/// `NotFound` for an empty backup; `Corruption` naming every broken
/// payload (all problems are collected before failing).
pub fn backup_verify(env: &Arc<dyn Env>, backup: &str) -> Result<BackupReport> {
    let latest = latest_generation(env.as_ref(), backup);
    if latest == 0 {
        return Err(Error::NotFound);
    }
    let mut report = BackupReport::default();
    let mut problems = Vec::new();
    for generation in 1..=latest {
        let (sequence, entries) = read_manifest(env.as_ref(), backup, generation)?;
        report.generation = generation;
        report.sequence = sequence;
        report.shared += 1; // generations checked
        for entry in &entries {
            report.files += 1;
            let stored = join_path(&files_dir(backup), &entry.store_key());
            if !env.file_exists(&stored) {
                problems.push(format!(
                    "gen {generation}: missing payload {}",
                    entry.store_key()
                ));
                continue;
            }
            match file_crc(env.as_ref(), &stored) {
                Ok((size, crc)) if size == entry.size && crc == entry.crc => {
                    report.bytes += size;
                }
                Ok((size, crc)) => problems.push(format!(
                    "gen {generation}: payload {} is {size} bytes crc {crc:08x}, \
                     manifest says {} / {:08x}",
                    entry.store_key(),
                    entry.size,
                    entry.crc
                )),
                Err(e) => problems.push(format!(
                    "gen {generation}: payload {} unreadable: {e}",
                    entry.store_key()
                )),
            }
        }
    }
    if problems.is_empty() {
        Ok(report)
    } else {
        Err(Error::corruption(problems.join("; ")))
    }
}

/// Render a report for the CLI.
pub fn render_backup_report(verb: &str, r: &BackupReport) -> String {
    match verb {
        "create" => format!(
            "backup: created generation {} at sequence {} — {} file(s), \
             {} shared with earlier generations, {} new byte(s)\n",
            r.generation, r.sequence, r.files, r.shared, r.bytes
        ),
        "restore" => format!(
            "backup: restored generation {} (sequence {}) — {} file(s), {} byte(s), \
             all CRC-verified\n",
            r.generation, r.sequence, r.files, r.bytes
        ),
        _ => format!(
            "backup: verified {} generation(s) — {} payload reference(s), \
             {} byte(s) checked, latest generation {} at sequence {}\n",
            r.shared, r.files, r.bytes, r.generation, r.sequence
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_core::Options;
    use bolt_env::{CrashConfig, FaultEnv, FaultPlan, MemEnv};

    fn opts() -> Options {
        Options::bolt().scaled(1.0 / 256.0)
    }

    fn scan(db: &Db) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        let mut it = db.iter().unwrap();
        it.seek_to_first().unwrap();
        while it.valid() {
            out.push((it.key().to_vec(), it.value().to_vec()));
            it.next().unwrap();
        }
        out
    }

    #[test]
    fn streamed_crc_matches_one_shot_across_chunks() {
        use bolt_common::crc32c::crc32c;
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        env.create_dir_all("d").unwrap();
        // Spans three read chunks (with a ragged tail) so the test fails if
        // chunked `extend` chaining ever diverges from hashing the whole
        // file at once.
        let body: Vec<u8> = (0..(2 * CHUNK + CHUNK / 3))
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let mut f = env.new_writable_file("d/big").unwrap();
        f.append(&body).unwrap();
        f.sync().unwrap();
        drop(f);

        let (size, crc) = file_crc(env.as_ref(), "d/big").unwrap();
        assert_eq!(size, body.len() as u64);
        assert_eq!(crc, crc32c(&body));

        let (size, crc) = copy_committed(env.as_ref(), "d/big", "d/copy").unwrap();
        assert_eq!(size, body.len() as u64);
        assert_eq!(crc, crc32c(&body));
        let copy = env.new_random_access_file("d/copy").unwrap();
        assert_eq!(copy.read(0, body.len()).unwrap(), body);

        // Empty file: no chunks ever reach the hasher; crc stays 0.
        let mut f = env.new_writable_file("d/empty").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(file_crc(env.as_ref(), "d/empty").unwrap(), (0, 0));
    }

    #[test]
    fn create_restore_roundtrip() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
        for i in 0..300u32 {
            db.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let report = backup_create(&env, &db, "bak").unwrap();
        assert_eq!(report.generation, 1);
        let want = scan(&db);
        // What the MANIFEST records of each table, tail length included.
        let tables = |db: &Db| -> Vec<(u64, u64, u64)> {
            let version = db.current_version();
            let tables = version.all_tables();
            tables
                .map(|(_, _, t)| (t.table_id, t.size, t.tail_bytes))
                .collect()
        };
        let recorded = tables(&db);
        assert!(!recorded.is_empty() && recorded.iter().all(|t| t.2 > 0));
        db.close().unwrap();

        backup_restore(&env, "bak", None, "restored").unwrap();
        let copy = Db::open(Arc::clone(&env), "restored", opts()).unwrap();
        assert_eq!(scan(&copy), want);
        // The restored tree opens its tables as cheaply as the source did:
        // the lengths travelled with the MANIFEST, and they are right.
        assert_eq!(tables(&copy), recorded);
        crate::verify_db(&copy).unwrap();
        let tc = copy.metrics().table_cache;
        assert_eq!((tc.opens, tc.open_reads), (recorded.len() as u64, tc.opens));
        copy.close().unwrap();
        backup_verify(&env, "bak").unwrap();
    }

    /// The ISSUE's end-to-end acceptance path: a backup cut while writers
    /// are still appending restores into a database that opens at exactly
    /// the checkpoint's pinned sequence and whose scan is a consistent
    /// write prefix — no torn values, no gaps, no unwritten keys.
    #[test]
    fn backup_of_live_db_restores_pinned_snapshot() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Arc::new(Db::open(Arc::clone(&env), "db", opts()).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = (0..3u32)
            .map(|t| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u32;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        db.put(
                            format!("t{t}-{i:05}").as_bytes(),
                            format!("{t}:{i}").as_bytes(),
                        )
                        .unwrap();
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        while db.snapshot().sequence() < 400 {
            std::thread::yield_now();
        }
        let report = backup_create(&env, &db, "bak").unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let written: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        db.close().unwrap();

        backup_restore(&env, "bak", None, "restored").unwrap();
        let copy = Db::open(Arc::clone(&env), "restored", opts()).unwrap();
        assert_eq!(
            copy.snapshot().sequence(),
            report.sequence,
            "restored DB is not at the pinned checkpoint sequence"
        );
        let entries = scan(&copy);
        assert!(!entries.is_empty(), "backup captured nothing");
        let mut max_seen = [None::<u32>; 3];
        let mut count = [0u32; 3];
        for (k, v) in &entries {
            let k = std::str::from_utf8(k).unwrap();
            let (t, i) = k[1..].split_once('-').unwrap();
            let (t, i): (usize, u32) = (t.parse().unwrap(), i.parse().unwrap());
            assert_eq!(v, format!("{t}:{i}").as_bytes(), "torn value");
            max_seen[t] = Some(max_seen[t].map_or(i, |m| m.max(i)));
            count[t] += 1;
        }
        for t in 0..3 {
            if let Some(max) = max_seen[t] {
                assert_eq!(count[t], max + 1, "gap in thread {t}'s write prefix");
                assert!(max < written[t], "backup holds unwritten key");
            }
        }
        copy.close().unwrap();
    }

    #[test]
    fn generations_share_unchanged_payloads() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
        for i in 0..400u32 {
            db.put(format!("a{i:05}").as_bytes(), b"gen1").unwrap();
        }
        db.flush().unwrap();
        backup_create(&env, &db, "bak").unwrap();
        let want_gen1 = scan(&db);

        // New data lands in new tables; the old tables are unchanged and
        // their payloads must be shared, not re-stored.
        for i in 0..400u32 {
            db.put(format!("b{i:05}").as_bytes(), b"gen2").unwrap();
        }
        db.flush().unwrap();
        let second = backup_create(&env, &db, "bak").unwrap();
        assert_eq!(second.generation, 2);
        assert!(
            second.shared > 0,
            "second generation stored every payload again: {second:?}"
        );
        let want_gen2 = scan(&db);
        db.close().unwrap();

        backup_verify(&env, "bak").unwrap();
        backup_restore(&env, "bak", Some(1), "r1").unwrap();
        backup_restore(&env, "bak", Some(2), "r2").unwrap();
        let db1 = Db::open(Arc::clone(&env), "r1", opts()).unwrap();
        assert_eq!(scan(&db1), want_gen1, "generation 1 diverged");
        db1.close().unwrap();
        let db2 = Db::open(Arc::clone(&env), "r2", opts()).unwrap();
        assert_eq!(scan(&db2), want_gen2, "generation 2 diverged");
        db2.close().unwrap();
    }

    #[test]
    fn verify_catches_payload_corruption() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
        for i in 0..200u32 {
            db.put(format!("k{i:05}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        backup_create(&env, &db, "bak").unwrap();
        db.close().unwrap();
        backup_verify(&env, "bak").unwrap();

        // Flip bytes in the largest payload (an SSTable).
        let victim = env
            .list_dir("bak/files")
            .unwrap()
            .into_iter()
            .max_by_key(|name| env.file_size(&format!("bak/files/{name}")).unwrap_or(0))
            .unwrap();
        let mut f = env
            .new_writable_file(&format!("bak/files/{victim}"))
            .unwrap();
        f.append(b"garbage").unwrap();
        f.sync().unwrap();
        drop(f);
        let err = backup_verify(&env, "bak").unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        // Restoring the broken generation must also refuse.
        assert!(backup_restore(&env, "bak", None, "r").is_err());
    }

    #[test]
    fn restore_refuses_missing_generation() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        env.create_dir_all("bak").unwrap();
        assert!(backup_restore(&env, "bak", None, "r")
            .unwrap_err()
            .is_not_found());
        assert!(backup_verify(&env, "bak").unwrap_err().is_not_found());
    }

    /// Crash a restore at every op of its trace, then re-run it — and for
    /// good measure crash the *re-run* too and restore a third time. The
    /// final image must be byte-identical to the backed-up snapshot, and a
    /// half-restored directory must never be openable.
    #[test]
    fn double_crash_during_restore_converges() {
        // Build a backup once on a plain MemEnv, then copy its files into
        // each FaultEnv run via the backup itself (create is cheap).
        let fenv = FaultEnv::over_mem();
        let env: Arc<dyn Env> = Arc::new(fenv.clone());
        let db = Db::open(Arc::clone(&env), "db", opts()).unwrap();
        for i in 0..250u32 {
            db.put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        backup_create(&env, &db, "bak").unwrap();
        let want = scan(&db);
        db.close().unwrap();

        // Record a clean restore to learn its op count.
        fenv.start_recording();
        backup_restore(&env, "bak", None, "probe").unwrap();
        let restore_ops = fenv.stop_recording().len() as u64;
        assert!(restore_ops > 4, "restore trace suspiciously short");

        let crash_in = |ops: u64| FaultPlan::parse(&format!("crash:any:glob=*:nth={ops}")).unwrap();
        let step = (restore_ops / 12).max(1);
        let mut covered = 0;
        for first in (0..restore_ops).step_by(step as usize) {
            // First crash, mid-restore.
            // (A clause counts from when it is installed.)
            fenv.set_plan(crash_in(first));
            let r1 = backup_restore(&env, "bak", None, "dest");
            fenv.crash_inner(CrashConfig::Clean);
            fenv.reset();
            if r1.is_err() && fenv.file_exists("dest/CURRENT") {
                // Interrupted but the directory still carries a CURRENT:
                // it must either refuse to open (it references wiped files)
                // or open to the *correct* snapshot (the crash landed
                // before the previous complete image was disturbed). When
                // CURRENT is absent the dir is ignorable garbage — opening
                // it would just create a fresh empty database.
                if let Ok(db) = Db::open(Arc::clone(&env), "dest", opts()) {
                    assert_eq!(
                        scan(&db),
                        want,
                        "crash@{first}: interrupted restore left a wrong but openable image"
                    );
                    db.close().unwrap();
                }
            }
            // Second crash, somewhere inside the re-run.
            fenv.set_plan(crash_in(first / 2));
            let _ = backup_restore(&env, "bak", None, "dest");
            fenv.crash_inner(CrashConfig::Clean);
            fenv.reset();
            // Third run with no faults must converge.
            backup_restore(&env, "bak", None, "dest").unwrap();
            let db = Db::open(Arc::clone(&env), "dest", opts()).unwrap();
            assert_eq!(scan(&db), want, "crash@{first}: restore diverged");
            db.close().unwrap();
            covered += 1;
        }
        assert!(covered >= 10, "too few crash points covered: {covered}");
        backup_verify(&env, "bak").unwrap();
    }
}
