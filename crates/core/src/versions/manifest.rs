//! The MANIFEST writer: the commit barrier of every flush and compaction
//! (§2.4) — append a [`VersionEdit`], sync — and what keeps it writable: the
//! snapshot cut every fresh MANIFEST starts with, the CURRENT swing, and the
//! O5 re-cut that heals a torn commit in place. The only `Env` calls made
//! with `core.versions` held are the ones in this file (and open-time
//! `recover`).

use std::sync::Arc;

use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent};
use bolt_common::{Error, Result};
use bolt_env::Env;
use bolt_wal::LogWriter;

use super::VersionSet;
use crate::filename::{current_file, manifest_file, FileType};
use crate::version::{Version, VersionEdit};

/// The active MANIFEST file.
#[derive(Default)]
pub(super) struct ManifestLog {
    /// `None` before the set is created or recovered, and once a failed
    /// commit could not be healed: the file then holds an appended but
    /// uncommitted (or torn) record, and anything appended after it would
    /// either commit alongside edits built as if it never happened or hide
    /// behind the tear. Every later commit fails until reopen.
    pub(super) writer: Option<LogWriter>,
    pub(super) number: u64,
    /// Completed self-healing re-cuts since open.
    recuts: u64,
}

/// Wrap a fresh MANIFEST file: its barriers default to `open_manifest`
/// (the snapshot written at open); flush/compaction commits override with
/// their own explicit scopes.
fn new_manifest_writer(file: Box<dyn bolt_env::WritableFile>) -> LogWriter {
    let mut manifest = LogWriter::new(file);
    manifest.set_barrier_cause(BarrierCause::OpenManifest);
    manifest
}

fn table_records(version: &Version) -> Vec<(u32, u64, crate::version::TableMeta)> {
    let tables = version.all_tables();
    tables
        .map(|(level, tag, meta)| (level as u32, tag, meta.as_ref().clone()))
        .collect()
}

impl ManifestLog {
    /// Append `payload` and sync it — the commit barrier. On failure the
    /// writer is dropped (see [`ManifestLog::writer`]).
    fn commit(&mut self, payload: &[u8]) -> Result<()> {
        let manifest = self.writer.as_mut().ok_or_else(|| {
            Error::InvalidState(
                "MANIFEST unavailable (not initialized, or poisoned by an earlier I/O error)"
                    .into(),
            )
        })?;
        let committed = manifest.add_record(payload).and_then(|()| manifest.sync());
        if committed.is_err() {
            self.writer = None;
        }
        committed
    }
}

impl VersionSet {
    /// Initialize a brand-new database: write the first MANIFEST with an
    /// empty snapshot and point CURRENT at it.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env.
    pub fn create_new(&mut self) -> Result<()> {
        self.cut_fresh_manifest()
    }

    /// The active MANIFEST file number.
    pub fn manifest_number(&self) -> u64 {
        self.manifest.number
    }

    /// Self-healing MANIFEST re-cuts since open (O5): fresh manifests cut
    /// to absorb a torn commit, counted per completed cut. One commit can
    /// drive several (the re-appended edit's own sync may fail too), so
    /// every fault is covered by exactly one re-cut or one caller-visible
    /// error — never silently by a sibling's re-cut.
    pub fn manifest_recuts(&self) -> u64 {
        self.manifest.recuts
    }

    /// Append `edit` to the MANIFEST and sync it — the commit barrier —
    /// healing a failed append or sync by re-cutting (O5). Returns the
    /// length of the record that committed. The in-memory set is not
    /// touched; on error nothing was acknowledged.
    pub(super) fn commit_edit(&mut self, edit: &mut VersionEdit) -> Result<u64> {
        let healthy = self.manifest.writer.is_some();
        let payload = edit.encode();
        match self.manifest.commit(&payload) {
            Ok(()) => {}
            // Torn just now: heal in place.
            Err(e) if healthy => self.recut_and_recommit(edit, e)?,
            // Never initialized, or poisoned earlier: stays so until reopen.
            Err(e) => return Err(e),
        }
        Ok(payload.len() as u64)
    }

    /// A full-snapshot [`VersionEdit`] of the current in-memory state: the
    /// single record every fresh MANIFEST starts with — at creation, at open
    /// and when self-healing a failed commit barrier.
    fn snapshot_edit(&self) -> VersionEdit {
        let mut edit = VersionEdit {
            last_sequence: Some(self.last_sequence),
            log_number: Some(self.log_number),
            compact_pointers: self.current.compact_pointer_records(),
            added_tables: table_records(&self.current),
            compaction_policy: Some(self.policy),
            // A fresh MANIFEST starts from zero, so the cumulative dead
            // ledger is re-expressed as the merged ranges per segment;
            // segments whose unlink is still owed stay condemned across the
            // cut.
            vlog_dead: self
                .vlog_segments
                .iter()
                .flat_map(|(&segment, info)| {
                    info.dead
                        .iter()
                        .map(move |(offset, len)| (segment, offset, len))
                })
                .collect(),
            vlog_deleted: self.reclaim.condemned_segments(),
            ..Default::default()
        };
        self.ids.stamp(&mut edit);
        edit
    }

    /// Cut a brand-new MANIFEST: write a full snapshot of the current
    /// in-memory version, sync it, and durably swing CURRENT to it. The
    /// fresh writer is installed only after the swing succeeds — a writer
    /// CURRENT does not name would make synced commits invisible to
    /// recovery, silently violating I1.
    pub(super) fn cut_fresh_manifest(&mut self) -> Result<()> {
        let number = self.ids.new_file_number();
        let path = manifest_file(&self.db, number);
        let mut manifest = new_manifest_writer(self.env.new_writable_file(&path)?);
        manifest.add_record(&self.snapshot_edit().encode())?;
        manifest.sync()?;
        {
            let _scope = BarrierScope::new(BarrierCause::CurrentPointer);
            install_current_at(self.env.as_ref(), &self.db, number)?;
        }
        self.manifest.writer = Some(manifest);
        self.manifest.number = number;
        Ok(())
    }

    /// Self-heal a failed MANIFEST commit (O5). The torn writer has already
    /// been dropped; the in-memory version does not include `edit`. Cut a
    /// fresh MANIFEST from a snapshot of that state, swing CURRENT past the
    /// torn file, then re-append and re-sync `edit` against the fresh
    /// writer so the caller's commit still lands durably. Bounded retry: if
    /// the re-appended edit's own sync fails, the now-torn fresh MANIFEST
    /// is abandoned and one more re-cut is attempted; any failure inside a
    /// re-cut (the double-fault case) leaves the writer poisoned and every
    /// later commit fails with [`Error::InvalidState`] until reopen.
    fn recut_and_recommit(&mut self, edit: &mut VersionEdit, first_err: Error) -> Result<()> {
        const MAX_RECUT_ATTEMPTS: u32 = 2;
        let mut last_err = first_err;
        for _ in 0..MAX_RECUT_ATTEMPTS {
            let abandoned = self.manifest.number;
            let _scope = BarrierScope::new(BarrierCause::ManifestRecut);
            if let Err(recut_err) = self.cut_fresh_manifest() {
                return Err(Error::InvalidState(format!(
                    "MANIFEST poisoned: commit failed ({last_err}), re-cut failed \
                     ({recut_err}); reopen to recover"
                )));
            }
            // CURRENT now points past the torn MANIFEST: it is garbage for
            // the reclaim pass that follows every commit (open-time
            // scavenging is the backstop).
            self.reclaim.condemn(FileType::Manifest(abandoned));
            // Count the re-cut now, not on recommit success: each completed
            // cut absorbed exactly one fault (the one that tore the writer it
            // replaced), even if the re-appended edit's own sync fails next
            // and a further re-cut — or the caller's error — covers *that*
            // fault. Counting per successful recommit instead undercounts
            // when one healing sequence absorbs two faults, which breaks any
            // audit matching faults against `errors + recuts`.
            self.manifest.recuts += 1;
            if let Some(sink) = &self.sink {
                sink.emit(EngineEvent::ManifestRecut {
                    abandoned,
                    new_manifest: self.manifest.number,
                    snapshot_tables: self.current.num_tables() as u64,
                });
            }
            // The re-cut consumed a file number; refresh the counters so the
            // re-appended record never understates them.
            self.ids.stamp(edit);
            match self.manifest.commit(&edit.encode()) {
                Ok(()) => return Ok(()),
                // The fresh MANIFEST is torn now too; (maybe) cut another.
                Err(e) => last_err = e,
            }
        }
        Err(Error::InvalidState(format!(
            "MANIFEST poisoned: commit kept failing across re-cuts ({last_err}); \
             reopen to recover"
        )))
    }

    /// Write a self-contained MANIFEST + CURRENT for `version` into `dir`
    /// — the commit step of an online checkpoint. The table and value-log
    /// files `version` references must already be linked into `dir`; after
    /// this returns, `dir` opens as an independent database whose contents
    /// are exactly the write prefix at `last_sequence`.
    ///
    /// `vlog_dead` is the dead-byte ledger to carry for the segments the
    /// checkpoint actually linked, so the restored database's space
    /// accounting (and eventual retirement) picks up where the source left
    /// off. It must come from the frozen copy [`VersionSet::pin_checkpoint`]
    /// captured — NOT from the live ledger, which a compaction committing
    /// after the pin may have advanced past what the pinned tables still
    /// reference — filtered to the segments placed in `dir`.
    ///
    /// CURRENT is written last, via temp-file + atomic rename: a crash
    /// anywhere before the rename leaves a directory without CURRENT,
    /// which recovery (and the backup tool) treat as ignorable garbage.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env; the caller discards the partial
    /// directory.
    pub fn write_checkpoint_manifest(
        &self,
        dir: &str,
        version: &Arc<Version>,
        last_sequence: u64,
        vlog_dead: Vec<(u64, u64, u64)>,
    ) -> Result<()> {
        let mut edit = VersionEdit {
            last_sequence: Some(last_sequence),
            log_number: Some(self.log_number),
            compaction_policy: Some(self.policy),
            added_tables: table_records(version),
            vlog_dead,
            ..Default::default()
        };
        self.ids.stamp(&mut edit);
        const CHECKPOINT_MANIFEST: u64 = 1;
        let path = manifest_file(dir, CHECKPOINT_MANIFEST);
        let mut manifest = new_manifest_writer(self.env.new_writable_file(&path)?);
        manifest.set_barrier_cause(BarrierCause::Checkpoint);
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        drop(manifest);
        let _scope = BarrierScope::new(BarrierCause::Checkpoint);
        install_current_at(self.env.as_ref(), dir, CHECKPOINT_MANIFEST)
    }
}

/// Point `dir`'s CURRENT at `MANIFEST-<manifest_number>` via a temp file +
/// atomic rename (durable rename semantics are modeled by the env).
fn install_current_at(env: &dyn Env, dir: &str, manifest_number: u64) -> Result<()> {
    let tmp = format!("{}.tmp", current_file(dir));
    let mut f = env.new_writable_file(&tmp)?;
    let name = format!("MANIFEST-{manifest_number:06}\n");
    f.append(name.as_bytes())?;
    f.sync()?;
    drop(f);
    env.rename_file(&tmp, &current_file(dir))
}

#[cfg(test)]
mod tests {
    use super::super::test_util::*;
    use super::*;

    #[test]
    fn manifest_sync_counts_as_barrier() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut vs = new_set(&env);
        let before = env.stats().fsync_calls();
        let mut edit = VersionEdit::default();
        let t = vs.ids().new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        vs.log_and_apply(edit).unwrap();
        assert_eq!(env.stats().fsync_calls(), before + 1);
    }

    #[test]
    fn manifest_commits_are_traced_with_causes() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let sink = Arc::new(EventSink::new());
        env.stats().set_event_sink(Arc::clone(&sink));
        env.create_dir_all("db").unwrap();
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.set_event_sink(Arc::clone(&sink));
        vs.create_new().unwrap();
        // The open snapshot pays an OpenManifest barrier (writer default)
        // and a CurrentPointer barrier (explicit install scope).
        assert_eq!(sink.barrier_count(BarrierCause::OpenManifest), 1);
        assert_eq!(sink.barrier_count(BarrierCause::CurrentPointer), 1);
        sink.drain();

        let mut edit = VersionEdit::default();
        let t = vs.ids().new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        {
            let _scope = BarrierScope::new(BarrierCause::CompactionManifest);
            vs.log_and_apply(edit).unwrap();
        }
        assert_eq!(sink.barrier_count(BarrierCause::CompactionManifest), 1);
        let events = sink.drain();
        assert!(events.iter().any(|e| matches!(
            e.event,
            EngineEvent::ManifestCommit {
                added: 1,
                deleted: 0,
                ..
            }
        )));
    }

    #[test]
    fn recut_heals_failed_manifest_commit() {
        let (fault, env, sink, mut vs) = faulted_set();
        fault.set_plan(bolt_env::FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").unwrap());

        let cp_before = sink.barrier_count(BarrierCause::CurrentPointer);
        let mut edit = VersionEdit::default();
        let t = vs.ids().new_table_id();
        let healed = meta(t, 55, 0, 10).with_tail_bytes(301);
        edit.added_tables.push((0, 1, healed));
        vs.log_and_apply(edit)
            .expect("commit self-heals through a re-cut");
        assert_eq!(fault.faults_injected(), 1, "the EIO actually fired");
        assert_eq!(vs.manifest_recuts(), 1);

        // Barrier accounting: the snapshot sync and the re-appended edit's
        // sync are both tagged with the re-cut cause; the CURRENT swing
        // keeps its own explicit cause (counters are cumulative, hence the
        // delta for CurrentPointer, which create_new already paid once).
        assert_eq!(sink.barrier_count(BarrierCause::ManifestRecut), 2);
        assert_eq!(
            sink.barrier_count(BarrierCause::CurrentPointer),
            cp_before + 1
        );
        let events = sink.drain();
        assert!(
            events.iter().any(|e| matches!(
                e.event,
                EngineEvent::ManifestRecut {
                    snapshot_tables: 0,
                    ..
                }
            )),
            "ManifestRecut event emitted (snapshot taken before the edit applied)"
        );

        // The abandoned MANIFEST goes with the reclaim pass that follows the
        // commit, and CURRENT names the survivor.
        gc(&mut vs, &test_cache(&env));
        let names = manifest_files(&env);
        assert_eq!(names.len(), 1, "stale MANIFEST deleted: {names:?}");
        let current = env.new_random_access_file("db/CURRENT").unwrap();
        let content = current.read(0, current.len() as usize).unwrap();
        assert_eq!(
            String::from_utf8(content).unwrap().trim(),
            names[0],
            "CURRENT points at the fresh MANIFEST"
        );

        // The writer stays healthy: a later commit needs no reopen.
        let mut edit2 = VersionEdit::default();
        let t2 = vs.ids().new_table_id();
        let plain = meta(t2, 56, 0, 10).with_tail_bytes(302);
        edit2.added_tables.push((0, 2, plain));
        vs.log_and_apply(edit2).expect("subsequent commit succeeds");
        drop(vs);

        // Both commits survive a power failure — and so does what the
        // MANIFEST records of each table, on every path a record takes: the
        // re-committed edit, an ordinary one, and (second recovery) the
        // snapshot every fresh MANIFEST starts with.
        fault.crash_inner(bolt_env::CrashConfig::Clean);
        fault.reset();
        for _ in 0..2 {
            let mut vs =
                VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
            vs.recover().unwrap();
            let current = vs.current();
            let mut tails: Vec<_> = current.all_tables().map(|(_, _, m)| m.tail_bytes).collect();
            tails.sort_unstable();
            assert_eq!(tails, [301, 302]);
        }
    }

    #[test]
    fn recut_retries_once_when_recommit_sync_fails() {
        let (fault, _env, _sink, mut vs) = faulted_set();
        // Each rule keeps its own ordinal and a fired rule consumes the op:
        // the first rule kills the original commit's sync; the second then
        // sees the re-cut snapshot sync as its #0 (passes) and kills the
        // re-appended edit's sync at its #1. The bounded retry cuts a second
        // fresh MANIFEST and lands the edit there.
        fault.set_plan(
            bolt_env::FaultPlan::parse(
                "eio:sync:glob=MANIFEST-*:nth=0,eio:sync:glob=MANIFEST-*:nth=1",
            )
            .unwrap(),
        );
        let mut edit = VersionEdit::default();
        let t = vs.ids().new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        vs.log_and_apply(edit)
            .expect("second re-cut lands the edit");
        assert_eq!(fault.faults_injected(), 2);
        assert_eq!(
            vs.manifest_recuts(),
            2,
            "one re-cut per absorbed fault: the commit's and the recommit's"
        );
        assert_eq!(vs.current().num_tables(), 1);
    }

    #[test]
    fn double_fault_during_recut_poisons_until_reopen() {
        let (fault, env, _sink, mut vs) = faulted_set();
        // First acked commit, then a commit whose sync fails AND whose
        // re-cut snapshot sync fails too (consecutive global sync ordinals)
        // — the double-fault case must degrade to poisoning.
        let mut acked = VersionEdit::default();
        let t0 = vs.ids().new_table_id();
        acked.added_tables.push((0, 1, meta(t0, 55, 0, 10)));
        vs.log_and_apply(acked).unwrap();

        let s = fault.sync_count();
        fault.set_plan(bolt_env::FaultPlan::new().fail_sync(s).fail_sync(s + 1));
        let mut edit = VersionEdit::default();
        let t1 = vs.ids().new_table_id();
        edit.added_tables.push((0, 2, meta(t1, 56, 0, 10)));
        let err = vs.log_and_apply(edit).expect_err("double fault poisons");
        assert!(
            matches!(&err, Error::InvalidState(msg) if msg.contains("re-cut failed")),
            "clean InvalidState from the failed re-cut, got: {err:?}"
        );
        assert_eq!(fault.faults_injected(), 2);
        assert_eq!(vs.manifest_recuts(), 0);

        // Poisoned until reopen: later commits fail with InvalidState too.
        let mut edit2 = VersionEdit::default();
        edit2.added_tables.push((0, 3, meta(99, 57, 0, 10)));
        assert!(matches!(
            vs.log_and_apply(edit2),
            Err(Error::InvalidState(_))
        ));
        drop(vs);

        // Reopen fully recovers: the acked edit survives, the never-acked
        // edit does not resurface (its record was torn or abandoned).
        fault.crash_inner(bolt_env::CrashConfig::Clean);
        fault.reset();
        let mut vs = VersionSet::new(Arc::clone(&env), "db", InternalKeyComparator::default(), 7);
        vs.recover().unwrap();
        assert_eq!(vs.current().num_tables(), 1, "only the acked table");
        assert_eq!(vs.current().levels[0].runs[0].tag, 1);
    }

    #[test]
    fn exhausted_recut_retries_poison_until_reopen() {
        let (fault, _env, _sink, mut vs) = faulted_set();
        // Three per-rule ordinals: rule 1 kills the original commit, rule 2
        // the first re-cut's re-appended sync, rule 3 the second re-cut's —
        // every snapshot sync passes, so both bounded retries are consumed
        // by re-commit failures and the writer poisons.
        fault.set_plan(
            bolt_env::FaultPlan::parse(
                "eio:sync:glob=MANIFEST-*:nth=0,eio:sync:glob=MANIFEST-*:nth=1,\
                 eio:sync:glob=MANIFEST-*:nth=2",
            )
            .unwrap(),
        );
        let mut edit = VersionEdit::default();
        let t = vs.ids().new_table_id();
        edit.added_tables.push((0, 1, meta(t, 55, 0, 10)));
        let err = vs.log_and_apply(edit).expect_err("retries exhausted");
        assert!(
            matches!(&err, Error::InvalidState(msg) if msg.contains("kept failing")),
            "exhaustion message, got: {err:?}"
        );
        assert_eq!(fault.faults_injected(), 3);
        assert_eq!(
            vs.manifest_recuts(),
            2,
            "both completed cuts count; the third fault surfaced as the error"
        );
    }

    /// `log_and_apply` builds the version before it writes and mutates only
    /// after the record committed: a commit that fails — a bad edit, a
    /// double fault, a writer poisoned earlier — leaves the picker's cursor,
    /// the log floor and both ledgers as they were.
    #[test]
    fn a_failed_commit_leaves_the_set_as_it_was() {
        use bolt_table::ikey::{make_internal_key, ValueType};
        let (fault, env, _sink, mut vs) = faulted_set();
        let cursor = |key: &[u8]| make_internal_key(key, 1, ValueType::Value);
        vs.register_vlog_segment(5);
        vs.seal_vlog_segment(5, 4096);
        let t = vs.ids().new_table_id();
        let mut edit = VersionEdit::default();
        edit.added_tables.push((1, 0, meta(t, 55, 0, 10)));
        edit.compact_pointers.push((1, cursor(b"c")));
        edit.log_number = Some(3);
        edit.last_sequence = Some(40);
        edit.vlog_dead.push((5, 0, 100));
        let installed = vs.log_and_apply(edit).unwrap();

        // What must not move; `log_and_apply` is the only writer of each.
        let state = |vs: &VersionSet| {
            let current = vs.current();
            assert!(Arc::ptr_eq(&current, &installed));
            (
                current.compact_pointer(1).map(<[u8]>::to_vec),
                (vs.log_number, vs.last_sequence),
                vs.vlog_segments().clone(),
                vs.reclaim.referenced_files(),
                (
                    vs.reclaim.pending_punch_bytes(),
                    vs.reclaim.pending_unlink_files(),
                ),
            )
        };
        let before = state(&vs);
        assert_eq!(before.0, Some(cursor(b"c")));
        // An edit that would move every one of them.
        let moving = |vs: &VersionSet, tag: u64| {
            let mut edit = VersionEdit::default();
            let t = vs.ids().new_table_id();
            edit.added_tables.push((0, tag, meta(t, 56, 0, 10)));
            edit.compact_pointers.push((1, cursor(b"q")));
            edit.log_number = Some(9);
            edit.last_sequence = Some(99);
            edit.vlog_dead.push((5, 100, 200));
            edit.vlog_deleted.push(5);
            edit
        };

        // A version that cannot be built fails before a byte is written.
        let manifest = manifest_file("db", vs.manifest_number());
        let written = env.file_size(&manifest).unwrap();
        let mut bad = moving(&vs, 1);
        let mut clash = meta(t, 57, 0, 10); // `t`'s key range, in `t`'s run
        clash.table_id = vs.ids().new_table_id();
        bad.added_tables.push((1, 0, clash));
        assert!(matches!(vs.log_and_apply(bad), Err(Error::Corruption(_))));
        assert_eq!(env.file_size(&manifest).unwrap(), written);
        assert_eq!(state(&vs), before);

        // A double fault: the record is torn, the re-cut fails, nothing moves.
        let s = fault.sync_count();
        fault.set_plan(bolt_env::FaultPlan::new().fail_sync(s).fail_sync(s + 1));
        let edit = moving(&vs, 2);
        assert!(vs.log_and_apply(edit).is_err());
        assert_eq!(state(&vs), before);

        // The writer is poisoned now: a commit fails outright, same again.
        fault.reset();
        let edit = moving(&vs, 3);
        assert!(matches!(
            vs.log_and_apply(edit),
            Err(Error::InvalidState(_))
        ));
        assert_eq!(state(&vs), before);
    }
}
