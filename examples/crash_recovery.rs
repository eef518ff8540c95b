//! Crash-recovery torture demo: repeatedly crash a database mid-write with
//! torn tails and verify that every acknowledged-and-synced write survives
//! and the store stays internally consistent.
//!
//! This exercises the paper's §2.4 claim that the MANIFEST acts as the
//! commit mark for each compaction: no crash may ever expose a logical
//! SSTable that was not validated, or lose one that was.
//!
//! Part 2 uses [`FaultEnv`] to place a *surgical* crash between the two
//! barriers of a flush — after the compaction file is synced but before the
//! MANIFEST sync that commits it — and narrates what recovery does with the
//! orphaned file.
//!
//! Run with `cargo run --release --example crash_recovery`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bolt::{Db, Options};
use bolt_env::{CrashConfig, Env, FaultEnv, FaultPlan, MemEnv, OpKind};

fn main() -> bolt::Result<()> {
    let mem_env = Arc::new(MemEnv::new());
    let env: Arc<dyn Env> = Arc::clone(&mem_env) as Arc<dyn Env>;
    let opts = Options::bolt().scaled(1.0 / 128.0);

    // Model of what MUST be durable: everything written before the last
    // explicit flush() of each epoch.
    let mut durable: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut next_key = 0u64;

    for epoch in 0..8u64 {
        let db = Db::open(Arc::clone(&env), "crash-db", opts.clone())?;

        // Verify everything durable so far is present.
        for (key, value) in &durable {
            let got = db.get(key)?;
            assert_eq!(
                got.as_ref(),
                Some(value),
                "epoch {epoch}: durable key {:?} lost after crash",
                String::from_utf8_lossy(key)
            );
        }

        // Write a batch, flush (making it durable), then write more and
        // crash without flushing.
        for _ in 0..2_000 {
            let key = format!("key{:012}", next_key).into_bytes();
            let value = format!("epoch{epoch}-value{next_key}").into_bytes();
            db.put(&key, &value)?;
            durable.insert(key, value);
            next_key += 1;
        }
        db.flush()?;

        for i in 0..500 {
            // These may or may not survive — never recorded as durable.
            db.put(format!("volatile{epoch}-{i}").as_bytes(), b"?")?;
        }

        // Crash with a torn tail (partial unsynced bytes survive).
        drop(db);
        mem_env.crash(CrashConfig::TornTail {
            seed: epoch * 31 + 7,
        });
        println!(
            "epoch {epoch}: crashed with {} durable keys — recovery verified",
            durable.len()
        );
    }

    // Final full verification including a scan for ordering corruption.
    let db = Db::open(env, "crash-db", opts)?;
    let mut iter = db.iter()?;
    iter.seek(b"key")?;
    let mut scanned = 0u64;
    let mut prev: Option<Vec<u8>> = None;
    while iter.valid() && iter.key().starts_with(b"key") {
        if let Some(p) = &prev {
            assert!(p < &iter.key().to_vec(), "scan order corrupted");
        }
        prev = Some(iter.key().to_vec());
        scanned += 1;
        iter.next()?;
    }
    assert_eq!(scanned, durable.len() as u64);
    println!("final scan saw all {scanned} durable keys in order — OK");
    db.close()?;

    mid_compaction_crash()?;
    Ok(())
}

/// Part 2: crash exactly between a flush's compaction-file sync and the
/// MANIFEST sync that would commit it (DESIGN.md §9 ordering rule O2).
///
/// The flush's data file reaches disk, but the MANIFEST record naming it
/// never commits — so recovery must treat the file as garbage and restore
/// the writes from the WAL instead.
fn mid_compaction_crash() -> bolt::Result<()> {
    // Sync the WAL on every write: these puts are acked-durable, so they
    // must survive the crash no matter where the flush was interrupted.
    let opts = Options {
        sync_wal: true,
        ..Options::bolt().scaled(1.0 / 128.0)
    };
    let workload = |db: &Db| -> bolt::Result<()> {
        for i in 0..300u32 {
            db.put(
                format!("fault{i:04}").as_bytes(),
                format!("v{i}").as_bytes(),
            )?;
        }
        Ok(())
    };

    // Record run: trace the ops a flush performs.
    let fault = FaultEnv::over_mem();
    let db = Db::open(Arc::new(fault.clone()), "fault-db", opts.clone())?;
    workload(&db)?;
    fault.start_recording();
    db.flush()?;
    let trace = fault.stop_recording();
    db.close()?;

    // A flush costs two barriers: sync the compaction file, then sync the
    // MANIFEST that commits its logical SSTables. Crash on the second.
    let sst_sync = trace
        .iter()
        .find(|r| r.kind == OpKind::Sync && r.path.ends_with(".sst"))
        .expect("flush must sync its compaction file");
    let manifest_sync = trace
        .iter()
        .find(|r| r.kind == OpKind::Sync && r.index > sst_sync.index)
        .expect("flush must sync the MANIFEST after the compaction file");
    println!(
        "flush trace: compaction-file sync at op {} ({}), MANIFEST sync at op {} ({})",
        sst_sync.index, sst_sync.path, manifest_sync.index, manifest_sync.path
    );

    // Replay run: same workload, crash scheduled at the MANIFEST sync.
    let fault = FaultEnv::over_mem();
    let env: Arc<dyn Env> = Arc::new(fault.clone());
    let db = Db::open(Arc::clone(&env), "fault-db", opts.clone())?;
    workload(&db)?;
    fault.set_plan(FaultPlan::new().crash_at_op(manifest_sync.index));
    let flush_result = db.flush();
    println!(
        "flush with crash between the two barriers: {}",
        match &flush_result {
            Ok(()) => "Ok (crash landed elsewhere)".to_string(),
            Err(e) => format!("failed as expected: {e}"),
        }
    );
    drop(db);
    fault.crash_inner(CrashConfig::Clean);
    fault.reset();

    // Recovery: the orphaned compaction file must not be exposed, and the
    // writes must come back from the WAL.
    let db = Db::open(Arc::clone(&env), "fault-db", opts)?;
    for i in 0..300u32 {
        assert_eq!(
            db.get(format!("fault{i:04}").as_bytes())?,
            Some(format!("v{i}").into_bytes()),
            "write lost across mid-compaction crash"
        );
    }
    println!(
        "recovered: all 300 writes restored from the WAL. The crash cut the \
         MANIFEST sync, so the record naming {} never committed — recovery \
         ignored the orphaned flush output and rebuilt the table from the \
         WAL instead.",
        sst_sync.path
    );
    db.close()?;
    Ok(())
}
