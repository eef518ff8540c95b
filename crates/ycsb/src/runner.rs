//! Multi-threaded YCSB client driver.
//!
//! The paper uses "four client threads for all experiments" (§4.1); the
//! runner defaults to the same. Latencies are recorded per operation kind
//! into lock-free histograms so tail-latency CDFs (Figs 4, 14, 16) come out
//! of the same run that measures throughput.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt_common::histogram::Histogram;
use bolt_common::rng::Rng64;
use bolt_common::Result;
use bolt_core::Db;

use crate::workload::{key_name, value_payload, OpKind, Workload};

/// The key-value surface the client drives. [`Db`] implements it
/// directly; layered engines (e.g. `bolt-sharded`'s `ShardedDb`)
/// implement it so the same workloads compare single-engine and sharded
/// configurations in one run.
pub trait KvTarget: Send + Sync {
    /// Insert or overwrite `key`.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Read up to `limit` entries in key order starting at `start`,
    /// returning how many were read.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    fn scan(&self, start: &[u8], limit: usize) -> Result<usize>;

    /// Persist the current memtable(s), so post-phase measurements (write
    /// amplification in particular) account for every accepted write.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    fn flush(&self) -> Result<()>;

    /// One merged observability snapshot (for sharded engines, the
    /// aggregate across shards).
    fn metrics(&self) -> bolt_core::MetricsSnapshot;
}

impl KvTarget for Db {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        Db::put(self, key, value)
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Db::get(self, key)
    }

    fn scan(&self, start: &[u8], limit: usize) -> Result<usize> {
        let mut iter = self.iter()?;
        iter.seek(start)?;
        let mut taken = 0;
        while iter.valid() && taken < limit {
            let _ = iter.value();
            taken += 1;
            iter.next()?;
        }
        Ok(taken)
    }

    fn flush(&self) -> Result<()> {
        Db::flush(self)
    }

    fn metrics(&self) -> bolt_core::MetricsSnapshot {
        Db::metrics(self)
    }
}

/// Sizing and concurrency parameters of one benchmark phase.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Records loaded before (and addressable by) the workload.
    pub record_count: u64,
    /// Operations to execute (split across threads).
    pub op_count: u64,
    /// Client threads (the paper: 4).
    pub threads: usize,
    /// Value payload size in bytes (the paper: 1 KB or 100 B).
    pub value_len: usize,
    /// RNG seed (phases derive per-thread seeds from it).
    pub seed: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            record_count: 10_000,
            op_count: 10_000,
            threads: 4,
            value_len: 1024,
            seed: 0x5eed,
        }
    }
}

/// Results of one phase.
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Latencies across all operations (nanoseconds).
    pub overall: Arc<Histogram>,
    /// Latencies by operation kind.
    pub per_op: HashMap<OpKind, Arc<Histogram>>,
    /// Reads that found no value.
    pub not_found: u64,
}

impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunResult")
            .field("workload", &self.workload)
            .field("ops", &self.ops)
            .field("throughput", &self.throughput())
            .finish()
    }
}

impl RunResult {
    /// Operations per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Latency percentile (nanoseconds) across all operations.
    pub fn percentile(&self, p: f64) -> u64 {
        self.overall.percentile(p)
    }
}

fn new_histograms() -> HashMap<OpKind, Arc<Histogram>> {
    [
        OpKind::Read,
        OpKind::Update,
        OpKind::Insert,
        OpKind::Scan,
        OpKind::ReadModifyWrite,
    ]
    .into_iter()
    .map(|k| (k, Arc::new(Histogram::new())))
    .collect()
}

/// Load `cfg.record_count` records (YCSB Load A / Load E).
///
/// # Errors
///
/// Propagates database errors.
pub fn load_db<T: KvTarget>(db: &Arc<T>, cfg: &BenchConfig) -> Result<RunResult> {
    let overall = Arc::new(Histogram::new());
    let per_op = new_histograms();
    let insert_hist = Arc::clone(&per_op[&OpKind::Insert]);
    let start = Instant::now();
    let threads = cfg.threads.max(1);
    let chunk = cfg.record_count.div_ceil(threads as u64);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = Arc::clone(db);
            let overall = Arc::clone(&overall);
            let insert_hist = Arc::clone(&insert_hist);
            let lo = t as u64 * chunk;
            let hi = ((t as u64 + 1) * chunk).min(cfg.record_count);
            let value_len = cfg.value_len;
            handles.push(scope.spawn(move || -> Result<()> {
                for num in lo..hi {
                    let key = key_name(num);
                    let value = value_payload(num, value_len);
                    let t0 = Instant::now();
                    db.put(&key, &value)?;
                    let nanos = t0.elapsed().as_nanos() as u64;
                    overall.record(nanos);
                    insert_hist.record(nanos);
                }
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().expect("loader thread panicked")?;
        }
        Ok::<(), bolt_common::Error>(())
    })?;
    Ok(RunResult {
        workload: "Load".to_string(),
        ops: cfg.record_count,
        elapsed: start.elapsed(),
        overall,
        per_op,
        not_found: 0,
    })
}

/// Run a workload phase. `insert_cursor` carries the number of records
/// that exist (initialize to `record_count` after loading; shared across
/// phases so workloads D/E keep inserting past it).
///
/// # Errors
///
/// Propagates database errors.
pub fn run_workload<T: KvTarget>(
    db: &Arc<T>,
    workload: &Workload,
    cfg: &BenchConfig,
    insert_cursor: &Arc<AtomicU64>,
) -> Result<RunResult> {
    let overall = Arc::new(Histogram::new());
    let per_op = new_histograms();
    let not_found = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let threads = cfg.threads.max(1);
    let ops_per_thread = cfg.op_count.div_ceil(threads as u64);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = Arc::clone(db);
            let overall = Arc::clone(&overall);
            let per_op = per_op.clone();
            let not_found = Arc::clone(&not_found);
            let cursor = Arc::clone(insert_cursor);
            let workload = workload.clone();
            let value_len = cfg.value_len;
            let seed = cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9);
            let records = cfg.record_count;
            handles.push(scope.spawn(move || -> Result<()> {
                let mut rng = Rng64::new(seed);
                let mut chooser = workload.distribution.chooser(records);
                for _ in 0..ops_per_thread {
                    let op = workload.pick_op(rng.next_f64());
                    let items = cursor.load(Ordering::Relaxed);
                    let t0 = Instant::now();
                    match op {
                        OpKind::Read => {
                            let key = key_name(chooser.next(&mut rng, items));
                            if db.get(&key)?.is_none() {
                                not_found.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        OpKind::Update => {
                            let num = chooser.next(&mut rng, items);
                            db.put(&key_name(num), &value_payload(num, value_len))?;
                        }
                        OpKind::Insert => {
                            let num = cursor.fetch_add(1, Ordering::Relaxed);
                            db.put(&key_name(num), &value_payload(num, value_len))?;
                        }
                        OpKind::Scan => {
                            let num = chooser.next(&mut rng, items);
                            let len = 1 + rng.next_below(workload.max_scan_len.max(1));
                            db.scan(&key_name(num), len as usize)?;
                        }
                        OpKind::ReadModifyWrite => {
                            let num = chooser.next(&mut rng, items);
                            let key = key_name(num);
                            if db.get(&key)?.is_none() {
                                not_found.fetch_add(1, Ordering::Relaxed);
                            }
                            db.put(&key, &value_payload(num, value_len))?;
                        }
                    }
                    let nanos = t0.elapsed().as_nanos() as u64;
                    overall.record(nanos);
                    per_op[&op].record(nanos);
                }
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().expect("client thread panicked")?;
        }
        Ok::<(), bolt_common::Error>(())
    })?;

    Ok(RunResult {
        workload: workload.name.to_string(),
        ops: ops_per_thread * threads as u64,
        elapsed: start.elapsed(),
        overall,
        per_op,
        not_found: not_found.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_core::Options;
    use bolt_env::{Env, MemEnv};

    fn small_db() -> Arc<Db> {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let opts = Options {
            block_cache_bytes: 1 << 20,
            ..Options::bolt().scaled(1.0 / 64.0)
        };
        Arc::new(Db::open(env, "ycsb-db", opts).unwrap())
    }

    fn cfg() -> BenchConfig {
        BenchConfig {
            record_count: 2_000,
            op_count: 2_000,
            threads: 4,
            value_len: 100,
            seed: 77,
        }
    }

    #[test]
    fn load_inserts_every_record() {
        let db = small_db();
        let cfg = cfg();
        let result = load_db(&db, &cfg).unwrap();
        assert_eq!(result.ops, cfg.record_count);
        assert_eq!(result.overall.count(), cfg.record_count);
        assert!(result.throughput() > 0.0);
        // Spot-check records.
        for num in [0u64, 1, 999, 1999] {
            assert_eq!(
                db.get(&key_name(num)).unwrap(),
                Some(value_payload(num, cfg.value_len)),
                "record {num}"
            );
        }
        db.close().unwrap();
    }

    #[test]
    fn workload_a_mixes_reads_and_updates() {
        let db = small_db();
        let cfg = cfg();
        load_db(&db, &cfg).unwrap();
        let cursor = Arc::new(AtomicU64::new(cfg.record_count));
        let result = run_workload(&db, &Workload::a(), &cfg, &cursor).unwrap();
        assert!(result.ops >= cfg.op_count);
        let reads = result.per_op[&OpKind::Read].count();
        let updates = result.per_op[&OpKind::Update].count();
        assert!(reads > 0 && updates > 0);
        let ratio = reads as f64 / (reads + updates) as f64;
        assert!((0.4..0.6).contains(&ratio), "read ratio {ratio}");
        assert_eq!(result.not_found, 0, "all chosen keys exist");
        db.close().unwrap();
    }

    #[test]
    fn workload_d_inserts_and_reads_latest() {
        let db = small_db();
        let cfg = cfg();
        load_db(&db, &cfg).unwrap();
        let cursor = Arc::new(AtomicU64::new(cfg.record_count));
        let result = run_workload(&db, &Workload::d(), &cfg, &cursor).unwrap();
        assert!(cursor.load(Ordering::Relaxed) > cfg.record_count);
        assert!(result.per_op[&OpKind::Insert].count() > 0);
        // Latest reads may race inserts across threads; the vast majority
        // must be found.
        assert!(
            result.not_found < result.per_op[&OpKind::Read].count() / 10,
            "not_found = {}",
            result.not_found
        );
        db.close().unwrap();
    }

    #[test]
    fn workload_e_scans() {
        let db = small_db();
        let cfg = BenchConfig {
            op_count: 500,
            ..cfg()
        };
        load_db(&db, &cfg).unwrap();
        let cursor = Arc::new(AtomicU64::new(cfg.record_count));
        let result = run_workload(&db, &Workload::e(), &cfg, &cursor).unwrap();
        assert!(result.per_op[&OpKind::Scan].count() > 0);
        db.close().unwrap();
    }

    #[test]
    fn workload_f_read_modify_write() {
        let db = small_db();
        let cfg = BenchConfig {
            op_count: 500,
            ..cfg()
        };
        load_db(&db, &cfg).unwrap();
        let cursor = Arc::new(AtomicU64::new(cfg.record_count));
        let result = run_workload(&db, &Workload::f(), &cfg, &cursor).unwrap();
        assert!(result.per_op[&OpKind::ReadModifyWrite].count() > 0);
        assert_eq!(result.not_found, 0);
        db.close().unwrap();
    }
}
