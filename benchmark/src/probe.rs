//! Layer probes: public functions of single layers, timed directly on
//! `MemEnv` with fixed inputs. Each number is the median of
//! [`BATCHES`] batches, in nanoseconds per call unless the name says
//! otherwise. They say what a layer costs in isolation; the traced run says
//! how often a workload pays it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bolt::bolt_common::bloom::BloomFilterPolicy;
use bolt::bolt_common::cache::LruCache;
use bolt::bolt_common::crc32c;
use bolt::bolt_core::iterator::{InternalIterator, MergingIter};
use bolt::bolt_core::memtable::MemTable;
use bolt::bolt_env::RandomAccessFile;
use bolt::bolt_table::ikey::{lookup_key, make_internal_key, ValueType, MAX_SEQUENCE_NUMBER};
use bolt::bolt_table::{
    BlockCache, FilterKey, InternalKeyComparator, Table, TableBuilder, TableReadOptions,
};
use bolt::bolt_wal::LogWriter;
use bolt::{Env, MemEnv};

use crate::config;
use crate::gen::{key_of, value_of};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::{EnvOp, Recorder, TracingEnv};

const BATCHES: usize = 5;
/// Entries of the probe table (~36 data blocks of 4 KiB).
const TABLE_ENTRIES: u64 = 2_000;
/// Entries that fill one 64 KiB memtable.
const MEMTABLE_ENTRIES: u64 = 200;
const PROBE_SEED: u64 = 1;

/// Median over [`BATCHES`] batches of `batch()`'s nanoseconds per call,
/// where one batch makes `calls` calls.
fn ns_per_call(calls: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Sorted `(user key, value)` pairs for ranks `0..n`.
fn sorted_records(n: u64) -> Vec<([u8; 20], [u8; 256])> {
    let mut keys: Vec<_> = (0..n).map(|rank| key_of(PROBE_SEED, rank)).collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| (k, value_of(&k, 0))).collect()
}

fn filled_memtable(records: &[([u8; 20], [u8; 256])]) -> Arc<MemTable> {
    let table = Arc::new(MemTable::new());
    for (seq, (key, value)) in records.iter().enumerate() {
        table.add(seq as u64 + 1, ValueType::Value, key, value);
    }
    table
}

fn read_options(block_cache: Option<Arc<BlockCache>>) -> TableReadOptions {
    TableReadOptions {
        comparator: Arc::new(InternalKeyComparator::default()),
        filter_policy: config::engine_options().filter_policy,
        filter_key: FilterKey::UserKey,
        block_cache,
    }
}

fn build_table(env: &dyn Env, path: &str, records: &[([u8; 20], [u8; 256])]) -> bolt::Result<u64> {
    let mut file = env.new_writable_file(path)?;
    let mut builder = TableBuilder::new(file.as_mut(), config::engine_options().table_format);
    for (seq, (key, value)) in records.iter().enumerate() {
        let internal = make_internal_key(key, seq as u64 + 1, ValueType::Value);
        builder.add(&internal, value)?;
    }
    Ok(builder.finish()?.size)
}

/// Run every probe. The second value is the number of env reads one
/// `Table::open` makes, which the traced run needs to tell block misses
/// from table opens.
pub fn run() -> bolt::Result<(Vec<Metric>, f64)> {
    let mut out = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, value: f64| {
        out.push(Metric::new(name, unit, value));
    };
    let records = sorted_records(TABLE_ENTRIES);
    let absent: Vec<_> = (TABLE_ENTRIES..TABLE_ENTRIES + 10_000)
        .map(|rank| key_of(PROBE_SEED, rank))
        .collect();

    // wal
    {
        let env = MemEnv::new();
        let mut writer = LogWriter::new(env.new_writable_file("probe.log")?);
        let payload = [0x5au8; 300];
        let mut failed = false;
        let ns = ns_per_call(20_000, || {
            for _ in 0..20_000 {
                failed |= writer.add_record(black_box(&payload)).is_err();
            }
        });
        if failed {
            return Err(bolt::Error::corruption("probe: WAL append failed"));
        }
        push("wal.add_record_ns", "ns", ns);
    }

    // core.memtable
    {
        let small = &records[..MEMTABLE_ENTRIES as usize];
        let tables_per_batch = 50;
        push(
            "core.memtable.add_ns",
            "ns",
            ns_per_call(tables_per_batch * MEMTABLE_ENTRIES, || {
                for _ in 0..tables_per_batch {
                    black_box(filled_memtable(small));
                }
            }),
        );
        let table = filled_memtable(small);
        push(
            "core.memtable.get_hit_ns",
            "ns",
            ns_per_call(100 * MEMTABLE_ENTRIES, || {
                for _ in 0..100 {
                    for (key, _) in small {
                        black_box(table.get(key, MAX_SEQUENCE_NUMBER));
                    }
                }
            }),
        );
        push(
            "core.memtable.get_miss_ns",
            "ns",
            ns_per_call(absent.len() as u64, || {
                for key in &absent {
                    black_box(table.get(key, MAX_SEQUENCE_NUMBER));
                }
            }),
        );
    }

    // table
    let reads_per_open;
    {
        let env = MemEnv::new();
        let mut built = 0u32;
        let mut size = 0;
        let mut failed = false;
        let ns = ns_per_call(5 * TABLE_ENTRIES, || {
            for _ in 0..5 {
                built += 1;
                match build_table(&env, &format!("probe-{built}.sst"), &records) {
                    Ok(bytes) => size = bytes,
                    Err(_) => failed = true,
                }
            }
        });
        if failed {
            return Err(bolt::Error::corruption("probe: table build failed"));
        }
        push("table.build_ns_per_entry", "ns", ns);

        // Reads are counted through the tracing wrapper.
        let recorder = Arc::new(Recorder::default());
        let traced = TracingEnv::new(Arc::new(env), Arc::clone(&recorder));
        let file: Arc<dyn RandomAccessFile> = traced.new_random_access_file("probe-1.sst")?;
        let reads = |rec: &Recorder| rec.env_totals().sum(EnvOp::Read, None, None).count;

        let mut failed = false;
        let opens = 200;
        let ns = ns_per_call(opens, || {
            for _ in 0..opens {
                failed |= Table::open(Arc::clone(&file), 0, size, 1, read_options(None)).is_err();
            }
        });
        reads_per_open = reads(&recorder) as f64 / (opens * BATCHES as u64) as f64;
        push("table.open_ns", "ns", ns);

        let cache: Arc<BlockCache> = Arc::new(LruCache::new(8 << 20));
        let cached = Table::open(Arc::clone(&file), 0, size, 1, read_options(Some(cache)))?;
        let uncached = Arc::new(Table::open(
            Arc::clone(&file),
            0,
            size,
            1,
            read_options(None),
        )?);
        let lookups: Vec<_> = records
            .iter()
            .map(|(key, _)| lookup_key(key, MAX_SEQUENCE_NUMBER))
            .collect();
        for (table, name) in [
            (&cached, "table.get_cached_ns"),
            (uncached.as_ref(), "table.get_uncached_ns"),
        ] {
            let ns = ns_per_call(10 * TABLE_ENTRIES, || {
                for _ in 0..10 {
                    for lookup in &lookups {
                        failed |= !matches!(table.internal_get(lookup), Ok(Some(_)));
                    }
                }
            });
            push(name, "ns", ns);
        }

        let cached = Arc::new(cached);
        let ns = ns_per_call(10 * TABLE_ENTRIES, || {
            for _ in 0..10 {
                let mut iter = cached.iter();
                failed |= iter.seek_to_first().is_err();
                let mut rows = 0;
                while iter.valid() {
                    rows += 1;
                    failed |= iter.next().is_err();
                }
                failed |= rows != TABLE_ENTRIES;
            }
        });
        push("table.iter_next_ns", "ns", ns);

        // A get for an absent key reads a block only when the filter lets
        // it through.
        let before = reads(&recorder);
        for key in &absent {
            failed |= uncached
                .internal_get(&lookup_key(key, MAX_SEQUENCE_NUMBER))
                .is_err();
        }
        let false_positives = reads(&recorder) - before;
        push(
            "table.bloom_fp_frac",
            "ratio",
            false_positives as f64 / absent.len() as f64,
        );
        if failed {
            return Err(bolt::Error::corruption("probe: table read failed"));
        }
    }

    // common
    {
        let cache: LruCache<u64, [u8; 64]> = LruCache::new(1_000);
        for key in 0..1_000u64 {
            cache.insert(key, Arc::new([0; 64]), 1);
        }
        push(
            "common.cache.lookup_ns",
            "ns",
            ns_per_call(100_000, || {
                for i in 0..100_000u64 {
                    black_box(cache.get(&(i * 7 % 1_000)));
                }
            }),
        );
        let mut next = 1_000u64;
        push(
            "common.cache.insert_ns",
            "ns",
            ns_per_call(100_000, || {
                for _ in 0..100_000 {
                    next += 1;
                    cache.insert(next, Arc::new([0; 64]), 1);
                }
            }),
        );

        let policy = config::engine_options()
            .filter_policy
            .unwrap_or_else(|| BloomFilterPolicy::new(10));
        let keys: Vec<&[u8]> = records.iter().map(|(k, _)| k.as_slice()).collect();
        let mut filter = Vec::new();
        policy.create_filter(&keys, &mut filter);
        push(
            "common.bloom.may_match_ns",
            "ns",
            ns_per_call(10 * absent.len() as u64, || {
                for _ in 0..10 {
                    for key in &absent {
                        black_box(policy.key_may_match(key, &filter));
                    }
                }
            }),
        );

        let data = vec![0xabu8; 64 << 10];
        push(
            "common.crc32c.ns_per_kib",
            "ns",
            ns_per_call(200 * 64, || {
                for _ in 0..200 {
                    black_box(crc32c::crc32c(black_box(&data)));
                }
            }),
        );
    }

    // core.iterator: a merge over k memtables holding every k-th key.
    for (k, name) in [
        (2usize, "core.iterator.merge_next_ns.k2"),
        (8, "core.iterator.merge_next_ns.k8"),
    ] {
        let tables: Vec<Arc<MemTable>> = (0..k)
            .map(|child| {
                let part: Vec<_> = records.iter().skip(child).step_by(k).copied().collect();
                filled_memtable(&part)
            })
            .collect();
        let mut failed = false;
        let ns = ns_per_call(5 * TABLE_ENTRIES, || {
            for _ in 0..5 {
                let children: Vec<Box<dyn InternalIterator>> = tables
                    .iter()
                    .map(|t| Box::new(t.iter()) as Box<dyn InternalIterator>)
                    .collect();
                let mut merge = MergingIter::new(InternalKeyComparator::default(), children);
                failed |= merge.seek_to_first().is_err();
                let mut rows = 0;
                while merge.valid() {
                    rows += 1;
                    failed |= merge.next().is_err();
                }
                failed |= rows != TABLE_ENTRIES;
            }
        });
        if failed {
            return Err(bolt::Error::corruption("probe: merge lost rows"));
        }
        push(name, "ns", ns);
    }

    Ok((out, reads_per_open))
}
