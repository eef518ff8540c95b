//! Criterion microbenchmarks of what the benchmark's per-layer probes
//! (`benchmark/src/probe.rs`: CRC32C, bloom, memtable, block, table, WAL)
//! do not time: the zipfian generator, a run's tables drained span by span
//! vs block by block, a table open with and without its recorded tail
//! length, iterator creation over a small and a large tree, one compaction
//! pick out of a small and a large level (a settled group, and a
//! lazy-leveled settle), one merge step at 2, 3 and 8 children, a
//! cache-resident `get` from one thread and from two, and the group-commit
//! pipeline.
//!
//! Run: `cargo bench -p bolt-bench --bench micro_components`

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use bolt_common::bloom::BloomFilterPolicy;
use bolt_common::rng::Rng64;
use bolt_env::{Env, MemEnv};
use bolt_ycsb::generator::{KeyChooser, ScrambledZipfian};

fn bench_zipfian(c: &mut Criterion) {
    let mut group = c.benchmark_group("ycsb");
    group.bench_function("scrambled_zipfian", |b| {
        let mut gen = ScrambledZipfian::new(1_000_000);
        let mut rng = Rng64::new(3);
        b.iter(|| gen.next(&mut rng, 1_000_000))
    });
    group.finish();
}

/// Entries of one 16 KiB logical table (x 276 B).
const ENTRIES: u64 = 56;

/// `tables` logical tables of [`ENTRIES`] entries back to back in
/// `000001.sst` of a fresh `MemEnv`, their specs, and options to read them.
fn logical_tables(
    tables: u64,
) -> (
    Arc<dyn Env>,
    Vec<bolt_table::TableSpec>,
    bolt_table::TableReadOptions,
) {
    use bolt_table::builder::{FilterKey, TableBuilder, TableFormat};
    use bolt_table::ikey::{make_internal_key, ValueType};
    use bolt_table::{InternalKeyComparator, TableReadOptions, TableSpec};

    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
    let mut file = env.new_writable_file("000001.sst").unwrap();
    let mut specs = Vec::new();
    for t in 0..tables {
        let mut builder = TableBuilder::new(file.as_mut(), TableFormat::default());
        for i in 0..ENTRIES {
            let key =
                make_internal_key(format!("user{t:04}{i:012}").as_bytes(), 7, ValueType::Value);
            builder.add(&key, &[b'v'; 256]).unwrap();
        }
        let built = builder.finish().unwrap();
        specs.push(TableSpec {
            table_id: t + 1,
            file_number: 1,
            path: "000001.sst".to_string(),
            offset: built.offset,
            size: built.size,
            tail_bytes: built.tail_bytes,
        });
    }
    file.sync().unwrap();
    drop(file);
    let opts = TableReadOptions {
        comparator: Arc::new(InternalKeyComparator::default()),
        filter_policy: Some(BloomFilterPolicy::default()),
        filter_key: FilterKey::UserKey,
        block_cache: None,
    };
    (env, specs, opts)
}

/// The CPU side of compaction's input path, ns per entry: 16 logical tables
/// back to back in one file, drained through `SeqReader` (one span read,
/// then copies out of its buffer) and block by block through `Table::open`
/// on the file itself. `MemEnv` charges no device time, so this shows only
/// what the span adapter costs the decoder — it must not be slower.
fn bench_seq_vs_block(c: &mut Criterion) {
    use bolt_table::{ReadPlan, Table, TableCache, TableSpec};

    const TABLES: u64 = 16;
    let (env, specs, opts) = logical_tables(TABLES);
    let cache = Arc::new(TableCache::new(
        Arc::clone(&env),
        1000,
        Some(8),
        opts.clone(),
    ));
    let raw = env.new_random_access_file("000001.sst").unwrap();
    let drain = |table: Arc<Table>| {
        let mut iter = table.iter();
        iter.seek_to_first().unwrap();
        let mut bytes = 0;
        while iter.valid() {
            bytes += iter.key().len() + iter.value().len();
            iter.next().unwrap();
        }
        bytes
    };
    // One criterion iteration = one entry: whole passes over the run,
    // their time divided by the entries they yielded.
    let per_entry = |b: &mut criterion::Bencher, pass: &dyn Fn() -> usize| {
        b.iter_custom(|iters| {
            let passes = iters.div_ceil(TABLES * ENTRIES).max(1);
            let start = std::time::Instant::now();
            for _ in 0..passes {
                black_box(pass());
            }
            let yielded = (passes * TABLES * ENTRIES) as f64;
            start.elapsed().mul_f64(iters as f64 / yielded)
        });
    };

    let mut group = c.benchmark_group("table/seq_vs_block");
    group.bench_function("span", |b| {
        per_entry(b, &|| {
            let plan = ReadPlan::new(Arc::clone(&cache), vec![specs.clone()], |_, _| {
                std::cmp::Ordering::Equal
            });
            let mut reader = plan.reader(0);
            (0..specs.len())
                .map(|i| drain(reader.open(i).unwrap()))
                .sum()
        })
    });
    group.bench_function("block", |b| {
        per_entry(b, &|| {
            let open = |s: &TableSpec| {
                Table::open(Arc::clone(&raw), s.offset, s.size, 1, opts.clone()).unwrap()
            };
            specs.iter().map(|s| drain(Arc::new(open(s)))).sum()
        })
    });
    group.finish();
}

/// One table-cache miss on a 16 KiB logical table: `Table::open_with_tail`
/// given the tail length its builder recorded (what the MANIFEST supplies)
/// and given none (a table recorded before the length was kept). `MemEnv`
/// charges no device time; the device reads each open issues are printed,
/// and the bench fails unless they are exactly one and two.
fn bench_table_open(c: &mut Criterion) {
    use bolt_table::Table;

    let (env, specs, opts) = logical_tables(1);
    let spec = &specs[0];
    let raw = env.new_random_access_file(&spec.path).unwrap();

    let mut group = c.benchmark_group("table/open");
    let mut reads_per_open = Vec::new();
    for (id, tail_bytes) in [("hinted", spec.tail_bytes), ("unhinted", 0)] {
        let (mut opens, mut reads) = (0u64, 0u64);
        group.bench_function(id, |b| {
            b.iter_custom(|iters| {
                let before = env.stats().snapshot().read_ops;
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    let (file, opts) = (Arc::clone(&raw), opts.clone());
                    let table = Table::open_with_tail(file, 0, spec.size, tail_bytes, 1, opts);
                    black_box(table.unwrap());
                }
                let elapsed = start.elapsed();
                opens += iters;
                reads += env.stats().snapshot().read_ops - before;
                elapsed
            })
        });
        println!(
            "table/open/{id}: {:.2} read_ops/open",
            reads as f64 / opens as f64
        );
        reads_per_open.push(reads as f64 / opens as f64);
    }
    group.finish();
    // A count, not a timing: it holds in `--test` smoke runs too.
    assert_eq!(reads_per_open, [1.0, 2.0], "device reads per open");
}

/// `Db::iter()` + drop over a tree of 64 tables and one of 2,048: a run is
/// taken by its shared list, so the two must cost the same (a copy of the
/// lists makes the large tree ~30x the small one). Outside `--test` the
/// bench fails if the large tree costs more than twice the small one.
fn bench_iterator_create(c: &mut Criterion) {
    use bolt_core::options::CompactionStyle;
    use bolt_core::{Db, Options};

    let mut group = c.benchmark_group("iterator/create");
    let mut ns_per_iter = Vec::new();
    for tables in [64usize, 2048] {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        // 1 KiB logical tables of five 200-byte records, pushed down into
        // one run: both trees have the same shape but for the table count.
        let mut opts = Options::bolt().scaled(1.0 / 64.0);
        if let CompactionStyle::Bolt(b) = &mut opts.compaction_style {
            b.logical_sstable_bytes = 1 << 10;
        }
        let db = Db::open(env, "bench-db", opts).unwrap();
        for i in 0..tables * 5 {
            db.put(format!("user{i:016}").as_bytes(), &[b'v'; 170])
                .unwrap();
        }
        db.compact_range(b"", b"~").unwrap();
        let shape: Vec<_> = db.level_info().iter().map(|l| (l.runs, l.tables)).collect();
        let deepest = shape.last().expect("levels");
        assert!(
            deepest.0 == 1 && (tables..tables * 5 / 4).contains(&deepest.1),
            "{shape:?}"
        );
        let mut ns = 0.0;
        group.bench_function(format!("{tables}_tables"), |b| {
            b.iter_custom(|iters| {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    black_box(db.iter().unwrap());
                }
                ns = start.elapsed().as_nanos() as f64 / iters as f64;
                start.elapsed()
            })
        });
        ns_per_iter.push(ns);
        db.close().unwrap();
    }
    group.finish();
    let smoke = std::env::args().any(|a| a == "--test");
    assert!(
        smoke || ns_per_iter[1] <= 2.0 * ns_per_iter[0],
        "iterator creation grows with the tree: {ns_per_iter:?} ns"
    );
}

/// One pick out of a tree of 64 and of 2,048 tables that `tree` builds
/// (options, and `(level, run tag, first key, last key)` per 16 KiB table):
/// pure metadata, no I/O. The compaction thread picks with `core.state`
/// held — the mutex every commit takes — so a pick that compares every
/// table with every other (the 2,048 rung cost a thousand times the 64 one)
/// shuts writers out for milliseconds. Outside `--test` the bench fails if
/// the cost grows faster than n log n. `check` says the task is the one the
/// group is about.
fn bench_picks(
    c: &mut Criterion,
    group: &str,
    single_run_from: usize,
    tree: impl Fn(u64) -> (bolt_core::Options, Vec<(u32, u64, u64, u64)>),
    check: impl Fn(&bolt_core::compaction::CompactionTask),
) {
    use bolt_core::compaction::pick_compaction;
    use bolt_core::version::{TableMeta, Version, VersionBuilder, VersionEdit};
    use bolt_table::ikey::{make_internal_key, ValueType};
    use bolt_table::InternalKeyComparator;

    let key =
        |k: u64, seq| make_internal_key(format!("user{k:016}").as_bytes(), seq, ValueType::Value);
    let mut group = c.benchmark_group(group);
    let mut ns_per_pick = Vec::new();
    for tables in [64u64, 2048] {
        let (opts, layout) = tree(tables);
        let mut edit = VersionEdit::default();
        for (id, (level, tag, first, last)) in (1..).zip(layout) {
            let meta = TableMeta::new(id, id, 0, 16 << 10, 50, key(first, 100), key(last, 1));
            edit.added_tables.push((level, tag, meta));
        }
        let icmp = InternalKeyComparator::default();
        let mut builder = VersionBuilder::new(icmp.clone(), Arc::new(Version::empty(7)));
        builder.set_single_run_from(single_run_from);
        builder.apply(&edit);
        let version = builder.build().unwrap();
        check(&pick_compaction(&opts, &icmp, &version, None).unwrap());
        let mut ns = 0.0;
        group.bench_function(format!("{tables}_tables"), |b| {
            b.iter_custom(|iters| {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    black_box(pick_compaction(&opts, &icmp, &version, None));
                }
                ns = start.elapsed().as_nanos() as f64 / iters as f64;
                start.elapsed()
            })
        });
        ns_per_pick.push(ns);
    }
    group.finish();
    let smoke = std::env::args().any(|a| a == "--test");
    assert!(
        smoke || ns_per_pick[1] <= 64.0 * ns_per_pick[0],
        "a pick grows faster than n log n: {ns_per_pick:?} ns"
    );
}

/// Settled group compaction: a single sorted run at twice its target, each
/// table over six and a quarter tables of the level below (neighbours share
/// one); the group cap (1 MiB) is 64 tables.
fn bench_pick_single_run(c: &mut Criterion) {
    let tree = |tables: u64| {
        let mut opts = bolt_core::Options::bolt().scaled(1.0 / 64.0);
        opts.level1_max_bytes = tables * (16 << 10) / 2;
        let level1 = (0..tables).map(|i| (1, 0, i * 100, i * 100 + 99));
        let level2 = (0..tables * 100 / 16).map(|j| (2, 0, j * 16, j * 16 + 15));
        (opts, level1.chain(level2).collect())
    };
    bench_picks(c, "compaction/pick_single_run", 1, tree, |task| {
        assert_eq!(task.level, 1);
        assert!((48..=64).contains(&task.victims().count()) && !task.next_inputs.is_empty());
    });
}

/// Lazy-leveled's last tiered level into the single run below: four stacked
/// runs, every other table overlapping its successor in key order, and a
/// table below under every eighth slot — so some victims settle and some
/// merge. Which may settle is decided for the whole level at once.
fn bench_settle_into_single_run(c: &mut Criterion) {
    let tree = |tables: u64| {
        let opts = bolt_core::Options {
            compaction_policy: bolt_core::CompactionPolicyKind::LazyLeveled,
            ..bolt_core::Options::bolt().scaled(1.0 / 64.0)
        };
        let level5 = (0..tables).map(|slot| {
            let (run, k) = (slot % 4, slot / 4);
            let reach = if k % 2 == 1 { 150 } else { 99 };
            (5, run + 1, slot * 100, slot * 100 + reach)
        });
        let level6 = (0..tables / 8).map(|j| (6, 0, j * 800 + 20, j * 800 + 50));
        (opts, level5.chain(level6).collect())
    };
    bench_picks(c, "compaction/settle_into_single_run", 6, tree, |task| {
        assert_eq!(
            (task.level, task.output_level, task.input_runs.len()),
            (5, 6, 4)
        );
        assert!(!task.settled_moves.is_empty() && !task.next_inputs.is_empty());
    });
}

/// One `MergingIter::next` over k memtables holding every k-th key: the
/// tournament's k = 8 must stay near k = 2, and k = 2 and 3 — where scans
/// and gets live — must not pay for it.
fn bench_merge_next(c: &mut Criterion) {
    use bolt_core::iterator::{InternalIterator, MergingIter};
    use bolt_core::memtable::MemTable;
    use bolt_table::ikey::ValueType;
    use bolt_table::InternalKeyComparator;

    const ENTRIES: u64 = 4096;
    let mut group = c.benchmark_group("merge/next");
    for k in [2u64, 3, 8] {
        let tables: Vec<Arc<MemTable>> = (0..k)
            .map(|child| {
                let table = Arc::new(MemTable::new());
                for i in (child..ENTRIES).step_by(k as usize) {
                    let key = format!("user{i:016}");
                    table.add(i + 1, ValueType::Value, key.as_bytes(), &[b'v'; 256]);
                }
                table
            })
            .collect();
        group.bench_function(format!("k{k}"), |b| {
            b.iter_custom(|iters| {
                let passes = iters.div_ceil(ENTRIES).max(1);
                let start = std::time::Instant::now();
                for _ in 0..passes {
                    let children = tables
                        .iter()
                        .map(|t| Box::new(t.iter()) as Box<dyn InternalIterator>)
                        .collect();
                    let mut merge = MergingIter::new(InternalKeyComparator::default(), children);
                    merge.seek_to_first().unwrap();
                    let mut rows = 0;
                    while merge.valid() {
                        rows += 1;
                        merge.next().unwrap();
                    }
                    assert_eq!(rows, ENTRIES);
                }
                let stepped = (passes * ENTRIES) as f64;
                start.elapsed().mul_f64(iters as f64 / stepped)
            })
        });
    }
    group.finish();
}

/// The same loop of gets over 200 cache-resident keys of a `MemEnv`
/// database (the benchmark's `read_hot` set, on no device), from one thread
/// and from two: wall time per get, and the two-thread ÷ one-thread
/// throughput ratio. Two readers that wrote no line in common would come
/// close to 2.0 on two idle cores; what they still share is what keeps it
/// below. Prints only and never fails: a two-core CI box is too noisy to
/// gate on.
fn bench_get_hot_threads(c: &mut Criterion) {
    use bolt_core::{Db, Options};

    const KEYS: u64 = 200;
    let mut opts = Options::bolt().scaled(1.0 / 64.0);
    opts.block_cache_bytes = 2 << 20;
    let db = Db::open(Arc::new(MemEnv::new()), "bench-db", opts).unwrap();
    let key = |i: u64| format!("user{:016}", i * 7919 % 100_000).into_bytes();
    for i in 0..KEYS {
        db.put(&key(i), &[b'v'; 256]).unwrap();
    }
    db.flush().unwrap();
    db.compact_until_quiet().unwrap();
    let gets = |n: u64, first: u64| {
        for i in first..first + n {
            black_box(db.get(&key(i % KEYS)).unwrap().expect("a hot key"));
        }
    };
    gets(KEYS, 0); // every table and block in its cache

    let mut group = c.benchmark_group("read/get_hot_threads");
    let mut ns_per_get = Vec::new();
    for threads in [1u64, 2] {
        let mut ns = 0.0;
        group.bench_function(format!("{threads}_threads"), |b| {
            b.iter_custom(|iters| {
                let per_thread = iters.div_ceil(threads);
                let start = std::time::Instant::now();
                std::thread::scope(|s| {
                    for t in 0..threads {
                        s.spawn(move || gets(per_thread, t * 97));
                    }
                });
                let elapsed = start.elapsed();
                ns = elapsed.as_nanos() as f64 / (per_thread * threads) as f64;
                elapsed
            })
        });
        ns_per_get.push(ns);
    }
    group.finish();
    println!(
        "read/get_hot_threads: {:.0} ns/get at 1 thread, {:.0} at 2; 2 ÷ 1 = {:.2}",
        ns_per_get[0],
        ns_per_get[1],
        ns_per_get[0] / ns_per_get[1]
    );
    db.close().unwrap();
}

/// Writer scaling through the group-commit pipeline: 1/2/4/8 concurrent
/// writers, synced and unsynced. With sync on, throughput should *rise*
/// with writers as batches share barriers (batches per group > 1).
fn bench_write_pipeline(c: &mut Criterion) {
    use bolt_core::{Db, Options, WriteBatch, WriteOptions};

    let mut group = c.benchmark_group("write_pipeline");
    for &threads in &[1usize, 2, 4, 8] {
        for &sync in &[false, true] {
            let id = format!("{threads}w_{}", if sync { "sync" } else { "nosync" });
            group.throughput(Throughput::Elements(1));
            group.bench_function(id, |b| {
                b.iter_custom(|iters| {
                    let env: Arc<dyn Env> = Arc::new(MemEnv::new());
                    let mut opts = Options::leveldb();
                    opts.memtable_bytes = 256 << 20; // keep flushes out of the timing
                    let db = Arc::new(Db::open(env, "bench-db", opts).unwrap());
                    let per_thread = (iters as usize).div_ceil(threads).max(1);
                    let start = std::time::Instant::now();
                    std::thread::scope(|scope| {
                        for t in 0..threads {
                            let db = Arc::clone(&db);
                            scope.spawn(move || {
                                let wopts = WriteOptions::with_sync(sync);
                                for i in 0..per_thread {
                                    let mut batch = WriteBatch::new();
                                    batch.put(format!("w{t}/k{i:08}").as_bytes(), &[b'v'; 100]);
                                    db.write_opt(batch, &wopts).unwrap();
                                }
                            });
                        }
                    });
                    let elapsed = start.elapsed();
                    db.close().unwrap();
                    elapsed
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_zipfian,
    bench_seq_vs_block,
    bench_table_open,
    bench_iterator_create,
    bench_pick_single_run,
    bench_settle_into_single_run,
    bench_merge_next,
    bench_get_hot_threads,
    bench_write_pipeline
);
criterion_main!(benches);
