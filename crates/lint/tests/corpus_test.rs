//! Corpus self-test: every `SEED(<rule>)` marker in `tests/corpus/*.rs` must
//! produce a finding of that rule on that exact line, every finding must be
//! seeded, and the real workspace tree must be clean.

use std::path::Path;

use bolt_lint::{analyze_sources, Config};

const CORPUS_CONFIG: &str = r#"
[order]
locks = ["core.state", "core.versions", "core.batchlock", "aux.bg", "aux.wal"]

[aliases]
state = "core.state"
versions = "core.versions"
batchlock = "core.batchlock"
bg = "aux.bg"
wal = "aux.wal"

[modules]
crash_path = ["l3_unwrap.rs", "l6_swallow.rs"]
commit_path = ["l4_commit.rs"]
twopc_path = ["l7_decide.rs"]

[architecture]
"one commit tail: two view installers" = "arch_counts.rs fn installers : .install_view( = 2"
"one commit tail: one reclaim decision" = "arch_counts.rs fn commit_tail : .collect_garbage( = 1"
"writes and 2PC leave the queue through retire" = "arch_counts.rs fn retire : writers.pop_front = 1"
"a compaction's input reads are one counted fetch" = "arch_counts.rs fn fetch : .read( = 1"
"the engine's threads start in one place" = "arch_counts.rs fn start_threads : thread::Builder = 1"
"two engine threads, under the panic guard" = 'arch_counts.rs fn open : spawn_guarded(&inner, "bolt-" = 2'
"the group cap is read where the budget is computed" = "arch_counts.rs except arch_counts.rs fn options_default : group_compaction_bytes = 1"
"lazy-leveled's settle sorts the level once" = "arch_counts.rs fn settle_into_single_run : sort_by( = 1"
"settled victims come off one lazy heap" = "arch_counts.rs fn by_marginal_ratio : BinaryHeap = 1"
"each table's overlap is found once" = "arch_counts.rs fn by_marginal_ratio : overlap_in( = 1"
"the flush loop flushes once per memtable" = "arch_counts.rs fn flush_loop : .flush_memtable( = 1"
"one counter table" = "arch_counts.rs : macro_rules! counter_table = 1"
"the options, no new knob" = "arch_counts.rs struct Options : pub = 2"
"the options by name" = "arch_counts.rs struct Options : memtable_bytes: | sstable_bytes: = 2"
"the BoLT options, no new knob" = "arch_counts.rs struct BoltOptions : pub = 2"
"the BoLT options by name" = "arch_counts.rs struct BoltOptions : logical_sstable_bytes: | group_compaction_bytes: = 2"
"the write options, no new knob" = "arch_counts.rs struct WriteOptions : pub = 1"
"the write options by name" = "arch_counts.rs struct WriteOptions : sync: = 1"
"the read options, no new knob" = "arch_counts.rs struct ReadOptions : pub = 1"
"the read options by name" = "arch_counts.rs struct ReadOptions : snapshot: = 1"
"threads outside tests: the engine's only" = "arch_forbid.rs except arch_forbid.rs fn engine_threads : thread::spawn | thread::Builder | spawn_scoped( | .spawn( = 0"
"no flush is reachable from inside a compaction" = "arch_forbid.rs except arch_forbid.rs fn recover_wals : .flush_memtable( = 0"
"reclaim runs off the lock" = "arch_forbid.rs except arch_forbid.rs impl ReclaimBatch fn execute : punch_hole | delete_file | link_count = 0"
"one unlinker" = "arch_unlink.rs except arch_unlink.rs impl ReclaimBatch fn execute : delete_file = 0"
"one listing per open" = "arch_listing.rs : .list_dir( = 1"
"the open's listing is recover's" = "arch_listing.rs except arch_listing.rs impl VersionSet fn recover : .list_dir( = 0"
"a flush fabricates nothing to call the writer" = "arch_forbid.rs fn flush_memtable : Version::empty | RangeTombstoneSet | HashSet = 0"
"the writer knows no entry type and no snapshot" = "arch_forbid.rs impl OutputSink : parse_internal_key | ValueType | RangeTombstone | ValuePointer | smallest_snapshot = 0"
"the scope carries the event sink, the env none" = "arch_forbid.rs fn env_sync : EventSink | EngineEvent = 0"
"a reviewed exception" = "arch_forbid.rs fn allowed_architecture : EngineEvent = 0"
"no version set or reclaim batch holds a sink" = "arch_forbid.rs struct Holder : Option<Arc<EventSink>> = 0"
"the sharded sum names no counter" = "arch_forbid.rs fn sharded_sum : fsync_calls | bytes_written | open_reads | warm_inserts | evictions | events_emitted | pending_punch_bytes | range_tombstones_live = 0"
"the registry lowering names no counter" = 'arch_forbid.rs fn lower : "bolt_io_" | "bolt_table_cache_" | "bolt_block_cache_" = 0'
"hot reads never walk or copy the table lists" = "arch_forbid.rs fn read_path : all_tables() | .tables.clone() = 0"
"a hot get walks, copies and counts nothing shared" = "arch_forbid.rs impl Version fn get : all_tables() | .tables.clone() | Arc::clone = 0"
"a hot table get counts no shared reference" = "arch_forbid.rs impl Table except arch_forbid.rs impl Table fn iter : Arc::clone = 0"
"a stripe hit takes no lock and counts nothing shared" = "arch_forbid.rs impl Stripe : .lock( | Arc::clone | fetch_add = 0"
"a memo hit takes no lock and counts nothing shared" = "arch_forbid.rs impl Memo : .lock( | Arc::clone | fetch_add = 0"
"cache counters are per shard" = "arch_forbid.rs fn cache_hit : stats.hits.fetch_add | stats.misses.fetch_add = 0"
"a table open reads its tail once, never block by block" = "arch_forbid.rs impl Table except arch_forbid.rs impl Table fn read_data_block : read_block( = 0"
"the table cache reads no block" = "arch_forbid.rs fn table_cache_open : read_block( = 0"
"a block-cache key is made only by Table::block_key" = "arch_forbid.rs except arch_forbid.rs impl Table fn block_key : .cache_id, | + handle.offset = 0"
"data blocks enter the block cache only from a read miss and from TableCache::insert_built (with the reader)" = "arch_forbid.rs except arch_forbid.rs impl TableCache fn table_node : .insert( = 3"
"the pick finds overlap by binary search, sorts nothing" = "arch_forbid.rs fn pick_from_single_run : overlapping_tables( | sort_by( = 0"
"no level is scanned while the heap drains" = "arch_forbid.rs fn by_marginal_ratio : overlapping | tables() = 0"
"the settle tests no victim against every other" = "arch_forbid.rs fn settle_into_single_run : .any( = 0"
"the one macro that declares atomics is the counter table" = "arch_forbid.rs macro * except arch_forbid.rs macro counter_table : AtomicU64 = 0"
"one fault-injection env, no test-only env" = "arch_forbid.rs tests : Env for = 0"
"the field is gone" = "arch_blind.rs : punched = 0"
"a renamed function" = "arch_scope.rs fn pick_victims : sort_by( = 0"
"#;

fn corpus_sources() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("corpus dir readable") {
        let path = entry.expect("corpus entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = format!(
                "corpus/{}",
                path.file_name().expect("file name").to_string_lossy()
            );
            out.push((name, std::fs::read_to_string(&path).expect("read corpus")));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "corpus files present");
    out
}

/// Collect `SEED(<rule>)` markers as `(file, line, rule)`.
fn seeded(sources: &[(String, String)]) -> Vec<(String, u32, String)> {
    let mut out = Vec::new();
    for (path, src) in sources {
        for (i, l) in src.lines().enumerate() {
            let mut rest = l;
            while let Some(pos) = rest.find("SEED(") {
                let tail = &rest[pos + 5..];
                let end = tail.find(')').expect("closed SEED marker");
                out.push((path.clone(), (i + 1) as u32, tail[..end].to_string()));
                rest = &tail[end..];
            }
        }
    }
    out
}

#[test]
fn every_seeded_violation_is_flagged_and_nothing_else() {
    let cfg = Config::parse(CORPUS_CONFIG).expect("corpus config parses");
    let sources = corpus_sources();
    let findings = analyze_sources(&sources, &cfg);
    let seeds = seeded(&sources);

    for rule in [
        "guard-across-barrier",
        "lock-order",
        "unwrap-in-crash-path",
        "unsynced-commit",
        "lock-registry",
        "swallowed-io-error",
        "decide-before-apply",
        "architecture",
        "dead-allow",
    ] {
        assert!(
            seeds.iter().any(|(_, _, r)| r == rule),
            "corpus seeds no {rule} case"
        );
    }

    for (file, line, rule) in &seeds {
        assert!(
            findings
                .iter()
                .any(|f| &f.file == file && f.line == *line && f.rule == *rule),
            "seeded {rule} at {file}:{line} was not flagged; findings: {findings:#?}"
        );
    }
    for f in &findings {
        assert!(
            seeds
                .iter()
                .any(|(file, line, rule)| file == &f.file && *line == f.line && rule == f.rule),
            "finding without a SEED marker (false positive or stale corpus): {f:?}"
        );
    }
}

#[test]
fn allow_comments_suppress_annotated_sites() {
    // The corpus contains one `allowed_*` function per rule; none of their
    // lines may appear in the findings.
    let cfg = Config::parse(CORPUS_CONFIG).expect("corpus config parses");
    let sources = corpus_sources();
    let findings = analyze_sources(&sources, &cfg);
    for (path, src) in &sources {
        for (i, l) in src.lines().enumerate() {
            if l.contains("bolt-lint: allow(") {
                let line = (i + 1) as u32;
                // The seeded dead-allow case legitimately reports ON its
                // allow comment line; every other rule must be suppressed.
                assert!(
                    !findings.iter().any(|f| &f.file == path
                        && (f.line == line || f.line == line + 1)
                        && f.rule != "dead-allow"),
                    "allow comment at {path}:{line} did not suppress its finding"
                );
            }
        }
    }
}

/// Regression for the pre-resolver blind spot: `select` is deliberately
/// defined on two implementors (never a unique name, so the old name-based
/// resolver could not follow the call) and the closure case has no name at
/// all. Both seeded edges must be found from this file alone.
#[test]
fn trait_and_closure_edges_once_invisible_are_reported() {
    let cfg = Config::parse(CORPUS_CONFIG).expect("corpus config parses");
    let sources: Vec<(String, String)> = corpus_sources()
        .into_iter()
        .filter(|(p, _)| p.ends_with("l2_traits.rs"))
        .collect();
    assert_eq!(sources.len(), 1);
    let n_select_defs = sources[0].1.matches("fn select").count();
    assert!(
        n_select_defs >= 2,
        "the corpus case must keep `select` non-unique, or it stops \
         exercising typed resolution"
    );
    let findings = analyze_sources(&sources, &cfg);
    let lock_order_lines: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .map(|f| f.line)
        .collect();
    let seeds: Vec<u32> = seeded(&sources).iter().map(|&(_, l, _)| l).collect();
    assert_eq!(
        lock_order_lines, seeds,
        "trait-routed and closure-callback edges must be exactly the seeded \
         ones: {findings:#?}"
    );
}

#[test]
fn workspace_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = bolt_lint::check_root(&root, None).expect("check_root on workspace");
    assert!(
        findings.is_empty(),
        "workspace is not lint-clean: {findings:#?}"
    );
}
