//! Seeded `architecture` cases, exact counts: the corpus config pins how
//! often a token pattern occurs in each item below, and each item misses its
//! count by one. One too many is flagged at the surplus hit; one too few at
//! the item. Never compiled.

// Two view installers (memtable switch, commit tail); a third.
fn installers(db: &DbInner) {
    db.install_view(|old| old.with_mem());
    db.install_view(|old| old.with_version());
    db.install_view(|old| old.clone()); // SEED(architecture)
}

// One reclaim decision per commit tail; a second.
fn commit_tail(versions: &mut VersionSet) {
    let garbage = versions.collect_garbage(&cache);
    let again = versions.collect_garbage(&cache); // SEED(architecture)
}

// The queue is left through `retire`; this one pops nothing.
fn retire(state: &mut DbState) { // SEED(architecture)
    state.writers.clear();
}

// One device read; `read_exact` and `read_at` are other names.
fn fetch(file: &dyn RandomAccessFile, span: &Span) {
    file.read(span.offset, &mut buf)?;
    file.read_exact(&mut buf)?;
    file.read(span.offset + 1, &mut buf)?; // SEED(architecture)
}

// The engine's threads start in one builder.
fn start_threads() {
    let a = std::thread::Builder::new().name(n);
    let b = std::thread::Builder::new().name(n); // SEED(architecture)
}

// Two engine threads under the panic guard; the second is not an engine
// thread, so one of two is missing.
fn open(inner: Arc<DbInner>) { // SEED(architecture)
    spawn_guarded(&inner, "bolt-flush", DbInner::flush_loop)?;
    spawn_guarded(&inner, "helper", DbInner::compaction_loop)?;
}

// The group cap has one reader outside the options (excepted below).
fn budget(opts: &Options) -> u64 {
    opts.bolt.group_compaction_bytes
}

fn second_reader(opts: &Options) -> u64 {
    opts.bolt.group_compaction_bytes // SEED(architecture)
}

fn options_default(b: &mut BoltOptions) {
    b.group_compaction_bytes = 64 << 20;
}

// Lazy-leveled's settle sorts the level once; this one never does.
fn settle_into_single_run(version: &Version) { // SEED(architecture)
    let level = version.level(1).to_vec();
}

// One lazy heap, one overlap search per table.
fn by_marginal_ratio(tables: &[Table], below: &[Table]) {
    let offers: BinaryHeap<_> = tables.iter().collect();
    let spans = tables.iter().map(|t| t.overlap_in(below));
    let again: BinaryHeap<_> = offers.clone(); // SEED(architecture)
    let twice = tables.iter().map(|t| t.overlap_in(below)); // SEED(architecture)
}

// The flush loop flushes once per memtable; this one never does.
fn flush_loop(db: &DbInner) { // SEED(architecture)
    db.wait_for_imm();
}

// One counter table.
macro_rules! counter_table {
    () => {};
}
macro_rules! counter_table { // SEED(architecture)
    () => {};
}

// The option structs as they are: in each, one field renamed and one
// added.
pub struct Options { // SEED(architecture)
    pub memtable_bytes: u64,
    pub sstable_mebibytes: u64,
    pub turbo: bool, // SEED(architecture)
}

pub struct BoltOptions { // SEED(architecture)
    pub logical_sstable_bytes: u64,
    pub group_bytes: u64,
    pub eager: bool, // SEED(architecture)
}

pub struct WriteOptions { // SEED(architecture)
    pub durable: Option<bool>,
    pub fsync: bool, // SEED(architecture)
}

pub struct ReadOptions<'a> { // SEED(architecture)
    pub at: Option<&'a Snapshot>,
    pub fill_cache: bool, // SEED(architecture)
}
