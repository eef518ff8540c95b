//! Seeded `architecture` cases, forbidden patterns: the corpus config
//! allows each pattern nowhere in its scope, or only in the items it
//! excepts, and every hit is flagged where it occurs. Never compiled.

use std::sync::atomic::AtomicU64;

// Threads start in the engine and the YCSB clients only: a compaction
// reads its inputs on its own thread.
fn engine_threads() {
    std::thread::Builder::new().spawn(move || flush_loop());
}

fn rogue_thread() {
    std::thread::spawn(|| work()); // SEED(architecture)
}

fn read_ahead(scope: &Scope) {
    scope.spawn_scoped(|| fetch_all()); // SEED(architecture)
}

// A flush is reachable from the flush loop and recovery only.
fn recover_wals(db: &DbInner) {
    db.flush_memtable(&mem, 0, seq)?;
}

fn compact(db: &DbInner) {
    db.flush_memtable(&imm, 0, seq)?; // SEED(architecture)
}

// Reclaim I/O runs in the batch executor, off the lock; recovery condemns.
impl ReclaimBatch {
    pub fn execute(self, env: &dyn Env) {
        env.punch_hole(&path, 0, 4096);
        env.delete_file(&path);
    }
}

impl VersionSet {
    pub fn recover(&mut self) {
        self.env.delete_file(&stale); // SEED(architecture)
    }

    pub fn commit(&mut self) {
        self.env.link_count(&path); // SEED(architecture)
    }
}

// A flush fabricates nothing to call the writer.
fn flush_memtable(db: &DbInner) {
    let base = Version::empty(levels); // SEED(architecture)
}

// The writer knows no entry type and no snapshot.
impl<'a> OutputSink<'a> {
    fn add(&mut self, key: &[u8]) {
        if kind == ValueType::Deletion { // SEED(architecture)
            return;
        }
    }
}

// The env knows no event sink; no version set holds one.
fn env_sync(env: &MemEnv) {
    let sink: Option<&EventSink> = None; // SEED(architecture)
}

struct Holder {
    sink: Option<Arc<EventSink>>, // SEED(architecture)
}

fn allowed_architecture(event: EngineEvent) {
    // A reviewed exception. bolt-lint: allow(architecture)
    let copy: EngineEvent = event;
}

// The sharded sum and the registry lowering name no counter.
fn sharded_sum(a: &Counters) -> u64 {
    a.fsync_calls // SEED(architecture)
}

fn lower(out: &mut String) {
    out.push_str("bolt_io_fsync_calls"); // SEED(architecture)
    out.push_str("bolt_engine_"); // another prefix: not pinned
}

// Hot reads never walk or copy the table lists, nor count a reference.
fn read_path(version: &Version) {
    let n = version.all_tables().count(); // SEED(architecture)
}

impl Version {
    pub fn get(&self, key: &[u8]) {
        let run = Arc::clone(&self.runs[0]); // SEED(architecture)
    }
}

impl Table {
    pub fn internal_get(&self, key: &[u8]) {
        let index = Arc::clone(&self.index); // SEED(architecture)
    }

    pub fn open(file: &dyn RandomAccessFile) {
        let index = read_block(file, 0, handle)?; // SEED(architecture)
    }

    fn read_data_block(&self, handle: BlockHandle) {
        let contents = read_block(self.file, 0, handle)?;
        cache.insert(self.block_key(handle), Block::new(contents), charge);
    }

    fn block_key(&self, handle: BlockHandle) -> BlockCacheKey {
        (self.cache_id, self.base + handle.offset)
    }

    pub fn iter(self: &Arc<Self>) -> TableIter {
        TableIter::new(Arc::clone(self))
    }
}

// A block-cache key is made by `Table::block_key` only, and data blocks
// enter the cache from a read miss and from `insert_built` only.
impl TableCache {
    fn table_node(&self, table_id: u64, table: Arc<Table>) {
        self.tables.insert(table_id, table, 1);
    }

    fn insert_built(&self, table_id: u64, table: Arc<Table>, blocks: Vec<(BlockHandle, Block)>) {
        for (handle, block) in blocks {
            cache.insert(table.block_key(handle), Arc::new(block), charge);
        }
        self.tables.insert(table_id, table, 1);
    }

    fn warm(&self, table: &Table, handle: BlockHandle, block: Block) {
        let key = (table.cache_id, table.base + handle.offset); // SEED(architecture)
        cache.insert(key, Arc::new(block), charge); // SEED(architecture)
    }
}

// A stripe or memo hit takes no lock and counts nothing shared.
impl Stripe {
    fn serve(&mut self, table_id: u64) {
        let table = Arc::clone(&self.tables[0]); // SEED(architecture)
        let shard = self.cache.shard.lock(); // SEED(architecture)
    }
}

impl Memo {
    fn get(&mut self, key: &u64) {
        self.cache.hits.fetch_add(1, Relaxed); // SEED(architecture)
    }
}

fn cache_hit(shard: &Shard) {
    shard.stats.hits.fetch_add(1, Relaxed); // SEED(architecture)
}

fn table_cache_open(file: &dyn RandomAccessFile) {
    let filter = read_block(file, 0, handle)?; // SEED(architecture)
}

// The pick searches, never sorts; the heap drains without a scan; the
// settle tests no victim against every other.
fn pick_from_single_run(level: &[Table]) {
    let mut victims = level.to_vec();
    victims.sort_by(|a, b| a.size.cmp(&b.size)); // SEED(architecture)
}

fn by_marginal_ratio(version: &Version) {
    let all = version.level(2).tables(); // SEED(architecture)
}

fn settle_into_single_run(level: &[Table]) {
    let clash = level.iter().any(|t| t.overlaps(x)); // SEED(architecture)
}

// Atomics are declared by the counter table only.
macro_rules! counter_table {
    ($name:ident) => { struct $name { n: AtomicU64 } };
}
macro_rules! gauges {
    ($name:ident) => { struct $name { n: AtomicU64 } }; // SEED(architecture)
}

#[cfg(test)]
mod tests {
    // A test-only env is an env too: the rule opts into test code.
    struct Passthrough;
    impl Env for Passthrough {} // SEED(architecture)
}
