//! Engine configuration and the paper's system profiles.
//!
//! Every system the paper evaluates is expressed as an [`Options`] profile
//! over the *same* engine, so measured differences isolate the algorithms:
//!
//! | Profile | Paper system | Key settings |
//! |---|---|---|
//! | [`Options::leveldb`] | LevelDB v1.20 | 2 MB SSTables, one file per table, L0 triggers 4/8/12, seek compaction |
//! | [`Options::leveldb_64mb`] | `LVL64MB` | 64 MB SSTables |
//! | [`Options::hyperleveldb`] | HyperLevelDB | 32 MB SSTables, governors disabled |
//! | [`Options::pebblesdb`] | PebblesDB | fragmented levels: every level stacks runs, a full one moves down whole |
//! | [`Options::rocksdb`] | RocksDB v6.7.3 | 64 MB SSTables, compact encoding, L1 = 256 MB, triggers 20/36 |
//! | [`Options::bolt`] | BoLT | compaction files + 1 MB logical SSTables + 64 MB group compaction + settled compaction + fd cache |
//! | [`Options::hyperbolt`] | HyperBoLT | BoLT mechanisms on the HyperLevelDB profile |
//!
//! The BoLT ablations of Fig 12 (`+LS`, `+GC`, `+STL`, `+FC`) are the
//! [`BoltOptions`] switches.

use bolt_common::bloom::BloomFilterPolicy;
use bolt_table::TableFormat;

/// The four BoLT mechanisms (§3 of the paper), individually switchable for
/// the Fig 12 ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct BoltOptions {
    /// Size of one logical SSTable (the paper: 1 MB).
    pub logical_sstable_bytes: u64,
    /// The cap on one group compaction. A group moves what its level owes
    /// — the bytes over [`Options::max_bytes_for_level`], no less than one
    /// and a half such targets — and never more than this. Setting it equal
    /// to `logical_sstable_bytes` disables grouping (the `+LS`
    /// configuration).
    pub group_compaction_bytes: u64,
    /// Settled compaction: promote zero-overlap victims by a MANIFEST-only
    /// level change instead of rewriting them.
    pub settled_compaction: bool,
    /// Cache file descriptors per compaction file (§3.2.1).
    pub fd_cache: bool,
}

impl Default for BoltOptions {
    fn default() -> Self {
        BoltOptions {
            logical_sstable_bytes: 1 << 20,
            group_compaction_bytes: 64 << 20,
            settled_compaction: true,
            fd_cache: true,
        }
    }
}

/// Per-write durability override for [`crate::Db::write_opt`].
///
/// A mixed-durability workload (YCSB with a synced subset, say) runs on one
/// database: each batch picks its own durability instead of forking two DBs
/// with different [`Options::sync_wal`] settings. Synced and unsynced
/// batches still share the group-commit pipeline; a batch that requests a
/// sync can ride (and elide its barrier on) another batch's sync.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOptions {
    /// `Some(true)` forces a WAL sync for this batch, `Some(false)`
    /// suppresses it, `None` follows [`Options::sync_wal`].
    pub sync: Option<bool>,
}

impl WriteOptions {
    /// Follow [`Options::sync_wal`] (the `Db::write` behaviour).
    pub fn new() -> Self {
        WriteOptions::default()
    }

    /// Override the per-batch WAL sync.
    pub fn with_sync(sync: bool) -> Self {
        WriteOptions { sync: Some(sync) }
    }
}

/// Per-read options for [`crate::Db::get_opt`] and [`crate::Db::iter_opt`].
///
/// This is the one read-path knob surface: plain [`crate::Db::get`] /
/// [`crate::Db::iter`] are thin wrappers over the default, and reading at a
/// snapshot is `ReadOptions::new().with_snapshot(&snap)`.
///
/// The engine always verifies block checksums and always fills the block
/// cache; there is no per-read switch for either.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions<'a> {
    /// Read at this snapshot instead of the latest committed state.
    pub snapshot: Option<&'a crate::db::Snapshot>,
}

impl Default for ReadOptions<'_> {
    fn default() -> Self {
        ReadOptions::new()
    }
}

impl<'a> ReadOptions<'a> {
    /// Default read options: the latest committed state.
    pub fn new() -> Self {
        ReadOptions { snapshot: None }
    }

    /// Pin the read to `snapshot`.
    pub fn with_snapshot(mut self, snapshot: &'a crate::db::Snapshot) -> Self {
        self.snapshot = Some(snapshot);
        self
    }
}

/// What a level may hold and what drains it: the one decision that shapes
/// the tree.
///
/// The policy decides *what* to merge (trigger + victim choice + data
/// layout, in the taxonomy of the compaction design-space paper,
/// arXiv 2202.04522); the [`CompactionStyle`] decides *how* outputs are
/// written (one file per table vs one compaction file per compaction).
/// The two compose: every policy works under either style, and under the
/// BoLT style pays the same 2 barriers per compaction.
///
/// The choice is **pinned in the MANIFEST** when the database is created:
/// reopening with a different policy fails with
/// [`bolt_common::Error::InvalidArgument`] instead of silently mis-reading
/// a layout whose overlap invariants differ (see `DESIGN.md` §13).
///
/// ```
/// use bolt_core::{CompactionPolicyKind, Options};
///
/// let mut opts = Options::bolt();
/// opts.compaction_policy = CompactionPolicyKind::LazyLeveled;
/// assert_eq!(opts.compaction_policy.as_str(), "lazy_leveled");
/// assert_eq!(CompactionPolicyKind::parse("size-tiered"),
///            Some(CompactionPolicyKind::SizeTiered));
/// assert_eq!(Options::pebblesdb().compaction_policy,
///            CompactionPolicyKind::Fragmented);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CompactionPolicyKind {
    /// Classic leveled picking (LevelDB-shaped): levels ≥ 1 hold one sorted
    /// run; a level over its byte limit merges victims into the next level.
    #[default]
    Leveled,
    /// Size-tiered (STCS): every level holds overlapping sorted runs;
    /// runs of similar size are bucketed and a bucket of
    /// [`Options::size_tiered_min_threshold`] runs is merged into one new
    /// run at the next level. Lowest write amplification, highest read
    /// amplification.
    SizeTiered,
    /// Lazy-leveled hybrid (Dostoevsky-shaped): tiered at every level above
    /// the largest, leveled (single run) at the largest level. Most of
    /// tiering's write-amp saving with leveled's bounded read amp on the
    /// bulk of the data.
    LazyLeveled,
    /// Fragmented levels (PebblesDB-shaped): every level holds overlapping
    /// sorted runs; a level over its *leveled* byte limit merges whole into
    /// one new run appended to the next level, never rewriting the next
    /// level's existing data. Fewer rewrites, more tables per lookup.
    Fragmented,
}

impl CompactionPolicyKind {
    /// Stable snake_case name (used in events, metrics labels, and traces).
    pub fn as_str(self) -> &'static str {
        match self {
            CompactionPolicyKind::Leveled => "leveled",
            CompactionPolicyKind::SizeTiered => "size_tiered",
            CompactionPolicyKind::LazyLeveled => "lazy_leveled",
            CompactionPolicyKind::Fragmented => "fragmented",
        }
    }

    /// Parse a user-facing name (CLI flags accept `_` or `-` separators).
    pub fn parse(name: &str) -> Option<Self> {
        match name.replace('-', "_").as_str() {
            "leveled" => Some(CompactionPolicyKind::Leveled),
            "size_tiered" | "tiered" | "stcs" => Some(CompactionPolicyKind::SizeTiered),
            "lazy_leveled" | "lazy" => Some(CompactionPolicyKind::LazyLeveled),
            "fragmented" | "pebbles" => Some(CompactionPolicyKind::Fragmented),
            _ => None,
        }
    }

    /// Stable numeric encoding written to the MANIFEST (never reorder).
    pub fn manifest_tag(self) -> u64 {
        match self {
            CompactionPolicyKind::Leveled => 0,
            CompactionPolicyKind::SizeTiered => 1,
            CompactionPolicyKind::LazyLeveled => 2,
            CompactionPolicyKind::Fragmented => 3,
        }
    }

    /// Decode a MANIFEST tag written by [`CompactionPolicyKind::manifest_tag`].
    pub fn from_manifest_tag(tag: u64) -> Option<Self> {
        match tag {
            0 => Some(CompactionPolicyKind::Leveled),
            1 => Some(CompactionPolicyKind::SizeTiered),
            2 => Some(CompactionPolicyKind::LazyLeveled),
            3 => Some(CompactionPolicyKind::Fragmented),
            _ => None,
        }
    }

    /// The first level that must be one sorted run in a tree of
    /// `num_levels` levels; shallower levels may stack overlapping runs
    /// (level 0 always does: one run per flush), and `num_levels` means no
    /// level is restricted. This number is what `VersionBuilder::build`
    /// enforces and what the picker decides whole-runs-vs-subset and
    /// append-vs-merge from.
    pub fn single_run_from(self, num_levels: usize) -> usize {
        match self {
            CompactionPolicyKind::Leveled => 1,
            CompactionPolicyKind::LazyLeveled => num_levels.saturating_sub(1),
            CompactionPolicyKind::SizeTiered | CompactionPolicyKind::Fragmented => num_levels,
        }
    }
}

/// How a flush or compaction writes its output tables. What the tree looks
/// like is the [`CompactionPolicyKind`]'s business, not this one's.
#[derive(Debug, Clone, PartialEq)]
pub enum CompactionStyle {
    /// Classic (LevelDB/RocksDB): every output table is its own physical
    /// file with its own `fsync`.
    Leveled,
    /// BoLT: each compaction writes all of its output tables —
    /// fine-grained *logical SSTables* — into a single *compaction file*
    /// with exactly one data barrier (plus the MANIFEST barrier).
    Bolt(BoltOptions),
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// MemTable capacity before it becomes immutable (paper: 64 MB).
    pub memtable_bytes: u64,
    /// Target size of output SSTables for non-BoLT styles.
    pub sstable_bytes: u64,
    /// Number of L0 runs that triggers a compaction.
    pub level0_compaction_trigger: usize,
    /// L0 run count at which writers are slowed by 1 ms (`None` = disabled,
    /// as in HyperLevelDB).
    pub level0_slowdown_trigger: Option<usize>,
    /// L0 run count at which writers block (`None` = disabled).
    pub level0_stop_trigger: Option<usize>,
    /// Number of levels (LevelDB: 7).
    pub num_levels: usize,
    /// Byte limit of level 1; each deeper level holds 10× the one above
    /// (LevelDB's growth factor).
    pub level1_max_bytes: u64,
    /// TableCache capacity in *tables* (LevelDB's `max_open_files`).
    pub max_open_files: u64,
    /// BlockCache capacity in bytes.
    pub block_cache_bytes: u64,
    /// Physical table encoding (`legacy` or `compact`).
    pub table_format: TableFormat,
    /// Bloom filter policy (paper: 10 bits/key for every store).
    pub filter_policy: Option<BloomFilterPolicy>,
    /// Sync the WAL on every write batch (YCSB default: off). Overridable
    /// per batch with [`WriteOptions`].
    pub sync_wal: bool,
    /// LevelDB's seek compaction (compact a table after too many wasted
    /// seeks). Disabled in the HyperLevelDB-family profiles.
    pub seek_compaction: bool,
    /// How outputs are written.
    pub compaction_style: CompactionStyle,
    /// Tree shape and victim selection (pinned in the MANIFEST at creation;
    /// see [`CompactionPolicyKind`]).
    pub compaction_policy: CompactionPolicyKind,
    /// Size-tiered / lazy-leveled: a size bucket merges once it holds this
    /// many runs (STCS `min_threshold`; must be ≥ 2). Smaller = earlier
    /// merges, lower read amp, higher write amp.
    pub size_tiered_min_threshold: usize,
    /// WAL-time key-value separation (BVLSM-style): values strictly larger
    /// than this many bytes are appended to the value log and replaced by a
    /// fixed-size pointer throughout the WAL/memtable/SSTable path.
    /// `None` disables separation (the default for every profile).
    pub value_separation_threshold: Option<u64>,
    /// Target size of one value-log segment before the writer rotates to a
    /// new file. Larger segments amortize file creation; smaller segments
    /// retire (and free) sooner once their values die.
    pub vlog_segment_bytes: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options::leveldb()
    }
}

impl Options {
    /// Stock LevelDB v1.20.
    pub fn leveldb() -> Self {
        Options {
            memtable_bytes: 4 << 20,
            sstable_bytes: 2 << 20,
            level0_compaction_trigger: 4,
            level0_slowdown_trigger: Some(8),
            level0_stop_trigger: Some(12),
            num_levels: 7,
            level1_max_bytes: 10 << 20,
            max_open_files: 1000,
            block_cache_bytes: 8 << 20,
            table_format: TableFormat::legacy(),
            filter_policy: Some(BloomFilterPolicy::new(10)),
            sync_wal: false,
            seek_compaction: true,
            compaction_style: CompactionStyle::Leveled,
            compaction_policy: CompactionPolicyKind::Leveled,
            size_tiered_min_threshold: 4,
            value_separation_threshold: None,
            vlog_segment_bytes: 64 << 20,
        }
    }

    /// LevelDB with 64 MB SSTables (the paper's `LVL64MB` baseline).
    pub fn leveldb_64mb() -> Self {
        Options {
            sstable_bytes: 64 << 20,
            ..Options::leveldb()
        }
    }

    /// HyperLevelDB: larger tables, artificial governors removed.
    pub fn hyperleveldb() -> Self {
        Options {
            sstable_bytes: 32 << 20,
            level0_slowdown_trigger: None,
            level0_stop_trigger: None,
            seek_compaction: false,
            ..Options::leveldb()
        }
    }

    /// PebblesDB-shaped fragmented LSM: overlapping runs per level, no
    /// governor, no rewrite of existing next-level data.
    pub fn pebblesdb() -> Self {
        Options {
            sstable_bytes: 32 << 20,
            level0_slowdown_trigger: None,
            level0_stop_trigger: None,
            seek_compaction: false,
            compaction_policy: CompactionPolicyKind::Fragmented,
            // PebblesDB's larger tables earn it a proportionally larger
            // TableCache (sized by count, not bytes) — §4.3.1.
            ..Options::leveldb()
        }
    }

    /// RocksDB v6.7.3-shaped profile: big tables, compact record encoding,
    /// larger level 1, RocksDB's L0 triggers.
    pub fn rocksdb() -> Self {
        Options {
            sstable_bytes: 64 << 20,
            level0_compaction_trigger: 4,
            level0_slowdown_trigger: Some(20),
            level0_stop_trigger: Some(36),
            level1_max_bytes: 256 << 20,
            table_format: TableFormat::compact(),
            seek_compaction: false,
            ..Options::leveldb()
        }
    }

    /// BoLT on the LevelDB profile with all four mechanisms enabled.
    pub fn bolt() -> Self {
        Options {
            compaction_style: CompactionStyle::Bolt(BoltOptions::default()),
            ..Options::leveldb()
        }
    }

    /// BoLT `+LS` ablation: logical SSTables + compaction files only
    /// (group size = one logical SSTable, no settled compaction, no fd
    /// cache).
    pub fn bolt_ls() -> Self {
        Options {
            compaction_style: CompactionStyle::Bolt(BoltOptions {
                group_compaction_bytes: 1 << 20,
                settled_compaction: false,
                fd_cache: false,
                ..BoltOptions::default()
            }),
            ..Options::leveldb()
        }
    }

    /// BoLT `+GC` ablation: adds 64 MB group compaction.
    pub fn bolt_gc() -> Self {
        Options {
            compaction_style: CompactionStyle::Bolt(BoltOptions {
                settled_compaction: false,
                fd_cache: false,
                ..BoltOptions::default()
            }),
            ..Options::leveldb()
        }
    }

    /// BoLT `+STL` ablation: adds settled compaction.
    pub fn bolt_stl() -> Self {
        Options {
            compaction_style: CompactionStyle::Bolt(BoltOptions {
                fd_cache: false,
                ..BoltOptions::default()
            }),
            ..Options::leveldb()
        }
    }

    /// RocksBoLT: BoLT mechanisms on the RocksDB profile — the paper's
    /// stated future work ("we can replace the LSM-tree implementation of
    /// RocksDB with BoLT to improve its performance", §4.1). The engine
    /// profiles make it a one-liner.
    pub fn rocksbolt() -> Self {
        Options {
            compaction_style: CompactionStyle::Bolt(BoltOptions::default()),
            ..Options::rocksdb()
        }
    }

    /// HyperBoLT: BoLT mechanisms on the HyperLevelDB profile.
    pub fn hyperbolt() -> Self {
        Options {
            compaction_style: CompactionStyle::Bolt(BoltOptions::default()),
            ..Options::hyperleveldb()
        }
    }

    /// The name of every profile, each resolved by [`Options::profile`]:
    /// the paper's baselines, BoLT, its three ablations, the two hybrids.
    pub const PROFILE_NAMES: [&'static str; 11] = [
        "leveldb",
        "lvl64",
        "hyper",
        "pebbles",
        "rocks",
        "bolt",
        "bolt_ls",
        "bolt_gc",
        "bolt_stl",
        "hyperbolt",
        "rocksbolt",
    ];

    /// The profile called `name` — the one name → constructor table, for
    /// every command line, example and test that takes a profile by name.
    /// `None` for a name that is neither in [`Options::PROFILE_NAMES`] nor
    /// one of the long-form aliases.
    pub fn profile(name: &str) -> Option<Options> {
        Some(match name {
            "leveldb" => Options::leveldb(),
            "lvl64" | "leveldb64" => Options::leveldb_64mb(),
            "hyper" | "hyperleveldb" => Options::hyperleveldb(),
            "pebbles" | "pebblesdb" => Options::pebblesdb(),
            "rocks" | "rocksdb" => Options::rocksdb(),
            "bolt" => Options::bolt(),
            "bolt_ls" => Options::bolt_ls(),
            "bolt_gc" => Options::bolt_gc(),
            "bolt_stl" => Options::bolt_stl(),
            "hyperbolt" => Options::hyperbolt(),
            "rocksbolt" => Options::rocksbolt(),
            _ => return None,
        })
    }

    /// Byte limit for `level` (level 0 is governed by run count instead).
    pub fn max_bytes_for_level(&self, level: usize) -> u64 {
        if level == 0 {
            return u64::MAX;
        }
        /// Growth factor between levels (LevelDB: 10).
        const LEVEL_SIZE_MULTIPLIER: u64 = 10;
        let mut bytes = self.level1_max_bytes;
        for _ in 1..level {
            bytes = bytes.saturating_mul(LEVEL_SIZE_MULTIPLIER);
        }
        bytes
    }

    /// Target size of one output table under the active compaction style.
    pub fn output_table_bytes(&self) -> u64 {
        match &self.compaction_style {
            CompactionStyle::Bolt(b) => b.logical_sstable_bytes,
            _ => self.sstable_bytes,
        }
    }

    /// The BoLT mechanism switches, if the BoLT style is active.
    pub fn bolt_options(&self) -> Option<&BoltOptions> {
        match &self.compaction_style {
            CompactionStyle::Bolt(b) => Some(b),
            _ => None,
        }
    }

    /// Check the configuration for nonsensical values, stopping at the
    /// first problem. [`Options::validate_all`] reports every problem at
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::InvalidArgument`] for configurations
    /// the engine cannot run (too few levels, zero-sized buffers, inverted
    /// governor thresholds).
    pub fn validate(&self) -> bolt_common::Result<()> {
        match self.validate_all().into_iter().next() {
            Some(problem) => Err(bolt_common::Error::InvalidArgument(problem)),
            None => Ok(()),
        }
    }

    /// Every validation problem in this configuration, in a stable order
    /// (empty = valid), so a misconfigured profile is fixed in one
    /// round-trip.
    pub fn validate_all(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.num_levels < 2 {
            problems.push("num_levels must be at least 2".to_string());
        }
        if self.memtable_bytes == 0 || self.sstable_bytes == 0 || self.level1_max_bytes == 0 {
            problems.push("memtable, sstable and level-1 sizes must be positive".to_string());
        }
        if let (Some(slow), Some(stop)) = (self.level0_slowdown_trigger, self.level0_stop_trigger) {
            if stop < slow {
                problems.push("L0Stop trigger must not be below L0SlowDown".to_string());
            }
        }
        if let CompactionStyle::Bolt(b) = &self.compaction_style {
            if b.logical_sstable_bytes == 0 {
                problems.push("logical SSTable size must be positive".to_string());
            }
            if b.group_compaction_bytes < b.logical_sstable_bytes {
                problems.push(
                    "group compaction budget must cover at least one logical SSTable".to_string(),
                );
            }
        }
        if self.size_tiered_min_threshold < 2 {
            problems.push("size_tiered_min_threshold must be at least 2".to_string());
        }
        if self.max_open_files == 0 {
            problems.push("max_open_files must be positive".to_string());
        }
        if self.value_separation_threshold == Some(0) {
            problems.push(
                "value_separation_threshold must be positive (use None to disable)".to_string(),
            );
        }
        if self.vlog_segment_bytes == 0 {
            problems.push("vlog_segment_bytes must be positive".to_string());
        }
        problems
    }

    /// Uniformly scale all capacity knobs by `factor` (e.g. `1/64` to run a
    /// laptop-scale experiment with the paper's *ratios* intact).
    pub fn scaled(mut self, factor: f64) -> Self {
        let scale = |v: u64| ((v as f64 * factor).max(1.0)) as u64;
        self.memtable_bytes = scale(self.memtable_bytes);
        self.sstable_bytes = scale(self.sstable_bytes);
        self.level1_max_bytes = scale(self.level1_max_bytes);
        self.block_cache_bytes = scale(self.block_cache_bytes);
        if let CompactionStyle::Bolt(b) = &mut self.compaction_style {
            b.logical_sstable_bytes = scale(b.logical_sstable_bytes);
            b.group_compaction_bytes = scale(b.group_compaction_bytes);
        }
        self.vlog_segment_bytes = scale(self.vlog_segment_bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_limits_grow_exponentially() {
        let opts = Options::leveldb();
        assert_eq!(opts.max_bytes_for_level(1), 10 << 20);
        assert_eq!(opts.max_bytes_for_level(2), 100 << 20);
        assert_eq!(opts.max_bytes_for_level(3), 1000 << 20);
        assert_eq!(opts.max_bytes_for_level(0), u64::MAX);
    }

    #[test]
    fn every_profile_name_resolves_and_aliases_agree() {
        // `Options` is not `PartialEq`; its `Debug` form names every field.
        let show = |name: &str| Options::profile(name).map(|opts| format!("{opts:?}"));
        for (i, name) in Options::PROFILE_NAMES.iter().enumerate() {
            assert!(show(name).is_some(), "`{name}` is unknown");
            for other in &Options::PROFILE_NAMES[..i] {
                assert_ne!(
                    show(other),
                    show(name),
                    "{other} and {name} are one profile"
                );
            }
        }
        for (alias, name) in [
            ("leveldb64", "lvl64"),
            ("hyperleveldb", "hyper"),
            ("pebblesdb", "pebbles"),
            ("rocksdb", "rocks"),
        ] {
            assert_eq!(show(alias), show(name));
        }
        let debug = |opts: Options| Some(format!("{opts:?}"));
        assert_eq!(show("rocksbolt"), debug(Options::rocksbolt()));
        assert_eq!(show("bolt_ls"), debug(Options::bolt_ls()));
        assert_eq!(show("Bolt"), None);
        assert_eq!(show(""), None);
    }

    #[test]
    fn profiles_match_paper_configurations() {
        assert_eq!(Options::leveldb().sstable_bytes, 2 << 20);
        assert_eq!(Options::leveldb_64mb().sstable_bytes, 64 << 20);
        assert!(Options::hyperleveldb().level0_stop_trigger.is_none());
        assert_eq!(
            Options::rocksdb().level0_stop_trigger,
            Some(36),
            "RocksDB stop trigger"
        );
        assert_eq!(Options::rocksdb().level1_max_bytes, 256 << 20);
        let rb = Options::rocksbolt();
        assert!(rb.bolt_options().is_some());
        assert_eq!(rb.level1_max_bytes, 256 << 20, "keeps RocksDB's L1");
        let bolt = Options::bolt();
        let b = bolt.bolt_options().unwrap();
        assert_eq!(b.logical_sstable_bytes, 1 << 20);
        assert_eq!(b.group_compaction_bytes, 64 << 20);
        assert!(b.settled_compaction && b.fd_cache);
    }

    #[test]
    fn ablations_stack_mechanisms() {
        let ls = Options::bolt_ls();
        let b = ls.bolt_options().unwrap();
        assert_eq!(b.group_compaction_bytes, b.logical_sstable_bytes);
        assert!(!b.settled_compaction && !b.fd_cache);

        let gc = Options::bolt_gc();
        assert!(gc.bolt_options().unwrap().group_compaction_bytes > 1 << 20);
        assert!(!gc.bolt_options().unwrap().settled_compaction);

        let stl = Options::bolt_stl();
        assert!(stl.bolt_options().unwrap().settled_compaction);
        assert!(!stl.bolt_options().unwrap().fd_cache);
    }

    #[test]
    fn output_table_bytes_follows_style() {
        assert_eq!(Options::leveldb().output_table_bytes(), 2 << 20);
        assert_eq!(Options::bolt().output_table_bytes(), 1 << 20);
        // Under the BoLT style a table is a logical SSTable: `sstable_bytes`
        // (here HyperLevelDB's) does not move it.
        let mut on_hyper = Options::bolt_ls();
        on_hyper.sstable_bytes = Options::hyperleveldb().sstable_bytes;
        assert_ne!(on_hyper.sstable_bytes, Options::bolt_ls().sstable_bytes);
        assert_eq!(on_hyper.output_table_bytes(), 1 << 20);
    }

    #[test]
    fn validation_catches_bad_configs() {
        for opts in [
            Options::leveldb(),
            Options::bolt(),
            Options::pebblesdb(),
            Options::rocksdb(),
            Options::bolt().scaled(1.0 / 512.0),
        ] {
            opts.validate().unwrap();
        }
        let mut bad = Options::leveldb();
        bad.num_levels = 1;
        assert!(bad.validate().is_err());

        let mut bad = Options::leveldb();
        bad.memtable_bytes = 0;
        assert!(bad.validate().is_err());

        let mut bad = Options::leveldb();
        bad.level0_slowdown_trigger = Some(12);
        bad.level0_stop_trigger = Some(8);
        assert!(bad.validate().is_err());

        let mut bad = Options::bolt();
        if let CompactionStyle::Bolt(b) = &mut bad.compaction_style {
            b.group_compaction_bytes = b.logical_sstable_bytes / 2;
        }
        assert!(bad.validate().is_err());
    }

    #[test]
    fn compaction_policy_round_trips_and_defaults() {
        for profile in [
            Options::leveldb(),
            Options::bolt(),
            Options::hyperbolt(),
            Options::rocksdb(),
        ] {
            assert_eq!(profile.compaction_policy, CompactionPolicyKind::Leveled);
            assert_eq!(profile.size_tiered_min_threshold, 4);
        }
        assert_eq!(
            Options::pebblesdb().compaction_policy,
            CompactionPolicyKind::Fragmented
        );
        // kind, name, MANIFEST tag, first single-run level of a 7-level tree.
        let kinds = [
            (CompactionPolicyKind::Leveled, "leveled", 0, 1),
            (CompactionPolicyKind::SizeTiered, "size_tiered", 1, 7),
            (CompactionPolicyKind::LazyLeveled, "lazy_leveled", 2, 6),
            (CompactionPolicyKind::Fragmented, "fragmented", 3, 7),
        ];
        // The trace schema's `policy` enum lists exactly these names.
        let schema = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/trace.schema.json"
        ));
        let names = kinds.map(|(_, name, _, _)| format!("\"{name}\""));
        let policy_enum = format!("\"enum\": [{}]", names.join(", "));
        assert!(schema.contains(&policy_enum), "{policy_enum}");
        for (kind, name, tag, single_run_from) in kinds {
            assert_eq!(kind.as_str(), name);
            assert_eq!(CompactionPolicyKind::parse(name), Some(kind));
            assert_eq!(kind.manifest_tag(), tag);
            assert_eq!(CompactionPolicyKind::from_manifest_tag(tag), Some(kind));
            assert_eq!(kind.single_run_from(7), single_run_from, "{name}");
        }
        assert_eq!(
            CompactionPolicyKind::parse("pebbles"),
            Some(CompactionPolicyKind::Fragmented)
        );
        assert_eq!(
            CompactionPolicyKind::parse("size-tiered"),
            Some(CompactionPolicyKind::SizeTiered)
        );
        assert_eq!(
            CompactionPolicyKind::parse("lazy-leveled"),
            Some(CompactionPolicyKind::LazyLeveled)
        );
        assert_eq!(CompactionPolicyKind::parse("mystery"), None);
        assert_eq!(CompactionPolicyKind::from_manifest_tag(99), None);
    }

    #[test]
    fn policy_validation_rules() {
        let mut opts = Options::bolt();
        opts.compaction_policy = CompactionPolicyKind::SizeTiered;
        opts.validate().unwrap();
        opts.compaction_policy = CompactionPolicyKind::LazyLeveled;
        opts.validate().unwrap();

        // The layout composes with either way of writing outputs.
        opts.compaction_policy = CompactionPolicyKind::Fragmented;
        opts.validate().unwrap();

        let mut bad = Options::bolt();
        bad.size_tiered_min_threshold = 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn write_options_override_resolution() {
        assert_eq!(WriteOptions::new().sync, None);
        assert_eq!(WriteOptions::with_sync(true).sync, Some(true));
        assert_eq!(WriteOptions::with_sync(false).sync, Some(false));
    }

    #[test]
    fn read_options_default_to_latest_state() {
        assert!(ReadOptions::new().snapshot.is_none());
        assert!(ReadOptions::default().snapshot.is_none());
    }

    #[test]
    fn scaling_preserves_ratios() {
        let opts = Options::bolt().scaled(1.0 / 64.0);
        let b = opts.bolt_options().unwrap();
        assert_eq!(
            b.group_compaction_bytes / b.logical_sstable_bytes,
            64,
            "group/logical ratio"
        );
        assert_eq!(opts.memtable_bytes, 64 << 10);
        assert_eq!(opts.vlog_segment_bytes, 1 << 20, "segment size scales too");
    }

    #[test]
    fn builder_groups_and_validates() {
        let opts = Options {
            memtable_bytes: 8 << 20,
            sync_wal: true,
            compaction_policy: CompactionPolicyKind::LazyLeveled,
            size_tiered_min_threshold: 3,
            value_separation_threshold: Some(4096),
            vlog_segment_bytes: 16 << 20,
            ..Options::bolt()
        };
        assert_eq!(opts.validate_all(), Vec::<String>::new());
        assert!(opts.bolt_options().is_some(), "profile carried through");
    }

    #[test]
    fn builder_reports_all_errors_at_once() {
        let problems = Options {
            memtable_bytes: 0,
            size_tiered_min_threshold: 1,
            value_separation_threshold: Some(0),
            vlog_segment_bytes: 0,
            ..Options::leveldb()
        }
        .validate_all();
        for expected in [
            "memtable, sstable and level-1 sizes must be positive",
            "size_tiered_min_threshold must be at least 2",
            "value_separation_threshold must be positive",
            "vlog_segment_bytes must be positive",
        ] {
            assert!(
                problems.iter().any(|p| p.contains(expected)),
                "missing {expected:?} in {problems:?}"
            );
        }
        assert_eq!(problems.len(), 4, "{problems:?}");
    }

    #[test]
    fn validate_matches_first_of_validate_all() {
        let mut bad = Options::leveldb();
        bad.num_levels = 1;
        bad.max_open_files = 0;
        let all = bad.validate_all();
        assert_eq!(all.len(), 2);
        let bolt_common::Error::InvalidArgument(first) = bad.validate().unwrap_err() else {
            panic!("wrong error kind");
        };
        assert_eq!(first, all[0]);
    }
}
