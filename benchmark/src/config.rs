//! The pinned configuration: device model, engine options, record shape and
//! the six workloads. Every constant is copied here, not imported from the
//! repository's other harnesses, and every run prints them.

use std::time::Duration;

use bolt::{DeviceModel, Options};

use crate::gen::{KEY_LEN, VALUE_LEN};

/// The simulated device. Latencies are this model's, not a device's.
pub fn device_model() -> DeviceModel {
    DeviceModel {
        write_bandwidth: 64 << 20,
        read_bandwidth: 70 << 20,
        read_base_latency: Duration::from_micros(30),
        barrier_latency: Duration::from_millis(1),
        time_scale: 1.0,
    }
}

/// BoLT at 1/64 of the paper's capacities, WAL not synced per write.
///
/// The block cache is pinned at 2 MiB: the scaled 128 KiB is 8 KiB per LRU
/// shard (two blocks), and the 17-block hot set of `read_hot` thrashes it.
pub fn engine_options() -> Options {
    let mut opts = Options::bolt().scaled(1.0 / 64.0);
    opts.sync_wal = false;
    opts.block_cache_bytes = BLOCK_CACHE_BYTES;
    opts
}

pub const BLOCK_CACHE_BYTES: u64 = 2 << 20;

/// Bytes of user data in one record.
pub const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// Records per `put → flush → compact_until_quiet` step of `preload`: one
/// step stays below the 64 KiB memtable, so the engine never rotates on its
/// own and the tree shape after set-up does not depend on timing.
pub const PRELOAD_STEP: u64 = 200;
/// Keys adjacent in key order that the hot workloads stay inside.
pub const HOT_KEYS: u64 = 200;
/// Rows one scan reads after its seek.
pub const SCAN_ROWS: usize = 50;
/// Puts left in the memtable before the scan workloads start.
pub const SCAN_UNFLUSHED_PUTS: u64 = 150;
/// Share of `read_cold` gets that ask for a key that was never written.
pub const ABSENT_GET_SHARE: f64 = 0.10;
pub const ZIPFIAN_THETA: f64 = 0.99;
/// Client operations between two drains of `Db::events()` in a traced run;
/// the ring holds 4 096 events and `fill_random` emits one per put.
pub const EVENT_DRAIN_EVERY: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FillRandom,
    ReadCold,
    ReadHot,
    ScanCold,
    ScanHot,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::FillRandom,
        Workload::ReadCold,
        Workload::ReadHot,
        Workload::ScanCold,
        Workload::ScanHot,
        Workload::MixedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FillRandom => "fill_random",
            Workload::ReadCold => "read_cold",
            Workload::ReadHot => "read_hot",
            Workload::ScanCold => "scan_cold",
            Workload::ScanHot => "scan_hot",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Records `preload` writes before the measured phase.
    pub fn preload_records(self) -> u64 {
        match self {
            Workload::FillRandom => 0,
            // ~22 MiB: ~1 400 logical tables against a 1 000-entry table
            // cache, 11x the block cache.
            Workload::ReadCold => 80_000,
            Workload::ReadHot | Workload::ScanCold | Workload::ScanHot | Workload::MixedRw => {
                40_000
            }
        }
    }

    /// Client threads of the measured phase. `read_hot` alone uses two,
    /// because it is the only place reader lock contention can show; no
    /// workload runs more clients than there are cores.
    pub fn clients(self, cores: usize) -> usize {
        match self {
            Workload::ReadHot => 2.min(cores.max(1)),
            _ => 1,
        }
    }

    /// Untimed operations of the workload's own kind at the end of set-up,
    /// so that the caches are in their steady state when the clock starts.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::FillRandom => 0,
            Workload::ScanCold | Workload::ScanHot => 500,
            Workload::ReadCold | Workload::ReadHot | Workload::MixedRw => 2_000,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            // Opening an empty database takes milliseconds.
            Workload::FillRandom => 9,
            // A preload is seconds of modelled device time and repeats
            // within 2 % as it is.
            _ => 1,
        }
    }

    /// What one measured operation is.
    pub fn operation(self) -> &'static str {
        match self {
            Workload::FillRandom => "put of a new key",
            Workload::ReadCold => "get, uniform over all keys, 10 % absent",
            Workload::ReadHot => "get inside the 200-key hot range",
            Workload::ScanCold => "iter + seek + 50 next, uniform start",
            Workload::ScanHot => "iter + seek + 50 next, start in the hot range",
            Workload::MixedRw => "one get then one update, both zipfian 0.99",
        }
    }
}
