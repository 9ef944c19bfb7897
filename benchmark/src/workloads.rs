//! The five workloads: sizes, round lengths, and how each is set up.
//!
//! Sizes are frozen: a later change is measured on exactly these rows and
//! statement mixes. A *round* is the fixed number of statements executed
//! between two looks at the clock (and, for `durable_rw`, between two
//! checkpoints); a run is a whole number of rounds.

use crate::gen::{
    Generator, ItemsGen, ItemsSpec, ScanAggGen, ScanAggSpec, SpatialGen, SpatialSpec,
};

/// Where the database lives, and with it what surrounds the measured
/// phase.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// `Database::builder()` defaults: an in-memory pool of 4096 frames.
    Memory,
    /// Data pages and a write-ahead log in a directory
    /// (`DurabilityConfig::dir`, `SyncPolicy::PerCommit`), default pool.
    /// `Database::checkpoint()` runs between rounds, inside the measured
    /// wall time, and never after the last round, so the log tail a
    /// reopen replays is always one round long. Afterwards the directory
    /// is copied and reopened several times, and the first statements
    /// are replayed over disks that lose unsynced writes.
    Durable,
    /// As `Durable`, but after loading: checkpoint, drop, and reopen with
    /// this many buffer-pool frames (the one workload larger than the
    /// pool). No checkpoints while measuring, one reopen afterwards.
    DurableSmallPool(usize),
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub storage: Storage,
    /// Statements per round.
    pub round: usize,
    /// Statements executed (and checked) at the end of set-up.
    pub warmup: usize,
    make: fn(u64) -> Box<dyn Generator>,
}

impl Workload {
    pub fn generator(&self, seed: u64) -> Box<dyn Generator> {
        (self.make)(seed)
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "point_mix",
        why: "front end (parse, check, rewrite) is over half of each statement; exec and storage do little",
        storage: Storage::Memory,
        round: 4_000,
        warmup: 4_000,
        make: |seed| {
            Box::new(ItemsGen::new(
                ItemsSpec {
                    rows: 100_000,
                    pad: 20,
                    pct_insert: 10,
                    pct_delete: 10,
                    pct_range_rep: 0,
                    shapes: 24,
                    key_skew: None,
                },
                seed,
            ))
        },
    },
    Workload {
        name: "scan_agg",
        why: "exec (batches, kernels, decode, operators) is over 90 % of time; a front-end gain must not show here",
        storage: Storage::Memory,
        round: 50,
        warmup: 100,
        make: |seed| {
            Box::new(ScanAggGen::new(
                ScanAggSpec {
                    hitems: 40_000,
                    items: 10_000,
                    emps: 6_000,
                    depts: 50,
                },
                seed,
            ))
        },
    },
    Workload {
        name: "spatial_join",
        why: "the paper's search_join rewrite: per-tuple closure plus LSD-tree probe; geom and lsdtree carry the time",
        storage: Storage::Memory,
        round: 45,
        warmup: 45,
        make: |seed| {
            Box::new(SpatialGen::new(
                SpatialSpec {
                    cities_per_set: 1_000,
                    grid: 16,
                },
                seed,
            ))
        },
    },
    Workload {
        name: "durable_rw",
        why: "one WAL commit per write: wal and the commit bracket dominate; reads share the tree, checkpoints cycle",
        storage: Storage::Durable,
        round: 2_500,
        warmup: 1_000,
        make: |seed| {
            Box::new(ItemsGen::new(
                ItemsSpec {
                    rows: 50_000,
                    pad: 20,
                    pct_insert: 50,
                    pct_delete: 10,
                    pct_range_rep: 0,
                    shapes: 1,
                    key_skew: None,
                },
                seed,
            ))
        },
    },
    Workload {
        name: "cold_read",
        why: "data is 14x the buffer pool: eviction, disk reads and write-back under eviction set latency",
        storage: Storage::DurableSmallPool(256),
        round: 4_000,
        warmup: 4_000,
        make: |seed| {
            Box::new(ItemsGen::new(
                ItemsSpec {
                    rows: 200_000,
                    pad: 76,
                    pct_insert: 5,
                    pct_delete: 0,
                    pct_range_rep: 10,
                    shapes: 1,
                    key_skew: Some(0.99),
                },
                seed,
            ))
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
