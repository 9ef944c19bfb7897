//! The unified metrics registry snapshot.
//!
//! Before this crate the system exposed three disconnected surfaces —
//! `pool_stats` (page traffic), `last_optimizer_stats` (rewrite
//! counters), `exec_stats` (per-operator rows) — plus the phase timings
//! nobody collected. A [`MetricsSnapshot`] is all four taken together,
//! which is what `Database::metrics()` returns and the `sos` shell's
//! `.metrics` command prints.

use crate::json::{array, Obj};
use crate::trace::{Phase, PhaseTimings};
use sos_exec::{CompileStats, OpStats};
use sos_optimizer::OptimizerStats;
use sos_storage::{CheckpointStats, PoolStats, WalStats};

/// One consistent view of every counter the system keeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Buffer-pool page traffic since the last reset.
    pub pool: PoolStats,
    /// Optimizer counters accumulated over every statement since the
    /// last reset (not just the most recent one).
    pub optimizer: OptimizerStats,
    /// Per-operator runtime rows, sorted by operator name.
    pub ops: Vec<(String, OpStats)>,
    /// Per-phase wall time (empty unless tracing was on).
    pub phases: PhaseTimings,
    /// Write-ahead log traffic (all zero for a non-durable database).
    pub wal: WalStats,
    /// Expression-compiler counters: lambdas lowered to bytecode.
    pub compile: CompileStats,
    /// Stored records decoded into tuples by scans and index searches
    /// (`exec.rows_decoded`; records a pushed-down filter rejects or a
    /// fused aggregate folds in place are not decoded).
    pub rows_decoded: u64,
    /// Batches the columnar (tier-B) expression kernel evaluated to the
    /// end (`exec.columnar_batches`; 0 when every batch ran row by row).
    pub columnar_batches: u64,
    /// Statement-cache counters (all zero while no statement consulted
    /// the cache: optimizer off).
    pub planner: PlannerStats,
}

/// Statement-cache traffic: hits rebind a cached plan and skip check
/// and rewrite; misses check, optimize and (when the shape's typing does
/// not depend on its literals) populate the cache; invalidations are
/// entries evicted by DDL or new specs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlannerStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
}

impl PlannerStats {
    /// True when the statement cache never saw traffic (rendering
    /// elides the planner line).
    pub fn is_empty(&self) -> bool {
        *self == PlannerStats::default()
    }
}

impl MetricsSnapshot {
    /// The runtime row for one operator, if it ever ran.
    pub fn op(&self, name: &str) -> Option<&OpStats> {
        self.ops.iter().find_map(|(n, s)| (n == name).then_some(s))
    }

    /// JSON encoding (consumed by the bench harness).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.raw("pool", &pool_json(&self.pool));
        o.raw(
            "optimizer",
            &Obj::new()
                .u64("rewrites", self.optimizer.rewrites as u64)
                .u64("rule_attempts", self.optimizer.rule_attempts as u64)
                .u64("optimize_ns", self.optimizer.optimize_ns)
                .u64("cache_lookup_ns", self.optimizer.cache_lookup_ns)
                .finish(),
        );
        o.raw(
            "planner",
            &Obj::new()
                .u64("cache_hits", self.planner.cache_hits)
                .u64("cache_misses", self.planner.cache_misses)
                .u64("cache_invalidations", self.planner.cache_invalidations)
                .u64("cache_entries", self.planner.cache_entries)
                .finish(),
        );
        o.raw(
            "ops",
            &array(self.ops.iter().map(|(name, s)| op_json(name, s))),
        );
        o.raw("phases", &phases_json(&self.phases));
        o.raw("wal", &wal_json(&self.wal));
        o.raw("compile", &compile_json(&self.compile));
        o.raw("exec", &exec_json(self.rows_decoded));
        o.u64("columnar_batches", self.columnar_batches);
        o.finish()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "pool: {} logical reads ({} hits, {} physical), {} writes, {} evictions",
            self.pool.logical_reads,
            self.pool.cache_hits,
            self.pool.physical_reads,
            self.pool.physical_writes,
            self.pool.evictions
        )?;
        writeln!(
            f,
            "optimizer: {} rewrite(s) from {} rule attempt(s)",
            self.optimizer.rewrites, self.optimizer.rule_attempts
        )?;
        if self.optimizer.optimize_ns > 0 {
            writeln!(
                f,
                "planner time: {} µs total ({} µs cache lookup)",
                self.optimizer.optimize_ns / 1_000,
                self.optimizer.cache_lookup_ns / 1_000
            )?;
        }
        if !self.planner.is_empty() {
            writeln!(
                f,
                "plan cache: {} hit(s), {} miss(es), {} invalidation(s), {} entrie(s)",
                self.planner.cache_hits,
                self.planner.cache_misses,
                self.planner.cache_invalidations,
                self.planner.cache_entries
            )?;
        }
        if self.ops.is_empty() {
            writeln!(f, "operators: (none run yet)")?;
        }
        for (name, s) in &self.ops {
            writeln!(f, "op {name}: {}", op_line(s))?;
        }
        if !self.wal.is_empty() {
            writeln!(f, "wal: {}", wal_line(&self.wal))?;
        }
        if !self.compile.is_empty() {
            writeln!(f, "compile: {}", compile_line(&self.compile))?;
        }
        if self.rows_decoded > 0 {
            writeln!(f, "exec: {}", exec_line(self.rows_decoded))?;
        }
        if self.columnar_batches > 0 {
            writeln!(f, "columnar: {} batch(es)", self.columnar_batches)?;
        }
        write!(f, "{}", self.phases)
    }
}

/// The one-line rendering of an operator row shared by `.stats`,
/// `.metrics` and `Explain` output.
pub fn op_line(s: &OpStats) -> String {
    let mut line = format!(
        "{} run(s), {} in / {} out",
        s.invocations, s.tuples_in, s.tuples_out
    );
    if s.batches > 0 {
        line.push_str(&format!(
            ", {} batch(es) of ~{} row(s)",
            s.batches,
            s.rows_per_batch()
        ));
    }
    line
}

/// The one-line rendering of WAL counters shared by `.metrics` and
/// EXPLAIN ANALYZE output.
pub fn wal_line(w: &WalStats) -> String {
    let mut line = format!(
        "{} record(s) ({} page image(s), {} commit(s), {} abort(s)), {} byte(s), {} sync(s)",
        w.records, w.page_images, w.commits, w.aborts, w.bytes, w.syncs
    );
    if w.checkpoints > 0 {
        line.push_str(&format!(", {} checkpoint(s)", w.checkpoints));
    }
    line
}

/// The one-line rendering of what a checkpoint did, shared by the
/// shell's `.checkpoint` command.
pub fn checkpoint_line(c: &CheckpointStats) -> String {
    format!(
        "{} page(s) written, log scan start {} -> {}, {} µs",
        c.pages_written, c.start_lsn, c.end_lsn, c.duration_micros
    )
}

/// JSON encoding of a [`CheckpointStats`] (consumed by tooling driving
/// the shell and by the bench harness).
pub fn checkpoint_json(c: &CheckpointStats) -> String {
    Obj::new()
        .u64("pages_written", c.pages_written)
        .u64("start_lsn", c.start_lsn)
        .u64("end_lsn", c.end_lsn)
        .u64("duration_micros", c.duration_micros)
        .finish()
}

/// The one-line rendering of expression-compiler counters shared by
/// `.metrics` and EXPLAIN ANALYZE output.
pub fn compile_line(c: &CompileStats) -> String {
    format!("{} expr(s) compiled", c.compiled)
}

/// The one-line rendering of the executor's decode counter shared by
/// `.metrics` and EXPLAIN ANALYZE output.
pub fn exec_line(rows_decoded: u64) -> String {
    format!("{rows_decoded} row(s) decoded")
}

pub(crate) fn exec_json(rows_decoded: u64) -> String {
    Obj::new().u64("rows_decoded", rows_decoded).finish()
}

pub(crate) fn compile_json(c: &CompileStats) -> String {
    Obj::new().u64("compiled", c.compiled).finish()
}

pub(crate) fn wal_json(w: &WalStats) -> String {
    Obj::new()
        .u64("records", w.records)
        .u64("page_images", w.page_images)
        .u64("commits", w.commits)
        .u64("aborts", w.aborts)
        .u64("bytes", w.bytes)
        .u64("syncs", w.syncs)
        .u64("checkpoints", w.checkpoints)
        .finish()
}

pub(crate) fn pool_json(p: &PoolStats) -> String {
    Obj::new()
        .u64("logical_reads", p.logical_reads)
        .u64("cache_hits", p.cache_hits)
        .u64("physical_reads", p.physical_reads)
        .u64("physical_writes", p.physical_writes)
        .u64("evictions", p.evictions)
        .finish()
}

pub(crate) fn op_json(name: &str, s: &OpStats) -> String {
    Obj::new()
        .str("op", name)
        .u64("invocations", s.invocations)
        .u64("tuples_in", s.tuples_in)
        .u64("tuples_out", s.tuples_out)
        .u64("batches", s.batches)
        .u64("batched_rows", s.batched_rows)
        .finish()
}

pub(crate) fn phases_json(t: &PhaseTimings) -> String {
    array(Phase::ALL.iter().filter_map(|&p| {
        let (count, nanos) = t.phase(p);
        (count > 0).then(|| {
            Obj::new()
                .str("phase", p.name())
                .u64("count", count)
                .u64("nanos", nanos)
                .finish()
        })
    }))
}

/// Per-operator difference `after - before`: the rows attributable to
/// one run. Operators absent from `before` pass through unchanged.
pub fn ops_delta(
    before: &[(String, OpStats)],
    after: &[(String, OpStats)],
) -> Vec<(String, OpStats)> {
    after
        .iter()
        .filter_map(|(name, a)| {
            let b = before
                .iter()
                .find_map(|(n, s)| (n == name).then_some(*s))
                .unwrap_or_default();
            let d = OpStats {
                invocations: a.invocations - b.invocations,
                parallel_invocations: 0,
                tuples_in: a.tuples_in - b.tuples_in,
                tuples_out: a.tuples_out - b.tuples_out,
                batches: a.batches - b.batches,
                batched_rows: a.batched_rows - b.batched_rows,
            };
            // `materialize` records only batch traffic, so that alone
            // also keeps a row alive in the delta.
            (d.invocations > 0 || d.batches > 0).then(|| (name.clone(), d))
        })
        .collect()
}

/// Pool counter difference `after - before`.
pub fn pool_delta(before: &PoolStats, after: &PoolStats) -> PoolStats {
    PoolStats {
        logical_reads: after.logical_reads - before.logical_reads,
        cache_hits: after.cache_hits - before.cache_hits,
        physical_reads: after.physical_reads - before.physical_reads,
        physical_writes: after.physical_writes - before.physical_writes,
        evictions: after.evictions - before.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(invocations: u64, tuples_in: u64) -> OpStats {
        OpStats {
            invocations,
            tuples_in,
            ..OpStats::default()
        }
    }

    #[test]
    fn snapshot_renders_and_serializes() {
        let snap = MetricsSnapshot {
            pool: PoolStats {
                logical_reads: 10,
                cache_hits: 8,
                physical_reads: 2,
                physical_writes: 1,
                evictions: 0,
            },
            optimizer: OptimizerStats {
                rewrites: 3,
                rule_attempts: 17,
                ..OptimizerStats::default()
            },
            ops: vec![("filter".into(), row(2, 100))],
            phases: PhaseTimings::default(),
            wal: WalStats {
                records: 4,
                page_images: 2,
                commits: 1,
                bytes: 16500,
                syncs: 1,
                checkpoints: 2,
                ..WalStats::default()
            },
            compile: CompileStats {
                compiled: 5,
                fallbacks: Vec::new(),
            },
            rows_decoded: 42,
            columnar_batches: 3,
            planner: PlannerStats {
                cache_hits: 9,
                cache_misses: 2,
                cache_invalidations: 1,
                cache_entries: 2,
            },
        };
        let text = snap.to_string();
        assert!(text.contains("pool: 10 logical reads"));
        assert!(text.contains("optimizer: 3 rewrite(s) from 17 rule attempt(s)"));
        assert!(text.contains("op filter: 2 run(s)"));
        assert_eq!(snap.op("filter").unwrap().tuples_in, 100);
        assert!(snap.op("feed").is_none());
        assert!(text.contains("wal: 4 record(s) (2 page image(s), 1 commit(s)"));
        assert!(text.contains("16500 byte(s), 1 sync(s), 2 checkpoint(s)"));
        assert!(text.contains("compile: 5 expr(s) compiled\n"));
        assert!(text.contains("plan cache: 9 hit(s), 2 miss(es), 1 invalidation(s), 2 entrie(s)"));
        assert!(text.contains("exec: 42 row(s) decoded"));
        assert!(text.contains("columnar: 3 batch(es)"));
        // Timing split renders only once optimization actually ran.
        assert!(!text.contains("planner time:"));
        let json = snap.to_json();
        assert!(json.contains(r#""cache_hits":9"#));
        assert!(json.contains(r#""optimize_ns":0"#));
        assert!(json.contains(r#""logical_reads":10"#));
        assert!(json.contains(r#""op":"filter""#));
        assert!(json.contains(r#""page_images":2"#));
        assert!(json.contains(r#""syncs":1,"checkpoints":2}"#));
        assert!(json.contains(r#""exec":{"rows_decoded":42}"#));
        assert!(json.contains(r#""columnar_batches":3"#));
        let ckpt = CheckpointStats {
            pages_written: 3,
            start_lsn: 100,
            end_lsn: 900,
            duration_micros: 42,
        };
        assert_eq!(
            checkpoint_line(&ckpt),
            "3 page(s) written, log scan start 100 -> 900, 42 µs"
        );
        assert!(checkpoint_json(&ckpt).contains(r#""pages_written":3"#));
        assert!(json.contains(r#""compile":{"compiled":5}"#));
        // A zeroed WAL and an idle compiler stay out of the human
        // rendering but keep their JSON shape.
        let quiet = MetricsSnapshot::default();
        assert!(!quiet.to_string().contains("wal:"));
        assert!(!quiet.to_string().contains("compile:"));
        assert!(quiet.to_json().contains(r#""wal""#));
        assert!(quiet.to_json().contains(r#""compile""#));
    }

    #[test]
    fn deltas_subtract_counters_and_drop_idle_ops() {
        let before = vec![("feed".into(), row(1, 50)), ("count".into(), row(4, 4))];
        let after = vec![
            ("feed".into(), row(3, 120)),
            ("count".into(), row(4, 4)),
            ("filter".into(), row(1, 70)),
        ];
        let d = ops_delta(&before, &after);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, "feed");
        assert_eq!(d[0].1.invocations, 2);
        assert_eq!(d[0].1.tuples_in, 70);
        assert_eq!(d[1].0, "filter");
        let pd = pool_delta(
            &PoolStats {
                logical_reads: 5,
                ..PoolStats::default()
            },
            &PoolStats {
                logical_reads: 9,
                cache_hits: 2,
                ..PoolStats::default()
            },
        );
        assert_eq!(pd.logical_reads, 4);
        assert_eq!(pd.cache_hits, 2);
    }
}
