//! Metric names and units, and the two things a run prints: one JSON
//! document with everything measured, then the driver's contract line.
//!
//! `BENCHMARK.json` lists the metrics every workload reports (and holds
//! their bounds); [`E2E`] and [`LAYERS`] must match it name for name and
//! unit for unit — a unit test checks that. Metrics that apply to some
//! workloads only ([`SPECIFIC`]) appear in the document of the workloads
//! they apply to and nowhere else: they are never reported as 0.

use sos_obs::json::Obj;
use std::collections::BTreeMap;

pub type Unit = &'static str;

/// End-to-end metrics every workload reports (`--trace 0`).
pub const E2E: [(&str, Unit); 5] = [
    ("setup_s", "s"),
    ("stmt_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports (`--trace 1`).
pub const LAYERS: [(&str, Unit); 42] = [
    ("parser.parse_us_per_stmt", "us"),
    ("core.check_us_per_stmt", "us"),
    ("optimizer.optimize_us_per_stmt", "us"),
    ("optimizer.rule_attempts_per_stmt", "count"),
    ("optimizer.rewrites_per_stmt", "count"),
    ("system.frontend_share", "ratio"),
    ("system.plan_cache_hit_ratio", "ratio"),
    ("system.bulk_load_us_per_row", "us"),
    ("load_rows_per_s", "1/s"),
    ("wal_bytes_per_user_byte", "ratio"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("exec.execute_us_per_stmt", "us"),
    ("exec.ns_per_row_in", "ns"),
    ("exec.rows_in_per_row_out", "ratio"),
    ("exec.rows_per_batch", "count"),
    ("exec.compiled_ratio", "ratio"),
    ("exec.parallel_invocation_ratio", "ratio"),
    ("geom.inside_ns", "ns"),
    ("storage.buffer.logical_reads_per_stmt", "count"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.evictions_per_stmt", "count"),
    ("storage.buffer.fetch_hit_ns", "ns"),
    ("storage.buffer.fetch_miss_ns", "ns"),
    ("storage.disk.physical_reads_per_stmt", "count"),
    ("storage.disk.physical_writes_per_stmt", "count"),
    ("storage.field.decode_ns_per_row", "ns"),
    ("storage.field.encode_ns_per_row", "ns"),
    ("storage.heap.scan_ns_per_row", "ns"),
    ("storage.btree.scan_ns_per_row", "ns"),
    ("storage.btree.bulk_load_ns_per_row", "ns"),
    ("storage.btree.lookup_ns", "ns"),
    ("storage.btree.pages_per_lookup", "count"),
    ("storage.btree.insert_ns", "ns"),
    ("storage.lsdtree.point_search_ns", "ns"),
    ("storage.lsdtree.pages_per_search", "count"),
    ("storage.wal.bytes_per_commit", "count"),
    ("storage.wal.page_images_per_commit", "count"),
    ("storage.wal.syncs_per_commit", "count"),
    ("storage.wal.commit_ns", "ns"),
    ("storage.checkpoint.pages_written", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.self_time_coverage", "ratio"),
];

/// Timings that exist on some workloads only; `*` stands for a statement
/// class name. Reported in the document where they apply.
pub const SPECIFIC: [(&str, Unit); 8] = [
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("reopen_s", "s"),
    ("system.lat_p50_ms.*", "ms"),
    ("system.commit_us_per_write", "us"),
    ("exec.search_join_us_per_outer", "us"),
    ("storage.wal.recover_ms_per_mb", "ms"),
    ("storage.checkpoint.ms", "ms"),
];

pub fn unit_of(name: &str) -> Option<Unit> {
    E2E.iter()
        .chain(&LAYERS)
        .chain(&SPECIFIC)
        .find(|(n, _)| match n.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => *n == name,
        })
        .map(|(_, u)| *u)
}

/// A measured value with the number of samples behind it.
#[derive(Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub n: u64,
}

#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Measured>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        assert!(unit_of(name).is_some(), "metric `{name}` has no unit");
        self.0.insert(name.to_string(), Measured { value, n });
    }

    /// `num / den`, or nothing measured when the denominator is zero.
    pub fn ratio(&mut self, name: &str, num: f64, den: u64) {
        if den > 0 {
            self.set(name, num / den as f64, den);
        }
    }

    fn json(&self) -> String {
        let mut o = Obj::new();
        for (name, m) in &self.0 {
            let unit = unit_of(name).expect("checked in set");
            o.raw(
                name,
                &Obj::new()
                    .f64("value", m.value)
                    .str("unit", unit)
                    .u64("n", m.n)
                    .finish(),
            );
        }
        o.finish()
    }
}

pub struct Env {
    pub cores: usize,
    pub commit: String,
    pub rustc: String,
    pub page_size: usize,
    pub pool_frames: usize,
    pub workers: usize,
    pub seed: u64,
    pub stmt_hash: u64,
    pub flush_policy: String,
}

pub struct Document {
    pub workload: &'static str,
    pub traced: bool,
    pub env: Env,
    pub rounds: usize,
    pub statements: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failures: Vec<String>,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub trace_file: Option<String>,
}

impl Document {
    pub fn json(&self) -> String {
        let e = &self.env;
        let mut o = Obj::new();
        o.str("workload", self.workload)
            .u64("trace", self.traced as u64)
            .raw(
                "env",
                &Obj::new()
                    .u64("cores", e.cores as u64)
                    .str("commit", &e.commit)
                    .str("rustc", &e.rustc)
                    .u64("page_size", e.page_size as u64)
                    .u64("pool_frames", e.pool_frames as u64)
                    .u64("workers", e.workers as u64)
                    .u64("seed", e.seed)
                    .str("stmt_hash", &format!("{:016x}", e.stmt_hash))
                    .str("flush_policy", &e.flush_policy)
                    .finish(),
            )
            .u64("rounds", self.rounds as u64)
            .u64("statements", self.statements)
            .u64("ops_attempted", self.ops_attempted)
            .u64("ops_failed", self.ops_failed)
            .raw(
                "failures",
                &sos_obs::json::array(self.failures.iter().map(|f| {
                    let mut s = String::new();
                    sos_obs::json::write_json_str(&mut s, f);
                    s
                })),
            )
            .raw("e2e", &self.e2e.json())
            .raw("layers", &self.layers.json());
        if let Some(f) = &self.trace_file {
            o.str("trace_file", f);
        }
        o.finish()
    }

    /// The line the driver reads: exactly the metrics BENCHMARK.json
    /// lists for this mode. A per-layer metric the workload does not
    /// exercise (no WAL in memory, say) has the value 0 there.
    pub fn contract_line(&self) -> String {
        let listed: &[(&str, Unit)] = if self.traced { &LAYERS } else { &E2E };
        let mut metrics = Obj::new();
        for (name, unit) in listed {
            let measured = self.layers.0.get(*name).or(self.e2e.0.get(*name));
            let value = measured.map_or(0.0, |m| m.value);
            metrics.raw(
                name,
                &Obj::new().f64("value", value).str("unit", unit).finish(),
            );
        }
        Obj::new()
            .raw(
                "correct",
                if self.ops_failed == 0 {
                    "true"
                } else {
                    "false"
                },
            )
            .u64("attempted", self.ops_attempted)
            .u64("failed", self.ops_failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json, JsonExt};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, Unit)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&E2E));
        assert_eq!(listed(&doc, "per_layer"), own(&LAYERS));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let field = |f| w.get(f).and_then(Json::as_str).expect(f);
                (field("name"), field("why"))
            })
            .collect();
        let own_workloads: Vec<(&str, &str)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn class_latencies_resolve_to_their_unit() {
        assert_eq!(unit_of("system.lat_p50_ms.point_eq"), Some("ms"));
        assert_eq!(unit_of("stmt_per_s"), Some("1/s"));
        assert_eq!(unit_of("no.such.metric"), None);
    }
}
