//! Harness-side statement tracing.
//!
//! The harness records, per statement, the instants around its own calls
//! into the public API (`sos_parser::parse_program`, `Database::execute`)
//! and the deltas of `Database::metrics()` read at the same boundaries.
//! From those it lays out one span tree per statement:
//!
//! ```text
//! stmt                      harness: parse call .. metrics read
//! ├─ parser.parse           sos_parser::parse_program
//! └─ system.execute         Database::execute
//!    ├─ core.check          Δ phases.check     (engine-measured duration)
//!    ├─ optimizer.optimize  Δ phases.optimize  (engine-measured duration)
//!    ├─ exec.execute        Δ phases.execute   (engine-measured duration)
//!    └─ system.commit       writes only: the rest of system.execute
//! ```
//!
//! The three phase children carry durations the engine measured; their
//! start instants are reconstructed back to back from the start of
//! `system.execute`. Records stay in memory during the run and are
//! written as JSON lines afterwards.

use crate::gen::Class;
use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;

/// Counter deltas of one statement, read at the span boundaries.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub rule_attempts: u64,
    pub rewrites: u64,
    pub logical_reads: u64,
    pub physical_reads: u64,
    pub evictions: u64,
    pub wal_bytes: u64,
    pub wal_syncs: u64,
}

/// What the harness measured for one statement; all instants are
/// nanoseconds since the start of the pass.
#[derive(Clone, Copy)]
pub struct StmtRecord {
    pub class: Class,
    pub start: u64,
    pub parse_end: u64,
    pub execute_end: u64,
    pub end: u64,
    pub check_ns: u64,
    pub optimize_ns: u64,
    pub exec_ns: u64,
    pub counters: Counters,
}

pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: u64,
    pub end: u64,
}

impl StmtRecord {
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = vec![
            Span {
                name: "stmt",
                parent: None,
                start: self.start,
                end: self.end,
            },
            Span {
                name: "parser.parse",
                parent: Some("stmt"),
                start: self.start,
                end: self.parse_end,
            },
            Span {
                name: "system.execute",
                parent: Some("stmt"),
                start: self.parse_end,
                end: self.execute_end,
            },
        ];
        let mut at = self.parse_end;
        for (name, ns) in [
            ("core.check", self.check_ns),
            ("optimizer.optimize", self.optimize_ns),
            ("exec.execute", self.exec_ns),
        ] {
            let end = (at + ns).min(self.execute_end);
            spans.push(Span {
                name,
                parent: Some("system.execute"),
                start: at,
                end,
            });
            at = end;
        }
        if self.class.is_write() {
            spans.push(Span {
                name: "system.commit",
                parent: Some("system.execute"),
                start: at,
                end: self.execute_end,
            });
        }
        spans
    }
}

#[derive(Default)]
pub struct Trace {
    pub stmts: Vec<StmtRecord>,
}

impl Trace {
    /// Total and self nanoseconds per span name, over every statement. A
    /// span's self time is its duration minus what its children cover,
    /// so the self times of one statement add up to its root span.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for rec in &self.stmts {
            let spans = rec.spans();
            for s in &spans {
                let children: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.name))
                    .map(|c| (c.start, c.end))
                    .collect();
                let e = out.entry(s.name).or_default();
                e.0 += s.end - s.start;
                e.1 += self_time((s.start, s.end), &children);
            }
        }
        out
    }

    /// Engine-measured execute time and statement count of one class.
    pub fn exec_ns_of(&self, class: Class) -> (u64, u64) {
        let of_class = self.stmts.iter().filter(|r| r.class == class);
        (
            of_class.clone().map(|r| r.exec_ns).sum(),
            of_class.count() as u64,
        )
    }

    /// One JSON object per span; the root span of a statement also
    /// carries its class and counter deltas.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, rec) in self.stmts.iter().enumerate() {
            for s in rec.spans() {
                write!(
                    w,
                    "{{\"stmt\":{id},\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}",
                    s.name,
                    s.parent.map_or("null".into(), |p| format!("\"{p}\"")),
                    s.start,
                    s.end
                )?;
                if s.parent.is_none() {
                    let c = &rec.counters;
                    write!(
                        w,
                        ",\"class\":\"{}\",\"counters\":{{\"rule_attempts\":{},\"rewrites\":{},\
                         \"logical_reads\":{},\"physical_reads\":{},\"evictions\":{},\
                         \"wal_bytes\":{},\"wal_syncs\":{}}}",
                        rec.class.name(),
                        c.rule_attempts,
                        c.rewrites,
                        c.logical_reads,
                        c.physical_reads,
                        c.evictions,
                        c.wal_bytes,
                        c.wal_syncs
                    )?;
                }
                writeln!(w, "}}")?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(class: Class) -> StmtRecord {
        StmtRecord {
            class,
            start: 100,
            parse_end: 130,
            execute_end: 200,
            end: 210,
            check_ns: 10,
            optimize_ns: 20,
            exec_ns: 25,
            counters: Counters::default(),
        }
    }

    #[test]
    fn self_times_of_a_statement_add_up_to_its_root_span() {
        for class in [Class::PointEq, Class::Insert] {
            let trace = Trace {
                stmts: vec![record(class)],
            };
            let totals = trace.totals();
            let self_sum: u64 = totals.values().map(|(_, own)| own).sum();
            assert_eq!(self_sum, 110, "{class:?}");
            assert_eq!(totals["stmt"], (110, 10));
            assert_eq!(totals["parser.parse"], (30, 30));
            assert_eq!(totals["exec.execute"], (25, 25));
            if class.is_write() {
                // the remainder of system.execute is the commit
                assert_eq!(totals["system.commit"], (15, 15));
                assert_eq!(totals["system.execute"], (70, 0));
            } else {
                assert_eq!(totals["system.execute"], (70, 15));
            }
        }
    }

    #[test]
    fn engine_phases_are_clamped_into_system_execute() {
        let mut rec = record(Class::PointEq);
        rec.exec_ns = 1_000;
        let spans = rec.spans();
        assert!(spans.iter().all(|s| s.start <= s.end && s.end <= rec.end));
        assert_eq!(spans.last().unwrap().end, rec.execute_end);
    }
}
