//! Per-operator execution accounting.
//!
//! The buffer pool's [`sos_storage::PoolStats`] measures page traffic
//! for the whole engine; `ExecStats` adds an operator-level view: how
//! often each operator ran, how many tuples flowed into and out of it,
//! and in how many batches. Tests and the `sos` shell's `.stats`
//! command read it.

use crate::compile::Fallback;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters for one operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Times the operator ran.
    pub invocations: u64,
    /// Always 0: the engine is serial. Kept only because the end-to-end
    /// benchmark still reads it (`exec.parallel_invocation_ratio`).
    pub parallel_invocations: u64,
    /// Tuples that reached the operator.
    pub tuples_in: u64,
    /// Tuples produced.
    pub tuples_out: u64,
    /// Batches emitted by the vectorized path (0 = tuple-at-a-time).
    pub batches: u64,
    /// Tuples carried by those batches; `batched_rows / batches` is the
    /// observed rows-per-batch.
    pub batched_rows: u64,
}

impl OpStats {
    /// Observed average batch width, or 0 if the operator never batched.
    pub fn rows_per_batch(&self) -> u64 {
        self.batched_rows.checked_div(self.batches).unwrap_or(0)
    }
}

/// Expression-compiler counters: how many closures were lowered to
/// bytecode and how many fell back to the interpreter, keyed by the
/// fallback reason (see [`crate::compile::Fallback`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Closures lowered to bytecode (one per compilation event; a
    /// `search_join` whose inner predicate recompiles per outer tuple
    /// counts each instance).
    pub compiled: u64,
    /// Interpreter fallbacks as `(reason, count)`, sorted by reason.
    pub fallbacks: Vec<(String, u64)>,
}

impl CompileStats {
    /// Total fallbacks across every reason.
    pub fn total_fallbacks(&self) -> u64 {
        self.fallbacks.iter().map(|(_, n)| n).sum()
    }

    /// The count for one fallback reason (0 if it never occurred).
    pub fn fallback(&self, reason: &str) -> u64 {
        self.fallbacks
            .iter()
            .find_map(|(r, n)| (r == reason).then_some(*n))
            .unwrap_or(0)
    }

    /// Whether nothing was compiled and nothing fell back.
    pub fn is_empty(&self) -> bool {
        self.compiled == 0 && self.fallbacks.is_empty()
    }

    /// Counter difference `self - before`: the compilation events
    /// attributable to one run.
    pub fn delta(&self, before: &CompileStats) -> CompileStats {
        let fallbacks = self
            .fallbacks
            .iter()
            .filter_map(|(r, n)| {
                let d = n - before.fallback(r);
                (d > 0).then(|| (r.clone(), d))
            })
            .collect();
        CompileStats {
            compiled: self.compiled - before.compiled,
            fallbacks,
        }
    }
}

/// Engine-wide per-operator counters, shared behind the engine. The
/// compile counters are lock-free: one atomic for compiled closures and
/// one per fallback reason (a `search_join` compiles once per outer
/// tuple).
#[derive(Default)]
pub struct ExecStats {
    ops: Mutex<HashMap<&'static str, OpStats>>,
    compiled: AtomicU64,
    fallbacks: [AtomicU64; Fallback::REASONS.len()],
}

impl ExecStats {
    /// Record one operator invocation.
    pub fn record(&self, op: &'static str, tuples_in: usize, tuples_out: usize) {
        let mut ops = self.ops.lock();
        let s = ops.entry(op).or_default();
        s.invocations += 1;
        s.tuples_in += tuples_in as u64;
        s.tuples_out += tuples_out as u64;
    }

    /// Record batch traffic for an operator that drained its input
    /// through the vectorized path (complements [`ExecStats::record`],
    /// which counts the invocation itself).
    pub fn record_batches(&self, op: &'static str, batches: u64, rows: u64) {
        if batches == 0 {
            return;
        }
        let mut ops = self.ops.lock();
        let s = ops.entry(op).or_default();
        s.batches += batches;
        s.batched_rows += rows;
    }

    /// Counters for one operator (zeros if it never ran). Prefer
    /// [`ExecStats::get`], which distinguishes "never ran" from zeros.
    pub fn op(&self, op: &str) -> OpStats {
        self.get(op).unwrap_or_default()
    }

    /// Counters for one operator, or `None` if it never ran.
    pub fn get(&self, op: &str) -> Option<OpStats> {
        self.ops.lock().get(op).copied()
    }

    /// All per-operator counters, sorted by operator name.
    pub fn snapshot(&self) -> Vec<(String, OpStats)> {
        let mut out: Vec<(String, OpStats)> = self
            .ops
            .lock()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Record one closure lowered to bytecode.
    pub fn record_compiled(&self) {
        self.compiled.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one interpreter fallback under its reason.
    pub fn record_fallback(&self, reason: &Fallback) {
        self.fallbacks[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// The expression-compiler counters, fallbacks sorted by reason.
    pub fn compile_snapshot(&self) -> CompileStats {
        let fallbacks = Fallback::REASONS
            .iter()
            .zip(&self.fallbacks)
            .map(|(r, n)| (r.to_string(), n.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect();
        CompileStats {
            compiled: self.compiled.load(Ordering::Relaxed),
            fallbacks,
        }
    }

    /// Reset every counter (e.g. between benchmark phases).
    pub fn reset(&self) {
        self.ops.lock().clear();
        self.compiled.store(0, Ordering::Relaxed);
        for n in &self.fallbacks {
            n.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_operator() {
        let s = ExecStats::default();
        s.record("count", 100, 1);
        s.record("count", 200, 1);
        let c = s.op("count");
        assert_eq!(c.invocations, 2);
        assert_eq!(c.parallel_invocations, 0);
        assert_eq!(c.tuples_in, 300);
        assert_eq!(c.tuples_out, 2);
        assert_eq!(s.op("feed"), OpStats::default());
        assert_eq!(s.get("feed"), None);
        assert_eq!(s.get("count"), Some(c));
        assert_eq!(s.snapshot().len(), 1);
        s.reset();
        assert_eq!(s.op("count"), OpStats::default());
    }

    #[test]
    fn compile_counters_accumulate_delta_and_reset() {
        let s = ExecStats::default();
        let object = Fallback::Object(sos_core::Symbol::new("r"));
        let impure = Fallback::ImpureOp(sos_core::Symbol::new("count"));
        assert!(s.compile_snapshot().is_empty());
        s.record_compiled();
        s.record_compiled();
        s.record_fallback(&object);
        s.record_fallback(&impure);
        s.record_fallback(&impure);
        let snap = s.compile_snapshot();
        assert_eq!(snap.compiled, 2);
        assert_eq!(snap.total_fallbacks(), 3);
        assert_eq!(snap.fallback("impure-op"), 2);
        assert_eq!(snap.fallback("object-ref"), 1);
        assert_eq!(snap.fallback("never"), 0);
        // Fallbacks come back sorted by reason for stable rendering.
        assert!(Fallback::REASONS.is_sorted());
        assert_eq!(snap.fallbacks[0].0, "impure-op");
        s.record_compiled();
        s.record_fallback(&object);
        let d = s.compile_snapshot().delta(&snap);
        assert_eq!(d.compiled, 1);
        assert_eq!(d.fallbacks, vec![("object-ref".to_string(), 1)]);
        s.reset();
        assert!(s.compile_snapshot().is_empty());
    }
}
