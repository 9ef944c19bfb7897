//! Pipeline observability for the SOS system.
//!
//! The paper presents parse → typecheck → optimize → execute as one
//! uniform, rule-driven pipeline (Sections 3–6); this crate makes that
//! pipeline *inspectable* end to end:
//!
//! * [`Tracer`] — a lightweight span recorder threaded through the
//!   phases of statement processing. Off by default: the enabled flag is
//!   checked exactly once per phase, and a disabled tracer does no
//!   clock reads and no allocation (sosbench reports the cost as
//!   `obs.trace_overhead_ratio`).
//! * [`MetricsSnapshot`] — the unified metrics registry: buffer-pool
//!   counters ([`sos_storage::PoolStats`]), cumulative optimizer
//!   counters ([`sos_optimizer::OptimizerStats`]), per-operator runtime
//!   rows ([`sos_exec::OpStats`]), and per-phase wall time, taken in one
//!   consistent snapshot.
//! * [`Explain`] — a structured EXPLAIN / EXPLAIN ANALYZE value: phase
//!   timings, the ordered rewrite trace (one
//!   [`sos_optimizer::RuleApplication`] per applied rule, in order), the
//!   final plan, and — after an analyzing run — actual per-operator
//!   tuple/page counts. Renders via `Display` and serializes to JSON for
//!   the bench harness.

pub mod explain;
pub mod json;
pub mod metrics;
pub mod trace;

pub use explain::{Explain, ExplainAnalysis, ExplainKind};
pub use metrics::{MetricsSnapshot, PlannerStats};
pub use trace::{Phase, PhaseTimings, Tracer};
