//! Phase tracing: per-phase wall time for the statement pipeline.
//!
//! A [`Tracer`] lives inside the `Database` and is shared by reference
//! with the processing code. Its counters are `Cell`s, which make the
//! recording methods `&self`, so tracing never fights the borrow of the
//! database it observes. When disabled (the default) [`Tracer::start`]
//! is a single flag read and no clock is read.

use std::cell::Cell;
use std::time::Instant;

/// The phases of statement processing, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Concrete syntax → abstract syntax (`sos_parser`).
    Parse,
    /// Name resolution and type checking (`sos_core::check`).
    Check,
    /// Rule-based rewriting (`sos_optimizer`).
    Optimize,
    /// Plan evaluation (`sos_exec`).
    Execute,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 4] = [Phase::Parse, Phase::Check, Phase::Optimize, Phase::Execute];

    /// Stable lower-case name (used by `Display` and the JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Check => "check",
            Phase::Optimize => "optimize",
            Phase::Execute => "execute",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Check => 1,
            Phase::Optimize => 2,
            Phase::Execute => 3,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated per-phase wall time: how often each phase ran and the
/// total nanoseconds it spent, since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    counts: [u64; 4],
    nanos: [u64; 4],
}

impl PhaseTimings {
    /// `(times the phase ran, total nanoseconds)` for one phase.
    pub fn phase(&self, p: Phase) -> (u64, u64) {
        (self.counts[p.index()], self.nanos[p.index()])
    }

    /// Total nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// True when no phase was ever recorded (tracing off or reset).
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Fold a span into the accumulated timings (what [`Tracer::finish`]
    /// does to its own copy).
    pub fn record(&mut self, p: Phase, nanos: u64) {
        self.counts[p.index()] += 1;
        self.nanos[p.index()] += nanos;
    }
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "phases: (no spans recorded; is tracing on?)");
        }
        write!(f, "phases:")?;
        for p in Phase::ALL {
            let (count, nanos) = self.phase(p);
            if count > 0 {
                write!(f, " {p} {}x {}", count, fmt_nanos(nanos))?;
            }
        }
        Ok(())
    }
}

/// Render a nanosecond count at a human scale (`412ns`, `3.2µs`, ...).
pub fn fmt_nanos(nanos: u64) -> String {
    match nanos {
        n if n < 1_000 => format!("{n}ns"),
        n if n < 1_000_000 => format!("{:.1}µs", n as f64 / 1_000.0),
        n if n < 1_000_000_000 => format!("{:.1}ms", n as f64 / 1_000_000.0),
        n => format!("{:.2}s", n as f64 / 1_000_000_000.0),
    }
}

/// The span recorder. All methods are `&self`; the enabled flag is read
/// once per phase in [`Tracer::start`].
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: Cell<bool>,
    timings: Cell<PhaseTimings>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        let t = Tracer::default();
        t.enabled.set(enabled);
        t
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Open a span: `None` (and no clock read) when tracing is off.
    /// This is the one flag check a phase pays.
    pub fn start(&self) -> Option<Instant> {
        if self.enabled.get() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a span opened by [`Tracer::start`] and account it to `p`.
    /// Returns the span's duration in nanoseconds, if one was open.
    pub fn finish(&self, p: Phase, started: Option<Instant>) -> Option<u64> {
        let started = started?;
        let nanos = started.elapsed().as_nanos() as u64;
        let mut t = self.timings.get();
        t.record(p, nanos);
        self.timings.set(t);
        Some(nanos)
    }

    /// Snapshot of the accumulated timings.
    pub fn timings(&self) -> PhaseTimings {
        self.timings.get()
    }

    /// Clear the accumulated timings (the enabled flag is unchanged).
    pub fn reset(&self) {
        self.timings.set(PhaseTimings::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.start();
        assert!(s.is_none());
        assert_eq!(t.finish(Phase::Parse, s), None);
        assert!(t.timings().is_empty());
    }

    #[test]
    fn enabled_tracer_accumulates_per_phase() {
        let t = Tracer::new(true);
        for _ in 0..3 {
            let s = t.start();
            assert!(t.finish(Phase::Check, s).is_some());
        }
        let s = t.start();
        t.finish(Phase::Execute, s);
        let timings = t.timings();
        assert_eq!(timings.phase(Phase::Check).0, 3);
        assert_eq!(timings.phase(Phase::Execute).0, 1);
        assert_eq!(timings.phase(Phase::Parse).0, 0);
        assert!(!timings.is_empty());
        t.reset();
        assert!(t.timings().is_empty());
        assert!(t.enabled());
    }

    #[test]
    fn toggling_survives_reset_and_formats() {
        let t = Tracer::new(false);
        t.set_enabled(true);
        let s = t.start();
        t.finish(Phase::Parse, s);
        let rendered = format!("{}", t.timings());
        assert!(rendered.contains("parse 1x"));
        assert_eq!(fmt_nanos(412), "412ns");
        assert_eq!(fmt_nanos(3_200), "3.2µs");
        assert_eq!(fmt_nanos(4_500_000), "4.5ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50s");
    }
}
