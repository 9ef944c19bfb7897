//! Execution engine: the second-order *algebra* giving the built-in
//! signature its semantics.
//!
//! Where `sos-core` is purely symbolic (types and typed terms), this
//! crate supplies carrier sets ([`Value`]) and operator functions
//! ([`engine::OpImpl`]) — the `(T_A, Δ_A, Ω_A)` of the paper's
//! Definition of a second-order algebra. Representation structures are
//! backed by `sos-storage` through a shared buffer pool, so every query
//! plan's page-touch cost is observable via [`sos_storage::PoolStats`].

mod error;
mod handles;
mod value;

pub mod compile;
pub mod engine;
pub mod ops;
pub mod stats;
pub mod stored;
pub mod stream;

#[cfg(test)]
mod testing;

pub use compile::CompiledFun;
pub use engine::{EvalCtx, ExecEngine, Layout};
pub use error::{ExecError, ExecResult};
pub use handles::{encode_key, BTreeHandle, KeyExtractor, LsdHandle};
pub use stats::{CompileStats, ExecStats, OpStats};
pub use value::{compare, render, Closure, Row, Value};
