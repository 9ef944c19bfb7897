//! Built-in operator implementations: the Ω_A functions of the built-in
//! model and representation algebras.

pub mod basic;
pub(crate) mod indexes;
pub mod relational;
pub mod streams;
pub mod updates;

use crate::engine::ExecEngine;

/// Register every built-in operator.
pub fn register_builtins(engine: &mut ExecEngine) {
    basic::register(engine);
    relational::register(engine);
    streams::register(engine);
    indexes::register(engine);
    updates::register(engine);
}
