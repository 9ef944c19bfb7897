//! Built-in operator implementations: the Ω_A functions of the built-in
//! model and representation algebras, and the table that holds them.

pub mod basic;
pub(crate) mod indexes;
pub mod relational;
pub mod streams;
pub mod updates;

use crate::engine::{ExecEngine, OpImpl};
use basic::Atomic;
use sos_core::spec::OpName;
use sos_core::{Signature, Symbol};
use std::collections::HashMap;

/// Register every built-in operator.
pub fn register_builtins(engine: &mut ExecEngine) {
    basic::register(engine);
    relational::register(engine);
    streams::register(engine);
    indexes::register(engine);
    updates::register(engine);
}

/// Dense index of an operator in the [`OpTable`].
pub type OpId = usize;

/// One operator of the algebra: the function every application of its
/// name runs, whatever overload the checker matched.
pub struct OpEntry {
    pub name: Symbol,
    pub imp: OpImpl,
    /// The context-free evaluation of an atomic built-in: such an
    /// operator reads neither the object store nor the catalog, so the
    /// bytecode compiler and the parallel workers may run it anywhere.
    /// `None` for every other operator, and for a built-in whose
    /// implementation [`ExecEngine::add_op`] replaced.
    pub pure: Option<Atomic>,
}

/// The engine's operators, indexed by [`OpId`], plus the binding of the
/// signature's specs to them. The checker resolves every application to
/// a spec; evaluation follows that spec to its entry and never looks an
/// operator up by name.
#[derive(Default)]
pub struct OpTable {
    entries: Vec<OpEntry>,
    /// Registration-time index; all overloads of a name share its entry.
    by_name: HashMap<Symbol, OpId>,
    /// The entry of each spec of the bound signature (`None` for the
    /// attribute-access specs and for operators without an
    /// implementation).
    by_spec: Vec<Option<OpId>>,
}

impl OpTable {
    /// Register `name`, replacing the implementation (and purity) of an
    /// existing entry in place so that spec bindings stay valid.
    pub(crate) fn add(&mut self, name: &str, imp: OpImpl, pure: Option<Atomic>) {
        let name = Symbol::new(name);
        match self.by_name.get(&name) {
            Some(&id) => self.entries[id] = OpEntry { name, imp, pure },
            None => {
                self.by_name.insert(name.clone(), self.entries.len());
                self.entries.push(OpEntry { name, imp, pure });
            }
        }
    }

    /// Bind every fixed-name spec of `sig` to the entry of its name.
    pub(crate) fn bind(&mut self, sig: &Signature) {
        self.by_spec = sig
            .specs()
            .iter()
            .map(|spec| match &spec.name {
                OpName::Fixed(n) => self.by_name.get(n).copied(),
                OpName::Var(_) => None,
            })
            .collect();
    }

    /// The entry bound to spec `spec` of the signature.
    pub fn of_spec(&self, spec: usize) -> Option<(OpId, &OpEntry)> {
        let id = (*self.by_spec.get(spec)?)?;
        Some((id, &self.entries[id]))
    }

    /// The entry registered under `name` (registration and lint time).
    pub fn get(&self, name: &Symbol) -> Option<&OpEntry> {
        self.by_name.get(name).map(|&id| &self.entries[id])
    }

    /// Every entry, in registration order.
    pub fn entries(&self) -> &[OpEntry] {
        &self.entries
    }
}
