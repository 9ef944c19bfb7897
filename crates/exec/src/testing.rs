//! Unit-test support: engines bound to the built-in signature, and
//! applications resolved against it as the checker would.

use crate::engine::ExecEngine;
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{DataType, Signature, Symbol};
use std::sync::OnceLock;

fn builtin() -> &'static Signature {
    static SIG: OnceLock<Signature> = OnceLock::new();
    SIG.get_or_init(sos_system::builtin::builtin_signature)
}

pub(crate) fn engine() -> ExecEngine {
    let mut e = ExecEngine::new(sos_storage::mem_pool(16));
    e.bind_signature(builtin());
    e
}

/// `op(args)` at the first spec declared for `op`.
pub(crate) fn apply(op: &str, args: Vec<TypedExpr>, ty: DataType) -> TypedExpr {
    let op = Symbol::new(op);
    let spec = builtin().candidates(&op)[0];
    TypedExpr::new(TypedNode::Apply { op, spec, args }, ty)
}
