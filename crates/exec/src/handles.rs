//! Handles tying storage structures to their SOS types: what the paper's
//! `btree(...)`, `kbtree(...)` and `lsdtree(...)` types denote at run time.

use crate::error::{mismatch, ExecError, ExecResult};
use crate::value::{Closure, Value};
use sos_core::{DataType, Symbol};
use sos_storage::btree::BTree;
use sos_storage::keys::{self, KeyBytes};
use sos_storage::lsdtree::LsdTree;
use std::rc::Rc;

/// How a B-tree derives its key from a tuple: a plain attribute
/// (`btree(city, pop, int)`) or a key expression
/// (`kbtree(city, fun (c: city) c pop div 1000)`).
#[derive(Clone)]
pub enum KeyExtractor {
    /// Attribute index within the tuple.
    Attr(usize),
    /// Several attribute indices forming a composite key (the
    /// multi-attribute B-tree mentioned at the end of Section 4).
    Attrs(Vec<usize>),
    /// A key function, compiled once when the handle is made.
    Fun(Rc<Closure>),
}

/// A clustered B-tree plus its key derivation.
pub struct BTreeHandle {
    pub tree: BTree,
    pub tuple_type: DataType,
    pub key: KeyExtractor,
}

/// An LSD-tree plus its rectangle derivation function.
pub struct LsdHandle {
    pub tree: LsdTree,
    pub tuple_type: DataType,
    /// The key function producing the indexed `rect`, compiled once when
    /// the handle is made.
    pub keyfun: Rc<Closure>,
}

/// Encode an ORD value (`int`, `real`, `string`, `bool`) as a
/// memcomparable key. A `Pair` of ORD values encodes as the
/// concatenation of its components (composite keys order
/// lexicographically; see `sos_storage::keys`).
pub fn encode_key(op: &str, v: &Value) -> ExecResult<KeyBytes> {
    match v {
        Value::Int(x) => Ok(keys::int_key(*x)),
        Value::Real(x) => Ok(keys::real_key(*x)),
        Value::Str(s) => Ok(keys::str_key(s)),
        Value::Bool(b) => Ok(keys::bool_key(*b)),
        Value::Pair(components) => {
            let mut out = KeyBytes::new();
            for c in components {
                out.extend_from_slice(&encode_key(op, c)?);
            }
            Ok(out)
        }
        other => Err(mismatch(op, "ORD key value", &other.kind_name())),
    }
}

/// The attribute index of `attr` in a tuple type.
pub fn attr_index(tuple_ty: &DataType, attr: &Symbol) -> Option<usize> {
    tuple_ty.tuple_attrs()?.iter().position(|(a, _)| a == attr)
}

/// Load field `idx` of a tuple value: the evaluation of a checked
/// attribute access `attr(t)`, shared by the plan evaluator and the
/// bytecode.
pub(crate) fn load_field(tuple: &Value, idx: usize, attr: &Symbol) -> ExecResult<Value> {
    tuple
        .as_tuple(attr.as_str())?
        .get(idx)
        .cloned()
        .ok_or_else(|| too_short(attr))
}

/// The error of an attribute access past the end of a tuple.
pub(crate) fn too_short(attr: &Symbol) -> ExecError {
    ExecError::Other(format!("tuple too short for attribute `{attr}`"))
}
