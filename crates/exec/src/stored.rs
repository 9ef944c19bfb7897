//! Persistent images of runtime values: the object half of the catalog
//! snapshot a durable commit logs as its WAL meta record.
//! Representation handles persist as their storage metadata (page
//! lists, roots, directory snapshots); model values persist as encoded
//! records. Function values (views) cannot be persisted — after a
//! reopen they read as undefined until their defining update is re-run.

use crate::engine::ExecEngine;
use crate::error::{ExecError, ExecResult};
use crate::handles::{BTreeHandle, KeyExtractor, LsdHandle};
use crate::value::Value;
use sos_core::check::ObjectEnv;
use sos_core::{DataType, Signature};
use sos_storage::btree::BTree;
use sos_storage::heap::HeapFile;
use sos_storage::lsdtree::{LsdSnapshot, LsdTree};
use sos_storage::PageId;
use std::rc::Rc;

/// A serializable value image.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum StoredValue {
    /// An atomic or tuple value, as an encoded record (a bare atomic
    /// value is stored as a one-field record with `tuple=false`).
    Record {
        bytes: Vec<u8>,
        tuple: bool,
    },
    /// A model relation: encoded tuple records.
    Rel(Vec<Vec<u8>>),
    SRel(Vec<PageId>),
    TidRel(Vec<PageId>),
    BTree {
        root: PageId,
        len: usize,
    },
    LsdTree(LsdSnapshot),
    /// A catalog object's name token.
    CatalogToken(String),
    Undefined,
}

/// Convert a runtime value into its persistent image. Returns `None` for
/// values that cannot be persisted (function values / views).
pub fn to_stored(v: &Value) -> ExecResult<Option<StoredValue>> {
    Ok(Some(match v {
        Value::Closure(_) => return Ok(None),
        Value::Cursor(_) => {
            return Err(ExecError::Other(
                "a pipelined stream cannot be persisted (drain it first)".into(),
            ))
        }
        Value::Undefined => StoredValue::Undefined,
        Value::Ident(n) => StoredValue::CatalogToken(n.to_string()),
        Value::Tuple(_) => StoredValue::Record {
            bytes: v.encode_tuple("save")?,
            tuple: true,
        },
        Value::Rel(ts) | Value::Stream(ts) => StoredValue::Rel(
            ts.iter()
                .map(|t| t.encode_tuple("save"))
                .collect::<ExecResult<_>>()?,
        ),
        Value::SRel(h) => StoredValue::SRel(h.pages()),
        Value::TidRel(h) => StoredValue::TidRel(h.pages()),
        Value::BTree(h) => StoredValue::BTree {
            root: h.tree.root(),
            len: h.tree.len(),
        },
        Value::LsdTree(h) => StoredValue::LsdTree(h.tree.snapshot()),
        // Atomic data values: one-field record.
        atomic => StoredValue::Record {
            bytes: Value::tuple(vec![atomic.clone()]).encode_tuple("save")?,
            tuple: false,
        },
    }))
}

/// Re-attach a persistent image over the engine's pool, using the
/// object's declared type to rebuild key extractors (the same logic as
/// `ExecEngine::init_value`).
pub fn from_stored(
    engine: &ExecEngine,
    sig: &Signature,
    env: &dyn ObjectEnv,
    ty: &DataType,
    stored: StoredValue,
) -> ExecResult<Value> {
    match stored {
        StoredValue::Undefined => Ok(Value::Undefined),
        StoredValue::CatalogToken(n) => Ok(Value::Ident(sos_core::Symbol::new(&n))),
        StoredValue::Record { bytes, tuple } => {
            let decoded = Value::decode_tuple(&bytes)?;
            if tuple {
                Ok(decoded)
            } else {
                let mut fields = decoded.into_tuple("load")?;
                if fields.len() == 1 {
                    Ok(fields.pop().expect("one field"))
                } else {
                    Err(ExecError::Other("malformed atomic record".into()))
                }
            }
        }
        StoredValue::Rel(rows) => Ok(Value::Rel(
            rows.iter()
                .map(|r| Value::decode_tuple(r))
                .collect::<ExecResult<_>>()?,
        )),
        StoredValue::SRel(pages) => Ok(Value::SRel(Rc::new(HeapFile::from_pages(
            engine.pool.clone(),
            pages,
        )))),
        StoredValue::TidRel(pages) => Ok(Value::TidRel(Rc::new(HeapFile::from_pages(
            engine.pool.clone(),
            pages,
        )))),
        StoredValue::BTree { root, len } => {
            // Rebuild the key extractor from the declared type by
            // initializing a throwaway handle, then swap in the real tree.
            let template = engine.init_value(sig, env, ty)?;
            let Value::BTree(th) = template else {
                return Err(ExecError::Other(format!(
                    "stored B-tree but type {ty} is not a B-tree constructor"
                )));
            };
            let key = match &th.key {
                KeyExtractor::Attr(i) => KeyExtractor::Attr(*i),
                KeyExtractor::Attrs(is) => KeyExtractor::Attrs(is.clone()),
                KeyExtractor::Fun(f) => KeyExtractor::Fun(f.clone()),
            };
            Ok(Value::BTree(Rc::new(BTreeHandle {
                tree: BTree::from_root(engine.pool.clone(), root, len),
                tuple_type: th.tuple_type.clone(),
                key,
            })))
        }
        StoredValue::LsdTree(snap) => {
            let template = engine.init_value(sig, env, ty)?;
            let Value::LsdTree(th) = template else {
                return Err(ExecError::Other(format!(
                    "stored LSD-tree but type {ty} is not an lsdtree constructor"
                )));
            };
            Ok(Value::LsdTree(Rc::new(LsdHandle {
                tree: LsdTree::from_snapshot(engine.pool.clone(), snap),
                tuple_type: th.tuple_type.clone(),
                keyfun: th.keyfun.clone(),
            })))
        }
    }
}
