//! Persistent images of runtime values: the object half of the catalog
//! snapshot a durable commit logs as its WAL meta record.
//! Representation handles persist as their storage metadata (page
//! lists, roots, LSD-tree directories); model values persist as encoded
//! records. Function values (views) cannot be persisted — after a
//! reopen they read as undefined until their defining update is re-run.
//!
//! An object is built one way per origin, both from the [`Layout`] its
//! catalog type derives: `create` allocates
//! ([`ExecEngine::init_value`]), and a reopen — or a failed statement
//! putting a structure back — attaches to existing pages
//! ([`from_stored`]). The statement bracket that takes and restores
//! these images lives in `sos-system`.

use crate::engine::{ExecEngine, Layout};
use crate::error::{ExecError, ExecResult};
use crate::handles::{BTreeHandle, LsdHandle};
use crate::value::Value;
use sos_core::check::ObjectEnv;
use sos_core::{DataType, Signature, Symbol};
use sos_storage::btree::BTree;
use sos_storage::heap::HeapFile;
use sos_storage::lsdtree::{LsdInner, LsdTree};
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
    LsdTree(LsdInner),
    /// A catalog object's name token.
    CatalogToken(String),
    Undefined,
}

impl StoredValue {
    /// The image's variant name, for errors.
    fn kind(&self) -> &'static str {
        match self {
            StoredValue::Record { .. } => "Record",
            StoredValue::Rel(_) => "Rel",
            StoredValue::SRel(_) => "SRel",
            StoredValue::TidRel(_) => "TidRel",
            StoredValue::BTree { .. } => "BTree",
            StoredValue::LsdTree(_) => "LsdTree",
            StoredValue::CatalogToken(_) => "CatalogToken",
            StoredValue::Undefined => "Undefined",
        }
    }
}

/// The image of a storage structure (heap file, B-tree, LSD-tree): the
/// in-memory half of its state — page list, root and length, or
/// directory — that a statement changes besides its pages. `None` for
/// any other value.
pub fn structure_image(v: &Value) -> Option<StoredValue> {
    Some(match v {
        Value::SRel(h) => StoredValue::SRel(h.pages()),
        Value::TidRel(h) => StoredValue::TidRel(h.pages()),
        Value::BTree(h) => StoredValue::BTree {
            root: h.tree.root(),
            len: h.tree.len(),
        },
        Value::LsdTree(h) => StoredValue::LsdTree(h.tree.snapshot()),
        _ => return None,
    })
}

/// Convert a runtime value into its persistent image. Returns `None` for
/// values that cannot be persisted (function values / views).
pub fn to_stored(v: &Value) -> ExecResult<Option<StoredValue>> {
    if let Some(image) = structure_image(v) {
        return Ok(Some(image));
    }
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
        // Atomic data values: one-field record.
        atomic => StoredValue::Record {
            bytes: Value::tuple(vec![atomic.clone()]).encode_tuple("save")?,
            tuple: false,
        },
    }))
}

/// Attach object `name`'s persistent image to the [`Layout`] its
/// declared type `ty` derives ([`ExecEngine::layout`]): a structure
/// re-attaches to the pages already on — or recovered to — the engine's
/// pool and allocates none. An image that does not fit the layout (a
/// B-tree image for an `srel` object, say) is refused with
/// [`ExecError::ImageMismatch`].
pub fn from_stored(
    engine: &ExecEngine,
    sig: &Signature,
    env: &dyn ObjectEnv,
    name: &Symbol,
    ty: &DataType,
    stored: StoredValue,
) -> ExecResult<Value> {
    let pool = || engine.pool.clone();
    Ok(match (engine.layout(sig, env, ty)?, stored) {
        (Layout::Catalog, StoredValue::CatalogToken(_)) => Value::Ident(name.clone()),
        (Layout::SRel, StoredValue::SRel(pages)) => {
            Value::SRel(Rc::new(HeapFile::from_pages(pool(), pages)))
        }
        (Layout::TidRel, StoredValue::TidRel(pages)) => {
            Value::TidRel(Rc::new(HeapFile::from_pages(pool(), pages)))
        }
        (Layout::BTree { tuple_type, key }, StoredValue::BTree { root, len }) => {
            Value::BTree(Rc::new(BTreeHandle {
                tree: BTree::from_root(pool(), root, len),
                tuple_type,
                key,
            }))
        }
        (Layout::LsdTree { tuple_type, keyfun }, StoredValue::LsdTree(directory)) => {
            Value::LsdTree(Rc::new(LsdHandle {
                tree: LsdTree::from_directory(pool(), directory),
                tuple_type,
                keyfun,
            }))
        }
        (Layout::Rel | Layout::Value, StoredValue::Undefined) => Value::Undefined,
        (Layout::Rel | Layout::Value, StoredValue::Rel(rows)) => Value::Rel(
            rows.iter()
                .map(|r| Value::decode_tuple(r))
                .collect::<ExecResult<_>>()?,
        ),
        (Layout::Value, StoredValue::CatalogToken(n)) => Value::Ident(Symbol::new(&n)),
        (Layout::Value, StoredValue::Record { bytes, tuple }) => {
            let decoded = Value::decode_tuple(&bytes)?;
            if tuple {
                decoded
            } else {
                let mut fields = decoded.into_tuple("load")?;
                if fields.len() != 1 {
                    return Err(ExecError::Other("malformed atomic record".into()));
                }
                fields.pop().expect("one field")
            }
        }
        (_, image) => {
            return Err(ExecError::ImageMismatch {
                object: name.clone(),
                image: image.kind(),
                object_type: ty.to_string(),
            })
        }
    })
}
