//! Index search operators (Section 4): B-tree range queries (with
//! halfrange variants standing in for the paper's `bottom`/`top`
//! constants) and LSD-tree point/overlap searches.

use crate::engine::{EvalCtx, ExecEngine};
use crate::error::{mismatch, ExecError, ExecResult};
use crate::handles::encode_key;
use crate::stream::Cursor;
use crate::value::Value;
use sos_storage::keys;
use std::cell::RefCell;
use std::rc::Rc;

/// A pipelined range cursor over a clustered B-tree (`expected` names
/// the representation in the type-mismatch error).
fn range_cursor(
    op: &str,
    expected: &str,
    target: &Value,
    lo: Vec<u8>,
    hi: Vec<u8>,
) -> ExecResult<Value> {
    let Value::BTree(h) = target else {
        return Err(mismatch(op, expected, &target.kind_name()));
    };
    Ok(Value::Cursor(Rc::new(RefCell::new(Cursor::btree_range(
        h.clone(),
        lo,
        hi,
    )))))
}

pub fn register(e: &mut ExecEngine) {
    // range[lo, hi] — inclusive range query on a clustering B-tree.
    e.add_op("range", |_, _, args| {
        let lo = encode_key("range", &args[1])?;
        let hi = encode_key("range", &args[2])?;
        range_cursor("range", "btree", &args[0], lo, hi)
    });

    // range_from[lo] — halfrange `lo..top` (the paper's `top` constant).
    e.add_op("range_from", |_, _, args| {
        let lo = encode_key("range_from", &args[1])?;
        range_cursor("range_from", "btree", &args[0], lo, keys::top())
    });

    // range_to[hi] — halfrange `bottom..hi` (the paper's `bottom`).
    e.add_op("range_to", |_, _, args| {
        let hi = encode_key("range_to", &args[1])?;
        range_cursor("range_to", "btree", &args[0], keys::bottom(), hi)
    });

    // prefixmatch[v] — multi-attribute B-tree: all tuples whose first
    // key attribute equals v (Section 4's "query operator specifying
    // values for a prefix of the attributes used for indexing").
    e.add_op("prefixmatch", |_, _, args| {
        let prefix = encode_key("prefixmatch", &args[1])?;
        let mut hi = prefix.clone();
        hi.extend_from_slice(&keys::top());
        range_cursor("prefixmatch", "mbtree", &args[0], prefix, hi)
    });

    // prefixrange[v, lo, hi] — first attribute fixed, second attribute
    // in an inclusive range.
    e.add_op("prefixrange", |_, _, args| {
        let prefix = encode_key("prefixrange", &args[1])?;
        let mut lo = prefix.clone();
        lo.extend_from_slice(&encode_key("prefixrange", &args[2])?);
        let mut hi = prefix;
        hi.extend_from_slice(&encode_key("prefixrange", &args[3])?);
        hi.extend_from_slice(&keys::top());
        range_cursor("prefixrange", "mbtree", &args[0], lo, hi)
    });

    // exactmatch[k] — all tuples with key exactly k (a pipelined B-tree
    // range cursor).
    e.add_op("exactmatch", |_, _, args| {
        let k = encode_key("exactmatch", &args[1])?;
        range_cursor("exactmatch", "btree", &args[0], k.clone(), k)
    });

    // point_search[p] — all tuples whose indexed rectangle contains the
    // point.
    e.add_op("point_search", |ctx, _, args| {
        let Value::Point(p) = &args[1] else {
            return Err(mismatch("point_search", "point", &args[1].kind_name()));
        };
        spatial_search(ctx, "point_search", &args[0], |t| t.point_search(*p))
    });

    // overlap_search[r] — all tuples whose rectangle overlaps the query
    // rect.
    e.add_op("overlap_search", |ctx, _, args| {
        let Value::Rect(r) = &args[1] else {
            return Err(mismatch("overlap_search", "rect", &args[1].kind_name()));
        };
        spatial_search(ctx, "overlap_search", &args[0], |t| t.overlap_search(*r))
    });
}

/// One spatial probe against an LSD-tree, decoded into a stream.
fn spatial_search(
    ctx: &EvalCtx,
    op: &str,
    target: &Value,
    search: impl Fn(
        &sos_storage::lsdtree::LsdTree,
    ) -> sos_storage::StorageResult<Vec<sos_storage::lsdtree::Entry>>,
) -> ExecResult<Value> {
    let Value::LsdTree(h) = target else {
        return Err(mismatch(op, "lsdtree", &target.kind_name()));
    };
    let mut out = Vec::new();
    for entry in search(&h.tree).map_err(ExecError::Storage)? {
        out.push(Value::decode_tuple(&entry.payload)?);
    }
    ctx.engine.stats.record_decoded(out.len() as u64);
    Ok(Value::Stream(out))
}
