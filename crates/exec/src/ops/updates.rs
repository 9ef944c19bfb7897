//! Update functions (Section 6): operators whose first argument type
//! equals their result type; the statement processor assigns the result
//! back to the first-argument object.
//!
//! One `insert`/`delete`/`modify` name covers the model level (pure
//! functions over in-memory relations), the representation level
//! (mutating B-trees, heap files, LSD-trees in place and returning the
//! handle), and the catalog (Section 6's special catalog insert).
//!
//! Durability: these operators never touch the disk or the log
//! themselves. They dirty pages through the shared buffer pool, and the
//! statement processor (the statement bracket in `sos-system`) runs each
//! update statement in one pool transaction — over a WAL-backed pool the
//! dirtied pages are logged and committed (or rolled back) as one
//! atomic unit.

use crate::engine::{EvalCtx, ExecEngine};
use crate::error::{mismatch, ExecError, ExecResult};
use crate::handles::encode_key;
use crate::ops::relational::{arg_nodes, attr_index_of_node};
use crate::value::{Closure, Value};
use sos_core::typed::{TypedExpr, TypedNode};
use sos_core::{Const, Symbol};
use std::rc::Rc;

/// The object name of an application argument (catalog updates need the
/// name, not a value).
fn object_name(node: &TypedExpr) -> Option<&Symbol> {
    match &node.node {
        TypedNode::Object(n) => Some(n),
        _ => None,
    }
}

fn is_catalog(node: &TypedExpr) -> bool {
    matches!(&node.ty, sos_core::DataType::Cons(n, _) if n.as_str() == "catalog")
}

/// Insert one tuple value into any updatable collection (also used by
/// the system's bulk-load API).
pub fn insert_into(ctx: &mut EvalCtx, target: &Value, tuple: &Value) -> ExecResult<Value> {
    match target {
        Value::Rel(ts) => {
            let mut ts = ts.clone();
            ts.push(tuple.clone());
            Ok(Value::Rel(ts))
        }
        Value::Undefined => Ok(Value::Rel(vec![tuple.clone()])),
        Value::SRel(h) | Value::TidRel(h) => {
            h.insert(&tuple.encode_tuple("insert")?)?;
            Ok(target.clone())
        }
        Value::BTree(h) => {
            let key_val = ctx.key_value(h, tuple)?;
            let key = encode_key("insert", &key_val)?;
            h.tree.insert(&key, &tuple.encode_tuple("insert")?)?;
            Ok(target.clone())
        }
        Value::LsdTree(h) => {
            let rect = ctx.rect_value(h, tuple)?;
            h.tree.insert(rect, &tuple.encode_tuple("insert")?)?;
            Ok(target.clone())
        }
        other => Err(mismatch(
            "insert",
            "updatable collection",
            &other.kind_name(),
        )),
    }
}

fn delete_tuple(ctx: &mut EvalCtx, target: &Value, tuple: &Value) -> ExecResult<bool> {
    match target {
        Value::BTree(h) => {
            let key_val = ctx.key_value(h, tuple)?;
            let key = encode_key("delete", &key_val)?;
            Ok(h.tree.delete_exact(&key, &tuple.encode_tuple("delete")?)?)
        }
        Value::LsdTree(h) => {
            let rect = ctx.rect_value(h, tuple)?;
            Ok(h.tree.delete(rect, &tuple.encode_tuple("delete")?)?)
        }
        Value::SRel(h) | Value::TidRel(h) => {
            let bytes = tuple.encode_tuple("delete")?;
            for item in h.scan() {
                let (tid, rec) = item?;
                if rec == bytes {
                    h.delete(tid)?;
                    return Ok(true);
                }
            }
            Ok(false)
        }
        other => Err(mismatch(
            "delete",
            "representation structure",
            &other.kind_name(),
        )),
    }
}

/// Apply a stream-modifying function to a stream of tuples and pair each
/// original with its modified version.
fn modified_pairs(
    ctx: &mut EvalCtx,
    tuples: &[Value],
    fun: &Rc<Closure>,
    op: &str,
) -> ExecResult<Vec<(Value, Value)>> {
    let out = ctx.call(fun, vec![Value::Stream(tuples.to_vec())])?;
    let news = crate::stream::materialize(ctx, out)?;
    if news.len() != tuples.len() {
        return Err(ExecError::Other(format!(
            "`{op}` modification function changed the stream length ({} -> {})",
            tuples.len(),
            news.len()
        )));
    }
    Ok(tuples.iter().cloned().zip(news).collect())
}

pub fn register(e: &mut ExecEngine) {
    // insert — model rel, representation structures, and the catalog.
    e.add_op("insert", |ctx, node, args| {
        if is_catalog(&arg_nodes(node)[0]) {
            let name = object_name(&arg_nodes(node)[0])
                .ok_or_else(|| ExecError::Other("catalog insert needs a named catalog".into()))?
                .clone();
            let row: Vec<Const> = args[1..]
                .iter()
                .map(|v| match v {
                    Value::Ident(s) => Ok(Const::Ident(s.clone())),
                    Value::Int(i) => Ok(Const::Int(*i)),
                    Value::Str(s) => Ok(Const::Str(s.clone())),
                    other => Err(mismatch("insert", "catalog row value", &other.kind_name())),
                })
                .collect::<ExecResult<_>>()?;
            ctx.catalog
                .catalog_insert(&name, row)
                .map_err(|e| ExecError::Other(e.to_string()))?;
            return Ok(Value::Ident(name));
        }
        insert_into(ctx, &args[0], &args[1])
    });

    // rel_insert — bag union into a model relation.
    e.add_op("rel_insert", |_, _, args| {
        let mut ts = crate::ops::relational::tuples_of(&args[0], "rel_insert")?;
        ts.extend(crate::ops::relational::tuples_of(&args[1], "rel_insert")?);
        Ok(Value::Rel(ts))
    });

    // stream_insert — bulk insert a stream. The input is materialized
    // *before* any mutation: the stream may scan the very structure
    // being inserted into (`stream_insert(x, x feed)` must append a
    // snapshot, not chase its own inserts).
    e.add_op("stream_insert", |ctx, _, args| {
        let tuples = crate::stream::materialize(ctx, args[1].clone())?;
        let mut target = args[0].clone();
        for t in tuples {
            target = insert_into(ctx, &target, &t)?;
        }
        Ok(target)
    });

    // delete — model form `delete(rel, pred)`, representation form
    // `delete(structure, stream)`.
    e.add_op("delete", |ctx, _, args| match (&args[0], &args[1]) {
        (Value::Rel(ts) | Value::Stream(ts), Value::Closure(_)) => {
            let keep = {
                let pred = args[1].as_closure("delete")?.clone();
                let mut keep = Vec::with_capacity(ts.len());
                for t in ts {
                    if !ctx.call(&pred, vec![t.clone()])?.as_bool("delete")? {
                        keep.push(t.clone());
                    }
                }
                keep
            };
            Ok(Value::Rel(keep))
        }
        (Value::Undefined, Value::Closure(_)) => Ok(Value::Rel(Vec::new())),
        (target, Value::Stream(_) | Value::Cursor(_)) => {
            let tuples = crate::stream::materialize(ctx, args[1].clone())?;
            for t in &tuples {
                delete_tuple(ctx, target, t)?;
            }
            Ok(target.clone())
        }
        (a, b) => Err(mismatch(
            "delete",
            "(rel, predicate) or (structure, stream)",
            &format!("{} x {}", a.kind_name(), b.kind_name()),
        )),
    });

    // modify — model form `modify(rel, pred, attr, fun)`; representation
    // form `modify(btree, stream, streamfun)` for non-key updates.
    e.add_op("modify", |ctx, node, args| {
        if args.len() == 4 {
            // Model level.
            let tuples = crate::ops::relational::tuples_of(&args[0], "modify")?;
            let pred = args[1].as_closure("modify")?.clone();
            let Value::Ident(attr) = &args[2] else {
                return Err(mismatch("modify", "attribute name", &args[2].kind_name()));
            };
            let idx = attr_index_of_node(node, attr)?;
            let fun = args[3].as_closure("modify")?.clone();
            let mut out = Vec::with_capacity(tuples.len());
            for t in tuples {
                if ctx.call(&pred, vec![t.clone()])?.as_bool("modify")? {
                    let mut fields = t.as_tuple("modify")?.to_vec();
                    fields[idx] = ctx.call(&fun, vec![t.clone()])?;
                    out.push(Value::tuple(fields));
                } else {
                    out.push(t);
                }
            }
            return Ok(Value::Rel(out));
        }
        // Representation level: in-situ modification, key must not change.
        let Value::BTree(h) = &args[0] else {
            return Err(mismatch("modify", "btree", &args[0].kind_name()));
        };
        let tuples = crate::stream::materialize(ctx, args[1].clone())?;
        let fun = args[2].as_closure("modify")?.clone();
        for (old, new) in modified_pairs(ctx, &tuples, &fun, "modify")? {
            let old_key = encode_key("modify", &ctx.key_value(h, &old)?)?;
            let new_key = encode_key("modify", &ctx.key_value(h, &new)?)?;
            if old_key != new_key {
                return Err(ExecError::Other(
                    "modify changed the key value; use re_insert for key updates".into(),
                ));
            }
            h.tree.modify_exact(
                &old_key,
                &old.encode_tuple("modify")?,
                &new.encode_tuple("modify")?,
            )?;
        }
        Ok(args[0].clone())
    });

    // vacuum — rebuild a clustering B-tree into densely packed pages.
    e.add_op("vacuum", |_, _, args| {
        let Value::BTree(h) = &args[0] else {
            return Err(mismatch("vacuum", "btree", &args[0].kind_name()));
        };
        h.tree.rebuild()?;
        Ok(args[0].clone())
    });

    // re_insert — key updates: delete at the old position, insert at the
    // position of the new key value.
    e.add_op("re_insert", |ctx, _, args| {
        let Value::BTree(h) = &args[0] else {
            return Err(mismatch("re_insert", "btree", &args[0].kind_name()));
        };
        let tuples = crate::stream::materialize(ctx, args[1].clone())?;
        let fun = args[2].as_closure("re_insert")?.clone();
        for (old, new) in modified_pairs(ctx, &tuples, &fun, "re_insert")? {
            let old_key = encode_key("re_insert", &ctx.key_value(h, &old)?)?;
            let new_key = encode_key("re_insert", &ctx.key_value(h, &new)?)?;
            h.tree.re_insert(
                &old_key,
                &old.encode_tuple("re_insert")?,
                &new_key,
                &new.encode_tuple("re_insert")?,
            )?;
        }
        Ok(args[0].clone())
    });
}
