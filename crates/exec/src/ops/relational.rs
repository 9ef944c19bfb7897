//! Model-level relational operators (Section 2.2): `select`, `join`,
//! `union`, `mktuple`, `count` — pure functions over in-memory relations.

use crate::engine::{EvalCtx, ExecEngine};
use crate::error::{mismatch, ExecError, ExecResult};
use crate::ops::streams::Fold;
use crate::stream::Cursor;
use crate::value::Value;
use sos_core::typed::TypedExpr;
use sos_core::{DataType, Symbol};

/// Interpret a value as a bag of tuples (relations and streams are both
/// accepted where the specs allow).
pub fn tuples_of(v: &Value, op: &str) -> ExecResult<Vec<Value>> {
    match v {
        Value::Rel(ts) | Value::Stream(ts) => Ok(ts.clone()),
        Value::Undefined => Ok(Vec::new()),
        other => Err(mismatch(op, "relation", &other.kind_name())),
    }
}

/// Concatenate the fields of two tuples (the semantics of `join` and
/// `search_join` result construction).
pub fn concat_tuples(a: &Value, b: &Value, op: &str) -> ExecResult<Value> {
    let mut fields = a.as_tuple(op)?.to_vec();
    fields.extend(b.as_tuple(op)?.iter().cloned());
    Ok(Value::tuple(fields))
}

pub fn register(e: &mut ExecEngine) {
    // select[pred] over an in-memory relation is a `Filter` over the
    // materialized tuples, drained like any other pipeline.
    e.add_op("select", |ctx, _, args| {
        let tuples = tuples_of(&args[0], "select")?;
        let n_in = tuples.len();
        let pred = args[1].as_closure("select")?.clone();
        let mut cursor = Cursor::filter(Cursor::materialized(tuples), pred);
        let out = cursor.drain_as(ctx, "select")?;
        ctx.engine.stats.record("select", n_in, out.len());
        Ok(Value::Rel(out))
    });

    e.add_op("join", |ctx, _, args| {
        let left = tuples_of(&args[0], "join")?;
        let right = tuples_of(&args[1], "join")?;
        let pred = args[2].as_closure("join")?.clone();
        let mut out = Vec::new();
        for l in &left {
            for r in &right {
                if ctx
                    .call(&pred, vec![l.clone(), r.clone()])?
                    .as_bool("join")?
                {
                    out.push(concat_tuples(l, r, "join")?);
                }
            }
        }
        ctx.engine
            .stats
            .record("join", left.len() + right.len(), out.len());
        Ok(Value::Rel(out))
    });

    e.add_op("union", |_, _, args| {
        let Value::List(rels) = &args[0] else {
            return Err(mismatch("union", "list of relations", &args[0].kind_name()));
        };
        let mut out = Vec::new();
        for r in rels {
            out.extend(tuples_of(r, "union")?);
        }
        Ok(Value::Rel(out))
    });

    // mktuple[(a, v), (b, w)] — construct a tuple value with named
    // attributes; the result type is computed by a type operator.
    e.add_op("mktuple", |_, _, args| {
        let Value::List(pairs) = &args[0] else {
            return Err(mismatch("mktuple", "list of pairs", &args[0].kind_name()));
        };
        let mut fields = Vec::with_capacity(pairs.len());
        for p in pairs {
            let Value::Pair(comps) = p else {
                return Err(mismatch("mktuple", "(ident, value) pair", &p.kind_name()));
            };
            if comps.len() != 2 {
                return Err(ExecError::Other("mktuple pairs must be binary".into()));
            }
            fields.push(comps[1].clone());
        }
        Ok(Value::tuple(fields))
    });

    e.add_op("count", |ctx, _, mut args| match args.swap_remove(0) {
        Value::Rel(ts) | Value::Stream(ts) => Ok(Value::Int(ts.len() as i64)),
        input @ Value::Cursor(_) => {
            let mut cursor = crate::stream::into_cursor(input)?;
            // Count a scan source's surviving records in place; drain
            // any other pipeline without buffering.
            let mut fold = Fold::count();
            if !cursor.fold_in_place(ctx, &mut fold)? {
                let (batches, n) = cursor.for_each_batch(ctx, |_| Ok(()))?;
                ctx.engine.stats.record_batches("count", batches, n);
                return Ok(count_of(ctx, n));
            }
            Ok(count_of(ctx, fold.rows()))
        }
        Value::SRel(h) | Value::TidRel(h) => Ok(Value::Int(h.count()? as i64)),
        Value::BTree(h) => Ok(Value::Int(h.tree.len() as i64)),
        Value::LsdTree(h) => Ok(Value::Int(h.tree.len() as i64)),
        Value::Undefined => Ok(Value::Int(0)),
        other => Err(mismatch("count", "collection", &other.kind_name())),
    });
}

/// The result of a `count` over a stream of `n` rows, recorded.
fn count_of(ctx: &EvalCtx, n: u64) -> Value {
    ctx.engine.stats.record("count", n as usize, 1);
    Value::Int(n as i64)
}

// Attribute *arguments* (`sortby[a]`, `replace[a, f]`, `hashjoin[a1,
// a2]`, aggregates) name a field by identifier; these helpers resolve it
// against the checked types once per operator invocation.

/// The argument nodes of an operator application (empty for any other
/// node).
pub(crate) fn arg_nodes(node: &TypedExpr) -> &[TypedExpr] {
    node.as_apply().map_or(&[], |(_, _, args)| args)
}

/// The index of `attr` in the tuple type of the collection-typed node
/// itself (rel(t), stream(t), ...).
pub fn attr_index_of_node(node: &TypedExpr, attr: &Symbol) -> ExecResult<usize> {
    attr_index_in_collection(&node.ty, attr)
}

/// The index of `attr` in the tuple type of the node's `i`-th argument
/// (for operators whose result is a scalar or a different tuple type:
/// aggregates, `hashjoin`).
pub(crate) fn attr_index_of_arg(node: &TypedExpr, i: usize, attr: &Symbol) -> ExecResult<usize> {
    let arg = arg_nodes(node)
        .get(i)
        .ok_or_else(|| ExecError::Other(format!("operator has no argument {i}")))?;
    attr_index_in_collection(&arg.ty, attr)
}

fn attr_index_in_collection(coll_ty: &DataType, attr: &Symbol) -> ExecResult<usize> {
    let tuple_ty = coll_ty
        .single_type_arg()
        .ok_or_else(|| ExecError::Other(format!("no tuple type in {coll_ty}")))?;
    attr_position(tuple_ty, attr)
}

/// The index of `attr` in a tuple type.
pub(crate) fn attr_position(tuple_ty: &DataType, attr: &Symbol) -> ExecResult<usize> {
    crate::handles::attr_index(tuple_ty, attr)
        .ok_or_else(|| ExecError::Other(format!("attribute `{attr}` not in {tuple_ty}")))
}
