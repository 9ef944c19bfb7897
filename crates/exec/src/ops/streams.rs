//! Representation-level stream operators (Section 4): `feed`, `filter`,
//! `project`, `replace`, `collect`, `search_join`, `head`, `sortby`.
//!
//! The scan/range/filter/head/project/replace/search_join spine is
//! pipelined through [`crate::stream::Cursor`]; blocking operators
//! (`sortby`, `hashjoin`, aggregates, `collect`) drain their input.

use crate::engine::ExecEngine;
use crate::error::{mismatch, ExecResult};
use crate::ops::relational::concat_tuples;
use crate::stream::{into_cursor, materialize, Cursor};
use crate::value::Value;
use sos_storage::heap::HeapFile;
use std::sync::Arc;

/// Fold one attribute of a stream (`sum`, `min`, `max`, `avg`).
fn aggregate(op: &str, tuples: &[Value], idx: usize) -> ExecResult<Value> {
    use crate::value::compare;
    if tuples.is_empty() {
        return match op {
            "sum" => Ok(Value::Int(0)),
            _ => Err(crate::error::ExecError::Other(format!(
                "`{op}` over an empty stream"
            ))),
        };
    }
    let field = |t: &Value| -> ExecResult<Value> { Ok(t.as_tuple(op)?[idx].clone()) };
    match op {
        "min" | "max" => {
            let mut best = field(&tuples[0])?;
            for t in &tuples[1..] {
                let v = field(t)?;
                let ord = compare(op, &v, &best)?;
                let better = if op == "min" {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if better {
                    best = v;
                }
            }
            Ok(best)
        }
        "sum" | "avg" => {
            let mut acc_i: i64 = 0;
            let mut acc_r: f64 = 0.0;
            let mut real = false;
            for t in tuples {
                match field(t)? {
                    Value::Int(v) => {
                        acc_i = acc_i.checked_add(v).ok_or_else(|| {
                            crate::error::ExecError::Arithmetic("sum overflow".into())
                        })?;
                    }
                    Value::Real(v) => {
                        real = true;
                        acc_r += v;
                    }
                    other => return Err(mismatch(op, "numeric attribute", &other.kind_name())),
                }
            }
            let total = acc_r + acc_i as f64;
            if op == "avg" {
                Ok(Value::Real(total / tuples.len() as f64))
            } else if real {
                Ok(Value::Real(total))
            } else {
                Ok(Value::Int(acc_i))
            }
        }
        _ => unreachable!(),
    }
}

/// Scan any relation representation into a stream of tuple values
/// (the `feed` of the `relrep` subtype hierarchy).
pub fn feed_value(v: &Value) -> ExecResult<Vec<Value>> {
    Cursor::scan_of(v)?.scan_all()
}

fn cursor_value(c: Cursor) -> Value {
    Value::Cursor(std::sync::Arc::new(parking_lot::Mutex::new(c)))
}

pub fn register(e: &mut ExecEngine) {
    // feed produces a *pipelined* cursor for page-backed structures
    // (Section 4's pipelined processing); in-memory relations and
    // LSD-trees come back materialized.
    e.add_op("feed", |_, _, args| {
        Ok(match Cursor::scan_of(&args[0])? {
            Cursor::Mat(tuples) => Value::Stream(tuples.into()),
            pipelined => cursor_value(pipelined),
        })
    });

    // The operators below read their other arguments first and then
    // take the input out of the owned argument list, so a uniquely held
    // pipeline is moved, not wrapped in `Cursor::Shared`.
    e.add_op("filter", |ctx, _, mut args| {
        let pred = args[1].as_closure("filter")?.clone();
        let input = into_cursor(args.swap_remove(0))?;
        Ok(cursor_value(Cursor::filter(ctx.engine, input, pred)))
    });

    // project[(name, fun-or-attr), ...] — generalized projection; the
    // result schema comes from the type operator at check time.
    e.add_op("project", |ctx, _, mut args| {
        let Value::List(pairs) = &args[1] else {
            return Err(mismatch("project", "list of pairs", &args[1].kind_name()));
        };
        let mut funs = Vec::with_capacity(pairs.len());
        for p in pairs {
            let Value::Pair(comps) = p else {
                return Err(mismatch("project", "(ident, fun) pair", &p.kind_name()));
            };
            funs.push(comps[1].as_closure("project")?.clone());
        }
        let input = into_cursor(args.swap_remove(0))?;
        Ok(cursor_value(Cursor::project(ctx.engine, input, funs)))
    });

    // replace[attr, fun] — replace one attribute value per tuple.
    e.add_op("replace", |ctx, node, mut args| {
        let Value::Ident(attr) = &args[1] else {
            return Err(mismatch("replace", "attribute name", &args[1].kind_name()));
        };
        let idx = crate::ops::relational::attr_index_of_node(node, attr)?;
        let fun = args[2].as_closure("replace")?.clone();
        let input = into_cursor(args.swap_remove(0))?;
        Ok(cursor_value(Cursor::replace(ctx.engine, input, idx, fun)))
    });

    // collect — materialize a stream into a temporary relation (srel).
    e.add_op("collect", |ctx, _, mut args| {
        let mut input = into_cursor(args.swap_remove(0))?;
        let heap = HeapFile::create(ctx.engine.pool.clone())?;
        let (batches, rows) = input.for_each_batch(ctx, |batch| {
            for t in batch.iter() {
                heap.insert(&t.encode_tuple("collect")?)?;
            }
            Ok(())
        })?;
        ctx.engine.stats.record_batches("collect", batches, rows);
        Ok(Value::SRel(Arc::new(heap)))
    });

    // hashjoin[a1, a2] — a classic equi-join: build a hash table on the
    // inner stream's join attribute, probe with the outer stream. One of
    // the paper's motivating "special join algorithms" an extensible
    // system must be able to add.
    e.add_op("hashjoin", |ctx, node, args| {
        let (Value::Ident(a1), Value::Ident(a2)) = (&args[2], &args[3]) else {
            return Err(mismatch(
                "hashjoin",
                "two attribute names",
                &format!("{:?}, {:?}", args[2].kind_name(), args[3].kind_name()),
            ));
        };
        let i1 = crate::ops::relational::attr_index_of_arg(node, 0, a1)?;
        let i2 = crate::ops::relational::attr_index_of_arg(node, 1, a2)?;
        let outer = &materialize(ctx, args[0].clone())?;
        let inner = &materialize(ctx, args[1].clone())?;
        // Build on the inner side, keyed by the memcomparable encoding,
        // then probe with the outer side.
        let mut table: std::collections::HashMap<Vec<u8>, Vec<usize>> = Default::default();
        for (j, tup) in inner.iter().enumerate() {
            let key = crate::handles::encode_key("hashjoin", &tup.as_tuple("hashjoin")?[i2])?;
            table.entry(key).or_default().push(j);
        }
        let mut out = Vec::new();
        for o in outer {
            let key = crate::handles::encode_key("hashjoin", &o.as_tuple("hashjoin")?[i1])?;
            if let Some(matches) = table.get(&key) {
                for &m in matches {
                    out.push(concat_tuples(o, &inner[m], "hashjoin")?);
                }
            }
        }
        ctx.engine
            .stats
            .record("hashjoin", inner.len() + outer.len(), out.len());
        Ok(Value::Stream(out))
    });

    // search_join — the paper's generalized nested-loop join: the second
    // argument maps each outer tuple to a stream of matching inner tuples
    // (a scan, an index search, whatever the plan chose).
    e.add_op("search_join", |_, _, mut args| {
        let fun = args[1].as_closure("search_join")?.clone();
        Ok(cursor_value(Cursor::SearchJoin {
            outer: Box::new(into_cursor(args.swap_remove(0))?),
            fun,
            current_outer: None,
            inner: std::collections::VecDeque::new(),
        }))
    });

    // head[n] — first n tuples (a practical extension).
    e.add_op("head", |_, _, mut args| {
        let n = args[1].as_int("head")?.max(0) as usize;
        let input = into_cursor(args.swap_remove(0))?;
        Ok(cursor_value(Cursor::Head {
            input: Box::new(input),
            remaining: n,
        }))
    });

    // sortby[attr] — sort a stream by one attribute (a practical
    // extension; stable).
    e.add_op("sortby", |ctx, node, args| {
        let mut tuples = materialize(ctx, args[0].clone())?;
        let Value::Ident(attr) = &args[1] else {
            return Err(mismatch("sortby", "attribute name", &args[1].kind_name()));
        };
        let idx = crate::ops::relational::attr_index_of_node(node, attr)?;
        let mut err = None;
        tuples.sort_by(|a, b| {
            let (fa, fb) = match (a.as_tuple("sortby"), b.as_tuple("sortby")) {
                (Ok(x), Ok(y)) => (x, y),
                _ => return std::cmp::Ordering::Equal,
            };
            crate::value::compare("sortby", &fa[idx], &fb[idx]).unwrap_or_else(|e| {
                err.get_or_insert(e);
                std::cmp::Ordering::Equal
            })
        });
        match err {
            Some(e) => Err(e),
            None => Ok(Value::Stream(tuples)),
        }
    });

    // rdup — remove adjacent duplicates (use after sortby).
    e.add_op("rdup", |ctx, _, args| {
        let tuples = &materialize(ctx, args[0].clone())?;
        let mut out: Vec<Value> = Vec::with_capacity(tuples.len());
        for t in tuples {
            if out.last() != Some(t) {
                out.push(t.clone());
            }
        }
        Ok(Value::Stream(out))
    });

    // sum/min/max/avg[attr] — aggregates over one attribute.
    for agg in ["sum", "min", "max", "avg"] {
        e.add_op(agg, move |ctx, node, args| {
            let tuples = &materialize(ctx, args[0].clone())?;
            let Value::Ident(attr) = &args[1] else {
                return Err(mismatch(agg, "attribute name", &args[1].kind_name()));
            };
            let idx = crate::ops::relational::attr_index_of_arg(node, 0, attr)?;
            // The fold runs in row order, so floating-point accumulation
            // order (and thus the result) is the same at every width.
            ctx.engine.stats.record(agg, tuples.len(), 1);
            aggregate(agg, tuples, idx)
        });
    }

    // consume — a stream used as a model relation result.
    e.add_op("consume", |ctx, _, args| {
        Ok(Value::Rel(materialize(ctx, args[0].clone())?))
    });
}
