//! Representation-level stream operators (Section 4): `feed`, `filter`,
//! `project`, `replace`, `collect`, `search_join`, `head`, `sortby`.
//!
//! The scan/range/filter/head/project/replace/search_join spine is
//! pipelined through [`crate::stream::Cursor`]; blocking operators
//! (`sortby`, `hashjoin`, aggregates, `collect`) drain their input.

use crate::engine::ExecEngine;
use crate::error::{mismatch, ExecError, ExecResult};
use crate::ops::relational::concat_tuples;
use crate::stream::{into_cursor, materialize, Cursor};
use crate::value::{Row, Value};
use sos_core::typed::TypedExpr;
use sos_core::{DataType, Symbol};
use sos_storage::heap::HeapFile;
use std::cell::RefCell;
use std::rc::Rc;

/// The terminal aggregates a [`Fold`] computes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Agg {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Agg {
    fn name(self) -> &'static str {
        match self {
            Agg::Count => "count",
            Agg::Sum => "sum",
            Agg::Avg => "avg",
            Agg::Min => "min",
            Agg::Max => "max",
        }
    }
}

/// A terminal fold over a stream: `count`, or `sum`, `avg`, `min` or
/// `max` of one attribute. Rows are pushed one at a time, as decoded
/// tuples or as records read in place ([`Row`]), with the same result
/// either way. The first error is kept and later rows are only counted,
/// so it surfaces from [`Fold::finish`] once the input was read to its
/// end: a scan error further on still wins, as when a materialized
/// stream is folded.
pub(crate) struct Fold {
    agg: Agg,
    idx: usize,
    attr: Symbol,
    /// `sum` of no rows: a zero of the attribute's type.
    zero: Value,
    rows: u64,
    acc_i: i64,
    acc_r: f64,
    real: bool,
    best: Option<Value>,
    err: Option<ExecError>,
}

impl Fold {
    pub(crate) fn count() -> Fold {
        Fold::of(Agg::Count, 0, Symbol::new("count"), Value::Int(0))
    }

    /// The aggregate `op` of attribute `attr` of the tuples of `node`'s
    /// first argument.
    fn aggregate(agg: Agg, node: &TypedExpr, attr: &Symbol) -> ExecResult<Fold> {
        let idx = crate::ops::relational::attr_index_of_arg(node, 0, attr)?;
        let real = crate::ops::relational::arg_nodes(node)
            .first()
            .and_then(|arg| arg.ty.single_type_arg()?.tuple_attrs())
            .is_some_and(|attrs| {
                attrs
                    .get(idx)
                    .is_some_and(|(_, ty)| *ty == DataType::atom("real"))
            });
        let zero = if real {
            Value::Real(0.0)
        } else {
            Value::Int(0)
        };
        Ok(Fold::of(agg, idx, attr.clone(), zero))
    }

    fn of(agg: Agg, idx: usize, attr: Symbol, zero: Value) -> Fold {
        Fold {
            agg,
            idx,
            attr,
            zero,
            rows: 0,
            acc_i: 0,
            acc_r: 0.0,
            real: false,
            best: None,
            err: None,
        }
    }

    /// The operator the fold runs for.
    pub(crate) fn op(&self) -> &'static str {
        self.agg.name()
    }

    /// Rows pushed so far.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    pub(crate) fn push<R: Row>(&mut self, row: &R) {
        self.rows += 1;
        if self.agg == Agg::Count || self.err.is_some() {
            return;
        }
        if let Err(e) = self.step(row) {
            self.err = Some(e);
        }
    }

    fn step<R: Row>(&mut self, row: &R) -> ExecResult<()> {
        let op = self.agg.name();
        if let Agg::Sum | Agg::Avg = self.agg {
            let v = match row.int(self.idx) {
                Some(v) => Value::Int(v),
                None => row.load(self.idx, &self.attr)?,
            };
            match v {
                Value::Int(v) => {
                    self.acc_i = self
                        .acc_i
                        .checked_add(v)
                        .ok_or_else(|| ExecError::Arithmetic("sum overflow".into()))?;
                }
                Value::Real(v) => {
                    self.real = true;
                    self.acc_r += v;
                }
                other => return Err(mismatch(op, "numeric attribute", &other.kind_name())),
            }
            return Ok(());
        }
        let v = row.load(self.idx, &self.attr)?;
        let Some(best) = &self.best else {
            self.best = Some(v);
            return Ok(());
        };
        let ord = crate::value::compare(op, &v, best)?;
        let better = if self.agg == Agg::Min {
            ord == std::cmp::Ordering::Less
        } else {
            ord == std::cmp::Ordering::Greater
        };
        if better {
            self.best = Some(v);
        }
        Ok(())
    }

    /// The folded value, or the first error any row raised.
    pub(crate) fn finish(self) -> ExecResult<Value> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let total = self.acc_r + self.acc_i as f64;
        Ok(match self.agg {
            Agg::Count => Value::Int(self.rows as i64),
            Agg::Sum if self.rows == 0 => self.zero,
            Agg::Sum if self.real => Value::Real(total),
            Agg::Sum => Value::Int(self.acc_i),
            _ if self.rows == 0 => {
                return Err(ExecError::Other(format!(
                    "`{}` over an empty stream",
                    self.agg.name()
                )))
            }
            Agg::Avg => Value::Real(total / self.rows as f64),
            _ => self.best.expect("a non-empty min or max has a best row"),
        })
    }
}

fn cursor_value(c: Cursor) -> Value {
    Value::Cursor(Rc::new(RefCell::new(c)))
}

pub fn register(e: &mut ExecEngine) {
    // feed produces a *pipelined* cursor for page-backed structures
    // (Section 4's pipelined processing); in-memory relations and
    // LSD-trees come back materialized.
    e.add_op("feed", |ctx, _, args| {
        Ok(match Cursor::scan_of(&args[0])? {
            Cursor::Mat(tuples) => {
                // An LSD-tree's `feed` decoded its whole result.
                if let Value::LsdTree(_) = &args[0] {
                    ctx.engine.stats.record_decoded(tuples.len() as u64);
                }
                Value::Stream(tuples.into())
            }
            pipelined => cursor_value(pipelined),
        })
    });

    // The operators below read their other arguments first and then
    // take the input out of the owned argument list, so a uniquely held
    // pipeline is moved, not wrapped in `Cursor::Shared`.
    e.add_op("filter", |_, _, mut args| {
        let pred = args[1].as_closure("filter")?.clone();
        let input = into_cursor(args.swap_remove(0))?;
        Ok(cursor_value(Cursor::filter(input, pred)))
    });

    // project[(name, fun-or-attr), ...] — generalized projection; the
    // result schema comes from the type operator at check time.
    e.add_op("project", |_, _, mut args| {
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
        Ok(cursor_value(Cursor::Project {
            input: Box::new(input),
            funs,
        }))
    });

    // replace[attr, fun] — replace one attribute value per tuple.
    e.add_op("replace", |_, node, mut args| {
        let Value::Ident(attr) = &args[1] else {
            return Err(mismatch("replace", "attribute name", &args[1].kind_name()));
        };
        let field = (
            crate::ops::relational::attr_index_of_node(node, attr)?,
            attr.clone(),
        );
        let fun = args[2].as_closure("replace")?.clone();
        let input = into_cursor(args.swap_remove(0))?;
        Ok(cursor_value(Cursor::Replace {
            input: Box::new(input),
            field,
            fun,
        }))
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
        Ok(Value::SRel(Rc::new(heap)))
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

    // sum/min/max/avg[attr] — aggregates over one attribute, folded
    // straight from the records of a scan source when the input is one.
    for agg in [Agg::Sum, Agg::Min, Agg::Max, Agg::Avg] {
        e.add_op(agg.name(), move |ctx, node, mut args| {
            let Value::Ident(attr) = &args[1] else {
                return Err(mismatch(agg.name(), "attribute name", &args[1].kind_name()));
            };
            let mut fold = Fold::aggregate(agg, node, attr)?;
            let input = args.swap_remove(0);
            let tuples = match input {
                Value::Cursor(_) => {
                    let mut cursor = into_cursor(input)?;
                    if cursor.fold_in_place(ctx, &mut fold)? {
                        Vec::new()
                    } else {
                        cursor.drain(ctx)?
                    }
                }
                other => materialize(ctx, other)?,
            };
            // The fold runs in row order, so floating-point accumulation
            // order (and thus the result) is the same at every width.
            for t in &tuples {
                fold.push(t);
            }
            ctx.engine.stats.record(agg.name(), fold.rows() as usize, 1);
            fold.finish()
        });
    }

    // consume — a stream used as a model relation result.
    e.add_op("consume", |ctx, _, args| {
        Ok(Value::Rel(materialize(ctx, args[0].clone())?))
    });
}
