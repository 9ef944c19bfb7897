//! Atomic data operators: comparisons, arithmetic, logic, geometry.
//!
//! Every operator here is *context-free*: a pure function from argument
//! values to a result, touching neither the object store nor the
//! catalog. [`Atomic::eval`] is the single implementation: it is what
//! the operator's table entry runs and what the bytecode calls. Sharing
//! one code path is what makes a program's fast paths and its table
//! calls agree, error text included, by construction.

use crate::engine::ExecEngine;
use crate::error::{mismatch, ExecError, ExecResult};
use crate::value::{compare, Value};
use sos_geom::{Point, Rect};
use std::cmp::Ordering;

/// Declare [`Atomic`] with one variant per operator, [`Atomic::ALL`] in
/// declaration order, and [`Atomic::name`].
macro_rules! atomics {
    ($($variant:ident = $name:literal),* $(,)?) => {
        /// The atomic operators. An operator-table entry carries one as
        /// its `pure` evaluation (see [`crate::ops::OpEntry`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Atomic {
            $($variant),*
        }

        impl Atomic {
            /// Every atomic operator, in registration order.
            pub const ALL: &'static [Atomic] = &[$(Atomic::$variant),*];

            /// The signature operator this implements (also the name in
            /// error messages).
            pub fn name(self) -> &'static str {
                match self {
                    $(Atomic::$variant => $name),*
                }
            }
        }
    };
}

// `Div` is `/`, real division whatever the operand types; `DivInt` is
// `div`, the integer quotient.
atomics! {
    Eq = "=", Ne = "!=", Lt = "<", Le = "<=", Gt = ">", Ge = ">=",
    Add = "+", Sub = "-", Mul = "*", Div = "/", DivInt = "div", Mod = "mod",
    And = "and", Or = "or", Not = "not",
    BBox = "bbox", Inside = "inside", Intersects = "intersects",
    MakePoint = "makepoint", MakeRect = "makerect", MakePgon = "makepgon",
    Area = "area", Distance = "distance",
}

impl Atomic {
    /// Evaluate on already-evaluated arguments.
    pub fn eval(self, args: &[Value]) -> ExecResult<Value> {
        let op = self.name();
        match self {
            // ---- equality / comparison (polymorphic over DATA) ----
            Atomic::Eq => Ok(Value::Bool(args[0] == args[1])),
            Atomic::Ne => Ok(Value::Bool(args[0] != args[1])),
            Atomic::Lt | Atomic::Le | Atomic::Gt | Atomic::Ge => {
                let ord = compare(op, &args[0], &args[1])?;
                let holds = match self {
                    Atomic::Lt => ord == Ordering::Less,
                    Atomic::Le => ord != Ordering::Greater,
                    Atomic::Gt => ord == Ordering::Greater,
                    _ => ord != Ordering::Less,
                };
                Ok(Value::Bool(holds))
            }

            // ---- arithmetic with int/real promotion ----
            Atomic::Add | Atomic::Sub | Atomic::Mul | Atomic::Div => {
                numeric(&args[0], &args[1], self)
            }
            Atomic::DivInt => div_int(args[0].as_int(op)?, args[1].as_int(op)?).map(Value::Int),
            Atomic::Mod => mod_int(args[0].as_int(op)?, args[1].as_int(op)?).map(Value::Int),

            // ---- logic ----
            Atomic::And => Ok(Value::Bool(args[0].as_bool(op)? && args[1].as_bool(op)?)),
            Atomic::Or => Ok(Value::Bool(args[0].as_bool(op)? || args[1].as_bool(op)?)),
            Atomic::Not => Ok(Value::Bool(!args[0].as_bool(op)?)),

            // ---- geometry (Section 4's point/rect/pgon algebra) ----
            Atomic::BBox => match &args[0] {
                Value::Pgon(p) => Ok(Value::Rect(p.bbox())),
                Value::Rect(r) => Ok(Value::Rect(*r)),
                other => Err(mismatch(op, "pgon", &other.kind_name())),
            },
            Atomic::Inside => match (&args[0], &args[1]) {
                (Value::Point(p), Value::Pgon(g)) => Ok(Value::Bool(g.contains_point(p))),
                (Value::Point(p), Value::Rect(r)) => Ok(Value::Bool(r.contains_point(p))),
                (Value::Rect(a), Value::Rect(b)) => Ok(Value::Bool(b.contains_rect(a))),
                (a, b) => Err(mismatch(
                    op,
                    "point x pgon / point x rect / rect x rect",
                    &format!("{} x {}", a.kind_name(), b.kind_name()),
                )),
            },
            Atomic::Intersects => match (&args[0], &args[1]) {
                (Value::Rect(a), Value::Rect(b)) => Ok(Value::Bool(a.intersects(b))),
                (a, b) => Err(mismatch(
                    op,
                    "rect x rect",
                    &format!("{} x {}", a.kind_name(), b.kind_name()),
                )),
            },
            Atomic::MakePoint => {
                let x = as_real(&args[0], op)?;
                let y = as_real(&args[1], op)?;
                Ok(Value::Point(Point::new(x, y)))
            }
            Atomic::MakeRect => {
                let vals: Vec<f64> = args
                    .iter()
                    .map(|a| as_real(a, op))
                    .collect::<ExecResult<_>>()?;
                Ok(Value::Rect(Rect::new(vals[0], vals[1], vals[2], vals[3])))
            }
            Atomic::MakePgon => {
                let Value::List(pairs) = &args[0] else {
                    return Err(mismatch(op, "list of pairs", &args[0].kind_name()));
                };
                let mut vs = Vec::with_capacity(pairs.len());
                for p in pairs {
                    let Value::Pair(comps) = p else {
                        return Err(mismatch(op, "(x, y) pair", &p.kind_name()));
                    };
                    if comps.len() != 2 {
                        return Err(ExecError::Other("makepgon pairs must be binary".into()));
                    }
                    vs.push(Point::new(as_real(&comps[0], op)?, as_real(&comps[1], op)?));
                }
                if vs.len() < 3 {
                    return Err(ExecError::Other(
                        "makepgon needs at least 3 vertices".into(),
                    ));
                }
                Ok(Value::Pgon(sos_geom::Polygon::new(vs)))
            }
            Atomic::Area => match &args[0] {
                Value::Pgon(p) => Ok(Value::Real(p.area())),
                Value::Rect(r) => Ok(Value::Real(r.area())),
                other => Err(mismatch(op, "pgon or rect", &other.kind_name())),
            },
            Atomic::Distance => match (&args[0], &args[1]) {
                (Value::Point(a), Value::Point(b)) => Ok(Value::Real(a.distance(b))),
                (a, b) => Err(mismatch(
                    op,
                    "point x point",
                    &format!("{} x {}", a.kind_name(), b.kind_name()),
                )),
            },
        }
    }
}

pub fn register(e: &mut ExecEngine) {
    for &op in Atomic::ALL {
        e.add_pure(op);
    }
}

fn as_real(v: &Value, op: &str) -> ExecResult<f64> {
    match v {
        Value::Int(x) => Ok(*x as f64),
        Value::Real(x) => Ok(*x),
        other => Err(mismatch(op, "number", &other.kind_name())),
    }
}

/// Integer `div` (Euclidean quotient). A zero divisor is an error, and
/// so is the one quotient that overflows, `i64::MIN div -1`.
pub(crate) fn div_int(x: i64, y: i64) -> ExecResult<i64> {
    if y == 0 {
        return Err(ExecError::Arithmetic("division by zero".into()));
    }
    x.checked_div_euclid(y)
        .ok_or_else(|| ExecError::Arithmetic("integer overflow in `div`".into()))
}

/// Integer `mod` (Euclidean remainder, never negative). A zero divisor
/// is an error; `i64::MIN mod -1` is exactly 0.
pub(crate) fn mod_int(x: i64, y: i64) -> ExecResult<i64> {
    if y == 0 {
        return Err(ExecError::Arithmetic("modulo by zero".into()));
    }
    Ok(x.wrapping_rem_euclid(y))
}

fn numeric(a: &Value, b: &Value, op: Atomic) -> ExecResult<Value> {
    use Value::*;
    let name = op.name();
    match (a, b) {
        // `/` is real division regardless of operand types (the integer
        // quotient is `div`), matching its specification `-> real`.
        (Int(x), Int(y)) if op != Atomic::Div => {
            let r = match op {
                Atomic::Add => x.checked_add(*y),
                Atomic::Sub => x.checked_sub(*y),
                Atomic::Mul => x.checked_mul(*y),
                _ => unreachable!(),
            };
            r.map(Int)
                .ok_or_else(|| ExecError::Arithmetic(format!("integer overflow in `{name}`")))
        }
        _ => {
            let (x, y) = (as_real(a, name)?, as_real(b, name)?);
            let r = match op {
                Atomic::Add => x + y,
                Atomic::Sub => x - y,
                Atomic::Mul => x * y,
                Atomic::Div => {
                    if y == 0.0 {
                        return Err(ExecError::Arithmetic("division by zero".into()));
                    }
                    x / y
                }
                _ => unreachable!(),
            };
            Ok(Real(r))
        }
    }
}
