//! Runtime values: the carrier sets of the second-order algebra.

use crate::compile::CompiledFun;
use crate::error::{mismatch, ExecError, ExecResult};
use crate::handles::{BTreeHandle, LsdHandle};
use sos_core::{Const, DataType, Symbol};
use sos_geom::{Point, Polygon, Rect};
use sos_storage::field::{Field, FieldRef, RecordView};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    // ---- atomic data values (kind DATA and friends) ----
    Int(i64),
    Real(f64),
    Str(String),
    Bool(bool),
    Ident(Symbol),
    Point(Point),
    Rect(Rect),
    Pgon(Polygon),
    // ---- structured model-level values ----
    /// A tuple: field values in schema order, shared behind an `Rc` so
    /// that passing a tuple across filter/project/join boundaries (and
    /// binding it to a predicate parameter) is a reference-count bump,
    /// not a deep copy. Tuples are immutable; operators that change
    /// fields build a fresh tuple.
    Tuple(Rc<[Value]>),
    /// A model-level relation: a bag of tuples.
    Rel(Vec<Value>),
    /// A materialized stream of tuples.
    Stream(Vec<Value>),
    /// A pipelined stream: tuples are pulled on demand (Section 4's
    /// "pipelined fashion"); see [`crate::stream::Cursor`].
    Cursor(Rc<RefCell<crate::stream::Cursor>>),
    /// A function value: a compiled lambda plus its captured values.
    Closure(Rc<Closure>),
    /// A list argument (`<a, b, c>`).
    List(Vec<Value>),
    /// A product argument (`(a, b)`).
    Pair(Vec<Value>),
    // ---- representation-level handles ----
    SRel(Rc<sos_storage::heap::HeapFile>),
    TidRel(Rc<sos_storage::heap::HeapFile>),
    BTree(Rc<BTreeHandle>),
    LsdTree(Rc<LsdHandle>),
    /// The value of a freshly created object before its first update.
    Undefined,
}

/// A function value: the program its lambda compiled to (see
/// [`crate::compile`]) plus the values of the enclosing lambdas'
/// variables it reads. Parameters and program are shared by every
/// closure of one lambda, so building a closure per outer tuple costs
/// two reference-count bumps plus the captured values.
pub struct Closure {
    pub params: Arc<[(Symbol, DataType)]>,
    pub(crate) program: Rc<CompiledFun>,
    /// The program's input slots after the parameters.
    pub(crate) captured: Box<[Value]>,
}

impl Value {
    /// Construct a tuple value (the one place fields get wrapped in the
    /// shared allocation).
    pub fn tuple(fields: Vec<Value>) -> Value {
        Value::Tuple(fields.into())
    }

    /// Take ownership of a tuple's fields (cloning out of the shared
    /// slice; only cold paths — stored-object loads, updates — need
    /// owned fields).
    pub fn into_tuple(self, op: &str) -> ExecResult<Vec<Value>> {
        match self {
            Value::Tuple(fs) => Ok(fs.to_vec()),
            other => Err(mismatch(op, "tuple", &other.kind_name())),
        }
    }

    pub fn from_const(c: &Const) -> Value {
        match c {
            Const::Int(v) => Value::Int(*v),
            Const::Real(v) => Value::Real(*v),
            Const::Str(s) => Value::Str(s.clone()),
            Const::Bool(b) => Value::Bool(*b),
            Const::Ident(s) => Value::Ident(s.clone()),
        }
    }

    /// Short label used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Ident(_) => "ident",
            Value::Point(_) => "point",
            Value::Rect(_) => "rect",
            Value::Pgon(_) => "pgon",
            Value::Tuple(_) => "tuple",
            Value::Rel(_) => "rel",
            Value::Stream(_) | Value::Cursor(_) => "stream",
            Value::Closure(_) => "function",
            Value::List(_) => "list",
            Value::Pair(_) => "pair",
            Value::SRel(_) => "srel",
            Value::TidRel(_) => "tidrel",
            Value::BTree(_) => "btree",
            Value::LsdTree(_) => "lsdtree",
            Value::Undefined => "undefined",
        }
    }

    pub fn as_bool(&self, op: &str) -> ExecResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(mismatch(op, "bool", &other.kind_name())),
        }
    }

    pub fn as_int(&self, op: &str) -> ExecResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(mismatch(op, "int", &other.kind_name())),
        }
    }

    pub fn as_tuple(&self, op: &str) -> ExecResult<&[Value]> {
        match self {
            Value::Tuple(fs) => Ok(fs),
            other => Err(mismatch(op, "tuple", &other.kind_name())),
        }
    }

    /// Borrow materialized stream tuples. Pipelined cursors must be
    /// drained with [`crate::stream::materialize`] instead.
    pub fn as_stream(&self, op: &str) -> ExecResult<&[Value]> {
        match self {
            Value::Stream(ts) => Ok(ts),
            other => Err(mismatch(op, "materialized stream", &other.kind_name())),
        }
    }

    pub fn as_closure(&self, op: &str) -> ExecResult<&Rc<Closure>> {
        match self {
            Value::Closure(c) => Ok(c),
            other => Err(mismatch(op, "function", &other.kind_name())),
        }
    }

    // ---- storage conversion ----

    /// Encode a tuple value as storage fields (schema order).
    pub fn to_fields(&self, op: &str) -> ExecResult<Vec<Field>> {
        let fields = self.as_tuple(op)?;
        fields
            .iter()
            .map(|v| match v {
                Value::Int(x) => Ok(Field::Int(*x)),
                Value::Real(x) => Ok(Field::Real(*x)),
                Value::Str(s) => Ok(Field::Str(s.clone())),
                Value::Bool(b) => Ok(Field::Bool(*b)),
                Value::Point(p) => Ok(Field::Point(*p)),
                Value::Rect(r) => Ok(Field::Rect(*r)),
                Value::Pgon(p) => Ok(Field::Pgon(p.clone())),
                other => Err(mismatch(op, "storable field", &other.kind_name())),
            })
            .collect()
    }

    /// Decode storage fields into a tuple value.
    pub fn from_fields(fields: Vec<Field>) -> Value {
        Value::tuple(fields.into_iter().map(Value::from_field).collect())
    }

    fn from_field(f: Field) -> Value {
        match f {
            Field::Int(v) => Value::Int(v),
            Field::Real(v) => Value::Real(v),
            Field::Str(s) => Value::Str(s),
            Field::Bool(b) => Value::Bool(b),
            Field::Point(p) => Value::Point(p),
            Field::Rect(r) => Value::Rect(r),
            Field::Pgon(p) => Value::Pgon(p),
        }
    }

    /// One field read in place (only strings and polygons allocate).
    pub(crate) fn from_field_ref(f: FieldRef<'_>) -> Value {
        match f {
            FieldRef::Int(v) => Value::Int(v),
            FieldRef::Real(v) => Value::Real(v),
            FieldRef::Bool(b) => Value::Bool(b),
            FieldRef::Point(p) => Value::Point(p),
            FieldRef::Rect(r) => Value::Rect(r),
            other => Value::from_field(other.to_field()),
        }
    }

    /// Encode a tuple value to record bytes.
    pub fn encode_tuple(&self, op: &str) -> ExecResult<Vec<u8>> {
        Ok(sos_storage::field::encode_record(&self.to_fields(op)?))
    }

    /// Decode record bytes to a tuple value. Fields are converted as
    /// they are decoded and collected straight into the shared slice:
    /// one allocation per record, no intermediate `Vec<Field>`.
    pub fn decode_tuple(bytes: &[u8]) -> ExecResult<Value> {
        Ok(Value::Tuple(sos_storage::field::decode_record_shared(
            bytes,
            Value::from_field,
            || Value::Undefined,
        )?))
    }
}

/// A row that compiled programs and aggregate folds read: a tuple value,
/// or a stored record read in place ([`RecordView`]). Both answer every
/// read with the same value and the same error, so a program or a fold
/// gives the same result on a record before and after decoding it.
pub trait Row {
    /// Field `idx` if it is an int (`None` makes tier B bail).
    fn int(&self, idx: usize) -> Option<i64>;
    /// Field `idx` if it is a bool (`None` makes tier B bail).
    fn bool(&self, idx: usize) -> Option<bool>;
    /// Field `idx` as a value: the checked attribute access `attr(row)`.
    fn load(&self, idx: usize, attr: &Symbol) -> ExecResult<Value>;
    /// The whole row as a tuple value.
    fn value(&self) -> Value;
}

impl Row for Value {
    fn int(&self, idx: usize) -> Option<i64> {
        match self {
            Value::Tuple(fs) => match fs.get(idx) {
                Some(Value::Int(v)) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    fn bool(&self, idx: usize) -> Option<bool> {
        match self {
            Value::Tuple(fs) => match fs.get(idx) {
                Some(Value::Bool(v)) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    fn load(&self, idx: usize, attr: &Symbol) -> ExecResult<Value> {
        crate::handles::load_field(self, idx, attr)
    }

    fn value(&self) -> Value {
        self.clone()
    }
}

impl Row for RecordView<'_> {
    fn int(&self, idx: usize) -> Option<i64> {
        RecordView::int(self, idx)
    }

    fn bool(&self, idx: usize) -> Option<bool> {
        RecordView::bool(self, idx)
    }

    fn load(&self, idx: usize, attr: &Symbol) -> ExecResult<Value> {
        self.get(idx)
            .map(Value::from_field_ref)
            .ok_or_else(|| crate::handles::too_short(attr))
    }

    fn value(&self) -> Value {
        Value::Tuple(self.decode(Value::from_field_ref))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Real(a), Real(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Ident(a), Ident(b)) => a == b,
            (Point(a), Point(b)) => a == b,
            (Rect(a), Rect(b)) => a == b,
            (Pgon(a), Pgon(b)) => a == b,
            // Shared tuples short-circuit on pointer identity before
            // falling back to structural comparison.
            (Tuple(a), Tuple(b)) => Rc::ptr_eq(a, b) || a == b,
            (Rel(a), Rel(b)) | (Stream(a), Stream(b)) | (List(a), List(b)) | (Pair(a), Pair(b)) => {
                a == b
            }
            (Cursor(a), Cursor(b)) => Rc::ptr_eq(a, b),
            (SRel(a), SRel(b)) | (TidRel(a), TidRel(b)) => Rc::ptr_eq(a, b),
            (BTree(a), BTree(b)) => Rc::ptr_eq(a, b),
            (LsdTree(a), LsdTree(b)) => Rc::ptr_eq(a, b),
            (Undefined, Undefined) => true,
            // Closures are never equal (function extensionality is
            // undecidable).
            _ => false,
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Ident(s) => write!(f, "{s}"),
            Value::Point(p) => write!(f, "{p}"),
            Value::Rect(r) => write!(f, "{r}"),
            Value::Pgon(p) => write!(f, "{p}"),
            Value::Tuple(fs) => {
                write!(f, "(")?;
                for (i, v) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
            Value::Rel(ts) => write!(f, "rel[{} tuples]", ts.len()),
            Value::Stream(ts) => write!(f, "stream[{} tuples]", ts.len()),
            Value::Cursor(c) => write!(f, "{:?}", c.borrow()),
            Value::Closure(c) => write!(f, "fun/{}", c.params.len()),
            Value::List(vs) => {
                write!(f, "<")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ">")
            }
            Value::Pair(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
            Value::SRel(h) => write!(f, "srel[{} pages]", h.pages().len()),
            Value::TidRel(h) => write!(f, "tidrel[{} pages]", h.pages().len()),
            Value::BTree(h) => write!(f, "btree[{} records]", h.tree.len()),
            Value::LsdTree(h) => write!(f, "lsdtree[{} entries]", h.tree.len()),
            Value::Undefined => write!(f, "undefined"),
        }
    }
}

/// Render a query result the way the system's REPL prints it.
pub fn render(v: &Value) -> String {
    match v {
        Value::Rel(ts) | Value::Stream(ts) => {
            let mut out = String::new();
            for t in ts {
                out.push_str(&format!("{t:?}\n"));
            }
            out.push_str(&format!("({} tuples)", ts.len()));
            out
        }
        other => format!("{other:?}"),
    }
}

/// Ordering between two data values of the same type, used by sorting
/// and comparison operators.
pub fn compare(op: &str, a: &Value, b: &Value) -> ExecResult<std::cmp::Ordering> {
    use Value::*;
    match (a, b) {
        (Int(x), Int(y)) => Ok(x.cmp(y)),
        (Real(x), Real(y)) => Ok(x.total_cmp(y)),
        (Int(x), Real(y)) => Ok((*x as f64).total_cmp(y)),
        (Real(x), Int(y)) => Ok(x.total_cmp(&(*y as f64))),
        (Str(x), Str(y)) => Ok(x.cmp(y)),
        (Bool(x), Bool(y)) => Ok(x.cmp(y)),
        (Ident(x), Ident(y)) => Ok(x.cmp(y)),
        (Point(x), Point(y)) => Ok(x.total_cmp(y)),
        _ => Err(ExecError::TypeMismatch {
            op: op.to_string(),
            expected: "comparable values of equal type".into(),
            found: format!("{} vs {}", a.kind_name(), b.kind_name()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_conversion() {
        assert_eq!(Value::from_const(&Const::Int(3)), Value::Int(3));
        assert_eq!(
            Value::from_const(&Const::Str("x".into())),
            Value::Str("x".into())
        );
    }

    #[test]
    fn tuple_field_roundtrip() {
        let t = Value::tuple(vec![
            Value::Str("Hagen".into()),
            Value::Int(190000),
            Value::Point(Point::new(7.5, 51.4)),
        ]);
        let bytes = t.encode_tuple("test").unwrap();
        assert_eq!(Value::decode_tuple(&bytes).unwrap(), t);
    }

    #[test]
    fn compare_mixed_numerics() {
        assert_eq!(
            compare("<", &Value::Int(2), &Value::Real(2.5)).unwrap(),
            std::cmp::Ordering::Less
        );
        assert!(compare("<", &Value::Int(1), &Value::Str("a".into())).is_err());
    }

    #[test]
    fn rel_equality_is_structural_handles_by_pointer() {
        let a = Value::Rel(vec![Value::tuple(vec![Value::Int(1)])]);
        let b = Value::Rel(vec![Value::tuple(vec![Value::Int(1)])]);
        assert_eq!(a, b);
        let pool = sos_storage::mem_pool(8);
        let h = Rc::new(sos_storage::heap::HeapFile::create(pool.clone()).unwrap());
        let h2 = Rc::new(sos_storage::heap::HeapFile::create(pool).unwrap());
        assert_eq!(Value::SRel(h.clone()), Value::SRel(h.clone()));
        assert_ne!(Value::SRel(h), Value::SRel(h2));
    }
}
