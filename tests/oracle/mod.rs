//! Engine-independent expectations for the differential suite
//! `batch_vs_tuple`: the fixtures generate their rows by formula, so
//! plain Rust knows what every query must return and the suite does not
//! only compare the engine with itself.
#![allow(dead_code)]

use sos_exec::Value;

/// Row `i` of the page-backed objects (`k = i`, `grp = i % 10`).
pub fn item(i: usize) -> Value {
    Value::tuple(vec![
        Value::Int(i as i64),
        Value::Int((i % 10) as i64),
        Value::Str(format!("{:0180}", i)),
    ])
}

/// `item(i)` with its `k` and `grp` fields replaced.
pub fn replaced(i: usize, k: i64, grp: i64) -> Value {
    Value::tuple(vec![
        Value::Int(k),
        Value::Int(grp),
        Value::Str(format!("{:0180}", i)),
    ])
}

/// Row `i` of the model relation `items` (`k = i`, `grp = i % 10`).
pub fn small(i: usize) -> Value {
    Value::tuple(vec![
        Value::Int(i as i64),
        Value::Int((i % 10) as i64),
        Value::Str(format!("i{i}")),
    ])
}

/// A tuple of integer fields.
pub fn ints(fields: &[i64]) -> Value {
    Value::tuple(fields.iter().map(|f| Value::Int(*f)).collect())
}

/// What a query must return according to plain Rust over the generating
/// formulas — so the suite does not only compare the engine with itself.
pub enum Expect {
    /// Only agreement across configurations is checked (errors, sums).
    Agree,
    Int(i64),
    /// `n` tuples; in scan order, so the first and last are known too.
    Rows(usize, Value, Value),
    /// `n` tuples, in no checked order.
    Len(usize),
}

use Expect::{Agree, Int, Len, Rows};

impl Expect {
    pub fn check(&self, q: &str, got: &Result<Value, String>) {
        let rows = |v: &Value| match v {
            Value::Rel(ts) | Value::Stream(ts) => ts.clone(),
            other => panic!("query `{q}`: expected tuples, got {other:?}"),
        };
        match (self, got) {
            (Agree, _) => {}
            (Int(n), Ok(v)) => assert_eq!(v, &Value::Int(*n), "query `{q}`"),
            (Rows(n, first, last), Ok(v)) => {
                let ts = rows(v);
                assert_eq!(ts.len(), *n, "query `{q}`");
                assert_eq!(ts.first(), Some(first), "query `{q}`: first tuple");
                assert_eq!(ts.last(), Some(last), "query `{q}`: last tuple");
            }
            (Len(n), Ok(v)) => assert_eq!(rows(v).len(), *n, "query `{q}`"),
            (_, Err(e)) => panic!("query `{q}` failed: {e}"),
        }
    }
}
