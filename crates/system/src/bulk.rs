//! Bulk loading.
//!
//! [`Database::bulk_load`] is the one way to load a batch of tuples
//! outside the statement language. It takes the fast paths: a sorted
//! build into an empty B-tree, a bulk pack into an empty LSD-tree, and
//! — on a durable database — one statement transaction closed by a
//! single checkpoint, so the load pays one log fsync (its commit's)
//! instead of one per tuple.
//!
//! A load is atomic in memory too: every tuple is encoded and keyed
//! (or, for a model `rel`, appended to a copy of its value) before the
//! object changes, so a bad tuple leaves the object as it was.
//!
//! Durability contract of a bulk load: the whole load is ONE statement,
//! run through the same statement bracket as every writing statement.
//! A crash mid-load recovers to the state before it (the commit record
//! never became durable) or after it (it did) — never to a partially
//! loaded object. A load that fails, in its tuples or in its commit,
//! leaves the object as it was. The closing checkpoint only moves the
//! recovery scan start past the load, which its commit already made
//! durable (under the database's own [`sos_storage::SyncPolicy`]); when
//! that checkpoint fails, the old one stays in force and the load still
//! counts, so an `Err` from `bulk_load` always means nothing was loaded.

use crate::{Database, SystemError};
use sos_core::Symbol;
use sos_exec::{encode_key, EvalCtx, ExecResult, Value};
use sos_storage::lsdtree::Entry;

impl Database {
    /// Bulk-load `tuples` into the object `name` — a model `rel` or a
    /// storage structure — as ONE statement, taking the fast paths the
    /// per-statement insert cannot:
    ///
    /// * an empty B-tree is built from one sorted run
    ///   ([`sos_storage::btree::BTree::bulk_load`]) and an empty
    ///   LSD-tree is bulk-packed; non-empty structures fall back to
    ///   ordinary inserts,
    /// * on a durable database the load is one commit, closed by a
    ///   single checkpoint.
    ///
    /// Returns the number of tuples loaded.
    pub fn bulk_load(&mut self, name: &str, tuples: Vec<Value>) -> Result<usize, SystemError> {
        let key = Symbol::new(name);
        let target = self
            .store
            .get(&key)
            .cloned()
            .ok_or_else(|| SystemError::UnknownObject(key.clone()))?;
        let loaded = tuples.len();
        self.write_statement(Some(&key), false, |db| {
            let mut ctx = EvalCtx::new(&db.engine, &mut db.store, &mut db.catalog);
            Ok(Some(load(&mut ctx, target, tuples)?))
        })?;
        if self.is_durable() {
            // The load is committed; a failed checkpoint only leaves the
            // old recovery scan start in force (see the module doc).
            let _ = self.checkpoint();
        }
        // Cached plans over the object stay: a load changes neither its
        // handle nor its type, and plans read no data.
        self.engine.stats.record("bulk_load", loaded, loaded);
        Ok(loaded)
    }
}

/// Load `tuples` into one object and return its new value: a model
/// `rel` is extended by value, a storage structure in place (its handle
/// is returned unchanged). Every tuple is encoded and keyed before the
/// first page is written (key and rect functions may evaluate arbitrary
/// expressions, so a bad tuple fails the load before it touches
/// storage); each tuple is dropped once encoded, so the load never
/// holds both forms of the whole batch. An empty tree gets one sorted
/// build or bulk pack; a non-empty structure takes ordinary inserts.
fn load(ctx: &mut EvalCtx, target: Value, tuples: Vec<Value>) -> ExecResult<Value> {
    let encode = |t: &Value| t.encode_tuple("bulk_load");
    if let Value::Rel(mut ts) = target {
        for t in tuples {
            t.as_tuple("bulk_load")?;
            ts.push(t);
        }
        return Ok(Value::Rel(ts));
    }
    match &target {
        Value::SRel(h) | Value::TidRel(h) => {
            let records = tuples
                .into_iter()
                .map(|t| encode(&t))
                .collect::<ExecResult<Vec<_>>>()?;
            for r in records {
                h.insert(&r)?;
            }
        }
        Value::BTree(h) => {
            let mut entries = tuples
                .into_iter()
                .map(|t| {
                    Ok((
                        encode_key("bulk_load", &ctx.key_value(h, &t)?)?,
                        encode(&t)?,
                    ))
                })
                .collect::<ExecResult<Vec<_>>>()?;
            // Stable: equal keys keep their arrival order.
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            if h.tree.is_empty() {
                h.tree.bulk_load(entries)?;
            } else {
                for (k, v) in entries {
                    h.tree.insert(&k, &v)?;
                }
            }
        }
        Value::LsdTree(h) => {
            let entries = tuples
                .into_iter()
                .map(|t| {
                    Ok(Entry {
                        rect: ctx.rect_value(h, &t)?,
                        payload: encode(&t)?,
                    })
                })
                .collect::<ExecResult<Vec<_>>>()?;
            if h.tree.is_empty() {
                h.tree.bulk_load(entries)?;
            } else {
                for e in entries {
                    h.tree.insert(e.rect, &e.payload)?;
                }
            }
        }
        other => {
            return Err(sos_exec::ExecError::Other(format!(
                "cannot bulk load a {}",
                other.kind_name()
            )))
        }
    }
    Ok(target)
}
