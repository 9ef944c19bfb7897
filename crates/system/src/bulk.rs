//! Bulk loading.
//!
//! [`Database::bulk_load`] loads a batch of tuples through the fast
//! paths: a sorted build into an empty B-tree, a bulk pack into an
//! empty LSD-tree, and — on a durable database — one statement
//! transaction under [`SyncPolicy::NoSync`] closed by a single
//! checkpoint, so the load pays one fsync instead of one per statement.
//!
//! Durability contract of a bulk load: the whole load is ONE statement.
//! A crash mid-load recovers to the state before it (the commit record
//! never became durable) or after it (it did) — never to a partially
//! loaded object. Under `NoSync` the commit is written to the log but
//! not synced; it becomes durable when the closing checkpoint syncs the
//! log. The database's own policy is restored on every exit path, so a
//! failed load never leaves later commits unsynced.

use crate::{Database, SystemError};
use sos_core::Symbol;
use sos_exec::{encode_key, EvalCtx, ExecResult, Value};
use sos_storage::lsdtree::Entry;
use sos_storage::SyncPolicy;

impl Database {
    /// Bulk-load `tuples` into the storage object `name` as ONE
    /// statement, taking the fast paths the per-statement insert cannot:
    ///
    /// * an empty B-tree is built from one sorted run
    ///   ([`sos_storage::btree::BTree::bulk_load`]) and an empty
    ///   LSD-tree is bulk-packed; non-empty structures fall back to
    ///   ordinary inserts,
    /// * on a durable database the load runs under
    ///   [`SyncPolicy::NoSync`] and is closed by a single checkpoint,
    ///   so it pays one fsync total.
    ///
    /// Returns the number of tuples loaded.
    pub fn bulk_load(&mut self, name: &str, tuples: Vec<Value>) -> Result<usize, SystemError> {
        let key = Symbol::new(name);
        if self.catalog.object(&key).is_none() {
            return Err(SystemError::UnknownObject(key));
        }
        let target = self
            .store
            .get(&key)
            .cloned()
            .ok_or_else(|| SystemError::UnknownObject(key.clone()))?;
        match &target {
            Value::SRel(_) | Value::TidRel(_) | Value::BTree(_) | Value::LsdTree(_) => {}
            _ => {
                let n = tuples.len();
                self.bulk_insert(name, tuples)?;
                return Ok(n);
            }
        }
        let loaded = tuples.len();
        match self.sync_policy() {
            None => self.bulk_load_inner(&target, tuples)?,
            Some(saved) => {
                // Relax the sync policy for the load; the closing
                // checkpoint syncs what NoSync deferred. The saved policy
                // is restored whatever failed (setting a policy takes
                // effect even when its flush fails), then the first
                // error is returned.
                let result = self
                    .set_sync_policy(SyncPolicy::NoSync)
                    .and_then(|()| self.bulk_load_inner(&target, tuples))
                    .and_then(|()| self.checkpoint().map(drop));
                let restored = self.set_sync_policy(saved);
                result.and(restored)?;
            }
        }
        // Cached plans over the object stay: a load changes neither its
        // handle nor its type, and plans read no data.
        self.engine.stats.record("bulk_load", loaded, loaded);
        Ok(loaded)
    }

    fn bulk_load_inner(&mut self, target: &Value, tuples: Vec<Value>) -> Result<(), SystemError> {
        let tx = self.begin_stmt()?;
        {
            let mut ctx = EvalCtx::new(&self.engine, &mut self.store, &mut self.catalog);
            load(&mut ctx, target, tuples)?;
        }
        self.commit_stmt(tx)?;
        Ok(())
    }
}

/// Load `tuples` into one storage structure. Every tuple is encoded and
/// keyed before the first page is written (key and rect functions may
/// evaluate arbitrary expressions, so a bad tuple fails the load before
/// it touches storage); each tuple is dropped once encoded, so the load
/// never holds both forms of the whole batch. An empty tree gets one
/// sorted build or bulk pack; a non-empty structure takes ordinary
/// inserts.
fn load(ctx: &mut EvalCtx, target: &Value, tuples: Vec<Value>) -> ExecResult<()> {
    let encode = |t: &Value| t.encode_tuple("bulk_load");
    match target {
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
    Ok(())
}
