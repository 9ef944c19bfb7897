//! Partitioned storage administration and bulk loading.
//!
//! [`Database::partition_object`] splits one storage object across
//! multiple structures of the same declared type (the partitioning spec
//! is recorded in the catalog, so it survives `save`/`open_dir` and WAL
//! recovery). [`Database::bulk_load`] loads a batch of tuples through
//! the fast paths: sorted builds for empty B-tree partitions, bulk
//! packs for empty LSD-tree partitions, and — on a durable database —
//! one statement transaction under [`SyncPolicy::NoSync`] closed by a
//! single checkpoint, so the load pays one fsync instead of one per
//! statement.
//!
//! Durability contract of a bulk load: the whole load is ONE statement.
//! A crash mid-load recovers to the state before it (the commit record
//! never became durable) or after it (it did) — never to a partially
//! loaded object. Under `NoSync` the commit acknowledgment itself is
//! not durable until the closing checkpoint syncs the log.

use crate::{Database, SystemError};
use sos_catalog::PartSpec;
use sos_core::Symbol;
use sos_exec::ops::streams::feed_value;
use sos_exec::ops::updates::insert_into;
use sos_exec::{EvalCtx, ExecError, PartHandle, Value};
use sos_geom::Rect;
use sos_storage::SyncPolicy;
use std::sync::Arc;

/// One tuple prepared for loading: routed, encoded, and keyed, so the
/// per-partition load needs no evaluation context (key functions run in
/// the serial prepare phase; the parallel phase only touches storage).
enum Prepared {
    /// Heap partition: the encoded record.
    Heap(Vec<u8>),
    /// B-tree partition: encoded key, encoded record.
    Keyed(Vec<u8>, Vec<u8>),
    /// LSD-tree partition: indexed rectangle, encoded record.
    Spatial(Rect, Vec<u8>),
}

impl Database {
    /// Partition the storage object `name` per `spec`: fresh partition
    /// structures of the object's declared type are created, every
    /// tuple the object currently holds is routed into its partition,
    /// and the spec is recorded in the catalog (so it survives
    /// `save`/`open_dir` and, on a durable database, crash recovery).
    ///
    /// The object keeps its declared type — the checker, signature, and
    /// optimizer are untouched; only the runtime value becomes
    /// partitioned. Errors if the object is already partitioned or is
    /// not a storage representation (`srel`/`trel`/`btree`/`lsdtree`).
    pub fn partition_object(&mut self, name: &str, spec: PartSpec) -> Result<(), SystemError> {
        let key = Symbol::new(name);
        let ty = self
            .catalog
            .object(&key)
            .ok_or_else(|| SystemError::UnknownObject(key.clone()))?
            .ty
            .clone();
        let current = self
            .store
            .get(&key)
            .cloned()
            .ok_or_else(|| SystemError::UnknownObject(key.clone()))?;
        match &current {
            Value::SRel(_) | Value::TidRel(_) | Value::BTree(_) | Value::LsdTree(_) => {}
            Value::Part(_) => {
                return Err(SystemError::Persist(format!(
                    "`{name}` is already partitioned"
                )))
            }
            other => {
                return Err(SystemError::Persist(format!(
                    "`{name}` is a {} — only storage representations \
                     (srel/trel/btree/lsdtree) can be partitioned",
                    other.kind_name()
                )))
            }
        }
        let existing = feed_value(&current)?;
        let n = spec.method.parts();
        // Everything that dirties pages — partition structure creation
        // and tuple routing — happens inside the one statement bracket,
        // so a crash mid-partitioning aborts to the unpartitioned state.
        let tx = self.begin_stmt()?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push(self.engine.init_value(&self.sig, &self.catalog, &ty)?);
        }
        let tuple_ty = ty.single_type_arg().cloned();
        let part = Value::Part(Arc::new(PartHandle::new(
            spec.clone(),
            parts,
            tuple_ty.as_ref(),
        )?));
        {
            let mut ctx = EvalCtx::new(&self.engine, &mut self.store, &mut self.catalog);
            for t in &existing {
                insert_into(&mut ctx, &part, t)?;
            }
        }
        self.catalog.set_partition_spec(key.clone(), spec);
        let prev = self.store.insert(key.clone(), part);
        if let Err(e) = self.commit_stmt(tx) {
            self.catalog.remove_partition_spec(&key);
            match prev {
                Some(v) => self.store.insert(key, v),
                None => self.store.remove(&key),
            };
            return Err(e);
        }
        // Cached plans over the old representation (e.g. a serial scan)
        // no longer match the partitioned object.
        self.invalidate_plans_for(&key);
        Ok(())
    }

    /// Bulk-load `tuples` into the storage object `name` as ONE
    /// statement, taking the fast paths the per-statement insert cannot:
    ///
    /// * empty B-tree partitions are built from sorted runs
    ///   ([`sos_storage::btree::BTree::bulk_load`]), empty LSD-tree
    ///   partitions are bulk-packed; non-empty structures fall back to
    ///   ordinary inserts,
    /// * a partitioned object routes every tuple in one serial prepare
    ///   pass, then loads its partitions in parallel across the
    ///   engine's workers,
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
            Value::SRel(_)
            | Value::TidRel(_)
            | Value::BTree(_)
            | Value::LsdTree(_)
            | Value::Part(_) => {}
            _ => {
                let n = tuples.len();
                self.bulk_insert(name, tuples)?;
                return Ok(n);
            }
        }
        let loaded = tuples.len();
        // Relax the sync policy for the duration; every exit path below
        // restores it (and the closing checkpoint syncs what NoSync
        // deferred).
        let saved_policy = self.sync_policy();
        if saved_policy.is_some() {
            self.set_sync_policy(SyncPolicy::NoSync)?;
        }
        let result = self.bulk_load_inner(&target, tuples);
        if let Some(p) = saved_policy {
            // Checkpoint first: it flushes and syncs the log, making the
            // NoSync-acknowledged commit durable before the policy flips
            // back.
            if result.is_ok() {
                self.checkpoint()?;
            }
            self.set_sync_policy(p)?;
        }
        result?;
        self.engine
            .stats
            .record("bulk_load", self.engine.workers(), loaded, loaded);
        if let Value::Part(h) = &target {
            self.engine
                .stats
                .record_partitions("bulk_load", h.part_count() as u64, 0);
        }
        // A bulk load shifts the object's cardinality enough that any
        // cost-chosen cached plan over it is suspect.
        self.invalidate_plans_for(&key);
        Ok(loaded)
    }

    fn bulk_load_inner(&mut self, target: &Value, tuples: Vec<Value>) -> Result<(), SystemError> {
        let tx = self.begin_stmt()?;
        // Prepare phase (serial): route and encode every tuple. Key and
        // rect functions may evaluate arbitrary expressions, so this
        // phase holds the evaluation context.
        let (parts, mut buckets) = {
            let mut ctx = EvalCtx::new(&self.engine, &mut self.store, &mut self.catalog);
            prepare(&mut ctx, target, tuples)?
        };
        // Load phase (parallel): per-partition storage builds only.
        let workers = self.engine.workers().min(parts.len());
        if workers > 1 && parts.len() > 1 {
            let jobs: Vec<(&Value, Vec<Prepared>)> = parts.iter().zip(buckets.drain(..)).collect();
            let chunks = split_round_robin(jobs, workers);
            let r: Result<(), ExecError> = std::thread::scope(|s| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|chunk| {
                        s.spawn(move || {
                            for (part, bucket) in chunk {
                                load_partition(part, bucket)?;
                            }
                            Ok::<(), ExecError>(())
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("bulk load worker panicked")?;
                }
                Ok(())
            });
            r?;
        } else {
            for (part, bucket) in parts.iter().zip(buckets) {
                load_partition(part, bucket)?;
            }
        }
        self.commit_stmt(tx)?;
        Ok(())
    }
}

/// Route and encode `tuples` against `target`, returning the partition
/// values (one for an unpartitioned object) and one bucket of prepared
/// entries per partition.
fn prepare(
    ctx: &mut EvalCtx,
    target: &Value,
    tuples: Vec<Value>,
) -> Result<(Vec<Value>, Vec<Vec<Prepared>>), SystemError> {
    let (parts, route): (Vec<Value>, Option<&PartHandle>) = match target {
        Value::Part(h) => (h.parts.clone(), Some(h)),
        other => (vec![other.clone()], None),
    };
    let mut buckets: Vec<Vec<Prepared>> = (0..parts.len()).map(|_| Vec::new()).collect();
    for t in tuples {
        let bytes = t.encode_tuple("bulk_load")?;
        let prepared; // per the shape of the (first) partition
        let idx;
        match parts.first() {
            Some(Value::SRel(_) | Value::TidRel(_)) => {
                idx = match route {
                    Some(h) => h.route_tuple(&t)?,
                    None => 0,
                };
                prepared = Prepared::Heap(bytes);
            }
            Some(Value::BTree(bh)) => {
                idx = match route {
                    Some(h) => h.route_tuple(&t)?,
                    None => 0,
                };
                let kv = ctx.key_value(bh, &t)?;
                prepared = Prepared::Keyed(sos_exec::encode_key("bulk_load", &kv)?, bytes);
            }
            Some(Value::LsdTree(lh)) => {
                let rect = ctx.rect_value(lh, &t)?;
                idx = match route {
                    Some(h) => h.route_rect(&rect)?,
                    None => 0,
                };
                prepared = Prepared::Spatial(rect, bytes);
            }
            other => {
                return Err(SystemError::Persist(format!(
                    "cannot bulk load a {} partition",
                    other.map(|v| v.kind_name()).unwrap_or("missing")
                )))
            }
        }
        buckets[idx].push(prepared);
    }
    Ok((parts, buckets))
}

/// Load one partition's bucket: sorted build / bulk pack when the
/// structure is empty, ordinary inserts when it is not.
fn load_partition(part: &Value, bucket: Vec<Prepared>) -> Result<(), ExecError> {
    match part {
        Value::SRel(h) | Value::TidRel(h) => {
            for p in bucket {
                let Prepared::Heap(bytes) = p else {
                    unreachable!("heap partition prepared with a key")
                };
                h.insert(&bytes)?;
            }
        }
        Value::BTree(h) => {
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = bucket
                .into_iter()
                .map(|p| match p {
                    Prepared::Keyed(k, v) => (k, v),
                    _ => unreachable!("btree partition prepared without a key"),
                })
                .collect();
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
            let entries: Vec<sos_storage::lsdtree::Entry> = bucket
                .into_iter()
                .map(|p| match p {
                    Prepared::Spatial(rect, payload) => {
                        sos_storage::lsdtree::Entry { rect, payload }
                    }
                    _ => unreachable!("lsd partition prepared without a rect"),
                })
                .collect();
            if h.tree.is_empty() {
                h.tree.bulk_load(entries)?;
            } else {
                for e in entries {
                    h.tree.insert(e.rect, &e.payload)?;
                }
            }
        }
        other => {
            return Err(ExecError::Other(format!(
                "cannot bulk load a {} partition",
                other.kind_name()
            )))
        }
    }
    Ok(())
}

/// Distribute jobs round-robin across `n` chunks (partition loads vary
/// in size; round-robin spreads the heavy ones).
fn split_round_robin<T>(jobs: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let mut chunks: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        chunks[i % n].push(job);
    }
    chunks
}
