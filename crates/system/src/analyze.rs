//! `analyze`: collect per-object statistics into the catalog.
//!
//! Statistics feed the cardinality estimator behind EXPLAIN ANALYZE's
//! `est=` lines (see `sos_optimizer::cost`): row counts, page counts,
//! an equi-width histogram over a B-tree's key attribute, and the
//! bounding box and a center-x histogram for LSD-trees. They live in the [`sos_catalog::Catalog`] and therefore
//! persist through [`crate::Database::save`] /
//! [`crate::Database::open_dir`] and through WAL crash recovery (the
//! catalog rides in every commit's meta snapshot). Statistics are an
//! *estimate* refreshed only by `analyze`; plans never read them, so
//! analyzing leaves cached plans in place.

use crate::{Database, SystemError};
use sos_catalog::{BBox, Histogram, ObjectStats, HISTOGRAM_BUCKETS};
use sos_core::{DataType, Symbol};
use sos_exec::ops::streams::feed_value;
use sos_exec::Value;
use sos_optimizer::btree_key_attr;

/// Heuristic tuples-per-page for representations that do not expose a
/// physical page count (in-memory relations, streams).
const TUPLES_PER_PAGE: u64 = 64;

impl Database {
    /// Collect statistics for one object and store them in the catalog,
    /// replacing any previous statistics for it. Errors if the object
    /// does not exist or its value is not relation-like (does not
    /// `feed`).
    pub fn analyze(&mut self, name: &str) -> Result<ObjectStats, SystemError> {
        let key = Symbol::new(name);
        let ty = self
            .catalog
            .object(&key)
            .ok_or_else(|| SystemError::UnknownObject(key.clone()))?
            .ty
            .clone();
        let value = self.store.get(&key).cloned().unwrap_or(Value::Undefined);
        let stats = object_stats(&ty, &value)?;
        let tx = self.begin_stmt()?;
        self.catalog.set_stats(key.clone(), stats.clone());
        self.commit_stmt(tx)?;
        Ok(stats)
    }

    /// Analyze every relation-like object in the catalog (objects whose
    /// values do not `feed` — atoms, functions, catalogs — are skipped).
    /// Returns the analyzed names and their statistics, sorted by name.
    pub fn analyze_all(&mut self) -> Result<Vec<(Symbol, ObjectStats)>, SystemError> {
        let mut names: Vec<Symbol> = self
            .catalog
            .objects()
            .filter(|entry| {
                matches!(
                    self.store.get(&entry.name),
                    Some(
                        Value::Rel(_)
                            | Value::Stream(_)
                            | Value::SRel(_)
                            | Value::TidRel(_)
                            | Value::BTree(_)
                            | Value::LsdTree(_)
                    )
                )
            })
            .map(|entry| entry.name.clone())
            .collect();
        names.sort();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let stats = self.analyze(name.as_str())?;
            out.push((name, stats));
        }
        Ok(out)
    }
}

/// Compute statistics for one object value of declared type `ty`.
fn object_stats(ty: &DataType, value: &Value) -> Result<ObjectStats, SystemError> {
    let tuples = feed_value(value)?;
    let mut stats = ObjectStats {
        rows: tuples.len() as u64,
        pages: physical_pages(value)?.max(1),
        ..ObjectStats::default()
    };
    if let Some(attr) = btree_key_attr(ty) {
        if let Some(idx) = attr_index_of(ty, &attr) {
            let values: Vec<f64> = tuples
                .iter()
                .filter_map(|t| match t {
                    Value::Tuple(fields) => numeric(fields.get(idx)?),
                    _ => None,
                })
                .collect();
            stats.key_histogram = Histogram::build(&values, HISTOGRAM_BUCKETS);
            stats.key_attr = Some(attr);
        }
    }
    let rects = collect_rects(value)?;
    if !rects.is_empty() {
        let mut bbox = BBox {
            x0: f64::INFINITY,
            y0: f64::INFINITY,
            x1: f64::NEG_INFINITY,
            y1: f64::NEG_INFINITY,
        };
        let mut centers = Vec::with_capacity(rects.len());
        for r in &rects {
            bbox.x0 = bbox.x0.min(r.min_x);
            bbox.y0 = bbox.y0.min(r.min_y);
            bbox.x1 = bbox.x1.max(r.max_x);
            bbox.y1 = bbox.y1.max(r.max_y);
            centers.push((r.min_x + r.max_x) / 2.0);
        }
        stats.bbox = Some(bbox);
        // A one-dimensional equi-width histogram over rect centers
        // (x-axis): enough to rank spatial probes against full scans
        // without a full spatial grid.
        stats.rect_histogram = Histogram::build(&centers, HISTOGRAM_BUCKETS);
    }
    Ok(stats)
}

/// The physical page count of a representation value, or a
/// tuples-per-page estimate for values without one.
fn physical_pages(value: &Value) -> Result<u64, SystemError> {
    Ok(match value {
        Value::SRel(h) | Value::TidRel(h) => h.pages().len() as u64,
        Value::BTree(h) => h.tree.page_count().map_err(SystemError::from)? as u64,
        other => {
            let rows = feed_value(other)?.len() as u64;
            rows.div_ceil(TUPLES_PER_PAGE)
        }
    })
}

/// The indexed rectangles of an LSD-tree value (empty for anything else).
fn collect_rects(value: &Value) -> Result<Vec<sos_geom::Rect>, SystemError> {
    Ok(match value {
        Value::LsdTree(h) => h
            .tree
            .scan()
            .map_err(SystemError::from)?
            .into_iter()
            .map(|e| e.rect)
            .collect(),
        _ => Vec::new(),
    })
}

/// The position of `attr` in the tuple type a representation type wraps.
fn attr_index_of(ty: &DataType, attr: &Symbol) -> Option<usize> {
    let DataType::Cons(_, args) = ty else {
        return None;
    };
    let sos_core::TypeArg::Type(tuple) = args.first()? else {
        return None;
    };
    tuple.tuple_attrs()?.iter().position(|(a, _)| a == attr)
}

/// A numeric field as `f64` (histograms cover int and real keys).
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(x) => Some(*x as f64),
        Value::Real(x) => Some(*x),
        _ => None,
    }
}
