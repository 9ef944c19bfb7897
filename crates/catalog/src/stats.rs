//! Per-object statistics for cardinality estimates.
//!
//! Collected by `Database::analyze`, stored in the catalog (so they ride
//! the same snapshot/WAL machinery as object types),
//! and read by the optimizer crate's cardinality estimator, whose
//! estimates EXPLAIN ANALYZE prints. The shapes are
//! deliberately simple: a row count, a page count, and an equi-width
//! histogram over the numeric key domain (B-tree key attribute, or the
//! center-x of indexed rectangles for `lsdtree` objects).

use sos_core::Symbol;

/// Number of buckets an equi-width histogram is built with.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-width histogram over a numeric domain `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Build an equi-width histogram from a sample of values. Returns
    /// `None` when there is nothing to summarize.
    pub fn build(values: &[f64], nbuckets: usize) -> Option<Histogram> {
        if values.is_empty() || nbuckets == 0 {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in values {
            if !v.is_finite() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if !lo.is_finite() || !hi.is_finite() {
            return None;
        }
        let mut h = Histogram {
            lo,
            hi,
            buckets: vec![0; nbuckets],
        };
        let width = (hi - lo).max(f64::EPSILON);
        for &v in values {
            if !v.is_finite() {
                continue;
            }
            let idx = (((v - lo) / width) * nbuckets as f64) as usize;
            h.buckets[idx.min(nbuckets - 1)] += 1;
        }
        Some(h)
    }

    /// Total count across buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn bucket_width(&self) -> f64 {
        ((self.hi - self.lo) / self.buckets.len() as f64).max(f64::EPSILON)
    }

    /// Estimated fraction of rows with value exactly `v`: the containing
    /// bucket's share divided by the estimated distinct values per
    /// bucket (bounded by the bucket's own count).
    pub fn fraction_eq(&self, v: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        if v < self.lo || v > self.hi {
            return 0.0;
        }
        let idx = (((v - self.lo) / (self.hi - self.lo).max(f64::EPSILON))
            * self.buckets.len() as f64) as usize;
        let count = self.buckets[idx.min(self.buckets.len() - 1)] as f64;
        // Distinct values per bucket: at most the bucket count, at most
        // one per integer step of the bucket's width.
        let distinct = count.min(self.bucket_width().ceil().max(1.0));
        (count / distinct.max(1.0)) / total as f64
    }

    /// Estimated fraction of rows with value `<= v` (linear
    /// interpolation inside the containing bucket).
    pub fn fraction_le(&self, v: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        if v < self.lo {
            return 0.0;
        }
        if v >= self.hi {
            return 1.0;
        }
        let width = self.bucket_width();
        let pos = (v - self.lo) / width;
        let idx = (pos as usize).min(self.buckets.len() - 1);
        let frac_in_bucket = (pos - idx as f64).clamp(0.0, 1.0);
        let below: u64 = self.buckets[..idx].iter().sum();
        (below as f64 + self.buckets[idx] as f64 * frac_in_bucket) / total as f64
    }

    /// Estimated fraction of rows with value `>= v`.
    pub fn fraction_ge(&self, v: f64) -> f64 {
        (1.0 - self.fraction_le(v) + self.fraction_eq(v)).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows with `lo <= value <= hi`.
    pub fn fraction_range(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        (self.fraction_le(hi) - self.fraction_le(lo) + self.fraction_eq(lo)).clamp(0.0, 1.0)
    }
}

/// Bounding box of the rectangles indexed by an `lsdtree` object.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BBox {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

/// Statistics for one named storage object.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ObjectStats {
    /// Row (entry) count at analyze time.
    pub rows: u64,
    /// Pages the object occupies (heap pages, B-tree pages, or an
    /// estimate for in-memory representations).
    pub pages: u64,
    /// For B-tree objects: the key attribute the histogram is over.
    pub key_attr: Option<Symbol>,
    /// Equi-width histogram over the numeric key attribute.
    pub key_histogram: Option<Histogram>,
    /// For lsdtree objects: histogram over indexed-rect center x.
    pub rect_histogram: Option<Histogram>,
    /// For lsdtree objects: bounding box of all indexed rects.
    pub bbox: Option<BBox>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_build_and_fractions() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::build(&values, 32).unwrap();
        assert_eq!(h.total(), 1000);
        assert!((h.fraction_le(499.0) - 0.5).abs() < 0.05);
        assert!((h.fraction_ge(900.0) - 0.1).abs() < 0.05);
        assert!((h.fraction_range(100.0, 199.0) - 0.1).abs() < 0.05);
        // Point equality on a dense integer domain: ~1/1000.
        let eq = h.fraction_eq(500.0);
        assert!(eq > 0.0 && eq < 0.01, "eq fraction {eq}");
        // Out-of-range probes estimate zero.
        assert_eq!(h.fraction_eq(-5.0), 0.0);
        assert_eq!(h.fraction_le(-5.0), 0.0);
        assert_eq!(h.fraction_le(5000.0), 1.0);
    }

    #[test]
    fn histogram_skew_reflects_distribution() {
        // 90% of mass at low values.
        let mut values = vec![1.0; 900];
        values.extend((0..100).map(|i| 100.0 + i as f64));
        let h = Histogram::build(&values, 32).unwrap();
        assert!(h.fraction_le(50.0) > 0.8);
        assert!(h.fraction_ge(150.0) < 0.1);
    }

    #[test]
    fn histogram_degenerate_inputs() {
        assert!(Histogram::build(&[], 32).is_none());
        assert!(Histogram::build(&[1.0], 0).is_none());
        let h = Histogram::build(&[7.0, 7.0, 7.0], 32).unwrap();
        assert_eq!(h.total(), 3);
        assert!(h.fraction_eq(7.0) > 0.9);
        assert_eq!(h.fraction_le(7.0), 1.0);
    }
}
