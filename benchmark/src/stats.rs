//! Order statistics and span arithmetic shared by the run and report code.

/// The `p`-th percentile (0 < p <= 100) by the nearest-rank rule: the
/// smallest sample with at least `p` % of the samples at or below it.
/// Every reported percentile is therefore a latency some statement had.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && p > 0.0 && p <= 100.0);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them; needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A span's self time: its duration minus the part of it that the given
/// child intervals cover (children may overlap each other or stick out).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut covered, mut upto) = (0, start);
    for (s, e) in clipped {
        if e > upto {
            covered += e - s.max(upto);
            upto = e;
        }
    }
    end - start - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.1), 1);
        // 1 000 samples leave exactly ten beyond p99
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[3, 9], 50.0), 3);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // overlapping children count once; parts outside are clipped
        assert_eq!(self_time((10, 100), &[(0, 30), (20, 50), (90, 200)]), 40);
        assert_eq!(self_time((0, 10), &[(0, 10), (2, 4)]), 0);
    }
}
