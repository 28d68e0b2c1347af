//! Order statistics and interval arithmetic over measured samples.

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile (integer, nearest-rank).
    pub pct: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie strictly beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest integer percentile that leaves at least [`TAIL_BEYOND`]
/// samples beyond it (nearest-rank). With too few samples for any
/// percentile to qualify, falls back to the median.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for pct in (50..=99u32).rev() {
        let rank = (pct as usize * n).div_ceil(100).max(1);
        if n >= rank + TAIL_BEYOND {
            return Tail {
                pct,
                value: v[rank - 1],
                beyond: n - rank,
                samples: n,
            };
        }
    }
    let rank = n.div_ceil(2).max(1);
    Tail {
        pct: 50,
        value: v.get(rank - 1).copied().unwrap_or(0.0),
        beyond: n.saturating_sub(rank),
        samples: n,
    }
}

/// Total length covered by `intervals` after clipping each to `[lo, hi)`
/// (overlaps counted once).
pub fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (90, 90.0, 10));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.beyond), (75, 10));
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let spans = [(0.0, 4.0), (2.0, 6.0), (8.0, 9.0), (-5.0, -1.0)];
        assert_eq!(covered(&spans, 0.0, 10.0), 7.0);
        assert_eq!(covered(&spans, 3.0, 8.5), 3.5);
    }
}
