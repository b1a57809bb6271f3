//! Order statistics and the regression verdict.

use crate::metrics::Better;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0.0 for an empty sample (an absent layer reports zero).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` in 0..=100.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// Candidate tail percentiles, ascending, in per mille.
const TAILS: [usize; 4] = [500, 900, 990, 999];

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it; `None` below 20 samples, where not even the median has.
pub fn highest_percentile(samples: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|&&p| samples * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// A named tail (`p99`, `p90`) computed at the named percentile when the
/// sample supports it, else at the highest percentile that does. Returns
/// the value and the percentile actually used.
pub fn tail(values: &[f64], named: f64) -> (f64, f64) {
    let used = highest_percentile(values.len()).map_or(50.0, |p| p.min(named));
    (percentile(values, used), used)
}

/// Quartile cut points exactly as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver computes spreads that way.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn iqr_rel(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The spread between same-code runs is wider than the bound, so a
    /// regression of bound size could hide in it.
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// By what share of `base` the candidate is *worse* (negative: better).
pub fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if cand == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

/// Compare a candidate median against a base median. `spread` is the
/// wider of the two sides' relative trial IQRs.
pub fn verdict(base: f64, cand: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let worse = worsening(base, cand, better);
    if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -spread.max(bound / 3.0) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 10.0]), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 4.6);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).1, 90.0, "200 samples carry a p90, not a p99");
        assert_eq!(tail(&v, 90.0).1, 90.0);
        assert_eq!(tail(&v[..5], 90.0).1, 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_rel(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdict_rules() {
        use Better::*;
        // lower is better, bound 6 %
        assert_eq!(verdict(100.0, 107.0, Lower, 0.06, 0.01), Verdict::Regressed);
        assert_eq!(verdict(100.0, 105.0, Lower, 0.06, 0.01), Verdict::Unchanged);
        assert_eq!(verdict(100.0, 90.0, Lower, 0.06, 0.01), Verdict::Improved);
        // a small gain inside a third of the bound is not called a gain
        assert_eq!(verdict(100.0, 99.0, Lower, 0.06, 0.001), Verdict::Unchanged);
        // spread wider than the bound: cannot call it unchanged
        assert_eq!(
            verdict(100.0, 101.0, Lower, 0.06, 0.09),
            Verdict::Unresolved
        );
        // ... but a loss beyond the bound is still a loss
        assert_eq!(verdict(100.0, 120.0, Lower, 0.06, 0.09), Verdict::Regressed);
        // higher is better flips the sign
        assert_eq!(verdict(100.0, 93.0, Higher, 0.06, 0.01), Verdict::Regressed);
        assert_eq!(verdict(100.0, 110.0, Higher, 0.06, 0.01), Verdict::Improved);
        // a metric that must stay 0
        assert_eq!(verdict(0.0, 0.0, Lower, 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(0.0, 0.001, Lower, 0.0, 0.0), Verdict::Regressed);
    }
}
