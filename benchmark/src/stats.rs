//! The benchmark's own statistics: medians, the percentile rule and the
//! quartile spread. Deliberately independent of `lifeguard_metrics`,
//! which is part of the program under test.

/// A timing or latency sample set reduced by the percentile rule: the
/// median plus the highest percentile that still has at least ten
/// samples beyond it, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    /// `(percentile, value)`; `None` below 100 samples, where not even
    /// p90 has ten samples beyond it.
    pub tail: Option<(f64, f64)>,
    /// Distance between the first and third quartile as a share of the
    /// median; `None` below four samples.
    pub spread: Option<f64>,
}

/// `(percentile, samples beyond it per 10 000)`, highest first.
const TAIL_LADDER: [(f64, usize); 4] = [(99.99, 1), (99.9, 10), (99.0, 100), (90.0, 1_000)];

/// The highest percentile of the ladder with at least ten of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|(p, _)| p)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` (0–100) of an ascending slice, interpolating linearly
/// between the closest ranks.
fn percentile_sorted(v: &[f64], p: f64) -> Option<f64> {
    let last = v.len().checked_sub(1)?;
    let rank = p / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile_sorted(&sorted(values), 50.0)
}

pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    percentile_sorted(&sorted(values), p)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so a spread printed here is the
/// spread the acceptance rule sees.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// `(q3 - q1) / median`, the run-to-run (or segment-to-segment) spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let median = percentile_sorted(&v, 50.0)?;
    let tail = tail_percentile(v.len()).and_then(|p| Some((p, percentile_sorted(&v, p)?)));
    Some(Summary {
        samples: v.len(),
        median,
        tail,
        spread: spread(&v),
    })
}

/// Sample standard deviation (n − 1).
pub fn std_dev(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    Some(var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        // The anomaly workload's 128 detections: 12.8 beyond p90, 1.28 beyond p99.
        assert_eq!(tail_percentile(128), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(99_999), Some(99.9));
        assert_eq!(tail_percentile(2_500_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=128).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.samples, 128);
        assert_eq!(s.median, 64.5);
        let (p, value) = s.tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((value - 115.3).abs() < 1e-9, "{value}");
        assert!(summarize(&[]).is_none());
        assert_eq!(summarize(&[7.0]).unwrap().tail, None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0]), Some((1.25, 8.25)));
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn std_dev_is_the_sample_deviation() {
        assert_eq!(
            std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
            Some((32.0f64 / 7.0).sqrt())
        );
        assert_eq!(std_dev(&[1.0]), None);
    }
}
