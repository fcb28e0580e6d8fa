//! Statistics helpers for the experiment tables.
//!
//! The quantile machinery lives in `lifeguard-metrics` (the shared
//! observability crate) so the experiments, the protocol core and the
//! `swim-metrics` aggregator all use one rank rule. This module
//! re-exports [`percentile`] and builds the paper's latency summaries
//! on the shared log-bucket [`Histogram`].

use std::time::Duration;

use lifeguard_metrics::Histogram;
pub use lifeguard_metrics::percentile;

/// The latency summary the paper reports in Table V: median, 99th and
/// 99.9th percentiles, in seconds.
///
/// Built from the shared [`Histogram`], so quantiles carry its bounded
/// relative error (≤ ~3.2%) instead of being exact order statistics —
/// well under the run-to-run noise the tables average over, and it
/// keeps one quantile implementation in the workspace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median (50th percentile), seconds.
    pub median: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// 99.9th percentile, seconds.
    pub p999: f64,
    /// Number of samples the summary is built from.
    pub samples: usize,
}

impl LatencySummary {
    /// Summarises a set of latency samples. Returns `None` if empty.
    pub fn from_durations(latencies: impl IntoIterator<Item = Duration>) -> Option<Self> {
        let mut h = Histogram::new();
        let mut samples = 0usize;
        for d in latencies {
            h.record_duration(d);
            samples += 1;
        }
        Self::from_histogram_us(&h).map(|mut s| {
            s.samples = samples;
            s
        })
    }

    /// Summarises a microsecond histogram (the unit every metrics
    /// histogram in the workspace records). Returns `None` if empty.
    pub fn from_histogram_us(h: &Histogram) -> Option<Self> {
        const US_PER_SEC: f64 = 1_000_000.0;
        Some(LatencySummary {
            median: h.quantile(50.0)? / US_PER_SEC,
            p99: h.quantile(99.0)? / US_PER_SEC,
            p999: h.quantile(99.9)? / US_PER_SEC,
            samples: usize::try_from(h.count()).unwrap_or(usize::MAX),
        })
    }
}

/// `value` as a percentage of `baseline`, the way Tables IV, VI and VII
/// present results ("% SWIM"); `None` over a zero baseline, where the
/// ratio is undefined.
pub fn pct_of_baseline(value: f64, baseline: f64) -> Option<f64> {
    (baseline != 0.0).then(|| value / baseline * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative-error helper: the log-bucket histogram bounds quantile
    /// error at half a sub-bucket (~3.2%).
    fn close(actual: f64, expected: f64) -> bool {
        (actual - expected).abs() <= expected * 0.033
    }

    #[test]
    fn percentile_interpolates() {
        let xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 25.0), Some(20.0));
        assert_eq!(percentile(&xs, 50.0), Some(30.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 62.5), Some(35.0));
    }

    #[test]
    fn percentile_handles_unsorted_input_and_single_sample() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let xs = vec![1.0, 2.0];
        assert_eq!(percentile(&xs, -5.0), Some(1.0));
        assert_eq!(percentile(&xs, 150.0), Some(2.0));
    }

    #[test]
    fn percentile_ignores_nan_samples() {
        // The pre-unification implementation panicked on NaN input; the
        // shared one drops NaN (no ordering information) and keeps the
        // rest of the table usable.
        assert_eq!(percentile(&[f64::NAN, 4.0, 2.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[f64::NAN], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn latency_summary_basics() {
        let s = LatencySummary::from_durations(vec![
            Duration::from_secs(10),
            Duration::from_secs(12),
            Duration::from_secs(14),
        ])
        .unwrap();
        assert!(close(s.median, 12.0), "median {}", s.median);
        assert_eq!(s.samples, 3);
        assert!(close(s.p99, 14.0), "p99 {}", s.p99);
        assert!(s.p999 >= s.p99);
        assert!(LatencySummary::from_durations(vec![]).is_none());
    }

    #[test]
    fn latency_summary_matches_histogram_path() {
        // from_durations is just from_histogram_us over the recorded
        // samples; the two constructors must agree.
        let durs = [37_u64, 1_200, 85_000, 85_000, 2_000_000];
        let mut h = Histogram::new();
        for &ms in &durs {
            h.record_duration(Duration::from_millis(ms));
        }
        let a = LatencySummary::from_durations(durs.iter().map(|&ms| Duration::from_millis(ms)))
            .unwrap();
        let b = LatencySummary::from_histogram_us(&h).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pct_of_baseline_edge_cases() {
        assert_eq!(pct_of_baseline(50.0, 100.0), Some(50.0));
        assert_eq!(pct_of_baseline(0.0, 100.0), Some(0.0));
        assert_eq!(pct_of_baseline(0.0, 0.0), None);
        assert_eq!(pct_of_baseline(5.0, 0.0), None);
    }
}
