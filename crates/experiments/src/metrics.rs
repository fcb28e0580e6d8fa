//! Statistics helpers for the experiment tables.
//!
//! The quantile rule lives in `lifeguard-metrics` (the shared
//! observability crate) so the experiments, the protocol core and the
//! `swim-metrics` aggregator all use one rank rule. This module
//! re-exports [`percentile`]: the verdict's D1 row and Table V read the
//! same exact percentiles of the same detection latencies.

pub use lifeguard_metrics::percentile;

/// `value` as a percentage of `baseline`, the way Tables IV, VI and VII
/// present results ("% SWIM"); `None` over a zero baseline, where the
/// ratio is undefined.
pub fn pct_of_baseline(value: f64, baseline: f64) -> Option<f64> {
    (baseline != 0.0).then(|| value / baseline * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pct_of_baseline_edge_cases() {
        assert_eq!(pct_of_baseline(50.0, 100.0), Some(50.0));
        assert_eq!(pct_of_baseline(0.0, 100.0), Some(0.0));
        assert_eq!(pct_of_baseline(0.0, 0.0), None);
        assert_eq!(pct_of_baseline(5.0, 0.0), None);
    }
}
