//! Fixed log-bucket histogram and the shared quantile rule.
//!
//! The histogram is HDR-style log-linear: values below 16 get one
//! bucket each (exact), every power-of-two range above is split into
//! 16 sub-buckets, so the relative quantile error is bounded by half a
//! sub-bucket width (≤ ~3.2%) across the whole `u64` domain. The
//! bucket array is a fixed-size inline array — `record` is branch +
//! shift + one increment, no allocation ever — which is what lets the
//! protocol core carry histograms on its zero-allocation hot path.
//!
//! Quantiles everywhere in the workspace use the *same* rank rule
//! (`rank_bounds`): closest-ranks linear interpolation over `n`
//! ordered samples. [`percentile`] applies it to raw `f64` samples
//! (exact), [`Histogram::quantile`] applies it to bucket counts
//! (bounded-error). The experiments crate re-exports these instead of
//! keeping its own copy.

use std::time::Duration;

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 4;
/// Buckets per power-of-two range.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` domain: 16 unit buckets
/// for values `< 16`, then 16 per octave for octaves 4..=63.
pub const NUM_BUCKETS: usize = 976;

/// A fixed log-linear-bucket histogram over `u64` values.
///
/// ```
/// use lifeguard_metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in [10, 12, 14] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.quantile(50.0), Some(12.0)); // values < 16 are exact
/// assert_eq!(Histogram::new().quantile(50.0), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }

    /// Bucket index of `v`. Always `< NUM_BUCKETS`.
    fn index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            // msb >= SUB_BITS, so the shift never underflows and the
            // shifted value lands in [SUB, 2*SUB).
            let msb = 63 - v.leading_zeros();
            let shift = msb - SUB_BITS;
            (shift as usize) * (SUB as usize) + (v >> shift) as usize
        }
    }

    /// Inclusive lower bound of bucket `idx`.
    fn bucket_lo(idx: usize) -> u64 {
        if idx < SUB as usize {
            idx as u64
        } else {
            let shift = ((idx >> SUB_BITS) - 1) as u32;
            ((idx as u64) - u64::from(shift) * SUB) << shift
        }
    }

    /// Representative value of bucket `idx` (midpoint of its range).
    fn bucket_mid(idx: usize) -> u64 {
        let lo = Self::bucket_lo(idx);
        let width = if idx < SUB as usize {
            1
        } else {
            1u64 << ((idx >> SUB_BITS) - 1)
        };
        lo.saturating_add((width - 1) >> 1)
    }

    /// Records one observation. Allocation-free; counters saturate
    /// rather than wrap.
    pub fn record(&mut self, v: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        // `index` is below `NUM_BUCKETS` for every `u64`.
        if let Some(bucket) = self.buckets.get_mut(Self::index(v)) {
            *bucket = bucket.saturating_add(1);
        }
    }

    /// Records a duration in microseconds (the workspace's metric time
    /// unit, matching `lifeguard_core::time::Time` resolution).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// The `p`-th percentile (`p` in `[0, 100]`), estimated from the
    /// bucket counts with the shared closest-ranks rule and clamped to
    /// the recorded `[min, max]` (so extremes are exact). `None` when
    /// empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (lo, hi, frac) = rank_bounds(p, self.count);
        let a = self.value_at_rank(lo) as f64;
        let v = if lo == hi {
            a
        } else {
            let b = self.value_at_rank(hi) as f64;
            a * (1.0 - frac) + b * frac
        };
        Some(v.clamp(self.min() as f64, self.max as f64))
    }

    /// Representative value of the `rank`-th smallest observation
    /// (0-based). `rank` must be `< count`.
    fn value_at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen > rank {
                return Self::bucket_mid(idx);
            }
        }
        self.max
    }

    /// Folds another histogram into this one (run-level aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Non-empty buckets as `(index, count)` pairs — the sparse wire
    /// form used by the snapshot codec.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
    }

    /// Rebuilds a histogram from its wire form. Returns `None` if a
    /// bucket index is out of range or the bucket counts do not add up
    /// to `count` (a corrupt snapshot must not decode silently).
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        pairs: &[(u32, u64)],
    ) -> Option<Histogram> {
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        let mut total = 0u64;
        for &(idx, c) in pairs {
            let slot = h.buckets.get_mut(idx as usize)?;
            *slot = slot.saturating_add(c);
            total = total.saturating_add(c);
        }
        if total != count {
            return None;
        }
        Some(h)
    }
}

/// Closest-ranks interpolation bounds for the `p`-th percentile over
/// `n` ordered samples: the two 0-based ranks to blend and the blend
/// fraction. This is the single quantile rule every caller shares.
fn rank_bounds(p: f64, n: u64) -> (u64, u64, f64) {
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    if n <= 1 {
        return (0, 0, 0.0);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as u64;
    let hi = rank.ceil() as u64;
    (lo, hi, rank - lo as f64)
}

/// Percentile of raw samples by linear interpolation between closest
/// ranks. `p` is in `[0, 100]`.
///
/// `NaN` samples are ignored (they carry no ordering information);
/// returns `None` when no finite-ordered sample remains, including the
/// empty input.
///
/// ```
/// use lifeguard_metrics::percentile;
/// let xs = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(percentile(&xs, 100.0), Some(4.0));
/// assert_eq!(percentile(&[], 50.0), None);
/// assert_eq!(percentile(&[f64::NAN], 50.0), None);
/// assert_eq!(percentile(&[f64::NAN, 5.0], 99.0), Some(5.0));
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    let (lo, hi, frac) = rank_bounds(p, sorted.len() as u64);
    let a = *sorted.get(lo as usize)?;
    if lo == hi {
        return Some(a);
    }
    let b = *sorted.get(hi as usize)?;
    Some(a * (1.0 - frac) + b * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_covers_domain() {
        assert_eq!(Histogram::index(0), 0);
        assert_eq!(Histogram::index(15), 15);
        assert_eq!(Histogram::index(16), 16);
        assert_eq!(Histogram::index(31), 31);
        assert_eq!(Histogram::index(32), 32);
        assert_eq!(Histogram::index(u64::MAX), NUM_BUCKETS - 1);
        // Buckets are monotone in the value.
        let mut last = 0;
        for v in [0u64, 1, 15, 16, 100, 1000, 1 << 20, 1 << 40, u64::MAX] {
            let idx = Histogram::index(v);
            assert!(idx >= last, "bucket order broke at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_bounds_invert_index() {
        for v in [0u64, 3, 15, 16, 17, 100, 12345, 1 << 33, u64::MAX] {
            let idx = Histogram::index(v);
            let lo = Histogram::bucket_lo(idx);
            assert!(lo <= v, "lo {lo} > v {v}");
            let mid = Histogram::bucket_mid(idx);
            assert_eq!(Histogram::index(mid), idx, "midpoint left its bucket");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 12, 14] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(50.0), Some(12.0));
        assert_eq!(h.quantile(100.0), Some(14.0));
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 14);
        assert_eq!(h.mean(), Some(12.0));
    }

    #[test]
    fn quantile_error_is_bounded() {
        // Seconds-scale microsecond samples: the log-linear buckets
        // must stay within half a sub-bucket (~3.2%) of the truth.
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=1000u64).map(|i| i * 10_000).collect();
        for &s in &samples {
            h.record(s);
        }
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
            let est = h.quantile(p).unwrap();
            let exact =
                percentile(&samples.iter().map(|&s| s as f64).collect::<Vec<_>>(), p).unwrap();
            let err = (est - exact).abs() / exact;
            assert!(err <= 0.033, "p{p}: est {est} vs exact {exact} ({err})");
        }
    }

    #[test]
    fn empty_histogram_answers_safely() {
        let h = Histogram::new();
        assert_eq!(h.quantile(50.0), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_is_sum_of_parts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [5u64, 100, 10_000] {
            a.record(v);
            whole.record(v);
        }
        for v in [7u64, 1_000_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn wire_form_round_trips() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 2, 500, 1 << 30] {
            h.record(v);
        }
        let pairs: Vec<(u32, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), &pairs).unwrap();
        assert_eq!(back, h);
        // Corrupt pair lists refuse to decode.
        assert!(Histogram::from_parts(5, 0, 0, 0, &pairs[..1]).is_none());
        assert!(Histogram::from_parts(1, 0, 0, 0, &[(NUM_BUCKETS as u32, 1)]).is_none());
    }

    #[test]
    fn percentile_matches_previous_semantics() {
        let xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 25.0), Some(20.0));
        assert_eq!(percentile(&xs, 50.0), Some(30.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 62.5), Some(35.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], -5.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 150.0), Some(2.0));
    }

    #[test]
    fn percentile_nan_inputs_are_ignored_not_fatal() {
        // The old implementation panicked via `partial_cmp().expect()`
        // on any NaN; the shared one filters them out.
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), None);
        assert_eq!(percentile(&[f64::NAN, 4.0, 2.0], 50.0), Some(3.0));
        // NaN percentile argument degrades to p=0, not a poisoned sort.
        assert_eq!(percentile(&[1.0, 9.0], f64::NAN), Some(1.0));
    }
}
