//! Log-bucket histogram and the shared quantile rule.
//!
//! The histogram is HDR-style log-linear: values below 16 get one
//! bucket each (exact), every power-of-two range above is split into
//! 16 sub-buckets, so the relative quantile error is bounded by half a
//! sub-bucket width (≤ ~3.2%) across the whole `u64` domain: 976
//! buckets in all.
//!
//! A histogram holds its counts in an inline window of 128 of those
//! buckets (8 octaves), anchored on the first bucket written: centred
//! there and clamped to the 976. A recorded quantity rarely spans more
//! than a few octaves (a loopback probe RTT touches about 33 buckets),
//! so an empty histogram costs 1 KiB instead of 7.6 KiB and `record` is
//! branch + shift + one increment, with no allocation. The first count
//! that falls outside the window — by `record`, `merge` or
//! `from_parts` — moves the counts, once, into all 976 buckets on the
//! heap; that is the one allocation a histogram ever makes, and from
//! then on it behaves as if the window had never existed. Both forms
//! answer every query from the same bucket contents, so quantiles, the
//! sparse wire form and equality do not depend on which form a
//! histogram is in. That is what lets the protocol core carry
//! histograms on its zero-allocation hot path.
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
/// Buckets the inline window holds: 8 octaves.
const WINDOW: usize = 8 << SUB_BITS;

/// A log-linear-bucket histogram over `u64` values, its counts in a
/// 128-bucket inline window until a count falls outside it (see the
/// module docs).
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
#[derive(Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// First bucket of the window: `None` until a bucket is written,
    /// then set by the first one written.
    base: Option<u16>,
    /// Counts of buckets `base..base + WINDOW` until the spill.
    window: [u64; WINDOW],
    /// Counts of all `NUM_BUCKETS` buckets, once one fell outside the
    /// window; `window` is unused from then on.
    spilled: Option<Box<[u64; NUM_BUCKETS]>>,
}

/// First bucket of a window centred on bucket `idx`, clamped so the
/// window stays inside `0..NUM_BUCKETS`.
fn anchor(idx: usize) -> u16 {
    idx.saturating_sub(WINDOW >> 1).min(NUM_BUCKETS - WINDOW) as u16
}

/// Equal content: the same summary and the same non-empty buckets,
/// whichever form either side holds them in.
impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.nonzero_buckets().eq(other.nonzero_buckets())
    }
}

impl Eq for Histogram {}

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
            base: None,
            window: [0; WINDOW],
            spilled: None,
        }
    }

    /// The index of the first bucket held and the counts from there on.
    fn counts(&self) -> (usize, &[u64]) {
        match &self.spilled {
            Some(all) => (0, all.as_slice()),
            None => (self.base.map_or(0, usize::from), &self.window),
        }
    }

    /// Adds `c` to bucket `idx` (`< NUM_BUCKETS`), saturating. The first
    /// write anchors the window; a write outside it spills the counts
    /// into every bucket first.
    fn add(&mut self, idx: usize, c: u64) {
        if self.spilled.is_none() {
            let first = usize::from(*self.base.get_or_insert_with(|| anchor(idx)));
            if let Some(slot) = idx.checked_sub(first).and_then(|i| self.window.get_mut(i)) {
                *slot = slot.saturating_add(c);
                return;
            }
            let mut all = Box::new([0; NUM_BUCKETS]);
            for (to, from) in all.iter_mut().skip(first).zip(&self.window) {
                *to = *from;
            }
            self.spilled = Some(all);
        }
        if let Some(slot) = self.spilled.as_mut().and_then(|all| all.get_mut(idx)) {
            *slot = slot.saturating_add(c);
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

    /// Records one observation; counters saturate rather than wrap.
    /// Allocation-free while `v`'s bucket lies in the inline window
    /// (the first record anchors the window on its own bucket); the
    /// first value outside it spills the counts to the heap, the one
    /// allocation a histogram ever makes.
    pub fn record(&mut self, v: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.add(Self::index(v), 1);
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
        for (idx, c) in self.nonzero_buckets() {
            seen = seen.saturating_add(c);
            if seen > rank {
                return Self::bucket_mid(idx as usize);
            }
        }
        self.max
    }

    /// Folds another histogram into this one (the repository benchmark
    /// sums its nodes' histograms this way).
    /// Spills this one's window, once, if `other` holds a count outside
    /// it.
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (idx, c) in other.nonzero_buckets() {
            self.add(idx as usize, c);
        }
    }

    /// Non-empty buckets as `(index, count)` pairs in index order — the
    /// sparse wire form used by the snapshot codec.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (first, counts) = self.counts();
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(move |(i, &c)| ((first + i) as u32, c))
    }

    /// Rebuilds a histogram from its wire form. Returns `None` if a
    /// bucket index is out of range, the bucket counts do not add up to
    /// `count`, a non-empty histogram has `min > max`, or an empty one
    /// has a non-zero `sum` or `max` (a corrupt snapshot must not decode
    /// silently, nor panic a later [`Histogram::quantile`], nor raise a
    /// merged maximum with no sample behind it). An empty histogram's
    /// `min` is unused.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        pairs: &[(u32, u64)],
    ) -> Option<Histogram> {
        if count > 0 && min > max {
            return None;
        }
        if count == 0 && (sum != 0 || max != 0) {
            return None;
        }
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        let mut total = 0u64;
        for &(idx, c) in pairs {
            let idx = idx as usize;
            if idx >= NUM_BUCKETS {
                return None;
            }
            // An empty pair holds nothing, so it neither anchors nor
            // spills the window.
            if c != 0 {
                h.add(idx, c);
            }
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
        assert!(Histogram::from_parts(0, 0, 0, 0, &[(NUM_BUCKETS as u32, 0)]).is_none());
        // So does a non-empty one whose minimum exceeds its maximum:
        // `quantile` would clamp to an inverted range.
        assert!(Histogram::from_parts(1, 10, 10, 3, &[(3, 1)]).is_none());
        // An empty one holds no sample, so a sum or a maximum is corrupt;
        // its minimum is unused.
        assert!(
            Histogram::from_parts(0, 0, 10, 3, &[]).is_none(),
            "empty with a max"
        );
        assert!(
            Histogram::from_parts(0, 4, 0, 0, &[]).is_none(),
            "empty with a sum"
        );
        assert!(
            Histogram::from_parts(0, 0, 10, 0, &[]).is_some(),
            "empty: min unused"
        );
    }

    /// The window's first bucket, or `None` before the first write and
    /// once spilled.
    fn window_base(h: &Histogram) -> Option<u16> {
        h.base.filter(|_| h.spilled.is_none())
    }

    #[test]
    fn a_narrow_quantity_stays_in_the_window() {
        // Loopback RTTs span 200–800 µs: about two octaves.
        let mut h = Histogram::new();
        for v in (200..=800u64).step_by(5) {
            h.record(v);
        }
        let base = window_base(&h).expect("still inline");
        assert_eq!(usize::from(base), Histogram::index(200) - WINDOW / 2);
        assert_eq!(h.nonzero_buckets().count(), 33);
    }

    #[test]
    fn the_anchor_is_clamped_at_either_end() {
        let mut low = Histogram::new();
        low.record(0);
        assert_eq!(window_base(&low), Some(0));
        let mut high = Histogram::new();
        high.record(u64::MAX);
        assert_eq!(
            usize::from(window_base(&high).unwrap()),
            NUM_BUCKETS - WINDOW
        );
        // The window's far edges are still inline.
        low.record(Histogram::bucket_lo(WINDOW - 1));
        high.record(Histogram::bucket_lo(NUM_BUCKETS - WINDOW));
        assert!(window_base(&low).is_some() && window_base(&high).is_some());
    }

    #[test]
    fn a_count_outside_the_window_spills_it_once() {
        let mut h = Histogram::new();
        h.record(1_000);
        h.record(1_000);
        let before: Vec<(u32, u64)> = h.nonzero_buckets().collect();
        // Twelve octaves up: outside the 8-octave window.
        h.record(1_000 << 12);
        assert!(h.spilled.is_some());
        let mut after: Vec<(u32, u64)> = h.nonzero_buckets().collect();
        assert_eq!(after.pop(), Some((Histogram::index(1_000 << 12) as u32, 1)));
        assert_eq!(after, before, "the spill kept every count");
        // A merge into an empty histogram anchors on the first pair and
        // spills on the far one, and compares equal to its source.
        let mut m = Histogram::new();
        m.merge(&h);
        assert!(m.spilled.is_some());
        assert_eq!(m, h);
        // Equality is content, not form.
        let mut inline = Histogram::new();
        inline.record(5);
        let spilled = Histogram::from_parts(1, 5, 5, 5, &[(900, 0), (5, 1)]).unwrap();
        assert!(
            window_base(&spilled).is_some(),
            "an empty pair anchors nothing"
        );
        assert_eq!(spilled, inline);
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
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[f64::NAN, 4.0, 2.0], 50.0), Some(3.0));
        // NaN percentile argument degrades to p=0, not a poisoned sort.
        assert_eq!(percentile(&[1.0, 9.0], f64::NAN), Some(1.0));
    }
}
