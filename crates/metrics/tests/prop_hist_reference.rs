//! Reference-model properties for `Histogram`'s windowed layout.
//!
//! `reference` is the layout the windowed histogram replaced: all 976
//! buckets in one inline array. Both are fed the same records, merges
//! and wire pairs, and must agree on every quantile to the bit, on the
//! non-empty buckets, on the summary and on the snapshot bytes. The
//! inputs cover values inside one window, values over more than its 8
//! octaves (which spill it), first records at 0 and at `u64::MAX` (the
//! anchor clamped at either end), merges of histograms anchored far
//! apart, and `from_parts` on their pairs in either order.

use lifeguard_metrics::{CoreSnapshot, Histogram, Snapshot};
use proptest::prelude::*;

/// The 976-bucket histogram, kept verbatim as the model.
mod reference {
    const SUB_BITS: u32 = 4;
    const SUB: u64 = 1 << SUB_BITS;
    const NUM_BUCKETS: usize = 976;

    #[derive(Clone)]
    pub struct Histogram {
        pub count: u64,
        pub sum: u64,
        min: u64,
        pub max: u64,
        buckets: [u64; NUM_BUCKETS],
    }

    impl Histogram {
        pub fn new() -> Histogram {
            Histogram {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                buckets: [0; NUM_BUCKETS],
            }
        }

        fn index(v: u64) -> usize {
            if v < SUB {
                v as usize
            } else {
                let msb = 63 - v.leading_zeros();
                let shift = msb - SUB_BITS;
                (shift as usize) * (SUB as usize) + (v >> shift) as usize
            }
        }

        fn bucket_lo(idx: usize) -> u64 {
            if idx < SUB as usize {
                idx as u64
            } else {
                let shift = ((idx >> SUB_BITS) - 1) as u32;
                ((idx as u64) - u64::from(shift) * SUB) << shift
            }
        }

        fn bucket_mid(idx: usize) -> u64 {
            let lo = Self::bucket_lo(idx);
            let width = if idx < SUB as usize {
                1
            } else {
                1u64 << ((idx >> SUB_BITS) - 1)
            };
            lo.saturating_add((width - 1) >> 1)
        }

        pub fn record(&mut self, v: u64) {
            self.count = self.count.saturating_add(1);
            self.sum = self.sum.saturating_add(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            let bucket = &mut self.buckets[Self::index(v)];
            *bucket = bucket.saturating_add(1);
        }

        pub fn min(&self) -> u64 {
            if self.count == 0 {
                0
            } else {
                self.min
            }
        }

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

        pub fn merge(&mut self, other: &Histogram) {
            self.count = self.count.saturating_add(other.count);
            self.sum = self.sum.saturating_add(other.sum);
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
                *b = b.saturating_add(*o);
            }
        }

        pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| (i as u32, c))
        }

        pub fn from_parts(
            count: u64,
            sum: u64,
            min: u64,
            max: u64,
            pairs: &[(u32, u64)],
        ) -> Option<Histogram> {
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
                let slot = h.buckets.get_mut(idx as usize)?;
                *slot = slot.saturating_add(c);
                total = total.saturating_add(c);
            }
            if total != count {
                return None;
            }
            Some(h)
        }

        /// The histogram's section of a snapshot encoding.
        pub fn encode(&self) -> Vec<u8> {
            let mut out = Vec::new();
            for v in [self.count, self.sum, self.min(), self.max] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            let pairs: Vec<(u32, u64)> = self.nonzero_buckets().collect();
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (idx, c) in pairs {
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
            out
        }
    }

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
}

/// The percentiles compared.
fn percentiles() -> Vec<f64> {
    let mut ps = vec![0.0, 0.1, 1.0];
    ps.extend((1..=19).map(|i| f64::from(i) * 5.0));
    ps.extend([99.0, 99.9, 100.0]);
    ps
}

/// Byte offset of `probe_rtt` in a snapshot encoding: magic, version
/// and 15 core counters.
const PROBE_RTT_AT: usize = 5 + 15 * 8;
/// Encoded length of an empty histogram: four `u64`s and a pair count.
const EMPTY_HIST_LEN: usize = 4 * 8 + 4;

/// The windowed histogram and the model agree on everything a reader
/// of either can observe.
fn agree(h: &Histogram, r: &reference::Histogram) -> Result<(), String> {
    for p in percentiles() {
        prop_assert_eq!(
            h.quantile(p).map(f64::to_bits),
            r.quantile(p).map(f64::to_bits),
            "p{}",
            p
        );
    }
    prop_assert_eq!(
        h.nonzero_buckets().collect::<Vec<_>>(),
        r.nonzero_buckets().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        (h.count(), h.sum(), h.min(), h.max()),
        (r.count, r.sum, r.min(), r.max)
    );
    let snap = Snapshot {
        core: CoreSnapshot {
            probe_rtt: h.clone(),
            ..CoreSnapshot::default()
        },
        ..Snapshot::default()
    };
    let empty = Snapshot::default().encode();
    let mut expected = empty[..PROBE_RTT_AT].to_vec();
    expected.extend(r.encode());
    expected.extend_from_slice(&empty[PROBE_RTT_AT + EMPTY_HIST_LEN..]);
    prop_assert_eq!(snap.encode(), expected);
    Ok(())
}

/// Both histograms fed the same samples.
fn both(samples: &[u64]) -> (Histogram, reference::Histogram) {
    let mut h = Histogram::new();
    let mut r = reference::Histogram::new();
    for &v in samples {
        h.record(v);
        r.record(v);
    }
    (h, r)
}

/// Samples within three octaves of each other, the lowest octave
/// anywhere: they fit one window whichever comes first.
fn narrow() -> impl Strategy<Value = Vec<u64>> {
    (0u32..61, collection::vec((0u32..3, any::<u64>()), 1..60)).prop_map(|(octave, draws)| {
        draws
            .into_iter()
            .map(|(up, bits)| {
                let o = octave + up;
                (1u64 << o) | (bits & ((1u64 << o) - 1))
            })
            .collect()
    })
}

/// Samples spread over every magnitude: most sets span more than the
/// window's 8 octaves.
fn wide() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(any::<u64>().prop_map(|v| v >> (v % 64)), 1..80)
}

/// Both histograms rebuilt from the model's wire pairs, in index order
/// and reversed (a window then anchors on the highest bucket).
fn rebuilt(r: &reference::Histogram) -> Result<(), String> {
    let mut pairs: Vec<(u32, u64)> = r.nonzero_buckets().collect();
    for _ in 0..2 {
        let h = Histogram::from_parts(r.count, r.sum, r.min(), r.max, &pairs);
        let m = reference::Histogram::from_parts(r.count, r.sum, r.min(), r.max, &pairs);
        prop_assert!(h.is_some() && m.is_some(), "valid pairs refused");
        if let (Some(h), Some(m)) = (h, m) {
            agree(&h, &m)?;
        }
        pairs.reverse();
    }
    Ok(())
}

proptest! {
    #[test]
    fn records_inside_one_window_agree(samples in narrow()) {
        let (h, r) = both(&samples);
        agree(&h, &r)?;
        rebuilt(&r)?;
    }

    #[test]
    fn records_that_spill_agree(samples in wide()) {
        let (h, r) = both(&samples);
        agree(&h, &r)?;
        rebuilt(&r)?;
    }

    /// A first record at 0 or `u64::MAX` clamps the anchor to the
    /// bottom or the top of the bucket range.
    #[test]
    fn clamped_anchors_agree(top in any::<bool>(), narrow in narrow(), wide in wide()) {
        let first = if top { u64::MAX } else { 0 };
        for rest in [narrow, wide] {
            let mut samples = vec![first];
            samples.extend(rest);
            let (h, r) = both(&samples);
            agree(&h, &r)?;
            rebuilt(&r)?;
        }
    }

    /// Merges of histograms anchored far apart, either way round, into
    /// an empty histogram, and of spilled ones.
    #[test]
    fn merges_agree(a in narrow(), b in narrow(), c in wide()) {
        let (ha, ra) = both(&a);
        let (hb, rb) = both(&b);
        let (hc, rc) = both(&c);
        for ((h, r), (oh, or)) in [
            ((&ha, &ra), (&hb, &rb)),
            ((&hb, &rb), (&ha, &ra)),
            ((&ha, &ra), (&hc, &rc)),
            ((&hc, &rc), (&hb, &rb)),
        ] {
            let mut r = r.clone();
            r.merge(or);
            let mut into_h = h.clone();
            into_h.merge(oh);
            agree(&into_h, &r)?;
            let mut into_empty = Histogram::new();
            into_empty.merge(h);
            into_empty.merge(oh);
            agree(&into_empty, &r)?;
            rebuilt(&r)?;
        }
    }
}
