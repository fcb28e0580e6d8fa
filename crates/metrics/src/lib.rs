//! The observability plane's sans-io metrics core.
//!
//! Everything in this crate is pure data manipulation: no sockets, no
//! clocks, no threads, no allocation on the recording path. The
//! protocol core embeds [`Histogram`]s and plain counter fields and
//! records into them from its deterministic `handle_input` path, so
//! under the simulator the same seed produces byte-identical metric
//! state — the crate passes swim-lint's sans-I/O layering rule for the
//! same reason `lifeguard-core` does.
//!
//! Layers:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — the recording
//!   primitives. The histogram is a fixed log-linear bucket array
//!   (16 sub-buckets per power of two, ≤ ~3% quantile error), sized
//!   for the full `u64` range, `record()` is a handful of integer ops
//!   and one array increment.
//! - [`Snapshot`] ([`CoreSnapshot`] + [`IoSnapshot`]) — the compact
//!   serializable point-in-time export every runtime (sim, net
//!   agent) produces in the same shape, with a versioned binary codec
//!   and a hand-rolled JSON writer (the build is offline; no serde).
//! - [`Aggregate`] — run-level merge of per-node snapshots plus the
//!   text dashboard, shared by the `swim-metrics` binary and the
//!   experiments harness.
//! - [`percentile`] — the one quantile implementation (closest-ranks
//!   linear interpolation); [`Histogram::quantile`] routes through
//!   the same rank rule over bucket counts.

pub mod aggregate;
pub mod hist;
pub mod snapshot;

pub use aggregate::Aggregate;
pub use hist::{percentile, Histogram};
pub use snapshot::{CoreSnapshot, DecodeError, IoSnapshot, Snapshot};

/// A monotonically increasing event count.
///
/// A thin newtype over `u64` so registries read declaratively; the
/// recording path is a single saturating add (no allocation, no
/// atomics — the core is single-threaded by design, runtimes that
/// share counters across threads keep their own atomic mirrors and
/// fold them into the [`Snapshot`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Adds `n`, saturating instead of wrapping (a saturated counter
    /// is visibly pegged; a wrapped one silently lies).
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A point-in-time level (queue depth, health score). Unlike a
/// [`Counter`] it moves both ways; the peak since construction is
/// tracked alongside so a snapshot taken after an incident still
/// shows how bad it got.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Gauge {
    value: u64,
    peak: u64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Gauge {
        Gauge { value: 0, peak: 0 }
    }

    /// Sets the current level and folds it into the peak.
    pub fn set(&mut self, v: u64) {
        self.value = v;
        self.peak = self.peak.max(v);
    }

    /// Current level.
    pub fn get(self) -> u64 {
        self.value
    }

    /// Highest level ever set.
    pub fn peak(self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.inc();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_peak() {
        let mut g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 7);
    }
}
