//! The Local Health Multiplier (LHM).
//!
//! Lifeguard's LHA-Probe component models the health of the *local*
//! failure detector as a saturating counter in `[0, S]` (paper §IV-A).
//! The counter moves on four events:
//!
//! | event | delta |
//! |---|---|
//! | successful probe (`ping`/`ping-req` acked) | [−1](PROBE_SUCCESS_DELTA) |
//! | failed probe | [+1](PROBE_FAILED_DELTA) |
//! | refuting a suspicion about ourselves | [+1](REFUTE_DELTA) |
//! | probe with missed `nack` | [+1](MISSED_NACK_DELTA) per nack |
//!
//! The probe interval and timeout are scaled by `LHM + 1`, so a member
//! that suspects itself of being slow both probes less aggressively and
//! waits longer before accusing others.

use std::time::Duration;

use crate::time::scale_duration;

/// The LHM saturation limit `S` (paper §IV-A: `S = 8`, so probing backs
/// off to at most 9× its base interval and timeout).
pub const SATURATION: u32 = 8;

/// LHM delta of a probe acked in time (paper §IV-A).
pub const PROBE_SUCCESS_DELTA: i32 = -1;

/// LHM delta of a failed probe round that enlisted no nack-capable
/// helper (paper §IV-A).
pub const PROBE_FAILED_DELTA: i32 = 1;

/// LHM delta of each `nack` an enlisted helper failed to send in a
/// failed probe round (paper §IV-A). Replaces [`PROBE_FAILED_DELTA`]
/// when helpers were asked for nacks, as in memberlist.
pub const MISSED_NACK_DELTA: i32 = 1;

/// LHM delta of refuting a suspicion or death claim about ourselves
/// (paper §IV-A).
pub const REFUTE_DELTA: i32 = 1;

/// Saturating local-health counter.
///
/// ```
/// use lifeguard_core::awareness::Awareness;
/// use std::time::Duration;
///
/// let mut lhm = Awareness::new(8);
/// lhm.apply_delta(3);
/// assert_eq!(lhm.score(), 3);
/// // Timeouts scale by (score + 1).
/// assert_eq!(lhm.scale(Duration::from_secs(1)), Duration::from_secs(4));
/// ```
#[derive(Clone, Debug)]
pub struct Awareness {
    score: u32,
    max: u32,
    /// Highest score reached: the only writer of `score` keeps it, so
    /// no change can miss the peak gauge.
    peak: u32,
}

impl Awareness {
    /// Creates a healthy (score 0) counter saturating at `max` (the
    /// paper's `S`). With `max == 0` the counter is inert, which is how
    /// plain SWIM (LHA-Probe disabled) is expressed.
    pub fn new(max: u32) -> Self {
        Awareness {
            score: 0,
            max,
            peak: 0,
        }
    }

    /// Current health score: 0 is maximally healthy.
    pub fn score(&self) -> u32 {
        self.score
    }

    /// The saturation limit `S`.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// The highest score reached so far.
    pub(crate) fn peak(&self) -> u32 {
        self.peak
    }

    /// Whether the local node currently considers itself degraded.
    pub fn is_degraded(&self) -> bool {
        self.score > 0
    }

    /// Applies a health event delta, clamping to `[0, S]`. Returns the
    /// new score.
    pub fn apply_delta(&mut self, delta: i32) -> u32 {
        let next = self.score as i64 + delta as i64;
        self.score = next.clamp(0, self.max as i64) as u32;
        self.peak = self.peak.max(self.score);
        self.score
    }

    /// Scales a base duration by `score + 1`, per the paper:
    /// `ProbeInterval = BaseProbeInterval · (LHM + 1)`.
    pub fn scale(&self, base: Duration) -> Duration {
        scale_duration(base, (self.score + 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_healthy() {
        let a = Awareness::new(8);
        assert_eq!(a.score(), 0);
        assert!(!a.is_degraded());
        assert_eq!(a.max(), 8);
    }

    #[test]
    fn saturates_at_max() {
        let mut a = Awareness::new(8);
        for _ in 0..100 {
            a.apply_delta(1);
        }
        assert_eq!(a.score(), 8);
    }

    #[test]
    fn never_goes_below_zero() {
        let mut a = Awareness::new(8);
        a.apply_delta(-5);
        assert_eq!(a.score(), 0);
        a.apply_delta(2);
        a.apply_delta(-100);
        assert_eq!(a.score(), 0);
    }

    #[test]
    fn paper_scaling_extremes() {
        // S = 8 ⇒ interval backs off to 9 s and timeout to 4.5 s (§IV-A).
        let mut a = Awareness::new(8);
        a.apply_delta(8);
        assert_eq!(a.scale(Duration::from_secs(1)), Duration::from_secs(9));
        assert_eq!(
            a.scale(Duration::from_millis(500)),
            Duration::from_millis(4500)
        );
    }

    #[test]
    fn inert_when_max_is_zero() {
        let mut a = Awareness::new(0);
        a.apply_delta(5);
        assert_eq!(a.score(), 0);
        assert_eq!(a.scale(Duration::from_secs(1)), Duration::from_secs(1));
    }

    #[test]
    fn apply_delta_returns_new_score() {
        let mut a = Awareness::new(4);
        assert_eq!(a.apply_delta(2), 2);
        assert_eq!(a.apply_delta(-1), 1);
    }
}
