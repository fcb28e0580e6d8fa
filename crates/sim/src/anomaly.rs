//! Anomaly injection: controlled periods of blocked message processing.
//!
//! The paper induces slow message processing by "pausing the sending and
//! receiving of protocol messages at selected group members for well
//! defined periods of time" (§V-D). Each pause window is an *anomaly*;
//! [`Schedule::anomaly`](crate::schedule::Schedule::anomaly) turns every
//! window of a spec into one `Pause` fault, the same fault a script
//! applies by hand. Three window patterns reproduce the paper's
//! workloads:
//!
//! * [`AnomalySpec::Threshold`] — one anomaly of duration `D` (the
//!   Threshold experiment, §V-D1).
//! * [`AnomalySpec::Interval`] — anomalies of duration `D` separated by
//!   normal operation of length `I`, repeating until the experiment ends
//!   (the Interval experiment, §V-D2).
//! * [`AnomalySpec::Stress`] — randomized duty-cycle starvation
//!   approximating CPU exhaustion by an oversubscribed workload
//!   (Figure 1's `stress` scenario): long pauses with short slices of
//!   progress in between.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::clock::SimTime;

/// One pause window `[start, end)` during which a node neither sends nor
/// receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PauseWindow {
    /// When the node blocks.
    pub start: SimTime,
    /// When the node resumes (and processes everything queued).
    pub end: SimTime,
}

/// A schedule of anomalies for one node.
#[derive(Clone, Copy, Debug)]
pub enum AnomalySpec {
    /// A single anomaly: block at `start` for `duration`.
    Threshold {
        /// Anomaly onset.
        start: SimTime,
        /// Anomaly length (the paper's `D`).
        duration: Duration,
    },
    /// Cyclic anomalies: block for `duration`, run for `interval`,
    /// repeat. The cycle starts at `start`; the last anomaly is the first
    /// one that *begins* at or after `until` (the paper runs "until at
    /// least 120 seconds have passed" and ends after the next anomalous
    /// period).
    Interval {
        /// First anomaly onset.
        start: SimTime,
        /// Anomaly length (the paper's `D`).
        duration: Duration,
        /// Normal-operation gap between anomalies (the paper's `I`).
        interval: Duration,
        /// No new anomaly starts at or after this instant.
        until: SimTime,
    },
    /// Randomized duty-cycle starvation between `start` and `end`:
    /// pauses uniform in `[pause_min, pause_max]`, separated by run
    /// slices uniform in `[run_min, run_max]`.
    Stress {
        /// Starvation onset.
        start: SimTime,
        /// Starvation end.
        end: SimTime,
        /// Shortest pause.
        pause_min: Duration,
        /// Longest pause.
        pause_max: Duration,
        /// Shortest run slice.
        run_min: Duration,
        /// Longest run slice.
        run_max: Duration,
    },
}

impl AnomalySpec {
    /// The stress profile used for the Figure 1 reproduction. A
    /// 128-process `stress` workload on a single-core VM leaves the
    /// agent ~1/129 of the CPU: it is starved for many seconds at a
    /// time and progresses in slices of tens of milliseconds. The
    /// pauses regularly exceed the n=100 suspicion timeout (~10 s), so
    /// the starved agent's wrong suspicions expire before it processes
    /// the refutations — the paper's Figure 1 false-positive engine.
    pub fn cpu_stress(start: SimTime, end: SimTime) -> AnomalySpec {
        AnomalySpec::Stress {
            start,
            end,
            pause_min: Duration::from_millis(8000),
            pause_max: Duration::from_millis(20000),
            run_min: Duration::from_millis(20),
            run_max: Duration::from_millis(100),
        }
    }

    /// Expands the schedule into concrete pause windows, using `seed` for
    /// the stochastic [`AnomalySpec::Stress`] variant.
    pub fn windows(&self, seed: u64) -> Vec<PauseWindow> {
        match *self {
            AnomalySpec::Threshold { start, duration } => vec![PauseWindow {
                start,
                end: start + duration,
            }],
            AnomalySpec::Interval {
                start,
                duration,
                interval,
                until,
            } => {
                let mut windows = Vec::new();
                let mut t = start;
                loop {
                    windows.push(PauseWindow {
                        start: t,
                        end: t + duration,
                    });
                    // The paper: the test ends at the end of the next
                    // anomalous period after `until` has passed.
                    if t >= until {
                        break;
                    }
                    t = t + duration + interval;
                    if windows.len() > 1_000_000 {
                        panic!("interval anomaly schedule exploded");
                    }
                }
                windows
            }
            AnomalySpec::Stress {
                start,
                end,
                pause_min,
                pause_max,
                run_min,
                run_max,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut windows = Vec::new();
                let mut t = start;
                while t < end {
                    let pause = sample_range(&mut rng, pause_min, pause_max);
                    let stop = (t + pause).min(end);
                    windows.push(PauseWindow { start: t, end: stop });
                    let run = sample_range(&mut rng, run_min, run_max);
                    t = stop + run;
                }
                windows
            }
        }
    }
}

fn sample_range(rng: &mut StdRng, min: Duration, max: Duration) -> Duration {
    if max <= min {
        return min;
    }
    Duration::from_micros(rng.random_range(min.as_micros() as u64..=max.as_micros() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_produces_one_window() {
        let spec = AnomalySpec::Threshold {
            start: SimTime::from_secs(15),
            duration: Duration::from_millis(2048),
        };
        let w = spec.windows(0);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].start, SimTime::from_secs(15));
        assert_eq!(w[0].end, SimTime::from_millis(17048));
    }

    #[test]
    fn interval_repeats_until_deadline_then_one_more() {
        let spec = AnomalySpec::Interval {
            start: SimTime::from_secs(15),
            duration: Duration::from_secs(2),
            interval: Duration::from_secs(8),
            until: SimTime::from_secs(45),
        };
        let w = spec.windows(0);
        // Onsets at 15, 25, 35, 45 — the last one starts at `until`.
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].start, SimTime::from_secs(15));
        assert_eq!(w[1].start, SimTime::from_secs(25));
        assert_eq!(w[3].start, SimTime::from_secs(45));
        // Windows never overlap.
        for pair in w.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn stress_windows_cover_duty_cycles() {
        let spec = AnomalySpec::cpu_stress(SimTime::from_secs(10), SimTime::from_secs(70));
        let w = spec.windows(42);
        assert!(!w.is_empty());
        for pair in w.windows(2) {
            assert!(pair[0].end <= pair[1].start, "windows overlap");
            // Run slices are short (20–100 ms).
            let gap = pair[1].start - pair[0].end;
            assert!(gap >= Duration::from_millis(20) && gap <= Duration::from_millis(100));
        }
        for win in &w {
            assert!(win.end <= SimTime::from_secs(70));
            assert!(win.start >= SimTime::from_secs(10));
            // Pauses are 8–20 s (except the final clamped one).
            let len = win.end - win.start;
            assert!(len <= Duration::from_secs(20));
        }
        // Determinism.
        assert_eq!(w, spec.windows(42));
        assert_ne!(w, spec.windows(43));
    }
}
