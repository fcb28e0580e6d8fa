//! A whole simulated run as one value.
//!
//! A [`Schedule`] says who takes part, over which network, which fault
//! strikes when, and when the run ends. [`Cluster::new`] builds a cluster
//! from a schedule and a protocol configuration, and the same pair
//! replays bit for bit — so SWIM and Lifeguard are compared by running
//! one schedule under both configurations.
//!
//! Every fault reaches its node through [`Cluster::apply`], once
//! [`Cluster::run_until`] has run every event due at or before the
//! fault's instant: a scheduled fault at `T` is exactly
//! `run_until(T); apply(action)` by hand. Faults at one instant apply
//! in the order they were added.
//!
//! [`Cluster::new`]: crate::cluster::Cluster::new
//! [`Cluster::apply`]: crate::cluster::Cluster::apply
//! [`Cluster::run_until`]: crate::cluster::Cluster::run_until

use crate::anomaly::AnomalySpec;
use crate::clock::SimTime;
use crate::cluster::SimAction;
use crate::network::NetworkConfig;

/// The inputs of one simulated run, protocol configuration aside.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Number of nodes, named `node-0 … node-{n-1}`; `node-0` is the
    /// join seed.
    pub n: usize,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Network latency/loss model.
    pub network: NetworkConfig,
    /// Starts every node with full knowledge of every peer instead of
    /// joining through `node-0`. Skips the O(n²) join/push-pull flood, so
    /// large-cluster benchmarks measure steady-state protocol cost
    /// rather than bootstrap traffic.
    pub full_mesh: bool,
    /// Faults in time order; at one instant, in the order they were
    /// added.
    pub faults: Vec<(SimTime, SimAction)>,
    /// When the run ends.
    pub end: SimTime,
}

impl Schedule {
    /// `n` nodes joining through `node-0` on the loopback network, seed
    /// 0, no faults, ending at time zero.
    pub fn new(n: usize) -> Schedule {
        Schedule {
            n,
            seed: 0,
            network: NetworkConfig::loopback(),
            full_mesh: false,
            faults: Vec::new(),
            end: SimTime::ZERO,
        }
    }

    /// Adds `action` at `at`, after every fault already at that instant.
    pub fn at(self, at: SimTime, action: SimAction) -> Schedule {
        self.with_faults([(at, action)])
    }

    /// Adds one `Pause` of `node` per window of `spec`. A
    /// [`AnomalySpec::Stress`] spec draws its windows from the seed set
    /// so far.
    pub fn anomaly(self, node: usize, spec: AnomalySpec) -> Schedule {
        let windows = spec.windows(self.seed.wrapping_add(0xA0_0000 + node as u64));
        self.with_faults(windows.into_iter().map(|w| {
            let duration = w.end - w.start;
            (w.start, SimAction::Pause { node, duration })
        }))
    }

    fn with_faults(mut self, faults: impl IntoIterator<Item = (SimTime, SimAction)>) -> Schedule {
        self.faults.extend(faults);
        // Stable: faults at one instant keep the order they were added
        // in.
        self.faults.sort_by_key(|&(at, _)| at);
        self
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn faults_stay_in_time_order_and_ties_in_insertion_order() {
        let t = SimTime::from_secs;
        let s = Schedule::new(4)
            .at(t(20), SimAction::Crash { node: 1 })
            .at(t(10), SimAction::Leave { node: 2 })
            .anomaly(
                3,
                AnomalySpec::Interval {
                    start: t(10),
                    duration: Duration::from_secs(2),
                    interval: Duration::from_secs(8),
                    until: t(20),
                },
            );
        let pause = SimAction::Pause {
            node: 3,
            duration: Duration::from_secs(2),
        };
        assert_eq!(
            s.faults,
            vec![
                (t(10), SimAction::Leave { node: 2 }),
                (t(10), pause.clone()),
                (t(20), SimAction::Crash { node: 1 }),
                (t(20), pause),
            ]
        );
    }
}
