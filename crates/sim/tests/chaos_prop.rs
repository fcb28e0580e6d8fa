//! Randomized chaos testing: arbitrary small clusters with arbitrary
//! pause schedules must always return to a fully-alive, converged state
//! once anomalies stop (no healthy member is ever permanently lost),
//! and runs are deterministic per seed.

use std::time::Duration;

use lifeguard_core::config::Config;
use lifeguard_sim::clock::SimTime;
use lifeguard_sim::cluster::{Cluster, SimAction};
use lifeguard_sim::schedule::Schedule;
use proptest::prelude::*;

/// A schedule of 4–9 nodes with up to five pauses of 100 ms–8 s, each
/// starting within [12, 32) s, so all pauses end by 40 s; and whether
/// to run it under Lifeguard rather than SWIM.
fn chaos_strategy() -> impl Strategy<Value = (Schedule, bool)> {
    (4usize..10, any::<u64>(), any::<bool>()).prop_flat_map(|(n, seed, lifeguard)| {
        let pause = (0..n, 12u8..32, 100u16..8000);
        proptest::collection::vec(pause, 0..5).prop_map(move |pauses| {
            // Suspicion timeouts + refutation + reconnect get two full
            // cycles to settle after the last pause.
            let end = SimTime::from_secs(140);
            let mut schedule = Schedule {
                seed,
                end,
                ..Schedule::new(n)
            };
            for (node, start_s, dur_ms) in pauses {
                let start = SimTime::from_secs(u64::from(start_s));
                let duration = Duration::from_millis(u64::from(dur_ms));
                schedule = schedule.at(start, SimAction::Pause { node, duration });
            }
            (schedule, lifeguard)
        })
    })
}

fn run_chaos(schedule: &Schedule, lifeguard: bool) -> (Vec<usize>, u64) {
    let config = if lifeguard {
        Config::lan().lifeguard()
    } else {
        Config::lan()
    };
    let mut cluster = Cluster::new(schedule, &config);
    // Every node's parts must agree with one another at every simulated
    // second on the way.
    while cluster.now() < schedule.end {
        cluster.run_for(Duration::from_secs(1));
        (0..schedule.n).for_each(|i| cluster.node(i).check_invariants());
    }
    let alive_views: Vec<usize> = (0..schedule.n)
        .map(|i| cluster.nodes_seeing_alive(&format!("node-{i}")).len())
        .collect();
    let messages = (0..schedule.n)
        .map(|i| cluster.metrics_snapshot(i).io)
        .map(|io| io.datagrams_sent + io.streams_sent)
        .sum();
    (alive_views, messages)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// No pause schedule may permanently remove a healthy member from
    /// any view.
    #[test]
    fn cluster_always_recovers(chaos in chaos_strategy()) {
        let (schedule, lifeguard) = &chaos;
        let (alive_views, _) = run_chaos(schedule, *lifeguard);
        for (i, &seen) in alive_views.iter().enumerate() {
            prop_assert_eq!(
                seen,
                schedule.n,
                "node-{} alive in only {}/{} views ({:?})",
                i,
                seen,
                schedule.n,
                &chaos
            );
        }
    }

    /// Identical chaos inputs produce identical outcomes.
    #[test]
    fn chaos_is_deterministic(chaos in chaos_strategy()) {
        let (schedule, lifeguard) = &chaos;
        prop_assert_eq!(run_chaos(schedule, *lifeguard), run_chaos(schedule, *lifeguard));
    }
}
