//! Randomized chaos testing: arbitrary small clusters with arbitrary
//! pause schedules must always return to a fully-alive, converged state
//! once anomalies stop (no healthy member is ever permanently lost),
//! and runs are deterministic per seed.

use std::time::Duration;

use lifeguard_core::config::Config;
use lifeguard_sim::anomaly::AnomalySpec;
use lifeguard_sim::clock::SimTime;
use lifeguard_sim::cluster::ClusterBuilder;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Chaos {
    n: usize,
    seed: u64,
    lifeguard: bool,
    /// (node, start_s, duration_ms) pause windows, all within [12, 40) s.
    pauses: Vec<(usize, u8, u16)>,
}

fn chaos_strategy() -> impl Strategy<Value = Chaos> {
    (4usize..10, any::<u64>(), any::<bool>())
        .prop_flat_map(|(n, seed, lifeguard)| {
            let pause = (0..n, 12u8..32, 100u16..8000);
            proptest::collection::vec(pause, 0..5).prop_map(move |pauses| Chaos {
                n,
                seed,
                lifeguard,
                pauses,
            })
        })
}

fn run_chaos(chaos: &Chaos) -> (Vec<usize>, u64) {
    let config = if chaos.lifeguard {
        Config::lan().lifeguard()
    } else {
        Config::lan()
    };
    let mut builder = ClusterBuilder::new(chaos.n).config(config).seed(chaos.seed);
    for &(node, start_s, dur_ms) in &chaos.pauses {
        builder = builder.anomaly(
            node,
            AnomalySpec::Threshold {
                start: SimTime::from_secs(start_s as u64),
                duration: Duration::from_millis(dur_ms as u64),
            },
        );
    }
    let mut cluster = builder.build();
    // All pauses end by 40 s; give suspicion timeouts + refutation +
    // reconnect two full cycles to settle. Every node's parts must
    // agree with one another at every simulated second on the way.
    for _ in 0..140 {
        cluster.run_for(Duration::from_secs(1));
        (0..chaos.n).for_each(|i| cluster.node(i).check_invariants());
    }
    let alive_views: Vec<usize> = (0..chaos.n)
        .map(|i| cluster.nodes_seeing_alive(&format!("node-{i}")).len())
        .collect();
    let messages = (0..chaos.n)
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
        let (alive_views, _) = run_chaos(&chaos);
        for (i, &seen) in alive_views.iter().enumerate() {
            prop_assert_eq!(
                seen,
                chaos.n,
                "node-{} alive in only {}/{} views ({:?})",
                i,
                seen,
                chaos.n,
                &chaos
            );
        }
    }

    /// Identical chaos inputs produce identical outcomes.
    #[test]
    fn chaos_is_deterministic(chaos in chaos_strategy()) {
        prop_assert_eq!(run_chaos(&chaos), run_chaos(&chaos));
    }
}
