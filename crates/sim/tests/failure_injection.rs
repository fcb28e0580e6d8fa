//! Failure-injection tests for the simulator: loss sweeps, partition
//! storms, pause storms and the stress anomaly model.

use std::time::Duration;

use lifeguard_core::config::Config;
use lifeguard_sim::anomaly::AnomalySpec;
use lifeguard_sim::clock::SimTime;
use lifeguard_sim::cluster::{ClusterBuilder, SimAction};
use lifeguard_sim::network::NetworkConfig;

/// Convergence and crash detection hold across a sweep of datagram loss
/// rates (SWIM's robustness property).
#[test]
fn loss_sweep_convergence_and_detection() {
    for (i, loss) in [0.0, 0.02, 0.05, 0.10, 0.20].into_iter().enumerate() {
        let mut cluster = ClusterBuilder::new(10)
            .config(Config::lan().lifeguard())
            .network(NetworkConfig::lossy_lan(loss))
            .seed(100 + i as u64)
            .build();
        cluster.run_for(Duration::from_secs(25));
        assert!(
            cluster.converged(),
            "no convergence at loss={loss}"
        );
        cluster.apply(SimAction::Crash { node: 9 });
        cluster.run_for(Duration::from_secs(60));
        assert!(
            cluster.trace().first_failure_detection("node-9").is_some(),
            "crash undetected at loss={loss}"
        );
    }
}

/// Under 100% loss nothing converges — the filter works at all.
#[test]
fn total_loss_prevents_convergence() {
    let mut config = NetworkConfig::lossy_lan(1.0);
    config.datagram_loss = 1.0;
    let mut cluster = ClusterBuilder::new(4)
        .config(Config::lan())
        .network(config)
        .seed(3)
        .build();
    cluster.run_for(Duration::from_secs(20));
    // Streams (TCP) still work, so the join push-pull may have spread
    // some state, but the probe/gossip layer is fully dark; at minimum
    // the cluster must not look healthy.
    assert!(!cluster.converged() || cluster.len() == 1);
}

/// Pausing many nodes simultaneously (a rack-level stall) does not kill
/// any of them permanently under Lifeguard: all recover.
#[test]
fn mass_pause_storm_recovers() {
    let mut cluster = ClusterBuilder::new(16)
        .config(Config::lan().lifeguard())
        .seed(7)
        .build();
    cluster.run_for(Duration::from_secs(15));
    for node in 4..12 {
        cluster.apply(SimAction::Pause {
            node,
            duration: Duration::from_secs(6),
        });
    }
    cluster.run_for(Duration::from_secs(60));
    for i in 0..16 {
        let seen = cluster.nodes_seeing_alive(&format!("node-{i}")).len();
        assert_eq!(seen, 16, "node-{i} not universally alive after storm");
    }
}

/// Repeated asymmetric partitions with healing always re-converge.
#[test]
fn repeated_partitions_heal() {
    let mut cluster = ClusterBuilder::new(8)
        .config(Config::lan().lifeguard())
        .seed(13)
        .build();
    cluster.run_for(Duration::from_secs(15));
    for round in 0..3 {
        let victim = 1 + round * 2;
        for other in 0..8 {
            if other != victim {
                cluster.apply(SimAction::Partition { a: victim, b: other });
            }
        }
        cluster.run_for(Duration::from_secs(30));
        cluster.apply(SimAction::HealPartitions);
        // Reconnect interval is 30 s: give two periods.
        let mut healed = false;
        for _ in 0..30 {
            cluster.run_for(Duration::from_secs(5));
            if cluster.converged() {
                healed = true;
                break;
            }
        }
        assert!(healed, "round {round}: partition never healed");
    }
}

/// A two-sided split: both halves declare the other dead, so after the
/// heal every reconnect attempt from either side reaches a live member
/// that itself holds the caller's half dead. The halves re-merge and
/// everyone ends alive everywhere.
#[test]
fn two_sided_partition_heals() {
    let mut cluster = ClusterBuilder::new(8)
        .config(Config::lan().lifeguard())
        .seed(37)
        .build();
    cluster.run_for(Duration::from_secs(15));
    assert!(cluster.converged());
    for a in 0..4 {
        for b in 4..8 {
            cluster.apply(SimAction::Partition { a, b });
        }
    }
    cluster.run_for(Duration::from_secs(60));
    for i in 0..8 {
        let seen = cluster.nodes_seeing_alive(&format!("node-{i}"));
        let own_half = if i < 4 { 0..4 } else { 4..8 };
        assert_eq!(
            seen,
            own_half.collect::<Vec<_>>(),
            "node-{i} during the split"
        );
    }
    cluster.apply(SimAction::HealPartitions);
    // Reconnect interval is 30 s, as in `repeated_partitions_heal`.
    let healed = (0..30).any(|_| {
        cluster.run_for(Duration::from_secs(5));
        cluster.converged()
    });
    assert!(
        healed,
        "the halves did not re-merge within 150 s of the heal"
    );
}

/// The stress (duty-cycle starvation) anomaly produces false positives
/// under SWIM on a small cluster — the Figure 1 mechanism — and the
/// stressed nodes recover afterwards.
#[test]
fn stress_anomaly_produces_swim_fps_and_recovers() {
    let mut cluster = ClusterBuilder::new(24)
        .config(Config::lan())
        .seed(17)
        .anomaly(
            3,
            AnomalySpec::cpu_stress(SimTime::from_secs(15), SimTime::from_secs(75)),
        )
        .anomaly(
            9,
            AnomalySpec::cpu_stress(SimTime::from_secs(15), SimTime::from_secs(75)),
        )
        .build();
    cluster.run_for(Duration::from_secs(110));
    // The stressed nodes were repeatedly suspected/declared; after the
    // stress ends everyone must be alive everywhere again.
    for i in 0..24 {
        assert_eq!(
            cluster.nodes_seeing_alive(&format!("node-{i}")).len(),
            24,
            "node-{i} not recovered after stress"
        );
    }
}

/// Crashing the join seed after bootstrap does not disturb the rest.
#[test]
fn seed_crash_after_bootstrap_is_tolerated() {
    let mut cluster = ClusterBuilder::new(10)
        .config(Config::lan().lifeguard())
        .seed(23)
        .build();
    cluster.run_for(Duration::from_secs(15));
    cluster.apply(SimAction::Crash { node: 0 });
    cluster.run_for(Duration::from_secs(40));
    assert!(
        cluster.trace().first_failure_detection("node-0").is_some(),
        "seed crash undetected"
    );
    // The remaining 9 still see one another.
    for i in 1..10 {
        let seen = cluster.nodes_seeing_alive(&format!("node-{i}"));
        assert!(
            seen.iter().filter(|&&r| r != 0).count() == 9,
            "node-{i} lost by survivors"
        );
    }
}

/// Back-to-back anomalies on the same node (overlapping schedule edge
/// case) behave sanely.
#[test]
fn adjacent_anomaly_windows() {
    let mut cluster = ClusterBuilder::new(6)
        .config(Config::lan().lifeguard())
        .seed(29)
        .anomaly(
            2,
            AnomalySpec::Interval {
                start: SimTime::from_secs(10),
                duration: Duration::from_secs(2),
                interval: Duration::from_millis(1),
                until: SimTime::from_secs(30),
            },
        )
        .build();
    cluster.run_for(Duration::from_secs(60));
    assert_eq!(cluster.nodes_seeing_alive("node-2").len(), 6);
}

/// A crashed node is silent: a leave or metadata update injected after
/// the crash — in the same instant, before anyone has detected it —
/// sends nothing, so no peer ever sees the node depart gracefully.
#[test]
fn crashed_node_cannot_leave_or_update() {
    use lifeguard_core::event::Event;

    let mut cluster = ClusterBuilder::new(8)
        .config(Config::lan().lifeguard())
        .seed(31)
        .build();
    cluster.run_for(Duration::from_secs(15));
    assert!(cluster.converged());
    cluster.apply(SimAction::Crash { node: 3 });
    let at_crash = cluster.metrics_snapshot(3).io;
    cluster.apply(SimAction::Leave { node: 3 });
    cluster.apply(SimAction::UpdateMeta {
        node: 3,
        meta: bytes::Bytes::from_static(b"from beyond"),
    });
    cluster.run_for(Duration::from_secs(5));
    assert_eq!(
        cluster.metrics_snapshot(3).io,
        at_crash,
        "a crashed node put messages on the network"
    );
    let left = cluster
        .trace()
        .count(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "node-3"));
    assert_eq!(left, 0, "a crash must never read as a graceful leave");
}
