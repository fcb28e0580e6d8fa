//! Cross-crate integration tests: protocol core + simulator +
//! experiment harness working together on end-to-end behaviours the
//! paper depends on. The paper's false-positive and detection-latency
//! effects themselves are judged over paired seeds by
//! `lifeguard_experiments::verdict`.

use std::time::Duration;

use lifeguard::core::config::Config;
use lifeguard::core::event::Event;
use lifeguard::experiments::scenario::{interval, run};
use lifeguard::sim::anomaly::AnomalySpec;
use lifeguard::sim::clock::SimTime;
use lifeguard::sim::cluster::{Cluster, ClusterBuilder, SimAction};
use lifeguard::sim::network::NetworkConfig;

/// A slow-but-alive member must never be lost from the group when its
/// stalls are shorter than the suspicion timeout allows: Lifeguard's
/// whole purpose.
#[test]
fn lifeguard_keeps_intermittently_slow_member_alive() {
    let mut cluster = ClusterBuilder::new(16)
        .config(Config::lan().lifeguard())
        .seed(10)
        .anomaly(
            5,
            AnomalySpec::Interval {
                start: SimTime::from_secs(15),
                duration: Duration::from_secs(6),
                interval: Duration::from_millis(200),
                until: SimTime::from_secs(70),
            },
        )
        .build();
    cluster.run_for(Duration::from_secs(90));
    assert!(
        !cluster
            .trace()
            .failures()
            .any(|(_, _, s)| s.as_str() == "node-5"),
        "Lifeguard must not declare the slow member failed"
    );
}

/// Refutation works end to end: a suspected member that is merely slow
/// recovers in every view, with its incarnation bumped.
#[test]
fn refutation_recovers_suspected_member() {
    let mut cluster = ClusterBuilder::new(8)
        .config(Config::lan())
        .seed(51)
        .build();
    cluster.run_for(Duration::from_secs(15));
    cluster.apply(SimAction::Pause {
        node: 3,
        duration: Duration::from_secs(3),
    });
    cluster.run_for(Duration::from_secs(30));
    // The pause likely triggered suspicions; whatever happened, node-3
    // must be alive everywhere afterwards.
    assert_eq!(cluster.nodes_seeing_alive("node-3").len(), 8);
    let suspected = cluster
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(&e.event, Event::MemberSuspected { name, .. } if name.as_str() == "node-3"))
        .count();
    if suspected > 0 {
        // If it was suspected, it must have refuted: incarnation > 0.
        assert!(cluster.node(3).incarnation().get() > 0);
    }
}

/// Failure detection keeps working under sustained datagram loss
/// (robustness; SWIM's design goal).
#[test]
fn detection_survives_heavy_packet_loss() {
    let mut cluster = ClusterBuilder::new(12)
        .config(Config::lan().lifeguard())
        .network(NetworkConfig::lossy_lan(0.10))
        .seed(61)
        .build();
    cluster.run_for(Duration::from_secs(20));
    assert!(
        cluster.converged(),
        "cluster should converge under 10% loss"
    );
    cluster.apply(SimAction::Crash { node: 11 });
    cluster.run_for(Duration::from_secs(60));
    assert!(
        cluster
            .trace()
            .failures()
            .any(|(_, _, s)| s.as_str() == "node-11"),
        "crash must be detected despite 10% loss"
    );
}

/// The simulation is bit-for-bit deterministic across the whole stack,
/// including anomalies and loss.
#[test]
fn full_stack_determinism() {
    let s = interval(
        24,
        4,
        Duration::from_secs(8),
        Duration::from_millis(256),
        Duration::from_secs(60),
        71,
    );
    let replay = || {
        let o = run(&s, &Config::lan().lifeguard());
        (o.fp_events, o.fp_healthy_events, o.msgs_sent, o.bytes_sent)
    };
    assert_eq!(replay(), replay());
}

/// Graceful leave during an anomaly storm is still reported as a leave,
/// not a failure, by every healthy node.
#[test]
fn leave_amid_anomalies_is_not_a_failure() {
    let mut cluster = ClusterBuilder::new(12)
        .config(Config::lan().lifeguard())
        .seed(81)
        .anomaly(
            2,
            AnomalySpec::Threshold {
                start: SimTime::from_secs(16),
                duration: Duration::from_secs(10),
            },
        )
        .build();
    cluster.run_for(Duration::from_secs(15));
    cluster.apply(SimAction::Leave { node: 5 });
    cluster.run_for(Duration::from_secs(40));
    assert!(!cluster
        .trace()
        .failures()
        .any(|(_, _, s)| s.as_str() == "node-5"));
    let leaves = cluster
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "node-5"))
        .count();
    assert!(leaves >= 9, "leave must disseminate (saw {leaves})");
}

/// Steady-state anti-entropy wire cost: under ≤ 1% membership churn per
/// push-pull round, delta sync must ship no more than 10% of the stream
/// bytes full-state sync ships per round, while the cluster stays fully
/// converged. (The model-agreement property suite pins that the
/// *content* both modes converge to is byte-identical.)
#[test]
fn delta_push_pull_cuts_steady_state_sync_bytes_by_10x() {
    use bytes::Bytes;

    const N: usize = 512;
    const ROUND: Duration = Duration::from_secs(2);

    let bytes_per_round = |delta: bool| -> u64 {
        let mut cfg = Config::lan().lifeguard();
        cfg.push_pull_interval = Some(ROUND);
        cfg.delta_sync = delta;
        let mut cluster = ClusterBuilder::new(N)
            .config(cfg)
            .seed(42)
            .full_mesh(true)
            .build();
        // Warm-up: several push-pull rounds, enough for every node to
        // accumulate its warm delta partners.
        cluster.run_for(Duration::from_secs(10));
        let rounds = 3u64;
        let stream_bytes =
            |c: &Cluster| -> u64 { (0..N).map(|i| c.metrics_snapshot(i).io.stream_bytes).sum() };
        let start = stream_bytes(&cluster);
        for r in 0..rounds {
            // ≤ 1% churn per round: metadata updates bump incarnations
            // and gossip real membership changes without killing anyone.
            for k in 0..N / 100 {
                let node = (r as usize * 131 + k * 37) % N;
                cluster.apply(SimAction::UpdateMeta {
                    node,
                    meta: Bytes::from(format!("gen-{r}-{k}").into_bytes()),
                });
            }
            cluster.run_for(ROUND);
        }
        let spent = stream_bytes(&cluster) - start;
        assert!(
            cluster.converged(),
            "cluster must stay converged (delta = {delta})"
        );
        spent / rounds
    };

    let full = bytes_per_round(false);
    let delta = bytes_per_round(true);
    assert!(full > 0 && delta > 0);
    assert!(
        delta * 10 <= full,
        "delta sync must cut per-round stream bytes to ≤ 10% of full-state sync \
         (delta {delta} B/round vs full {full} B/round = {:.1}%)",
        delta as f64 / full as f64 * 100.0
    );
}
