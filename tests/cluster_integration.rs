//! Cross-crate integration tests: protocol core + simulator +
//! experiment harness working together on end-to-end behaviours the
//! paper depends on.

use std::time::Duration;

use lifeguard::core::config::{Config, LifeguardConfig};
use lifeguard::core::event::Event;
use lifeguard::experiments::scenario::{interval, run, threshold, RunOutcome, MIN_RUN};
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
    assert_eq!(
        cluster.trace().first_failure_detection("node-5"),
        None,
        "Lifeguard must not declare the slow member failed"
    );
}

/// A member that stalls for longer than the suspicion timeout *is*
/// declared failed under both configurations (detection parity, Table
/// V: independent confirmations drive Lifeguard's timeout down to Min
/// for genuinely unresponsive members) — but only SWIM also accuses
/// *healthy* members in the process.
#[test]
fn swim_accuses_healthy_members_where_lifeguard_does_not() {
    let run = |config: Config| {
        let mut cluster = ClusterBuilder::new(24)
            .config(config)
            .seed(11)
            .anomaly(
                7,
                AnomalySpec::Interval {
                    start: SimTime::from_secs(15),
                    duration: Duration::from_secs(14),
                    interval: Duration::from_millis(30),
                    until: SimTime::from_secs(100),
                },
            )
            .build();
        cluster.run_for(Duration::from_secs(120));
        let about_slow = cluster
            .trace()
            .failures()
            .filter(|(_, _, name)| name.as_str() == "node-7")
            .count();
        let about_healthy = cluster
            .trace()
            .failures()
            .filter(|(_, _, name)| name.as_str() != "node-7")
            .count();
        (about_slow, about_healthy)
    };
    let (swim_slow, swim_healthy) = run(Config::lan());
    let (lg_slow, lg_healthy) = run(Config::lan().lifeguard());
    // Both must detect the genuinely unresponsive member.
    assert!(swim_slow > 0, "SWIM must detect the 14 s stalls");
    assert!(lg_slow > 0, "Lifeguard must also detect the 14 s stalls");
    // Only the slow member itself accuses healthy members under SWIM.
    assert!(
        swim_healthy > 0,
        "SWIM should produce false accusations of healthy members"
    );
    assert!(
        lg_healthy * 5 <= swim_healthy,
        "Lifeguard false accusations ({lg_healthy}) must be well below SWIM's ({swim_healthy})"
    );
}

/// End-to-end false-positive reduction on the Interval experiment, the
/// paper's headline result (Table IV), at reduced scale.
#[test]
fn interval_experiment_fp_reduction() {
    let s = interval(
        48,
        6,
        Duration::from_secs(16),
        Duration::from_millis(64),
        Duration::from_secs(90),
        21,
    );
    let swim = run(&s, &Config::lan());
    let lifeguard = run(&s, &Config::lan().lifeguard());
    assert!(
        swim.fp_events > 0,
        "the SWIM baseline must produce false positives under 16 s stalls"
    );
    assert!(
        lifeguard.fp_events * 5 <= swim.fp_events,
        "Lifeguard FP ({}) should be well below SWIM FP ({})",
        lifeguard.fp_events,
        swim.fp_events
    );
}

/// Lifeguard's *absolute* false-positive count on the paper's Interval
/// scenario (C a quarter of n, D = 16 384 ms, I = 64 ms) stays within a
/// budget. The ratio test above cannot see this: it passes even when
/// the count triples, because SWIM's is two orders larger. What triples
/// it is anything that lets a member believed dead pull fresh state out
/// of its peers during the 64 ms it is awake — say a reconnect that
/// probes first and pushes the table on the answer. That snapshot holds
/// the false suspicions the waking members have just raised; they
/// confirm one another, the timeouts fall to the minimum, and the
/// minimum expires inside the next pause. n = 96 is the smallest size
/// where every seed shows it (6 / 4 / 6 here against 25 / 22 / 27).
#[test]
fn lifeguard_interval_fp_stays_within_budget_when_dead_members_answer() {
    const BUDGET: u64 = 24; // 1.5 × the 16 measured when this was pinned
    let fp: Vec<u64> = (1..=3)
        .map(|seed| {
            let s = interval(
                96,
                24,
                Duration::from_millis(16_384),
                Duration::from_millis(64),
                MIN_RUN,
                seed,
            );
            run(&s, &Config::lan().lifeguard()).fp_events
        })
        .collect();
    assert!(
        fp.iter().sum::<u64>() <= BUDGET,
        "Lifeguard false positives per seed {fp:?} exceed the budget of {BUDGET}"
    );
}

/// True failures must still be detected with Lifeguard enabled, within
/// a sane factor of the SWIM baseline (Table V: small latency penalty).
#[test]
fn true_failure_detection_latency_is_comparable() {
    let s = threshold(32, 2, Duration::from_secs(30), Duration::from_secs(60), 31);
    let swim = run(&s, &Config::lan());
    let lifeguard = run(&s, &Config::lan().lifeguard());
    let avg = |outcome: &RunOutcome| {
        let lat: Vec<f64> = outcome
            .first_detect
            .iter()
            .flatten()
            .map(|d| d.as_secs_f64())
            .collect();
        assert!(!lat.is_empty(), "30 s anomalies must be detected");
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let swim_avg = avg(&swim);
    let lifeguard_avg = avg(&lifeguard);
    assert!(
        lifeguard_avg < swim_avg * 2.5,
        "Lifeguard detection ({lifeguard_avg:.1}s) too slow vs SWIM ({swim_avg:.1}s)"
    );
}

/// Individual components must each reduce false positives relative to
/// SWIM (Table IV rows), at least not increase them significantly.
#[test]
fn each_component_does_not_hurt() {
    let s = interval(
        48,
        6,
        Duration::from_secs(16),
        Duration::from_millis(64),
        Duration::from_secs(90),
        41,
    );
    let fp = |components| run(&s, &Config::lan().with_components(components)).fp_events;
    let swim = fp(LifeguardConfig::swim());
    let probe = fp(LifeguardConfig::lha_probe_only());
    let susp = fp(LifeguardConfig::lha_suspicion_only());
    let buddy = fp(LifeguardConfig::buddy_system_only());
    assert!(swim > 0);
    // LHA-Suspicion is the big hammer (paper: 3% of SWIM).
    assert!(
        susp * 2 <= swim,
        "LHA-Suspicion ({susp}) should at least halve SWIM's FPs ({swim})"
    );
    // The others must not make things much worse.
    assert!(probe <= swim * 12 / 10, "LHA-Probe {probe} vs SWIM {swim}");
    assert!(buddy <= swim * 12 / 10, "Buddy {buddy} vs SWIM {swim}");
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
        .count(|e| matches!(&e.event, Event::MemberSuspected { name, .. } if name.as_str() == "node-3"));
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
        cluster.trace().first_failure_detection("node-11").is_some(),
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
    assert_eq!(cluster.trace().first_failure_detection("node-5"), None);
    let leaves = cluster
        .trace()
        .count(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "node-5"));
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
        let stream_bytes = |c: &Cluster| -> u64 {
            (0..N).map(|i| c.metrics_snapshot(i).io.stream_bytes).sum()
        };
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
