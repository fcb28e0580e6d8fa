//! Determinism regression: the simulator's observable output — the full
//! event trace, telemetry totals and every node's final member table —
//! must be **byte-identical** for a given seed, run after run and
//! commit after commit.
//!
//! Each scenario's fingerprint is pinned as an FNV-1a hash, so any
//! change to RNG draw order, event order, table iteration or wire
//! encoding shows up here as a changed constant rather than going
//! unnoticed. Each scenario exercises convergence plus injected actions
//! (crash, pause, metadata churn) so the fingerprint covers probe
//! scheduling, suspicion timers, gossip dissemination and anomaly
//! handling — not just a quiet steady state.

use std::time::Duration;

use bytes::Bytes;
use lifeguard::core::config::Config;
use lifeguard::sim::anomaly::AnomalySpec;
use lifeguard::sim::clock::{SimDuration, SimTime};
use lifeguard::sim::cluster::{Cluster, ClusterBuilder, SimAction};
use lifeguard::sim::network::NetworkConfig;
use lifeguard::sim::schedule::Schedule;

/// Golden FNV-1a hashes of the two pinned scenarios below.
const EVENTFUL_GOLDEN: u64 = 0xb05e_5a73_e370_d878;
const METRICS_GOLDEN: u64 = 0xd3d5_a510_6ec3_1ee8;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical string form of everything a run observably produced.
fn fingerprint(c: &Cluster) -> String {
    let mut out = String::new();
    for e in c.trace().events() {
        out.push_str(&format!("{:?}/{}/{:?}\n", e.at, e.reporter, e.event));
    }
    // Totals of every node's transmit counters, in the form the
    // goldens were pinned in.
    let io: Vec<_> = (0..c.len()).map(|i| c.metrics_snapshot(i).io).collect();
    let sum = |f: fn(&lifeguard::metrics::IoSnapshot) -> u64| io.iter().map(f).sum::<u64>();
    out.push_str(&format!(
        "telemetry: NodeTelemetry {{ datagrams_sent: {}, datagram_bytes: {}, streams_sent: {}, stream_bytes: {} }}\n",
        sum(|s| s.datagrams_sent),
        sum(|s| s.datagram_bytes),
        sum(|s| s.streams_sent),
        sum(|s| s.stream_bytes),
    ));
    for i in 0..c.len() {
        let mut rows: Vec<String> = c
            .node(i)
            .members()
            .map(|m| format!("{}={:?}@{:?}", m.name.as_str(), m.state, m.incarnation))
            .collect();
        rows.sort();
        out.push_str(&format!("node {i}: {}\n", rows.join(",")));
    }
    out
}

/// A 12-node run with a crash, an anomaly pause and metadata churn.
fn eventful_run() -> String {
    let mut c = ClusterBuilder::new(12)
        .seed(0xD15C0)
        .config(Config::lan().lifeguard())
        .build();
    c.run_for(SimDuration::from_secs(12));
    c.apply(SimAction::UpdateMeta {
        node: 4,
        meta: Bytes::from_static(b"v2"),
    });
    c.apply(SimAction::Pause {
        node: 7,
        duration: Duration::from_millis(900),
    });
    c.run_for(SimDuration::from_secs(8));
    c.apply(SimAction::Crash { node: 11 });
    c.run_for(SimDuration::from_secs(25));
    fingerprint(&c)
}

#[test]
fn trace_and_tables_match_golden_and_repeat() {
    let reference = eventful_run();
    assert!(
        reference.contains("MemberFailed"),
        "scenario must actually exercise failure detection"
    );
    assert_eq!(reference, eventful_run(), "two runs of one seed diverged");
    assert_eq!(
        fnv1a(reference.as_bytes()),
        EVENTFUL_GOLDEN,
        "fingerprint drifted"
    );
}

/// A scheduled fault is the scripted call at its instant:
/// `eventful_run` written as a `Schedule` replays to the same golden.
#[test]
fn scheduled_faults_replay_the_scripted_run() {
    let schedule = Schedule {
        seed: 0xD15C0,
        end: SimTime::from_secs(45),
        ..Schedule::new(12)
    }
    .at(
        SimTime::from_secs(12),
        SimAction::UpdateMeta {
            node: 4,
            meta: Bytes::from_static(b"v2"),
        },
    )
    .at(
        SimTime::from_secs(12),
        SimAction::Pause {
            node: 7,
            duration: Duration::from_millis(900),
        },
    )
    .at(SimTime::from_secs(20), SimAction::Crash { node: 11 });
    let mut c = Cluster::new(&schedule, &Config::lan().lifeguard());
    c.run_until(schedule.end);
    assert_eq!(
        fnv1a(fingerprint(&c).as_bytes()),
        EVENTFUL_GOLDEN,
        "schedule and script diverged"
    );
}

/// The per-node metrics export must be reproducible too: the exact same
/// `Snapshot` (core protocol counters, histograms and sim I/O
/// accounting) on every run of a seed, and therefore the same encoded
/// bytes, node by node. Every encoding decodes back to its snapshot.
#[test]
fn metrics_snapshots_match_golden_and_repeat() {
    use lifeguard::metrics::Snapshot;

    let run = || {
        let mut c = ClusterBuilder::new(10)
            .seed(0x5EED5)
            .config(Config::lan().lifeguard())
            .build();
        c.run_for(SimDuration::from_secs(10));
        c.apply(SimAction::Crash { node: 9 });
        c.run_for(SimDuration::from_secs(20));
        (0..c.len())
            .map(|i| c.metrics_snapshot(i))
            .collect::<Vec<_>>()
    };

    let snaps = run();
    // The scenario must produce non-trivial protocol metrics.
    let failures: u64 = snaps.iter().map(|s| s.core.failures_declared).sum();
    assert!(failures > 0, "scenario produced no failure metrics");
    assert_eq!(run(), snaps, "two runs of one seed diverged");
    let mut encoded = Vec::new();
    for (i, s) in snaps.iter().enumerate() {
        let bytes = s.encode();
        assert_eq!(
            Snapshot::decode(&bytes).as_ref(),
            Ok(s),
            "node {i} did not round-trip"
        );
        encoded.extend_from_slice(&bytes);
    }
    assert_eq!(
        fnv1a(&encoded),
        METRICS_GOLDEN,
        "encoded metrics snapshots drifted"
    );
}

/// How the caller slices simulated time must be unobservable: events
/// pop in queue order and take effect at emission, and a scheduled fault
/// lands after every event due at its instant, so one `run_until` to the
/// end and a thousand 1 ms `run_for` steps per second walk the same
/// sequence. (The benchmark's traced and untraced runs slice
/// differently and rely on this.)
#[test]
fn run_slicing_is_unobservable() {
    let schedule = Schedule {
        seed: 0x51_1CE,
        network: NetworkConfig {
            datagram_loss: 0.01,
            ..NetworkConfig::loopback()
        },
        end: SimTime::from_secs(45),
        ..Schedule::new(24)
    }
    .anomaly(
        5,
        AnomalySpec::Interval {
            start: SimTime::from_secs(12),
            duration: Duration::from_millis(2_048),
            interval: Duration::from_millis(512),
            until: SimTime::from_secs(30),
        },
    )
    .at(
        SimTime::from_secs(15),
        SimAction::UpdateMeta {
            node: 3,
            meta: Bytes::from_static(b"v2"),
        },
    )
    .at(SimTime::from_secs(20), SimAction::Crash { node: 23 });
    let run = |advance: fn(&mut Cluster, SimTime)| {
        let mut c = Cluster::new(&schedule, &Config::lan().lifeguard());
        advance(&mut c, schedule.end);
        let snaps: Vec<_> = (0..c.len()).map(|i| c.metrics_snapshot(i)).collect();
        (fingerprint(&c), snaps)
    };

    let (whole, whole_snaps) = run(|c, t| c.run_until(t));
    let (sliced, sliced_snaps) = run(|c, t| {
        while c.now() < t {
            c.run_for(SimDuration::from_millis(1));
        }
    });
    assert!(
        whole.contains("MemberFailed") && whole.contains("MemberSuspected"),
        "scenario must exercise suspicion and failure detection"
    );
    assert_eq!(
        whole, sliced,
        "trace, telemetry or tables depend on slicing"
    );
    assert_eq!(
        whole_snaps, sliced_snaps,
        "per-node metrics depend on slicing"
    );
}

/// Different seeds must still differ — guards against the fingerprint
/// (or the simulator) collapsing to something seed-independent.
#[test]
fn different_seeds_produce_different_runs() {
    let run = |seed: u64| {
        let mut c = ClusterBuilder::new(6).seed(seed).build();
        c.run_for(SimDuration::from_secs(15));
        fingerprint(&c)
    };
    assert_ne!(run(1), run(2));
}
