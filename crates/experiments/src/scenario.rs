//! Experiment scenarios (paper §V-D), each a function returning the
//! [`Schedule`] of one run:
//!
//! * [`threshold`] — one synchronized burst of `C` concurrent anomalies
//!   of duration `D` (Table II grid). Measures detection and
//!   dissemination latency for true positives.
//! * [`interval`] — cyclic anomalies: blocked for `D`, normal for `I`,
//!   repeating until 120 s have passed (Table III grid). Measures false
//!   positives and message load.
//! * [`stress`] — Figure 1's scenario: a subset of members suffers
//!   duty-cycle CPU starvation (the paper's: 100 members, five minutes).
//!
//! A [`Scale`] names the cells `verdict::Runs` replays: the gate's, or
//! the paper's Interval grid (Table III) encoded verbatim below and its
//! Figure 1 stress counts.
//!
//! [`run`] replays a schedule under one protocol configuration, so SWIM
//! and Lifeguard are compared on identical inputs. It drives the nodes
//! through the simulator's instance of the shared sans-I/O `Driver`
//! harness (`lifeguard_core::driver`) — the same dispatch loop the real
//! UDP/TCP agent runs — and validates the protocol configuration up
//! front, so a nonsense parameter combination fails the run immediately
//! instead of skewing a table.

use std::ops::RangeInclusive;
use std::time::Duration;

use lifeguard_core::config::Config;
use lifeguard_core::event_log::EventLog;
use lifeguard_sim::anomaly::AnomalySpec;
use lifeguard_sim::clock::SimTime;
use lifeguard_sim::cluster::{Cluster, SimAction};
use lifeguard_sim::network::NetworkConfig;
use lifeguard_sim::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Concurrent-anomaly counts `C` (Tables II & III).
pub const C_VALUES: [usize; 9] = [1, 4, 8, 12, 16, 20, 24, 28, 32];
/// Anomaly durations `D` in milliseconds (Tables II & III).
pub const D_VALUES_MS: [u64; 6] = [128, 512, 2048, 8192, 16384, 32768];
/// Inter-anomaly intervals `I` in milliseconds (Table III).
pub const I_VALUES_MS: [u64; 8] = [1, 4, 16, 64, 256, 1024, 4096, 16384];

/// Cluster size used by the Threshold/Interval experiments (§V-D1).
pub const CLUSTER_SIZE: usize = 128;
/// Quiesce time before anomalies start (§V-D1).
pub const QUIESCE: Duration = Duration::from_secs(15);
/// Minimum experiment duration measured from the start (§V-D2).
pub const MIN_RUN: Duration = Duration::from_secs(120);
/// Stressed-member counts of Figure 1 (of 100, stressed for 5 minutes).
pub const STRESSED: [usize; 7] = [1, 2, 4, 8, 16, 24, 32];

/// One Interval schedule's shape: (n, C, D, I).
pub type IntervalCell = (usize, usize, Duration, Duration);

/// Which cells `verdict::Runs` replays. Every table `lifeguard-repro`
/// prints renders those runs, and the verdict judges them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The gate's cells over seeds 1–8, as `cargo test` judges them:
    /// seconds of wall-clock in a release build.
    Gate,
    /// The gate's cells with the Interval and Table VII cells widened to
    /// the paper's grid (Table III at n = 128), the stress cell to Figure
    /// 1's, and the paper's ten repetitions as seeds 1–10. Hours of
    /// wall-clock.
    Paper,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "gate" => Some(Scale::Gate),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The seeds every cell replays, once per configuration.
    pub fn seeds(self) -> RangeInclusive<u64> {
        match self {
            Scale::Gate => 1..=8,
            Scale::Paper => 1..=10,
        }
    }

    /// The Interval cells one seed replays.
    pub fn interval_cells(self) -> Vec<IntervalCell> {
        let ms = Duration::from_millis;
        match self {
            Scale::Gate => vec![(64, 16, ms(16_384), ms(64))],
            Scale::Paper => (C_VALUES.iter())
                .flat_map(|&c| D_VALUES_MS.iter().map(move |&d| (c, ms(d))))
                .flat_map(|(c, d)| {
                    I_VALUES_MS
                        .iter()
                        .map(move |&i| (CLUSTER_SIZE, c, d, ms(i)))
                })
                .collect(),
        }
    }

    /// The Table VII cells one seed replays under each (α, β). The gate's
    /// is smaller than its Interval cell: at 16 members, β = 6 admitted
    /// more FP than β = 2 at α = 2, and 24 is the smallest size tried
    /// where it does not.
    pub fn tuning_cells(self) -> Vec<IntervalCell> {
        let ms = Duration::from_millis;
        match self {
            Scale::Gate => vec![(24, 6, ms(16_384), ms(64))],
            Scale::Paper => self.interval_cells(),
        }
    }

    /// The stress cells one seed replays, as (n, stressed, stress length).
    pub fn stress_cells(self) -> Vec<(usize, usize, Duration)> {
        let secs = Duration::from_secs;
        match self {
            Scale::Gate => vec![(32, 8, secs(60))],
            Scale::Paper => STRESSED.iter().map(|&k| (100, k, secs(300))).collect(),
        }
    }
}

/// What a single simulation run produced, reduced to the quantities the
/// paper reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Indices of the anomalous nodes.
    pub anomalous: Vec<usize>,
    /// Cluster size.
    pub n: usize,
    /// Failure events about healthy members, at any member (`FP`).
    pub fp_events: u64,
    /// Failure events about healthy members, reported by healthy members
    /// (`FP-`).
    pub fp_healthy_events: u64,
    /// Per anomalous node: latency from anomaly start to first detection
    /// by a healthy member, if it was detected at all.
    pub first_detect: Vec<Option<Duration>>,
    /// Per anomalous node: latency from anomaly start to every healthy
    /// member having declared it failed.
    pub full_dissem: Vec<Option<Duration>>,
    /// Total (compound) messages sent by all members.
    pub msgs_sent: u64,
    /// Total bytes sent by all members.
    pub bytes_sent: u64,
    /// Failure declarations in the trace, about any member, at any member.
    pub declarations: u64,
}

/// The network model used by all experiments: loopback latency with a
/// small uniform datagram loss rate.
///
/// The paper ran 128 agents in one VM; under the bursty load the
/// experiments generate, such a host drops a small fraction of UDP
/// datagrams (kernel buffer overruns). This loss is what occasionally
/// lets a refutation lose the race against a suspicion at a healthy
/// member, producing the paper's small-but-nonzero FP- counts.
pub fn experiment_network() -> NetworkConfig {
    NetworkConfig {
        datagram_loss: 0.005,
        ..NetworkConfig::loopback()
    }
}

/// Picks `c` distinct anomalous node indices at random (never the join
/// seed, node 0, so the cluster bootstrap is never the victim — the paper
/// deploys no distinguished node, but our join seed is only special
/// during the first seconds).
fn pick_anomalous(n: usize, c: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (1..n).collect();
    for i in 0..c.min(idx.len()) {
        let j = rng.random_range(i..idx.len());
        idx.swap(i, j);
    }
    idx.truncate(c);
    idx.sort_unstable();
    idx
}

/// The Threshold experiment (§V-D1): `c` of `n` members block once,
/// together, for `d` at the end of the quiesce; the run ends at
/// `run_len` (the paper caps it at [`MIN_RUN`]).
pub fn threshold(n: usize, c: usize, d: Duration, run_len: Duration, seed: u64) -> Schedule {
    let spec = AnomalySpec::Threshold {
        start: SimTime::ZERO + QUIESCE,
        duration: d,
    };
    with_anomalies(n, c, seed, SimTime::ZERO + run_len, spec)
}

/// The Interval experiment (§V-D2): `c` of `n` members block for `d`
/// and run for `i`, cycling until `min_run` has passed (the paper's is
/// [`MIN_RUN`]); the run ends with the next anomalous period.
pub fn interval(
    n: usize,
    c: usize,
    d: Duration,
    i: Duration,
    min_run: Duration,
    seed: u64,
) -> Schedule {
    let spec = AnomalySpec::Interval {
        start: SimTime::ZERO + QUIESCE,
        duration: d,
        interval: i,
        until: SimTime::ZERO + min_run,
    };
    let end = spec
        .windows(0)
        .last()
        .map(|w| w.end)
        .expect("interval schedule is non-empty");
    // All anomalous nodes share the same lock-step schedule (paper
    // footnote 6: fully correlated anomalies are the worst case).
    with_anomalies(n, c, seed, end, spec)
}

/// The Figure 1 stress scenario: duty-cycle CPU starvation on
/// `stressed` of `n` members for `len` after the quiesce, then 15 s for
/// the cluster to settle, as the paper's log window does.
pub fn stress(n: usize, stressed: usize, len: Duration, seed: u64) -> Schedule {
    let start = SimTime::ZERO + QUIESCE;
    let spec = AnomalySpec::cpu_stress(start, start + len);
    let settled = start + len + Duration::from_secs(15);
    with_anomalies(n, stressed, seed, settled, spec)
}

/// `n` members on the [`experiment_network`], `spec` applied to `c` of
/// them picked from `seed`, ending at `end`.
fn with_anomalies(n: usize, c: usize, seed: u64, end: SimTime, spec: AnomalySpec) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let schedule = Schedule {
        seed,
        network: experiment_network(),
        end,
        ..Schedule::new(n)
    };
    pick_anomalous(n, c, &mut rng)
        .into_iter()
        .fold(schedule, |s, node| s.anomaly(node, spec))
}

/// Replays `schedule` under `config` to its end and reduces it to the
/// paper's metrics. The anomalous members are the ones the schedule
/// pauses, and the anomaly starts at its first pause.
///
/// # Panics
///
/// Panics if `config` fails [`Config::validate`] — a malformed grid
/// point must not produce a silently wrong table row.
pub fn run(schedule: &Schedule, config: &Config) -> RunOutcome {
    config.validate().expect("scenario config must be valid");
    let mut cluster = Cluster::new(schedule, config);
    cluster.run_until(schedule.end);
    let pauses = schedule
        .faults
        .iter()
        .filter_map(|(at, action)| match action {
            SimAction::Pause { node, .. } => Some((*at, *node)),
            _ => None,
        });
    let anomaly_start = pauses.clone().next().map_or(SimTime::ZERO, |(at, _)| at);
    let mut anomalous: Vec<usize> = pauses.map(|(_, node)| node).collect();
    anomalous.sort_unstable();
    anomalous.dedup();
    let snaps: Vec<_> = (0..cluster.len())
        .map(|i| cluster.metrics_snapshot(i))
        .collect();
    RunOutcome {
        msgs_sent: snaps
            .iter()
            .map(|s| s.io.datagrams_sent + s.io.streams_sent)
            .sum(),
        bytes_sent: snaps
            .iter()
            .map(|s| s.io.datagram_bytes + s.io.stream_bytes)
            .sum(),
        ..outcome(cluster.trace(), cluster.len(), &anomalous, anomaly_start)
    }
}

/// The paper's outcome numbers of a run on `n` members whose sorted
/// `anomalous` ones were first paused at `start`, in one pass over the
/// trace's failure declarations; the message counts are left at zero.
/// A subject is detected by its first declaration by a healthy member
/// at or after `start`, and disseminated once every healthy member has
/// declared it: when the last of their first declarations, made at any
/// time, falls at or after `start`.
fn outcome(trace: &EventLog, n: usize, anomalous: &[usize], start: SimTime) -> RunOutcome {
    let slot = |i: usize| anomalous.binary_search(&i).ok();
    let healthy = (0..n).filter(|&i| slot(i).is_none()).count();
    // Per anomalous subject `k`: whether healthy member `r` declared it
    // (at `k * n + r`), then how many did and when the last of them did.
    let mut declared = vec![false; anomalous.len() * n];
    let mut firsts = vec![(0, None); anomalous.len()];
    let mut out = RunOutcome {
        anomalous: anomalous.to_vec(),
        n,
        fp_events: 0,
        fp_healthy_events: 0,
        first_detect: vec![None; anomalous.len()],
        full_dissem: Vec::new(),
        msgs_sent: 0,
        bytes_sent: 0,
        declarations: 0,
    };
    for (at, reporter, subject) in trace.failures() {
        out.declarations += 1;
        let healthy_reporter = slot(reporter).is_none();
        let subject = (subject.as_str().strip_prefix("node-"))
            .and_then(|s| s.parse().ok())
            .expect("simulated node names are node-<i>");
        let Some(k) = slot(subject) else {
            out.fp_events += 1;
            out.fp_healthy_events += u64::from(healthy_reporter);
            continue;
        };
        if !healthy_reporter {
            continue;
        }
        if at >= start {
            out.first_detect[k].get_or_insert(at - start);
        }
        if !std::mem::replace(&mut declared[k * n + reporter], true) {
            firsts[k] = (firsts[k].0 + 1, Some(at));
        }
    }
    let disseminated = |(count, last): (usize, Option<SimTime>)| {
        last.filter(|&at| count == healthy && at >= start)
            .map(|at| at - start)
    };
    out.full_dissem = firsts.into_iter().map(disseminated).collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_paper_tables() {
        assert_eq!(C_VALUES.len(), 9);
        assert_eq!(D_VALUES_MS.len(), 6);
        assert_eq!(I_VALUES_MS.len(), 8);
        // The paper's scale replays every (C, D, I) of Table III at n = 128,
        // ten repetitions each; the gate replays its one cell.
        let paper = Scale::Paper.interval_cells();
        assert_eq!(
            paper.len(),
            C_VALUES.len() * D_VALUES_MS.len() * I_VALUES_MS.len()
        );
        assert!(paper.iter().all(|&(n, ..)| n == CLUSTER_SIZE));
        let (first, last) = (paper[0], paper[paper.len() - 1]);
        assert_eq!(
            (first.1, first.2.as_millis(), first.3.as_millis()),
            (1, 128, 1)
        );
        assert_eq!(
            (last.1, last.2.as_millis(), last.3.as_millis()),
            (32, 32_768, 16_384)
        );
        assert_eq!(Scale::Paper.seeds().count(), 10);
        assert_eq!(Scale::Gate.interval_cells().len(), 1);
        assert_eq!(Scale::Paper.tuning_cells(), paper);
        let stress = Scale::Paper.stress_cells();
        assert_eq!(
            stress.iter().map(|&(_, k, _)| k).collect::<Vec<_>>(),
            STRESSED
        );
        assert!(stress
            .iter()
            .all(|&(n, _, len)| n == 100 && len.as_secs() == 300));
        assert_eq!(Scale::Gate.seeds(), 1..=8);
    }

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("gate"), Some(Scale::Gate));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        // The subsampled scales are gone: every table renders judged runs.
        assert_eq!(Scale::parse("quick"), None);
        assert_eq!(Scale::parse("default"), None);
    }

    #[test]
    fn pick_anomalous_is_distinct_sorted_and_seeded() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = pick_anomalous(128, 32, &mut rng);
        assert_eq!(a.len(), 32);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 32);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(!a.contains(&0));

        let mut rng2 = StdRng::seed_from_u64(5);
        assert_eq!(a, pick_anomalous(128, 32, &mut rng2));
    }

    /// [`outcome`]'s numbers by per-subject scans: a rescan of the
    /// declarations per anomalous member, and the set of healthy members
    /// yet to declare it.
    fn scans(
        trace: &EventLog,
        n: usize,
        anomalous: &[usize],
        anomaly_start: SimTime,
    ) -> RunOutcome {
        let all_declared = |name: &str, required: &[usize]| {
            let mut missing: std::collections::HashSet<usize> = required.iter().copied().collect();
            if missing.is_empty() {
                return None;
            }
            for (at, reporter, _) in trace.failures().filter(|(_, _, s)| s.as_str() == name) {
                missing.remove(&reporter);
                if missing.is_empty() {
                    return Some(at);
                }
            }
            None
        };
        let is_anomalous = |i: usize| anomalous.binary_search(&i).is_ok();
        let healthy: Vec<usize> = (0..n).filter(|&i| !is_anomalous(i)).collect();

        let (mut failures, mut fp, mut fp_healthy) = (0u64, 0u64, 0u64);
        for (_, reporter, subject) in trace.failures() {
            failures += 1;
            let subject_idx: usize = subject
                .as_str()
                .strip_prefix("node-")
                .and_then(|s| s.parse().ok())
                .expect("simulated node names are node-<i>");
            if !is_anomalous(subject_idx) {
                fp += 1;
                if !is_anomalous(reporter) {
                    fp_healthy += 1;
                }
            }
        }

        let mut first_detect = Vec::with_capacity(anomalous.len());
        let mut full_dissem = Vec::with_capacity(anomalous.len());
        for &a in anomalous {
            let name = format!("node-{a}");
            let detect = trace
                .failures()
                .find(|(at, reporter, subject)| {
                    subject.as_str() == name && !is_anomalous(*reporter) && *at >= anomaly_start
                })
                .map(|(at, _, _)| at - anomaly_start);
            first_detect.push(detect);
            full_dissem.push(
                all_declared(&name, &healthy)
                    .filter(|at| *at >= anomaly_start)
                    .map(|at| at - anomaly_start),
            );
        }
        RunOutcome {
            n,
            fp_events: fp,
            fp_healthy_events: fp_healthy,
            first_detect,
            full_dissem,
            msgs_sent: 0,
            bytes_sent: 0,
            declarations: failures,
            anomalous: anomalous.to_vec(),
        }
    }

    #[test]
    fn one_pass_matches_per_subject_scans() {
        use lifeguard_core::event::Event;
        use lifeguard_proto::Incarnation;

        let mut rng = StdRng::seed_from_u64(48);
        for case in 0..600 {
            let n = rng.random_range(1..=24);
            let share: f64 = rng.random();
            let anomalous: Vec<usize> = (0..n).filter(|_| rng.random_bool(share)).collect();
            // Times on a 100 ms grid, so declarations land on the start too.
            let tick = |rng: &mut StdRng| SimTime::from_millis(100 * rng.random_range(0..40u64));
            let start = tick(&mut rng);
            let mut times: Vec<SimTime> = (0..rng.random_range(0..120))
                .map(|_| tick(&mut rng))
                .collect();
            times.sort_unstable();
            let mut trace = EventLog::new();
            for at in times {
                let name = format!("node-{}", rng.random_range(0..n)).as_str().into();
                // Mostly declarations; a recovery or a rejoin in between
                // lets the same member declare the same subject again.
                let event = match rng.random_range(0..5) {
                    0 => Event::MemberRecovered { name },
                    1 => Event::MemberJoined { name },
                    _ => Event::MemberFailed {
                        name,
                        incarnation: Incarnation(1),
                        from: "node-0".into(),
                    },
                };
                trace.record(at, rng.random_range(0..n), event);
            }
            let (got, want) = (
                outcome(&trace, n, &anomalous, start),
                scans(&trace, n, &anomalous, start),
            );
            assert_eq!(
                got, want,
                "case {case}: n {n}, anomalous {anomalous:?}, start {start:?}"
            );
        }
    }

    #[test]
    fn small_threshold_run_detects_long_anomaly() {
        // Scaled-down smoke test: 16 nodes, one 20 s anomaly. The victim
        // must be detected (suspicion min ≈ 5·log10(16)·1 s ≈ 6 s).
        let s = threshold(16, 1, Duration::from_secs(20), Duration::from_secs(60), 3);
        let out = run(&s, &Config::lan());
        assert_eq!(out.anomalous.len(), 1);
        assert!(out.first_detect[0].is_some(), "20 s pause must be detected");
        let d = out.first_detect[0].unwrap();
        assert!(
            d > Duration::from_secs(4) && d < Duration::from_secs(20),
            "{d:?}"
        );
        assert!(out.full_dissem[0].is_some());
        assert!(out.full_dissem[0].unwrap() >= d);
        assert!(out.msgs_sent > 0 && out.bytes_sent > 0);
    }

    #[test]
    fn short_anomaly_is_not_detected() {
        // A 128 ms pause is far below any suspicion timeout.
        let s = threshold(
            16,
            1,
            Duration::from_millis(128),
            Duration::from_secs(40),
            4,
        );
        let out = run(&s, &Config::lan());
        assert_eq!(out.first_detect[0], None);
        assert_eq!(out.fp_events, 0);
    }
}
