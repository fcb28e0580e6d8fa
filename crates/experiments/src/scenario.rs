//! Experiment scenarios (paper §V-D).
//!
//! Three workloads drive the evaluation:
//!
//! * **Threshold** — one synchronized burst of `C` concurrent anomalies of
//!   duration `D` (Table II grid). Measures detection and dissemination
//!   latency for true positives.
//! * **Interval** — cyclic anomalies: blocked for `D`, normal for `I`,
//!   repeating until 120 s have passed (Table III grid). Measures false
//!   positives and message load.
//! * **Stress** — Figure 1's scenario: a 100-node cluster where a subset
//!   suffers duty-cycle CPU starvation for five minutes.
//!
//! Parameter value sets are encoded verbatim from Tables II and III; the
//! [`Scale`] knob subsamples them so the full reproduction fits a laptop
//! budget while `--scale paper` runs the original grid.
//!
//! Every scenario drives its nodes through the simulator's instance of
//! the shared sans-I/O `Driver` harness (`lifeguard_core::driver`) — the
//! same dispatch loop the real UDP/TCP agent runs — and validates the
//! protocol configuration up front, so a nonsense parameter combination
//! fails the run immediately instead of skewing a table.

use std::time::Duration;

use lifeguard_core::config::Config;
use lifeguard_sim::anomaly::AnomalySpec;
use lifeguard_sim::clock::SimTime;
use lifeguard_sim::cluster::{Cluster, ClusterBuilder};
use lifeguard_sim::network::NetworkConfig;
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
/// Cluster size of the Figure 1 stress scenario.
pub const STRESS_CLUSTER_SIZE: usize = 100;
/// Stress workload duration in the Figure 1 scenario ("run for 5 minutes").
pub const STRESS_DURATION: Duration = Duration::from_secs(300);

/// How much of the paper's parameter grid to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small subsample; minutes of wall-clock. Good for smoke checks.
    Quick,
    /// Most of the grid with one repetition; the default for
    /// regenerating the tables.
    Default,
    /// The paper's full grid with 10 repetitions. Hours of wall-clock.
    Paper,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The `C` values exercised at this scale.
    pub fn c_values(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[4, 16, 32],
            Scale::Default | Scale::Paper => &C_VALUES,
        }
    }

    /// The `D` values exercised at this scale (milliseconds).
    pub fn d_values_ms(self) -> &'static [u64] {
        match self {
            Scale::Quick => &[2048, 16384],
            Scale::Default => &[512, 2048, 8192, 16384, 32768],
            Scale::Paper => &D_VALUES_MS,
        }
    }

    /// The `I` values exercised at this scale (milliseconds).
    pub fn i_values_ms(self) -> &'static [u64] {
        match self {
            Scale::Quick => &[64, 4096],
            Scale::Default => &[4, 64, 1024, 16384],
            Scale::Paper => &I_VALUES_MS,
        }
    }

    /// Repetitions per parameter combination.
    pub fn reps(self) -> u64 {
        match self {
            Scale::Quick | Scale::Default => 1,
            Scale::Paper => 10,
        }
    }

    /// The stress-node counts for the Figure 1 scenario.
    pub fn stress_counts(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[4, 16, 32],
            Scale::Default | Scale::Paper => &[1, 2, 4, 8, 16, 24, 32],
        }
    }
}

/// What a single simulation run produced, reduced to the quantities the
/// paper reports.
#[derive(Clone, Debug)]
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

/// Extracts the paper's metrics from a finished cluster.
pub(crate) fn extract(cluster: &Cluster, anomalous: &[usize], anomaly_start: SimTime) -> RunOutcome {
    let n = cluster.len();
    let is_anomalous = |i: usize| anomalous.binary_search(&i).is_ok();
    let healthy: Vec<usize> = (0..n).filter(|&i| !is_anomalous(i)).collect();

    let mut fp = 0u64;
    let mut fp_healthy = 0u64;
    for (_, reporter, subject) in cluster.trace().failures() {
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
        let detect = cluster
            .trace()
            .failures()
            .find(|(at, reporter, subject)| {
                subject.as_str() == name && !is_anomalous(*reporter) && *at >= anomaly_start
            })
            .map(|(at, _, _)| at - anomaly_start);
        first_detect.push(detect);
        full_dissem.push(
            cluster
                .trace()
                .full_dissemination(&name, &healthy)
                .filter(|at| *at >= anomaly_start)
                .map(|at| at - anomaly_start),
        );
    }

    let io: Vec<_> = (0..n).map(|i| cluster.metrics_snapshot(i).io).collect();
    RunOutcome {
        anomalous: anomalous.to_vec(),
        n,
        fp_events: fp,
        fp_healthy_events: fp_healthy,
        first_detect,
        full_dissem,
        msgs_sent: io.iter().map(|s| s.datagrams_sent + s.streams_sent).sum(),
        bytes_sent: io.iter().map(|s| s.datagram_bytes + s.stream_bytes).sum(),
    }
}

/// The Threshold experiment (§V-D1): one synchronized set of `c`
/// anomalies of duration `d`.
#[derive(Clone, Debug)]
pub struct ThresholdScenario {
    /// Number of concurrent anomalies (`C`).
    pub c: usize,
    /// Anomaly duration (`D`).
    pub d: Duration,
    /// Protocol configuration under test.
    pub config: Config,
    /// Run seed.
    pub seed: u64,
    /// Cluster size (the paper uses 128).
    pub n: usize,
    /// Quiesce time before the anomaly.
    pub quiesce: Duration,
    /// Total run length from simulation start (the paper caps at 120 s).
    pub run_len: Duration,
}

impl ThresholdScenario {
    /// Paper-parameterised scenario.
    pub fn new(c: usize, d: Duration, config: Config, seed: u64) -> Self {
        ThresholdScenario {
            c,
            d,
            config,
            seed,
            n: CLUSTER_SIZE,
            quiesce: QUIESCE,
            run_len: MIN_RUN,
        }
    }

    /// Executes the scenario and reduces it to metrics.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration fails
    /// [`Config::validate`] — a malformed grid point must not produce a
    /// silently wrong table row.
    pub fn run(&self) -> RunOutcome {
        let (cluster, anomalous, start) = self.run_cluster();
        extract(&cluster, &anomalous, start)
    }

    /// Executes the scenario and hands back the finished cluster with
    /// the anomaly assignment, so callers (the SLO smoke harness) can
    /// also pull per-node metrics snapshots before reduction.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration fails [`Config::validate`].
    pub fn run_cluster(&self) -> (Cluster, Vec<usize>, SimTime) {
        self.config.validate().expect("scenario config must be valid");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD1CE);
        let anomalous = pick_anomalous(self.n, self.c, &mut rng);
        let start = SimTime::ZERO + self.quiesce;
        let mut builder = ClusterBuilder::new(self.n)
            .config(self.config.clone())
            .network(experiment_network())
            .seed(self.seed);
        for &a in &anomalous {
            builder = builder.anomaly(
                a,
                AnomalySpec::Threshold {
                    start,
                    duration: self.d,
                },
            );
        }
        let mut cluster = builder.build();
        cluster.run_until(SimTime::ZERO + self.run_len);
        (cluster, anomalous, start)
    }
}

/// The Interval experiment (§V-D2): anomalies of duration `d` separated
/// by intervals `i`, cycling until 120 s have passed.
#[derive(Clone, Debug)]
pub struct IntervalScenario {
    /// Number of concurrent anomalies (`C`).
    pub c: usize,
    /// Anomaly duration (`D`).
    pub d: Duration,
    /// Normal-operation interval (`I`).
    pub i: Duration,
    /// Protocol configuration under test.
    pub config: Config,
    /// Run seed.
    pub seed: u64,
    /// Cluster size.
    pub n: usize,
    /// Quiesce time before the first anomaly.
    pub quiesce: Duration,
    /// Minimum run length; the run ends at the end of the next anomalous
    /// period after this.
    pub min_run: Duration,
}

impl IntervalScenario {
    /// Paper-parameterised scenario.
    pub fn new(c: usize, d: Duration, i: Duration, config: Config, seed: u64) -> Self {
        IntervalScenario {
            c,
            d,
            i,
            config,
            seed,
            n: CLUSTER_SIZE,
            quiesce: QUIESCE,
            min_run: MIN_RUN,
        }
    }

    /// Executes the scenario and reduces it to metrics.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration fails [`Config::validate`].
    pub fn run(&self) -> RunOutcome {
        self.config.validate().expect("scenario config must be valid");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD1CE);
        let anomalous = pick_anomalous(self.n, self.c, &mut rng);
        let start = SimTime::ZERO + self.quiesce;
        let until = SimTime::ZERO + self.min_run;
        let spec = AnomalySpec::Interval {
            start,
            duration: self.d,
            interval: self.i,
            until,
        };
        // All anomalous nodes share the same lock-step schedule (paper
        // footnote 6: fully correlated anomalies are the worst case).
        let last_end = spec
            .windows(0)
            .last()
            .map(|w| w.end)
            .expect("interval schedule is non-empty");
        let mut builder = ClusterBuilder::new(self.n)
            .config(self.config.clone())
            .network(experiment_network())
            .seed(self.seed);
        for &a in &anomalous {
            builder = builder.anomaly(a, spec.clone());
        }
        let mut cluster = builder.build();
        cluster.run_until(last_end);
        extract(&cluster, &anomalous, start)
    }
}

/// The Figure 1 stress scenario: duty-cycle CPU starvation on a subset of
/// a 100-node cluster for five minutes.
#[derive(Clone, Debug)]
pub struct StressScenario {
    /// Number of stressed nodes (1–32 in the paper).
    pub stressed: usize,
    /// Protocol configuration under test.
    pub config: Config,
    /// Run seed.
    pub seed: u64,
    /// Cluster size (the paper uses 100 single-core VMs).
    pub n: usize,
    /// Length of the stress workload.
    pub duration: Duration,
}

impl StressScenario {
    /// Paper-parameterised scenario.
    pub fn new(stressed: usize, config: Config, seed: u64) -> Self {
        StressScenario {
            stressed,
            config,
            seed,
            n: STRESS_CLUSTER_SIZE,
            duration: STRESS_DURATION,
        }
    }

    /// Executes the scenario and reduces it to metrics.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration fails [`Config::validate`].
    pub fn run(&self) -> RunOutcome {
        self.config.validate().expect("scenario config must be valid");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD1CE);
        let anomalous = pick_anomalous(self.n, self.stressed, &mut rng);
        let start = SimTime::ZERO + QUIESCE;
        let end = start + self.duration;
        let mut builder = ClusterBuilder::new(self.n)
            .config(self.config.clone())
            .network(experiment_network())
            .seed(self.seed);
        for &a in &anomalous {
            builder = builder.anomaly(a, AnomalySpec::cpu_stress(start, end));
        }
        let mut cluster = builder.build();
        // Let the cluster settle after the stress ends, as the paper's
        // log window does.
        cluster.run_until(end + Duration::from_secs(15));
        extract(&cluster, &anomalous, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_paper_tables() {
        assert_eq!(C_VALUES.len(), 9);
        assert_eq!(D_VALUES_MS.len(), 6);
        assert_eq!(I_VALUES_MS.len(), 8);
        assert_eq!(Scale::Paper.c_values(), &C_VALUES);
        assert_eq!(Scale::Paper.d_values_ms(), &D_VALUES_MS);
        assert_eq!(Scale::Paper.i_values_ms(), &I_VALUES_MS);
        assert_eq!(Scale::Paper.reps(), 10);
        assert!(Scale::Quick.c_values().len() < C_VALUES.len());
    }

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
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

    #[test]
    fn small_threshold_run_detects_long_anomaly() {
        // Scaled-down smoke test: 16 nodes, one 20 s anomaly. The victim
        // must be detected (suspicion min ≈ 5·log10(16)·1 s ≈ 6 s).
        let mut s = ThresholdScenario::new(1, Duration::from_secs(20), Config::lan(), 3);
        s.n = 16;
        s.run_len = Duration::from_secs(60);
        let out = s.run();
        assert_eq!(out.anomalous.len(), 1);
        assert!(out.first_detect[0].is_some(), "20 s pause must be detected");
        let d = out.first_detect[0].unwrap();
        assert!(d > Duration::from_secs(4) && d < Duration::from_secs(20), "{d:?}");
        assert!(out.full_dissem[0].is_some());
        assert!(out.full_dissem[0].unwrap() >= d);
        assert!(out.msgs_sent > 0 && out.bytes_sent > 0);
    }

    #[test]
    fn short_anomaly_is_not_detected() {
        // A 128 ms pause is far below any suspicion timeout.
        let mut s = ThresholdScenario::new(1, Duration::from_millis(128), Config::lan(), 4);
        s.n = 16;
        s.run_len = Duration::from_secs(40);
        let out = s.run();
        assert_eq!(out.first_detect[0], None);
        assert_eq!(out.fp_events, 0);
    }
}
