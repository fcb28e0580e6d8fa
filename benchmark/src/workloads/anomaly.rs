//! `anomaly-128`: the paper's cluster — 128 nodes, 0.5 % datagram loss —
//! under its two anomaly experiments, built directly on the simulator's
//! anomaly schedules.
//!
//! * Interval (C=32 nodes pause for D=16384 ms, run for I=64 ms, repeat
//!   until 120 s): nobody really fails, so every failure declaration
//!   about a never-paused member is a false positive.
//! * Threshold (C=16 nodes pause once for D=32768 ms): true failures,
//!   which give the detection and dissemination latencies.
//!
//! Why: tables are tiny, so suspicion, local health, blocked-I/O
//! deferral, nack/indirect probes and timer reschedule dominate. A
//! protocol change that lowers false positives usually pays in detection
//! latency or message load, so all three are reported from this workload.
//! SWIM runs on shared seeds as the reference for the paper's effect.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::api::{Anomaly, ClusterSpec, Protocol, SimCluster, Totals};
use crate::reduce::{reduce, Impaired, Reduction};
use crate::report::Run;
use crate::rig::Shape;
use crate::stats;
use crate::workloads::{
    derive_seed, report_counters, report_simulated, timed, traced_segment, Segments, Traffic,
};

const NODES: usize = 128;
const DATAGRAM_LOSS: f64 = 0.005;
const QUIESCE_MS: u64 = 15_000;
const RUN_MS: u64 = 120_000;
/// `--quick` halves every run: a smoke run, never comparable.
const QUICK_RUN_MS: u64 = 60_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Experiment {
    /// C=32 nodes pause for D=16384 ms, run for I=64 ms, until 120 s.
    Interval,
    /// C=16 nodes pause once for D=32768 ms.
    Threshold,
}

impl Experiment {
    fn anomaly(self, run_ms: u64) -> Anomaly {
        match self {
            Experiment::Interval => Anomaly::Interval {
                start_ms: QUIESCE_MS,
                duration_ms: 16_384,
                interval_ms: 64,
                until_ms: run_ms,
            },
            Experiment::Threshold => Anomaly::Threshold {
                start_ms: QUIESCE_MS,
                duration_ms: 32_768,
            },
        }
    }

    fn paused_nodes(self) -> usize {
        match self {
            Experiment::Interval => 32,
            Experiment::Threshold => 16,
        }
    }
}

/// Lifeguard runs per second of measuring budget (an Interval run costs
/// ~1.4 host s, a Threshold run ~0.3 s).
const INTERVAL_RUNS_PER_BUDGET_S: f64 = 0.5;
const THRESHOLD_RUNS_PER_BUDGET_S: f64 = 0.6;
const RECOVERY_LIMIT_SIM_S: u64 = 90;
/// Lifeguard may keep at most this share of SWIM's false positives.
const MAX_FP_PCT_OF_SWIM: f64 = 5.0;
/// Limits on the paper's outcome rows. The rows repeat exactly for a seed
/// but exist on this workload only, so no end-to-end bound can hold them;
/// a detector that gets worse than this on any seed makes the run
/// incorrect. Each limit is about a tenth above the worst of ten seeds at
/// the default budget (12.43, 14.97 and 12.89 simulated s).
const OUTCOME_LIMITS: [(&str, f64); 3] = [
    ("detector.detect_p50_s", 13.5),
    ("detector.detect_p90_s", 16.5),
    ("detector.dissem_p50_s", 14.0),
];
/// False positives per Lifeguard Interval run, mean over the runs: ten
/// seeds gave means of 8.8 to 14.3, and a single run reaches 25.
const FP_PER_RUN_LIMIT: f64 = 30.0;

/// One finished scenario run.
struct Outcome {
    setup_s: f64,
    /// Interval runs: one segment per anomaly cycle. Threshold runs: one.
    segments: Segments,
    reduction: Reduction,
    sent: Traffic,
    sim_s: f64,
    recovered: bool,
    fingerprint: u64,
}

/// `count` distinct nodes of `1..NODES` (never the join seed).
fn pick(count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<usize> = (1..NODES).collect();
    for i in 0..count {
        let j = rng.random_range(i..nodes.len());
        nodes.swap(i, j);
    }
    nodes.truncate(count);
    nodes.sort_unstable();
    nodes
}

/// Runs one scenario; a Lifeguard run's end-of-run counters are added to `counters`.
fn scenario(
    run: &mut Run,
    experiment: Experiment,
    protocol: Protocol,
    seed: u64,
    index: u32,
    counters: &mut Totals,
) -> Outcome {
    let run_ms = if run.quick { QUICK_RUN_MS } else { RUN_MS };
    let anomaly = experiment.anomaly(run_ms);
    let paused = pick(experiment.paused_nodes(), derive_seed(seed, 2));
    let spec = ClusterSpec {
        n: NODES,
        protocol,
        seed,
        full_mesh: false,
        datagram_loss: DATAGRAM_LOSS,
        anomalies: paused.iter().map(|&node| (node, anomaly)).collect(),
    };
    // Set-up: build, join through node-0 and quiesce until the anomalies start.
    let (mut cluster, setup_s, _) = timed(|| {
        let mut cluster = run
            .rec
            .span("sim.build", index, |_| SimCluster::build(&spec));
        run.rec.span("sim.quiesce", index, |_| {
            cluster.run_to_us(QUIESCE_MS * 1000)
        });
        cluster
    });
    let before = cluster.totals();

    // Segment boundaries: the start of every pause window, then the end
    // of the run (the last window's end, or 120 s for Threshold).
    let windows = anomaly.windows_us();
    let end_us = match experiment {
        Experiment::Interval => windows.last().expect("interval schedule").1,
        Experiment::Threshold => run_ms * 1000,
    };
    let mut bounds: Vec<u64> = windows.iter().map(|w| w.0).skip(1).collect();
    bounds.push(end_us);
    let mut segments = Segments::default();
    for (seg, &until_us) in bounds.iter().enumerate() {
        // Alternating from run to run, so that both halves of a traced
        // run get first and last cycles alike.
        let traced = traced_segment(run, index as usize + seg);
        let sim_s = (until_us - cluster.now_us()) as f64 / 1e6;
        let ((), wall_s, cpu_s) = timed(|| {
            run.rec.span("segment", index, |rec| {
                while traced && cluster.now_us() + 1_000_000 < until_us {
                    rec.span("sim.run_for", index, |_| cluster.run_for_us(1_000_000));
                }
                cluster.run_to_us(until_us);
            })
        });
        segments.push(NODES as f64 * sim_s, wall_s, cpu_s, traced);
    }
    let after = cluster.totals();
    let impaired: Vec<Impaired> = paused
        .iter()
        .map(|&node| Impaired {
            node,
            start_us: QUIESCE_MS * 1000,
        })
        .collect();
    let reduction = run.rec.span("trace.reduce", index, |_| {
        reduce(cluster.trace_records(), NODES, &impaired, end_us)
    });
    let fingerprint = cluster.fingerprint();

    // Recovery (untimed): once the anomalies stop, the paused nodes must
    // refute their own deaths and the cluster must heal.
    let mut recovered = cluster.converged();
    while !recovered && cluster.now_us() < end_us + RECOVERY_LIMIT_SIM_S * 1_000_000 {
        cluster.run_for_us(1_000_000);
        recovered = cluster.converged();
    }
    if protocol == Protocol::Lifeguard {
        cluster.add_totals(counters);
    }
    Outcome {
        setup_s,
        segments,
        reduction,
        sent: Traffic::between(&before, &after),
        sim_s: (end_us - QUIESCE_MS * 1000) as f64 / 1e6,
        recovered,
        fingerprint,
    }
}

fn detect_s(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .flat_map(|o| o.reduction.first_detect_us.iter().flatten())
        .map(|us| *us as f64 / 1e6)
        .collect()
}

pub fn run(run: &mut Run) -> Shape {
    let interval_runs = ((INTERVAL_RUNS_PER_BUDGET_S * run.seconds).round() as u64).max(1);
    let threshold_runs = ((THRESHOLD_RUNS_PER_BUDGET_S * run.seconds).round() as u64).max(1);
    let seed = run.seed;
    let interval_seed = |k: u64| derive_seed(seed, 100 + k);
    let threshold_seed = |k: u64| derive_seed(seed, 200 + k);
    let mut counters = Totals::default();

    let interval: Vec<Outcome> = (0..interval_runs)
        .map(|k| {
            scenario(
                run,
                Experiment::Interval,
                Protocol::Lifeguard,
                interval_seed(k),
                k as u32,
                &mut counters,
            )
        })
        .collect();
    let threshold: Vec<Outcome> = (0..threshold_runs)
        .map(|k| {
            scenario(
                run,
                Experiment::Threshold,
                Protocol::Lifeguard,
                threshold_seed(k),
                100 + k as u32,
                &mut counters,
            )
        })
        .collect();
    // The reference: SWIM on the first Interval seed always (it backs a
    // correctness check), on two Threshold seeds for the traced rows.
    let swim_interval = scenario(
        run,
        Experiment::Interval,
        Protocol::Swim,
        interval_seed(0),
        200,
        &mut counters,
    );
    let swim_threshold: Vec<Outcome> = (0..if run.trace { threshold_runs.min(2) } else { 0 })
        .map(|k| {
            scenario(
                run,
                Experiment::Threshold,
                Protocol::Swim,
                threshold_seed(k),
                300 + k as u32,
                &mut counters,
            )
        })
        .collect();

    // End to end: set-up over every Lifeguard run, host time over every
    // Interval anomaly cycle, load over the Interval runs.
    let setup_s: Vec<f64> = interval
        .iter()
        .chain(&threshold)
        .map(|o| o.setup_s)
        .collect();
    let mut cycles = Segments::default();
    for o in &interval {
        for i in 0..o.segments.ops.len() {
            cycles.push(
                o.segments.ops[i],
                o.segments.wall_s[i],
                o.segments.cpu_s[i],
                o.segments.traced[i],
            );
        }
    }
    let sent = interval
        .iter()
        .fold(Traffic::default(), |acc, o| acc.plus(o.sent));
    let sim_s: f64 = interval.iter().map(|o| o.sim_s).sum();
    let undetected = threshold
        .iter()
        .flat_map(|o| &o.reduction.first_detect_us)
        .filter(|d| d.is_none())
        .count();
    run.attempted = threshold_runs * Experiment::Threshold.paused_nodes() as u64;
    run.failed = undetected as u64;
    let shape = report_simulated(run, NODES, &setup_s, &cycles, &sent, sim_s);
    // Counters cover the Lifeguard runs from their start, quiesce included.
    report_counters(run, &Totals::default(), &counters);

    // The paper's outcome rows.
    let detect = detect_s(&threshold);
    if let Some(s) = stats::summarize(&detect) {
        run.set_summary("detector.detect_p50_s", &s, 1.0);
        run.set_n(
            "detector.detect_p90_s",
            stats::percentile(&detect, 90.0).unwrap_or(0.0),
            s.samples,
        );
    }
    let dissem: Vec<f64> = threshold
        .iter()
        .flat_map(|o| o.reduction.full_dissem_us.iter().flatten())
        .map(|us| *us as f64 / 1e6)
        .collect();
    if let Some(s) = stats::summarize(&dissem) {
        run.set_summary("detector.dissem_p50_s", &s, 1.0);
    }
    let fp_per_run: Vec<f64> = interval
        .iter()
        .map(|o| o.reduction.fp_events as f64)
        .collect();
    let fp_total: u64 = interval
        .iter()
        .chain(&threshold)
        .map(|o| o.reduction.fp_events)
        .sum();
    run.set_n(
        "detector.fp_events",
        fp_total as f64,
        interval.len() + threshold.len(),
    );
    run.set_n(
        "detector.fp_events_seed_sd",
        stats::std_dev(&fp_per_run).unwrap_or(0.0),
        fp_per_run.len(),
    );

    // Lifeguard against SWIM on the same seed.
    let (lg, swim) = (&interval[0], &swim_interval);
    let fp_pct = lg.reduction.fp_events as f64 / swim.reduction.fp_events.max(1) as f64 * 100.0;
    run.set("ref.swim.fp_events", swim.reduction.fp_events as f64);
    run.set("ref.fp_pct_of_swim", fp_pct);
    run.set(
        "ref.swim.msgs_per_node_s",
        swim.sent.msgs as f64 / (NODES as f64 * swim.sim_s),
    );
    run.set(
        "ref.msg_overhead_pct",
        (lg.sent.msgs as f64 / swim.sent.msgs as f64 - 1.0) * 100.0,
    );
    if let Some(swim_p50) = stats::median(&detect_s(&swim_threshold)) {
        let lg_p50 = stats::median(&detect_s(&threshold[..swim_threshold.len()])).unwrap_or(0.0);
        run.set_n(
            "ref.swim.detect_p50_s",
            swim_p50,
            swim_threshold.len() * Experiment::Threshold.paused_nodes(),
        );
        run.set("ref.detect_overhead_pct", (lg_p50 / swim_p50 - 1.0) * 100.0);
    }

    let all = || {
        interval
            .iter()
            .chain(&threshold)
            .chain([&swim_interval])
            .chain(&swim_threshold)
    };
    let unrecovered = all().filter(|o| !o.recovered).count();
    run.check(
        "every cluster converged after its anomalies",
        unrecovered == 0,
        format!(
            "{unrecovered} of {} runs did not heal within {RECOVERY_LIMIT_SIM_S} simulated s",
            all().count()
        ),
    );
    run.check(
        "every Threshold anomaly detected",
        undetected == 0,
        format!(
            "{undetected} of {} never declared by a healthy member",
            run.attempted
        ),
    );
    for (row, limit) in OUTCOME_LIMITS {
        run.check_at_most(row, limit);
    }
    let fp_per_run = fp_per_run.iter().sum::<f64>() / fp_per_run.len() as f64;
    run.check(
        "false positives per Interval run",
        fp_per_run <= FP_PER_RUN_LIMIT,
        format!("{fp_per_run:.1}, limit {FP_PER_RUN_LIMIT}"),
    );
    run.check(
        "ref.fp_pct_of_swim <= 5",
        swim.reduction.fp_events > 0 && fp_pct <= MAX_FP_PCT_OF_SWIM,
        format!(
            "Lifeguard {} vs SWIM {} false positives on one seed",
            lg.reduction.fp_events, swim.reduction.fp_events
        ),
    );
    run.fingerprint = Some(
        interval
            .iter()
            .chain(&threshold)
            .fold(0xcbf2_9ce4_8422_2325, |h, o| {
                (h ^ o.fingerprint).wrapping_mul(0x0000_0100_0000_01b3)
            }),
    );
    shape
}
