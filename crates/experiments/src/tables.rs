//! Drivers that regenerate every table and figure of the paper.
//!
//! | artifact | function | source experiment |
//! |---|---|---|
//! | Figure 1 | [`fig1`] | Stress scenario, SWIM vs Lifeguard |
//! | Table IV | [`table4`] | Interval suite, α=5 β=6 |
//! | Figure 2 | [`fig2`] | Interval suite, FP by concurrency |
//! | Figure 3 | [`fig3`] | Interval suite, FP- by concurrency |
//! | Table V | [`table5`] | Threshold suite, α=5 β=6 |
//! | Table VI | [`table6`] | Interval suite message load |
//! | Table VII | [`table7`] | α/β sweep vs SWIM baseline |
//!
//! The Interval suite is run once ([`run_interval_suite`]) and shared by
//! Table IV, Figures 2/3 and Table VI, exactly as in the paper.

use std::time::Duration;

use lifeguard_core::config::{Config, LifeguardConfig};

use crate::metrics::{pct_of_baseline, LatencySummary};
use crate::report::{fmt_f64, Table};
use crate::scenario::{self, RunOutcome, Scale, CLUSTER_SIZE, MIN_RUN};

/// Progress sink: called with a short line per completed run.
pub type Progress<'a> = &'a mut dyn FnMut(&str);

/// The five configurations of Table I, in paper order, on the LAN
/// profile (α = 5, β = 6).
pub fn table1_configs() -> Vec<(&'static str, Config)> {
    let only = |components| Config::lan().with_components(components);
    vec![
        ("SWIM", Config::lan().swim()),
        ("LHA-Probe", only(LifeguardConfig::lha_probe_only())),
        ("LHA-Suspicion", only(LifeguardConfig::lha_suspicion_only())),
        ("Buddy System", only(LifeguardConfig::buddy_system_only())),
        ("Lifeguard", Config::lan().lifeguard()),
    ]
}

/// A "% SWIM" cell: `-` where the SWIM baseline is zero.
fn pct_cell(value: f64, baseline: f64) -> String {
    pct_of_baseline(value, baseline).map_or_else(|| "-".into(), |p| fmt_f64(p, 2))
}

fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h ^= p.wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    h
}

/// One Interval-experiment run and its parameters.
#[derive(Clone, Debug)]
pub struct IntervalRecord {
    /// Table I configuration label.
    pub label: &'static str,
    /// Concurrent anomalies.
    pub c: usize,
    /// Anomaly duration (ms).
    pub d_ms: u64,
    /// Inter-anomaly interval (ms).
    pub i_ms: u64,
    /// Repetition index.
    pub rep: u64,
    /// Extracted metrics.
    pub outcome: RunOutcome,
}

/// One Threshold-experiment run and its parameters.
#[derive(Clone, Debug)]
pub struct ThresholdRecord {
    /// Table I configuration label.
    pub label: &'static str,
    /// Concurrent anomalies.
    pub c: usize,
    /// Anomaly duration (ms).
    pub d_ms: u64,
    /// Repetition index.
    pub rep: u64,
    /// Extracted metrics.
    pub outcome: RunOutcome,
}

/// Runs the Interval experiment grid for every Table I configuration.
pub fn run_interval_suite(
    scale: Scale,
    alpha: f64,
    beta: f64,
    seed: u64,
    progress: Progress<'_>,
) -> Vec<IntervalRecord> {
    let mut records = Vec::new();
    for (label, config) in table1_configs() {
        let config = config.with_alpha(alpha).with_beta(beta);
        records.extend(run_interval_grid(scale, label, &config, seed, progress));
    }
    records
}

/// Runs the Interval grid for a single configuration.
pub fn run_interval_grid(
    scale: Scale,
    label: &'static str,
    config: &Config,
    seed: u64,
    progress: Progress<'_>,
) -> Vec<IntervalRecord> {
    let mut records = Vec::new();
    for &c in scale.c_values() {
        for &d_ms in scale.d_values_ms() {
            for &i_ms in scale.i_values_ms() {
                for rep in 0..scale.reps() {
                    let run_seed = mix(seed, &[1, c as u64, d_ms, i_ms, rep]);
                    let d = Duration::from_millis(d_ms);
                    let i = Duration::from_millis(i_ms);
                    let schedule = scenario::interval(CLUSTER_SIZE, c, d, i, MIN_RUN, run_seed);
                    let outcome = scenario::run(&schedule, config);
                    progress(&format!(
                        "interval {label} C={c} D={d_ms}ms I={i_ms}ms rep={rep}: FP={} FP-={}",
                        outcome.fp_events, outcome.fp_healthy_events
                    ));
                    records.push(IntervalRecord {
                        label,
                        c,
                        d_ms,
                        i_ms,
                        rep,
                        outcome,
                    });
                }
            }
        }
    }
    records
}

/// Runs the Threshold experiment grid for every Table I configuration.
pub fn run_threshold_suite(
    scale: Scale,
    alpha: f64,
    beta: f64,
    seed: u64,
    progress: Progress<'_>,
) -> Vec<ThresholdRecord> {
    let mut records = Vec::new();
    for (label, config) in table1_configs() {
        let config = config.with_alpha(alpha).with_beta(beta);
        records.extend(run_threshold_grid(scale, label, &config, seed, progress));
    }
    records
}

/// Runs the Threshold grid for a single configuration.
pub fn run_threshold_grid(
    scale: Scale,
    label: &'static str,
    config: &Config,
    seed: u64,
    progress: Progress<'_>,
) -> Vec<ThresholdRecord> {
    let mut records = Vec::new();
    for &c in scale.c_values() {
        for &d_ms in scale.d_values_ms() {
            for rep in 0..scale.reps() {
                let run_seed = mix(seed, &[2, c as u64, d_ms, rep]);
                let d = Duration::from_millis(d_ms);
                let schedule = scenario::threshold(CLUSTER_SIZE, c, d, MIN_RUN, run_seed);
                let outcome = scenario::run(&schedule, config);
                let detected = outcome.first_detect.iter().filter(|d| d.is_some()).count();
                progress(&format!(
                    "threshold {label} C={c} D={d_ms}ms rep={rep}: detected {detected}/{c}"
                ));
                records.push(ThresholdRecord {
                    label,
                    c,
                    d_ms,
                    rep,
                    outcome,
                });
            }
        }
    }
    records
}

fn sum_fp(records: &[IntervalRecord], label: &str) -> (u64, u64) {
    records
        .iter()
        .filter(|r| r.label == label)
        .fold((0, 0), |(fp, fpm), r| {
            (fp + r.outcome.fp_events, fpm + r.outcome.fp_healthy_events)
        })
}

/// Table IV: aggregated false positives per configuration, absolute and
/// as a percentage of the SWIM baseline.
pub fn table4(records: &[IntervalRecord]) -> Table {
    let (swim_fp, swim_fpm) = sum_fp(records, "SWIM");
    let mut t = Table::new(
        "Table IV: aggregated false positives (Interval experiment)",
        vec!["Configuration", "FP Events", "FP- Events", "FP %SWIM", "FP- %SWIM"],
    );
    for (label, _) in table1_configs() {
        let (fp, fpm) = sum_fp(records, label);
        t.row(vec![
            label.to_owned(),
            fp.to_string(),
            fpm.to_string(),
            pct_cell(fp as f64, swim_fp as f64),
            pct_cell(fpm as f64, swim_fpm as f64),
        ]);
    }
    t
}

fn fp_by_concurrency(records: &[IntervalRecord], healthy_only: bool) -> Table {
    let (title, what) = if healthy_only {
        (
            "Figure 3: false positives at healthy members vs concurrent anomalies",
            "FP-",
        )
    } else {
        (
            "Figure 2: total false positives vs concurrent anomalies",
            "FP",
        )
    };
    let mut header = vec!["C".to_owned()];
    for (label, _) in table1_configs() {
        header.push(format!("{what} {label}"));
    }
    let mut t = Table::new(title, header.iter().map(String::as_str).collect());
    let mut cs: Vec<usize> = records.iter().map(|r| r.c).collect();
    cs.sort_unstable();
    cs.dedup();
    for c in cs {
        let mut row = vec![c.to_string()];
        for (label, _) in table1_configs() {
            let sum: u64 = records
                .iter()
                .filter(|r| r.label == label && r.c == c)
                .map(|r| {
                    if healthy_only {
                        r.outcome.fp_healthy_events
                    } else {
                        r.outcome.fp_events
                    }
                })
                .sum();
            row.push(sum.to_string());
        }
        t.row(row);
    }
    t
}

/// Figure 2: total false positives per concurrency level and
/// configuration (log-scale series in the paper).
pub fn fig2(records: &[IntervalRecord]) -> Table {
    fp_by_concurrency(records, false)
}

/// Figure 3: false positives at healthy members per concurrency level.
pub fn fig3(records: &[IntervalRecord]) -> Table {
    fp_by_concurrency(records, true)
}

/// Summarises first-detection and full-dissemination latencies for one
/// configuration of a threshold suite.
pub fn latency_summaries(
    records: &[ThresholdRecord],
    label: &str,
) -> (Option<LatencySummary>, Option<LatencySummary>) {
    let first: Vec<Duration> = records
        .iter()
        .filter(|r| r.label == label)
        .flat_map(|r| r.outcome.first_detect.iter().flatten().copied())
        .collect();
    let full: Vec<Duration> = records
        .iter()
        .filter(|r| r.label == label)
        .flat_map(|r| r.outcome.full_dissem.iter().flatten().copied())
        .collect();
    (
        LatencySummary::from_durations(first),
        LatencySummary::from_durations(full),
    )
}

/// Table V: detection and dissemination latency percentiles per
/// configuration (seconds).
pub fn table5(records: &[ThresholdRecord]) -> Table {
    let mut t = Table::new(
        "Table V: first-detection and full-dissemination latency (seconds)",
        vec![
            "Configuration",
            "Med 1stDetect",
            "99% 1stDetect",
            "99.9% 1stDetect",
            "Med FullDissem",
            "99% FullDissem",
            "99.9% FullDissem",
        ],
    );
    for (label, _) in table1_configs() {
        let (first, full) = latency_summaries(records, label);
        let cells = |s: Option<LatencySummary>| match s {
            Some(s) => (
                fmt_f64(s.median, 2),
                fmt_f64(s.p99, 2),
                fmt_f64(s.p999, 2),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let (m1, p1, q1) = cells(first);
        let (m2, p2, q2) = cells(full);
        t.row(vec![label.to_owned(), m1, p1, q1, m2, p2, q2]);
    }
    t
}

/// Table VI: message load per configuration, absolute and as % of SWIM.
pub fn table6(records: &[IntervalRecord]) -> Table {
    let sums = |label: &str| {
        records
            .iter()
            .filter(|r| r.label == label)
            .fold((0u64, 0u64), |(m, b), r| {
                (m + r.outcome.msgs_sent, b + r.outcome.bytes_sent)
            })
    };
    let (swim_msgs, swim_bytes) = sums("SWIM");
    let mut t = Table::new(
        "Table VI: aggregated message load (Interval experiment)",
        vec![
            "Configuration",
            "Msgs Sent(M)",
            "Bytes Sent(GiB)",
            "Msgs %SWIM",
            "Bytes %SWIM",
        ],
    );
    for (label, _) in table1_configs() {
        let (msgs, bytes) = sums(label);
        t.row(vec![
            label.to_owned(),
            fmt_f64(msgs as f64 / 1e6, 2),
            fmt_f64(bytes as f64 / (1024.0 * 1024.0 * 1024.0), 3),
            pct_cell(msgs as f64, swim_msgs as f64),
            pct_cell(bytes as f64, swim_bytes as f64),
        ]);
    }
    t
}

/// The α/β combinations of Table VII, in paper column order.
pub const TABLE7_COMBOS: [(f64, f64); 9] = [
    (2.0, 2.0),
    (2.0, 4.0),
    (2.0, 6.0),
    (4.0, 2.0),
    (4.0, 4.0),
    (4.0, 6.0),
    (5.0, 2.0),
    (5.0, 4.0),
    (5.0, 6.0),
];

/// Table VII: full Lifeguard at each (α, β) tuning, every metric as a
/// percentage of the SWIM baseline run on the same grids.
pub fn table7(scale: Scale, seed: u64, progress: Progress<'_>) -> Table {
    // SWIM baseline (fixed timeout ≡ α=5, β=1).
    let swim_cfg = Config::lan().swim();
    let swim_thresh = run_threshold_grid(scale, "SWIM", &swim_cfg, seed, progress);
    let swim_interval = run_interval_grid(scale, "SWIM", &swim_cfg, seed, progress);
    let (swim_first, swim_full) = latency_summaries(&swim_thresh, "SWIM");
    let (swim_fp, swim_fpm) = sum_fp(&swim_interval, "SWIM");

    let mut header = vec!["Metric".to_owned()];
    for (a, b) in TABLE7_COMBOS {
        header.push(format!("a={a:.0} b={b:.0}"));
    }
    let mut t = Table::new(
        "Table VII: Lifeguard performance as % of SWIM baseline by (alpha, beta)",
        header.iter().map(String::as_str).collect(),
    );

    let mut rows: Vec<Vec<String>> = vec![
        vec!["Med First".into()],
        vec!["Med Full".into()],
        vec!["99% First".into()],
        vec!["99% Full".into()],
        vec!["99.9% First".into()],
        vec!["99.9% Full".into()],
        vec!["FP".into()],
        vec!["FP-".into()],
    ];

    for (alpha, beta) in TABLE7_COMBOS {
        let cfg = Config::lan().lifeguard().with_alpha(alpha).with_beta(beta);
        let thresh = run_threshold_grid(scale, "Lifeguard", &cfg, seed, progress);
        let interval = run_interval_grid(scale, "Lifeguard", &cfg, seed, progress);
        let (first, full) = latency_summaries(&thresh, "Lifeguard");
        let (fp, fpm) = sum_fp(&interval, "Lifeguard");

        let pct = |v: Option<f64>, base: Option<f64>| match (v, base) {
            (Some(v), Some(b)) => pct_cell(v, b),
            _ => "-".into(),
        };
        rows[0].push(pct(first.map(|s| s.median), swim_first.map(|s| s.median)));
        rows[1].push(pct(full.map(|s| s.median), swim_full.map(|s| s.median)));
        rows[2].push(pct(first.map(|s| s.p99), swim_first.map(|s| s.p99)));
        rows[3].push(pct(full.map(|s| s.p99), swim_full.map(|s| s.p99)));
        rows[4].push(pct(first.map(|s| s.p999), swim_first.map(|s| s.p999)));
        rows[5].push(pct(full.map(|s| s.p999), swim_full.map(|s| s.p999)));
        rows[6].push(pct_cell(fp as f64, swim_fp as f64));
        rows[7].push(pct_cell(fpm as f64, swim_fpm as f64));
    }
    for row in rows {
        t.row(row);
    }
    t
}

/// Ablation (beyond the paper's tables; §VII lists these parameters as
/// future work): sweep LHA-Suspicion's re-gossip/confirmation count `K`
/// with everything else at Lifeguard defaults. Reports false positives
/// and median detection latency per `K`.
pub fn ablation_k(scale: Scale, seed: u64, progress: Progress<'_>) -> Table {
    let mut t = Table::new(
        "Ablation: LHA-Suspicion confirmation count K (Lifeguard defaults otherwise)",
        vec!["K", "FP Events", "FP- Events", "Med 1stDetect(s)", "Detected"],
    );
    for k in [0u32, 1, 2, 3, 5, 8] {
        let mut cfg = Config::lan().lifeguard();
        cfg.suspicion_k = k;
        let interval = run_interval_grid(scale, "Lifeguard", &cfg, seed, progress);
        let thresh = run_threshold_grid(scale, "Lifeguard", &cfg, seed, progress);
        let (fp, fpm) = sum_fp(&interval, "Lifeguard");
        let (first, _) = latency_summaries(&thresh, "Lifeguard");
        t.row(vec![
            k.to_string(),
            fp.to_string(),
            fpm.to_string(),
            first.map(|s| fmt_f64(s.median, 2)).unwrap_or_else(|| "-".into()),
            first.map(|s| s.samples.to_string()).unwrap_or_else(|| "0".into()),
        ]);
    }
    t
}

/// Ablation: sweep the LHM saturation limit `S` (paper default 8) with
/// everything else at Lifeguard defaults.
pub fn ablation_s(scale: Scale, seed: u64, progress: Progress<'_>) -> Table {
    let mut t = Table::new(
        "Ablation: LHM saturation S (Lifeguard defaults otherwise)",
        vec!["S", "FP Events", "FP- Events", "Med 1stDetect(s)", "Detected"],
    );
    for s in [0u32, 2, 4, 8, 16] {
        let mut cfg = Config::lan().lifeguard();
        cfg.awareness_max = s;
        let interval = run_interval_grid(scale, "Lifeguard", &cfg, seed, progress);
        let thresh = run_threshold_grid(scale, "Lifeguard", &cfg, seed, progress);
        let (fp, fpm) = sum_fp(&interval, "Lifeguard");
        let (first, _) = latency_summaries(&thresh, "Lifeguard");
        t.row(vec![
            s.to_string(),
            fp.to_string(),
            fpm.to_string(),
            first.map(|x| fmt_f64(x.median, 2)).unwrap_or_else(|| "-".into()),
            first.map(|x| x.samples.to_string()).unwrap_or_else(|| "0".into()),
        ]);
    }
    t
}

/// Figure 1: false positives under CPU exhaustion for SWIM and full
/// Lifeguard, by number of stressed nodes.
pub fn fig1(scale: Scale, seed: u64, progress: Progress<'_>) -> Table {
    let mut t = Table::new(
        "Figure 1: false positives from CPU exhaustion (100-node cluster)",
        vec![
            "Stressed",
            "FP SWIM",
            "FP- SWIM",
            "FP Lifeguard",
            "FP- Lifeguard",
        ],
    );
    for &stressed in scale.stress_counts() {
        let mut cells = vec![stressed.to_string()];
        let mut results = Vec::new();
        let schedule = scenario::stress(stressed, mix(seed, &[3, stressed as u64]));
        for (label, config) in [
            ("SWIM", Config::lan().swim()),
            ("Lifeguard", Config::lan().lifeguard()),
        ] {
            let outcome = scenario::run(&schedule, &config);
            progress(&format!(
                "fig1 {label} stressed={stressed}: FP={} FP-={}",
                outcome.fp_events, outcome.fp_healthy_events
            ));
            results.push(outcome);
        }
        cells.push(results[0].fp_events.to_string());
        cells.push(results[0].fp_healthy_events.to_string());
        cells.push(results[1].fp_events.to_string());
        cells.push(results[1].fp_healthy_events.to_string());
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_outcome(fp: u64, fpm: u64, msgs: u64, bytes: u64) -> RunOutcome {
        RunOutcome {
            anomalous: vec![1],
            n: 8,
            fp_events: fp,
            fp_healthy_events: fpm,
            first_detect: vec![Some(Duration::from_secs(12))],
            full_dissem: vec![Some(Duration::from_secs(13))],
            msgs_sent: msgs,
            bytes_sent: bytes,
            trace_failures: fp,
            failures_declared: fp,
        }
    }

    fn fake_interval(label: &'static str, c: usize, fp: u64, fpm: u64) -> IntervalRecord {
        IntervalRecord {
            label,
            c,
            d_ms: 2048,
            i_ms: 64,
            rep: 0,
            outcome: fake_outcome(fp, fpm, 1000, 100_000),
        }
    }

    #[test]
    fn table4_percentages_against_swim() {
        let records = vec![
            fake_interval("SWIM", 4, 200, 20),
            fake_interval("Lifeguard", 4, 2, 1),
        ];
        let t = table4(&records);
        assert_eq!(t.len(), 5);
        // SWIM row is 100%.
        assert_eq!(t.cell(0, 3), "100.00");
        // Lifeguard row: 2/200 = 1%.
        assert_eq!(t.cell(4, 1), "2");
        assert_eq!(t.cell(4, 3), "1.00");
        assert_eq!(t.cell(4, 4), "5.00");
        // With no SWIM FP- event the ratio is undefined, not 100 %.
        let t = table4(&[fake_interval("SWIM", 4, 200, 0), fake_interval("Lifeguard", 4, 2, 0)]);
        assert_eq!((t.cell(0, 4), t.cell(4, 4)), ("-", "-"));
    }

    #[test]
    fn fig2_fig3_bucket_by_concurrency() {
        let records = vec![
            fake_interval("SWIM", 4, 10, 1),
            fake_interval("SWIM", 4, 5, 2),
            fake_interval("SWIM", 16, 50, 9),
        ];
        let f2 = fig2(&records);
        assert_eq!(f2.len(), 2); // C = 4 and 16
        assert_eq!(f2.cell(0, 0), "4");
        assert_eq!(f2.cell(0, 1), "15"); // 10 + 5
        assert_eq!(f2.cell(1, 1), "50");
        let f3 = fig3(&records);
        assert_eq!(f3.cell(0, 1), "3"); // 1 + 2
    }

    #[test]
    fn table5_formats_latencies() {
        let rec = ThresholdRecord {
            label: "SWIM",
            c: 1,
            d_ms: 16384,
            rep: 0,
            outcome: fake_outcome(0, 0, 10, 10),
        };
        let t = table5(&[rec]);
        assert_eq!(t.cell(0, 1), "12.00");
        assert_eq!(t.cell(0, 4), "13.00");
        // Configurations with no samples show dashes.
        assert_eq!(t.cell(1, 1), "-");
    }

    #[test]
    fn table6_reports_load_in_m_and_gib() {
        let records = vec![
            fake_interval("SWIM", 4, 0, 0),
            fake_interval("Lifeguard", 4, 0, 0),
        ];
        let t = table6(&records);
        assert_eq!(t.cell(0, 3), "100.00");
        assert_eq!(t.cell(4, 3), "100.00");
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1, &[1, 2, 3]), mix(1, &[1, 2, 3]));
        assert_ne!(mix(1, &[1, 2, 3]), mix(1, &[1, 2, 4]));
        assert_ne!(mix(1, &[1, 2, 3]), mix(2, &[1, 2, 3]));
    }

    #[test]
    fn table1_configs_match_paper() {
        let labels: Vec<&str> = table1_configs().iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec!["SWIM", "LHA-Probe", "LHA-Suspicion", "Buddy System", "Lifeguard"]
        );
        for (label, c) in table1_configs() {
            assert_eq!(c.lifeguard.label(), label);
        }
    }
}
