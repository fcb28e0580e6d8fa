//! The paper's tables and figures, each rendered from the runs the
//! verdict judges ([`Runs::replay`]); nothing here replays a run.
//!
//! | artifact | function | runs rendered |
//! |---|---|---|
//! | Figure 1 | [`fig1`] | Stress cells, SWIM and Lifeguard |
//! | Table IV | [`table4`] | Interval cells, every Table I configuration |
//! | Figure 2 | [`fig2`] | Interval cells, FP by concurrency |
//! | Figure 3 | [`fig3`] | Interval cells, FP- by concurrency |
//! | Table V | [`table5`] | Detect cell, SWIM and Lifeguard |
//! | Table VI | [`table6`] | Interval cells message load |
//! | Table VII | [`table7`] | Table VII cells and Detect cell, each (α, β) vs SWIM |

use std::time::Duration;

use lifeguard_core::config::{Config, LifeguardConfig};
use lifeguard_metrics::percentile;

use crate::report::{fmt_f64, Table};
use crate::scenario::RunOutcome;
use crate::verdict::{of, Labelled, Runs};

/// A count read off one run.
type Count = fn(&RunOutcome) -> u64;

/// False positives at any member, then at healthy members only.
const FP: [(&str, Count); 2] = [("FP", |o| o.fp_events), ("FP-", |o| o.fp_healthy_events)];

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

/// Lifeguard's (α, β) tunings of Table VII, α-major in paper column
/// order. The last is Lifeguard's own, so it carries that label.
pub const TABLE7: [(&str, f64, f64); 9] = [
    ("a=2 b=2", 2.0, 2.0),
    ("a=2 b=4", 2.0, 4.0),
    ("a=2 b=6", 2.0, 6.0),
    ("a=4 b=2", 4.0, 2.0),
    ("a=4 b=4", 4.0, 4.0),
    ("a=4 b=6", 4.0, 6.0),
    ("a=5 b=2", 5.0, 2.0),
    ("a=5 b=4", 5.0, 4.0),
    ("Lifeguard", 5.0, 6.0),
];

/// Full Lifeguard at each tuning of [`TABLE7`].
pub fn table7_configs() -> Vec<(&'static str, Config)> {
    let tuned = |&(label, a, b)| (label, Config::lan().lifeguard().with_alpha(a).with_beta(b));
    TABLE7.iter().map(tuned).collect()
}

/// `value` as a percentage of `baseline`, the way Tables IV, VI and VII
/// present results ("% SWIM"); `None` over a zero baseline, where the
/// ratio is undefined.
fn pct_of_baseline(value: f64, baseline: f64) -> Option<f64> {
    (baseline != 0.0).then(|| value / baseline * 100.0)
}

/// A "% SWIM" cell: `-` where the SWIM baseline is zero.
fn pct_cell(value: f64, baseline: f64) -> String {
    pct_of_baseline(value, baseline).map_or_else(|| "-".into(), |p| fmt_f64(p, 2))
}

/// Σ `f` over each configuration's Interval runs, in paper order, and
/// over SWIM's alone.
fn sums(runs: &Runs, f: impl Fn(&RunOutcome) -> u64) -> (Vec<(&'static str, u64)>, u64) {
    let per: Vec<_> = (runs.interval.iter())
        .map(|(label, outcomes)| (*label, outcomes.iter().map(&f).sum()))
        .collect();
    let swim = per
        .iter()
        .find(|(label, _)| *label == "SWIM")
        .map_or(0, |(_, s)| *s);
    (per, swim)
}

/// Table IV: aggregated false positives per configuration, absolute and
/// as a percentage of the SWIM baseline.
pub fn table4(runs: &Runs) -> Table {
    let (fp, swim_fp) = sums(runs, |o| o.fp_events);
    let (fpm, swim_fpm) = sums(runs, |o| o.fp_healthy_events);
    let mut t = Table::new(
        "Table IV: aggregated false positives (Interval experiment)",
        vec![
            "Configuration",
            "FP Events",
            "FP- Events",
            "FP %SWIM",
            "FP- %SWIM",
        ],
    );
    for ((label, fp), (_, fpm)) in fp.into_iter().zip(fpm) {
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

/// One row per anomalous-member count in `cell`, and per configuration
/// one column per count in `columns`, summed over that row's runs.
fn by_anomalous(cell: &Labelled, title: &str, first: &str, columns: &[(&str, Count)]) -> Table {
    let mut header = vec![first.to_owned()];
    for (label, _) in cell {
        header.extend(columns.iter().map(|(what, _)| format!("{what} {label}")));
    }
    let mut t = Table::new(title, header.iter().map(String::as_str).collect());
    let anomalous = |o: &RunOutcome| o.anomalous.len();
    let mut cs: Vec<usize> = cell
        .iter()
        .flat_map(|(_, r)| r.iter().map(anomalous))
        .collect();
    cs.sort_unstable();
    cs.dedup();
    for c in cs {
        let mut row = vec![c.to_string()];
        for (_, outcomes) in cell {
            for (_, count) in columns {
                let at_c = outcomes.iter().filter(|o| anomalous(o) == c);
                row.push(at_c.map(count).sum::<u64>().to_string());
            }
        }
        t.row(row);
    }
    t
}

/// Figure 1: false positives under CPU exhaustion for SWIM and full
/// Lifeguard, by number of stressed members.
pub fn fig1(runs: &Runs) -> Table {
    let title = "Figure 1: false positives from CPU exhaustion";
    by_anomalous(&runs.stress, title, "Stressed", &FP)
}

/// Figure 2: total false positives per concurrency level and
/// configuration (log-scale series in the paper).
pub fn fig2(runs: &Runs) -> Table {
    let title = "Figure 2: total false positives vs concurrent anomalies";
    by_anomalous(&runs.interval, title, "C", &FP[..1])
}

/// Figure 3: false positives at healthy members per concurrency level.
pub fn fig3(runs: &Runs) -> Table {
    let title = "Figure 3: false positives at healthy members vs concurrent anomalies";
    by_anomalous(&runs.interval, title, "C", &FP[1..])
}

/// Table V: detection and dissemination latency percentiles per
/// configuration the Detect cell replays (seconds); D1 judges the
/// first-detection medians.
pub fn table5(runs: &Runs) -> Table {
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
    for label in ["SWIM", "Lifeguard"] {
        let mut row = vec![label.to_owned()];
        for full in [false, true] {
            // No sample is NaN, which prints as `-`.
            let cell = |p| latency(of(&runs.detect, label), full, p).unwrap_or(f64::NAN);
            row.extend([50.0, 99.0, 99.9].map(|p| fmt_f64(cell(p), 2)));
        }
        t.row(row);
    }
    t
}

/// The `p`-th percentile, in seconds, of first detection (or, if `full`,
/// of full dissemination) over `outcomes`.
fn latency(outcomes: &[RunOutcome], full: bool, p: f64) -> Option<f64> {
    let latencies = (outcomes.iter()).flat_map(|o| {
        if full {
            &o.full_dissem
        } else {
            &o.first_detect
        }
    });
    let secs: Vec<f64> = latencies.flatten().map(Duration::as_secs_f64).collect();
    percentile(&secs, p)
}

/// Table VI: message load per configuration, absolute and as % of SWIM.
pub fn table6(runs: &Runs) -> Table {
    let (msgs, swim_msgs) = sums(runs, |o| o.msgs_sent);
    let (bytes, swim_bytes) = sums(runs, |o| o.bytes_sent);
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
    for ((label, msgs), (_, bytes)) in msgs.into_iter().zip(bytes) {
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

/// Table VII: full Lifeguard at each (α, β) tuning, every metric as a
/// percentage of SWIM's on the same cells.
pub fn table7(runs: &Runs) -> Table {
    let mut header = vec!["Metric".to_owned()];
    header.extend(TABLE7.iter().map(|(_, a, b)| format!("a={a:.0} b={b:.0}")));
    let mut t = Table::new(
        "Table VII: Lifeguard performance as % of SWIM baseline by (alpha, beta)",
        header.iter().map(String::as_str).collect(),
    );
    for (metric, p) in [("Med", 50.0), ("99%", 99.0), ("99.9%", 99.9)] {
        for (what, full) in [("First", false), ("Full", true)] {
            let at = |label| latency(of(&runs.detect, label), full, p);
            let swim = at("SWIM");
            let mut row = vec![format!("{metric} {what}")];
            for (label, ..) in TABLE7 {
                row.push(
                    at(label)
                        .zip(swim)
                        .map_or_else(|| "-".into(), |(v, b)| pct_cell(v, b)),
                );
            }
            t.row(row);
        }
    }
    for (what, count) in FP {
        let sum = |label| of(&runs.tuning, label).iter().map(count).sum::<u64>() as f64;
        let mut row = vec![what.to_owned()];
        row.extend(
            TABLE7
                .iter()
                .map(|(label, ..)| pct_cell(sum(label), sum("SWIM"))),
        );
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verdict::judge;
    use crate::verdict::tests::{fake, fake_runs};

    /// One Interval run: (C, FP, FP-).
    type Run = (usize, u64, u64);

    /// `fake_runs` with the Interval outcomes replaced, per configuration.
    fn runs_with(interval: &[(&'static str, &[Run])]) -> Runs {
        let outcome = |&(c, fp, fpm): &Run| RunOutcome {
            anomalous: (1..=c).collect(),
            fp_healthy_events: fpm,
            msgs_sent: 1000,
            bytes_sent: 100_000,
            ..fake(fp, Some(12))
        };
        let interval = interval
            .iter()
            .map(|(l, r)| (*l, r.iter().map(outcome).collect()));
        Runs {
            interval: interval.collect(),
            ..fake_runs(2)
        }
    }

    #[test]
    fn pct_of_baseline_edge_cases() {
        assert_eq!(pct_of_baseline(50.0, 100.0), Some(50.0));
        assert_eq!(pct_of_baseline(0.0, 100.0), Some(0.0));
        assert_eq!(pct_of_baseline(0.0, 0.0), None);
        assert_eq!(pct_of_baseline(5.0, 0.0), None);
    }

    #[test]
    fn table4_percentages_against_swim() {
        let t = table4(&runs_with(&[
            ("SWIM", &[(4, 200, 20)]),
            ("Lifeguard", &[(4, 2, 1)]),
        ]));
        assert_eq!(t.len(), 2);
        // SWIM row is 100%.
        assert_eq!(t.cell(0, 3), "100.00");
        // Lifeguard row: 2/200 = 1%.
        assert_eq!(t.cell(1, 1), "2");
        assert_eq!(t.cell(1, 3), "1.00");
        assert_eq!(t.cell(1, 4), "5.00");
        // With no SWIM FP- event the ratio is undefined, not 100 %.
        let t = table4(&runs_with(&[
            ("SWIM", &[(4, 200, 0)]),
            ("Lifeguard", &[(4, 2, 0)]),
        ]));
        assert_eq!((t.cell(0, 4), t.cell(1, 4)), ("-", "-"));
    }

    #[test]
    fn fig2_fig3_bucket_by_concurrency() {
        let runs = runs_with(&[("SWIM", &[(4, 10, 1), (4, 5, 2), (16, 50, 9)])]);
        let f2 = fig2(&runs);
        assert_eq!(f2.len(), 2); // C = 4 and 16
        assert_eq!(f2.cell(0, 0), "4");
        assert_eq!(f2.cell(0, 1), "15"); // 10 + 5
        assert_eq!(f2.cell(1, 1), "50");
        let f3 = fig3(&runs);
        assert_eq!(f3.cell(0, 1), "3"); // 1 + 2
    }

    #[test]
    fn fig1_pairs_fp_and_fp_minus_per_configuration() {
        let f1 = fig1(&fake_runs(2));
        assert_eq!(f1.len(), 1); // one stressed count
                                 // Stressed, then FP and FP- for SWIM, then for Lifeguard.
        assert_eq!(f1.cell(0, 0), "1");
        assert_eq!((f1.cell(0, 1), f1.cell(0, 3)), ("800", "16"));
    }

    #[test]
    fn table5_formats_latencies() {
        let mut runs = fake_runs(2);
        let full = vec![Some(Duration::from_secs(13))];
        let swim = RunOutcome {
            full_dissem: full,
            ..fake(0, Some(12))
        };
        runs.detect[0].1 = vec![swim];
        let t = table5(&runs);
        assert_eq!(t.cell(0, 1), "12.00");
        assert_eq!(t.cell(0, 4), "13.00");
        // A configuration with no samples shows dashes.
        assert_eq!(t.cell(1, 4), "-");
    }

    #[test]
    fn table6_reports_load_in_m_and_gib() {
        let t = table6(&runs_with(&[
            ("SWIM", &[(4, 0, 0)]),
            ("Lifeguard", &[(4, 0, 0)]),
        ]));
        assert_eq!(t.cell(0, 3), "100.00");
        assert_eq!(t.cell(1, 3), "100.00");
    }

    #[test]
    fn tables_and_verdict_read_the_same_runs() {
        // Table IV's FP column is the verdict's per-configuration sum.
        let runs = fake_runs(3);
        let (t, verdict) = (table4(&runs), judge(&runs).table().render());
        for (row, (label, _)) in table1_configs().into_iter().enumerate() {
            assert_eq!(t.cell(row, 0), label);
            let fp = t.cell(row, 1);
            let sum = if label == "SWIM" {
                format!("SWIM sum {fp}")
            } else {
                format!("(sum {fp})")
            };
            assert!(verdict.contains(&sum), "{label}: {sum}\n{verdict}");
        }
    }

    #[test]
    fn table7_is_each_tuning_as_pct_of_swim() {
        let t = table7(&fake_runs(2));
        assert_eq!(t.len(), 8);
        assert_eq!(
            (t.cell(0, 0), t.cell(6, 0), t.cell(7, 0)),
            ("Med First", "FP", "FP-")
        );
        // The fixture's SWIM detects in 6 s and every tuning in 6 + α s;
        // SWIM's FP is 100 per seed, β 2's is 3 and β 6's is 2.
        assert_eq!((t.cell(0, 1), t.cell(0, 9)), ("133.33", "183.33"));
        assert_eq!((t.cell(6, 1), t.cell(6, 9)), ("3.00", "2.00"));
        // The fixture has no FP- anywhere: the ratio is undefined.
        assert_eq!(t.cell(7, 1), "-");
        let tunings = table7_configs();
        assert_eq!(tunings.len(), 9);
        let last = &tunings[8].1;
        let lifeguard = Config::lan().lifeguard();
        assert_eq!(last.suspicion_alpha, lifeguard.suspicion_alpha);
        assert_eq!(last.suspicion_beta, lifeguard.suspicion_beta);
        assert_eq!(last.lifeguard.label(), "Lifeguard");
    }

    #[test]
    fn table1_configs_match_paper() {
        let labels: Vec<&str> = table1_configs().iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec![
                "SWIM",
                "LHA-Probe",
                "LHA-Suspicion",
                "Buddy System",
                "Lifeguard"
            ]
        );
        for (label, c) in table1_configs() {
            assert_eq!(c.lifeguard.label(), label);
        }
    }
}
