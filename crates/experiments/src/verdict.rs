//! The paper's effects as one judged gate.
//!
//! [`judge`] replays [`SEEDS`] as paired runs — SWIM and each Table I
//! configuration on the same `Schedule` per seed — and returns one row
//! per claim. F1–F4 compare each configuration's false positives
//! with SWIM's on the Interval cell (Table IV); D1 and D2 bound
//! detection on Threshold runs (Table V); X checks, on every run, that
//! the trace holds a failure exactly when some node's metrics declared
//! one. F1–F3 must also win an exact one-sided sign test, under one
//! Benjamini–Hochberg correction across the three at q = 0.05: one family
//! of claims, one false-discovery rate. docs/OBSERVABILITY.md §5 lists
//! the cells and bounds, and says how to re-measure them.
//!
//! Runs go to one worker per core, but each outcome is filed by
//! (configuration, seed), so the verdict is a pure function of the seeds.

use std::num::NonZeroUsize;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use lifeguard_core::config::Config;
use lifeguard_sim::schedule::Schedule;

use crate::metrics::percentile;
use crate::report::Table;
use crate::scenario::{self, RunOutcome, MIN_RUN};
use crate::tables::table1_configs;

/// The seeds every cell replays, once per configuration.
pub const SEEDS: RangeInclusive<u64> = 1..=8;
/// The false-discovery rate F1–F3 are held to together.
const Q: f64 = 0.05;
/// F1's budget on Lifeguard's summed FP: 1.5 × the 16 measured.
const F1_BUDGET: u64 = 24;
/// D2's ceiling on failures over all of its runs.
const D2_MAX: u64 = 2;

/// Every run the gate judges, filed by what was run.
#[derive(Clone, Debug)]
pub(crate) struct Runs {
    /// The Interval cell (n = 64, C = 16, D = 16 384 ms, I = 64 ms): per
    /// Table I configuration in paper order, one outcome per seed.
    pub(crate) interval: Vec<(&'static str, Vec<RunOutcome>)>,
    /// D1's one 20 s stall at n = 16 under SWIM, one outcome per seed.
    pub(crate) detect_swim: Vec<RunOutcome>,
    /// The same stalls under Lifeguard.
    pub(crate) detect_lifeguard: Vec<RunOutcome>,
    /// D2's 2 048 ms stalls at n = 16 under Lifeguard, per C ∈ {1, 2, 4},
    /// then per seed.
    pub(crate) sub_threshold: Vec<RunOutcome>,
}

impl Runs {
    /// Replays every cell of the gate.
    pub(crate) fn replay() -> Runs {
        let (ms, secs) = (Duration::from_millis, Duration::from_secs);
        let (configs, lifeguard) = (table1_configs(), Config::lan().lifeguard());
        let mut jobs = Vec::new();
        let mut cell = |schedule: &dyn Fn(u64) -> Schedule, config: &Config| {
            jobs.extend(SEEDS.map(|seed| (schedule(seed), config.clone())));
        };
        for (_, config) in &configs {
            cell(&|seed| scenario::interval(64, 16, ms(16_384), ms(64), MIN_RUN, seed), config);
        }
        for config in [Config::lan().swim(), lifeguard.clone()] {
            cell(&|seed| scenario::threshold(16, 1, secs(20), secs(60), seed), &config);
        }
        for c in [1, 2, 4] {
            cell(&|seed| scenario::threshold(16, c, ms(2_048), secs(40), seed), &lifeguard);
        }
        let mut done = replay_all(&jobs).into_iter();
        let mut next = |runs: usize| done.by_ref().take(runs).collect::<Vec<_>>();
        let per_cell = SEEDS.count();
        Runs {
            interval: configs.iter().map(|(label, _)| (*label, next(per_cell))).collect(),
            detect_swim: next(per_cell),
            detect_lifeguard: next(per_cell),
            sub_threshold: next(3 * per_cell),
        }
    }

    /// FP per seed of the Interval cell's configuration `label`.
    fn fp(&self, label: &str) -> Vec<u64> {
        let runs = self.interval.iter().filter(|(l, _)| *l == label).flat_map(|(_, r)| r);
        runs.map(|o| o.fp_events).collect()
    }
}

/// Runs every job on one scoped worker per available core. Outcome `i`
/// is job `i`'s, whichever worker ran it.
fn replay_all(jobs: &[(Schedule, Config)]) -> Vec<RunOutcome> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut mine = Vec::new();
        loop {
            // Claims a job; outcomes travel back through `join`.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((schedule, config)) = jobs.get(i) else { return mine };
            mine.push((i, scenario::run(schedule, config)));
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut done: Vec<(usize, RunOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("a gate run panicked")).collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// An exact one-sided sign test that one series lies below another,
/// pair by pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SignTest {
    /// Pairs where the first series is below the second.
    pub(crate) wins: usize,
    /// Pairs that are not ties; ties are dropped.
    pub(crate) trials: usize,
    /// P(X ≥ `wins`) for X ~ Bin(`trials`, ½); 1 when every pair ties.
    pub(crate) p: f64,
}

impl SignTest {
    /// Tests `a[i] < b[i]` over the pairs.
    pub(crate) fn new(a: &[u64], b: &[u64]) -> SignTest {
        let wins = a.iter().zip(b).filter(|(a, b)| a < b).count();
        let trials = wins + a.iter().zip(b).filter(|(a, b)| a > b).count();
        // Σ over k ≥ wins of C(trials, k), each C built from the last.
        let (mut choose, mut tail) = (1.0_f64, 0.0_f64);
        for k in 0..=trials {
            if k >= wins {
                tail += choose;
            }
            choose = choose * (trials - k) as f64 / (k + 1) as f64;
        }
        let p = tail * 0.5_f64.powi(i32::try_from(trials).unwrap_or(i32::MAX));
        SignTest { wins, trials, p }
    }
}

/// Benjamini–Hochberg adjusted p-values, in input order: hypothesis `i`
/// is rejected at false-discovery rate `q` exactly when the result's
/// `i`-th value is ≤ `q`.
pub(crate) fn benjamini_hochberg(p: &[f64]) -> Vec<f64> {
    let m = p.len() as f64;
    let mut order: Vec<usize> = (0..p.len()).collect();
    order.sort_unstable_by(|&a, &b| p[a].total_cmp(&p[b]));
    let mut adjusted = vec![1.0; p.len()];
    let mut running = 1.0_f64;
    for (rank, &i) in order.iter().enumerate().rev() {
        running = running.min(p[i] * m / (rank + 1) as f64);
        adjusted[i] = running;
    }
    adjusted
}

/// One judged claim.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    /// The claim, and where the paper shows it.
    pub(crate) claim: &'static str,
    /// What the runs measured.
    pub(crate) ours: String,
    /// A directional claim's sign test and its BH-adjusted p-value.
    pub(crate) sign: Option<(SignTest, f64)>,
    /// Each bound on the measurement, and whether it held.
    pub(crate) bounds: Vec<(String, bool)>,
    /// The verdict printed when the row passes.
    pub(crate) holds: &'static str,
}

impl Row {
    /// Whether the sign test (if any) and every bound hold.
    pub(crate) fn pass(&self) -> bool {
        self.sign.is_none_or(|(_, q)| q <= Q) && self.bounds.iter().all(|(_, ok)| *ok)
    }
}

/// The judged claims, in order F1–F4, D1, D2, X.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// One row per claim.
    rows: Vec<Row>,
}

impl Verdict {
    /// Whether every claim holds.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(Row::pass)
    }

    /// The verdict as a table, one row per claim.
    pub fn table(&self) -> Table {
        let title = format!("Verdict: the paper's effects over paired seeds {SEEDS:?}");
        let mut t = Table::new(title, vec!["Claim", "Ours", "Sign test", "Bounds", "Verdict"]);
        for row in &self.rows {
            let sign = row.sign.map_or_else(
                || "-".into(),
                |(s, q)| format!("{}/{} p={:.4} q={q:.4}", s.wins, s.trials, s.p),
            );
            let bounds: Vec<String> = (row.bounds.iter())
                .map(|(b, ok)| format!("{b} {}", if *ok { "ok" } else { "FAIL" }))
                .collect();
            let verdict = if row.pass() { row.holds } else { "not reproduced" };
            let (claim, ours) = (row.claim.into(), row.ours.clone());
            t.row(vec![claim, ours, sign, bounds.join("; "), verdict.into()]);
        }
        t
    }
}

/// Replays every cell and judges each claim.
pub fn judge() -> Verdict {
    verdict(&Runs::replay())
}

/// Judges each claim over `runs`.
pub(crate) fn verdict(runs: &Runs) -> Verdict {
    let swim = runs.fp("SWIM");
    let swim_sum: u64 = swim.iter().sum();
    let sum = |label| runs.fp(label).iter().sum::<u64>();
    let directional = ["Lifeguard", "LHA-Suspicion", "LHA-Probe"];
    let tests = directional.map(|label| SignTest::new(&runs.fp(label), &swim));
    let q = benjamini_hochberg(&tests.map(|t| t.p));
    let fp_row = |claim, label, bounds| {
        let per_seed: Vec<String> = runs.fp(label).iter().map(u64::to_string).collect();
        let test = directional.iter().position(|l| *l == label);
        Row {
            claim,
            ours: format!("{} (sum {}) vs SWIM sum {swim_sum}", per_seed.join(" "), sum(label)),
            sign: test.map(|i| (tests[i], q[i])),
            bounds,
            holds: if test.is_some() { "reproduced" } else { "within bound; direction differs" },
        }
    };
    let within_1_2 = |label| vec![("<= 1.2 x SWIM".into(), sum(label) * 10 <= swim_sum * 12)];
    let lifeguard = sum("Lifeguard");

    let secs = |runs: &[RunOutcome]| -> Vec<f64> {
        let detected = runs.iter().flat_map(|o| o.first_detect.iter().flatten());
        detected.map(Duration::as_secs_f64).collect()
    };
    let stalls = |runs: &[RunOutcome]| runs.iter().map(|o| o.first_detect.len()).sum::<usize>();
    let (swim_s, lg_s) = (secs(&runs.detect_swim), secs(&runs.detect_lifeguard));
    let detected = swim_s.len() + lg_s.len();
    let injected = stalls(&runs.detect_swim) + stalls(&runs.detect_lifeguard);
    let median = |xs: &[f64]| percentile(xs, 50.0).unwrap_or(f64::INFINITY);
    let (lg_med, swim_med) = (median(&lg_s), median(&swim_s));
    let lg_max = lg_s.iter().copied().fold(0.0, f64::max);

    let d2: u64 = runs.sub_threshold.iter().map(|o| o.trace_failures).sum();
    let all = (runs.interval.iter().flat_map(|(_, runs)| runs))
        .chain(&runs.detect_swim)
        .chain(&runs.detect_lifeguard)
        .chain(&runs.sub_threshold);
    let (agree, total) = all.fold((0, 0), |(agree, total), o| {
        let same = (o.trace_failures > 0) == (o.failures_declared > 0);
        (agree + usize::from(same), total + 1)
    });
    let bounded = |claim, ours, bounds, holds| Row { claim, ours, sign: None, bounds, holds };

    Verdict {
        rows: vec![
            fp_row(
                "F1 Lifeguard FP < SWIM (Table IV)",
                "Lifeguard",
                vec![
                    ("x5 <= SWIM".into(), lifeguard * 5 <= swim_sum),
                    (format!("<= {F1_BUDGET}"), lifeguard <= F1_BUDGET),
                ],
            ),
            fp_row(
                "F2 LHA-Suspicion FP < SWIM (Table IV)",
                "LHA-Suspicion",
                vec![("x2 <= SWIM".into(), sum("LHA-Suspicion") * 2 <= swim_sum)],
            ),
            fp_row("F3 LHA-Probe FP < SWIM (Table IV)", "LHA-Probe", within_1_2("LHA-Probe")),
            fp_row(
                "F4 Buddy System FP < SWIM (Table IV)",
                "Buddy System",
                within_1_2("Buddy System"),
            ),
            bounded(
                "D1 detection comparable (Table V)",
                format!(
                    "detected {detected}/{injected}; Lifeguard median {lg_med:.1} s \
                     (SWIM {swim_med:.1} s), max {lg_max:.1} s"
                ),
                vec![
                    ("all detected".into(), detected == injected),
                    ("median <= 12 s".into(), lg_med <= 12.0),
                    ("max <= 20 s".into(), lg_max <= 20.0),
                    ("median <= 2.5 x SWIM".into(), lg_med <= 2.5 * swim_med),
                ],
                "reproduced",
            ),
            bounded(
                "D2 2 s stalls are not failures",
                format!("{d2} failures in {} runs", runs.sub_threshold.len()),
                vec![(format!("<= {D2_MAX}"), d2 <= D2_MAX)],
                "reproduced",
            ),
            bounded(
                "X trace and metrics agree",
                format!("{agree}/{total} runs"),
                vec![("every run".into(), agree == total)],
                "holds",
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_papers_effects_hold() {
        let verdict = judge();
        assert!(verdict.pass(), "\n{}", verdict.table().render());
    }

    #[test]
    fn sign_test_is_exact() {
        let swim = [9; 8];
        assert_eq!(SignTest::new(&[1; 8], &swim).p, 1.0 / 256.0);
        let one_loss = [1, 1, 1, 1, 1, 1, 1, 10];
        assert_eq!(SignTest::new(&one_loss, &swim).p, 9.0 / 256.0);
        // Ties are dropped: two wins of two non-tied pairs.
        let t = SignTest::new(&[1, 5, 1], &[2, 5, 2]);
        assert_eq!((t.wins, t.trials, t.p), (2, 2, 0.25));
        let all_ties = SignTest { wins: 0, trials: 0, p: 1.0 };
        assert_eq!(SignTest::new(&[3, 3], &[3, 3]), all_ties);
        assert_eq!(SignTest::new(&[], &[]).p, 1.0);
    }

    #[test]
    fn benjamini_hochberg_matches_hand_worked_vector() {
        // Sorted: 0.001, 0.03, 0.04, 0.5; scaled by m / rank: 0.004,
        // 0.06, 0.0533…, 0.5; running minimum from the top.
        let q = benjamini_hochberg(&[0.04, 0.001, 0.03, 0.5]);
        let want = [0.04 * 4.0 / 3.0, 0.004, 0.04 * 4.0 / 3.0, 0.5];
        for (got, want) in q.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{q:?}");
        }
        // Three claims at 7/8 each survive the correction together.
        assert!(benjamini_hochberg(&[9.0 / 256.0; 3]).iter().all(|&q| q <= Q));
        assert!(benjamini_hochberg(&[]).is_empty());
    }

    fn fake(fp: u64, detect_s: Option<u64>) -> RunOutcome {
        RunOutcome {
            anomalous: vec![1],
            n: 16,
            fp_events: fp,
            fp_healthy_events: 0,
            first_detect: vec![detect_s.map(Duration::from_secs)],
            full_dissem: vec![None],
            msgs_sent: 1,
            bytes_sent: 1,
            trace_failures: fp + u64::from(detect_s.is_some()),
            failures_declared: fp + u64::from(detect_s.is_some()),
        }
    }

    fn fake_runs(lifeguard_fp: u64) -> Runs {
        let seeds = |fp, detect| vec![fake(fp, detect); SEEDS.count()];
        let fp = [("SWIM", 100), ("LHA-Probe", 90), ("LHA-Suspicion", 1), ("Buddy System", 110)];
        let mut interval: Vec<_> = fp.iter().map(|&(l, fp)| (l, seeds(fp, Some(6)))).collect();
        interval.push(("Lifeguard", seeds(lifeguard_fp, Some(6))));
        Runs {
            interval,
            detect_swim: seeds(0, Some(6)),
            detect_lifeguard: seeds(0, Some(8)),
            sub_threshold: vec![fake(0, None); 3 * SEEDS.count()],
        }
    }

    #[test]
    fn a_losing_claim_fails_the_verdict() {
        let good = verdict(&fake_runs(2));
        assert!(good.pass(), "\n{}", good.table().render());
        assert_eq!(good.rows.len(), 7);
        assert!(!good.table().render().contains("not reproduced"));

        // Lifeguard ties SWIM on every seed: F1 alone fails.
        let bad = verdict(&fake_runs(100));
        assert!(!bad.pass());
        let failing: Vec<&str> = bad.rows.iter().filter(|r| !r.pass()).map(|r| r.claim).collect();
        assert_eq!(failing, ["F1 Lifeguard FP < SWIM (Table IV)"]);
        let text = bad.table().render();
        assert_eq!(text.matches("not reproduced").count(), 1, "\n{text}");
    }
}
