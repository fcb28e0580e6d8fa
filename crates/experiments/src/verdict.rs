//! The paper's effects as one judged gate, over the one set of runs
//! every `lifeguard-repro` table renders.
//!
//! [`Runs::replay`] replays a [`Scale`]'s seeds as paired runs — SWIM
//! and each Table I configuration on the same `Schedule` per seed — and
//! [`judge`] returns one row per claim. F1–F4 compare each
//! configuration's false positives with SWIM's on the Interval cells
//! (Table IV); S1 compares Lifeguard's with SWIM's under CPU stress
//! (Figure 1); D1 and D2 bound detection on Threshold runs (Table V); T1
//! and T2 judge the α/β trade-off (Table VII); X checks, on every run,
//! that the trace holds a failure exactly when some node's metrics
//! declared one. F1–F3, S1 and T2 must also win an exact one-sided sign
//! test, under one Benjamini–Hochberg correction across the five at
//! q = 0.05: one family of claims, one false-discovery rate.
//! docs/OBSERVABILITY.md §5 lists the cells and bounds, and says how to
//! re-measure them.
//!
//! Runs go to one worker per core, but each outcome is filed by
//! (configuration, seed, cell), so the verdict is a pure function of the
//! scale.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use lifeguard_core::config::Config;
use lifeguard_sim::schedule::Schedule;

use crate::metrics::percentile;
use crate::report::Table;
use crate::scenario::{self, IntervalCell, RunOutcome, Scale, MIN_RUN};
use crate::tables::{table1_configs, table7_configs, TABLE7};

/// The false-discovery rate F1–F3, S1 and T2 are held to together.
const Q: f64 = 0.05;
/// F1's budget on Lifeguard's summed FP: 1.5 × the 16 measured on the
/// gate's cell. The paper's grid has no measurement, so no budget.
const F1_BUDGET: u64 = 24;
/// D2's ceiling on failures over all of its runs.
const D2_MAX: u64 = 2;

/// Outcomes per configuration label: one per seed and cell, seed-major.
pub(crate) type Labelled = Vec<(&'static str, Vec<RunOutcome>)>;

/// Every run the gate judges, filed by what was run.
#[derive(Clone, Debug)]
pub struct Runs {
    /// What was replayed.
    pub(crate) scale: Scale,
    /// The Interval cells ([`Scale::interval_cells`]) under each Table I
    /// configuration, in paper order.
    pub(crate) interval: Labelled,
    /// The Table VII cells ([`Scale::tuning_cells`]) under SWIM, then
    /// under each of [`table7_configs`].
    pub(crate) tuning: Labelled,
    /// The stress cells ([`Scale::stress_cells`]) under SWIM, then
    /// Lifeguard.
    pub(crate) stress: Labelled,
    /// D1's one 20 s stall at n = 16 under SWIM, then under each of
    /// [`table7_configs`] (Lifeguard's own α and β among them).
    pub(crate) detect: Labelled,
    /// D2's 2 048 ms stalls at n = 16 under Lifeguard, per seed then per
    /// C ∈ {1, 2, 4}.
    pub(crate) sub_threshold: Labelled,
}

impl Runs {
    /// Replays every cell of `scale`. This is the crate's one replay path:
    /// the verdict and every table read what it returns.
    pub fn replay(scale: Scale) -> Runs {
        let (ms, secs) = (Duration::from_millis, Duration::from_secs);
        let swim = ("SWIM", Config::lan().swim());
        let lifeguard = ("Lifeguard", Config::lan().lifeguard());
        let tunings = [vec![swim.clone()], table7_configs()].concat();
        let intervals = |cells: Vec<IntervalCell>| {
            move |seed| -> Vec<Schedule> {
                let each = cells.iter();
                each.map(|&(n, c, d, i)| scenario::interval(n, c, d, i, MIN_RUN, seed)).collect()
            }
        };
        let stress = |seed| -> Vec<Schedule> {
            let each = scale.stress_cells().into_iter();
            each.map(|(n, stressed, len)| scenario::stress(n, stressed, len, seed)).collect()
        };

        // Queues each configuration on the schedules every seed gives, and
        // files how many runs each label gets.
        let mut jobs = Vec::new();
        let mut queue =
            |configs: &[(&'static str, Config)], schedules: &dyn Fn(u64) -> Vec<Schedule>| {
                let filed = configs.iter().map(|(label, config)| {
                    let queued = jobs.len();
                    jobs.extend(scale.seeds().flat_map(schedules).map(|s| (s, config.clone())));
                    (*label, jobs.len() - queued)
                });
                filed.collect::<Vec<_>>()
            };
        // Longest runs first, so the workers finish together.
        let interval = queue(&table1_configs(), &intervals(scale.interval_cells()));
        let tuning = queue(&tunings, &intervals(scale.tuning_cells()));
        let stress = queue(&[swim, lifeguard.clone()], &stress);
        let detect = queue(&tunings, &|seed| {
            vec![scenario::threshold(16, 1, secs(20), secs(60), seed)]
        });
        let sub_threshold = queue(&[lifeguard], &|seed| {
            [1, 2, 4].map(|c| scenario::threshold(16, c, ms(2_048), secs(40), seed)).to_vec()
        });

        let mut done = replay_all(&jobs).into_iter();
        let mut take = |filed: Vec<(&'static str, usize)>| -> Labelled {
            let each = filed.into_iter();
            each.map(|(label, runs)| (label, done.by_ref().take(runs).collect())).collect()
        };
        Runs {
            scale,
            interval: take(interval),
            tuning: take(tuning),
            stress: take(stress),
            detect: take(detect),
            sub_threshold: take(sub_threshold),
        }
    }
}

/// The runs of configuration `label` in `cell`; empty if it has none.
pub(crate) fn of<'a>(cell: &'a Labelled, label: &str) -> &'a [RunOutcome] {
    cell.iter().find(|(l, _)| *l == label).map_or(&[], |(_, runs)| runs)
}

/// FP per seed of configuration `label`, summed over the seed's `cells`
/// runs.
fn fp_per_seed(runs: &Labelled, label: &str, cells: usize) -> Vec<u64> {
    let seeds = of(runs, label).chunks(cells);
    seeds.map(|seed| seed.iter().map(|o| o.fp_events).sum()).collect()
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

/// The judged claims, in order F1–F4, S1, D1, D2, T1, T2, X.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The scale the claims were judged at.
    scale: Scale,
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
        let seeds = self.scale.seeds();
        let title = format!("Verdict: the paper's effects over paired seeds {seeds:?}");
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

/// Counts separated by spaces.
fn joined(counts: &[u64]) -> String {
    counts.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

/// Every first-detection latency over `runs`, in seconds.
fn detection_secs(runs: &[RunOutcome]) -> Vec<f64> {
    let detected = runs.iter().flat_map(|o| o.first_detect.iter().flatten());
    detected.map(Duration::as_secs_f64).collect()
}

/// The median of `xs`; infinite when there is no sample.
fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).unwrap_or(f64::INFINITY)
}

/// A false-positive claim's row: `ours` against `swim`, per seed. A row
/// with a sign test joins the family; its q is set by [`judge`].
fn fp_row(
    claim: &'static str,
    ours: &[u64],
    swim: &[u64],
    signed: bool,
    bounds: Vec<(String, bool)>,
) -> Row {
    let (sum, swim_sum) = (ours.iter().sum::<u64>(), swim.iter().sum::<u64>());
    let sign = signed.then(|| SignTest::new(ours, swim)).map(|t| (t, t.p));
    Row {
        claim,
        ours: format!("{} (sum {sum}) vs SWIM sum {swim_sum}", joined(ours)),
        sign,
        bounds,
        holds: if signed { "reproduced" } else { "within bound; direction differs" },
    }
}

/// F1–F4 on the Interval cells and S1 on the stress cells.
fn fp_rows(runs: &Runs) -> Vec<Row> {
    let fp = |label| fp_per_seed(&runs.interval, label, runs.scale.interval_cells().len());
    let stress = |label| fp_per_seed(&runs.stress, label, runs.scale.stress_cells().len());
    let swim = fp("SWIM");
    let swim_sum: u64 = swim.iter().sum();
    let sum = |label| fp(label).iter().sum::<u64>();
    let within_1_2 = |label| vec![("<= 1.2 x SWIM".into(), sum(label) * 10 <= swim_sum * 12)];
    let lifeguard = sum("Lifeguard");
    let mut f1 = vec![("x5 <= SWIM".into(), lifeguard * 5 <= swim_sum)];
    if runs.scale == Scale::Gate {
        f1.push((format!("<= {F1_BUDGET}"), lifeguard <= F1_BUDGET));
    }
    let (stress_swim, stress_lifeguard) = (stress("SWIM"), stress("Lifeguard"));
    let stressed = stress_lifeguard.iter().sum::<u64>() * 10 <= stress_swim.iter().sum::<u64>();
    vec![
        fp_row("F1 Lifeguard FP < SWIM (Table IV)", &fp("Lifeguard"), &swim, true, f1),
        fp_row(
            "F2 LHA-Suspicion FP < SWIM (Table IV)",
            &fp("LHA-Suspicion"),
            &swim,
            true,
            vec![("x2 <= SWIM".into(), sum("LHA-Suspicion") * 2 <= swim_sum)],
        ),
        fp_row(
            "F3 LHA-Probe FP < SWIM (Table IV)",
            &fp("LHA-Probe"),
            &swim,
            true,
            within_1_2("LHA-Probe"),
        ),
        fp_row(
            "F4 Buddy System FP < SWIM (Table IV)",
            &fp("Buddy System"),
            &swim,
            false,
            within_1_2("Buddy System"),
        ),
        fp_row(
            "S1 Lifeguard FP < SWIM under CPU stress (Fig. 1)",
            &stress_lifeguard,
            &stress_swim,
            true,
            vec![("x10 <= SWIM".into(), stressed)],
        ),
    ]
}

/// A row judged by its bounds alone.
fn bounded(
    claim: &'static str,
    ours: String,
    bounds: Vec<(String, bool)>,
    holds: &'static str,
) -> Row {
    Row { claim, ours, sign: None, bounds, holds }
}

/// D1 on the Detect cell and D2 on the Sub-threshold cell.
fn detection_rows(runs: &Runs) -> [Row; 2] {
    let (swim, lifeguard) = (of(&runs.detect, "SWIM"), of(&runs.detect, "Lifeguard"));
    let (swim_s, lg_s) = (detection_secs(swim), detection_secs(lifeguard));
    let detected = swim_s.len() + lg_s.len();
    let injected: usize = swim.iter().chain(lifeguard).map(|o| o.first_detect.len()).sum();
    let (lg_med, swim_med) = (median(&lg_s), median(&swim_s));
    let lg_max = lg_s.iter().copied().fold(0.0, f64::max);
    let sub_threshold: Vec<&RunOutcome> = runs.sub_threshold.iter().flat_map(|(_, r)| r).collect();
    let d2: u64 = sub_threshold.iter().map(|o| o.trace_failures).sum();
    [
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
            format!("{d2} failures in {} runs", sub_threshold.len()),
            vec![(format!("<= {D2_MAX}"), d2 <= D2_MAX)],
            "reproduced",
        ),
    ]
}

/// T1 on the Detect cell and T2 on the Table VII cells, over the
/// [`TABLE7`] tunings (α-major: tuning `3 * a + b` is the `a`-th α and
/// the `b`-th β).
fn tuning_rows(runs: &Runs) -> [Row; 2] {
    let cells = runs.scale.tuning_cells().len();
    let fp: Vec<Vec<u64>> =
        TABLE7.iter().map(|(l, ..)| fp_per_seed(&runs.tuning, l, cells)).collect();
    let detect: Vec<f64> =
        TABLE7.iter().map(|(l, ..)| median(&detection_secs(of(&runs.detect, l)))).collect();
    let at = |alpha: usize, beta: usize| 3 * alpha + beta;

    let medians = (0..3).map(|b| (TABLE7[at(0, b)].2, [0, 1, 2].map(|a| detect[at(a, b)])));
    let medians: Vec<(f64, [f64; 3])> = medians.collect();
    let rising = medians.iter().all(|(_, m)| m[0] < m[1] && m[1] < m[2]);
    let text = (medians.iter())
        .map(|(beta, m)| format!("beta {beta} {:.1}/{:.1}/{:.1}", m[0], m[1], m[2]));

    // FP per seed summed over α, at the lowest and the highest β.
    let over_alpha = |b: usize| -> Vec<u64> {
        let each = (0..3).map(|a| &fp[at(a, b)]);
        let zero = vec![0; runs.scale.seeds().count()];
        each.fold(zero, |sum, fp| sum.iter().zip(fp).map(|(s, f)| s + f).collect())
    };
    let (low, high) = (over_alpha(0), over_alpha(2));
    let per_alpha: Vec<[u64; 2]> =
        (0..3).map(|a| [2, 0].map(|b| fp[at(a, b)].iter().sum())).collect();
    let fewer = per_alpha.iter().all(|[high, low]| high < low);
    let per_alpha = per_alpha.iter().map(|[high, low]| format!("{high} vs {low}"));
    let test = SignTest::new(&high, &low);
    [
        bounded(
            "T1 lower alpha detects sooner (Table VII)",
            format!("median s at alpha 2/4/5: {}", text.collect::<Vec<_>>().join(", ")),
            vec![("rising in alpha at every beta".into(), rising)],
            "reproduced",
        ),
        Row {
            claim: "T2 higher beta admits fewer FP (Table VII)",
            ours: format!(
                "sum over alpha per seed: beta 6 {} vs beta 2 {}; per alpha 2/4/5: {}",
                joined(&high),
                joined(&low),
                per_alpha.collect::<Vec<_>>().join(", "),
            ),
            sign: Some((test, test.p)),
            bounds: vec![("beta 6 < beta 2 at every alpha".into(), fewer)],
            holds: "reproduced",
        },
    ]
}

/// X over every run of every cell.
fn agreement_row(runs: &Runs) -> Row {
    let cells = [&runs.interval, &runs.tuning, &runs.stress, &runs.detect, &runs.sub_threshold];
    let all = cells.into_iter().flatten().flat_map(|(_, runs)| runs);
    let (agree, total) = all.fold((0, 0), |(agree, total), o| {
        let same = (o.trace_failures > 0) == (o.failures_declared > 0);
        (agree + usize::from(same), total + 1)
    });
    bounded(
        "X trace and metrics agree",
        format!("{agree}/{total} runs"),
        vec![("every run".into(), agree == total)],
        "holds",
    )
}

/// Judges each claim over `runs`. Every row with a sign test is one
/// family: their p-values share one Benjamini–Hochberg correction.
pub fn judge(runs: &Runs) -> Verdict {
    let mut rows = fp_rows(runs);
    rows.extend(detection_rows(runs));
    rows.extend(tuning_rows(runs));
    rows.push(agreement_row(runs));
    let family: Vec<f64> = rows.iter().filter_map(|r| r.sign.map(|(t, _)| t.p)).collect();
    let adjusted = rows.iter_mut().filter_map(|r| r.sign.as_mut());
    for ((_, q), adjusted) in adjusted.zip(benjamini_hochberg(&family)) {
        *q = adjusted;
    }
    Verdict { scale: runs.scale, rows }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tables::{fig1, fig2, fig3, table4, table5, table6, table7};

    #[test]
    fn the_papers_effects_hold() {
        let runs = Runs::replay(Scale::Gate);
        let verdict = judge(&runs);
        assert!(verdict.pass(), "\n{}", verdict.table().render());
        // Every table renders these same runs.
        let tables = [table4(&runs), fig2(&runs), fig3(&runs), table5(&runs), table6(&runs)];
        let tables = [fig1(&runs), table7(&runs)].into_iter().chain(tables);
        assert!(tables.into_iter().all(|t| !t.is_empty()));
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
        // The family's five claims at 7/8 each survive the correction
        // together.
        assert!(benjamini_hochberg(&[9.0 / 256.0; 5]).iter().all(|&q| q <= Q));
        assert!(benjamini_hochberg(&[]).is_empty());
    }

    pub(crate) fn fake(fp: u64, detect_s: Option<u64>) -> RunOutcome {
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

    pub(crate) fn fake_runs(lifeguard_fp: u64) -> Runs {
        let seeds = |fp, detect| vec![fake(fp, detect); Scale::Gate.seeds().count()];
        let fp = [("SWIM", 100), ("LHA-Probe", 90), ("LHA-Suspicion", 1), ("Buddy System", 110)];
        let mut interval: Vec<_> = fp.iter().map(|&(l, fp)| (l, seeds(fp, Some(6)))).collect();
        interval.push(("Lifeguard", seeds(lifeguard_fp, Some(6))));
        // Every tuning detects in 6 + α s; β 6 admits 1 FP fewer than β 2.
        let tuned = |fp_of: &dyn Fn(f64) -> u64, detect: &dyn Fn(f64) -> Option<u64>| {
            let each = TABLE7.iter();
            let tuned = each.map(|&(l, a, b)| (l, seeds(fp_of(b), detect(a))));
            [vec![("SWIM", seeds(100, Some(6)))], tuned.collect()].concat()
        };
        let detect = |a: f64| Some(6 + a as u64);
        Runs {
            scale: Scale::Gate,
            interval,
            tuning: tuned(&|b| if b > 5.0 { 2 } else { 3 }, &|_| None),
            stress: vec![("SWIM", seeds(100, None)), ("Lifeguard", seeds(2, None))],
            detect: tuned(&|_| 0, &detect),
            sub_threshold: vec![("Lifeguard", [0, 1, 2].map(|_| seeds(0, None)).concat())],
        }
    }

    #[test]
    fn a_losing_claim_fails_the_verdict() {
        let failing = |runs: &Runs| -> Vec<&str> {
            let verdict = judge(runs);
            let text = verdict.table().render();
            let failing: Vec<&str> =
                verdict.rows.iter().filter(|r| !r.pass()).map(|r| r.claim).collect();
            assert_eq!(text.matches("not reproduced").count(), failing.len(), "\n{text}");
            assert_eq!(verdict.pass(), failing.is_empty());
            failing
        };
        let good = fake_runs(2);
        assert!(failing(&good).is_empty());
        assert_eq!(judge(&good).rows.len(), 10);

        // Lifeguard ties SWIM on every seed: F1 alone fails.
        assert_eq!(failing(&fake_runs(100)), ["F1 Lifeguard FP < SWIM (Table IV)"]);

        // Under CPU stress Lifeguard ties SWIM: S1 alone fails.
        let mut runs = good.clone();
        runs.stress[1].1 = runs.stress[0].1.clone();
        assert_eq!(failing(&runs), ["S1 Lifeguard FP < SWIM under CPU stress (Fig. 1)"]);

        // Every tuning detects as SWIM does: T1 alone fails.
        let mut runs = good.clone();
        let swim = runs.detect[0].1.clone();
        runs.detect.iter_mut().for_each(|(_, r)| r.clone_from(&swim));
        assert_eq!(failing(&runs), ["T1 lower alpha detects sooner (Table VII)"]);

        // β changes nothing: T2 alone fails.
        let mut runs = good;
        let lifeguard = runs.tuning[9].1.clone();
        runs.tuning[1..].iter_mut().for_each(|(_, r)| r.clone_from(&lifeguard));
        assert_eq!(failing(&runs), ["T2 higher beta admits fewer FP (Table VII)"]);
    }
}
