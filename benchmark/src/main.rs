//! The repository benchmark: four workloads, six end-to-end metrics, an
//! outside-in layer rig and a traced run. See `README.md`.
//!
//! ```text
//! lifeguard-benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//! lifeguard-benchmark repeat [--workload <name>|all] [--seed N] [--seconds S]   # two sets of runs, differences against bounds
//! lifeguard-benchmark spread [--workload <name>|all] [--seed N] [--seconds S]   # ten seeds, quartile spread against bounds
//! ```
//!
//! One workload runs in this process and prints its table and then, as
//! the last line, the result object. `all`, `repeat` and `spread` run one
//! child process per workload, because peak memory is a per-process
//! high-water mark.

mod api;
mod host;
mod peer;
mod reduce;
mod registry;
mod report;
mod rig;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io;
use std::process::{Command, ExitCode, Stdio};

use report::Run;
use rig::Shape;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`. This
/// host's speed drifts by ±20 % over 5–10 s; ten runs measuring 20 s each
/// spread about half as much as ten runs measuring 10 s.
const RUN_SECONDS: u32 = 20;
/// `--quick`: every workload cut to a few seconds; never comparable.
const QUICK_SECONDS: f64 = 1.0;
/// Seeds per workload in `spread`: the acceptance rule's ten runs.
const SPREAD_RUNS: u64 = 10;
/// Runs per workload in each of `repeat`'s two sets.
const REPEAT_RUNS: usize = 3;
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: "run".to_string(),
        workload: "all".to_string(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "repeat" | "spread" => args.mode = arg.clone(),
            "--workload" => args.workload = value(&mut it, arg)?,
            "--seed" => {
                args.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--quick" => args.quick = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        args.seconds = QUICK_SECONDS;
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err("--seconds must be within 1..=60".to_string());
    }
    // They compare end-to-end metrics, which a traced run does not report.
    if args.trace && args.mode != "run" {
        return Err(format!(
            "{} compares untraced runs: drop --trace",
            args.mode
        ));
    }
    let known =
        args.workload == "all" || registry::WORKLOADS.iter().any(|w| w.name == args.workload);
    if !registry::valid_name(&args.workload) || !known {
        let names: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; one of all, {}",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

fn flags(args: &Args) -> String {
    format!(
        "--workload {} --seed {} --seconds {} --trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { " --quick" } else { "" }
    )
}

/// Runs one workload in this process; returns whether it was correct.
fn run_one(args: &Args) -> io::Result<bool> {
    let mut run = Run::new(args.seed, args.seconds, args.trace, args.quick);
    let shape: Shape = match args.workload.as_str() {
        "steady-2k" => workloads::steady::run(&mut run),
        "churn-512" => workloads::churn::run(&mut run),
        "anomaly-128" => workloads::anomaly::run(&mut run),
        "net-hub-1k" => workloads::nethub::run(&mut run)?,
        other => unreachable!("parse_args admitted {other}"),
    };
    let stamp = host::stamp_json(args.seed, &flags(args));
    if args.trace {
        rig::run(&mut run, &shape);
        run.set("trace.spans", run.rec.spans().len() as f64);
        std::fs::create_dir_all(OUT_DIR)?;
        let path = format!("{OUT_DIR}/trace-{}.json", args.workload);
        std::fs::write(&path, run.rec.to_json(&args.workload, &stamp))?;
        println!(
            "spans: {} recorded, {} dropped -> {path}",
            run.rec.spans().len(),
            run.rec.dropped()
        );
        for (name, t) in run.rec.totals() {
            println!(
                "  span {name:<28} count {:>7}  total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    println!("stamp {stamp}");
    run.print_table(&args.workload);
    println!("{}", run.result_json());
    Ok(run.correct())
}

/// What a child process printed: its result line, parsed back.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    fingerprint: Option<String>,
}

fn parse_result(stdout: &str) -> Option<ChildResult> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("{\"correct\""))?;
    let parts: Vec<&str> = line.split("\": {\"value\": ").collect();
    let metrics = parts
        .windows(2)
        .filter_map(|w| {
            Some((
                w[0].rsplit('"').next()?.to_string(),
                w[1].split(',').next()?.parse().ok()?,
            ))
        })
        .collect();
    Some(ChildResult {
        correct: line.starts_with("{\"correct\": true"),
        metrics,
        fingerprint: stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .map(str::to_string),
    })
}

/// One workload as a child process of this same executable.
fn child_command(args: &Args, workload: &str, seed: u64) -> io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    Ok(cmd)
}

/// Runs one workload in a child process and parses its result line;
/// `None` when it exited with a failure or printed no result.
fn child(args: &Args, workload: &str, seed: u64) -> io::Result<Option<ChildResult>> {
    let out = child_command(args, workload, seed)?
        .stderr(Stdio::inherit())
        .output()?;
    Ok(parse_result(&String::from_utf8_lossy(&out.stdout)).filter(|_| out.status.success()))
}

/// The workloads `--workload` names: one, or with `all` every one.
fn selected(args: &Args) -> impl Iterator<Item = &'static str> + '_ {
    registry::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload == "all" || args.workload == *name)
}

/// `--workload all`: every workload in turn, output passed through.
fn run_all(args: &Args) -> io::Result<bool> {
    let mut ok = true;
    for workload in selected(args) {
        ok &= child_command(args, workload, args.seed)?
            .status()?
            .success();
    }
    Ok(ok)
}

/// `repeat`: two sets of `REPEAT_RUNS` runs per workload on one build and
/// one seed, the sets' runs alternating so that a slow spell of the host
/// falls on both. The sets' medians must agree within the bounds;
/// everything simulated, and the fingerprints, must be identical in every
/// run.
fn repeat(args: &Args) -> io::Result<bool> {
    let mut ok = true;
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in selected(args) {
        let mut runs = Vec::new();
        for _ in 0..2 * REPEAT_RUNS {
            runs.extend(child(args, workload, args.seed)?);
        }
        if runs.len() < 2 * REPEAT_RUNS {
            println!("{workload:<12} a run failed or printed no result");
            ok = false;
            continue;
        }
        ok &= runs.iter().all(|r| r.correct);
        for def in &registry::END_TO_END {
            let set = |parity: usize| {
                let values: Vec<f64> = runs
                    .iter()
                    .skip(parity)
                    .step_by(2)
                    .map(|r| r.metrics[def.name])
                    .collect();
                stats::median(&values).unwrap_or(0.0)
            };
            let (x, y) = (set(0), set(1));
            let diff = (y - x) / x;
            let bound = def.bound.expect("end-to-end");
            let within = diff.abs() <= bound;
            ok &= within;
            println!(
                "{workload:<12} {:<16} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%  {}",
                def.name,
                diff * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
        let first = &runs[0];
        let same = runs.iter().all(|r| {
            r.fingerprint == first.fingerprint
                && ["msgs_per_op", "bytes_per_op"]
                    .iter()
                    .all(|m| workload == "net-hub-1k" || r.metrics[*m] == first.metrics[*m])
        });
        ok &= same;
        // The socket workload has no simulated state to fingerprint.
        if let Some(fingerprint) = &first.fingerprint {
            println!(
                "{workload:<12} fingerprint {fingerprint} and simulated counts in {} runs: {}",
                runs.len(),
                if same { "identical" } else { "DIFFERENT" }
            );
        }
    }
    Ok(ok)
}

/// `spread`: ten seeds per workload; per end-to-end metric the distance
/// between the quartiles as a share of the median, which must stay within
/// the bound (and should stay within a third of it). This is the
/// acceptance rule's own procedure.
fn spread(args: &Args) -> io::Result<bool> {
    let mut ok = true;
    println!(
        "{:<12} {:<16} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for workload in selected(args) {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in args.seed..args.seed + SPREAD_RUNS {
            let Some(r) = child(args, workload, seed)? else {
                println!("{workload:<12} seed {seed} failed or was incorrect");
                ok = false;
                continue;
            };
            ok &= r.correct;
            for def in &registry::END_TO_END {
                values
                    .entry(def.name)
                    .or_default()
                    .push(r.metrics[def.name]);
            }
        }
        for def in &registry::END_TO_END {
            let v = values.get(def.name).map_or(&[][..], Vec::as_slice);
            let (median, spread) = (
                stats::median(v).unwrap_or(0.0),
                stats::spread(v).unwrap_or(0.0),
            );
            let bound = def.bound.expect("end-to-end");
            let verdict = match spread {
                s if s <= bound / 3.0 => "ok",
                s if s <= bound => "above a third of the bound",
                _ => "OUTSIDE",
            };
            ok &= verdict != "OUTSIDE";
            println!(
                "{workload:<12} {:<16} {median:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                def.name,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.mode.as_str(), args.workload.as_str()) {
        ("repeat", _) => repeat(&args),
        ("spread", _) => spread(&args),
        (_, "all") => run_all(&args),
        _ => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_human_invocations_parse() {
        let a = parse_args(&argv(
            "--workload churn-512 --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn-512", 9, 10.0, true)
        );
        assert!(
            !parse_args(&argv("--workload churn-512 --trace 0"))
                .unwrap()
                .trace
        );
        let b = parse_args(&argv("--trace --quick")).unwrap();
        assert_eq!(
            (b.workload.as_str(), b.trace, b.quick, b.seconds),
            ("all", true, true, QUICK_SECONDS)
        );
        let c = parse_args(&argv("repeat --workload net-hub-1k --seed 3")).unwrap();
        assert_eq!(
            (c.mode.as_str(), c.workload.as_str()),
            ("repeat", "net-hub-1k")
        );
        assert_eq!(selected(&c).collect::<Vec<_>>(), ["net-hub-1k"]);
        assert_eq!(selected(&b).count(), registry::WORKLOADS.len());
        for bad in [
            "repeat --trace",
            "spread --trace 1",
            "describe",
            "--workload nope",
            "--workload ../x",
            "--seconds 0",
            "--seconds 61",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_parses_back() {
        let mut run = Run::new(1, 1.0, false, false);
        for (i, def) in registry::END_TO_END.iter().enumerate() {
            run.set(def.name, 1.25 * (i + 1) as f64);
        }
        run.fingerprint = Some(0xabc);
        let stdout = format!("noise\nfingerprint {:016x}\n{}\n", 0xabc, run.result_json());
        let parsed = parse_result(&stdout).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.metrics.len(), registry::END_TO_END.len());
        assert_eq!(parsed.metrics["setup_s"], 1.25);
        assert_eq!(parsed.metrics["bytes_per_op"], 7.5);
        assert_eq!(parsed.fingerprint.as_deref(), Some("0000000000000abc"));
        assert!(parse_result("no result here").is_none());
    }
}
