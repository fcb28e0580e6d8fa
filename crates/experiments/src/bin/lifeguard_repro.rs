//! `lifeguard-repro`: regenerate the Lifeguard paper's tables and figures.
//!
//! ```text
//! USAGE:
//!   lifeguard-repro <artifact> [--scale quick|default|paper] [--seed N] [--csv-dir DIR] [--quiet]
//!
//! ARTIFACTS:
//!   fig1     False positives from CPU exhaustion (Figure 1)
//!   table4   Aggregated false positives (Table IV)
//!   fig2     Total FP vs concurrent anomalies (Figure 2)
//!   fig3     FP at healthy members vs concurrent anomalies (Figure 3)
//!   table5   Detection/dissemination latency (Table V)
//!   table6   Message load (Table VI)
//!   table7   Alpha/beta tuning trade-off (Table VII)
//!   fp       table4 + fig2 + fig3 + table6 from one Interval suite
//!   ablate-k Sweep LHA-Suspicion's confirmation count K (extension)
//!   ablate-s Sweep the LHM saturation limit S (extension)
//!   verdict  The gate: the paper's effects judged over paired seeds 1-8
//!            (ignores --scale and --seed); exits 1 if a claim fails
//!   all      Everything above except ablate-k, ablate-s and verdict
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use lifeguard_experiments::report::Table;
use lifeguard_experiments::scenario::Scale;
use lifeguard_experiments::{tables, verdict};

const USAGE: &str = "usage: lifeguard-repro \
    <fig1|table4|fig2|fig3|table5|table6|table7|fp|ablate-k|ablate-s|verdict|all> \
    [--scale quick|default|paper] [--seed N] [--csv-dir DIR] [--quiet]";

struct Args {
    artifact: String,
    scale: Scale,
    seed: u64,
    csv_dir: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let artifact = args.next().ok_or("missing artifact argument")?;
    let mut parsed = Args {
        artifact,
        scale: Scale::Quick,
        seed: 42,
        csv_dir: None,
        quiet: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                parsed.scale =
                    Scale::parse(&v).ok_or_else(|| format!("unknown scale {v:?}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--csv-dir" => {
                parsed.csv_dir = Some(args.next().ok_or("--csv-dir needs a value")?);
            }
            "--quiet" => parsed.quiet = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn emit(table: &Table, slug: &str, csv_dir: Option<&str>) {
    println!("{}", table.render());
    if let Some(dir) = csv_dir {
        let path = format!("{dir}/{slug}.csv");
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, table.to_csv()))
        {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            eprintln!("wrote {path}");
        }
    }
}

/// The artifacts `artifact` names, in print order.
fn expand(artifact: &str) -> Vec<&str> {
    match artifact {
        "fp" => vec!["table4", "fig2", "fig3", "table6"],
        "all" => vec!["table4", "fig2", "fig3", "table6", "table5", "fig1", "table7"],
        one => vec![one],
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let quiet = args.quiet;
    let mut progress = move |line: &str| {
        if !quiet {
            let _ = writeln!(std::io::stderr(), "  {line}");
        }
    };
    let (scale, seed, csv) = (args.scale, args.seed, args.csv_dir.as_deref());

    // One Interval suite serves Table IV, Figures 2/3 and Table VI.
    let mut interval = None;
    for artifact in expand(&args.artifact) {
        let table = match artifact {
            "table4" | "fig2" | "fig3" | "table6" => {
                let records = interval.get_or_insert_with(|| {
                    eprintln!("running Interval suite (scale {scale:?}, alpha=5, beta=6)...");
                    tables::run_interval_suite(scale, 5.0, 6.0, seed, &mut progress)
                });
                match artifact {
                    "table4" => tables::table4(records),
                    "fig2" => tables::fig2(records),
                    "fig3" => tables::fig3(records),
                    _ => tables::table6(records),
                }
            }
            "table5" => {
                eprintln!("running Threshold suite (scale {scale:?})...");
                tables::table5(&tables::run_threshold_suite(scale, 5.0, 6.0, seed, &mut progress))
            }
            "fig1" => {
                eprintln!("running Figure 1 stress scenario...");
                tables::fig1(scale, seed, &mut progress)
            }
            "table7" => {
                eprintln!("running alpha/beta sweep (scale {scale:?})...");
                tables::table7(scale, seed, &mut progress)
            }
            "ablate-k" => {
                eprintln!("running K ablation (scale {scale:?})...");
                tables::ablation_k(scale, seed, &mut progress)
            }
            "ablate-s" => {
                eprintln!("running S ablation (scale {scale:?})...");
                tables::ablation_s(scale, seed, &mut progress)
            }
            "verdict" => {
                eprintln!("judging the paper's effects over seeds {:?}...", verdict::SEEDS);
                let verdict = verdict::judge();
                emit(&verdict.table(), "verdict", csv);
                if !verdict.pass() {
                    eprintln!("verdict: a claim is not reproduced");
                    return ExitCode::FAILURE;
                }
                continue;
            }
            other => {
                eprintln!("error: unknown artifact {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        emit(&table, &artifact.replace('-', "_"), csv);
    }
    ExitCode::SUCCESS
}
