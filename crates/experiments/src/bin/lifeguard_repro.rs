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
//!   smoke    SLO smoke sweep: detection-latency + false-positive curves,
//!            gated on checked-in thresholds; writes target/METRICS.json
//!            and per-node snapshots under target/metrics/
//!   all      Everything above except ablate-k, ablate-s and smoke
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use lifeguard_experiments::report::Table;
use lifeguard_experiments::scenario::Scale;
use lifeguard_experiments::{slo, tables};

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

/// Writes the machine-readable smoke artifacts: the gated SLO report
/// as `target/METRICS.json` and each node's binary snapshot under
/// `target/metrics/` (the input format of the `swim-metrics`
/// aggregator, so the whole export path is exercised end to end).
fn write_smoke_artifacts(report: &slo::SmokeReport) -> std::io::Result<()> {
    std::fs::create_dir_all("target/metrics")?;
    std::fs::write("target/METRICS.json", report.to_json())?;
    for (name, snap) in report.aggregate.nodes() {
        std::fs::write(format!("target/metrics/{name}.snap"), snap.encode())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: lifeguard-repro <fig1|table4|fig2|fig3|table5|table6|table7|fp|ablate-k|ablate-s|smoke|all> [--scale quick|default|paper] [--seed N] [--csv-dir DIR] [--quiet]");
            return ExitCode::FAILURE;
        }
    };
    let quiet = args.quiet;
    let mut progress = move |line: &str| {
        if !quiet {
            let _ = writeln!(std::io::stderr(), "  {line}");
        }
    };

    let csv = args.csv_dir.as_deref();
    let need_interval = matches!(
        args.artifact.as_str(),
        "table4" | "fig2" | "fig3" | "table6" | "fp" | "all"
    );
    let interval_records = if need_interval {
        eprintln!(
            "running Interval suite (scale {:?}, alpha=5, beta=6)...",
            args.scale
        );
        Some(tables::run_interval_suite(
            args.scale,
            5.0,
            6.0,
            args.seed,
            &mut progress,
        ))
    } else {
        None
    };

    match args.artifact.as_str() {
        "fig1" => {
            eprintln!("running Figure 1 stress scenario...");
            emit(
                &tables::fig1(args.scale, args.seed, &mut progress),
                "fig1",
                csv,
            );
        }
        "table4" => emit(
            &tables::table4(interval_records.as_ref().unwrap()),
            "table4",
            csv,
        ),
        "fig2" => emit(
            &tables::fig2(interval_records.as_ref().unwrap()),
            "fig2",
            csv,
        ),
        "fig3" => emit(
            &tables::fig3(interval_records.as_ref().unwrap()),
            "fig3",
            csv,
        ),
        "table6" => emit(
            &tables::table6(interval_records.as_ref().unwrap()),
            "table6",
            csv,
        ),
        "fp" => {
            let records = interval_records.as_ref().unwrap();
            emit(&tables::table4(records), "table4", csv);
            emit(&tables::fig2(records), "fig2", csv);
            emit(&tables::fig3(records), "fig3", csv);
            emit(&tables::table6(records), "table6", csv);
        }
        "table5" => {
            eprintln!("running Threshold suite (scale {:?})...", args.scale);
            let records =
                tables::run_threshold_suite(args.scale, 5.0, 6.0, args.seed, &mut progress);
            emit(&tables::table5(&records), "table5", csv);
        }
        "table7" => {
            eprintln!("running alpha/beta sweep (scale {:?})...", args.scale);
            emit(
                &tables::table7(args.scale, args.seed, &mut progress),
                "table7",
                csv,
            );
        }
        "ablate-k" => {
            eprintln!("running K ablation (scale {:?})...", args.scale);
            emit(
                &tables::ablation_k(args.scale, args.seed, &mut progress),
                "ablate_k",
                csv,
            );
        }
        "smoke" => {
            eprintln!("running SLO smoke sweep (seed {})...", args.seed);
            let report = slo::run_smoke(args.seed, &mut progress);
            println!("{}", report.render());
            if let Err(e) = write_smoke_artifacts(&report) {
                eprintln!("error: could not write metrics artifacts: {e}");
                return ExitCode::FAILURE;
            }
            if !report.pass() {
                eprintln!("SLO gate FAILED ({} violation(s))", report.violations.len());
                return ExitCode::FAILURE;
            }
            eprintln!("SLO gate passed; wrote target/METRICS.json");
        }
        "ablate-s" => {
            eprintln!("running S ablation (scale {:?})...", args.scale);
            emit(
                &tables::ablation_s(args.scale, args.seed, &mut progress),
                "ablate_s",
                csv,
            );
        }
        "all" => {
            let records = interval_records.as_ref().unwrap();
            emit(&tables::table4(records), "table4", csv);
            emit(&tables::fig2(records), "fig2", csv);
            emit(&tables::fig3(records), "fig3", csv);
            emit(&tables::table6(records), "table6", csv);
            eprintln!("running Threshold suite (scale {:?})...", args.scale);
            let thresh =
                tables::run_threshold_suite(args.scale, 5.0, 6.0, args.seed, &mut progress);
            emit(&tables::table5(&thresh), "table5", csv);
            eprintln!("running Figure 1 stress scenario...");
            emit(
                &tables::fig1(args.scale, args.seed, &mut progress),
                "fig1",
                csv,
            );
            eprintln!("running alpha/beta sweep (scale {:?})...", args.scale);
            emit(
                &tables::table7(args.scale, args.seed, &mut progress),
                "table7",
                csv,
            );
        }
        other => {
            eprintln!("error: unknown artifact {other:?}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
