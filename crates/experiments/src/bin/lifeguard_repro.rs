//! `lifeguard-repro`: render the Lifeguard paper's tables and figures
//! from the runs the verdict judges.
//!
//! ```text
//! USAGE:
//!   lifeguard-repro <artifact> [--scale gate|paper] [--csv-dir DIR]
//!
//! ARTIFACTS:
//!   fig1     False positives from CPU exhaustion (Figure 1)
//!   table4   Aggregated false positives (Table IV)
//!   fig2     Total FP vs concurrent anomalies (Figure 2)
//!   fig3     FP at healthy members vs concurrent anomalies (Figure 3)
//!   table5   Detection/dissemination latency (Table V)
//!   table6   Message load (Table VI)
//!   table7   Alpha/beta tuning trade-off (Table VII)
//!   verdict  The paper's effects judged over paired seeds; exits 1 if a
//!            claim fails
//!   fp       table4 + fig2 + fig3 + table6
//!   all      Everything above
//! ```
//!
//! Every artifact renders one replay of the scale's cells (`gate`, the
//! default: seeds 1-8, seconds in release; `paper`: the paper's Interval
//! grid, also under each Table VII tuning, and Figure 1's stress counts
//! over seeds 1-10, hours).

use std::process::ExitCode;

use lifeguard_experiments::report::Table;
use lifeguard_experiments::scenario::Scale;
use lifeguard_experiments::verdict::{self, Runs};
use lifeguard_experiments::tables;

const USAGE: &str = "usage: lifeguard-repro \
    <fig1|table4|fig2|fig3|table5|table6|table7|verdict|fp|all> \
    [--scale gate|paper] [--csv-dir DIR]";

/// Renders one table from the replayed runs.
type Render = fn(&Runs) -> Table;

/// Each artifact's CSV slug and renderer, in print order.
const ARTIFACTS: [(&str, Render); 7] = [
    ("table4", tables::table4),
    ("fig2", tables::fig2),
    ("fig3", tables::fig3),
    ("table6", tables::table6),
    ("table5", tables::table5),
    ("fig1", tables::fig1),
    ("table7", tables::table7),
];

struct Args {
    artifacts: Vec<&'static str>,
    scale: Scale,
    csv_dir: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let artifact = args.next().ok_or("missing artifact argument")?;
    let artifacts = match artifact.as_str() {
        "fp" => vec!["table4", "fig2", "fig3", "table6"],
        "all" => vec!["table4", "fig2", "fig3", "table6", "table5", "fig1", "table7", "verdict"],
        "verdict" => vec!["verdict"],
        one => {
            let known = ARTIFACTS.iter().find(|(slug, _)| *slug == one);
            vec![known.ok_or_else(|| format!("unknown artifact {one:?}"))?.0]
        }
    };
    let mut parsed = Args { artifacts, scale: Scale::Gate, csv_dir: None };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                parsed.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale {v:?}"))?;
            }
            "--csv-dir" => {
                parsed.csv_dir = Some(args.next().ok_or("--csv-dir needs a value")?);
            }
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

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (scale, csv) = (args.scale, args.csv_dir.as_deref());
    eprintln!("replaying the {scale:?} cells over seeds {:?}...", scale.seeds());
    let runs = Runs::replay(scale);
    let mut pass = true;
    for artifact in args.artifacts {
        if artifact == "verdict" {
            let verdict = verdict::judge(&runs);
            emit(&verdict.table(), "verdict", csv);
            pass = verdict.pass();
        } else if let Some((slug, render)) = ARTIFACTS.iter().find(|(slug, _)| *slug == artifact) {
            emit(&render(&runs), slug, csv);
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        eprintln!("verdict: a claim is not reproduced");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn artifacts_expand_and_scale_defaults_to_the_gate() {
        let all = parse("all --csv-dir out").unwrap();
        let every = ["table4", "fig2", "fig3", "table6", "table5", "fig1", "table7", "verdict"];
        assert_eq!(all.artifacts, every);
        assert_eq!((all.scale, all.csv_dir.as_deref()), (Scale::Gate, Some("out")));
        assert_eq!(parse("fp").unwrap().artifacts, ["table4", "fig2", "fig3", "table6"]);
        assert_eq!(parse("table5 --scale paper").unwrap().scale, Scale::Paper);
    }

    #[test]
    fn removed_artifacts_and_flags_are_refused_before_any_run() {
        for line in ["ablate-k", "ablate-s", "bogus", "table4 --seed 1"] {
            assert!(parse(line).is_err(), "{line}");
        }
        for line in ["table4 --scale quick", "table4 --scale default", "table4 --quiet"] {
            assert!(parse(line).is_err(), "{line}");
        }
        assert!(parse("").is_err());
    }
}
