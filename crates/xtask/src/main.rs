//! CLI for the workspace's static-analysis pass.
//!
//! ```text
//! cargo run -p xtask -- lint [--update-baseline] [--root DIR] [--json PATH]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: cargo run -p xtask -- lint [--update-baseline] [--root DIR] [--json PATH]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut json_path = None;
    let mut update_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "lint" if cmd.is_none() => cmd = Some("lint"),
            "--update-baseline" => update_baseline = true,
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 1;
            }
            "--json" if i + 1 < args.len() => {
                json_path = Some(PathBuf::from(&args[i + 1]));
                i += 1;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if cmd != Some("lint") {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    // Default root: the workspace (xtask runs from anywhere inside it).
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let outcome = match xtask::run_lint(&root, update_baseline) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("swim-lint: i/o error: {e}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", outcome.report.render_table());

    let json_path = json_path.unwrap_or_else(|| root.join("target/ANALYSIS.json"));
    if let Some(dir) = json_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&json_path, &outcome.json) {
        Ok(()) => println!("wrote {}", json_path.display()),
        Err(e) => {
            eprintln!("swim-lint: failed to write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
    }

    if outcome.failures.is_empty() {
        println!("swim-lint: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &outcome.failures {
            eprintln!("swim-lint: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
