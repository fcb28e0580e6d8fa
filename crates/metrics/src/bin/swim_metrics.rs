//! `swim-metrics` — run-level metrics aggregator.
//!
//! Merges per-node snapshot files (the compact binary `.snap` form
//! every runtime can drop, e.g. `target/metrics/<node>.snap`) into
//! the text dashboard on stdout and, with `--json`, a machine-readable
//! report.
//!
//! ```text
//! swim-metrics [--json OUT.json] <file-or-dir>...
//! ```
//!
//! Directories are scanned (non-recursively) for `*.snap`. With no
//! arguments, `target/metrics` is scanned. Exits nonzero when no
//! snapshot decodes — a run that produced nothing must not look
//! healthy in CI.

// Untrusted bytes must never panic an agent: no panicking call, index,
// slice or integer division outside tests (an exception is a reasoned
// `#[expect]`, counted by swim-lint).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::unimplemented, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::integer_division_remainder_used))]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lifeguard_metrics::{Aggregate, Snapshot};

fn usage() -> ExitCode {
    eprintln!("usage: swim-metrics [--json OUT.json] <snapshot-file-or-dir>...");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut json_out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_out = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ => inputs.push(PathBuf::from(arg)),
        }
    }
    if inputs.is_empty() {
        inputs.push(PathBuf::from("target/metrics"));
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for input in &inputs {
        if input.is_dir() {
            let entries = match fs::read_dir(input) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("swim-metrics: cannot read {}: {e}", input.display());
                    return ExitCode::FAILURE;
                }
            };
            for entry in entries.flatten() {
                let p = entry.path();
                if p.extension().and_then(|e| e.to_str()) == Some("snap") {
                    files.push(p);
                }
            }
        } else {
            files.push(input.clone());
        }
    }
    files.sort();

    let mut agg = Aggregate::new();
    for path in &files {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("swim-metrics: skipping {}: {e}", path.display());
                continue;
            }
        };
        match Snapshot::decode(&bytes) {
            Ok(snap) => agg.add(&node_name(path), snap),
            Err(e) => eprintln!("swim-metrics: skipping {}: {e}", path.display()),
        }
    }
    if agg.is_empty() {
        eprintln!("swim-metrics: no decodable snapshots among {} file(s)", files.len());
        return ExitCode::FAILURE;
    }

    print!("{}", agg.dashboard());
    if let Some(path) = json_out {
        if let Some(parent) = path.parent() {
            let _ = fs::create_dir_all(parent);
        }
        if let Err(e) = fs::write(&path, agg.to_json()) {
            eprintln!("swim-metrics: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Node name of a snapshot file: its stem (`n3.snap` → `n3`).
fn node_name(path: &Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("node")
        .to_string()
}
