//! `swim-lint`: the workspace's custom static-analysis pass.
//!
//! Run as `cargo run -p xtask -- lint`. The pass machine-enforces the
//! architectural invariants that neither rustc/clippy nor the tests can
//! check; what clippy can check (panicking calls, indexing, slicing,
//! integer division, lossy casts, unsafe audits) is denied at the crate
//! roots instead, and allocation freedom is proven by
//! `tests/alloc_gates.rs`.
//!
//! **Lexical rules** (token-stream level):
//!
//! 1. **Sans-I/O layering** (`layering`) — `crates/core`, `crates/proto`,
//!    `crates/sim` and `crates/metrics` may not touch sockets, threads,
//!    wall clocks, or entropy-seeded RNG; time and I/O flow through
//!    `Input`/`Sink`, randomness through the seeded shim.
//! 2. **FFI confinement** (`ffi`) — `extern "C"` lives only in
//!    `crates/compat/polling` and may only declare allowlisted symbols.
//! 3. **Waiver hygiene** (`waiver`) — a waiver must name a known rule
//!    and give a reason.
//!
//! **Graph rules** (whole-workspace — see [`graph`] and
//! `docs/ANALYSIS.md`):
//!
//! 4. **Panic sites** (`panic_path`) — the two panic kinds clippy
//!    cannot deny cleanly, the `assert!` family and the panicking `std`
//!    methods (`swap_remove`, `split_at`, `split_at_mut`,
//!    `copy_from_slice`), in every non-test function of the six crates
//!    that carry clippy's panic denies.
//! 5. **Lock discipline** (`lock_discipline`) — no syscall, and no call
//!    that reaches one (a polling-shim wrapper or a std socket method),
//!    while the net driver lock is held.
//! 6. **Bounded growth** (`bounded_growth`) — growable collection
//!    fields of long-lived structs must document their cap.
//!
//! Any rule finding can be waived inline with
//! `// lint: allow(<rule>) — <reason>`; the reason is mandatory and
//! stale waivers are reported. Those waivers and the reasoned clippy
//! exceptions (`#[expect(clippy::<lint>, reason = "…")]`) are ratcheted
//! per rule/lint. Results are printed as a table and written to
//! `target/ANALYSIS.json` (schema 4).

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use baseline::Baseline;
use graph::{FileData, GraphConfig};
use report::Report;

/// Directory names never descended into during the workspace walk.
/// `fixtures` holds the analyzer's own known-violation test inputs.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Walks `root` collecting every `.rs` file, in path order.
fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        out.push((rel, src));
    }
    Ok(out)
}

/// Analyzes in-memory sources: lexical rules, then the whole-workspace
/// call-graph pass. Stale waivers are counted only after **both**
/// passes had a chance to use them. Exposed (rather than only the
/// filesystem walk) so fixture tests can assemble mini-workspaces.
pub fn analyze_sources(sources: &[(String, String)], config: &GraphConfig) -> Report {
    let mut report = Report::default();
    let mut data: Vec<FileData> = Vec::with_capacity(sources.len());
    for (rel, src) in sources {
        let lexed = lexer::lex(src);
        let class = rules::classify(rel);
        let (violations, waivers) = rules::analyze_lexed(rel, &lexed);
        report.violations.extend(violations);
        report.files += 1;
        // The analyzer's own sources document the waiver syntax in
        // prose and carry intentionally-panicking test fixtures in
        // unit tests; it is not subject to the graph rules either.
        if class.crate_name == "xtask" {
            continue;
        }
        let ranges = rules::test_ranges(&lexed);
        if !class.test_target {
            for lint in rules::clippy_exceptions(&lexed, &ranges) {
                *report.waiver_counts.entry(lint).or_insert(0) += 1;
            }
        }
        let parsed = parser::parse(rel, &class, &lexed, &ranges);
        data.push(FileData {
            rel: rel.clone(),
            class,
            parsed,
            waivers,
            comments: lexed.comments,
        });
    }

    let outcome = graph::analyze(&data, config);
    report.violations.extend(outcome.violations);
    report.graph_functions = outcome.functions;
    report.graph_edges = outcome.edges;

    // Waiver accounting, after every pass marked what it used.
    for f in &data {
        for w in &f.waivers {
            *report.waiver_counts.entry(w.rule.clone()).or_insert(0) += 1;
            if !w.used.get() {
                report
                    .stale_waivers
                    .push((f.rel.clone(), w.line_start, w.rule.clone()));
            }
        }
    }
    report
}

/// Everything `lint` decided, for the caller to print/exit on.
#[derive(Debug)]
pub struct LintOutcome {
    pub report: Report,
    /// Human-readable gate failures; empty means the lint passed.
    pub failures: Vec<String>,
    /// The JSON document that was (or would be) written.
    pub json: String,
}

/// Runs the full lint over `root`: analyze, apply the waiver ratchet,
/// and render the JSON report. With `update_baseline`, a shrunken count
/// rewrites `analysis/baseline.toml` instead of failing.
///
/// # Errors
///
/// Propagates filesystem errors; a corrupt baseline file is a gate
/// failure, not an error.
pub fn run_lint(root: &Path, update_baseline: bool) -> std::io::Result<LintOutcome> {
    let config = GraphConfig::workspace();
    let sources = collect_sources(root)?;
    let report = analyze_sources(&sources, &config);
    let mut failures = Vec::new();

    // Zero tolerance: any active finding of any rule fails.
    for rule in rules::ALL_RULES {
        let n = report.active(rule).count();
        if n > 0 {
            failures.push(format!("{n} active `{rule}` violation(s)"));
        }
    }

    let baseline = match Baseline::load(root) {
        Ok(b) => b,
        Err(e) => {
            failures.push(format!("baseline unreadable: {e}"));
            Baseline::default()
        }
    };
    let mut ratcheted = baseline.clone();
    let mut rewrite = false;

    // The per-rule waiver ratchet (clippy exceptions keyed
    // `clippy::<lint>`): a rise fails (`--update-baseline` may only seed
    // a rule the file has no row for), a fall must be recorded.
    let mut waived_rules: Vec<&String> = baseline
        .waivers
        .keys()
        .chain(report.waiver_counts.keys())
        .collect();
    waived_rules.sort();
    waived_rules.dedup();
    for rule in waived_rules {
        let have = report.waiver_counts.get(rule).copied().unwrap_or(0);
        let base = baseline.waivers.get(rule).copied().unwrap_or(0);
        let known = baseline.waivers.contains_key(rule);
        if have > base {
            if update_baseline && !known {
                rewrite = true;
                ratcheted.waivers.insert(rule.clone(), have);
            } else {
                failures.push(format!(
                    "waiver ratchet: {have} `{rule}` waiver(s), baseline allows {base} — fix \
                     the finding structurally, or retire another `{rule}` waiver"
                ));
            }
        } else if have < base {
            rewrite = true;
            // A rule burnt down to zero keeps its row: `= 0` pins it
            // there, where a missing row could be re-seeded.
            ratcheted.waivers.insert(rule.clone(), have);
            if !update_baseline {
                failures.push(format!(
                    "waiver ratchet: down to {have} `{rule}` waiver(s) but the baseline says \
                     {base} — run `cargo run -p xtask -- lint --update-baseline` to ratchet"
                ));
            }
        }
    }

    if update_baseline && rewrite {
        std::fs::create_dir_all(root.join("analysis"))?;
        std::fs::write(root.join(baseline::BASELINE_PATH), ratcheted.render())?;
    }

    let json = report.render_json(failures.is_empty());
    Ok(LintOutcome {
        report,
        failures,
        json,
    })
}
