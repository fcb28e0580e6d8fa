//! The item rules: checks over parsed functions and structs.
//!
//! Built from every parsed non-test function and struct of the
//! production crates (see [`parser`](crate::parser)), two rules run:
//! **panic sites** clippy cannot deny (the `assert!` family and four
//! panicking `std` methods), read from each function's own body; and
//! **bounded growth** of collection fields in long-lived structs, closed
//! over the struct-containment graph from a few roots. Neither follows
//! calls, so there is no call graph. See `docs/ANALYSIS.md` for
//! semantics and scope.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::lexer::Comment;
use crate::parser::{ParsedFile, StructDef, GROWABLE_TYPES};
use crate::rules::{
    waiver_reason, FileClass, Violation, Waiver, RULE_BOUNDED_GROWTH, RULE_PANIC_PATH,
};

/// Configuration of the item rules: scopes and long-lived roots. The
/// workspace uses [`GraphConfig::workspace`]; fixture mini-workspaces
/// construct their own.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Crates whose functions and structs the rules read. A name ending
    /// in `/` is a prefix (`compat/` = every compat shim). Harness
    /// crates (`sim`, `experiments`, the proptest shim) are excluded:
    /// they carry no clippy panic denies for `panic_path` to complete,
    /// and nothing long-lived lives there.
    pub graph_crates: Vec<String>,
    /// Long-lived struct roots for the bounded-growth rule; the rule
    /// closes over struct containment from these.
    pub long_lived_roots: Vec<String>,
    /// Crates whose structs the bounded-growth rule inspects.
    pub bounded_crates: Vec<String>,
    /// The crate holding raw syscall declarations (the polling shim).
    /// It is the one graph crate the panic-site rule skips: the other
    /// six carry clippy's panic denies, and this rule completes them.
    pub syscall_crate: String,
}

impl GraphConfig {
    /// The real workspace's configuration.
    pub fn workspace() -> GraphConfig {
        GraphConfig {
            graph_crates: vec![
                "core".into(),
                "proto".into(),
                "net".into(),
                "metrics".into(),
                "compat/bytes".into(),
                "compat/rand".into(),
                "compat/polling".into(),
            ],
            long_lived_roots: vec![
                "SwimNode".into(),
                "Inner".into(),
                "Agent".into(),
                "Reactor".into(),
            ],
            bounded_crates: vec!["core".into(), "net".into()],
            syscall_crate: "compat/polling".into(),
        }
    }

    /// Whether the rules read `crate_name`.
    fn in_graph(&self, crate_name: &str) -> bool {
        self.graph_crates.iter().any(|g| {
            if let Some(prefix) = g.strip_suffix('/') {
                crate_name == prefix || crate_name.starts_with(g.as_str())
            } else {
                g == crate_name
            }
        })
    }
}

/// Per-file inputs to the item rules, produced by the workspace walk.
#[derive(Debug)]
pub struct FileData {
    pub rel: String,
    pub class: FileClass,
    pub parsed: ParsedFile,
    pub waivers: Vec<Waiver>,
    pub comments: Vec<Comment>,
}

/// Runs both item rules; waived findings carry their reason.
pub fn analyze(files: &[FileData], config: &GraphConfig) -> Vec<Violation> {
    let files: Vec<&FileData> = files
        .iter()
        .filter(|f| config.in_graph(&f.class.crate_name))
        .collect();
    let mut out = Vec::new();
    panic_sites(&files, config, &mut out);
    bounded_growth(&files, config, &mut out);
    out
}

/// Rule `panic_path`: every `assert!`-family macro and panicking `std`
/// method in a non-test function outside the polling shim. The bodies
/// of `check_invariants` functions are exempt: they exist to assert,
/// and only tests call them. A waiver covers its site, or — on the
/// signature line — the whole body.
fn panic_sites(files: &[&FileData], config: &GraphConfig, out: &mut Vec<Violation>) {
    for f in files {
        for d in &f.parsed.fns {
            if d.is_test || d.crate_name == config.syscall_crate || d.name == "check_invariants" {
                continue;
            }
            for s in &d.sites {
                out.push(Violation {
                    rule: RULE_PANIC_PATH,
                    file: d.file.clone(),
                    line: s.line,
                    message: format!("panic site {} in `{}`", s.what, d.qname),
                    waived: waiver_reason(&f.waivers, RULE_PANIC_PATH, s.line)
                        .or_else(|| waiver_reason(&f.waivers, RULE_PANIC_PATH, d.line)),
                });
            }
        }
    }
}

/// Rule `bounded_growth`: growable collection fields in long-lived
/// structs must carry a `// bounded: <how>` annotation (or a waiver).
fn bounded_growth(files: &[&FileData], config: &GraphConfig, out: &mut Vec<Violation>) {
    let structs: Vec<(&StructDef, &FileData)> = files
        .iter()
        .flat_map(|f| f.parsed.structs.iter().map(move |s| (s, *f)))
        .filter(|(s, _)| !s.is_test)
        .collect();
    // Containment closure from the roots, within the graph crates.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, (s, _)) in structs.iter().enumerate() {
        by_name.entry(s.name.as_str()).or_default().push(i);
    }
    let mut long_lived: HashSet<usize> = HashSet::new();
    let mut q: VecDeque<usize> = VecDeque::new();
    for root in &config.long_lived_roots {
        for &i in by_name.get(root.as_str()).into_iter().flatten() {
            if long_lived.insert(i) {
                q.push_back(i);
            }
        }
    }
    while let Some(i) = q.pop_front() {
        for f in &structs[i].0.fields {
            for ty in &f.type_idents {
                for &c in by_name.get(ty.as_str()).into_iter().flatten() {
                    if long_lived.insert(c) {
                        q.push_back(c);
                    }
                }
            }
        }
    }
    let mut ordered: Vec<usize> = long_lived.into_iter().collect();
    ordered.sort_unstable_by_key(|&i| (&structs[i].0.file, structs[i].0.line));
    for i in ordered {
        let (s, fd) = structs[i];
        if !config.bounded_crates.contains(&s.crate_name) {
            continue;
        }
        for field in &s.fields {
            if !field
                .type_idents
                .iter()
                .any(|t| GROWABLE_TYPES.contains(&t.as_str()))
            {
                continue;
            }
            if bounded_annotated(&fd.comments, field.line) {
                continue;
            }
            let waived = waiver_reason(&fd.waivers, RULE_BOUNDED_GROWTH, field.line);
            out.push(Violation {
                rule: RULE_BOUNDED_GROWTH,
                file: s.file.clone(),
                line: field.line,
                message: format!(
                    "field `{}.{}` is a growable collection in a long-lived struct — \
                     document its cap with `// bounded: <how>` or waive",
                    s.name, field.name
                ),
                waived,
            });
        }
    }
}

/// True when a `bounded:` annotation covers `line`: on the line itself
/// or in the contiguous comment run directly above.
fn bounded_annotated(comments: &[Comment], line: u32) -> bool {
    let on = |l: u32| {
        comments
            .iter()
            .find(|c| c.line_start <= l && l <= c.line_end)
    };
    if on(line).is_some_and(|c| c.text.contains("bounded:")) {
        return true;
    }
    let mut cur = line.saturating_sub(1);
    while let Some(c) = on(cur) {
        if c.text.contains("bounded:") {
            return true;
        }
        if c.line_start == 0 {
            break;
        }
        cur = c.line_start - 1;
    }
    false
}
