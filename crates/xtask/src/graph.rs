//! The workspace call graph and the three graph rules.
//!
//! Built from every parsed non-test function (see
//! [`parser`](crate::parser)), the graph resolves calls **by name**,
//! conservatively:
//!
//! - a method call `.foo(...)` links to *every* workspace function named
//!   `foo` (the receiver's type is unknown — this over-approximates
//!   trait objects and closures by construction);
//! - a qualified call `Type::foo(...)` links to the matching
//!   `impl`/`trait` methods when one exists; a qualified call through a
//!   lowercase (module) path or `Self` falls back to name resolution;
//! - a qualified call on a CamelCase type with no workspace `impl` is
//!   external (`u32::from_le_bytes`, `Duration::from_secs`, ...) and
//!   produces no edge.
//!
//! On that graph three rules run: **panic sites** clippy cannot deny
//! (the `assert!` family and four panicking `std` methods), checked per
//! function with no reachability; **lock discipline** (no syscall,
//! direct or reached through a call, under the net driver lock); and
//! **bounded growth** of collection fields in long-lived structs. See
//! `docs/ANALYSIS.md` for semantics and soundness caveats.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::lexer::Comment;
use crate::parser::{Call, FnDef, ParsedFile, StructDef, GROWABLE_TYPES};
use crate::rules::{
    waiver_reason, FileClass, Violation, Waiver, RULE_BOUNDED_GROWTH, RULE_LOCK_DISCIPLINE,
    RULE_PANIC_PATH,
};

/// Configuration of the graph rules: long-lived roots and scopes. The
/// workspace uses [`GraphConfig::workspace`]; fixture mini-workspaces
/// construct their own.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Crates whose functions and structs populate the graph. A name
    /// ending in `/` is a prefix (`compat/` = every compat shim).
    /// Harness crates (`sim`, `experiments`, the proptest shim) are
    /// excluded: production code cannot call into them — no production
    /// crate depends on them — so their deliberately-API-mirroring
    /// names must not absorb name-resolved edges.
    pub graph_crates: Vec<String>,
    /// Direct crate dependencies (`crate → [deps]`), mirroring the
    /// workspace `Cargo.toml`s. Calls to *inherent*-looking method
    /// names resolve only within the caller's dependency cone (its
    /// crate plus the transitive closure of these edges); calls to
    /// names declared as trait methods resolve workspace-wide, since
    /// trait dispatch can genuinely cross layers in either direction
    /// (core's `Sink` is implemented by `net`).
    pub deps: Vec<(String, Vec<String>)>,
    /// Long-lived struct roots for the bounded-growth rule; the rule
    /// closes over struct containment from these.
    pub long_lived_roots: Vec<String>,
    /// Crates whose structs the bounded-growth rule inspects.
    pub bounded_crates: Vec<String>,
    /// Crates whose lock regions the lock-discipline rule inspects.
    pub lock_crates: Vec<String>,
    /// The crate holding raw syscall declarations (the polling shim).
    /// It is the one graph crate the panic-site rule skips: the other
    /// six carry clippy's panic denies, and this rule completes them.
    pub syscall_crate: String,
    /// The raw syscall symbol names (the FFI allowlist).
    pub syscall_symbols: Vec<String>,
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
            deps: vec![
                ("proto".into(), vec!["compat/bytes".into()]),
                (
                    "core".into(),
                    vec![
                        "proto".into(),
                        "metrics".into(),
                        "compat/bytes".into(),
                        "compat/rand".into(),
                    ],
                ),
                (
                    "net".into(),
                    vec![
                        "proto".into(),
                        "metrics".into(),
                        "core".into(),
                        "compat/bytes".into(),
                        "compat/polling".into(),
                    ],
                ),
            ],
            long_lived_roots: vec![
                "SwimNode".into(),
                "Inner".into(),
                "Agent".into(),
                "Reactor".into(),
            ],
            bounded_crates: vec!["core".into(), "net".into()],
            lock_crates: vec!["net".into()],
            syscall_crate: "compat/polling".into(),
            syscall_symbols: crate::rules::FFI_ALLOWLIST
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
        }
    }
}

impl GraphConfig {
    /// Whether `crate_name` participates in the call graph.
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

/// Per-file inputs to the graph pass, produced by the workspace walk.
#[derive(Debug)]
pub struct FileData {
    pub rel: String,
    pub class: FileClass,
    pub parsed: ParsedFile,
    pub waivers: Vec<Waiver>,
    pub comments: Vec<Comment>,
}

/// What the graph pass concluded.
#[derive(Debug, Default)]
pub struct GraphOutcome {
    /// Findings from all three rules (waived ones carry their reason).
    pub violations: Vec<Violation>,
    /// Graph size, for the report.
    pub functions: usize,
    pub edges: usize,
}

/// The resolved workspace call graph.
pub struct CallGraph<'a> {
    fns: Vec<&'a FnDef>,
    structs: Vec<&'a StructDef>,
    by_name: HashMap<&'a str, Vec<usize>>,
    by_qname: HashMap<&'a str, Vec<usize>>,
    /// Adjacency: `edges[i]` = indices of functions `fns[i]` may call.
    edges: Vec<Vec<usize>>,
    files: &'a [FileData],
    /// File index of each fn (into `files`).
    fn_file: Vec<usize>,
    /// Names declared as trait methods anywhere in the graph crates.
    trait_methods: HashSet<String>,
    /// Dependency cones: crate → the crates it can see (not including
    /// itself).
    cones: HashMap<String, HashSet<String>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over every non-test function of the in-graph
    /// crates in `files`.
    pub fn build(files: &'a [FileData], config: &GraphConfig) -> CallGraph<'a> {
        let mut fns = Vec::new();
        let mut fn_file = Vec::new();
        let mut structs = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            if !config.in_graph(&f.class.crate_name) {
                continue;
            }
            for d in &f.parsed.fns {
                if !d.is_test {
                    fns.push(d);
                    fn_file.push(fi);
                }
            }
            for s in &f.parsed.structs {
                if !s.is_test {
                    structs.push(s);
                }
            }
        }
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_qname: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, d) in fns.iter().enumerate() {
            by_name.entry(&d.name).or_default().push(i);
            by_qname.entry(&d.qname).or_default().push(i);
        }
        let mut trait_methods: HashSet<String> = HashSet::new();
        for f in files {
            if config.in_graph(&f.class.crate_name) {
                trait_methods.extend(f.parsed.trait_methods.iter().cloned());
            }
        }
        // Transitive dependency closure.
        let mut cones: HashMap<String, HashSet<String>> = HashMap::new();
        let direct: HashMap<&str, &Vec<String>> =
            config.deps.iter().map(|(k, v)| (k.as_str(), v)).collect();
        for (name, deps) in &config.deps {
            let mut seen: HashSet<String> = HashSet::new();
            let mut q: VecDeque<&str> = deps.iter().map(String::as_str).collect();
            while let Some(d) = q.pop_front() {
                if seen.insert(d.to_string()) {
                    for dd in direct.get(d).map(|v| v.iter()).into_iter().flatten() {
                        q.push_back(dd);
                    }
                }
            }
            cones.insert(name.clone(), seen);
        }
        let mut g = CallGraph {
            fns,
            structs,
            by_name,
            by_qname,
            edges: Vec::new(),
            files,
            fn_file,
            trait_methods,
            cones,
        };
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(g.fns.len());
        for d in &g.fns {
            let mut out: Vec<usize> = Vec::new();
            for c in &d.calls {
                g.resolve(&d.crate_name, &c.path, c.method, &mut out);
            }
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        g.edges = edges;
        g
    }

    /// Resolves one call from a function in `caller_crate` to graph
    /// indices (see module docs for the name-resolution policy).
    fn resolve(&self, caller_crate: &str, path: &[String], method: bool, out: &mut Vec<usize>) {
        let Some(last) = path.last() else { return };
        let trait_name = self.trait_methods.contains(last.as_str());
        let in_cone = |i: &usize| -> bool {
            if trait_name {
                return true;
            }
            let c = self.fns[*i].crate_name.as_str();
            c == caller_crate
                || self
                    .cones
                    .get(caller_crate)
                    .is_some_and(|s| s.contains(c))
        };
        if method || path.len() == 1 {
            if let Some(v) = self.by_name.get(last.as_str()) {
                out.extend(v.iter().filter(|i| in_cone(i)).copied());
            }
            return;
        }
        let head = &path[path.len() - 2];
        let key = format!("{head}::{last}");
        if let Some(v) = self.by_qname.get(key.as_str()) {
            out.extend(v.iter().filter(|i| in_cone(i)).copied());
            return;
        }
        let module_ish = head == "Self"
            || head == "self"
            || head == "crate"
            || head == "super"
            || head.chars().next().is_some_and(|c| c.is_lowercase());
        if module_ish {
            if let Some(v) = self.by_name.get(last.as_str()) {
                out.extend(v.iter().filter(|i| in_cone(i)).copied());
            }
        }
        // CamelCase head with no workspace impl: external, no edge.
    }

    /// Total resolved edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The set of functions that can (transitively) reach any of
    /// `targets` — a reverse BFS.
    fn reaching_set(&self, targets: &HashSet<usize>) -> HashMap<usize, usize> {
        // next[i] = the callee through which i reaches a target.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (i, outs) in self.edges.iter().enumerate() {
            for &t in outs {
                rev[t].push(i);
            }
        }
        let mut next: HashMap<usize, usize> = HashMap::new();
        let mut q: VecDeque<usize> = VecDeque::new();
        for &t in targets {
            next.insert(t, usize::MAX);
            q.push_back(t);
        }
        while let Some(i) = q.pop_front() {
            for &caller in &rev[i] {
                if let std::collections::hash_map::Entry::Vacant(e) = next.entry(caller) {
                    e.insert(i);
                    q.push_back(caller);
                }
            }
        }
        next
    }

    /// Finds a `rule` waiver covering `line` in the file of fn `i`:
    /// site-level first, then a fn-level waiver on the fn's signature
    /// line (which covers the whole body). Marks the waiver used.
    fn waived(&self, i: usize, line: u32, rule: &str) -> Option<String> {
        let waivers = &self.files[self.fn_file[i]].waivers;
        waiver_reason(waivers, rule, line)
            .or_else(|| waiver_reason(waivers, rule, self.fns[i].line))
    }
}

/// Runs all three graph rules.
pub fn analyze(files: &[FileData], config: &GraphConfig) -> GraphOutcome {
    let g = CallGraph::build(files, config);
    let mut out = GraphOutcome {
        functions: g.fns.len(),
        edges: g.edge_count(),
        ..GraphOutcome::default()
    };
    panic_sites(&g, config, &mut out);
    lock_discipline(&g, config, &mut out);
    bounded_growth(&g, config, &mut out);
    out
}

/// Rule `panic_path`: every `assert!`-family macro and panicking `std`
/// method in a non-test function outside the polling shim. The bodies
/// of `check_invariants` functions are exempt: they exist to assert,
/// and only tests call them.
fn panic_sites(g: &CallGraph<'_>, config: &GraphConfig, out: &mut GraphOutcome) {
    for (i, d) in g.fns.iter().enumerate() {
        if d.crate_name == config.syscall_crate || d.name == "check_invariants" {
            continue;
        }
        for s in &d.sites {
            out.violations.push(Violation {
                rule: RULE_PANIC_PATH,
                file: d.file.clone(),
                line: s.line,
                message: format!("panic site {} in `{}`", s.what, d.qname),
                waived: g.waived(i, s.line, RULE_PANIC_PATH),
            });
        }
    }
}

/// `std::net` / `std::io` socket methods that are one syscall each. The
/// lock crates reach the kernel through these as well as through the
/// polling shim (the datagram path is the shim's `sendmmsg`, but a
/// direct `UdpSocket::send_to` under the guard is still a syscall).
const SOCKET_IO_METHODS: [&str; 7] = [
    "accept",
    "read",
    "read_exact",
    "recv_from",
    "send_to",
    "write",
    "write_all",
];

/// Whether `c` is itself one syscall: a raw symbol of the polling shim
/// (`write(fd, …)`, `TcpStream::connect`), or a std socket method.
fn is_syscall(c: &Call, config: &GraphConfig) -> bool {
    c.path.last().is_some_and(|last| {
        config.syscall_symbols.iter().any(|s| s == last)
            || (c.method && SOCKET_IO_METHODS.contains(&last.as_str()))
    })
}

/// Rule `lock_discipline`: no syscall — made directly, or reached
/// through a polling-shim wrapper or a fn calling a std socket method —
/// while the net driver lock is lexically held.
fn lock_discipline(g: &CallGraph<'_>, config: &GraphConfig, out: &mut GraphOutcome) {
    // Seeds: shim and lock-crate functions that make a syscall directly.
    let seeds: HashSet<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            (d.crate_name == config.syscall_crate || config.lock_crates.contains(&d.crate_name))
                && d.calls.iter().any(|c| is_syscall(c, config))
        })
        .map(|(i, _)| i)
        .collect();
    let reaches_syscall = g.reaching_set(&seeds);
    for (i, d) in g.fns.iter().enumerate() {
        if !config.lock_crates.contains(&d.crate_name) {
            continue;
        }
        for c in &d.calls {
            if !c.in_lock {
                continue;
            }
            let message = if is_syscall(c, config) {
                format!(
                    "call under the driver lock is a syscall: {} (in `{}`)",
                    c.path.join("::"),
                    d.qname
                )
            } else {
                let mut targets = Vec::new();
                g.resolve(&d.crate_name, &c.path, c.method, &mut targets);
                let Some(&hit) = targets.iter().find(|t| reaches_syscall.contains_key(t)) else {
                    continue;
                };
                // Chain from the called fn down to the syscall seed.
                let mut chain = vec![g.fns[hit].qname.clone()];
                let mut cur = hit;
                while let Some(&n) = reaches_syscall.get(&cur) {
                    if n == usize::MAX {
                        break;
                    }
                    chain.push(g.fns[n].qname.clone());
                    cur = n;
                }
                format!(
                    "call under the driver lock reaches a syscall wrapper: {} (in `{}`)",
                    chain.join(" → "),
                    d.qname
                )
            };
            let waived = g.waived(i, c.line, RULE_LOCK_DISCIPLINE);
            out.violations.push(Violation {
                rule: RULE_LOCK_DISCIPLINE,
                file: d.file.clone(),
                line: c.line,
                message,
                waived,
            });
        }
    }
}

/// Rule `bounded_growth`: growable collection fields in long-lived
/// structs must carry a `// bounded: <how>` annotation (or a waiver).
fn bounded_growth(g: &CallGraph<'_>, config: &GraphConfig, out: &mut GraphOutcome) {
    // Containment closure from the roots, within the bounded crates.
    let by_name: HashMap<&str, Vec<usize>> = {
        let mut m: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, s) in g.structs.iter().enumerate() {
            m.entry(s.name.as_str()).or_default().push(i);
        }
        m
    };
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
        for f in &g.structs[i].fields {
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
    ordered.sort_unstable_by_key(|&i| (&g.structs[i].file, g.structs[i].line));
    for i in ordered {
        let s = g.structs[i];
        if !config.bounded_crates.contains(&s.crate_name) {
            continue;
        }
        let Some(fd) = g
            .files
            .iter()
            .find(|f| f.rel == s.file)
        else {
            continue;
        };
        for field in &s.fields {
            if !field.type_idents.iter().any(|t| GROWABLE_TYPES.contains(&t.as_str())) {
                continue;
            }
            if bounded_annotated(&fd.comments, field.line) {
                continue;
            }
            let waived = waiver_reason(&fd.waivers, RULE_BOUNDED_GROWTH, field.line);
            out.violations.push(Violation {
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
    let on = |l: u32| comments.iter().find(|c| c.line_start <= l && l <= c.line_end);
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
