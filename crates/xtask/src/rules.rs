//! The analyzer's rule engine: file classification, `#[cfg(test)]`
//! exclusion, waiver parsing, the two lexical rules (`layering`, `ffi`)
//! and the count of reasoned clippy exceptions.
//!
//! Every rule works on the [`lexer`](crate::lexer) token stream, so
//! comments, strings, and raw strings can never produce false
//! positives, and waivers are read from the comment side-channel the
//! lexer preserves.

use crate::lexer::{lex, Comment, LexedFile, Tok};

/// Rule identifiers, used in waivers (`// lint: allow(<rule>) — why`),
/// the baseline file, and the JSON report.
pub const RULE_LAYERING: &str = "layering";
pub const RULE_FFI: &str = "ffi";
pub const RULE_WAIVER: &str = "waiver";
/// Item rules over parsed functions and structs (see
/// [`graph`](crate::graph)).
pub const RULE_PANIC_PATH: &str = "panic_path";
pub const RULE_BOUNDED_GROWTH: &str = "bounded_growth";

/// All rules, for reports and waiver validation.
pub const ALL_RULES: [&str; 5] = [
    RULE_LAYERING,
    RULE_FFI,
    RULE_WAIVER,
    RULE_PANIC_PATH,
    RULE_BOUNDED_GROWTH,
];

/// `extern "C"` symbols the FFI rule accepts, all of them confined to
/// `crates/compat/polling` (the one place raw syscall declarations are
/// allowed to live). Anything else — a new symbol or a new location —
/// fails the lint until this list and `docs/ANALYSIS.md` are updated.
pub const FFI_ALLOWLIST: [&str; 10] = [
    "close", "connect", "fcntl", "pipe", "poll", "read", "recvmmsg", "sendmmsg", "socket", "write",
];

/// Crate (group) that may declare `extern "C"` symbols.
pub const FFI_HOME: &str = "compat/polling";

/// One finding. `file` is workspace-relative with `/` separators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// `Some(reason)` when an inline waiver covered this finding.
    pub waived: Option<String>,
}

/// How a file participates in the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate group: `core`, `proto`, `net`, `sim`, `experiments`,
    /// `xtask`, `compat/<name>`, or `root`.
    pub crate_name: String,
    /// Whether the file is a test/bench/example target (under a
    /// `tests/`, `benches/`, or `examples/` directory).
    pub test_target: bool,
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let rel = rel.strip_prefix("./").unwrap_or(rel);
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") {
        if parts.get(1) == Some(&"compat") {
            format!("compat/{}", parts.get(2).unwrap_or(&"?"))
        } else {
            (*parts.get(1).unwrap_or(&"?")).to_string()
        }
    } else {
        "root".to_string()
    };
    let test_target = parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
    FileClass {
        crate_name,
        test_target,
    }
}

/// A parsed inline waiver. Public so the item-rule pass can honor
/// waivers for its rules after the lexical pass ran; `used` is a `Cell`
/// so both passes can mark coverage before stale waivers are counted.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    /// Lines the waiver covers: its comment's own span plus the first
    /// code line after it.
    pub line_start: u32,
    pub line_end: u32,
    pub used: std::cell::Cell<bool>,
}

/// Parses `lint: allow(<rule>) <sep> <reason>` out of a comment.
/// Malformed waivers (unknown rule, missing reason) are violations of
/// the `waiver` rule — a waiver that silently fails to parse would
/// otherwise *look* like coverage.
pub fn parse_waivers(comments: &[Comment], file: &str, bad: &mut Vec<Violation>) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint: allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            bad.push(Violation {
                rule: RULE_WAIVER,
                file: file.to_string(),
                line: c.line_start,
                message: "unterminated waiver: missing `)`".into(),
                waived: None,
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !ALL_RULES.contains(&rule.as_str()) {
            bad.push(Violation {
                rule: RULE_WAIVER,
                file: file.to_string(),
                line: c.line_start,
                message: format!("waiver names unknown rule `{rule}`"),
                waived: None,
            });
            continue;
        }
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim()
            .to_string();
        if reason.is_empty() {
            bad.push(Violation {
                rule: RULE_WAIVER,
                file: file.to_string(),
                line: c.line_start,
                message: format!("waiver for `{rule}` has no reason — say why"),
                waived: None,
            });
            continue;
        }
        out.push(Waiver {
            rule,
            reason,
            line_start: c.line_start,
            line_end: c.line_end + 1,
            used: std::cell::Cell::new(false),
        });
    }
    out
}

/// The reason of the first `rule` waiver covering `line`, marking that
/// waiver used.
pub fn waiver_reason(waivers: &[Waiver], rule: &str, line: u32) -> Option<String> {
    let w = waivers
        .iter()
        .find(|w| w.rule == rule && w.line_start <= line && line <= w.line_end)?;
    w.used.set(true);
    Some(w.reason.clone())
}

/// Line ranges occupied by `#[cfg(test)]` / `#[test]`-attributed items
/// (the item body is skipped by test-scoped rules, and functions and
/// structs inside them by the item rules).
pub fn test_ranges(lexed: &LexedFile) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok != Tok::Punct('#') {
            i += 1;
            continue;
        }
        // Attribute: `#[ ... ]` (with nested brackets).
        let Some(open) = toks.get(i + 1) else { break };
        if open.tok != Tok::Punct('[') {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = match idents.first().copied() {
            // `#[cfg(test)]`, `#[cfg(any(test, ...))]` — but not
            // `#[cfg(not(test))]` (that marks *production* code).
            Some("cfg") => idents.contains(&"test") && !idents.contains(&"not"),
            // `#[test]`, `#[tokio::test]`, `#[bench]`.
            Some("test") | Some("bench") => true,
            Some(_) if idents.last().copied() == Some("test") => true,
            _ => false,
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then the item header, up to the
        // item's body `{ ... }` (or a `;` for bodiless items).
        let mut k = j + 1;
        let mut body_depth = 0usize;
        let mut end_line = attr_line;
        while k < toks.len() {
            match &toks[k].tok {
                Tok::Punct('{') => body_depth += 1,
                Tok::Punct('}') => {
                    body_depth = body_depth.saturating_sub(1);
                    if body_depth == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                Tok::Punct(';') if body_depth == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[k].line;
            k += 1;
        }
        ranges.push((attr_line, end_line));
        i = k + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Analyzes one file's source, returning all findings (waived findings
/// carry their reason) plus the count of declared-but-unused waivers.
///
/// This is the lexical-rules-only convenience wrapper (fixture tests
/// use it); the workspace walk lexes once and feeds
/// [`analyze_lexed`] + the parser + the item-rule pass, counting unused
/// waivers only after every pass had a chance to use them.
pub fn analyze_file(rel_path: &str, src: &str) -> (Vec<Violation>, usize) {
    let lexed = lex(src);
    let (violations, waivers) = analyze_lexed(rel_path, &lexed);
    let unused = waivers.iter().filter(|w| !w.used.get()).count();
    (violations, unused)
}

/// Runs the lexical rules over an already-lexed file, returning the
/// findings plus the parsed waivers (with lexical coverage marked).
pub fn analyze_lexed(rel_path: &str, lexed: &LexedFile) -> (Vec<Violation>, Vec<Waiver>) {
    let class = classify(rel_path);
    let mut violations: Vec<Violation> = Vec::new();
    // The analyzer's own sources document the waiver syntax in prose;
    // don't parse those mentions as (malformed) waivers. No rule is
    // scoped to `xtask` anyway, so a real waiver there is meaningless.
    let waivers = if class.crate_name == "xtask" {
        Vec::new()
    } else {
        parse_waivers(&lexed.comments, rel_path, &mut violations)
    };
    let excluded = test_ranges(lexed);

    let mut push = |rule: &'static str, line: u32, message: String| {
        let waived = waiver_reason(&waivers, rule, line);
        violations.push(Violation {
            rule,
            file: rel_path.to_string(),
            line,
            message,
            waived,
        });
    };

    let toks = &lexed.tokens;
    let in_test = |line: u32| in_ranges(&excluded, line);

    // --- Rule: sans-I/O layering -------------------------------------
    // `metrics` must stay sans-I/O and clock-free so the core can embed
    // it and the simulator stays deterministic.
    let layering_scope = !class.test_target
        && matches!(class.crate_name.as_str(), "core" | "proto" | "sim" | "metrics");

    const IO_TYPES: [&str; 3] = ["UdpSocket", "TcpStream", "TcpListener"];
    const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];
    const ENTROPY: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "from_os_rng"];

    for (i, t) in toks.iter().enumerate() {
        let line = t.line;
        let Tok::Ident(word) = &t.tok else {
            // `extern "C"` is Ident + Literal; handled from the ident.
            continue;
        };
        let word = word.as_str();

        if layering_scope && !in_test(line) {
            if IO_TYPES.contains(&word) {
                push(
                    RULE_LAYERING,
                    line,
                    format!("{word}: socket I/O is confined to crates/net (sans-I/O layering)"),
                );
            } else if CLOCK_TYPES.contains(&word) {
                push(
                    RULE_LAYERING,
                    line,
                    format!("{word}: wall-clock time must flow through `Time`/`Input::Tick`"),
                );
            } else if ENTROPY.contains(&word) {
                push(
                    RULE_LAYERING,
                    line,
                    format!("{word}: randomness must come from the seeded RNG shim"),
                );
            } else if word == "std"
                && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Ident("thread".into()))
            {
                push(
                    RULE_LAYERING,
                    line,
                    "std::thread: threads are an I/O-runtime concern, not a core one".into(),
                );
            }
        }

        if word == "extern" {
            if let Some(Tok::Literal(Some(abi))) = toks.get(i + 1).map(|t| &t.tok) {
                if class.crate_name != FFI_HOME {
                    push(
                        RULE_FFI,
                        line,
                        format!(
                            "extern \"{abi}\" outside {FFI_HOME}: FFI is confined to the polling shim"
                        ),
                    );
                } else if toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct('{')) {
                    // Walk the foreign block, checking declared symbols.
                    let mut depth = 0usize;
                    let mut k = i + 2;
                    while k < toks.len() {
                        match &toks[k].tok {
                            Tok::Punct('{') => depth += 1,
                            Tok::Punct('}') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Tok::Ident(f) if f == "fn" => {
                                if let Some(Tok::Ident(name)) = toks.get(k + 1).map(|t| &t.tok) {
                                    if !FFI_ALLOWLIST.contains(&name.as_str()) {
                                        push(
                                            RULE_FFI,
                                            toks[k + 1].line,
                                            format!(
                                                "extern symbol `{name}` is not on the FFI allowlist"
                                            ),
                                        );
                                    }
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
        }
    }

    (violations, waivers)
}

/// The clippy lints that non-test `#[allow(..)]` / `#[expect(..)]`
/// attributes except, one entry per lint per attribute
/// (`"clippy::panic"` for `#[expect(clippy::panic, reason = "…")]`).
/// These are the reasoned exceptions the `[waivers]` ratchet counts
/// beside the `lint: allow` comments.
pub fn clippy_exceptions(lexed: &LexedFile, test_ranges: &[(u32, u32)]) -> Vec<String> {
    let toks = &lexed.tokens;
    let tok = |k: usize| toks.get(k).map(|t| &t.tok);
    let is_ident = |k: usize, w: &str| matches!(tok(k), Some(Tok::Ident(s)) if s == w);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        // `#[allow(`, `#![expect(`, `cfg_attr(…, expect(` — never a
        // method call such as `.expect(`.
        let attr_position = matches!(
            i.checked_sub(1).and_then(tok),
            Some(Tok::Punct('[' | '(' | ','))
        );
        if !(is_ident(i, "allow") || is_ident(i, "expect"))
            || !attr_position
            || tok(i + 1) != Some(&Tok::Punct('('))
            || in_ranges(test_ranges, t.line)
        {
            continue;
        }
        let mut depth = 0usize;
        let mut k = i + 1;
        while let Some(tk) = tok(k) {
            match tk {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(w) if w == "clippy" => {
                    if let (Some(Tok::Punct(':')), Some(Tok::Punct(':')), Some(Tok::Ident(lint))) =
                        (tok(k + 1), tok(k + 2), tok(k + 3))
                    {
                        out.push(format!("clippy::{lint}"));
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/node.rs").crate_name, "core");
        assert_eq!(
            classify("crates/compat/polling/src/lib.rs").crate_name,
            "compat/polling"
        );
        assert_eq!(classify("src/lib.rs").crate_name, "root");
        assert!(classify("crates/core/tests/prop_core.rs").test_target);
        assert!(classify("crates/net/tests/reactor_gates.rs").test_target);
        assert!(!classify("crates/net/src/reactor.rs").test_target);
    }

    #[test]
    fn clippy_exceptions_counts_attributes_outside_tests() {
        let lexed = lex("#![allow(clippy::todo, reason = \"a\")]\n\
             #[cfg_attr(not(test), expect(clippy::panic, clippy::unwrap_used, reason = \"b\"))]\n\
             fn f() { x.expect(\"clippy::panic\"); }\n\
             #[deny(clippy::panic)]\n\
             #[cfg(test)]\n\
             mod tests { #[expect(clippy::panic, reason = \"c\")] fn t() {} }\n");
        let ranges = test_ranges(&lexed);
        assert_eq!(
            clippy_exceptions(&lexed, &ranges),
            ["clippy::todo", "clippy::panic", "clippy::unwrap_used"]
        );
    }
}
