//! Mini-workspace tests for the item rules: each test feeds a handful
//! of synthetic sources through [`xtask::analyze_sources`] with a
//! purpose-built [`GraphConfig`] and asserts the exact findings — rule,
//! line and message, not just counts — so a scoping regression (a
//! mis-scoped crate, a missed containment step) shows up as a concrete
//! wrong finding, not a silently smaller number.

use xtask::analyze_sources;
use xtask::graph::GraphConfig;
use xtask::report::Report;
use xtask::rules::{RULE_BOUNDED_GROWTH, RULE_PANIC_PATH};

fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(rel, src)| ((*rel).to_string(), (*src).to_string()))
        .collect()
}

/// A config covering `core`, `net`, and the polling shim, with no
/// long-lived roots — tests switch on exactly the rule under test so
/// fixtures cannot trip each other.
fn base_config() -> GraphConfig {
    GraphConfig {
        graph_crates: vec!["core".into(), "net".into(), "compat/polling".into()],
        long_lived_roots: vec![],
        bounded_crates: vec![],
        syscall_crate: "compat/polling".into(),
    }
}

/// `(line, message, waived)` of every `panic_path` finding, in order.
fn panic_findings(report: &Report) -> Vec<(u32, String, bool)> {
    let mut got: Vec<(u32, String, bool)> = report
        .violations
        .iter()
        .filter(|v| v.rule == RULE_PANIC_PATH)
        .map(|v| (v.line, v.message.clone(), v.waived.is_some()))
        .collect();
    got.sort();
    got
}

#[test]
fn panic_path_flags_an_assert_nothing_calls() {
    // No entry point reaches `orphan`: the check is per function, so
    // its `assert!` is a finding all the same.
    let src = r#"
pub struct Node;
impl Node {
    pub fn handle(&mut self, b: &[u8]) -> usize {
        b.len()
    }
}
fn orphan(n: usize) {
    assert!(n > 0, "never empty");
}
"#;
    let report = analyze_sources(&sources(&[("crates/core/src/lib.rs", src)]), &base_config());
    assert_eq!(
        panic_findings(&report),
        [(9, "panic site assert! in `orphan`".to_string(), false)]
    );
}

#[test]
fn panic_path_exempts_check_invariants_and_test_code() {
    let src = r#"
pub struct Table;
impl Table {
    pub fn check_invariants(&self) {
        assert_eq!(self.len(), 0);
    }
}
#[cfg(test)]
mod tests {
    fn helper(v: &mut Vec<u8>) {
        assert_ne!(v.len(), 0);
        v.swap_remove(0);
    }
}
"#;
    let shim = "pub fn fill(a: &mut [u8], b: &[u8]) { a.copy_from_slice(b); }\n";
    let report = analyze_sources(
        &sources(&[
            ("crates/core/src/lib.rs", src),
            ("crates/core/tests/it.rs", "fn t() { assert!(false); }\n"),
            ("crates/compat/polling/src/lib.rs", shim),
        ]),
        &base_config(),
    );
    assert_eq!(panic_findings(&report), []);
}

#[test]
fn panic_path_flags_copy_from_slice_but_not_the_path_call() {
    let src = r#"
pub fn fill(dst: &mut [u8], src: &[u8]) {
    dst.copy_from_slice(src);
}
pub fn wrap(src: &[u8]) -> Bytes {
    Bytes::copy_from_slice(src)
}
"#;
    let report = analyze_sources(&sources(&[("crates/net/src/lib.rs", src)]), &base_config());
    assert_eq!(
        panic_findings(&report),
        [(
            3,
            "panic site .copy_from_slice() in `fill`".to_string(),
            false
        )]
    );
}

#[test]
fn panic_path_fn_level_waiver_covers_every_site_in_the_body() {
    let src = r#"
// lint: allow(panic_path) — fixture: callers check both lengths first
fn split(b: &[u8], n: usize) -> (&[u8], &[u8]) {
    assert!(n <= b.len());
    b.split_at(n)
}
fn unwaived(b: &[u8]) -> (&[u8], &[u8]) {
    b.split_at(1)
}
"#;
    let report = analyze_sources(&sources(&[("crates/core/src/lib.rs", src)]), &base_config());
    assert_eq!(
        panic_findings(&report),
        [
            (4, "panic site assert! in `split`".to_string(), true),
            (5, "panic site .split_at() in `split`".to_string(), true),
            (8, "panic site .split_at() in `unwaived`".to_string(), false),
        ]
    );
    assert!(
        report.stale_waivers.is_empty(),
        "{:?}",
        report.stale_waivers
    );
}

#[test]
fn bounded_growth_requires_annotation_and_closes_over_containment() {
    let src = r#"
pub struct Node {
    peers: Vec<u8>,
    // bounded: capped at k entries; retire() evicts beyond that
    log: Vec<u8>,
    inner: Inner,
    count: u64,
}
pub struct Inner {
    backlog: Vec<u8>,
}
pub struct Unreachable {
    grows: Vec<u8>,
}
"#;
    let mut config = base_config();
    config.long_lived_roots = vec!["Node".into()];
    config.bounded_crates = vec!["core".into()];
    let report = analyze_sources(&sources(&[("crates/core/src/lib.rs", src)]), &config);
    let mut active: Vec<(u32, &str)> = report
        .active(RULE_BOUNDED_GROWTH)
        .map(|v| (v.line, v.message.as_str()))
        .collect();
    active.sort_unstable();
    assert_eq!(active.len(), 2, "{active:?}");
    assert_eq!(active[0].0, 3, "Node.peers is unannotated");
    assert!(
        active[0].1.contains("`Node.peers`"),
        "message names struct.field: {}",
        active[0].1
    );
    assert_eq!(
        active[1].0, 10,
        "Inner.backlog is reached through the containment closure"
    );
    assert!(active[1].1.contains("`Inner.backlog`"), "{}", active[1].1);
    // `log` is annotated, `count` is not growable, and `Unreachable`
    // is not contained in any long-lived root.
}
