//! Mini-workspace tests for the call-graph rules: each test feeds a
//! handful of synthetic sources through [`xtask::analyze_sources`] with
//! a purpose-built [`GraphConfig`] and asserts the exact
//! `(rule, entry point, example path)` triples — not just counts — so a
//! resolution regression (a dropped edge, a mis-scoped crate) shows up
//! as a concrete wrong chain, not a silently smaller number.

use xtask::analyze_sources;
use xtask::graph::{EntrySpec, GraphConfig};
use xtask::rules::{RULE_BOUNDED_GROWTH, RULE_LOCK_DISCIPLINE, RULE_PANIC_PATH};

fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(rel, src)| ((*rel).to_string(), (*src).to_string()))
        .collect()
}

/// A config whose graph covers `core`, `net`, and the polling shim,
/// with no entries or roots — tests switch on exactly the rule under
/// test so fixtures cannot trip each other.
fn base_config() -> GraphConfig {
    GraphConfig {
        graph_crates: vec!["core".into(), "net".into(), "compat/polling".into()],
        deps: vec![
            ("core".into(), vec![]),
            ("net".into(), vec!["core".into(), "compat/polling".into()]),
        ],
        panic_entries: vec![],
        long_lived_roots: vec![],
        bounded_crates: vec![],
        lock_crates: vec![],
        syscall_crate: "compat/polling".into(),
        syscall_symbols: vec!["write".into(), "sendmmsg".into()],
    }
}

fn entry(qname: &str, wire: bool) -> EntrySpec {
    EntrySpec {
        qname: qname.into(),
        wire,
    }
}

const PANIC_CHAIN_SRC: &str = r#"
pub struct Node;
impl Node {
    pub fn handle(&mut self, b: &[u8]) {
        helper(b);
    }
}
fn helper(b: &[u8]) {
    decode(b);
}
fn decode(b: &[u8]) -> u8 {
    b.first().copied().unwrap()
}
"#;

#[test]
fn panic_path_reports_the_exact_transitive_chain() {
    let mut config = base_config();
    config.panic_entries = vec![entry("Node::handle", true)];
    let report = analyze_sources(
        &sources(&[("crates/core/src/lib.rs", PANIC_CHAIN_SRC)]),
        &config,
    );

    let active: Vec<_> = report.active(RULE_PANIC_PATH).collect();
    assert_eq!(active.len(), 1, "{active:?}");
    assert_eq!(active[0].file, "crates/core/src/lib.rs");
    assert_eq!(active[0].line, 12, "the .unwrap() line");
    assert_eq!(
        active[0].message,
        "panic site .unwrap() reachable from entry `Node::handle` \
         via Node::handle → helper → decode"
    );

    assert_eq!(report.entry_counts.get("Node::handle"), Some(&1));
    assert_eq!(
        report.entry_chains.get("Node::handle").map(Vec::as_slice),
        Some(
            &["Node::handle → helper → decode → .unwrap() \
               (crates/core/src/lib.rs:12)"
                .to_string()][..]
        )
    );
}

#[test]
fn panic_path_fn_level_waiver_kills_every_path_through_the_fn() {
    let waived_src = PANIC_CHAIN_SRC.replace(
        "fn decode(b: &[u8]) -> u8 {",
        "// lint: allow(panic_path) — fixture: caller guarantees non-empty input\n\
         fn decode(b: &[u8]) -> u8 {",
    );
    let mut config = base_config();
    config.panic_entries = vec![entry("Node::handle", true)];
    let report = analyze_sources(
        &sources(&[("crates/core/src/lib.rs", &waived_src)]),
        &config,
    );
    assert_eq!(report.active(RULE_PANIC_PATH).count(), 0);
    assert_eq!(report.waived(RULE_PANIC_PATH).count(), 1);
    assert_eq!(report.entry_counts.get("Node::handle"), Some(&0));
    assert_eq!(
        report.entry_chains.get("Node::handle").map(Vec::len),
        Some(0),
        "waived sites must not produce example chains"
    );
}

#[test]
fn panic_path_is_scoped_per_entry_point() {
    // Two entries: only `Node::handle` reaches the panic; `Node::quiet`
    // must report zero paths even though it lives in the same impl.
    let src = r#"
pub struct Node;
impl Node {
    pub fn handle(&mut self, b: &[u8]) {
        decode(b);
    }
    pub fn quiet(&self) -> u32 {
        7
    }
}
fn decode(b: &[u8]) -> u8 {
    b[0]
}
"#;
    let mut config = base_config();
    config.panic_entries = vec![entry("Node::handle", true), entry("Node::quiet", false)];
    let report = analyze_sources(&sources(&[("crates/core/src/lib.rs", src)]), &config);
    assert_eq!(report.entry_counts.get("Node::handle"), Some(&1));
    assert_eq!(report.entry_counts.get("Node::quiet"), Some(&0));
    let chains = report.entry_chains.get("Node::handle").unwrap();
    assert_eq!(
        chains,
        &["Node::handle → decode → [..] indexing/slicing (crates/core/src/lib.rs:12)".to_string()],
        "indexing must be reported as a panic site with its chain"
    );
}

#[test]
fn lock_discipline_traces_the_call_to_the_syscall_wrapper() {
    let shim = r#"
pub fn send_now(fd: i32) -> i32 {
    // SAFETY: fixture — raw call is the point of the shim.
    unsafe { write(fd) }
}
extern "C" {
    fn write(fd: i32) -> i32;
}
"#;
    let agent = r#"
pub struct Agent;
impl Agent {
    pub fn flush(&self) {
        let mut g = self.driver.lock();
        g.step();
        send_now(0);
    }
    pub fn outside(&self) {
        send_now(0);
    }
}
"#;
    let mut config = base_config();
    config.lock_crates = vec!["net".into()];
    let report = analyze_sources(
        &sources(&[
            ("crates/compat/polling/src/lib.rs", shim),
            ("crates/net/src/agent.rs", agent),
        ]),
        &config,
    );
    let active: Vec<_> = report.active(RULE_LOCK_DISCIPLINE).collect();
    assert_eq!(active.len(), 1, "{active:?}");
    assert_eq!(active[0].file, "crates/net/src/agent.rs");
    assert_eq!(active[0].line, 7, "the send_now call under the guard");
    assert_eq!(
        active[0].message,
        "call under the driver lock reaches a syscall wrapper: \
         send_now (in `Agent::flush`)"
    );
}

#[test]
fn lock_discipline_counts_std_socket_methods_as_syscalls() {
    let agent = r#"
pub struct Agent;
impl Agent {
    pub fn drive(&self) {
        {
            let mut g = self.driver.lock();
            g.step();
            send_counted(&self.udp);
        }
        send_counted(&self.udp);
    }
}
fn send_counted(udp: &UdpSocket) {
    let _ = udp.send_to(b"x", "127.0.0.1:1");
}
"#;
    let mut config = base_config();
    config.lock_crates = vec!["net".into()];
    let report = analyze_sources(&sources(&[("crates/net/src/agent.rs", agent)]), &config);
    let active: Vec<_> = report.active(RULE_LOCK_DISCIPLINE).collect();
    assert_eq!(active.len(), 1, "{active:?}");
    assert_eq!(
        active[0].line, 8,
        "the send under the guard, not the one after it"
    );
    assert_eq!(
        active[0].message,
        "call under the driver lock reaches a syscall wrapper: \
         send_counted (in `Agent::drive`)"
    );
}

#[test]
fn lock_discipline_flags_a_syscall_made_directly_under_the_lock() {
    // The call under the guard resolves to no workspace fn — it *is*
    // the syscall — so only the direct check can see it.
    let agent = r#"
pub struct Reactor;
impl Reactor {
    fn drive(&mut self, input: Input) {
        {
            let mut driver = self.inner.driver.lock();
            let _ = driver.handle(input, &mut self.send_io);
            let _ = self.inner.udp.send_to(&[], self.inner.advertised.socket_addr());
        }
        self.flush();
    }
}
"#;
    let mut config = base_config();
    config.lock_crates = vec!["net".into()];
    let report = analyze_sources(&sources(&[("crates/net/src/reactor.rs", agent)]), &config);
    let active: Vec<_> = report.active(RULE_LOCK_DISCIPLINE).collect();
    assert_eq!(active.len(), 1, "{active:?}");
    assert_eq!(active[0].line, 8, "the send_to under the guard");
    assert_eq!(
        active[0].message,
        "call under the driver lock is a syscall: send_to (in `Reactor::drive`)"
    );
}

#[test]
fn lock_discipline_region_ends_at_drop() {
    let shim = r#"
pub fn send_now(fd: i32) -> i32 {
    // SAFETY: fixture — raw call is the point of the shim.
    unsafe { write(fd) }
}
extern "C" {
    fn write(fd: i32) -> i32;
}
"#;
    let agent = r#"
pub struct Agent;
impl Agent {
    pub fn flush(&self) {
        let mut g = self.driver.lock();
        g.step();
        drop(g);
        send_now(0);
    }
}
"#;
    let mut config = base_config();
    config.lock_crates = vec!["net".into()];
    let report = analyze_sources(
        &sources(&[
            ("crates/compat/polling/src/lib.rs", shim),
            ("crates/net/src/agent.rs", agent),
        ]),
        &config,
    );
    assert_eq!(
        report.active(RULE_LOCK_DISCIPLINE).count(),
        0,
        "after drop(guard) the lock region is over"
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
