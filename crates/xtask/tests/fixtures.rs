//! Fixture-based rule tests: each file under `tests/fixtures/` is fed
//! to [`xtask::rules::analyze_file`] under a synthetic workspace path,
//! and the exact `(rule, line, waived)` set is asserted. The fixtures
//! directory is on the analyzer's skip list, so these files never leak
//! into a real `cargo run -p xtask -- lint` run.

use xtask::rules::{analyze_file, RULE_FFI, RULE_LAYERING, RULE_WAIVER};

/// Runs `fixture` as if it lived at `as_path`; returns the sorted
/// `(rule, line, waived)` triples plus the unused-waiver count.
fn run(fixture: &str, as_path: &str) -> (Vec<(&'static str, u32, bool)>, usize) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let (violations, unused) = analyze_file(as_path, &src);
    let mut got: Vec<(&'static str, u32, bool)> = violations
        .iter()
        .map(|v| (v.rule, v.line, v.waived.is_some()))
        .collect();
    got.sort_unstable();
    (got, unused)
}

#[test]
fn layering_flags_io_time_and_threads_in_core() {
    let (got, _) = run("layering.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        got,
        vec![
            (RULE_LAYERING, 1, false), // use std::net::UdpSocket
            (RULE_LAYERING, 2, false), // use std::time::Instant
            (RULE_LAYERING, 5, false), // UdpSocket::bind
            (RULE_LAYERING, 6, false), // Instant::now
            (RULE_LAYERING, 7, false), // std::thread::sleep
        ]
    );
}

#[test]
fn layering_does_not_apply_to_the_io_crate() {
    let (got, _) = run("layering.rs", "crates/net/src/fixture.rs");
    assert_eq!(got, vec![]);
}

#[test]
fn layering_ignores_cfg_test_modules_strings_and_comments() {
    // The fixture's test module uses UdpSocket and Instant, and its
    // non-test body mentions both in a string and a comment; none of
    // those appear in the core-path results above (lines 11-22 absent).
    let (got, _) = run("layering.rs", "crates/core/src/fixture.rs");
    assert!(got.iter().all(|&(_, line, _)| line <= 7), "{got:?}");
}

#[test]
fn waivers_suppress_validate_and_report_staleness() {
    let (got, unused) = run("waivers.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        got,
        vec![
            (RULE_LAYERING, 3, true),   // waived with a reason
            (RULE_LAYERING, 7, false),  // unguarded clock read
            (RULE_LAYERING, 12, false), // a reasonless waiver waives nothing
            (RULE_WAIVER, 10, false),   // ... and is itself a violation
            (RULE_WAIVER, 15, false),   // unknown rule name
            (RULE_WAIVER, 21, false),   // a rule swim-lint no longer has
            (RULE_WAIVER, 24, false),   // ... and so is the lock rule
        ]
    );
    assert_eq!(unused, 1, "the waiver above `fn stale` matches nothing");
}

#[test]
fn ffi_is_confined_to_the_polling_shim() {
    let (outside, _) = run("ffi.rs", "crates/core/src/fixture.rs");
    assert_eq!(outside, vec![(RULE_FFI, 1, false)]);
    let (inside, _) = run("ffi.rs", "crates/compat/polling/src/fixture.rs");
    assert_eq!(inside, vec![], "allowlisted symbol in the FFI home");
}

#[test]
fn ffi_symbols_must_be_allowlisted_even_in_the_shim() {
    let (got, _) = run(
        "ffi_unknown_symbol.rs",
        "crates/compat/polling/src/fixture.rs",
    );
    assert_eq!(got, vec![(RULE_FFI, 3, false)], "execve is not allowlisted");
}

#[test]
fn lexer_side_channels_never_produce_findings() {
    // A core path: `layering` and `ffi` both apply, so every socket,
    // clock, thread, entropy or `extern "C"` token the lexer leaked
    // out of a side channel would be a finding.
    let (got, _) = run("tricky_lexer.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        got,
        vec![],
        "strings, raw strings, byte strings, nested block comments, and \
         char literals must all be invisible to the rules"
    );
}

#[test]
fn fixture_results_are_stable_across_crate_prefix_forms() {
    // `classify` must treat the path the walker produces (relative,
    // forward slashes) consistently; a leading `./` must not change
    // scoping.
    let (a, _) = run("layering.rs", "crates/core/src/fixture.rs");
    let (b, _) = run("layering.rs", "./crates/core/src/fixture.rs");
    assert!(!a.is_empty());
    assert_eq!(a, b);
}
