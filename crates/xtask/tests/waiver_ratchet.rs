//! The `[waivers]` ratchet end to end: `run_lint` over a one-file
//! workspace whose only finding is waived, against baselines that allow
//! fewer, exactly as many, and more waivers than the source carries.

use std::path::PathBuf;

use xtask::baseline::{Baseline, BASELINE_PATH};

const WAIVED_CLOCK: &str = "pub fn now_us() -> u128 {\n\
                            \x20   // lint: allow(layering) — fixture: the one audited wall-clock read\n\
                            \x20   std::time::Instant::now().elapsed().as_micros()\n\
                            }\n";

/// A reasoned clippy exception outside tests (counted) and one inside
/// a `#[cfg(test)]` module (not counted).
const EXPECTED_PANIC: &str = "#[expect(clippy::panic, reason = \"fixture: documented contract\")]\n\
                              pub fn boom() { panic!(\"contract\") }\n\
                              #[cfg(test)]\n\
                              mod tests {\n\
                              \x20   #[expect(clippy::unwrap_used, reason = \"tests may unwrap\")]\n\
                              \x20   fn t() { None::<u8>.unwrap(); }\n\
                              }\n";

/// A fresh mini-workspace under the test's private temp directory.
fn workspace(name: &str, lib: &str, baseline: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/core/src")).unwrap();
    std::fs::create_dir_all(root.join("analysis")).unwrap();
    std::fs::write(root.join("crates/core/src/lib.rs"), lib).unwrap();
    std::fs::write(root.join(BASELINE_PATH), baseline).unwrap();
    root
}

#[test]
fn waiver_count_may_not_rise_and_must_be_recorded_when_it_falls() {
    let exact = workspace("waivers_exact", WAIVED_CLOCK, "[waivers]\nlayering = 1\n");
    let outcome = xtask::run_lint(&exact, false).unwrap();
    assert_eq!(outcome.report.waiver_counts.get("layering"), Some(&1));
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    // One more waiver than the baseline allows: fails, and
    // `--update-baseline` must not paper over it.
    let risen = workspace("waivers_risen", WAIVED_CLOCK, "[waivers]\nlayering = 0\n");
    for update in [false, true] {
        let outcome = xtask::run_lint(&risen, update).unwrap();
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("waiver ratchet")),
            "update={update}: {:?}",
            outcome.failures
        );
    }

    // Fewer waivers than recorded: fails until the baseline is
    // ratcheted down, which `--update-baseline` does.
    let fallen = workspace("waivers_fallen", WAIVED_CLOCK, "[waivers]\nlayering = 3\n");
    let outcome = xtask::run_lint(&fallen, false).unwrap();
    assert!(outcome.failures.iter().any(|f| f.contains("down to 1")));
    let outcome = xtask::run_lint(&fallen, true).unwrap();
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let rewritten = std::fs::read_to_string(fallen.join(BASELINE_PATH)).unwrap();
    let parsed = Baseline::parse(&rewritten).unwrap();
    assert_eq!(parsed.waivers.get("layering"), Some(&1));
}

/// A row for a rule swim-lint does not have would pass forever at
/// `have = base = 0`; it fails instead, `--update-baseline` or not.
#[test]
fn baseline_row_for_an_unknown_rule_fails() {
    let root = workspace(
        "waivers_unknown_row",
        WAIVED_CLOCK,
        "[waivers]\nbogus_rule = 0\nlayering = 1\n",
    );
    for update in [false, true] {
        let outcome = xtask::run_lint(&root, update).unwrap();
        assert!(
            outcome
                .failures
                .iter()
                .any(|f| f.contains("`bogus_rule` names no swim-lint rule")),
            "update={update}: {:?}",
            outcome.failures
        );
    }
}

#[test]
fn clippy_expectations_are_ratcheted_like_waivers() {
    let exact = workspace(
        "clippy_exact",
        EXPECTED_PANIC,
        "[waivers]\n\"clippy::panic\" = 1\n",
    );
    let outcome = xtask::run_lint(&exact, false).unwrap();
    assert_eq!(outcome.report.waiver_counts.get("clippy::panic"), Some(&1));
    assert_eq!(outcome.report.waiver_counts.get("clippy::unwrap_used"), None);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    let risen = workspace("clippy_risen", EXPECTED_PANIC, "[waivers]\n\"clippy::panic\" = 0\n");
    let outcome = xtask::run_lint(&risen, true).unwrap();
    assert!(
        outcome
            .failures
            .iter()
            .any(|f| f.contains("1 `clippy::panic` waiver(s), baseline allows 0")),
        "{:?}",
        outcome.failures
    );
}
