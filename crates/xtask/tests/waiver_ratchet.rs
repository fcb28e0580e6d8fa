//! The `[waivers]` ratchet end to end: `run_lint` over a one-file
//! workspace whose only finding is waived, against baselines that allow
//! fewer, exactly as many, and more waivers than the source carries.

use std::path::PathBuf;

use xtask::baseline::{Baseline, BASELINE_PATH};

const WAIVED_CAST: &str = "pub fn low_byte(x: u64) -> u8 {\n\
                           \x20   // lint: allow(lossy_cast) — fixture: truncation is the point\n\
                           \x20   x as u8\n\
                           }\n";

/// A fresh mini-workspace under the test's private temp directory.
fn workspace(name: &str, baseline: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/proto/src")).unwrap();
    std::fs::create_dir_all(root.join("analysis")).unwrap();
    std::fs::write(root.join("crates/proto/src/lib.rs"), WAIVED_CAST).unwrap();
    std::fs::write(root.join(BASELINE_PATH), baseline).unwrap();
    root
}

#[test]
fn waiver_count_may_not_rise_and_must_be_recorded_when_it_falls() {
    let exact = workspace("waivers_exact", "[waivers]\nlossy_cast = 1\n");
    let outcome = xtask::run_lint(&exact, false).unwrap();
    assert_eq!(outcome.report.waiver_counts.get("lossy_cast"), Some(&1));
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);

    // One more waiver than the baseline allows: fails, and
    // `--update-baseline` must not paper over it.
    let risen = workspace("waivers_risen", "[waivers]\nlossy_cast = 0\n");
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
    let fallen = workspace("waivers_fallen", "[waivers]\nlossy_cast = 3\n");
    let outcome = xtask::run_lint(&fallen, false).unwrap();
    assert!(outcome.failures.iter().any(|f| f.contains("down to 1")));
    let outcome = xtask::run_lint(&fallen, true).unwrap();
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let rewritten = std::fs::read_to_string(fallen.join(BASELINE_PATH)).unwrap();
    let parsed = Baseline::parse(&rewritten).unwrap();
    assert_eq!(parsed.waivers.get("lossy_cast"), Some(&1));
}
