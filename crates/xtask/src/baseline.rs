//! The ratcheted baseline: `analysis/baseline.toml`.
//!
//! One section, a down-only ratchet: `[waivers]` (per rule) — the count
//! of inline waiver comments (see the crate docs for the syntax), plus
//! one row per clippy lint excepted by a non-test
//! `#[expect(clippy::<lint>, …)]` / `#[allow(..)]` attribute (key
//! `"clippy::<lint>"`). Zero active findings means little if every new
//! finding is simply waived, so the waivers themselves are ratcheted:
//! adding one fails until an old one is retired.
//!
//! A PR that adds a waiver fails immediately; a PR that removes one
//! fails until it also tightens the baseline (`cargo run -p xtask --
//! lint --update-baseline` rewrites the file), so the recorded counts
//! are always exact and the burn-down is visible in the diff history.
//!
//! The file is a flat TOML table parsed by hand — the analyzer is
//! dependency-free by design (it gates the build; nothing in the build
//! may gate it).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Workspace-relative path of the baseline file.
pub const BASELINE_PATH: &str = "analysis/baseline.toml";

/// Per-rule waiver counts (`[waivers]`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    pub waivers: BTreeMap<String, u64>,
}

/// A baseline file that fails to parse (the gate must not silently
/// treat a corrupt baseline as "everything is allowed").
#[derive(Debug, PartialEq, Eq)]
pub struct BaselineError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", BASELINE_PATH, self.line, self.message)
    }
}

impl Baseline {
    /// Parses the TOML subset the baseline uses: `# comments`,
    /// `[section]` headers, and `key = <integer>` entries.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let mut out = Baseline::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("expected `key = count`, got `{line}`"),
                });
            };
            let key = key.trim().trim_matches('"').to_string();
            let value: u64 = value.trim().parse().map_err(|_| BaselineError {
                line: lineno,
                message: format!("count for `{key}` is not a non-negative integer"),
            })?;
            if section != "waivers" {
                return Err(BaselineError {
                    line: lineno,
                    message: format!("unknown baseline section `[{section}]`"),
                });
            }
            out.waivers.insert(key, value);
        }
        Ok(out)
    }

    /// Loads the baseline from `root`, treating a missing file as
    /// empty (zero tolerance everywhere).
    pub fn load(root: &Path) -> Result<Baseline, BaselineError> {
        match std::fs::read_to_string(root.join(BASELINE_PATH)) {
            Ok(text) => Baseline::parse(&text),
            Err(_) => Ok(Baseline::default()),
        }
    }

    /// Renders the file back out (used by `--update-baseline`).
    pub fn render(&self) -> String {
        let mut s = String::from(
            "# Ratcheted baselines — maintained by `cargo run -p xtask -- lint`.\n\
             #\n\
             # The lint fails if a count rises (new waiver) OR falls (run\n\
             # with --update-baseline to ratchet it down), so these numbers are\n\
             # always exact and the burn-down shows up in diff history.\n",
        );
        s.push_str(
            "\n# Inline `lint: allow(<rule>)` waivers per rule, and reasoned\n\
             # `#[expect(clippy::<lint>, ..)]` exceptions per lint. A finding may\n\
             # be waived only by retiring another waiver of the same rule.\n\
             [waivers]\n",
        );
        for (k, v) in &self.waivers {
            // `clippy::panic` is not a bare TOML key.
            if k.contains(':') {
                let _ = writeln!(s, "\"{k}\" = {v}");
            } else {
                let _ = writeln!(s, "{k} = {v}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let b =
            Baseline::parse("# c\n[waivers]\npanic_path = 18\n\"clippy::panic\" = 1\n").unwrap();
        assert_eq!(b.waivers.get("panic_path"), Some(&18));
        assert_eq!(b.waivers.get("clippy::panic"), Some(&1));
        let text = b.render();
        assert!(text.contains("panic_path = 18\n"), "{text}");
        assert!(text.contains("\"clippy::panic\" = 1\n"), "{text}");
        assert_eq!(Baseline::parse(&text).unwrap(), b);
    }

    #[test]
    fn legacy_panic_section_is_rejected() {
        // The per-entry `[panic_paths]` ratchet went with the
        // reachability pass (clippy denies those sites crate-wide now):
        // a stale file must fail loudly, not load as if nothing were
        // there.
        let err =
            Baseline::parse("[waivers]\npanic_path = 2\n[panic_paths]\n\"Snapshot::decode\" = 0\n");
        assert_eq!(err.map_err(|e| e.line), Err(4));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Baseline::parse("[waivers]\npanic_path = many\n").is_err());
        assert!(Baseline::parse("[mystery]\nx = 1\n").is_err());
        assert!(Baseline::parse("[waivers]\nnot a kv\n").is_err());
    }
}
