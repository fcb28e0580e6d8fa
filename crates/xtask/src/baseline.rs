//! The ratcheted baselines: `analysis/baseline.toml`.
//!
//! Three sections, all down-only ratchets:
//!
//! - `[panic]` (legacy, per-crate) — grandfathered lexical panic-site
//!   counts. After the PR 9 burn-down the checked-in file carries no
//!   entries here; the section is still parsed so old baselines load.
//! - `[panic_paths]` (per entry point) — the count of **unwaived**
//!   panic sites transitively reachable from each declared entry point
//!   of the `panic_path` call-graph rule. Wire entry points are pinned
//!   at zero *regardless* of what this file says.
//! - `[waivers]` (per rule) — the count of inline waiver comments
//!   (see the crate docs for the syntax). Zero active findings means
//!   little if every new finding is simply waived, so the waivers
//!   themselves are ratcheted: adding one fails until an old one is
//!   retired.
//!
//! A PR that adds a path or a waiver fails immediately; a PR that
//! removes one fails until it also tightens the baseline (`cargo run -p
//! xtask -- lint --update-baseline` rewrites the file), so the recorded
//! counts are always exact and the burn-down is visible in the diff
//! history.
//!
//! The file is a flat TOML table parsed by hand — the analyzer is
//! dependency-free by design (it gates the build; nothing in the build
//! may gate it).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Workspace-relative path of the baseline file.
pub const BASELINE_PATH: &str = "analysis/baseline.toml";

/// Per-crate grandfathered panic-site counts (`[panic]`, legacy),
/// per-entry-point reachable-panic-path counts (`[panic_paths]`) and
/// per-rule inline waiver counts (`[waivers]`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    pub panic: BTreeMap<String, u64>,
    pub panic_paths: BTreeMap<String, u64>,
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
            match section.as_str() {
                "panic" => {
                    out.panic.insert(key, value);
                }
                "panic_paths" => {
                    out.panic_paths.insert(key, value);
                }
                "waivers" => {
                    out.waivers.insert(key, value);
                }
                other => {
                    return Err(BaselineError {
                        line: lineno,
                        message: format!("unknown baseline section `[{other}]`"),
                    });
                }
            }
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
             # The lint fails if a count rises (new panic site/path/waiver) OR falls (run\n\
             # with --update-baseline to ratchet it down), so these numbers are\n\
             # always exact and the burn-down shows up in diff history.\n",
        );
        if !self.panic.is_empty() {
            s.push_str(
                "\n# Legacy per-crate lexical panic-site counts (grandfathered).\n[panic]\n",
            );
            for (k, v) in &self.panic {
                let _ = writeln!(s, "{k} = {v}");
            }
        }
        s.push_str(
            "\n# Unwaived panic sites reachable from each declared entry point\n\
             # (`panic_path` rule). Wire entries are pinned at zero regardless of\n\
             # the values here: untrusted bytes must never panic an agent.\n\
             [panic_paths]\n",
        );
        for (k, v) in &self.panic_paths {
            let _ = writeln!(s, "\"{k}\" = {v}");
        }
        s.push_str(
            "\n# Inline `lint: allow(<rule>)` waivers per rule. A finding may be\n\
             # waived only by retiring another waiver of the same rule.\n\
             [waivers]\n",
        );
        for (k, v) in &self.waivers {
            let _ = writeln!(s, "{k} = {v}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let b = Baseline::parse(
            "# c\n[panic]\ncore = 20\nnet = 0\n\
             [panic_paths]\n\"SwimNode::handle_input\" = 3\n\
             [waivers]\npanic_path = 18\n",
        )
        .unwrap();
        assert_eq!(b.panic.get("core"), Some(&20));
        assert_eq!(b.panic.get("net"), Some(&0));
        assert_eq!(b.panic_paths.get("SwimNode::handle_input"), Some(&3));
        assert_eq!(b.waivers.get("panic_path"), Some(&18));
        let again = Baseline::parse(&b.render()).unwrap();
        assert_eq!(again, b);
    }

    #[test]
    fn empty_legacy_section_is_omitted_from_render() {
        let mut b = Baseline::default();
        b.panic_paths.insert("FrameDecoder::decode".into(), 0);
        let text = b.render();
        assert!(!text.contains("[panic]\n"), "{text}");
        assert!(text.contains("[panic_paths]"));
        assert_eq!(Baseline::parse(&text).unwrap(), b);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Baseline::parse("[panic]\ncore = many\n").is_err());
        assert!(Baseline::parse("[mystery]\nx = 1\n").is_err());
        assert!(Baseline::parse("[panic]\nnot a kv\n").is_err());
    }
}
