//! Rendering: the human-readable table and `target/ANALYSIS.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::{Violation, ALL_RULES};

/// The full result of one analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, including waived ones.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files: usize,
    /// Location and rule of each waiver that matched nothing (stale —
    /// surfaced so it gets deleted instead of rotting): `(file, line,
    /// rule)`.
    pub stale_waivers: Vec<(String, u32, String)>,
    /// Inline waivers per rule, used or stale, and reasoned clippy
    /// exceptions per `clippy::<lint>` (the `[waivers]` ratchet input).
    pub waiver_counts: BTreeMap<String, u64>,
}

impl Report {
    /// Active (unwaived) violations of `rule`.
    pub fn active<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Violation> + 'a {
        self.violations
            .iter()
            .filter(move |v| v.rule == rule && v.waived.is_none())
    }

    /// Waived violations of `rule`.
    pub fn waived<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Violation> + 'a {
        self.violations
            .iter()
            .filter(move |v| v.rule == rule && v.waived.is_some())
    }

    /// The per-rule summary table plus a listing of active violations.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "swim-lint: {} files analyzed", self.files);
        let _ = writeln!(s, "{:<16} {:>8} {:>8}", "rule", "active", "waived");
        let _ = writeln!(s, "{:-<16} {:->8} {:->8}", "", "", "");
        for rule in ALL_RULES {
            let active = self.active(rule).count();
            let waived = self.waived(rule).count();
            let _ = writeln!(s, "{rule:<16} {active:>8} {waived:>8}");
        }
        if !self.stale_waivers.is_empty() {
            let n = self.stale_waivers.len();
            let _ = writeln!(s, "warning: {n} stale waiver(s) match nothing");
            for (file, line, rule) in &self.stale_waivers {
                let _ = writeln!(s, "    {file}:{line}: allow({rule})");
            }
        }
        let mut active: Vec<&Violation> = self
            .violations
            .iter()
            .filter(|v| v.waived.is_none())
            .collect();
        active.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        for v in active {
            let _ = writeln!(s, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        }
        s
    }

    /// The machine-readable report (`target/ANALYSIS.json`): per-rule
    /// counts and every active violation.
    pub fn render_json(&self, passed: bool) -> String {
        let mut s = String::from("{\n  \"schema\": 5,\n");
        let _ = writeln!(s, "  \"passed\": {passed},");
        let _ = writeln!(s, "  \"files_analyzed\": {},", self.files);
        let _ = writeln!(s, "  \"unused_waivers\": {},", self.stale_waivers.len());
        s.push_str("  \"rules\": {\n");
        for (i, rule) in ALL_RULES.iter().enumerate() {
            let comma = if i + 1 == ALL_RULES.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    \"{rule}\": {{\"active\": {}, \"waived\": {}}}{comma}",
                self.active(rule).count(),
                self.waived(rule).count()
            );
        }
        s.push_str("  },\n  \"violations\": [\n");
        let mut active: Vec<&Violation> = self
            .violations
            .iter()
            .filter(|v| v.waived.is_none())
            .collect();
        active.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        for (i, v) in active.iter().enumerate() {
            let comma = if i + 1 == active.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}",
                v.rule,
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn table_lists_rules() {
        let r = Report::default();
        let t = r.render_table();
        for rule in ALL_RULES {
            assert!(t.contains(rule), "{rule} missing from table");
        }
    }
}
