//! Property tests: the analyzer must never panic, whatever bytes it is
//! fed. swim-lint runs in CI over every source file in the workspace —
//! including half-saved, mid-rebase, or macro-mangled ones — so the
//! lexer, parser, and item rules all have to degrade gracefully on
//! arbitrary (even non-UTF-8-shaped, even unbalanced) input.

use proptest::prelude::*;
use xtask::graph::GraphConfig;
use xtask::{analyze_sources, lexer, rules};

/// Rust-ish fragments: random bytes almost never form interesting token
/// runs, so half the coverage comes from splicing real syntax shapes
/// (unbalanced braces, stray waivers, half-written impls) together.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "pub ",
    "impl ",
    "struct ",
    "trait ",
    "mod ",
    "unsafe ",
    "extern \"C\" ",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "::",
    ".",
    "!",
    "#",
    "->",
    "=>",
    "&mut ",
    "x",
    "Node",
    "self",
    "driver",
    "lock",
    "unwrap",
    "expect",
    "panic!",
    "Vec",
    "push",
    "write",
    "macro_rules! m ",
    "let ",
    "= ",
    "\"str \\\" ing\"",
    "r#\"raw\"#",
    "b'\\x7f'",
    "// comment\n",
    "/* block",
    "*/",
    "/// doc\n",
    "// lint: allow(panic_path) — reason\n",
    "// lint: allow(",
    "// bounded: cap\n",
    "#[cfg(test)]",
    "#[expect(clippy::panic, reason = \"r\")]",
    "allow(clippy::",
    "0u8 as u32",
    "1_000",
    "'a",
    "<T>",
    "where T: Sized",
    "debug_assert!(",
    "\n",
];

fn fragment_soup(picks: &[u8]) -> String {
    let mut s = String::new();
    for &p in picks {
        s.push_str(FRAGMENTS[p as usize % FRAGMENTS.len()]);
    }
    s
}

proptest! {
    /// The lexer and the lexical rules survive arbitrary byte soup.
    #[test]
    fn lexical_pass_never_panics_on_bytes(bytes in collection::vec(any::<u8>(), 0..400)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let lexed = lexer::lex(&src);
        let _ = rules::analyze_lexed("crates/core/src/fuzz.rs", &lexed);
    }

    /// The full pipeline — lexer, parser, both item rules, the
    /// clippy-exception count — survives arbitrary splices of Rust-shaped fragments
    /// (unterminated strings and comments, unbalanced brackets, waiver
    /// syntax cut off mid-token).
    #[test]
    fn full_pipeline_never_panics_on_fragment_soup(picks in collection::vec(any::<u8>(), 0..120)) {
        let src = fragment_soup(&picks);
        let sources = vec![
            ("crates/core/src/fuzz.rs".to_string(), src.clone()),
            ("crates/net/src/fuzz.rs".to_string(), src),
        ];
        let report = analyze_sources(&sources, &GraphConfig::workspace());
        // Any answer is fine; reaching here without unwinding is the
        // property. Touch the report so the call cannot be elided.
        prop_assert!(report.files >= 2);
    }

    /// Same property on raw byte soup through the whole pipeline.
    #[test]
    fn full_pipeline_never_panics_on_bytes(bytes in collection::vec(any::<u8>(), 0..300)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let sources = vec![("crates/core/src/fuzz.rs".to_string(), src)];
        let report = analyze_sources(&sources, &GraphConfig::workspace());
        prop_assert!(report.files == 1);
    }
}
