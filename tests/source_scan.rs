//! Pins every non-test exception to the workspace's panic and unsafe
//! rules, so that adding one, or retiring one, is a change to
//! [`EXCEPTIONS`]:
//!
//! * an `assert!`, `assert_eq!` or `assert_ne!` in the non-test code of
//!   the six crates that carry clippy's panic denies, outside the
//!   `check_invariants` functions, which exist to assert and which only
//!   tests call. (Clippy's `disallowed-macros` also fires inside every
//!   `debug_assert!` expansion.)
//! * a non-test `#[allow(..)]` or `#[expect(..)]` of a clippy lint or of
//!   `unsafe_code`, anywhere in the workspace's sources. Clippy requires
//!   each one's reason and fails an `#[expect]` that no longer fires.
//!
//! The scan is comment- and literal-aware and skips `#[cfg(test)]` and
//! `#[test]` items and `tests` directories. It has no dependencies.

use std::fs;
use std::path::{Path, PathBuf};

/// Every non-test exception: what is excepted, in which file, on or in
/// which `fn` (`crate`: a crate-root attribute). Each gives its reason at
/// the site, in a `reason = ".."` or in a comment on the `fn`.
const EXCEPTIONS: [&str; 7] = [
    "assert! crates/compat/bytes/src/lib.rs slice", // Bytes::slice
    "assert! crates/compat/rand/src/lib.rs assert_non_empty",
    "assert! crates/core/src/node.rs start", // SwimNode::start
    "clippy::indexing_slicing crates/compat/bytes/src/lib.rs deref", // Bytes::deref
    "clippy::panic crates/core/src/node.rs new", // SwimNode::new
    "unsafe_code crates/compat/polling/src/lib.rs crate",
    "unsafe_code crates/proto/src/types.rs as_str", // NodeName::as_str
];

/// The crates whose non-test code may not `assert!`.
const PANIC_DENIED: &str = "core proto net metrics compat/bytes compat/rand";

#[derive(PartialEq)]
enum Tok {
    Word(String),
    Punct(char),
    /// A string, byte-string or char literal; its contents never count.
    Lit,
}

/// The tokens of `src`, without comments or lifetimes.
fn lex(src: &str) -> Vec<Tok> {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or('\0');
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let hashes = |from: usize| (from..).take_while(|&k| at(k) == '#').count();
    let (mut toks, mut i) = (Vec::new(), 0);
    while i < s.len() {
        let c = at(i);
        if c == '/' && at(i + 1) == '/' {
            while i < s.len() && at(i) != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < s.len() {
                match (at(i), at(i + 1)) {
                    ('/', '*') => (depth, i) = (depth + 1, i + 2),
                    ('*', '/') => (depth, i) = (depth - 1, i + 2),
                    _ => i += 1,
                }
                if depth == 0 {
                    break;
                }
            }
        } else if c == '"' {
            i += 1;
            while i < s.len() && at(i) != '"' {
                i += if at(i) == '\\' { 2 } else { 1 };
            }
            i += 1;
            toks.push(Tok::Lit);
        } else if c == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal; an escape's second char may be a quote.
            i += if at(i + 1) == '\\' { 3 } else { 2 };
            while i < s.len() && at(i) != '\'' {
                i += 1;
            }
            i += 1;
            toks.push(Tok::Lit);
        } else if word(c) || c == '\'' {
            // A word, a lifetime (dropped) or a literal's prefix.
            let start = i;
            i += 1;
            while word(at(i)) {
                i += 1;
            }
            let w: String = s[start..i].iter().collect();
            let n = hashes(i);
            if (w == "r" || w == "br") && at(i + n) == '"' {
                i += n + 1;
                while i < s.len() && !(at(i) == '"' && hashes(i + 1) >= n) {
                    i += 1;
                }
                i += 1 + n;
                toks.push(Tok::Lit);
            } else if c != '\'' && !(w == "b" && (at(i) == '"' || at(i) == '\'')) {
                toks.push(Tok::Word(w));
            }
        } else {
            if !c.is_whitespace() {
                toks.push(Tok::Punct(c));
            }
            i += 1;
        }
    }
    toks
}

fn is(tok: Option<&Tok>, word: &str) -> bool {
    matches!(tok, Some(Tok::Word(w)) if w == word)
}

fn punct(tok: Option<&Tok>, c: char) -> bool {
    tok == Some(&Tok::Punct(c))
}

/// The index of the token after the group that opens at `open`.
fn after_group(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return k + 1;
        }
    }
    toks.len()
}

/// Adds the exceptions in one file's non-test code to `found`.
fn scan(file: &str, src: &str, found: &mut Vec<String>) {
    let toks = lex(src);
    let denied = |c: &str| file.starts_with(&format!("crates/{c}/"));
    let asserts_denied = PANIC_DENIED.split(' ').any(denied);
    // The open `fn` bodies with their brace depths, the `fn` whose body
    // the next `{` opens, and the brace and bracket depths.
    let mut fns: Vec<(String, i32)> = Vec::new();
    let (mut pending, mut depth, mut parens) = (None, 0, 0);
    let site = |what: &str, item: &str| format!("{what} {file} {item}");
    let mut i = 0;
    while let Some(tok) = toks.get(i) {
        let enclosing = || fns.last().map_or("crate".to_string(), |f| f.0.clone());
        match tok {
            Tok::Punct('#') => {
                let inner = punct(toks.get(i + 1), '!');
                let open = i + 1 + usize::from(inner);
                let end = after_group(&toks, open);
                let attr = toks.get(open..end).unwrap_or_default();
                let has = |w: &str| attr.iter().any(|t| is(Some(t), w));
                let cfg_test = is(attr.get(1), "cfg") && has("test") && !has("not");
                // The header of the item an outer attribute sits on.
                let mut k = end;
                while k < toks.len() && !punct(toks.get(k), '{') && !punct(toks.get(k), ';') {
                    let group = punct(toks.get(k), '(') || punct(toks.get(k), '[');
                    k = if group { after_group(&toks, k) } else { k + 1 };
                }
                if !inner && (cfg_test || is(attr.get(1), "test")) {
                    let body = punct(toks.get(k), '{');
                    i = if body { after_group(&toks, k) } else { k + 1 };
                    continue;
                }
                let next_fn = (end..k).find(|&f| is(toks.get(f), "fn"));
                let item = match next_fn.and_then(|f| toks.get(f + 1)) {
                    Some(Tok::Word(name)) if !inner => name.clone(),
                    _ => enclosing(),
                };
                for (a, t) in attr.iter().enumerate() {
                    if !(is(Some(t), "allow") || is(Some(t), "expect")) {
                        continue;
                    }
                    let list = &attr[a + 1..after_group(attr, a + 1)];
                    for (m, t) in list.iter().enumerate() {
                        match (t, list.get(m + 3)) {
                            (Tok::Word(w), Some(Tok::Word(lint))) if w == "clippy" => {
                                found.push(site(&format!("clippy::{lint}"), &item));
                            }
                            (Tok::Word(w), _) if w == "unsafe_code" => found.push(site(w, &item)),
                            _ => {}
                        }
                    }
                }
                i = end;
                continue;
            }
            Tok::Word(w) if w == "fn" => {
                if let Some(Tok::Word(name)) = toks.get(i + 1) {
                    pending = Some(name.clone());
                }
            }
            Tok::Word(w) if ["assert", "assert_eq", "assert_ne"].contains(&w.as_str()) => {
                let invariants = fns.iter().any(|f| f.0 == "check_invariants");
                if asserts_denied && !invariants && punct(toks.get(i + 1), '!') {
                    found.push(site("assert!", &enclosing()));
                }
            }
            Tok::Punct('{') => {
                depth += 1;
                if let Some(name) = pending.take() {
                    fns.push((name, depth));
                }
            }
            Tok::Punct('}') => {
                if fns.last().is_some_and(|f| f.1 == depth) {
                    fns.pop();
                }
                depth -= 1;
            }
            Tok::Punct('(' | '[') => parens += 1,
            Tok::Punct(')' | ']') => parens -= 1,
            // A bodiless `fn`: in a trait, or in an `extern` block.
            Tok::Punct(';') if parens == 0 => pending = None,
            _ => {}
        }
        i += 1;
    }
}

/// Every `.rs` file under `dir`, but those under a `tests` directory.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("tests") {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn non_test_exceptions_are_exactly_the_pinned_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(&root.join("src"), &mut files);
    for group in [root.join("crates"), root.join("crates/compat")] {
        for krate in fs::read_dir(group).into_iter().flatten().flatten() {
            sources(&krate.path().join("src"), &mut files);
        }
    }
    assert!(files.len() > 40, "found only {} source files", files.len());
    let mut found = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).expect("under the root");
        let src = fs::read_to_string(path).expect("readable source");
        scan(&rel.to_string_lossy().replace('\\', "/"), &src, &mut found);
    }
    found.sort();
    let mut pinned = EXCEPTIONS.map(String::from);
    pinned.sort();
    assert_eq!(
        found, pinned,
        "the non-test exceptions changed: a new one needs a reason at its site and a row in \
         EXCEPTIONS; a retired one loses its row"
    );
}

#[test]
fn the_scan_skips_comments_literals_and_test_items() {
    let src = r####"
        // assert!(a) /* nested /* */ assert!(b) */
        /* assert!(c) /* assert!(d) */ */
        const S: [&str; 3] = ["assert!(e) \" #[allow(clippy::panic)]", r#"assert!(f) "#, br"#"];
        const C: [u8; 3] = [b'"', b'\'', b'a'];
        fn lifetimes<'a>(x: &'a str, c: char) -> &'a str { debug_assert!(c != '"'); x }
        #[cfg(test)]
        mod tests { fn t() { assert!(true); } }
        #[test] fn u() { assert_eq!(1, 1); }
        impl<T: Fn() -> u8> Thing<T> for Wrapper<T> {
            #[expect(clippy::panic, unsafe_code, reason = "x")]
            fn check_invariants(&self) { assert!(true); }
            fn f(&self) { let g = |x: u8| { assert_ne!(x, 0) }; }
        }
        #[cfg(not(test))]
        fn prod() { assert!(true) }
    "####;
    let mut found = Vec::new();
    scan("x.rs", src, &mut found);
    let expected = [
        "clippy::panic x.rs check_invariants",
        "unsafe_code x.rs check_invariants",
    ];
    assert_eq!(found, expected, "outside the panic-denied crates");
    found.clear();
    scan("crates/net/x.rs", src, &mut found);
    assert_eq!(
        found[2..],
        ["assert! crates/net/x.rs f", "assert! crates/net/x.rs prod"]
    );
}
