//! A lightweight item/body parser on top of the [`lexer`](crate::lexer)
//! token stream.
//!
//! This is deliberately **not** a Rust parser: it recovers exactly the
//! structure the item rules need — function items (with their
//! `impl`/`trait` context as a one-segment qualifier), the panic sites
//! inside each body, and struct definitions with their field types —
//! and nothing else. Everything it cannot understand it skips, so the
//! parse degrades gracefully on arbitrary token streams (a property
//! pinned by `tests/prop_robustness.rs`).
//!
//! Attribution errs toward reporting too much, never too little:
//! closure bodies are attributed to the enclosing `fn`, nested `fn`
//! items are parsed as their own functions, and macro bodies outside
//! functions belong to no function.

use crate::lexer::{LexedFile, Tok, Token};
use crate::rules::FileClass;

/// One potentially-panicking construct inside a function body that
/// clippy cannot deny cleanly: an `assert!`-family macro (a
/// `disallowed_macros` entry for it also fires inside every
/// `debug_assert!`), or a known-panicking `std` method (`swap_remove`,
/// `split_at`, `split_at_mut`, `copy_from_slice`). Panicking calls,
/// indexing, slicing and integer division are clippy's.
#[derive(Debug, Clone)]
pub struct Site {
    /// Short description of the construct (`"assert!"`, `".split_at()"`).
    pub what: String,
    pub line: u32,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Terminal name (`handle_input`).
    pub name: String,
    /// Qualified name: `Type::name` inside `impl Type` / `trait Type`,
    /// otherwise just `name`.
    pub qname: String,
    /// Crate group from [`FileClass`].
    pub crate_name: String,
    pub file: String,
    pub line: u32,
    /// Defined under `#[cfg(test)]` / `#[test]` or in a test target.
    pub is_test: bool,
    pub sites: Vec<Site>,
}

/// One field of a parsed struct.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name (tuple fields get their index as a name).
    pub name: String,
    pub line: u32,
    /// Every identifier appearing in the field's type.
    pub type_idents: Vec<String>,
}

/// One parsed struct definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub crate_name: String,
    pub file: String,
    pub line: u32,
    pub is_test: bool,
    pub fields: Vec<FieldDef>,
}

/// The parsed form of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
}

/// Macros that panic when their condition fails.
const PANIC_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];

/// Methods that can panic even though they are not `unwrap`-shaped.
const PANIC_METHODS: [&str; 4] = ["swap_remove", "split_at", "split_at_mut", "copy_from_slice"];

/// Collection types whose presence in a struct field makes the field
/// growable (the bounded-growth rule's subjects).
pub const GROWABLE_TYPES: [&str; 7] = [
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// Parses one lexed file. `test_ranges` are the `#[cfg(test)]` item
/// spans computed by [`rules`](crate::rules); functions defined inside
/// them are marked `is_test`.
pub fn parse(
    rel_path: &str,
    class: &FileClass,
    lexed: &LexedFile,
    test_ranges: &[(u32, u32)],
) -> ParsedFile {
    let mut p = Parser {
        toks: &lexed.tokens,
        i: 0,
        file: rel_path,
        class,
        test_ranges,
        out: ParsedFile::default(),
    };
    p.items(None, usize::MAX);
    p.out
}

struct Parser<'a> {
    toks: &'a [Token],
    i: usize,
    file: &'a str,
    class: &'a FileClass,
    test_ranges: &'a [(u32, u32)],
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn peek(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.i + off).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.i.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn in_test(&self, line: u32) -> bool {
        self.class.test_target || self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Parses items until `budget` tokens are consumed or a `}` closes
    /// the current scope. `ctx` is the `impl`/`trait` qualifier.
    fn items(&mut self, ctx: Option<&str>, end: usize) {
        while self.i < self.toks.len() && self.i < end {
            match self.peek(0) {
                Some(Tok::Ident(w)) if w == "fn" => self.fn_item(ctx),
                Some(Tok::Ident(w)) if w == "impl" || w == "trait" => self.impl_item(),
                Some(Tok::Ident(w)) if w == "struct" => self.struct_item(),
                Some(Tok::Ident(w)) if w == "mod" => {
                    // `mod name { ... }`: recurse into the block (the
                    // module path does not participate in qualification);
                    // `mod name;` is skipped.
                    self.i += 1;
                    while self.i < self.toks.len() {
                        match self.peek(0) {
                            Some(Tok::Punct('{')) => {
                                let close = self.matching_brace(self.i);
                                self.i += 1;
                                self.items(None, close);
                                self.i = close + 1;
                                break;
                            }
                            Some(Tok::Punct(';')) => {
                                self.i += 1;
                                break;
                            }
                            None => break,
                            _ => self.i += 1,
                        }
                    }
                }
                Some(Tok::Punct('{')) => {
                    // A stray block at item level (e.g. a macro body):
                    // scan inside for items too — macro-generated fns
                    // are better over-reported than missed.
                    let close = self.matching_brace(self.i);
                    self.i += 1;
                    self.items(ctx, close);
                    self.i = close + 1;
                }
                None => break,
                _ => self.i += 1,
            }
        }
        self.i = self.i.min(self.toks.len());
    }

    /// Index of the `}` matching the `{` at `open` (or the last token).
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        let mut j = open;
        while j < self.toks.len() {
            match self.toks[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.toks.len().saturating_sub(1)
    }

    /// `impl [<..>] Type [for Type] { items }` / `trait Name { items }`.
    fn impl_item(&mut self) {
        self.i += 1; // `impl` / `trait`
        let mut after_for: Option<String> = None;
        let mut first_path_seg: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0i32;
        while self.i < self.toks.len() {
            match self.peek(0) {
                Some(Tok::Punct('{')) if angle <= 0 => break,
                Some(Tok::Punct(';')) if angle <= 0 => {
                    // `trait X: Y;`-ish degenerate form: nothing to do.
                    self.i += 1;
                    return;
                }
                Some(Tok::Punct('<')) => {
                    angle += 1;
                    self.i += 1;
                }
                Some(Tok::Punct('>')) => {
                    angle -= 1;
                    self.i += 1;
                }
                Some(Tok::Ident(w)) if w == "for" && angle <= 0 => {
                    saw_for = true;
                    self.i += 1;
                }
                Some(Tok::Ident(w)) if angle <= 0 => {
                    // Track the *last* plain path segment seen at angle
                    // depth 0 on each side of `for`: `a::b::Type` ends
                    // on `Type`.
                    if saw_for {
                        after_for = Some(w.clone());
                    } else {
                        first_path_seg = Some(w.clone());
                    }
                    self.i += 1;
                }
                None => return,
                _ => self.i += 1,
            }
        }
        let ctx = after_for.or(first_path_seg);
        if self.peek(0) == Some(&Tok::Punct('{')) {
            let close = self.matching_brace(self.i);
            self.i += 1;
            self.items(ctx.as_deref(), close);
            self.i = close + 1;
        }
    }

    /// `struct Name [<..>] { fields }` / `struct Name(types);` /
    /// `struct Name;`.
    fn struct_item(&mut self) {
        let kw_line = self.line();
        self.i += 1;
        let Some(Tok::Ident(name)) = self.peek(0) else {
            return;
        };
        let name = name.clone();
        self.i += 1;
        // Skip generics.
        let mut angle = 0i32;
        loop {
            match self.peek(0) {
                Some(Tok::Punct('<')) => angle += 1,
                Some(Tok::Punct('>')) => angle -= 1,
                Some(Tok::Punct('{')) | Some(Tok::Punct('(')) | Some(Tok::Punct(';'))
                    if angle <= 0 =>
                {
                    break;
                }
                None => return,
                _ => {}
            }
            self.i += 1;
        }
        let mut fields = Vec::new();
        match self.peek(0) {
            Some(Tok::Punct('{')) => {
                let close = self.matching_brace(self.i);
                let mut j = self.i + 1;
                // Fields: `[pub] name : Type ,` — split on top-level `,`.
                while j < close {
                    // Skip attributes and doc comments (already gone).
                    while j < close && self.toks[j].tok == Tok::Punct('#') {
                        j = self.skip_attr(j, close);
                    }
                    // Field name = last ident before the `:`.
                    let mut fname: Option<(String, u32)> = None;
                    while j < close {
                        match &self.toks[j].tok {
                            Tok::Punct(':') => break,
                            Tok::Ident(w) if w != "pub" && w != "crate" && w != "super" => {
                                fname = Some((w.clone(), self.toks[j].line));
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if j >= close {
                        break;
                    }
                    j += 1; // `:`
                    let mut type_idents = Vec::new();
                    let mut depth = 0i32;
                    while j < close {
                        match &self.toks[j].tok {
                            Tok::Punct(',') if depth <= 0 => break,
                            Tok::Punct('<') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                            Tok::Punct('>') | Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                            Tok::Ident(w) => type_idents.push(w.clone()),
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some((fname, fline)) = fname {
                        fields.push(FieldDef {
                            name: fname,
                            line: fline,
                            type_idents,
                        });
                    }
                    if j < close {
                        j += 1; // `,`
                    }
                }
                self.i = close + 1;
            }
            Some(Tok::Punct('(')) => {
                // Tuple struct: one synthetic field per top-level `,`.
                let start = self.i;
                let mut depth = 0i32;
                let mut idx = 0usize;
                let mut type_idents = Vec::new();
                let mut j = start;
                while j < self.toks.len() {
                    match &self.toks[j].tok {
                        Tok::Punct('(') | Tok::Punct('<') | Tok::Punct('[') => depth += 1,
                        Tok::Punct(')') | Tok::Punct('>') | Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Punct(',') if depth == 1 => {
                            fields.push(FieldDef {
                                name: idx.to_string(),
                                line: self.toks[j].line,
                                type_idents: std::mem::take(&mut type_idents),
                            });
                            idx += 1;
                        }
                        Tok::Ident(w) => type_idents.push(w.clone()),
                        _ => {}
                    }
                    j += 1;
                }
                if !type_idents.is_empty() {
                    fields.push(FieldDef {
                        name: idx.to_string(),
                        line: kw_line,
                        type_idents,
                    });
                }
                self.i = j + 1;
            }
            _ => {
                self.i += 1;
            }
        }
        self.out.structs.push(StructDef {
            name,
            crate_name: self.class.crate_name.clone(),
            file: self.file.to_string(),
            line: kw_line,
            is_test: self.in_test(kw_line),
            fields,
        });
    }

    /// Skips a `#[...]` attribute starting at `at`; returns the index
    /// after it (clamped to `end`).
    fn skip_attr(&self, at: usize, end: usize) -> usize {
        let mut j = at + 1;
        if self.toks.get(j).map(|t| &t.tok) != Some(&Tok::Punct('[')) {
            return (at + 1).min(end);
        }
        let mut depth = 0usize;
        while j < end {
            match self.toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// `fn name ( .. ) [-> ..] { body }` — or a bodiless declaration.
    fn fn_item(&mut self, ctx: Option<&str>) {
        let fn_line = self.line();
        self.i += 1; // `fn`
        let Some(Tok::Ident(name)) = self.peek(0) else {
            return;
        };
        let name = name.clone();
        self.i += 1;
        // Scan the signature for the body `{` (or `;` for bodiless
        // declarations). `->` return types may contain parens; `where`
        // clauses may contain `<...>`; neither contains braces.
        while self.i < self.toks.len() {
            match self.peek(0) {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct(';')) => {
                    self.i += 1;
                    return; // trait/extern declaration: no body
                }
                None => return,
                _ => self.i += 1,
            }
        }
        if self.peek(0) != Some(&Tok::Punct('{')) {
            return;
        }
        let body_open = self.i;
        let body_close = self.matching_brace(body_open);
        let qname = match ctx {
            Some(c) => format!("{c}::{name}"),
            None => name.clone(),
        };
        let mut def = FnDef {
            name,
            qname,
            crate_name: self.class.crate_name.clone(),
            file: self.file.to_string(),
            line: fn_line,
            is_test: self.in_test(fn_line),
            sites: Vec::new(),
        };
        self.body(body_open, body_close, &mut def);
        // Nested `fn` items inside the body were parsed as separate
        // functions by `body`; the body scan already skipped them.
        self.i = body_close + 1;
        self.out.fns.push(def);
    }

    /// Scans a `{ ... }` body collecting panic sites into `def`.
    /// Nested `fn` items become their own [`FnDef`]s.
    fn body(&mut self, open: usize, close: usize, def: &mut FnDef) {
        let mut j = open;
        while j <= close && j < self.toks.len() {
            let line = self.toks[j].line;
            match &self.toks[j].tok {
                Tok::Ident(w) if w == "fn" => {
                    // A nested function item: parse it independently.
                    let save = self.i;
                    self.i = j;
                    self.fn_item(None);
                    j = self.i;
                    self.i = save;
                    continue;
                }
                Tok::Ident(w) => {
                    let prev = j.checked_sub(1).map(|p| &self.toks[p].tok);
                    let next = self.toks.get(j + 1).map(|t| &t.tok);
                    let next_is_bang = next == Some(&Tok::Punct('!'));

                    // Macro invocation: `name!(..)` / `name![..]` /
                    // `name!{..}` — macro *definitions* are skipped
                    // (`macro_rules!` bodies are not code this fn runs).
                    if next_is_bang && w == "macro_rules" {
                        // Skip the whole definition.
                        let mut k = j + 2;
                        while k < close
                            && !matches!(self.toks[k].tok, Tok::Punct('{') | Tok::Punct('('))
                        {
                            k += 1;
                        }
                        if self.toks.get(k).map(|t| &t.tok) == Some(&Tok::Punct('{')) {
                            j = self.matching_brace(k) + 1;
                        } else {
                            j = k + 1;
                        }
                        continue;
                    }
                    if next_is_bang && w.starts_with("debug_assert") {
                        // Release no-ops: their argument tokens are not
                        // reachable code in production builds, so the
                        // sites inside them must not become sites of the
                        // enclosing fn.
                        let mut k = j + 2;
                        if matches!(
                            self.toks.get(k).map(|t| &t.tok),
                            Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{'))
                        ) {
                            let mut d = 0i32;
                            while k <= close && k < self.toks.len() {
                                match self.toks[k].tok {
                                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
                                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                                        d -= 1;
                                        if d == 0 {
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                        }
                        j = k + 1;
                        continue;
                    }
                    if next_is_bang && PANIC_MACROS.contains(&w.as_str()) {
                        def.sites.push(Site {
                            what: format!("{w}!"),
                            line,
                        });
                    } else if prev == Some(&Tok::Punct('.'))
                        && next == Some(&Tok::Punct('('))
                        && PANIC_METHODS.contains(&w.as_str())
                    {
                        // `.name(...)` only: `Bytes::copy_from_slice(..)`
                        // is a constructor, not a site.
                        def.sites.push(Site {
                            what: format!(".{w}()"),
                            line,
                        });
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{classify, test_ranges};

    fn parse_str(path: &str, src: &str) -> ParsedFile {
        let lexed = lex(src);
        let class = classify(path);
        let ranges = test_ranges(&lexed);
        parse(path, &class, &lexed, &ranges)
    }

    #[test]
    fn qualifies_impl_and_trait_methods() {
        let src = "impl Foo { fn a(&self) {} }\n\
                   impl<T: Clone> Bar<T> for Foo { fn b(&self) {} }\n\
                   trait Baz { fn c(&self) { self.d(); } fn d(&self); }\n\
                   fn free() {}";
        let p = parse_str("crates/core/src/x.rs", src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, ["Foo::a", "Foo::b", "Baz::c", "free"]);
    }

    #[test]
    fn collects_calls_and_sites() {
        let src = "fn f(v: &mut Vec<u8>, m: &M) {\n\
                     v.push(1);\n\
                     let x = m.get(0).unwrap();\n\
                     helper(x);\n\
                     proto::codec::encode(x);\n\
                     assert!(x > 0);\n\
                     v.copy_from_slice(&[x]);\n\
                   }";
        let p = parse_str("crates/core/src/x.rs", src);
        let f = &p.fns[0];
        let sites: Vec<(&str, u32)> = f.sites.iter().map(|s| (s.what.as_str(), s.line)).collect();
        // The calls around them are not sites.
        assert_eq!(sites, [("assert!", 6), (".copy_from_slice()", 7)]);
    }

    #[test]
    fn full_range_slice_and_const_divisor_are_not_sites() {
        // Nor is any other slice, index or division, or a panicking
        // call or macro: clippy denies those at the crate roots.
        let src = "fn f(v: &[u8], n: usize, o: Option<u8>) -> usize {\n\
                     let _ = (&v[..], v[0], &v[1..], o.unwrap(), o.expect(\"x\"));\n\
                     if n == 0 { panic!(\"no\"); unreachable!(); }\n\
                     debug_assert!(n > 1);\n\
                     n / v.len() + n % 3\n\
                   }";
        let p = parse_str("crates/core/src/x.rs", src);
        assert!(p.fns[0].sites.is_empty(), "{:?}", p.fns[0].sites);
    }

    #[test]
    fn struct_fields_capture_type_idents() {
        let src = "struct S { a: Vec<Option<Slot>>, b: HashMap<NodeName, PeerSync>, c: u32 }\n\
                   struct T(VecDeque<u8>, usize);";
        let p = parse_str("crates/core/src/x.rs", src);
        assert_eq!(p.structs.len(), 2);
        let s = &p.structs[0];
        assert_eq!(s.fields.len(), 3);
        assert!(s.fields[0].type_idents.contains(&"Vec".to_string()));
        assert!(s.fields[1].type_idents.contains(&"PeerSync".to_string()));
        let t = &p.structs[1];
        assert_eq!(t.fields.len(), 2);
        assert!(t.fields[0].type_idents.contains(&"VecDeque".to_string()));
    }

    #[test]
    fn test_functions_are_marked() {
        let src = "#[cfg(test)]\nmod tests { fn helper() {} }\nfn prod() {}";
        let p = parse_str("crates/core/src/x.rs", src);
        let helper = p.fns.iter().find(|f| f.name == "helper");
        assert!(helper.is_some_and(|f| f.is_test));
        let prod = p.fns.iter().find(|f| f.name == "prod");
        assert!(prod.is_some_and(|f| !f.is_test));
    }

    #[test]
    fn macro_rules_bodies_are_invisible_to_fn_sites() {
        let src = "fn f() { macro_rules! m { () => { panic!(\"x\") }; } m!(); }";
        let p = parse_str("crates/core/src/x.rs", src);
        assert!(
            p.fns[0].sites.iter().all(|s| s.what != "panic!"),
            "macro definition bodies are not attributed to the defining fn"
        );
    }

    #[test]
    fn degrades_gracefully_on_garbage() {
        for src in [
            "fn",
            "fn (",
            "impl {",
            "struct",
            "struct S {",
            "fn f( {",
            "}}}}{{{{",
            "impl<T for { fn }",
            "mod m { fn x",
        ] {
            let _ = parse_str("crates/core/src/x.rs", src);
        }
    }
}
