//! A brace-matched item parser over the lexer's token stream.
//!
//! Token-level rules can see *what* a line does; they cannot see *who
//! reaches it*. This module adds exactly the structure the reachability
//! rules need and nothing more: `fn`/`impl`/`mod`/`use` items with
//! spans, and for every function an owned summary — parameters, call
//! sites with argument counts, indexing sites, wallclock reads — that
//! the workspace passes ([`crate::graph`]) join across files.
//!
//! Like the lexer underneath it, the parser is **total**: it never
//! panics and never rejects, on any token stream (property-tested in
//! `tests/parse_props.rs`). Unbalanced braces simply truncate the
//! current item at end of file. It is also deliberately **not** a Rust
//! front-end: no macro expansion, no type resolution, generics are
//! skipped by bracket matching, and argument counts are comma counts
//! (closure parameter lists are excluded from the count). The
//! approximation contract — what that buys and what it costs — is
//! DESIGN.md §14.

use crate::lexer::TokenKind;
use crate::rules::FileView;

/// What kind of item an [`Item`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// A function definition with a body.
    Fn(FnSig),
    /// `impl Type { ... }` — `ty` is the self-type (for trait impls,
    /// the implementing type after `for`).
    Impl {
        /// The self-type name, e.g. `Engine` for both `impl Engine`
        /// and `impl Display for Engine`.
        ty: String,
    },
    /// `mod name { ... }` or `mod name;`.
    Mod {
        /// The module name.
        name: String,
    },
    /// `use path::to::thing;` with the path recorded verbatim
    /// (whitespace-free).
    Use {
        /// The imported path text, e.g. `std::collections::BTreeMap`.
        path: String,
    },
}

/// One parsed item: kind plus its span over significant-token
/// positions (half-open, in [`FileView`] sig coordinates). Functions
/// nested inside other functions' bodies appear as later siblings, not
/// children — the flat `fns` index is what the analysis passes consume.
#[derive(Debug, Clone)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Half-open significant-token span `[start, end)` covering the
    /// item from its introducing keyword through its body or `;`.
    pub span: (usize, usize),
    /// 1-based source line of the introducing keyword.
    pub line: u32,
    /// Items nested inside an impl or inline mod body.
    pub children: Vec<Item>,
}

/// A function signature, reduced to what approximate name resolution
/// needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// The function's name.
    pub name: String,
    /// The enclosing impl's self-type, when there is one.
    pub qual: Option<String>,
    /// Parameter count, excluding any `self` receiver.
    pub params: usize,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Whether the signature declares a return type (`-> ...`).
    pub has_return: bool,
    /// Whether the fn is `pub` (any visibility spelling — `pub`,
    /// `pub(crate)`, `pub(super)` all count).
    pub is_pub: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStyle {
    /// `callee(args)` or `Path::callee(args)`.
    Free,
    /// `.callee(args)` — a method call with an implicit receiver.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee name (last path segment for `Path::callee`).
    pub name: String,
    /// Comma-counted argument count (a method call's receiver is not
    /// counted).
    pub args: usize,
    /// Free or method call.
    pub style: CallStyle,
    /// 1-based source line of the callee token.
    pub line: u32,
}

/// One function, flattened out of the item tree with everything the
/// workspace passes need. Owned — no borrows into the source text — so
/// per-file parsing runs on `crates/par` workers and the summaries
/// outlive the token streams.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// The signature.
    pub sig: FnSig,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call sites in the body, in source order, attributed to the
    /// innermost enclosing function.
    pub calls: Vec<CallSite>,
    /// Lines of indexing/slicing expressions (`x[...]`, both panic out
    /// of bounds), in source order. The other panic sources are
    /// clippy's to deny.
    pub index_lines: Vec<u32>,
    /// Lines of direct `Instant::now`/`SystemTime::now` reads.
    pub clock_lines: Vec<u32>,
}

impl FnNode {
    /// `Type::name` when the fn sits in an impl, else just `name`.
    pub fn display_name(&self) -> String {
        match &self.sig.qual {
            Some(q) => format!("{q}::{}", self.sig.name),
            None => self.sig.name.clone(),
        }
    }
}

/// Everything the workspace passes need from one file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// Top-level items (functions, impls, mods, uses), in source order.
    pub items: Vec<Item>,
    /// Every function with a body, flattened in source order.
    pub fns: Vec<FnNode>,
}

/// Keywords that can directly precede `(` or `[` without being a call
/// or an indexing receiver.
const KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "match", "return", "loop", "in", "as", "move", "unsafe", "let",
    "ref", "mut", "break", "continue", "where", "impl", "dyn", "pub", "use", "fn",
];

/// Parse source text into a [`FileIndex`] (lexes internally). This is
/// the public entry point; the lint pipeline reuses its already-built
/// [`FileView`] via [`parse_file`].
pub fn parse_source(path: &str, src: &str) -> FileIndex {
    parse_file(path, &FileView::new(src))
}

/// Parse one file's significant-token stream into a [`FileIndex`].
/// `#[cfg(test)]`-gated regions are skipped entirely, the same way the
/// token rules skip them.
pub(crate) fn parse_file(path: &str, view: &FileView<'_>) -> FileIndex {
    let mut parser = Parser {
        view,
        bodies: Vec::new(),
    };
    let (items, _) = parser.items(0, view.len(), None);
    let mut fns: Vec<FnNode> = parser
        .bodies
        .iter()
        .map(|b| FnNode {
            sig: b.sig.clone(),
            line: b.line,
            calls: Vec::new(),
            index_lines: Vec::new(),
            clock_lines: Vec::new(),
        })
        .collect();

    // Attribute calls, indexing, and clock reads to the innermost
    // enclosing function body (the located-errors ownership model).
    let bodies: Vec<(usize, usize)> = parser.bodies.iter().map(|b| b.body).collect();
    let owner = |p: usize| -> Option<usize> {
        bodies
            .iter()
            .enumerate()
            .filter(|(_, b)| b.0 <= p && p < b.1)
            .min_by_key(|(_, b)| b.1 - b.0)
            .map(|(k, _)| k)
    };
    for p in 0..view.len() {
        if view.is_test_code(p) {
            continue;
        }
        let Some(k) = owner(p) else { continue };
        let text = view.text(p);
        let prev = if p > 0 { view.text(p - 1) } else { "" };
        match text {
            "[" => {
                // Indexing: `[` directly after an expression — an
                // identifier (that is not a keyword), `)`, or `]`.
                // Macro brackets (`vec![`) follow `!`, attributes
                // follow `#`, array types/literals follow punctuation.
                let indexes = (view.kind_at(p - 1) == Some(TokenKind::Ident)
                    && !KEYWORDS.contains(&prev))
                    || prev == ")"
                    || prev == "]";
                if p > 0 && indexes {
                    fns[k].index_lines.push(view.line(p));
                }
            }
            "Instant" | "SystemTime" if view.matches(p + 1, &[":", ":", "now"]) => {
                fns[k].clock_lines.push(view.line(p));
            }
            _ => {}
        }
        // Call sites (`.unwrap(` etc. stay in the list too — they
        // simply never resolve to a workspace function).
        if view.kind_at(p) == Some(TokenKind::Ident)
            && view.text(p + 1) == "("
            && prev != "fn"
            && !KEYWORDS.contains(&text)
        {
            let style = if prev == "." {
                CallStyle::Method
            } else {
                CallStyle::Free
            };
            fns[k].calls.push(CallSite {
                name: text.to_owned(),
                args: count_args(view, p + 1),
                style,
                line: view.line(p),
            });
        }
    }

    FileIndex {
        path: path.to_owned(),
        items,
        fns,
    }
}

/// Count call arguments from the opening paren at sig position `open`:
/// top-level commas plus one, zero when the parens hold nothing.
/// Commas inside a closure's `|...|` parameter list are not counted.
fn count_args(view: &FileView<'_>, open: usize) -> usize {
    let mut depth = 0i64;
    let mut commas = 0usize;
    let mut any = false;
    let mut in_pipes = false;
    let mut j = open;
    while j < view.len() {
        match view.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "|" if depth == 1 => in_pipes = !in_pipes,
            "," if depth == 1 && !in_pipes => commas += 1,
            _ => {}
        }
        if depth >= 1 && j > open {
            any = true;
        }
        j += 1;
    }
    if !any {
        0
    } else {
        commas + 1
    }
}

/// A discovered fn body, in parse order.
struct FnBody {
    sig: FnSig,
    line: u32,
    /// Half-open sig-position range of the body: `(` past the opening
    /// `{` .. past the matching `}`.
    body: (usize, usize),
}

struct Parser<'v, 'a> {
    view: &'v FileView<'a>,
    bodies: Vec<FnBody>,
}

impl Parser<'_, '_> {
    /// Parse items in `[i, end)`, functions qualified by `qual` (the
    /// enclosing impl's type). Returns the items and where the scan
    /// stopped.
    fn items(&mut self, mut i: usize, end: usize, qual: Option<&str>) -> (Vec<Item>, usize) {
        let view = self.view;
        let mut out = Vec::new();
        while i < end {
            if view.is_test_code(i) {
                i += 1;
                continue;
            }
            match view.text(i) {
                "fn" if view.kind_at(i + 1) == Some(TokenKind::Ident) => {
                    let (item, next) = self.fn_item(i, end, qual);
                    if let Some(item) = item {
                        out.push(item);
                    }
                    i = next;
                }
                "impl" => {
                    let (item, next) = self.impl_item(i, end);
                    if let Some(item) = item {
                        out.push(item);
                    }
                    i = next;
                }
                "mod" if view.kind_at(i + 1) == Some(TokenKind::Ident) => {
                    let (item, next) = self.mod_item(i, end, qual);
                    if let Some(item) = item {
                        out.push(item);
                    }
                    i = next;
                }
                "use" => {
                    let (item, next) = self.use_item(i, end);
                    out.push(item);
                    i = next;
                }
                _ => i += 1,
            }
        }
        (out, i)
    }

    /// Parse a `fn` item starting at `i` (the `fn` keyword). Returns
    /// the item (None for bodyless declarations, e.g. in traits) and
    /// the position to continue scanning from — just past the
    /// signature, so nested fns inside the body are discovered by the
    /// caller's loop (they surface as siblings; attribution of body
    /// contents uses innermost-body ownership, not the tree).
    fn fn_item(&mut self, i: usize, end: usize, qual: Option<&str>) -> (Option<Item>, usize) {
        let view = self.view;
        let name = view.text(i + 1).to_owned();
        let line = view.line(i);
        // Visibility: a `pub` within the qualifier run before `fn`
        // (`pub fn`, `pub(crate) async fn`, ...), not crossing a
        // statement or block boundary.
        let mut is_pub = false;
        let mut back = i;
        for _ in 0..6 {
            if back == 0 {
                break;
            }
            back -= 1;
            match view.text(back) {
                "pub" => {
                    is_pub = true;
                    break;
                }
                ";" | "{" | "}" => break,
                _ => {}
            }
        }
        // Skip generics after the name: `<` to its matching `>`; a `>`
        // directly preceded by `-` is part of a `->` inside a
        // higher-ranked bound (`F: Fn(u32) -> u32`) and does not close.
        let mut j = i + 2;
        if view.text(j) == "<" {
            let mut angle = 0i64;
            while j < end {
                match view.text(j) {
                    "<" => angle += 1,
                    ">" if j > 0 && view.text(j - 1) != "-" => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let (params, has_self, after_params) = if view.text(j) == "(" {
            self.param_list(j, end)
        } else {
            (0, false, j)
        };
        // Between params and body: return type and/or where clause,
        // ended by `{` (body) or `;` (declaration only).
        let mut has_return = false;
        let mut j = after_params;
        let mut depth = 0i64;
        let mut body = None;
        while j < end {
            match view.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "-" if depth == 0 && view.text(j + 1) == ">" => has_return = true,
                ";" if depth == 0 => {
                    j += 1;
                    break;
                }
                "{" if depth == 0 => {
                    body = Some((j, view.skip_braces(j).min(end)));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some((body_open, body_close)) = body else {
            return (None, j.max(i + 2));
        };
        let sig = FnSig {
            name,
            qual: qual.map(str::to_owned),
            params,
            has_self,
            has_return,
            is_pub,
        };
        self.bodies.push(FnBody {
            sig: sig.clone(),
            line,
            body: (body_open, body_close),
        });
        let item = Item {
            kind: ItemKind::Fn(sig),
            span: (i, body_close),
            line,
            children: Vec::new(),
        };
        (Some(item), i + 2)
    }

    /// Parse a parameter list starting at `i` (the `(`). Returns
    /// (param count excluding self, has_self, position past `)`).
    fn param_list(&self, i: usize, end: usize) -> (usize, bool, usize) {
        let view = self.view;
        let mut depth = 0i64;
        let mut commas = 0usize;
        let mut any = false;
        let mut j = i;
        let mut close = end;
        while j < end {
            match view.text(j) {
                "(" | "[" | "{" | "<" => depth += 1,
                ">" if j > 0 && view.text(j - 1) != "-" => depth -= 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = j + 1;
                        break;
                    }
                }
                "," if depth == 1 => commas += 1,
                _ if depth == 1 => any = true,
                _ => {}
            }
            j += 1;
        }
        if !any {
            return (0, false, close);
        }
        let mut params = commas + 1;
        // Trailing comma: the `,` sits directly before the closing `)`.
        if close >= 2 && view.text(close - 2) == "," {
            params -= 1;
        }
        // A `self` receiver: first parameter tokens are one of `self`,
        // `&self`, `&mut self`, `&'a self`, `mut self`, `self: Type`.
        let mut k = i + 1;
        while k < close
            && (matches!(view.text(k), "&" | "mut") || view.kind_at(k) == Some(TokenKind::Lifetime))
        {
            k += 1;
        }
        let has_self = view.text(k) == "self";
        if has_self {
            params = params.saturating_sub(1);
        }
        (params, has_self, close)
    }

    /// Parse an `impl` item at `i`: the self-type is the last ident at
    /// angle-depth 0 before the body (reset at `for`, so trait impls
    /// keep the implementing type); the body recurses.
    fn impl_item(&mut self, i: usize, end: usize) -> (Option<Item>, usize) {
        let view = self.view;
        let line = view.line(i);
        let mut j = i + 1;
        let mut angle = 0i64;
        let mut ty = String::new();
        let mut body = None;
        while j < end {
            match view.text(j) {
                "<" => angle += 1,
                ">" if view.text(j - 1) != "-" => angle -= 1,
                "for" if angle == 0 => ty.clear(),
                "{" if angle == 0 => {
                    body = Some((j, view.skip_braces(j).min(end)));
                    break;
                }
                ";" if angle == 0 => {
                    j += 1;
                    break;
                }
                t if angle == 0 && view.kind_at(j) == Some(TokenKind::Ident) && t != "where" => {
                    ty = t.to_owned();
                }
                _ => {}
            }
            j += 1;
        }
        let Some((open, close)) = body else {
            return (None, j.max(i + 1));
        };
        let inner_end = close.saturating_sub(1).max(open + 1);
        let (children, _) = self.items(open + 1, inner_end, Some(&ty));
        (
            Some(Item {
                kind: ItemKind::Impl { ty },
                span: (i, close),
                line,
                children,
            }),
            close.max(i + 1),
        )
    }

    /// Parse a `mod` item at `i`: inline bodies recurse, `mod name;`
    /// is recorded without children.
    fn mod_item(&mut self, i: usize, end: usize, qual: Option<&str>) -> (Option<Item>, usize) {
        let view = self.view;
        let line = view.line(i);
        let name = view.text(i + 1).to_owned();
        match view.text(i + 2) {
            ";" => (
                Some(Item {
                    kind: ItemKind::Mod { name },
                    span: (i, i + 3),
                    line,
                    children: Vec::new(),
                }),
                i + 3,
            ),
            "{" => {
                let close = view.skip_braces(i + 2).min(end);
                let inner_end = close.saturating_sub(1).max(i + 3);
                let (children, _) = self.items(i + 3, inner_end, qual);
                (
                    Some(Item {
                        kind: ItemKind::Mod { name },
                        span: (i, close),
                        line,
                        children,
                    }),
                    close.max(i + 3),
                )
            }
            _ => (None, i + 2),
        }
    }

    /// Parse a `use` item at `i`: the path verbatim up to `;` (or EOF).
    fn use_item(&mut self, i: usize, end: usize) -> (Item, usize) {
        let view = self.view;
        let line = view.line(i);
        let mut path = String::new();
        let mut j = i + 1;
        while j < end && view.text(j) != ";" {
            path.push_str(view.text(j));
            j += 1;
        }
        let close = (j + 1).min(end);
        (
            Item {
                kind: ItemKind::Use { path },
                span: (i, close.max(i + 1)),
                line,
                children: Vec::new(),
            },
            close.max(i + 1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> FileIndex {
        let view = FileView::new(src);
        parse_file("crates/x/src/lib.rs", &view)
    }

    #[test]
    fn fn_signatures_parse() {
        let idx = index(
            "fn free(a: u32, b: &str) -> u32 { a }\n\
             impl Engine { fn answer(&self, req: &Request) -> Reply { todo() } }\n\
             fn unit(x: u64) { let _ = x; }\n",
        );
        assert_eq!(idx.fns.len(), 3);
        let free = &idx.fns[0];
        assert_eq!(free.sig.name, "free");
        assert_eq!(
            (free.sig.params, free.sig.has_self, free.sig.has_return),
            (2, false, true)
        );
        let answer = &idx.fns[1];
        assert_eq!(answer.display_name(), "Engine::answer");
        assert_eq!(
            (
                answer.sig.params,
                answer.sig.has_self,
                answer.sig.has_return
            ),
            (1, true, true)
        );
        let unit = &idx.fns[2];
        assert!(!unit.sig.has_return);
    }

    #[test]
    fn calls_are_attributed_to_the_innermost_fn() {
        let idx = index("fn outer() {\n    helper(1, 2);\n    fn inner() { deep(3); }\n}\n");
        let outer = idx.fns.iter().find(|f| f.sig.name == "outer").unwrap();
        let inner = idx.fns.iter().find(|f| f.sig.name == "inner").unwrap();
        assert_eq!(
            outer
                .calls
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["helper"]
        );
        assert_eq!(outer.calls[0].args, 2);
        assert_eq!(
            inner
                .calls
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["deep"]
        );
    }

    #[test]
    fn panic_sources_are_found() {
        let idx = index(
            "fn f(v: &[u8], o: Option<u8>) -> u8 {\n\
             let a = v[0];\n\
             let b = o.unwrap();\n\
             let c = o.expect(\"x\");\n\
             if v.is_empty() { panic!(\"empty\") }\n\
             a + b + c\n}\n",
        );
        // Only indexing is recorded: unwrap/expect/panic! are denied by
        // the workspace clippy table, so the request-path rule leaves
        // them to clippy.
        assert_eq!(idx.fns[0].index_lines, vec![2]);
    }

    #[test]
    fn non_indexing_brackets_do_not_count() {
        let idx = index(
            "fn f() -> Vec<u8> {\n\
             let v = vec![1, 2];\n\
             let _a: [u8; 2] = [0; 2];\n\
             let [x, y] = [1u8, 2];\n\
             let _ = (x, y);\n\
             v\n}\n",
        );
        assert!(
            idx.fns[0].index_lines.is_empty(),
            "{:?}",
            idx.fns[0].index_lines
        );
    }

    #[test]
    fn method_call_args_exclude_closure_pipes() {
        let idx = index("fn f(v: Vec<u32>) -> u32 { v.iter().fold(0, |acc, x| acc + x) }\n");
        let fold = idx.fns[0].calls.iter().find(|c| c.name == "fold").unwrap();
        assert_eq!(fold.args, 2);
        assert_eq!(fold.style, CallStyle::Method);
    }

    #[test]
    fn items_cover_impl_mod_use() {
        let idx = index(
            "use std::collections::BTreeMap;\n\
             mod inner { pub fn helper() -> u32 { 1 } }\n\
             impl Display for Engine { fn fmt(&self) -> Result { write(self) } }\n",
        );
        assert!(
            matches!(&idx.items[0].kind, ItemKind::Use { path } if path == "std::collections::BTreeMap")
        );
        assert!(matches!(&idx.items[1].kind, ItemKind::Mod { name } if name == "inner"));
        assert!(matches!(&idx.items[2].kind, ItemKind::Impl { ty } if ty == "Engine"));
        let helper = idx.fns.iter().find(|f| f.sig.name == "helper").unwrap();
        assert!(helper.sig.qual.is_none());
        let fmt = idx.fns.iter().find(|f| f.sig.name == "fmt").unwrap();
        assert_eq!(fmt.sig.qual.as_deref(), Some("Engine"));
    }

    #[test]
    fn clock_reads_are_recorded() {
        let idx = index("fn now_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n");
        assert_eq!(idx.fns[0].clock_lines, vec![1]);
    }

    #[test]
    fn test_gated_code_is_invisible() {
        let idx = index(
            "fn real() -> u32 { 1 }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n",
        );
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].sig.name, "real");
    }

    #[test]
    fn unbalanced_input_truncates_quietly() {
        for src in [
            "fn f() {",
            "impl X {",
            "mod m {",
            "fn f(",
            "use a::b",
            "fn f() -> {",
        ] {
            let _ = index(src); // must not panic
        }
    }
}
