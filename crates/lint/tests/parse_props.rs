//! Property tests for the item parser: on arbitrary input it must
//! never panic (the linter runs over whatever bytes live in the tree),
//! and every span it reports must round-trip — item spans index real
//! significant tokens, item lines match the token at the span start,
//! and nesting stays inside the parent.

use droplens_lint::lexer::{lex, Token};
use droplens_lint::parse::{parse_source, Item};
use proptest::prelude::*;

/// The significant (non-trivia) tokens of `src`, in the same
/// coordinates the parser reports spans in.
fn sig_tokens(src: &str) -> Vec<Token<'_>> {
    lex(src).into_iter().filter(|t| !t.is_trivia()).collect()
}

/// Check one item (recursively) against the sig-token list.
fn check_item(item: &Item, sig: &[Token<'_>]) -> Result<(), TestCaseError> {
    let (start, end) = item.span;
    prop_assert!(start < end, "span is non-empty: {:?}", item.span);
    prop_assert!(
        end <= sig.len(),
        "span end {} within {} sig tokens",
        end,
        sig.len()
    );
    prop_assert_eq!(
        sig[start].line,
        item.line,
        "item line matches the token at its span start"
    );
    for child in &item.children {
        let (cs, ce) = child.span;
        prop_assert!(
            start <= cs && ce <= end,
            "child span {:?} inside parent {:?}",
            child.span,
            item.span
        );
        check_item(child, sig)?;
    }
    Ok(())
}

/// Parse `src` and check every reported span and line.
fn parses_totally(src: &str) -> Result<(), TestCaseError> {
    let index = parse_source("crates/x/src/server.rs", src);
    let sig = sig_tokens(src);
    for item in &index.items {
        check_item(item, &sig)?;
    }
    let total_lines = src.lines().count() as u32 + 1;
    for f in &index.fns {
        prop_assert!(f.line <= total_lines, "fn line within the file");
        for c in &f.calls {
            prop_assert!(c.line <= total_lines, "call line within the file");
        }
        for &l in &f.index_lines {
            prop_assert!(l <= total_lines, "indexing line within the file");
        }
        for &l in &f.clock_lines {
            prop_assert!(l <= total_lines, "clock line within the file");
        }
    }
    Ok(())
}

/// Fragments biased toward what the item parser special-cases:
/// signatures with generics and closures, impl/mod/use headers,
/// truncated bodies, stray braces, panic sources.
fn item_fragments() -> Vec<&'static str> {
    vec![
        "fn f() {}",
        "pub fn g(a: u32, b: &str) -> u32 { a }",
        "pub(crate) fn h<T: Ord>(x: T) -> T { x }",
        "fn part",
        "fn part(",
        "fn part() {",
        "impl Engine {",
        "impl Display for Engine { fn fmt(&self) {} }",
        "impl<T> From<T> for Wrap<T> {}",
        "mod inner {",
        "mod decl;",
        "use std::collections::BTreeMap;",
        "use a::b::{c, d};",
        "self.items[i]",
        "xs[0]",
        "vec![1, 2]",
        ".unwrap()",
        ".expect(\"m\")",
        "panic!(\"p\")",
        "todo!()",
        "Instant::now()",
        "SystemTime::now()",
        "|a, b| a + b",
        "fold(0, |acc, x| acc + x)",
        "call(a, b, c)",
        "obj.method(x)",
        "-> Vec<u32>",
        "where T: Ord",
        "{",
        "}",
        "}}",
        ";",
        "#[cfg(test)]",
        "// lint: allow(ordered-output)\n",
        "\"fn not_a_fn() {}\"",
        "'}'",
        "\n",
    ]
}

proptest! {
    /// Arbitrary bytes: the parser is total and its spans are sane.
    #[test]
    fn arbitrary_input_never_panics(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        parses_totally(&src)?;
    }

    /// Item-shaped soup: random concatenations of declaration
    /// fragments so headers collide with truncated bodies and
    /// unbalanced braces.
    #[test]
    fn item_soup_never_panics(parts in prop::collection::vec(
        prop::sample::select(item_fragments()),
        0..48,
    )) {
        let src = parts.join(" ");
        parses_totally(&src)?;
    }
}
