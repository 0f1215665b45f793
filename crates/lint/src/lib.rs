//! droplens-lint: the workspace's own invariant checker.
//!
//! The pipeline's two non-negotiables — byte-identical output at any
//! `DROPLENS_THREADS`, and panic-free, located error handling in every
//! parser — are machine-enforced in two layers. The workspace clippy
//! table denies `unwrap_used`, `expect_used`, `panic`, `todo` and
//! `unimplemented` outside test code. This crate checks what clippy
//! cannot see: a zero-dependency, token-level static analysis over the
//! workspace's own sources, run as `droplens lint` locally and as a CI
//! gate. Seven token-level rules, each scoped to the modules where its
//! invariant bites (see [`rules_for_path`] and DESIGN.md §9):
//!
//! | rule | scope | bans |
//! |------|-------|------|
//! | `ordered-output` | modules that write archives, reports, or traces | `HashMap`, `HashSet` |
//! | `no-wallclock` | everything outside `crates/obs` | `Instant::now`, `SystemTime::now` |
//! | `seeded-rng-only` | everywhere | `thread_rng`, `from_entropy`, `from_os_rng`, `OsRng`, `rand::random` |
//! | `located-errors` | parser modules (format/journal/list) | `ParseError::new` with no `.with_location` (or `.decode_sidecar`) on any intra-file caller path |
//! | `no-string-keyed-hot-map` | parser/writer hot paths (format/archive) | `HashMap<String, _>` / `BTreeMap<String, _>` |
//! | `no-deadline-free-io` | serve-path modules (server/client/loadgen/net) | `TcpStream::connect`, and socket read/write in functions with no configured timeout |
//! | `lock-across-io` | serve-path modules (server/client/loadgen/net) | a `let`-bound lock guard still live at a blocking socket read/write |
//!
//! Plus two **workspace rules** that run over the intra-workspace call
//! graph ([`parse`], `graph`, `taint`; DESIGN.md §14) when whole file
//! sets are linted via [`lint_files`]:
//!
//! | rule | entry/sink | bans |
//! |------|------------|------|
//! | `no-panic-in-request-path` | `pub` fns in `server`/`engine` files | any reachable indexing/slicing |
//! | `wallclock-taint` | ordered-output modules (minus `crates/obs`) | calling any function whose return value derives from `Instant::now`/`SystemTime::now` |
//!
//! A finding can be suppressed per line with a trailing
//! `// lint: allow(<rule>)` comment (or one on its own line directly
//! above). For the workspace rules the same escape on a *call* line is
//! a per-edge escape: reachability/taint stops propagating through that
//! call. Escapes naming unknown rules are themselves reported, so a
//! typo cannot silently disable checking.

#![warn(missing_docs)]

mod graph;
pub mod lexer;
pub mod parse;
mod rules;
mod taint;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use rules::FileView;

/// The rules droplens-lint knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `HashMap`/`HashSet` in modules that write archives, reports,
    /// or trace exports.
    OrderedOutput,
    /// `Instant::now`/`SystemTime::now` only inside `crates/obs`.
    NoWallclock,
    /// No entropy-seeded RNG construction anywhere.
    SeededRngOnly,
    /// Every `ParseError` construction in a parser module is located.
    LocatedErrors,
    /// No `String`-keyed maps on format/archive hot paths: every
    /// insert/lookup hashes and possibly clones the full string. Intern
    /// to a `u32` id (`StrTable`/`StringInterner`) and key by that.
    NoStringKeyedHotMap,
    /// No deadline-free socket IO on serve paths: `TcpStream::connect`
    /// (no timeout) is banned outright, and a function doing socket
    /// read/write must configure both `set_read_timeout` and
    /// `set_write_timeout` (or go through `DeadlineStream`, which does).
    NoDeadlineFreeIo,
    /// No `Mutex`/`RwLock` guard held live across a blocking socket
    /// read/write on serve paths — a wedged peer would hold the lock
    /// (and every waiter) hostage for its full network latency.
    LockAcrossIo,
    /// Workspace rule: no indexing/slicing transitively reachable over
    /// the call graph from a `server`/`engine` request entry point.
    /// (Clippy owns the other panic sources.)
    NoPanicInRequestPath,
    /// Workspace rule: no wallclock-derived value (a function returning
    /// data from `Instant::now`/`SystemTime::now`, directly or through
    /// callees) called from an ordered-output module.
    WallclockTaint,
    /// A `// lint: allow(...)` escape that names an unknown rule.
    BadEscape,
}

impl Rule {
    /// Every scannable rule (excludes [`Rule::BadEscape`], which is
    /// emitted by the escape parser, not scanned for).
    pub const ALL: [Rule; 9] = [
        Rule::OrderedOutput,
        Rule::NoWallclock,
        Rule::SeededRngOnly,
        Rule::LocatedErrors,
        Rule::NoStringKeyedHotMap,
        Rule::NoDeadlineFreeIo,
        Rule::LockAcrossIo,
        Rule::NoPanicInRequestPath,
        Rule::WallclockTaint,
    ];

    /// The kebab-case name used in diagnostics and escapes.
    pub fn name(self) -> &'static str {
        match self {
            Rule::OrderedOutput => "ordered-output",
            Rule::NoWallclock => "no-wallclock",
            Rule::SeededRngOnly => "seeded-rng-only",
            Rule::LocatedErrors => "located-errors",
            Rule::NoStringKeyedHotMap => "no-string-keyed-hot-map",
            Rule::NoDeadlineFreeIo => "no-deadline-free-io",
            Rule::LockAcrossIo => "lock-across-io",
            Rule::NoPanicInRequestPath => "no-panic-in-request-path",
            Rule::WallclockTaint => "wallclock-taint",
            Rule::BadEscape => "bad-escape",
        }
    }

    /// Parse a rule name as written in an escape comment.
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// One finding: where, which rule, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file, `/`-separated.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// How many files were scanned.
    pub files_checked: usize,
    /// Findings suppressed by `// lint: allow(...)` escapes.
    pub suppressed: usize,
    /// Surviving findings, sorted by path, line, rule.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when no diagnostics survived.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render as `path:line: [rule] message` lines plus a summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}",
                d.path,
                d.line,
                d.rule.name(),
                d.message
            );
        }
        let _ = writeln!(
            out,
            "droplens-lint: {} violation{} ({} suppressed) in {} file{}",
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" },
            self.suppressed,
            self.files_checked,
            if self.files_checked == 1 { "" } else { "s" },
        );
        out
    }

    /// Render as stable JSON (schema `droplens-lint/3`): diagnostics in
    /// the same sorted order as [`LintReport::to_text`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"droplens-lint/3\"");
        let _ = write!(
            out,
            ",\"files_checked\":{},\"violations\":{},\"suppressed\":{},\"diagnostics\":[",
            self.files_checked,
            self.diagnostics.len(),
            self.suppressed,
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                droplens_obs::json::escape(&d.path),
                d.line,
                d.rule.name(),
                droplens_obs::json::escape(&d.message),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Which rules apply to the file at `path` (workspace-relative).
///
/// Scoping is by path shape, so the same classification covers real
/// sources and the fixture corpus:
///
/// * `vendor/`, `target/`, `.git/` — nothing applies;
/// * test-ish trees (`tests/`, `benches/`, `examples/` outside a
///   `fixtures/` dir) — only `seeded-rng-only`;
/// * `crates/obs/` is exempt from `no-wallclock` (it owns the clock);
/// * file-stem scopes: `located-errors` on format/journal/list,
///   `ordered-output` on the output writers (format, layout, sbltext,
///   report, run_report, json, trace, registry, perf, paper,
///   experiments/*), `no-string-keyed-hot-map` on the per-record hot
///   paths (format, archive), `no-deadline-free-io` and
///   `lock-across-io` on the socket-touching serve paths (server,
///   client, loadgen, net).
pub fn rules_for_path(path: &str) -> Vec<Rule> {
    let norm = path.replace('\\', "/");
    let comps: Vec<&str> = norm
        .split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .collect();
    let Some(file) = comps.last() else {
        return Vec::new();
    };
    let Some(stem) = file.strip_suffix(".rs") else {
        return Vec::new();
    };
    let has = |name: &str| comps.contains(&name);
    if has("vendor") || has("target") || has(".git") {
        return Vec::new();
    }
    let mut rules = vec![Rule::SeededRngOnly];
    let fixture = has("fixtures");
    if !fixture && (has("tests") || has("benches") || has("examples")) {
        return rules;
    }
    if !has("obs") {
        rules.push(Rule::NoWallclock);
    }
    const DEADLINE_STEMS: [&str; 4] = ["server", "client", "loadgen", "net"];
    const LOCATED_STEMS: [&str; 3] = ["format", "journal", "list"];
    const HOT_STEMS: [&str; 2] = ["format", "archive"];
    const ORDERED_STEMS: [&str; 10] = [
        "format",
        "layout",
        "sbltext",
        "report",
        "run_report",
        "json",
        "trace",
        "registry",
        "perf",
        "paper",
    ];
    if ORDERED_STEMS.contains(&stem) || has("experiments") {
        rules.push(Rule::OrderedOutput);
    }
    if LOCATED_STEMS.contains(&stem) {
        rules.push(Rule::LocatedErrors);
    }
    if HOT_STEMS.contains(&stem) {
        rules.push(Rule::NoStringKeyedHotMap);
    }
    if DEADLINE_STEMS.contains(&stem) {
        rules.push(Rule::NoDeadlineFreeIo);
        rules.push(Rule::LockAcrossIo);
    }
    rules.sort();
    rules
}

/// How the file at `path` participates in the workspace-level passes
/// ([`Rule::NoPanicInRequestPath`], [`Rule::WallclockTaint`]). `None`
/// when the file contributes no call-graph nodes at all.
pub(crate) fn graph_role(path: &str) -> Option<GraphRole> {
    let norm = path.replace('\\', "/");
    let comps: Vec<&str> = norm
        .split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .collect();
    let stem = comps.last()?.strip_suffix(".rs")?;
    let has = |name: &str| comps.contains(&name);
    if has("vendor") || has("target") || has(".git") {
        return None;
    }
    // Test-ish trees are not part of the shipped call graph — except
    // the fixture corpus, which classifies like sources.
    if !has("fixtures") && (has("tests") || has("benches") || has("examples")) {
        return None;
    }
    Some(GraphRole {
        // The request-handling surface: every `pub` fn in a `server` or
        // `engine` file is an entry (the pub filter happens graph-side,
        // where signatures are known). Coarse on purpose — the public
        // surface of those files is exactly what a request can invoke.
        entry: stem == "server" || stem == "engine",
        // Wallclock-taint sinks: ordered-output modules, minus obs
        // (which owns the clock).
        ordered_sink: rules_for_path(path).contains(&Rule::OrderedOutput) && !has("obs"),
        // Clock reads inside obs are the sanctioned channel (Stopwatch,
        // spans) — they never seed taint, exactly as they are exempt
        // from the lexical `no-wallclock`. Taint tracks clock values
        // born *outside* that boundary.
        clock_owner: has("obs"),
    })
}

/// A file's roles in the workspace passes; see [`graph_role`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphRole {
    pub entry: bool,
    pub ordered_sink: bool,
    pub clock_owner: bool,
}

/// Per-line allow-escapes parsed from `// lint: allow(a, b)` comments.
struct Escapes {
    /// (line, rule) pairs that are allowed.
    allowed: BTreeSet<(u32, Rule)>,
    /// Diagnostics for malformed escapes.
    bad: Vec<(u32, String)>,
}

/// Parse escapes from the comment tokens. A same-line escape suppresses
/// findings on its own line; an escape that is the only thing on its
/// line also covers the next code line (so rustfmt-wrapped lines keep
/// their escape). Doc comments (`///`, `//!`) never carry escapes.
fn parse_escapes(src: &str, view: &FileView<'_>) -> Escapes {
    let mut esc = Escapes {
        allowed: BTreeSet::new(),
        bad: Vec::new(),
    };
    for (idx, tok) in view.tokens.iter().enumerate() {
        if tok.kind != lexer::TokenKind::LineComment {
            continue;
        }
        let body = &tok.text[2..];
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comment
        }
        let Some(rest) = body.trim_start().strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(list) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(names, _)| names)
        else {
            esc.bad.push((
                tok.line,
                format!(
                    "malformed lint escape {:?} — expected `lint: allow(<rule>, ...)`",
                    body.trim()
                ),
            ));
            continue;
        };
        let mut lines = vec![tok.line];
        // Standalone comment: nothing but whitespace before it on its
        // line — the escape also covers the next code line.
        let line_start = src[..tok.start].rfind('\n').map(|p| p + 1).unwrap_or(0);
        if src[line_start..tok.start].chars().all(char::is_whitespace) {
            if let Some(next) = view.tokens[idx + 1..].iter().find(|t| !t.is_trivia()) {
                lines.push(next.line);
            }
        }
        for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match Rule::from_name(name) {
                Some(rule) => {
                    for &l in &lines {
                        esc.allowed.insert((l, rule));
                    }
                }
                None => esc.bad.push((
                    tok.line,
                    format!(
                        "unknown rule {name:?} in lint escape (known: {})",
                        rule_names()
                    ),
                )),
            }
        }
    }
    esc
}

fn rule_names() -> String {
    Rule::ALL
        .iter()
        .map(|r| r.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// One file's fully-local lint result: its token-rule diagnostics plus
/// everything the workspace passes need later.
struct FileUnit {
    diags: Vec<Diagnostic>,
    suppressed: usize,
    /// `Some` when the file contributes call-graph nodes.
    work: Option<graph::WorkFile>,
}

/// Lint one file's source under its path-selected token rules and
/// parse it for the workspace passes.
fn lint_unit(path: &str, src: &str) -> FileUnit {
    let rules = rules_for_path(path);
    let view = FileView::new(src);
    let escapes = parse_escapes(src, &view);
    let mut hits = Vec::new();
    for &rule in &rules {
        rules::check(rule, &view, &mut hits);
    }
    let mut suppressed = 0usize;
    let mut out: Vec<Diagnostic> = Vec::new();
    for hit in hits {
        if escapes.allowed.contains(&(hit.line, hit.rule)) {
            suppressed += 1;
            continue;
        }
        out.push(Diagnostic {
            path: path.to_owned(),
            line: hit.line,
            rule: hit.rule,
            message: hit.message,
        });
    }
    for (line, message) in escapes.bad {
        out.push(Diagnostic {
            path: path.to_owned(),
            line,
            rule: Rule::BadEscape,
            message,
        });
    }
    out.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    let work = graph_role(path).map(|role| graph::WorkFile {
        label: path.to_owned(),
        index: parse::parse_file(path, &view),
        escapes: escapes.allowed,
        role,
    });
    FileUnit {
        diags: out,
        suppressed,
        work,
    }
}

/// Lint one file's source text under the token-level rules its path
/// selects. Returns the surviving diagnostics and the suppressed
/// count. The workspace rules (`no-panic-in-request-path`,
/// `wallclock-taint`) need the whole file set and therefore only run
/// under [`lint_files`].
pub fn lint_source(path: &str, src: &str) -> (Vec<Diagnostic>, usize) {
    let unit = lint_unit(path, src);
    (unit.diags, unit.suppressed)
}

/// Recursively collect `.rs` files under each input, in sorted order.
/// Directories named `target`, `vendor`, `.git`, or `fixtures` are
/// skipped during the walk; explicitly named files are always included
/// (that is how the CI self-test lints the fixture corpus).
pub fn collect_rs_files(inputs: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<Vec<_>>>()?;
        entries.sort();
        for entry in entries {
            let name = entry
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if entry.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    walk(&entry, out)?;
                }
            } else if name.ends_with(".rs") {
                out.push(entry);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for input in inputs {
        if input.is_dir() {
            walk(input, &mut out)?;
        } else {
            out.push(input.clone());
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Lint every file in `files` (as returned by [`collect_rs_files`]):
/// per-file lexing, parsing, and token rules run in parallel on
/// [`droplens_par`] workers (`DROPLENS_THREADS` honored), then the
/// workspace passes run over the merged call graph. Output is
/// byte-identical at any worker count: results are merged in input
/// order and fully sorted at the end.
pub fn lint_files(files: &[PathBuf]) -> io::Result<LintReport> {
    lint_files_with(droplens_par::max_threads(), files)
}

/// [`lint_files`] with an explicit worker count (the determinism tests
/// and the bench compare `1` against the default).
pub fn lint_files_with(workers: usize, files: &[PathBuf]) -> io::Result<LintReport> {
    let units: Vec<io::Result<FileUnit>> = droplens_par::par_map_with(workers, files, |file| {
        let src = std::fs::read_to_string(file)?;
        let label = file.to_string_lossy().replace('\\', "/");
        let label = label.strip_prefix("./").unwrap_or(&label).to_owned();
        Ok(lint_unit(&label, &src))
    });
    let mut report = LintReport::default();
    let mut work: Vec<graph::WorkFile> = Vec::new();
    for unit in units {
        let unit = unit?;
        report.files_checked += 1;
        report.suppressed += unit.suppressed;
        report.diagnostics.extend(unit.diags);
        if let Some(wf) = unit.work {
            work.push(wf);
        }
    }
    // The workspace passes: label order fixes node order, hence
    // resolution, BFS, and diagnostic order.
    work.sort_by(|a, b| a.label.cmp(&b.label));
    let g = graph::Graph::build(&work);
    let mut graph_suppressed = 0usize;
    graph::no_panic_in_request_path(&g, &mut report.diagnostics, &mut graph_suppressed);
    taint::wallclock_taint(&g, &mut report.diagnostics, &mut graph_suppressed);
    report.suppressed += graph_suppressed;
    report.diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification_matches_the_tree() {
        let r = rules_for_path("crates/bgp/src/format.rs");
        assert!(r.contains(&Rule::OrderedOutput));
        assert!(r.contains(&Rule::LocatedErrors));
        assert!(r.contains(&Rule::NoWallclock));
        assert!(r.contains(&Rule::NoStringKeyedHotMap));

        let r = rules_for_path("crates/bgp/src/archive.rs");
        assert!(r.contains(&Rule::NoStringKeyedHotMap));
        let r = rules_for_path("crates/core/src/study.rs");
        assert!(!r.contains(&Rule::NoStringKeyedHotMap), "cold paths exempt");

        let r = rules_for_path("crates/obs/src/trace.rs");
        assert!(!r.contains(&Rule::NoWallclock), "obs owns the clock");
        assert!(r.contains(&Rule::OrderedOutput));

        let r = rules_for_path("crates/bgp/tests/proptests.rs");
        assert_eq!(r, vec![Rule::SeededRngOnly]);

        assert!(rules_for_path("vendor/rand/src/lib.rs").is_empty());
        assert!(rules_for_path("crates/core/README.md").is_empty());

        // Serve paths: the socket-deadline and lock rules.
        let r = rules_for_path("crates/serve/src/server.rs");
        assert!(r.contains(&Rule::NoDeadlineFreeIo));
        assert!(r.contains(&Rule::LockAcrossIo));
        let r = rules_for_path("crates/faults/src/net.rs");
        assert!(r.contains(&Rule::NoDeadlineFreeIo));
        let r = rules_for_path("crates/serve/src/engine.rs");
        assert!(
            !r.contains(&Rule::NoDeadlineFreeIo),
            "engine is socket-free"
        );

        // Fixtures classify like sources, not like tests.
        let r = rules_for_path("crates/lint/tests/fixtures/located_errors/journal.rs");
        assert!(r.contains(&Rule::LocatedErrors));
    }

    #[test]
    fn backslash_paths_classify_like_forward_slash_paths() {
        // Windows-style separators must not defeat path-shape scoping:
        // every component test (vendor skip, test-tree downgrade,
        // fixture rescue, stem scopes) keys off normalized components.
        for (win, unix) in [
            (r"crates\bgp\src\format.rs", "crates/bgp/src/format.rs"),
            (r"vendor\rand\src\lib.rs", "vendor/rand/src/lib.rs"),
            (
                r"crates\bgp\tests\proptests.rs",
                "crates/bgp/tests/proptests.rs",
            ),
            (
                r"crates\lint\tests\fixtures\located_errors\journal.rs",
                "crates/lint/tests/fixtures/located_errors/journal.rs",
            ),
            (r"crates\serve\src\server.rs", "crates/serve/src/server.rs"),
        ] {
            assert_eq!(rules_for_path(win), rules_for_path(unix), "{win}");
        }
        // The workspace passes normalize the same way.
        let win = graph_role(r"crates\serve\src\server.rs").unwrap();
        let unix = graph_role("crates/serve/src/server.rs").unwrap();
        assert!(win.entry && unix.entry);
        assert!(graph_role(r"vendor\rand\src\lib.rs").is_none());
    }

    #[test]
    fn same_line_escape_suppresses() {
        let src = "fn f(m: HashSet<u32>) {} // lint: allow(ordered-output)\n";
        let (diags, suppressed) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn standalone_escape_covers_next_line() {
        let src = "fn f() {\n    // lint: allow(ordered-output)\n    let m = HashSet::new();\n}\n";
        let (diags, suppressed) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unknown_rule_in_escape_is_reported() {
        let src = "// lint: allow(no-unwarp)\nfn f() {}\n";
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadEscape);
        assert!(diags[0].message.contains("no-unwarp"));
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "fn f() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::f(); let _ = std::collections::HashMap::<u8, u8>::new(); }\n}\n";
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unwrap_in_strings_and_comments_is_ignored() {
        // Rule tokens inside literals and comments are not code: neither
        // the token rules nor the request-path index scan see them.
        let src = "fn f() -> &'static str { \"HashMap .unwrap() v[0]\" } // HashMap v[0]\n";
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        let index = parse::parse_source("crates/x/src/server.rs", src);
        assert!(index.fns[0].index_lines.is_empty());
    }

    #[test]
    fn located_errors_accepts_the_parser_idiom() {
        // Line-level helper returns a bare error; the loop stamps the
        // location — the idiom every parser in the workspace uses.
        let src = r#"
fn parse_line(s: &str) -> Result<u32, ParseError> {
    s.parse().map_err(|_| ParseError::new("U32", s, "bad"))
}
fn parse_all(text: &str) -> Result<Vec<u32>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(v) => out.push(v),
            Err(e) => return Err(e.with_location("f.txt", i as u32 + 1)),
        }
    }
    Ok(out)
}
"#;
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn located_errors_accepts_the_sidecar_helper() {
        // The decoder returns bare errors; the wrapper hands it to the
        // whole-sidecar quarantine helper, which locates at `label:0`.
        let src = r#"
fn decode(b: &[u8]) -> Result<u32, ParseError> {
    b.first().map(|&v| u32::from(v)).ok_or_else(|| ParseError::new("Bin", "", "empty"))
}
pub fn parse_bin_with(b: &[u8], q: &mut Quarantine) -> Result<u32, ParseError> {
    Ok(q.decode_sidecar("x.y", || decode(b), |_| 1)?.unwrap_or_default())
}
"#;
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn located_errors_flags_unlocated_construction() {
        let src = r#"
fn parse_line(s: &str) -> Result<u32, ParseError> {
    s.parse().map_err(|_| ParseError::new("U32", s, "bad"))
}
pub fn parse_all(text: &str) -> Result<Vec<u32>, ParseError> {
    let mut out = Vec::new();
    for line in text.lines() {
        out.push(parse_line(line)?);
    }
    Ok(out)
}
"#;
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::LocatedErrors);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn json_report_is_stable() {
        let report = LintReport {
            files_checked: 2,
            suppressed: 1,
            diagnostics: vec![Diagnostic {
                path: "crates/x/src/format.rs".into(),
                line: 7,
                rule: Rule::OrderedOutput,
                message: "`HashMap` \"bad\"".into(),
            }],
        };
        assert_eq!(
            report.to_json(),
            "{\"schema\":\"droplens-lint/3\",\"files_checked\":2,\"violations\":1,\"suppressed\":1,\"diagnostics\":[{\"path\":\"crates/x/src/format.rs\",\"line\":7,\"rule\":\"ordered-output\",\"message\":\"`HashMap` \\\"bad\\\"\"}]}\n"
        );
    }
}
