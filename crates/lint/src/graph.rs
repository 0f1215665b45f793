//! The workspace symbol index and intra-workspace call graph, plus the
//! `no-panic-in-request-path` reachability pass.
//!
//! Name resolution is deliberately approximate (DESIGN.md §14): a call
//! resolves by callee name + argument count, same-file definitions
//! first, then the whole workspace. The three outcomes are kept
//! distinct — [`Edge::Resolved`] edges are traversed, [`Edge::Ambiguous`]
//! and [`Edge::Unresolved`] edges are **not** (false negatives are
//! accepted; a false positive must always be escapable, and an edge the
//! analysis cannot prove is not evidence). Per-edge escapes
//! (`// lint: allow(no-panic-in-request-path)` on the call line) cut
//! traversal, so one reviewed call quiets everything below it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{CallSite, CallStyle, FileIndex, FnNode};
use crate::{Diagnostic, GraphRole, Rule};

/// One file's contribution to the workspace pass: its parsed index,
/// its escape lines, and its path-derived roles.
pub(crate) struct WorkFile {
    /// Workspace-relative `/`-separated label.
    pub label: String,
    /// The parsed items and function summaries.
    pub index: FileIndex,
    /// `(line, rule)` pairs allowed by `// lint: allow(...)` escapes.
    pub escapes: BTreeSet<(u32, Rule)>,
    /// Path-derived roles (entry file, ordered sink, clock owner).
    pub role: GraphRole,
}

/// A function's identity: (index into the file list, index into that
/// file's `fns`).
pub(crate) type NodeId = (usize, usize);

/// One call edge, after approximate resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Edge {
    /// Exactly one workspace function matches name + arity.
    Resolved(NodeId),
    /// More than one matches; the analysis refuses to guess.
    Ambiguous,
    /// Nothing in the workspace matches (std, vendored, macro-made).
    Unresolved,
}

/// The workspace call graph: files (sorted by label), and per function
/// one [`Edge`] per call site, parallel to [`FnNode::calls`].
pub(crate) struct Graph<'a> {
    pub files: &'a [WorkFile],
    /// `edges[f][k][c]` resolves `files[f].index.fns[k].calls[c]`.
    pub edges: Vec<Vec<Vec<Edge>>>,
}

impl<'a> Graph<'a> {
    /// Build the graph. `files` must already be sorted by label — node
    /// and edge order (hence diagnostic order) follows input order.
    pub fn build(files: &'a [WorkFile]) -> Graph<'a> {
        let mut by_name: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
        for (f, wf) in files.iter().enumerate() {
            for (k, func) in wf.index.fns.iter().enumerate() {
                by_name.entry(&func.sig.name).or_default().push((f, k));
            }
        }
        let resolve = |f: usize, call: &CallSite| -> Edge {
            let Some(candidates) = by_name.get(call.name.as_str()) else {
                return Edge::Unresolved;
            };
            let fits = |&(cf, ck): &NodeId| {
                let sig = &files[cf].index.fns[ck].sig;
                let arity_ok = sig.params == call.args;
                match call.style {
                    CallStyle::Method => sig.has_self && arity_ok,
                    CallStyle::Free => !sig.has_self && arity_ok,
                }
            };
            let same: Vec<NodeId> = candidates
                .iter()
                .filter(|n| n.0 == f)
                .filter(|n| fits(n))
                .copied()
                .collect();
            let pool: Vec<NodeId> = if same.is_empty() {
                candidates.iter().filter(|n| fits(n)).copied().collect()
            } else {
                same
            };
            match pool.as_slice() {
                [] => Edge::Unresolved,
                [one] => Edge::Resolved(*one),
                _ => Edge::Ambiguous,
            }
        };
        let edges = files
            .iter()
            .enumerate()
            .map(|(f, wf)| {
                wf.index
                    .fns
                    .iter()
                    .map(|func| func.calls.iter().map(|c| resolve(f, c)).collect())
                    .collect()
            })
            .collect();
        Graph { files, edges }
    }

    /// The function behind a node id.
    pub fn node(&self, id: NodeId) -> &FnNode {
        &self.files[id.0].index.fns[id.1]
    }
}

/// How a finding names its panic source.
const INDEXING: &str = "indexing/slicing (`[...]`)";

/// `no-panic-in-request-path`: BFS over resolved edges from every
/// `pub` function in an entry file (`server`/`engine` stems); each
/// indexing/slicing site in a reachable function is one finding, with
/// the full call chain from the entry rendered in the message. An edge
/// whose call line carries `// lint: allow(no-panic-in-request-path)`
/// is not traversed; an indexing line carrying the escape is counted
/// suppressed. The other panic sources (`unwrap`, `expect`, `panic!`,
/// ...) are denied workspace-wide by clippy.
pub(crate) fn no_panic_in_request_path(
    graph: &Graph<'_>,
    diags: &mut Vec<Diagnostic>,
    suppressed: &mut usize,
) {
    // Every node's first-claiming chain: entries in (file, fn) order,
    // each BFS claiming still-unclaimed nodes, so a panic site is
    // reported once, against the first entry that reaches it.
    let mut chain: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    let entries: Vec<NodeId> = graph
        .files
        .iter()
        .enumerate()
        .filter(|(_, wf)| wf.role.entry)
        .flat_map(|(f, wf)| {
            wf.index
                .fns
                .iter()
                .enumerate()
                .filter(|(_, func)| func.sig.is_pub)
                .map(move |(k, _)| (f, k))
        })
        .collect();
    for &entry in &entries {
        if chain.contains_key(&entry) {
            continue;
        }
        chain.insert(entry, vec![entry]);
        let mut queue = VecDeque::from([entry]);
        while let Some(node) = queue.pop_front() {
            let here = chain[&node].clone();
            let wf = &graph.files[node.0];
            let func = &wf.index.fns[node.1];
            for (c, call) in func.calls.iter().enumerate() {
                let Edge::Resolved(next) = graph.edges[node.0][node.1][c] else {
                    continue;
                };
                if wf
                    .escapes
                    .contains(&(call.line, Rule::NoPanicInRequestPath))
                {
                    continue; // reviewed edge: traversal stops here
                }
                if chain.contains_key(&next) {
                    continue;
                }
                let mut path = here.clone();
                path.push(next);
                chain.insert(next, path);
                queue.push_back(next);
            }
        }
    }

    for (&node, path) in &chain {
        let wf = &graph.files[node.0];
        let func = graph.node(node);
        for &line in &func.index_lines {
            if wf.escapes.contains(&(line, Rule::NoPanicInRequestPath)) {
                *suppressed += 1;
                continue;
            }
            let entry_name = graph.node(path[0]).display_name();
            let message = if path.len() == 1 {
                format!(
                    "{INDEXING} in request entry `{entry_name}` — the serve path must not panic \
                     (return an error or use a checked accessor)"
                )
            } else {
                let rendered: Vec<String> = path
                    .iter()
                    .map(|&n| format!("`{}`", graph.node(n).display_name()))
                    .collect();
                format!(
                    "{INDEXING} reachable from request entry `{entry_name}` via {} — the serve \
                     path must not panic (return an error or use a checked accessor)",
                    rendered.join(" \u{2192} "),
                )
            };
            diags.push(Diagnostic {
                path: wf.label.clone(),
                line,
                rule: Rule::NoPanicInRequestPath,
                message,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::rules::FileView;

    fn work(label: &str, src: &str) -> WorkFile {
        let view = FileView::new(src);
        let escapes = crate::parse_escapes(src, &view)
            .allowed
            .into_iter()
            .collect();
        WorkFile {
            label: label.to_owned(),
            index: parse_file(label, &view),
            escapes,
            role: crate::graph_role(label).unwrap(),
        }
    }

    fn run(files: &[WorkFile]) -> (Vec<Diagnostic>, usize) {
        let graph = Graph::build(files);
        let mut diags = Vec::new();
        let mut suppressed = 0;
        no_panic_in_request_path(&graph, &mut diags, &mut suppressed);
        (diags, suppressed)
    }

    #[test]
    fn same_file_definitions_shadow_workspace_ones() {
        let files = [
            work(
                "crates/a/src/server.rs",
                "pub fn handle() { helper(1); }\nfn helper(x: u32) { let _ = x; }\n",
            ),
            // Same name + arity elsewhere: must not make the edge
            // ambiguous, same-file resolution wins.
            work(
                "crates/b/src/layout.rs",
                "fn helper(v: &[u8]) { let _ = v[0]; }\n",
            ),
        ];
        let (diags, _) = run(&files);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn transitive_indexing_is_found_with_chain() {
        let files = [work(
            "crates/a/src/server.rs",
            "pub fn handle(v: &[u8]) { mid(v); }\n\
             fn mid(v: &[u8]) { deep(v); }\n\
             fn deep(v: &[u8]) -> u8 { v[0] }\n",
        )];
        let (diags, _) = run(&files);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::NoPanicInRequestPath);
        assert!(
            diags[0]
                .message
                .contains("`handle` \u{2192} `mid` \u{2192} `deep`"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn ambiguous_edges_are_not_traversed() {
        let files = [
            work(
                "crates/a/src/server.rs",
                "pub fn handle(x: u32) { twin(x); }\n",
            ),
            work("crates/b/src/list.rs", "fn twin(x: u32) -> u32 { x + 1 }\n"),
            work(
                "crates/c/src/journal.rs",
                "fn twin(x: u32) -> u32 { [1u8, 2][x as usize] as u32 }\n",
            ),
        ];
        let (diags, _) = run(&files);
        assert!(diags.is_empty(), "ambiguity must not fire: {diags:?}");
    }

    #[test]
    fn edge_escape_cuts_traversal_and_site_escape_suppresses() {
        let files = [work(
            "crates/a/src/server.rs",
            "pub fn handle(v: &[u8]) {\n\
             \x20   checked(v); // lint: allow(no-panic-in-request-path)\n\
             \x20   local(v);\n\
             }\n\
             fn checked(v: &[u8]) -> u8 { v[0] }\n\
             fn local(v: &[u8]) -> u8 {\n\
             \x20   v[1] // lint: allow(no-panic-in-request-path)\n\
             }\n",
        )];
        let (diags, suppressed) = run(&files);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 1);
    }
}
