//! The `wallclock-taint` workspace pass: values born at
//! `Instant::now`/`SystemTime::now` flowing through function returns
//! into ordered-output modules.
//!
//! The lexical `no-wallclock` rule bans clock *reads* outside
//! `crates/obs`; this pass closes the laundering loophole — a helper in
//! an unscoped module reads the clock, returns the value, and an
//! output writer formats it into a report. Taint is deliberately
//! coarse (DESIGN.md §14): a function is tainted when it returns a
//! value **and** either reads the clock directly or calls (over a
//! resolved edge) a tainted function. No dataflow is tracked inside a
//! body — a function that calls a tainted helper but returns something
//! unrelated is still tainted (escapable false positive), while taint
//! smuggled through `&mut` out-params is invisible (accepted false
//! negative). Ambiguous and unresolved edges never propagate taint.

use std::collections::BTreeMap;

use crate::graph::{Edge, Graph, NodeId};
use crate::{Diagnostic, Rule};

/// Where a node's taint ultimately came from.
#[derive(Clone)]
struct Origin {
    /// The function that reads the clock.
    node: NodeId,
    /// Line of the clock read.
    line: u32,
}

/// Run the pass: seed taint at clock-reading, value-returning
/// functions, propagate through returning callers, then report every
/// resolved call to a tainted function made inside an ordered-output
/// module (sink files; `crates/obs` is exempt — it owns the clock).
/// `// lint: allow(wallclock-taint)` on the call line suppresses a
/// finding; on an intermediate call line it stops propagation through
/// that edge.
pub(crate) fn wallclock_taint(
    graph: &Graph<'_>,
    diags: &mut Vec<Diagnostic>,
    suppressed: &mut usize,
) {
    // Seed: direct clock readers that return a value — except inside
    // `crates/obs`, whose clock reads are the sanctioned channel
    // (mirroring the lexical `no-wallclock` exemption). Stopwatch and
    // span durations are supposed to appear in perf output; the taint
    // rule hunts clock values born outside that boundary.
    let mut tainted: BTreeMap<NodeId, Origin> = BTreeMap::new();
    for (f, wf) in graph.files.iter().enumerate() {
        if wf.role.clock_owner {
            continue;
        }
        for (k, func) in wf.index.fns.iter().enumerate() {
            if func.sig.has_return {
                if let Some(&line) = func.clock_lines.first() {
                    tainted.insert((f, k), Origin { node: (f, k), line });
                }
            }
        }
    }

    // Propagate to returning callers over resolved, unescaped edges,
    // to fixpoint. Deterministic: nodes and calls visit in file/fn/
    // source order, and an already-tainted node is never re-tainted,
    // so the first (in iteration order) tainting call fixes the origin.
    loop {
        let mut changed = false;
        for (f, wf) in graph.files.iter().enumerate() {
            for (k, func) in wf.index.fns.iter().enumerate() {
                if !func.sig.has_return || tainted.contains_key(&(f, k)) {
                    continue;
                }
                for (c, call) in func.calls.iter().enumerate() {
                    let Edge::Resolved(target) = graph.edges[f][k][c] else {
                        continue;
                    };
                    if wf.escapes.contains(&(call.line, Rule::WallclockTaint)) {
                        continue;
                    }
                    if let Some(origin) = tainted.get(&target).cloned() {
                        tainted.insert((f, k), origin);
                        changed = true;
                        break;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Sinks: calls to tainted functions from ordered-output files.
    for (f, wf) in graph.files.iter().enumerate() {
        if !wf.role.ordered_sink {
            continue;
        }
        for (k, func) in wf.index.fns.iter().enumerate() {
            for (c, call) in func.calls.iter().enumerate() {
                let Edge::Resolved(target) = graph.edges[f][k][c] else {
                    continue;
                };
                let Some(origin) = tainted.get(&target) else {
                    continue;
                };
                if wf.escapes.contains(&(call.line, Rule::WallclockTaint)) {
                    *suppressed += 1;
                    continue;
                }
                let origin_fn = graph.node(origin.node);
                diags.push(Diagnostic {
                    path: wf.label.clone(),
                    line: call.line,
                    rule: Rule::WallclockTaint,
                    message: format!(
                        "`{}` returns a wallclock-derived value (clock read in `{}` at {}:{}) \
                         into an ordered-output module — take time from droplens_obs instead",
                        call.name,
                        origin_fn.display_name(),
                        graph.files[origin.node.0].label,
                        origin.line,
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WorkFile;
    use crate::parse::parse_file;
    use crate::rules::FileView;

    fn work(label: &str, src: &str) -> WorkFile {
        let view = FileView::new(src);
        WorkFile {
            label: label.to_owned(),
            index: parse_file(label, &view),
            escapes: crate::parse_escapes(src, &view).allowed,
            role: crate::graph_role(label).unwrap(),
        }
    }

    fn run(files: &[WorkFile]) -> (Vec<Diagnostic>, usize) {
        let graph = Graph::build(files);
        let mut diags = Vec::new();
        let mut suppressed = 0;
        wallclock_taint(&graph, &mut diags, &mut suppressed);
        (diags, suppressed)
    }

    #[test]
    fn laundered_clock_value_reaches_the_sink() {
        let files = [
            work(
                "crates/util/src/clockio.rs",
                "pub fn stamp_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
                 pub fn relay_ns() -> u64 { stamp_ns() }\n",
            ),
            work(
                "crates/out/src/report.rs",
                "pub fn render() -> String { format_row(relay_ns()) }\n\
                 fn format_row(x: u64) -> String { x.to_string() }\n",
            ),
        ];
        let (diags, _) = run(&files);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::WallclockTaint);
        assert_eq!(diags[0].path, "crates/out/src/report.rs");
        assert!(
            diags[0].message.contains("`stamp_ns`") && diags[0].message.contains("clockio.rs:1"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn non_returning_clock_reader_does_not_taint() {
        let files = [
            work(
                "crates/util/src/clockio.rs",
                "pub fn log_now() { let _ = Instant::now(); }\n",
            ),
            work(
                "crates/out/src/report.rs",
                "pub fn render() { log_now(); }\n",
            ),
        ];
        let (diags, _) = run(&files);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn obs_clock_reads_do_not_seed_taint() {
        let files = [
            work(
                "crates/obs/src/clock.rs",
                "pub fn start_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
            work(
                "crates/out/src/report.rs",
                "pub fn render() -> u64 { start_ns() }\n",
            ),
        ];
        let (diags, _) = run(&files);
        assert!(diags.is_empty(), "obs owns the clock: {diags:?}");
    }

    #[test]
    fn sink_escape_suppresses() {
        let files = [
            work(
                "crates/util/src/clockio.rs",
                "pub fn stamp_ns() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
            work(
                "crates/out/src/report.rs",
                "pub fn render() -> u64 {\n\
                 \x20   stamp_ns() // lint: allow(wallclock-taint)\n\
                 }\n",
            ),
        ];
        let (diags, suppressed) = run(&files);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 1);
    }
}
