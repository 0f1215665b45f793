//! End-to-end trace of the ingestion pipeline.
//!
//! Drives `Study::from_text` under the global tracer — permissive
//! policy, one corrupt line — and asserts the drained trace carries the
//! full hierarchy: stage spans, cross-thread parser spans parented
//! under `load`, per-task `par` spans with queue-wait, and the
//! quarantine instant for the corrupt line. Lives in its own test
//! binary because it owns the process-global tracer; a second test
//! enabling it concurrently would interleave events.

use droplens_core::{Study, StudyConfig};
use droplens_net::{DateRange, IngestPolicy};
use droplens_obs::trace::{ArgValue, EventKind};
use droplens_synth::{World, WorldConfig};

#[test]
fn pipeline_trace_captures_stages_parsers_and_quarantine() {
    // Force a real fan-out even on single-core CI runners — without
    // workers `par_map` runs inline and emits no task spans.
    std::env::set_var("DROPLENS_THREADS", "4");
    let world = World::generate(42, &WorldConfig::small());
    let mut text = world.to_text_archives();
    text.bgp_updates.push_str("GARBAGE LINE\n");
    let mut config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    config.ingest = IngestPolicy::permissive();
    config.manual_labels = world.manual_labels();

    let tracer = droplens_obs::trace::global();
    tracer.enable();
    let study = Study::from_text(config, world.peers.clone(), &text).expect("permissive parses");
    tracer.disable();
    let trace = tracer.drain();

    assert_eq!(study.ingest.total_quarantined(), 1);

    let find_span = |name: &str| {
        trace
            .events
            .iter()
            .find(|e| e.name == name && e.kind == EventKind::Span)
            .unwrap_or_else(|| panic!("no {name:?} span in trace"))
    };

    // The three stages of `from_text` are spans, `index` and `annotate`
    // nested under nothing deeper than the root.
    let load = find_span("load");
    find_span("index");
    find_span("annotate");

    // Every parser `from_text` exercises left a `parse` span, and each
    // one — despite running on a pool worker, some inside nested
    // per-snapshot task spans — has the `load` span as an ancestor via
    // cross-thread adoption.
    let by_id: std::collections::BTreeMap<u64, &droplens_obs::TraceEvent> =
        trace.events.iter().map(|e| (e.id, e)).collect();
    let under_load = |mut id: u64| {
        while let Some(e) = by_id.get(&id) {
            if e.id == load.id {
                return true;
            }
            id = e.parent;
        }
        false
    };
    for name in [
        "parse.bgp.updates",
        "parse.irr.journal",
        "parse.rpki.events",
        "parse.rir.stats",
        "parse.drop.list",
        "parse.drop.sbl",
    ] {
        let span = find_span(name);
        assert_eq!(span.cat, "parse", "{name}");
        assert!(under_load(span.id), "{name} not under load");
        assert!(
            span.args
                .iter()
                .any(|(k, v)| *k == "records" && matches!(v, ArgValue::U64(_))),
            "{name} missing records arg: {:?}",
            span.args
        );
    }

    // `par_map` fan-out (RIR/DROP per-snapshot parsing, annotate) left
    // per-task spans carrying their queue wait.
    let tasks: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "task" && e.cat == "par")
        .collect();
    assert!(!tasks.is_empty(), "no par task spans recorded");
    for t in &tasks {
        assert!(
            t.args.iter().any(|(k, _)| *k == "queue_wait_ns"),
            "task span missing queue_wait_ns: {:?}",
            t.args
        );
    }

    // The corrupt line shows up as a located quarantine instant.
    let q = trace
        .events
        .iter()
        .find(|e| e.name == "quarantine" && e.kind == EventKind::Instant)
        .expect("no quarantine instant in trace");
    assert_eq!(q.cat, "ingest");
    let arg_str = |key: &str| {
        q.args.iter().find_map(|(k, v)| match v {
            ArgValue::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
    };
    assert_eq!(arg_str("source"), Some("bgp/updates.txt"));
    let line = q.args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(n) if *k == "line" => Some(*n),
        _ => None,
    });
    assert!(line.is_some(), "quarantine instant carries no line number");
    assert!(
        arg_str("error").is_some_and(|e| e.contains("GARBAGE LINE") && e.contains("updates.txt:")),
        "error arg should locate the corrupt line: {:?}",
        q.args
    );

    // The Chrome export is loadable structure: schema header, per-thread
    // metadata, and the events above all present.
    let chrome = trace.to_chrome_json();
    for needle in [
        "\"traceEvents\"",
        "\"droplens-trace/1\"",
        "\"main\"",
        "\"parse.bgp.updates\"",
        "\"quarantine\"",
        "\"queue_wait_ns\"",
    ] {
        assert!(chrome.contains(needle), "chrome json missing {needle}");
    }

    // The deterministic tree renders the same hierarchy: stages at the
    // root (name order), parsers under load with their category tag.
    let tree = trace.to_text_tree();
    assert!(tree.contains("#1 annotate"), "{tree}");
    assert!(tree.contains(" load "), "{tree}");
    assert!(tree.contains("parse.bgp.updates"), "{tree}");
    assert!(tree.contains("<parse>"), "{tree}");
    assert!(tree.contains("quarantine"), "{tree}");
}
