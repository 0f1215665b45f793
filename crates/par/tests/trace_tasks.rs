//! Per-task trace spans from the fork-join helpers.
//!
//! Lives alone in its own test binary: it enables the process-wide
//! tracer, which would leak events into any test sharing the process.

use droplens_obs::trace::{self, ArgValue, EventKind};

#[test]
fn par_helpers_emit_task_spans_under_the_calling_span() {
    let tracer = trace::global();
    tracer.enable();

    let stage = tracer.span("stage", "test");
    let stage_id = stage.id();
    let items: Vec<u64> = (0..64).collect();
    let doubled = droplens_par::par_map_with(4, &items, |&x| x * 2);
    assert_eq!(doubled[63], 126);

    let mut in_place: Vec<u64> = (0..64).collect();
    droplens_par::par_for_each_mut_with(4, &mut in_place, |x| *x += 1);

    // The spawned side of join adopts the caller's span: a span opened
    // inside it must parent under `stage` despite the thread hop.
    let (_, inner_id) = droplens_par::join(
        || (),
        || {
            let g = tracer.span("inner", "test");
            g.id()
        },
    );
    stage.finish();
    tracer.disable();

    let events = tracer.drain().events;
    let tasks: Vec<_> = events.iter().filter(|e| e.name == "task").collect();
    // 4 chunks from par_map + 4 from par_for_each_mut.
    assert_eq!(tasks.len(), 8);
    for t in &tasks {
        assert_eq!(t.parent, stage_id);
        assert_eq!(t.cat, "par");
        assert_eq!(t.kind, EventKind::Span);
        let wait = t
            .args
            .iter()
            .find(|(k, _)| *k == "queue_wait_ns")
            .expect("queue wait recorded");
        assert!(matches!(wait.1, ArgValue::U64(_)));
        let items = t.args.iter().find(|(k, _)| *k == "items").unwrap();
        assert_eq!(items.1, ArgValue::U64(16));
    }
    // Tasks land on worker timelines, not all on the main thread's.
    assert!(tasks.iter().any(|t| t.tid != 0), "workers get own tids");

    let inner = events.iter().find(|e| e.name == "inner").unwrap();
    assert_eq!(inner.id, inner_id);
    assert_eq!(
        inner.parent, stage_id,
        "join's spawned side adopts the caller's span"
    );
}
