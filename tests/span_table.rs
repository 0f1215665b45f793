//! The run report's span rows follow work across fork-join workers.
//!
//! Runs `Study::from_text` and the experiment suite at one and two
//! workers and reads the rows each run added to
//! [`droplens_obs::run_report`]: parser spans running on pool workers
//! must key under the `load` stage that scheduled them, the five index
//! builds under the `index` stage, experiments under the span that
//! computed them, and the rows must not depend on the worker count. Lives in its own test binary because it owns
//! `DROPLENS_THREADS` and the global tracer's span table.

use std::collections::BTreeSet;

use droplens_core::paper::ExperimentResults;
use droplens_core::{Study, StudyConfig};
use droplens_net::DateRange;
use droplens_obs::SpanStat;
use droplens_synth::{World, WorldConfig};

#[test]
fn worker_spans_nest_under_their_stage_at_any_worker_count() {
    let world = World::generate(42, &WorldConfig::small());
    let text = world.to_text_archives();
    let tracer = droplens_obs::trace::global();
    let mut rows_by_workers = Vec::new();
    for workers in ["1", "2"] {
        std::env::set_var("DROPLENS_THREADS", workers);
        let before = droplens_obs::run_report().spans;
        tracer.enable();
        {
            let _run = tracer.span("run", "test");
            let mut config = StudyConfig::new(DateRange::inclusive(
                world.config.study_start,
                world.config.study_end,
            ));
            config.manual_labels = world.manual_labels();
            let study = Study::from_text(config, world.peers.clone(), &text).expect("parses");
            let _experiments = tracer.span("experiments", "test");
            ExperimentResults::compute(&study);
        }
        tracer.disable();
        let coverage = tracer.drain().coverage("index").expect("an index span");
        assert!(
            coverage >= 0.95,
            "index children cover {:.1}% at {workers} worker(s)",
            coverage * 100.0
        );
        // The rows this run added to the report (or counted again), and
        // those of them that ran inside a fork-join fan-out.
        let after = droplens_obs::run_report().spans;
        let grew = |field: fn(&SpanStat) -> u64| -> BTreeSet<String> {
            after
                .iter()
                .filter(|(path, stat)| before.get(*path).map_or(0, field) < field(stat))
                .map(|(path, _)| path.clone())
                .collect()
        };
        let rows = grew(|s| s.count);
        let concurrent = grew(|s| s.concurrent);
        let under = |prefix: &str| rows.iter().filter(|p| p.starts_with(prefix)).count();
        assert!(rows.contains("run/load/parse.bgp.updates"), "{rows:?}");
        assert_eq!(under("run/load/parse."), 6, "one row per parser: {rows:?}");
        const INDEXES: [&str; 5] = [
            "run/index/bgp",
            "run/index/irr",
            "run/index/rpki",
            "run/index/rir",
            "run/index/drop",
        ];
        for row in INDEXES {
            assert!(rows.contains(row), "{row} missing: {rows:?}");
        }
        assert_eq!(under("run/index/"), 5, "one row per index: {rows:?}");
        assert_eq!(
            under("run/experiments/"),
            16,
            "one row per experiment: {rows:?}"
        );
        // Every row's parent is a row too: nothing is synthesized.
        for path in &rows {
            if let Some((parent, _)) = path.rsplit_once('/') {
                assert!(rows.contains(parent), "{path} has no {parent} row");
            }
        }
        // Only spans inside a fan-out are concurrent: none at one
        // worker, the parsers and the index builds (on both sides of
        // `join`) at two.
        if workers == "1" {
            assert!(concurrent.is_empty(), "{concurrent:?}");
        } else {
            assert!(
                concurrent.contains("run/load/parse.bgp.updates"),
                "{concurrent:?}"
            );
            assert!(
                concurrent.contains("run/load/parse.rir.stats"),
                "{concurrent:?}"
            );
            assert!(!concurrent.contains("run/load"), "{concurrent:?}");
            for row in INDEXES {
                assert!(concurrent.contains(row), "{row}: {concurrent:?}");
            }
            assert!(!concurrent.contains("run/index"), "{concurrent:?}");
        }
        rows_by_workers.push(rows);
    }
    std::env::remove_var("DROPLENS_THREADS");
    assert_eq!(
        rows_by_workers[0], rows_by_workers[1],
        "the span rows depend on the worker count"
    );
}
