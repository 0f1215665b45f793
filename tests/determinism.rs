//! Reproducibility: a seed fully determines the world, its serialized
//! archives, and every experiment's rendered output — at any worker
//! count.

use droplens_core::{experiments, paper, Study, StudyConfig};
use droplens_net::DateRange;
use droplens_synth::{World, WorldConfig};

#[test]
fn same_seed_same_rendered_experiments() {
    let render = |seed: u64| {
        let world = World::generate(seed, &WorldConfig::small());
        let study = Study::from_world(&world);
        format!(
            "{}{}{}{}{}{}",
            experiments::fig1::compute(&study),
            experiments::fig2::compute(&study),
            experiments::table1::compute(&study),
            experiments::sec5::compute(&study),
            experiments::fig5::compute(&study),
            experiments::sec6::compute(&study),
        )
    };
    assert_eq!(render(5), render(5));
    assert_ne!(render(5), render(6));
}

#[test]
fn same_seed_same_archive_bytes() {
    let bytes = |seed: u64| {
        let world = World::generate(seed, &WorldConfig::small());
        let t = world.to_text_archives();
        let mut all = String::new();
        all.push_str(&t.bgp_updates);
        all.push_str(&t.irr_journal);
        all.push_str(&t.roa_events);
        all.push_str(&t.sbl_records);
        for (_, files) in &t.rir_snapshots {
            for f in files {
                all.push_str(f);
            }
        }
        for (_, s) in &t.drop_snapshots {
            all.push_str(s);
        }
        all
    };
    assert_eq!(bytes(123), bytes(123));
}

/// The parallel pipeline's core guarantee: `DROPLENS_THREADS` changes
/// wall-clock, never output. The whole text round trip — serialize,
/// parse, index, annotate, every experiment, the scorecard — produces
/// identical results at one worker and at eight.
#[test]
fn thread_count_does_not_change_the_study() {
    let snapshot = |threads: &str| {
        std::env::set_var("DROPLENS_THREADS", threads);
        let world = World::generate(7, &WorldConfig::small());
        let text = world.to_text_archives();
        let mut config = StudyConfig::new(DateRange::inclusive(
            world.config.study_start,
            world.config.study_end,
        ));
        config.manual_labels = world.manual_labels();
        let study = Study::from_text(config, world.peers.clone(), &text).expect("archives parse");
        let results = paper::ExperimentResults::compute(&study);
        let rendered = format!(
            "{}{}{}{}{}",
            results.summary, results.fig1, results.fig2, results.fig5, results.sec6
        );
        let scorecard = paper::render(&paper::scorecard_with(&study, &results));
        (study.entries.clone(), rendered, scorecard)
    };
    let one = snapshot("1");
    let eight = snapshot("8");
    std::env::remove_var("DROPLENS_THREADS");
    assert_eq!(one.0, eight.0, "entries must not depend on worker count");
    assert_eq!(one.1, eight.1, "rendered experiments must match");
    assert_eq!(one.2, eight.2, "scorecard must match");
}

#[test]
fn config_changes_change_the_world() {
    let base = World::generate(1, &WorldConfig::small());
    let mut cfg = WorldConfig::small();
    cfg.mix.ss_exclusive += 1;
    let tweaked = World::generate(1, &cfg);
    assert_ne!(
        base.truth.listed.len(),
        tweaked.truth.listed.len(),
        "mix change must change the population"
    );
}
