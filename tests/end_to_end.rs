//! End-to-end integration: serialize a world to its wire formats, parse
//! everything back through the real parsers, run the full experiment
//! suite, and check the paper's headline shapes.

use droplens_core::{experiments, Study, StudyConfig};
use droplens_drop::Category;
use droplens_synth::{World, WorldConfig};

/// A mid-size world: the paper's full DROP population (so rates are
/// stable) over a scaled-down background and peer set (so CI is fast).
fn midsize() -> WorldConfig {
    let small = WorldConfig::small();
    WorldConfig {
        peer_count: 12,
        filtering_peer_count: 3,
        background_per_rir: [40, 200, 300, 80, 320],
        mix: droplens_synth::CategoryMix::default(),
        removed_per_rir: WorldConfig::paper().removed_per_rir,
        ua_per_rir: WorldConfig::paper().ua_per_rir,
        late_irr_outliers: 2,
        unlisted_squats: 12,
        ..small
    }
}

#[test]
fn text_round_trip_preserves_every_experiment() {
    let world = World::generate(9, &midsize());
    let direct = Study::from_world(&world);

    let text = world.to_text_archives();
    let mut config = StudyConfig::new(direct.config.window);
    config.manual_labels = world.manual_labels();
    let parsed = Study::from_text(config, world.peers.clone(), &text).expect("archives parse");

    // Every experiment must render identically from parsed archives.
    assert_eq!(
        experiments::fig1::compute(&direct).to_string(),
        experiments::fig1::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::fig2::compute(&direct).to_string(),
        experiments::fig2::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::table1::compute(&direct).to_string(),
        experiments::table1::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::sec5::compute(&direct).to_string(),
        experiments::sec5::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::fig4::compute(&direct).to_string(),
        experiments::fig4::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::fig5::compute(&direct).to_string(),
        experiments::fig5::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::fig6::compute(&direct).to_string(),
        experiments::fig6::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::fig7::compute(&direct).to_string(),
        experiments::fig7::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::sec4::compute(&direct).to_string(),
        experiments::sec4::compute(&parsed).to_string()
    );
    assert_eq!(
        experiments::sec6::compute(&direct).to_string(),
        experiments::sec6::compute(&parsed).to_string()
    );
}

#[test]
fn headline_shapes_hold_at_midsize() {
    let world = World::generate(11, &midsize());
    let study = Study::from_world(&world);

    // Figure 2: HJ withdraw most, then UA, with the rest far behind.
    let fig2 = experiments::fig2::compute(&study);
    assert!(fig2.hijacked_30d() > fig2.unallocated_30d());
    assert!(fig2.unallocated_30d() > fig2.overall_30d());
    assert_eq!(fig2.filtering_peers.len(), 3);

    // Table 1: removed > never > present.
    let t1 = experiments::table1::compute(&study);
    assert!(t1.overall.removed.fraction() > t1.overall.never.fraction());
    assert!(t1.overall.never.fraction() > t1.overall.present.fraction());
    assert!(t1.different_asn_fraction() > 0.5);

    // §5: forged objects are a large minority of labeled hijacks.
    let s5 = experiments::sec5::compute(&study);
    assert!(s5.matching_asn > 0);
    assert!(s5.matching_asn < s5.labeled_hijacks);
    assert!(s5.org_with_common_transit.is_some());

    // Figure 5: signed space grows, unrouted-signed grows, % routed falls.
    let fig5 = experiments::fig5::compute(&study);
    let (first, last) = (fig5.points.first().unwrap(), fig5.points.last().unwrap());
    assert!(last.signed > first.signed);
    assert!(last.signed_unrouted > first.signed_unrouted);
    assert!(last.routed_fraction() < first.routed_fraction());

    // Figure 6: unallocated listings continue after AS0 policies.
    let fig6 = experiments::fig6::compute(&study);
    assert!(fig6.after_policy_per_rir.values().sum::<usize>() > 0);

    // §6.2: nobody filters on the AS0 TALs.
    let s6 = experiments::sec6::compute(&study);
    assert!(s6.nobody_filters_as0_tals());
    assert_eq!(s6.operator_as0.len(), 1);
}

#[test]
fn category_population_survives_the_whole_pipeline() {
    let cfg = midsize();
    let world = World::generate(13, &cfg);
    let text = world.to_text_archives();
    let mut sconfig = StudyConfig::new(droplens_net::DateRange::inclusive(
        cfg.study_start,
        cfg.study_end,
    ));
    sconfig.manual_labels = world.manual_labels();
    let study = Study::from_text(sconfig, world.peers.clone(), &text).expect("parses");

    assert_eq!(study.entries.len(), cfg.mix.total());
    assert_eq!(
        study.with_category(Category::NoSblRecord).count(),
        cfg.mix.nr
    );
    assert_eq!(
        study.with_category(Category::Unallocated).count(),
        cfg.mix.ua
    );
    assert_eq!(
        study.with_category(Category::Hijacked).count(),
        cfg.mix.hj_forged_irr
            + cfg.mix.hj_labeled_no_irr
            + cfg.mix.hj_afrinic_incident
            + cfg.mix.hj_unlabeled
            + cfg.mix.ss_plus_hj
    );
}
