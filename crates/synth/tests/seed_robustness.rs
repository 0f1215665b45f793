//! Seed-robustness: world invariants must hold for *every* seed, not
//! just the default. A handful of generations with random seeds checks
//! the generator's structural contracts.

use droplens_net::PrefixSet;
use droplens_synth::{World, WorldConfig};
use proptest::prelude::*;

proptest! {
    // World generation is the expensive part; a few cases suffice — the
    // point is that nothing about the invariants is seed-specific.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn world_invariants_hold_for_any_seed(seed in any::<u64>()) {
        let cfg = WorldConfig::small();
        let world = World::generate(seed, &cfg);

        // Population is exact regardless of seed.
        prop_assert_eq!(world.truth.listed.len(), cfg.mix.total());

        // Every listing lies inside the study window.
        for t in &world.truth.listed {
            prop_assert!(t.listed >= cfg.study_start, "{} listed early", t.prefix);
            prop_assert!(t.listed <= cfg.study_end, "{} listed late", t.prefix);
            if let Some(r) = t.removed {
                prop_assert!(r > t.listed, "{} removed before listed", t.prefix);
                prop_assert!(r <= cfg.study_end);
            }
        }

        // Listed prefixes never overlap (the generator allocates
        // disjoint blocks).
        let mut set = PrefixSet::new();
        for t in &world.truth.listed {
            prop_assert!(!set.overlaps(&t.prefix), "{} overlaps", t.prefix);
            set.insert(t.prefix);
        }

        // Journals stay chronological; updates stay sorted.
        prop_assert!(world.irr_journal.windows(2).all(|p| p[0].date <= p[1].date));
        prop_assert!(world.roa_events.windows(2).all(|p| p[0].date <= p[1].date));
        prop_assert!(world.bgp_updates.windows(2).all(|p| p[0].date <= p[1].date));

        // No BGP activity before the modeled history begins.
        if let Some(first) = world.bgp_updates.first() {
            prop_assert!(first.date >= cfg.history_start);
        }

        // The scripted stories exist in every seed.
        prop_assert!(world.truth.case_study_prefix.is_some());
        prop_assert!(world.truth.operator_as0_prefix.is_some());
        prop_assert_eq!(world.truth.filtering_peers.len(), cfg.filtering_peer_count);

        // SBL database matches the with-record population.
        prop_assert_eq!(world.sbl_db.len(), cfg.mix.with_record());

        // Stats snapshots are chronological and cover the study window.
        let dates: Vec<_> = world.rir_snapshots.iter().map(|(d, _)| *d).collect();
        prop_assert!(dates.windows(2).all(|p| p[0] < p[1]));
        prop_assert!(*dates.first().expect("snapshots") <= cfg.study_start);
        prop_assert!(*dates.last().expect("snapshots") <= cfg.study_end);
    }
}
