//! Property-based tests: RPSL and journal round-trips, and registry
//! replay against a naive interval model.

use droplens_irr::{journal, IrrRegistry, JournalEntry, JournalOp, RouteObject};
use droplens_net::{Asn, Date, Ipv4Prefix};
use proptest::prelude::*;

const EPOCH: i32 = 18_000;

fn prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..8, 16u8..24).prop_map(|(i, len)| Ipv4Prefix::from_u32(0x0a00_0000 | (i << 20), len))
}

fn freeform() -> impl Strategy<Value = String> {
    // RPSL values: printable, no newlines (continuations are writer-side).
    "[a-zA-Z0-9 .@-]{0,30}".prop_map(|s| s.trim().to_owned())
}

fn object() -> impl Strategy<Value = RouteObject> {
    (
        prefix(),
        1u32..50,
        freeform(),
        freeform(),
        prop::option::of(freeform()),
    )
        .prop_map(|(p, asn, descr, mnt, org)| {
            let mut o = RouteObject::new(p, Asn(asn))
                .with_descr(descr)
                .with_maintainer(mnt);
            if let Some(org) = org.filter(|s| !s.is_empty()) {
                o = o.with_org(org);
            }
            o
        })
}

fn entry() -> impl Strategy<Value = JournalEntry> {
    (0i32..300, prop::bool::ANY, object()).prop_map(|(off, add, object)| JournalEntry {
        date: Date::from_days_since_epoch(EPOCH + off),
        op: if add { JournalOp::Add } else { JournalOp::Del },
        object,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rpsl_round_trips(o in object()) {
        let text = o.to_string();
        prop_assert_eq!(text.parse::<RouteObject>().expect("own output parses"), o);
    }

    #[test]
    fn journal_round_trips(mut entries in prop::collection::vec(entry(), 0..25)) {
        entries.sort_by_key(|e| e.date);
        let text = journal::write_journal(&entries);
        prop_assert_eq!(journal::parse_journal(&text).expect("own output parses"), entries);
    }

    #[test]
    fn registry_replay_matches_interval_model(mut entries in prop::collection::vec(entry(), 0..30),
                                              probe_off in 0i32..300) {
        entries.sort_by_key(|e| e.date);
        let probe = Date::from_days_since_epoch(EPOCH + probe_off);

        // Model: replay, tracking the live (prefix, origin) set.
        let mut live: Vec<(Ipv4Prefix, Asn)> = Vec::new();
        for e in &entries {
            if e.date > probe {
                break;
            }
            let key = e.object.key();
            match e.op {
                JournalOp::Add => {
                    if !live.contains(&key) {
                        live.push(key);
                    }
                }
                JournalOp::Del => live.retain(|k| *k != key),
            }
        }
        live.sort();

        let registry = IrrRegistry::from_journal(&entries);
        let mut got: Vec<(Ipv4Prefix, Asn)> = registry
            .all()
            .iter()
            .filter(|r| r.active_on(probe))
            .map(|r| r.object.key())
            .collect();
        got.sort();
        prop_assert_eq!(got, live);
    }

    #[test]
    fn more_specific_queries_are_consistent(mut entries in prop::collection::vec(entry(), 0..25),
                                            query in prefix()) {
        entries.sort_by_key(|e| e.date);
        let registry = IrrRegistry::from_journal(&entries);
        let more_specific = registry.for_prefix_or_more_specific(&query);
        // Every result's prefix is covered by the query.
        for r in &more_specific {
            prop_assert!(query.covers(&r.object.prefix));
        }
        // Exact results are a subset of more-specific results.
        let exact = registry.for_prefix(&query);
        prop_assert!(exact.len() <= more_specific.len());
        // The model count agrees: distinct generations whose prefix the
        // query covers.
        let expected = registry
            .all()
            .iter()
            .filter(|r| query.covers(&r.object.prefix))
            .count();
        prop_assert_eq!(more_specific.len(), expected);
    }

    #[test]
    fn window_queries_match_lifetimes(mut entries in prop::collection::vec(entry(), 0..25),
                                      from_off in 0i32..300, span in 0i32..60) {
        entries.sort_by_key(|e| e.date);
        let registry = IrrRegistry::from_journal(&entries);
        let from = Date::from_days_since_epoch(EPOCH + from_off);
        let to = from + span;
        for query in entries.iter().map(|e| e.object.prefix).collect::<std::collections::BTreeSet<_>>() {
            let got = registry.active_in_window(&query, from, to).len();
            let expected = registry
                .all()
                .iter()
                .filter(|r| query.covers(&r.object.prefix))
                .filter(|r| r.created <= to && r.removed.is_none_or(|rm| rm > from))
                .count();
            prop_assert_eq!(got, expected, "{} in [{}, {}]", query, from, to);
        }
    }
}
