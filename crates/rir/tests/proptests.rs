//! Property-based tests: CIDR decomposition of delegation spans, stats
//! file round-trips, and temporal archive consistency.

use std::net::Ipv4Addr;

use droplens_net::Date;
use droplens_rir::format::{parse_stats_file, write_stats_file, StatsFile};
use droplens_rir::{AllocationStatus, DelegationRecord, Rir, RirStatsArchive};
use proptest::prelude::*;

fn rir() -> impl Strategy<Value = Rir> {
    prop::sample::select(Rir::ALL.to_vec())
}

fn span() -> impl Strategy<Value = (u32, u64)> {
    // Arbitrary start, count bounded so start+count fits.
    (any::<u32>(), 1u64..100_000).prop_map(|(start, count)| {
        let max = (1u64 << 32) - u64::from(start);
        (start, count.min(max))
    })
}

fn record() -> impl Strategy<Value = DelegationRecord> {
    (rir(), span(), prop::bool::ANY, 0i32..9_000).prop_map(|(rir, (start, count), alloc, off)| {
        if alloc {
            DelegationRecord::allocated(
                rir,
                "US",
                Ipv4Addr::from(start),
                count,
                Date::from_days_since_epoch(10_000 + off),
                "ORG-X",
            )
        } else {
            DelegationRecord::available(rir, Ipv4Addr::from(start), count)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decomposition_is_exact_disjoint_and_ordered((start, count) in span()) {
        let rec = DelegationRecord::available(Rir::Arin, Ipv4Addr::from(start), count);
        let prefixes = rec.prefixes();
        // Exact coverage.
        let total: u64 = prefixes.iter().map(|p| p.address_count()).sum();
        prop_assert_eq!(total, count);
        // Contiguous from the start, in order, disjoint.
        let mut cursor = u64::from(start);
        for p in &prefixes {
            prop_assert_eq!(u64::from(p.network_u32()), cursor);
            cursor += p.address_count();
        }
        // Minimality: a greedy decomposition never needs more than
        // 2*32 blocks.
        prop_assert!(prefixes.len() <= 64, "{} blocks", prefixes.len());
    }

    #[test]
    fn stats_file_round_trips(records in prop::collection::vec(record(), 0..20), rir in rir(), off in 0i32..9000) {
        // All rows in one file must belong to the file's registry.
        let records: Vec<DelegationRecord> = records
            .into_iter()
            .map(|mut r| {
                r.rir = rir;
                r
            })
            .collect();
        let file = StatsFile {
            rir,
            date: Date::from_days_since_epoch(10_000 + off),
            records,
        };
        let text = write_stats_file(&file);
        prop_assert_eq!(parse_stats_file(&text).expect("own output parses"), file);
    }

    #[test]
    fn archive_status_matches_snapshot_contents(
        blocks in prop::collection::vec((0u32..16, prop::bool::ANY), 1..10),
        probe_block in 0u32..16,
    ) {
        // One snapshot with /12 blocks inside 10.0.0.0/8, alternating
        // allocated/available.
        let date = Date::from_ymd(2020, 1, 1);
        let records: Vec<DelegationRecord> = blocks
            .iter()
            .map(|&(i, delegated)| {
                let start = Ipv4Addr::from(0x0a00_0000 | (i << 20));
                if delegated {
                    DelegationRecord::allocated(Rir::Arin, "US", start, 1 << 20, date, "ORG")
                } else {
                    DelegationRecord::available(Rir::Arin, start, 1 << 20)
                }
            })
            .collect();
        let mut archive = RirStatsArchive::new();
        archive.add_snapshot(date, &[StatsFile { rir: Rir::Arin, date, records: records.clone() }]);

        let query = droplens_net::Ipv4Prefix::from_u32(0x0a00_0000 | (probe_block << 20), 12);
        let expected = records
            .iter()
            .rev() // later rows overwrite earlier in the trie
            .find(|r| u32::from(r.start) == query.network_u32())
            .map(|r| r.status);
        match (archive.status_of(&query, date), expected) {
            (Some(got), Some(status)) => {
                prop_assert_eq!(got.status, status);
                prop_assert_eq!(got.rir, Rir::Arin);
                prop_assert_eq!(
                    archive.is_allocated(&query, date),
                    status.is_delegated()
                );
            }
            (None, None) => {}
            (got, expected) => {
                return Err(TestCaseError::fail(format!("{got:?} vs {expected:?}")));
            }
        }
        // Before the snapshot: nothing resolves.
        prop_assert!(archive.status_of(&query, date.pred()).is_none());
    }

    #[test]
    fn free_pool_equals_sum_of_available_rows(blocks in prop::collection::vec((0u32..16, prop::bool::ANY), 1..12)) {
        let date = Date::from_ymd(2020, 1, 1);
        let mut seen = std::collections::BTreeSet::new();
        let records: Vec<DelegationRecord> = blocks
            .iter()
            .filter(|(i, _)| seen.insert(*i))
            .map(|&(i, delegated)| {
                let start = Ipv4Addr::from(0x0a00_0000 | (i << 20));
                if delegated {
                    DelegationRecord::allocated(Rir::Lacnic, "BR", start, 1 << 20, date, "ORG")
                } else {
                    DelegationRecord::available(Rir::Lacnic, start, 1 << 20)
                }
            })
            .collect();
        let expected: u64 = records
            .iter()
            .filter(|r| r.status == AllocationStatus::Available)
            .map(|r| r.count)
            .sum();
        let mut archive = RirStatsArchive::new();
        archive.add_snapshot(date, &[StatsFile { rir: Rir::Lacnic, date, records }]);
        prop_assert_eq!(archive.free_pool(Rir::Lacnic, date).addresses(), expected);
        prop_assert_eq!(archive.free_pool(Rir::Arin, date).addresses(), 0);
    }
}
