//! Temporal allocation database over stats-file snapshots.

use std::collections::BTreeMap;

use droplens_net::{AddressSpace, Date, Ipv4Prefix, OrgId, ParseError, PrefixTrie, StringInterner};

use crate::format::StatsFile;
use crate::{AllocationStatus, Rir};

/// The allocation status of a prefix on a given day, as resolved by
/// longest-match against the snapshot in force.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusAt {
    /// Managing registry.
    pub rir: Rir,
    /// Row status.
    pub status: AllocationStatus,
    /// The allocation date recorded on the row, if any.
    pub allocated_on: Option<Date>,
    /// Registry-internal organization handle.
    pub opaque_id: String,
    /// The CIDR block the query matched.
    pub matched: Ipv4Prefix,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    rir: Rir,
    status: AllocationStatus,
    allocated_on: Option<Date>,
    /// Interned org handle in [`RirStatsArchive::orgs`].
    org: OrgId,
}

struct Snapshot {
    date: Date,
    /// One entry per stats row; the trie stores indices into this vec so
    /// a row delegated as several CIDR blocks shares one entry (no
    /// per-prefix `String` clones at index time).
    entries: Vec<IndexEntry>,
    index: PrefixTrie<u32>,
    free_pool: BTreeMap<Rir, AddressSpace>,
    delegated: BTreeMap<Rir, AddressSpace>,
}

impl Snapshot {
    fn entry_matching(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, IndexEntry)> {
        let (matched, &id) = self.index.longest_match(prefix)?;
        Some((matched, self.entries[id as usize]))
    }
}

/// A time series of delegated-stats snapshots (typically one per day or
/// per month), answering point-in-time allocation queries.
///
/// The paper's convention: a prefix is **unallocated** on day D when the
/// stats in force on D do not show it as `allocated`/`assigned`.
#[derive(Default)]
pub struct RirStatsArchive {
    snapshots: Vec<Snapshot>,
    /// Interned org handles: consecutive daily snapshots repeat the same
    /// handles ~700k times across a paper-scale run, so entries store a
    /// 4-byte [`OrgId`] instead of cloning a `String` per row.
    orgs: StringInterner<OrgId>,
}

impl RirStatsArchive {
    /// An empty archive.
    pub fn new() -> RirStatsArchive {
        RirStatsArchive::default()
    }

    /// Add a snapshot assembled from the (up to five) per-RIR files
    /// published on `date`. Snapshots must be added in chronological
    /// order; panics otherwise (archives are built by one writer).
    #[allow(clippy::panic)] // one chronological writer builds the archive; ingestion calls try_add_snapshot
    pub fn add_snapshot(&mut self, date: Date, files: &[StatsFile]) {
        if let Err(e) = self.try_add_snapshot(date, files) {
            panic!("snapshots must be added in chronological order: {e}");
        }
    }

    /// Fallible variant of [`RirStatsArchive::add_snapshot`]: an
    /// out-of-order date is reported as a [`ParseError`] instead of
    /// panicking, so ingestion can surface the offending snapshot.
    pub fn try_add_snapshot(&mut self, date: Date, files: &[StatsFile]) -> Result<(), ParseError> {
        if let Some(last) = self.snapshots.last() {
            if last.date >= date {
                return Err(ParseError::new(
                    "RirStatsArchive",
                    &date.to_string(),
                    format!(
                        "snapshot out of chronological order (follows {})",
                        last.date
                    ),
                ));
            }
        }
        let mut entries = Vec::new();
        let mut index = PrefixTrie::new();
        let mut free_pool: BTreeMap<Rir, AddressSpace> = BTreeMap::new();
        let mut delegated: BTreeMap<Rir, AddressSpace> = BTreeMap::new();
        for file in files {
            for record in &file.records {
                let space = AddressSpace::from_addresses(record.count);
                if record.status == AllocationStatus::Available {
                    *free_pool.entry(record.rir).or_default() += space;
                }
                if record.status.is_delegated() {
                    *delegated.entry(record.rir).or_default() += space;
                }
                let org = self.orgs.intern(&record.opaque_id);
                let id = entries.len() as u32;
                entries.push(IndexEntry {
                    rir: record.rir,
                    status: record.status,
                    allocated_on: record.date,
                    org,
                });
                for prefix in record.prefixes() {
                    index.insert(prefix, id);
                }
            }
        }
        self.snapshots.push(Snapshot {
            date,
            entries,
            index,
            free_pool,
            delegated,
        });
        Ok(())
    }

    /// Dates of all snapshots, ascending.
    pub fn snapshot_dates(&self) -> Vec<Date> {
        self.snapshots.iter().map(|s| s.date).collect()
    }

    /// The snapshot in force on `date` (the latest snapshot at or before
    /// it), if any.
    fn snapshot_at(&self, date: Date) -> Option<&Snapshot> {
        let idx = self.snapshots.partition_point(|s| s.date <= date);
        idx.checked_sub(1).map(|i| &self.snapshots[i])
    }

    /// Longest-match status of `prefix` on `date`. `None` when no
    /// snapshot is in force or no record covers the prefix (legacy space
    /// outside the modeled world, or pre-archive dates).
    pub fn status_of(&self, prefix: &Ipv4Prefix, date: Date) -> Option<StatusAt> {
        let snapshot = self.snapshot_at(date)?;
        let (matched, entry) = snapshot.entry_matching(prefix)?;
        Some(StatusAt {
            rir: entry.rir,
            status: entry.status,
            allocated_on: entry.allocated_on,
            opaque_id: self.orgs.get(entry.org).to_owned(),
            matched,
        })
    }

    /// True when the stats in force on `date` show `prefix` as delegated.
    pub fn is_allocated(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        self.status_of(prefix, date)
            .is_some_and(|s| s.status.is_delegated())
    }

    /// The paper's "unallocated": not delegated (free pool, reserved, or
    /// entirely unknown to the stats).
    pub fn is_unallocated(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        !self.is_allocated(prefix, date)
    }

    /// The registry managing `prefix` on `date` (whatever the status).
    pub fn rir_managing(&self, prefix: &Ipv4Prefix, date: Date) -> Option<Rir> {
        self.status_of(prefix, date).map(|s| s.rir)
    }

    /// The first snapshot date in `(after, until]` on which `prefix` is
    /// no longer delegated, given it was delegated at `after` — the §4.1
    /// deallocation detector.
    pub fn deallocation_date(&self, prefix: &Ipv4Prefix, after: Date, until: Date) -> Option<Date> {
        if !self.is_allocated(prefix, after) {
            return None;
        }
        self.snapshots
            .iter()
            .filter(|s| s.date > after && s.date <= until)
            .find(|s| {
                s.entry_matching(prefix)
                    .is_none_or(|(_, e)| !e.status.is_delegated())
            })
            .map(|s| s.date)
    }

    /// Size of `rir`'s free pool (sum of `available` rows) on `date`.
    pub fn free_pool(&self, rir: Rir, date: Date) -> AddressSpace {
        self.snapshot_at(date)
            .and_then(|s| s.free_pool.get(&rir).copied())
            .unwrap_or(AddressSpace::ZERO)
    }

    /// Space delegated by `rir` on `date`.
    pub fn delegated_space(&self, rir: Rir, date: Date) -> AddressSpace {
        self.snapshot_at(date)
            .and_then(|s| s.delegated.get(&rir).copied())
            .unwrap_or(AddressSpace::ZERO)
    }

    /// Every delegated CIDR prefix in force on `date`, with its registry
    /// and org handle, lazily — the Figure 5 "allocated but unrouted"
    /// accounting walk, without a `Vec` of cloned `String`s per sample.
    pub fn delegated_prefixes(
        &self,
        date: Date,
    ) -> impl Iterator<Item = (Ipv4Prefix, Rir, &str)> + '_ {
        self.snapshot_at(date)
            .into_iter()
            .flat_map(move |snapshot| {
                snapshot.index.iter().filter_map(move |(p, &id)| {
                    let e = &snapshot.entries[id as usize];
                    e.status
                        .is_delegated()
                        .then(|| (p, e.rir, self.orgs.get(e.org)))
                })
            })
    }

    /// [`Self::delegated_prefixes`], materialized with owned org handles.
    pub fn delegated_prefixes_at(&self, date: Date) -> Vec<(Ipv4Prefix, Rir, String)> {
        self.delegated_prefixes(date)
            .map(|(p, r, o)| (p, r, o.to_owned()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelegationRecord;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn file(rir: Rir, date: Date, records: Vec<DelegationRecord>) -> StatsFile {
        StatsFile { rir, date, records }
    }

    fn build() -> RirStatsArchive {
        let mut a = RirStatsArchive::new();
        a.add_snapshot(
            d("2019-06-01"),
            &[file(
                Rir::Lacnic,
                d("2019-06-01"),
                vec![
                    DelegationRecord::allocated(
                        Rir::Lacnic,
                        "PE",
                        "132.255.0.0".parse().unwrap(),
                        1024,
                        d("2014-03-01"),
                        "PE-ORG1",
                    ),
                    DelegationRecord::available(
                        Rir::Lacnic,
                        "45.224.0.0".parse().unwrap(),
                        1 << 20,
                    ),
                ],
            )],
        );
        a.add_snapshot(
            d("2021-01-01"),
            &[file(
                Rir::Lacnic,
                d("2021-01-01"),
                vec![
                    // The /22 was deallocated; part of free pool handed out.
                    DelegationRecord::available(Rir::Lacnic, "132.255.0.0".parse().unwrap(), 1024),
                    DelegationRecord::allocated(
                        Rir::Lacnic,
                        "BR",
                        "45.224.0.0".parse().unwrap(),
                        1 << 19,
                        d("2020-10-01"),
                        "BR-ORG9",
                    ),
                    DelegationRecord::available(
                        Rir::Lacnic,
                        "45.232.0.0".parse().unwrap(),
                        1 << 19,
                    ),
                ],
            )],
        );
        a
    }

    #[test]
    fn status_resolution_over_time() {
        let a = build();
        let pfx = p("132.255.0.0/22");
        // Before any snapshot: unknown.
        assert!(a.status_of(&pfx, d("2019-01-01")).is_none());
        assert!(a.is_unallocated(&pfx, d("2019-01-01")));
        // First era: allocated.
        let s = a.status_of(&pfx, d("2020-01-01")).unwrap();
        assert_eq!(s.rir, Rir::Lacnic);
        assert!(s.status.is_delegated());
        assert_eq!(s.allocated_on, Some(d("2014-03-01")));
        assert_eq!(s.opaque_id, "PE-ORG1");
        assert!(a.is_allocated(&pfx, d("2020-01-01")));
        // Second era: back in the pool.
        assert!(a.is_unallocated(&pfx, d("2021-06-01")));
        assert_eq!(a.rir_managing(&pfx, d("2021-06-01")), Some(Rir::Lacnic));
    }

    #[test]
    fn longest_match_inside_allocation() {
        let a = build();
        // A /24 inside the allocated /22.
        assert!(a.is_allocated(&p("132.255.1.0/24"), d("2020-01-01")));
        // A /16 above it is not covered by the record.
        assert!(a.status_of(&p("132.255.0.0/16"), d("2020-01-01")).is_none());
    }

    #[test]
    fn deallocation_detection() {
        let a = build();
        let pfx = p("132.255.0.0/22");
        assert_eq!(
            a.deallocation_date(&pfx, d("2020-01-01"), d("2022-03-30")),
            Some(d("2021-01-01"))
        );
        // Not allocated at the reference date: no deallocation event.
        assert_eq!(
            a.deallocation_date(&pfx, d("2021-06-01"), d("2022-03-30")),
            None
        );
        // Window too short to reach the change.
        assert_eq!(
            a.deallocation_date(&pfx, d("2020-01-01"), d("2020-12-31")),
            None
        );
    }

    #[test]
    fn free_pool_accounting() {
        let a = build();
        assert_eq!(
            a.free_pool(Rir::Lacnic, d("2020-01-01")).addresses(),
            1 << 20
        );
        // After the allocation: half the pool gone, plus the returned /22.
        assert_eq!(
            a.free_pool(Rir::Lacnic, d("2021-06-01")).addresses(),
            (1 << 19) + 1024
        );
        assert_eq!(a.free_pool(Rir::Arin, d("2021-06-01")), AddressSpace::ZERO);
        assert_eq!(
            a.free_pool(Rir::Lacnic, d("2018-01-01")),
            AddressSpace::ZERO
        );
    }

    #[test]
    fn delegated_space_accounting() {
        let a = build();
        assert_eq!(
            a.delegated_space(Rir::Lacnic, d("2020-01-01")).addresses(),
            1024
        );
        assert_eq!(
            a.delegated_space(Rir::Lacnic, d("2021-06-01")).addresses(),
            1 << 19
        );
    }

    #[test]
    fn delegated_prefixes_walk() {
        let a = build();
        let delegated = a.delegated_prefixes_at(d("2021-06-01"));
        assert_eq!(delegated.len(), 1);
        assert_eq!(delegated[0].0, p("45.224.0.0/13"));
        assert_eq!(delegated[0].2, "BR-ORG9");
        assert!(a.delegated_prefixes_at(d("2018-01-01")).is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_order_snapshot_panics() {
        let mut a = build();
        a.add_snapshot(d("2020-01-01"), &[]);
    }

    #[test]
    fn snapshot_dates() {
        let a = build();
        assert_eq!(a.snapshot_dates(), vec![d("2019-06-01"), d("2021-01-01")]);
    }
}
