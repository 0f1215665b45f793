//! Temporal IRR registry.

use std::collections::BTreeMap;

use droplens_net::{Asn, Date, Ipv4Prefix, MaintainerId, PrefixTrie, StringInterner};

use crate::{JournalEntry, JournalOp, RouteObject};

/// A route object with its registry lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisteredObject {
    /// The object body.
    pub object: RouteObject,
    /// Day it was added.
    pub created: Date,
    /// Day it was deleted; `None` if still present at the end of archive.
    pub removed: Option<Date>,
}

impl RegisteredObject {
    /// True if the object existed on `date`.
    pub fn active_on(&self, date: Date) -> bool {
        date >= self.created && self.removed.is_none_or(|r| date < r)
    }
}

/// A RADb-like registry reconstructed from a dated journal, indexed for
/// the paper's temporal correlation queries.
pub struct IrrRegistry {
    /// All object lifetimes, in journal order.
    objects: Vec<RegisteredObject>,
    /// Prefix → indices into `objects` (all generations, all origins).
    by_prefix: PrefixTrie<Vec<usize>>,
    /// Interned `mnt-by` handles: forged-object sweeps group by
    /// maintainer, and one registry repeats a handful of maintainers
    /// across thousands of objects.
    maintainers: StringInterner<MaintainerId>,
    /// Per-object maintainer id, a column parallel to `objects`.
    maintainer_ids: Vec<MaintainerId>,
}

impl IrrRegistry {
    /// Replay a chronological journal into a registry.
    ///
    /// An `ADD` for a `(prefix, origin)` pair that is already live is
    /// idempotent (ignored); a `DEL` closes the live generation; a later
    /// `ADD` opens a new generation. `DEL`s for unknown objects are
    /// ignored, as real mirrors must tolerate them.
    pub fn from_journal(entries: &[JournalEntry]) -> IrrRegistry {
        let mut objects: Vec<RegisteredObject> = Vec::new();
        // (prefix, origin) -> index of live generation
        let mut live: BTreeMap<(Ipv4Prefix, Asn), usize> = BTreeMap::new();
        let mut by_prefix: PrefixTrie<Vec<usize>> = PrefixTrie::new();
        let mut maintainers: StringInterner<MaintainerId> = StringInterner::new();
        let mut maintainer_ids: Vec<MaintainerId> = Vec::new();
        for e in entries {
            let key = e.object.key();
            match e.op {
                JournalOp::Add => {
                    if live.contains_key(&key) {
                        continue;
                    }
                    let idx = objects.len();
                    maintainer_ids.push(maintainers.intern(&e.object.maintainer));
                    objects.push(RegisteredObject {
                        object: e.object.clone(),
                        created: e.date,
                        removed: None,
                    });
                    live.insert(key, idx);
                    by_prefix
                        .get_or_insert_with(e.object.prefix, Vec::new)
                        .push(idx);
                }
                JournalOp::Del => {
                    if let Some(idx) = live.remove(&key) {
                        objects[idx].removed = Some(e.date);
                    }
                }
            }
        }
        IrrRegistry {
            objects,
            by_prefix,
            maintainers,
            maintainer_ids,
        }
    }

    /// Every object generation ever registered.
    pub fn all(&self) -> &[RegisteredObject] {
        &self.objects
    }

    /// Object generations registered for exactly `prefix` (any origin,
    /// any era).
    pub fn for_prefix(&self, prefix: &Ipv4Prefix) -> Vec<&RegisteredObject> {
        self.by_prefix
            .get(prefix)
            .map(|idxs| idxs.iter().map(|&i| &self.objects[i]).collect())
            .unwrap_or_default()
    }

    /// Object generations for `prefix` or any more-specific prefix — the
    /// §5 "exact match or more specific" criterion.
    pub fn for_prefix_or_more_specific(&self, prefix: &Ipv4Prefix) -> Vec<&RegisteredObject> {
        self.by_prefix
            .covered_by(prefix)
            .into_iter()
            .flat_map(|(_, idxs)| idxs.iter().map(|&i| &self.objects[i]))
            .collect()
    }

    /// Objects for `prefix` (or more specifics) active at any point in the
    /// closed day window `[from, to]`.
    pub fn active_in_window(
        &self,
        prefix: &Ipv4Prefix,
        from: Date,
        to: Date,
    ) -> Vec<&RegisteredObject> {
        self.for_prefix_or_more_specific(prefix)
            .into_iter()
            .filter(|o| o.created <= to && o.removed.is_none_or(|r| r > from))
            .collect()
    }

    /// All objects whose `org` attribute equals `org_id`.
    pub fn by_org(&self, org_id: &str) -> Vec<&RegisteredObject> {
        self.objects
            .iter()
            .filter(|o| o.object.org.as_deref() == Some(org_id))
            .collect()
    }

    /// Group all objects by ORG-ID (objects without one are skipped).
    pub fn org_groups(&self) -> BTreeMap<&str, Vec<&RegisteredObject>> {
        let mut groups: BTreeMap<&str, Vec<&RegisteredObject>> = BTreeMap::new();
        for o in &self.objects {
            if let Some(org) = o.object.org.as_deref() {
                groups.entry(org).or_default().push(o);
            }
        }
        groups
    }

    /// Number of distinct prefixes ever registered.
    pub fn prefix_count(&self) -> usize {
        self.by_prefix.len()
    }

    /// The interned id of a maintainer handle, if any object uses it.
    pub fn maintainer_id(&self, mnt: &str) -> Option<MaintainerId> {
        self.maintainers.lookup(mnt)
    }

    /// The handle behind a maintainer id.
    pub fn maintainer_name(&self, id: MaintainerId) -> &str {
        self.maintainers.get(id)
    }

    /// Number of distinct maintainers across all generations.
    pub fn maintainer_count(&self) -> usize {
        self.maintainers.len()
    }

    /// All objects maintained by `id` — the id-keyed fast path the
    /// forged-entry sweeps use instead of comparing strings per object.
    pub fn by_maintainer(&self, id: MaintainerId) -> Vec<&RegisteredObject> {
        self.maintainer_ids
            .iter()
            .zip(&self.objects)
            .filter(|(&m, _)| m == id)
            .map(|(_, o)| o)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn add(date: &str, prefix: &str, asn: u32) -> JournalEntry {
        JournalEntry {
            date: d(date),
            op: JournalOp::Add,
            object: RouteObject::new(p(prefix), Asn(asn)),
        }
    }

    fn del(date: &str, prefix: &str, asn: u32) -> JournalEntry {
        JournalEntry {
            date: d(date),
            op: JournalOp::Del,
            object: RouteObject::new(p(prefix), Asn(asn)),
        }
    }

    #[test]
    fn lifetimes_from_journal() {
        let reg = IrrRegistry::from_journal(&[
            add("2020-11-20", "132.255.0.0/22", 263692),
            del("2021-02-01", "132.255.0.0/22", 263692),
            add("2021-06-01", "132.255.0.0/22", 263692),
        ]);
        let gens = reg.for_prefix(&p("132.255.0.0/22"));
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].created, d("2020-11-20"));
        assert_eq!(gens[0].removed, Some(d("2021-02-01")));
        assert_eq!(gens[1].removed, None);
        assert!(gens[0].active_on(d("2020-12-01")));
        assert!(!gens[0].active_on(d("2021-02-01")));
        assert!(gens[1].active_on(d("2022-01-01")));
    }

    #[test]
    fn duplicate_add_and_stray_del_ignored() {
        let reg = IrrRegistry::from_journal(&[
            add("2020-01-01", "10.0.0.0/8", 1),
            add("2020-02-01", "10.0.0.0/8", 1), // duplicate: ignored
            del("2020-03-01", "11.0.0.0/8", 2), // unknown: ignored
        ]);
        assert_eq!(reg.all().len(), 1);
        assert_eq!(reg.prefix_count(), 1);
    }

    #[test]
    fn distinct_origins_are_distinct_objects() {
        let reg = IrrRegistry::from_journal(&[
            add("2020-01-01", "10.0.0.0/8", 1),
            add("2020-01-02", "10.0.0.0/8", 2),
            del("2020-02-01", "10.0.0.0/8", 1),
        ]);
        let gens = reg.for_prefix(&p("10.0.0.0/8"));
        assert_eq!(gens.len(), 2);
        let live: Vec<_> = gens
            .iter()
            .filter(|g| g.active_on(d("2020-03-01")))
            .collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].object.origin, Asn(2));
    }

    #[test]
    fn more_specific_query() {
        let reg = IrrRegistry::from_journal(&[
            add("2020-01-01", "10.0.0.0/8", 1),
            add("2020-01-01", "10.5.0.0/16", 2),
            add("2020-01-01", "11.0.0.0/8", 3),
        ]);
        // Exact-or-more-specific for 10.0.0.0/8 finds /8 and /16.
        assert_eq!(reg.for_prefix_or_more_specific(&p("10.0.0.0/8")).len(), 2);
        // For the /16, only itself (the /8 covers but is not more specific).
        assert_eq!(reg.for_prefix_or_more_specific(&p("10.5.0.0/16")).len(), 1);
    }

    #[test]
    fn window_queries() {
        let reg = IrrRegistry::from_journal(&[
            add("2020-01-01", "10.0.0.0/8", 1),
            del("2020-06-01", "10.0.0.0/8", 1),
        ]);
        let pfx = p("10.0.0.0/8");
        // Window overlapping the life: found.
        assert_eq!(
            reg.active_in_window(&pfx, d("2020-05-25"), d("2020-06-05"))
                .len(),
            1
        );
        // Window entirely after removal: none.
        assert!(reg
            .active_in_window(&pfx, d("2020-06-01"), d("2020-07-01"))
            .is_empty());
        // Window entirely before creation: none.
        assert!(reg
            .active_in_window(&pfx, d("2019-01-01"), d("2019-12-31"))
            .is_empty());
        // Single-day window on the creation day: found.
        assert_eq!(
            reg.active_in_window(&pfx, d("2020-01-01"), d("2020-01-01"))
                .len(),
            1
        );
    }

    #[test]
    fn org_grouping() {
        let mut e1 = add("2020-01-01", "10.0.0.0/16", 1);
        e1.object = e1.object.with_org("ORG-FORGE1");
        let mut e2 = add("2020-01-02", "10.1.0.0/16", 2);
        e2.object = e2.object.with_org("ORG-FORGE1");
        let e3 = add("2020-01-03", "10.2.0.0/16", 3);
        let reg = IrrRegistry::from_journal(&[e1, e2, e3]);
        assert_eq!(reg.by_org("ORG-FORGE1").len(), 2);
        assert!(reg.by_org("ORG-NONE").is_empty());
        let groups = reg.org_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups["ORG-FORGE1"].len(), 2);
    }

    #[test]
    fn maintainer_interning() {
        let mut e1 = add("2020-01-01", "10.0.0.0/16", 1);
        e1.object = e1.object.with_maintainer("MAINT-AS1");
        let mut e2 = add("2020-01-02", "10.1.0.0/16", 2);
        e2.object = e2.object.with_maintainer("MAINT-AS1");
        let mut e3 = add("2020-01-03", "10.2.0.0/16", 3);
        e3.object = e3.object.with_maintainer("MAINT-AS3");
        let reg = IrrRegistry::from_journal(&[e1, e2, e3]);
        assert_eq!(reg.maintainer_count(), 2);
        let m1 = reg.maintainer_id("MAINT-AS1").unwrap();
        assert_eq!(reg.maintainer_name(m1), "MAINT-AS1");
        assert_eq!(reg.by_maintainer(m1).len(), 2);
        assert!(reg.maintainer_id("MAINT-NONE").is_none());
    }

    #[test]
    fn empty_registry() {
        let reg = IrrRegistry::from_journal(&[]);
        assert!(reg.all().is_empty());
        assert!(reg.for_prefix(&p("10.0.0.0/8")).is_empty());
        assert!(reg.for_prefix_or_more_specific(&p("0.0.0.0/0")).is_empty());
    }
}
