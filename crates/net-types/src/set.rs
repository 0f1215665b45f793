//! Sets of IPv4 address space in canonical disjoint form.

use std::collections::BTreeMap;
use std::fmt;

use crate::{AddressSpace, Ipv4Prefix};

/// A set of IPv4 addresses represented as a minimal list of disjoint CIDR
/// prefixes.
///
/// Inserting overlapping or adjacent (sibling) prefixes canonicalizes the
/// representation: covered prefixes are absorbed and mergeable siblings are
/// aggregated, so two sets covering the same addresses always compare equal
/// and iterate identically. This is what the paper's address-space
/// bookkeeping needs — e.g. "48.8% of the DROP address space" must count
/// each address once even when DROP carried both a /20 and a /24 inside it.
///
/// # Examples
///
/// ```
/// use droplens_net::PrefixSet;
///
/// let mut set = PrefixSet::new();
/// set.insert("10.0.0.0/9".parse().unwrap());
/// set.insert("10.128.0.0/9".parse().unwrap());
/// // Siblings aggregate into the parent.
/// assert_eq!(set.iter().map(|p| p.to_string()).collect::<Vec<_>>(), ["10.0.0.0/8"]);
/// assert_eq!(set.space().slash8_equivalents(), 1.0);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PrefixSet {
    /// Map from network address to prefix length. Invariant: the prefixes
    /// are pairwise disjoint and no two sibling prefixes are both present
    /// (they would have been merged).
    entries: BTreeMap<u32, u8>,
}

impl PrefixSet {
    /// Create an empty set.
    pub fn new() -> PrefixSet {
        PrefixSet::default()
    }

    /// Number of disjoint prefixes in canonical form.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the set covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total address space covered.
    pub fn space(&self) -> AddressSpace {
        AddressSpace::from_addresses(
            self.entries
                .values()
                .map(|&len| 1u64 << (32 - len as u64))
                .sum(),
        )
    }

    /// Iterate the canonical disjoint prefixes in address order.
    pub fn iter(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.entries
            .iter()
            .map(|(&addr, &len)| Ipv4Prefix::from_u32(addr, len))
    }

    /// The prefixes that overlap `q` (covering it or covered by it).
    fn overlapping(&self, q: &Ipv4Prefix) -> Vec<Ipv4Prefix> {
        let mut out = Vec::new();
        // A prefix starting before q could still cover q.
        if let Some((&addr, &len)) = self.entries.range(..q.network_u32()).next_back() {
            let cand = Ipv4Prefix::from_u32(addr, len);
            if cand.overlaps(q) {
                out.push(cand);
            }
        }
        for (&addr, &len) in self.entries.range(q.network_u32()..=q.last_address_u32()) {
            out.push(Ipv4Prefix::from_u32(addr, len));
        }
        out
    }

    /// Insert a prefix. Returns `true` if the set changed (i.e. the prefix
    /// was not already fully covered).
    pub fn insert(&mut self, p: Ipv4Prefix) -> bool {
        let overlapping = self.overlapping(&p);
        if overlapping.iter().any(|e| e.covers(&p)) {
            return false;
        }
        // Absorb entries covered by p.
        for e in &overlapping {
            debug_assert!(p.covers(e));
            self.entries.remove(&e.network_u32());
        }
        // Insert and aggregate upward while our sibling is present.
        let mut cur = p;
        loop {
            // A prefix with a sibling also has a parent (len > 0), so the
            // chain only ends when aggregation stops or /0 is reached.
            match (cur.sibling(), cur.parent()) {
                (Some(sib), Some(parent))
                    if self.entries.get(&sib.network_u32()) == Some(&sib.len()) =>
                {
                    self.entries.remove(&sib.network_u32());
                    cur = parent;
                }
                _ => break,
            }
        }
        self.entries.insert(cur.network_u32(), cur.len());
        true
    }

    /// Remove a prefix's addresses from the set. Returns `true` if the set
    /// changed.
    pub fn remove(&mut self, p: Ipv4Prefix) -> bool {
        let overlapping = self.overlapping(&p);
        if overlapping.is_empty() {
            return false;
        }
        for e in overlapping {
            self.entries.remove(&e.network_u32());
            if e.covers(&p) && e != p {
                // Re-insert the parts of e outside p: walk down from e
                // toward p, keeping the sibling of each step.
                let mut cur = p;
                while cur != e {
                    // cur is strictly longer than e here, so both the
                    // sibling and the parent exist until cur reaches e.
                    let (Some(sib), Some(parent)) = (cur.sibling(), cur.parent()) else {
                        break;
                    };
                    self.entries.insert(sib.network_u32(), sib.len());
                    cur = parent;
                }
            }
            // If p covers e, dropping e is all that's needed.
        }
        true
    }

    /// True if every address of `p` is in the set.
    ///
    /// Because the representation is canonical (maximally aggregated), full
    /// coverage is equivalent to a single entry covering `p`.
    pub fn contains_prefix(&self, p: &Ipv4Prefix) -> bool {
        self.overlapping(p).iter().any(|e| e.covers(p))
    }

    /// True if any address of `p` is in the set.
    pub fn overlaps(&self, p: &Ipv4Prefix) -> bool {
        !self.overlapping(p).is_empty()
    }

    /// True if the single address `addr` is in the set.
    pub fn contains_addr(&self, addr: std::net::Ipv4Addr) -> bool {
        self.contains_prefix(&Ipv4Prefix::new(addr, 32))
    }

    /// The address space shared with prefix `p`.
    pub fn space_overlapping(&self, p: &Ipv4Prefix) -> AddressSpace {
        self.overlapping(p)
            .iter()
            .map(|e| {
                if p.covers(e) {
                    AddressSpace::of_prefix(e)
                } else {
                    AddressSpace::of_prefix(p)
                }
            })
            .sum()
    }

    /// Union with another set.
    pub fn union(&self, other: &PrefixSet) -> PrefixSet {
        let mut out = self.clone();
        for p in other.iter() {
            out.insert(p);
        }
        out
    }

    /// Set difference: addresses in `self` not in `other`.
    pub fn difference(&self, other: &PrefixSet) -> PrefixSet {
        let mut out = self.clone();
        for p in other.iter() {
            out.remove(p);
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &PrefixSet) -> PrefixSet {
        // self ∩ other = self \ (self \ other)
        self.difference(&self.difference(other))
    }
}

impl fmt::Debug for PrefixSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|p| p.to_string()))
            .finish()
    }
}

impl FromIterator<Ipv4Prefix> for PrefixSet {
    fn from_iter<T: IntoIterator<Item = Ipv4Prefix>>(iter: T) -> Self {
        let mut set = PrefixSet::new();
        for p in iter {
            set.insert(p);
        }
        set
    }
}

impl Extend<Ipv4Prefix> for PrefixSet {
    fn extend<T: IntoIterator<Item = Ipv4Prefix>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn set(prefixes: &[&str]) -> PrefixSet {
        prefixes.iter().map(|s| p(s)).collect()
    }

    fn render(s: &PrefixSet) -> Vec<String> {
        s.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn insert_dedups_covered() {
        let s = set(&["10.0.0.0/8", "10.5.0.0/16"]);
        assert_eq!(render(&s), ["10.0.0.0/8"]);
        assert_eq!(s.space().slash8_equivalents(), 1.0);
    }

    #[test]
    fn insert_absorbs_more_specifics() {
        let mut s = set(&["10.5.0.0/16", "10.9.0.0/16"]);
        assert_eq!(s.len(), 2);
        assert!(s.insert(p("10.0.0.0/8")));
        assert_eq!(render(&s), ["10.0.0.0/8"]);
    }

    #[test]
    fn insert_returns_false_when_covered() {
        let mut s = set(&["10.0.0.0/8"]);
        assert!(!s.insert(p("10.5.0.0/16")));
        assert!(!s.insert(p("10.0.0.0/8")));
        assert!(s.insert(p("11.0.0.0/8")));
    }

    #[test]
    fn sibling_aggregation_cascades() {
        let mut s = PrefixSet::new();
        s.insert(p("10.0.0.0/10"));
        s.insert(p("10.64.0.0/10"));
        s.insert(p("10.128.0.0/9"));
        assert_eq!(render(&s), ["10.0.0.0/8"]);
    }

    #[test]
    fn remove_splits_covering_prefix() {
        let mut s = set(&["10.0.0.0/8"]);
        assert!(s.remove(p("10.0.0.0/10")));
        assert_eq!(render(&s), ["10.64.0.0/10", "10.128.0.0/9"]);
        assert_eq!(s.space().slash8_equivalents(), 0.75);
    }

    #[test]
    fn remove_middle_then_reinsert_restores_canonical_form() {
        let mut s = set(&["10.0.0.0/8"]);
        s.remove(p("10.64.0.0/18"));
        assert!(!s.contains_prefix(&p("10.64.0.0/18")));
        assert!(s.contains_prefix(&p("10.128.0.0/9")));
        s.insert(p("10.64.0.0/18"));
        assert_eq!(render(&s), ["10.0.0.0/8"]);
    }

    #[test]
    fn remove_disjoint_is_noop() {
        let mut s = set(&["10.0.0.0/8"]);
        assert!(!s.remove(p("11.0.0.0/8")));
        assert_eq!(render(&s), ["10.0.0.0/8"]);
    }

    #[test]
    fn remove_covers_multiple_entries() {
        let mut s = set(&["10.1.0.0/16", "10.2.0.0/16", "11.0.0.0/8"]);
        assert!(s.remove(p("10.0.0.0/8")));
        assert_eq!(render(&s), ["11.0.0.0/8"]);
    }

    #[test]
    fn contains_and_overlaps() {
        let s = set(&["10.0.0.0/8"]);
        assert!(s.contains_prefix(&p("10.5.0.0/16")));
        assert!(!s.contains_prefix(&p("10.0.0.0/7")));
        assert!(s.overlaps(&p("10.0.0.0/7")));
        assert!(!s.overlaps(&p("12.0.0.0/8")));
        assert!(s.contains_addr("10.1.2.3".parse().unwrap()));
        assert!(!s.contains_addr("11.1.2.3".parse().unwrap()));
    }

    #[test]
    fn contains_after_fragmented_coverage() {
        // Two siblings inserted separately must aggregate so containment of
        // the parent holds.
        let s = set(&["10.0.0.0/9", "10.128.0.0/9"]);
        assert!(s.contains_prefix(&p("10.0.0.0/8")));
    }

    #[test]
    fn space_overlapping() {
        let s = set(&["10.0.0.0/8", "11.0.0.0/16"]);
        // Query covering one entry partially and another fully
        let q = p("10.0.0.0/9");
        assert_eq!(s.space_overlapping(&q).slash8_equivalents(), 0.5);
        let q = p("11.0.0.0/8");
        assert_eq!(
            s.space_overlapping(&q).addresses(),
            p("11.0.0.0/16").address_count()
        );
        assert!(s.space_overlapping(&p("12.0.0.0/8")).is_zero());
    }

    #[test]
    fn union_difference_intersection() {
        let a = set(&["10.0.0.0/8", "11.0.0.0/9"]);
        let b = set(&["11.0.0.0/8", "12.0.0.0/8"]);
        // 10/8 and 11/8 are siblings, so the union aggregates to 10.0.0.0/7.
        assert_eq!(render(&a.union(&b)), ["10.0.0.0/7", "12.0.0.0/8"]);
        assert_eq!(render(&a.difference(&b)), ["10.0.0.0/8"]);
        assert_eq!(render(&b.difference(&a)), ["11.128.0.0/9", "12.0.0.0/8"]);
        assert_eq!(render(&a.intersection(&b)), ["11.0.0.0/9"]);
        assert_eq!(render(&b.intersection(&a)), ["11.0.0.0/9"]);
    }

    #[test]
    fn equality_is_representation_independent() {
        let a = set(&["10.0.0.0/8"]);
        let b = set(&["10.0.0.0/9", "10.128.0.0/10", "10.192.0.0/10"]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_set_behaviour() {
        let s = PrefixSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.space().is_zero());
        assert!(!s.contains_prefix(&p("10.0.0.0/8")));
        assert!(!s.overlaps(&p("10.0.0.0/8")));
    }

    #[test]
    fn full_space() {
        let mut s = PrefixSet::new();
        s.insert(p("0.0.0.0/1"));
        s.insert(p("128.0.0.0/1"));
        assert_eq!(render(&s), ["0.0.0.0/0"]);
        assert_eq!(s.space().slash8_equivalents(), 256.0);
    }
}
