//! §5: effectiveness of the IRR.
//!
//! The paper's IRR statistics over the DROP population:
//!
//! * 31.7% of prefixes (68.8% of space) had a route object — exact match
//!   or more specific — in the 7-day window before listing;
//! * of those, 32% had the object *created* in the month before listing
//!   (forgeries) and 43% had it *removed* in the month after;
//! * of the 130 ASN-labeled hijacks, 57 (45%) had a route object whose
//!   origin matched the hijacker's ASN, registered under 13 distinct
//!   ASNs, with 3 ORG-IDs behind 49 of them;
//! * the largest ORG's prefixes shared a common AS in their announced
//!   paths (AS50509);
//! * one prefix was unallocated when its route object was accepted.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use droplens_drop::Category;
use droplens_net::{Asn, PrefixSet};

use crate::report::pct;
use crate::Study;

/// The §5 statistics.
#[derive(Debug, Clone)]
pub struct Sec5 {
    /// All listings (the 31.7%/68.8% prevalence statistics include the
    /// AFRINIC incidents, whose registered space dominates DROP's bytes).
    pub total: usize,
    /// Listings with a route object (exact or more specific) active in
    /// the 7 days before listing.
    pub with_route_object: usize,
    /// Space covered by those listings as a fraction of all listed space.
    pub space_fraction: f64,
    /// Of `with_route_object`: object created within 30 days before
    /// listing.
    pub created_month_before: usize,
    /// Of `with_route_object`: object removed within 30 days after
    /// listing.
    pub removed_month_after: usize,
    /// Hijack listings with a labeled malicious ASN (paper: 130).
    pub labeled_hijacks: usize,
    /// Of those: a route object whose origin equals the labeled ASN
    /// (paper: 57).
    pub matching_asn: usize,
    /// Distinct origin ASNs across the matching objects (paper: 13).
    pub distinct_forger_asns: usize,
    /// ORG-ID → matching-prefix count, descending (paper: 3 ORG-IDs
    /// behind 49).
    pub org_groups: Vec<(String, usize)>,
    /// Matching prefixes covered by the top 3 ORG-IDs.
    pub top3_org_prefixes: usize,
    /// Among the top ORG-IDs, the first whose prefixes share a common AS
    /// on every announced path (paper: one ORG's 15 prefixes all transited
    /// AS50509).
    pub org_with_common_transit: Option<(String, Asn)>,
    /// Unallocated listings that nevertheless had a route object.
    pub unallocated_with_object: usize,
}

/// Compute the §5 statistics.
pub fn compute(study: &Study) -> Sec5 {
    let entries: Vec<&crate::StudyEntry> = study.entries.iter().collect();
    let total = entries.len();

    let mut with_obj = 0usize;
    let mut with_obj_space = PrefixSet::new();
    let mut created_before = 0usize;
    let mut removed_after = 0usize;
    let mut unallocated_with_object = 0usize;

    for e in &entries {
        let listed = e.entry.added;
        let objects = study.irr.active_in_window(&e.prefix(), listed - 7, listed);
        if objects.is_empty() {
            continue;
        }
        with_obj += 1;
        with_obj_space.insert(e.prefix());
        if objects
            .iter()
            .any(|o| o.created >= listed - 30 && o.created <= listed)
        {
            created_before += 1;
        }
        if objects
            .iter()
            .any(|o| o.removed.is_some_and(|r| r > listed && r <= listed + 30))
        {
            removed_after += 1;
        }
        if e.has(Category::Unallocated) {
            unallocated_with_object += 1;
        }
    }

    // ASN-labeled hijacks and the forged-object correlation.
    let mut labeled = 0usize;
    let mut matching = 0usize;
    let mut forger_asns: BTreeSet<Asn> = BTreeSet::new();
    let mut orgs: BTreeMap<String, Vec<droplens_net::Ipv4Prefix>> = BTreeMap::new();
    for e in &entries {
        let Some(asn) = e.hijacker_asn() else {
            continue;
        };
        labeled += 1;
        let matched: Vec<_> = study
            .irr
            .for_prefix_or_more_specific(&e.prefix())
            .into_iter()
            .filter(|o| o.object.origin == asn)
            .collect();
        if matched.is_empty() {
            continue;
        }
        matching += 1;
        forger_asns.insert(asn);
        for o in &matched {
            if let Some(org) = o.object.org.clone() {
                orgs.entry(org).or_default().push(e.prefix());
            }
        }
    }

    let mut org_groups: Vec<(String, usize)> = orgs
        .iter()
        .map(|(org, prefixes)| (org.clone(), prefixes.len()))
        .collect();
    org_groups.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let top3_org_prefixes: usize = org_groups.iter().take(3).map(|(_, n)| n).sum();

    // The common-AS sweep: inspect each of the top ORGs' announced paths
    // until one shares a transit across all of its prefixes.
    let org_with_common_transit = org_groups
        .iter()
        .take(3)
        .find_map(|(org, _)| common_path_as(study, &orgs[org]).map(|asn| (org.clone(), asn)));

    let total_space = study.total_listed_space();
    Sec5 {
        total,
        with_route_object: with_obj,
        space_fraction: with_obj_space.space().fraction_of(total_space),
        created_month_before: created_before,
        removed_month_after: removed_after,
        labeled_hijacks: labeled,
        matching_asn: matching,
        distinct_forger_asns: forger_asns.len(),
        org_groups,
        top3_org_prefixes,
        org_with_common_transit,
        unallocated_with_object,
    }
}

/// The non-origin, non-peer AS present on every observed path of every
/// given prefix — how the paper spotted AS50509.
fn common_path_as(study: &Study, prefixes: &[droplens_net::Ipv4Prefix]) -> Option<Asn> {
    let peer_asns: BTreeSet<Asn> = study.peers.iter().map(|p| p.asn).collect();
    let mut common: Option<BTreeSet<Asn>> = None;
    for prefix in prefixes {
        let mut hops: BTreeSet<Asn> = BTreeSet::new();
        for peer in study.peers.iter() {
            for iv in study.bgp.intervals(prefix, peer.id) {
                let path = study.bgp.path_of(iv.path);
                let origin = path.origin();
                hops.extend(
                    path.hops()
                        .iter()
                        .filter(|&&h| h != origin && !peer_asns.contains(&h)),
                );
            }
        }
        if hops.is_empty() {
            continue; // never announced: no constraint
        }
        common = Some(match common {
            None => hops,
            Some(prev) => prev.intersection(&hops).copied().collect(),
        });
        if common.as_ref().is_some_and(BTreeSet::is_empty) {
            return None;
        }
    }
    common.and_then(|set| set.into_iter().next())
}

impl fmt::Display for Sec5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 5: effectiveness of the IRR")?;
        writeln!(
            f,
            "  route object (exact/more-specific) within 7d before listing: {} of {} ({}), covering {} of listed space",
            self.with_route_object,
            self.total,
            pct(self.with_route_object as f64 / self.total.max(1) as f64),
            pct(self.space_fraction),
        )?;
        writeln!(
            f,
            "  of those: created within month before = {} ({}); removed within month after = {} ({})",
            self.created_month_before,
            pct(self.created_month_before as f64 / self.with_route_object.max(1) as f64),
            self.removed_month_after,
            pct(self.removed_month_after as f64 / self.with_route_object.max(1) as f64),
        )?;
        writeln!(
            f,
            "  ASN-labeled hijacks: {}; route object matching hijacker ASN: {} ({}); distinct forger ASNs: {}",
            self.labeled_hijacks,
            self.matching_asn,
            pct(self.matching_asn as f64 / self.labeled_hijacks.max(1) as f64),
            self.distinct_forger_asns,
        )?;
        writeln!(
            f,
            "  ORG-IDs behind matches: {} (top 3 cover {} prefixes)",
            self.org_groups.len(),
            self.top3_org_prefixes
        )?;
        for (org, n) in self.org_groups.iter().take(5) {
            writeln!(f, "    {org}: {n}")?;
        }
        match &self.org_with_common_transit {
            Some((org, asn)) => writeln!(
                f,
                "  {org}'s prefixes share a common AS on every path: {asn}"
            )?,
            None => writeln!(
                f,
                "  no top ORG shares a common AS across its announced paths"
            )?,
        }
        writeln!(
            f,
            "  unallocated prefixes holding a route object: {}",
            self.unallocated_with_object
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testutil;
    use droplens_synth::WorldConfig;

    #[test]
    fn matching_asn_population_is_exact() {
        let s = compute(testutil::study());
        let mix = WorldConfig::small().mix;
        assert_eq!(s.matching_asn, mix.hj_forged_irr);
        // Labeled hijacks: forged + plain-labeled + ss_plus_hj.
        assert_eq!(
            s.labeled_hijacks,
            mix.hj_forged_irr + mix.hj_labeled_no_irr + mix.ss_plus_hj
        );
    }

    #[test]
    fn forged_orgs_discovered() {
        let s = compute(testutil::study());
        let w = testutil::world();
        // The three shared forger orgs appear in the groups.
        let orgs: Vec<&str> = s.org_groups.iter().map(|(o, _)| o.as_str()).collect();
        for org in &w.truth.forger_orgs {
            assert!(orgs.contains(&org.as_str()), "{org} not found in {orgs:?}");
        }
        // The top 3 orgs cover most matching prefixes (paper: 49 of 57).
        assert!(s.top3_org_prefixes * 10 >= s.matching_asn * 7);
    }

    #[test]
    fn suspicious_transit_discovered() {
        let s = compute(testutil::study());
        let w = testutil::world();
        let (org, asn) = s
            .org_with_common_transit
            .clone()
            .expect("an org stands out");
        assert_eq!(Some(asn), w.truth.case_transit);
        assert!(w.truth.forger_orgs.contains(&org), "{org}");
    }

    #[test]
    fn route_object_prevalence_and_dynamics() {
        let s = compute(testutil::study());
        assert!(s.with_route_object > 0);
        assert!(s.with_route_object < s.total);
        // Forgeries dominate creations shortly before listing.
        assert!(s.created_month_before > 0);
        assert!(s.removed_month_after > 0);
        assert!(s.created_month_before <= s.with_route_object);
    }

    #[test]
    fn one_unallocated_prefix_with_object() {
        let s = compute(testutil::study());
        assert_eq!(s.unallocated_with_object, 1);
    }

    #[test]
    fn distinct_forger_asns_bounded_by_13() {
        let s = compute(testutil::study());
        assert!(s.distinct_forger_asns >= 1);
        assert!(s.distinct_forger_asns <= 13);
    }

    #[test]
    fn renders() {
        let s = compute(testutil::study());
        let text = s.to_string();
        assert!(text.contains("route object"));
        assert!(text.contains("ORG-IDs"));
    }
}
