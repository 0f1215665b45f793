//! Ground-truth labels recorded by the generator.
//!
//! The analysis pipeline must *infer* the paper's findings from the
//! emitted archives alone; the generator additionally records what it
//! actually did, so integration tests can score the inference.

use std::collections::BTreeMap;

use droplens_net::{Asn, Date, Ipv4Prefix};
use droplens_rir::Rir;

/// What a listed prefix really was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrueCategory {
    /// A hijack of some kind.
    Hijacked,
    /// Snowshoe spam range.
    Snowshoe,
    /// Known spam operation.
    KnownSpamOp,
    /// Bulletproof hosting.
    MaliciousHosting,
    /// Squat on unallocated space.
    Unallocated,
}

/// The hijack sub-type (drives which defenses the attacker subverted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HijackKind {
    /// Forged an IRR route object shortly before announcing.
    ForgedIrr,
    /// Announced with a labeled ASN but no matching IRR object.
    Plain,
    /// Part of the AFRINIC fraudulent-acquisition incidents.
    AfrinicIncident,
    /// The RPKI-valid hijack (historic origin matching a live ROA).
    RpkiValid,
    /// ROA under attacker control (ROA ASN tracked the BGP origin).
    AttackerRoa,
}

/// Everything the generator knows about one listed prefix.
#[derive(Debug, Clone)]
pub struct ListedTruth {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// True categories (usually one; the SS+HJ / SS+KS overlaps have two).
    pub categories: Vec<TrueCategory>,
    /// Hijack sub-type, when hijacked.
    pub hijack_kind: Option<HijackKind>,
    /// The attacker's origin ASN, when there is an attacker announcement.
    pub malicious_asn: Option<Asn>,
    /// Managing RIR (`None` only for space outside the modeled plan).
    pub rir: Option<Rir>,
    /// Day Spamhaus added the prefix.
    pub listed: Date,
    /// Day Spamhaus removed it, if remediated during the study.
    pub removed: Option<Date>,
    /// Whether the generator had the announcement withdrawn within 30
    /// days of listing.
    pub withdrew_within_30d: bool,
    /// Whether the SBL record survives (false for the NR population).
    pub has_sbl_record: bool,
    /// Day the holder signed a ROA after the episode, if they did.
    pub signed_after: Option<Date>,
    /// Whether a forged IRR route object (matching `malicious_asn`) was
    /// created for this prefix.
    pub forged_irr: bool,
    /// Day the RIR deallocated the prefix after listing, if it did.
    pub deallocated: Option<Date>,
}

/// Ground truth for the whole world.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Per listed prefix.
    pub listed: Vec<ListedTruth>,
    /// Peers configured to filter the DROP list.
    pub filtering_peers: Vec<droplens_bgp::PeerId>,
    /// The scripted RPKI-valid-hijack case-study prefix (Figure 4).
    pub case_study_prefix: Option<Ipv4Prefix>,
    /// The suspicious transit AS of the case study (paper: AS50509).
    pub case_transit: Option<Asn>,
    /// The victim origin of the case study (paper: AS263692).
    pub case_origin: Option<Asn>,
    /// Prefixes announced with the case-study pattern (origin via
    /// transit), including the case prefix itself.
    pub case_pattern_prefixes: Vec<Ipv4Prefix>,
    /// The operator-AS0 story prefix (§6.2.1: 45.65.112.0/22).
    pub operator_as0_prefix: Option<Ipv4Prefix>,
    /// The ORG-IDs used by the IRR-forging hijackers.
    pub forger_orgs: Vec<String>,
    /// The defunct origin ASNs the forgers used.
    pub forger_asns: Vec<Asn>,
    /// Squats on unallocated space never DROP-listed (still announced at
    /// study end).
    pub unlisted_squats: Vec<Ipv4Prefix>,
}

impl GroundTruth {
    /// Truth record for a prefix, if it was listed.
    pub fn for_prefix(&self, prefix: &Ipv4Prefix) -> Option<&ListedTruth> {
        self.listed.iter().find(|t| t.prefix == *prefix)
    }

    /// Listed prefixes with a given true category.
    pub fn with_category(&self, cat: TrueCategory) -> Vec<&ListedTruth> {
        self.listed
            .iter()
            .filter(|t| t.categories.contains(&cat))
            .collect()
    }

    /// Count listed prefixes per true category.
    pub fn category_counts(&self) -> BTreeMap<TrueCategory, usize> {
        let mut out = BTreeMap::new();
        for t in &self.listed {
            for c in &t.categories {
                *out.entry(*c).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(prefix: &str, cats: Vec<TrueCategory>) -> ListedTruth {
        ListedTruth {
            prefix: prefix.parse().unwrap(),
            categories: cats,
            hijack_kind: None,
            malicious_asn: None,
            rir: None,
            listed: Date::from_ymd(2020, 1, 1),
            removed: None,
            withdrew_within_30d: false,
            has_sbl_record: true,
            signed_after: None,
            forged_irr: false,
            deallocated: None,
        }
    }

    #[test]
    fn lookup_and_counts() {
        let gt = GroundTruth {
            listed: vec![
                truth("10.0.0.0/16", vec![TrueCategory::Hijacked]),
                truth(
                    "11.0.0.0/16",
                    vec![TrueCategory::Snowshoe, TrueCategory::Hijacked],
                ),
            ],
            ..GroundTruth::default()
        };
        assert!(gt.for_prefix(&"10.0.0.0/16".parse().unwrap()).is_some());
        assert!(gt.for_prefix(&"12.0.0.0/16".parse().unwrap()).is_none());
        assert_eq!(gt.with_category(TrueCategory::Hijacked).len(), 2);
        assert_eq!(gt.with_category(TrueCategory::Snowshoe).len(), 1);
        let counts = gt.category_counts();
        assert_eq!(counts[&TrueCategory::Hijacked], 2);
        assert_eq!(counts.get(&TrueCategory::Unallocated), None);
    }
}
