//! ROAs and RFC 6811 route origin validation.

use std::fmt;

use droplens_net::{Asn, Ipv4Prefix};

use crate::Tal;

/// A Route Origin Authorization.
///
/// Authorizes `asn` to originate `prefix` and any more-specific prefix up
/// to `max_length` bits. When `asn` is [`Asn::AS0`], the ROA instead
/// asserts that nothing may originate the covered space (RFC 6483 §4):
/// AS0 can never appear as a real BGP origin (RFC 7607), so an AS0 ROA
/// matches no announcement and makes every covered announcement Invalid
/// unless some other ROA validates it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Roa {
    /// Covered prefix.
    pub prefix: Ipv4Prefix,
    /// Maximum length of announced prefixes; `None` means exactly
    /// `prefix.len()` (the recommended practice — see "maxLength
    /// considered harmful").
    pub max_length: Option<u8>,
    /// Authorized origin, or AS0.
    pub asn: Asn,
    /// Publishing trust anchor.
    pub tal: Tal,
}

impl Roa {
    /// A ROA with no explicit maxLength.
    pub fn new(prefix: Ipv4Prefix, asn: Asn, tal: Tal) -> Roa {
        Roa {
            prefix,
            max_length: None,
            asn,
            tal,
        }
    }

    /// Builder-style maxLength.
    pub fn with_max_length(mut self, max_length: u8) -> Roa {
        self.max_length = Some(max_length);
        self
    }

    /// The effective maximum length (RFC 6482: absent maxLength means the
    /// prefix's own length).
    pub fn effective_max_length(&self) -> u8 {
        self.max_length.unwrap_or_else(|| self.prefix.len())
    }

    /// True for AS0 ("do not route") ROAs.
    pub fn is_as0(&self) -> bool {
        self.asn.is_as0()
    }

    /// RFC 6811 §2: the ROA *covers* a route when its prefix covers the
    /// route's prefix. (Coverage alone makes a route "matched by" the ROA
    /// for Invalid/NotFound purposes.)
    pub fn covers(&self, prefix: &Ipv4Prefix) -> bool {
        self.prefix.covers(prefix)
    }

    /// RFC 6811 §2: the ROA *matches* a route when it covers the route,
    /// the route's length is within maxLength, and the origins agree
    /// (AS0 never matches).
    pub fn matches(&self, prefix: &Ipv4Prefix, origin: Asn) -> bool {
        !self.is_as0()
            && self.covers(prefix)
            && prefix.len() <= self.effective_max_length()
            && origin == self.asn
    }

    /// True if this ROA leaves room for a forged-origin sub-prefix hijack:
    /// a maxLength longer than the prefix lets an attacker announce
    /// more-specifics with the authorized origin (Gilad et al. 2017).
    pub fn vulnerable_to_subprefix_hijack(&self) -> bool {
        !self.is_as0() && self.effective_max_length() > self.prefix.len()
    }
}

impl fmt::Display for Roa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max_length {
            Some(ml) => write!(
                f,
                "{} (max /{ml}) => {} [{}]",
                self.prefix, self.asn, self.tal
            ),
            None => write!(f, "{} => {} [{}]", self.prefix, self.asn, self.tal),
        }
    }
}

/// The RFC 6811 validation outcome for one route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RovOutcome {
    /// Some ROA matches the announcement.
    Valid,
    /// At least one ROA covers the prefix, but none matches.
    Invalid,
    /// No ROA covers the prefix.
    NotFound,
}

/// Validate a `(prefix, origin)` route against a set of ROAs.
///
/// Callers choose the ROA set (e.g. production TALs only, or including
/// the AS0 TALs) — that choice is exactly the policy question §6.2
/// examines.
pub fn validate<'a>(
    roas: impl IntoIterator<Item = &'a Roa>,
    prefix: &Ipv4Prefix,
    origin: Asn,
) -> RovOutcome {
    let mut covered = false;
    for roa in roas {
        if roa.matches(prefix, origin) {
            return RovOutcome::Valid;
        }
        if roa.covers(prefix) {
            covered = true;
        }
    }
    if covered {
        RovOutcome::Invalid
    } else {
        RovOutcome::NotFound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn roa(prefix: &str, asn: u32) -> Roa {
        Roa::new(p(prefix), Asn(asn), Tal::Lacnic)
    }

    #[test]
    fn exact_match_is_valid() {
        let roas = [roa("132.255.0.0/22", 263692)];
        assert_eq!(
            validate(&roas, &p("132.255.0.0/22"), Asn(263692)),
            RovOutcome::Valid
        );
    }

    #[test]
    fn wrong_origin_is_invalid() {
        let roas = [roa("132.255.0.0/22", 263692)];
        assert_eq!(
            validate(&roas, &p("132.255.0.0/22"), Asn(50509)),
            RovOutcome::Invalid
        );
    }

    #[test]
    fn uncovered_is_not_found() {
        let roas = [roa("132.255.0.0/22", 263692)];
        assert_eq!(
            validate(&roas, &p("8.8.8.0/24"), Asn(15169)),
            RovOutcome::NotFound
        );
        assert_eq!(
            validate(&[], &p("8.8.8.0/24"), Asn(15169)),
            RovOutcome::NotFound
        );
    }

    #[test]
    fn more_specific_without_maxlength_is_invalid() {
        // The classic gotcha: a /22 ROA does not validate a /24 announcement.
        let roas = [roa("132.255.0.0/22", 263692)];
        assert_eq!(
            validate(&roas, &p("132.255.0.0/24"), Asn(263692)),
            RovOutcome::Invalid
        );
    }

    #[test]
    fn maxlength_admits_more_specifics() {
        let roas = [roa("132.255.0.0/22", 263692).with_max_length(24)];
        assert_eq!(
            validate(&roas, &p("132.255.0.0/24"), Asn(263692)),
            RovOutcome::Valid
        );
        assert_eq!(
            validate(&roas, &p("132.255.0.0/25"), Asn(263692)),
            RovOutcome::Invalid
        );
    }

    #[test]
    fn less_specific_than_roa_is_not_covered() {
        let roas = [roa("132.255.0.0/22", 263692)];
        assert_eq!(
            validate(&roas, &p("132.255.0.0/16"), Asn(263692)),
            RovOutcome::NotFound
        );
    }

    #[test]
    fn as0_roa_invalidates_everything_it_covers() {
        let as0 = Roa::new(p("45.65.112.0/22"), Asn::AS0, Tal::Lacnic);
        assert!(as0.is_as0());
        for origin in [0u32, 1, 64500] {
            assert_eq!(
                validate([&as0], &p("45.65.112.0/22"), Asn(origin)),
                RovOutcome::Invalid
            );
            assert_eq!(
                validate([&as0], &p("45.65.112.0/24"), Asn(origin)),
                RovOutcome::Invalid,
                "AS0 covers more-specifics too"
            );
        }
    }

    #[test]
    fn another_roa_can_rescue_as0_covered_route() {
        // An AS0 ROA plus a specific authorization: the specific wins
        // (RFC 6811: any matching ROA makes the route Valid).
        let as0 = Roa::new(p("10.0.0.0/8"), Asn::AS0, Tal::Arin);
        let specific = roa("10.5.0.0/16", 64500);
        assert_eq!(
            validate([&as0, &specific], &p("10.5.0.0/16"), Asn(64500)),
            RovOutcome::Valid
        );
    }

    #[test]
    fn effective_max_length_defaults_to_prefix_len() {
        assert_eq!(roa("10.0.0.0/8", 1).effective_max_length(), 8);
        assert_eq!(
            roa("10.0.0.0/8", 1)
                .with_max_length(24)
                .effective_max_length(),
            24
        );
    }

    #[test]
    fn subprefix_hijack_vulnerability() {
        assert!(!roa("10.0.0.0/8", 1).vulnerable_to_subprefix_hijack());
        assert!(roa("10.0.0.0/8", 1)
            .with_max_length(24)
            .vulnerable_to_subprefix_hijack());
        // AS0 ROAs are not hijackable regardless of maxLength.
        let as0 = Roa::new(p("10.0.0.0/8"), Asn::AS0, Tal::Arin).with_max_length(24);
        assert!(!as0.vulnerable_to_subprefix_hijack());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            roa("10.0.0.0/8", 64500).to_string(),
            "10.0.0.0/8 => AS64500 [lacnic]"
        );
        assert_eq!(
            roa("10.0.0.0/8", 64500).with_max_length(16).to_string(),
            "10.0.0.0/8 (max /16) => AS64500 [lacnic]"
        );
    }
}
