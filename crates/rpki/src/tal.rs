//! Trust Anchor Locators.

use std::fmt;
use std::str::FromStr;

use droplens_net::ParseError;

/// The trust anchor a ROA is published under.
///
/// Each RIR operates one production trust anchor. APNIC and LACNIC
/// additionally publish their *AS0 ROAs for unallocated space* under
/// **separate** TALs that no validator configures by default and that the
/// RIRs recommend using only for alerting (§2.3.1 of the paper) — the key
/// reason unallocated-space hijacks continued after the AS0 policies
/// landed (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tal {
    /// AFRINIC production TAL.
    Afrinic,
    /// APNIC production TAL.
    Apnic,
    /// ARIN production TAL.
    Arin,
    /// LACNIC production TAL.
    Lacnic,
    /// RIPE NCC production TAL.
    RipeNcc,
    /// APNIC's separate AS0-for-unallocated TAL (prop-132, 2020-09-02).
    ApnicAs0,
    /// LACNIC's separate AS0-for-unallocated TAL (LAC-2019-12, 2021-06-23).
    LacnicAs0,
}

impl Tal {
    /// All TALs, production first.
    pub const ALL: [Tal; 7] = [
        Tal::Afrinic,
        Tal::Apnic,
        Tal::Arin,
        Tal::Lacnic,
        Tal::RipeNcc,
        Tal::ApnicAs0,
        Tal::LacnicAs0,
    ];

    /// The five production TALs configured in validators by default.
    pub const PRODUCTION: [Tal; 5] = [
        Tal::Afrinic,
        Tal::Apnic,
        Tal::Arin,
        Tal::Lacnic,
        Tal::RipeNcc,
    ];

    /// True for the separate AS0-only TALs.
    pub fn is_as0_tal(self) -> bool {
        matches!(self, Tal::ApnicAs0 | Tal::LacnicAs0)
    }

    /// Canonical archive token.
    pub fn token(self) -> &'static str {
        match self {
            Tal::Afrinic => "afrinic",
            Tal::Apnic => "apnic",
            Tal::Arin => "arin",
            Tal::Lacnic => "lacnic",
            Tal::RipeNcc => "ripencc",
            Tal::ApnicAs0 => "apnic-as0",
            Tal::LacnicAs0 => "lacnic-as0",
        }
    }
}

impl fmt::Display for Tal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for Tal {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Tal::ALL
            .into_iter()
            .find(|t| t.token() == s)
            .ok_or_else(|| ParseError::new("Tal", s, "unknown trust anchor"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for tal in Tal::ALL {
            assert_eq!(tal.token().parse::<Tal>().unwrap(), tal);
        }
    }

    #[test]
    fn as0_classification() {
        assert!(Tal::ApnicAs0.is_as0_tal());
        assert!(Tal::LacnicAs0.is_as0_tal());
        for tal in Tal::PRODUCTION {
            assert!(!tal.is_as0_tal());
        }
    }

    #[test]
    fn unknown_token_rejected() {
        assert!("iana".parse::<Tal>().is_err());
    }

    #[test]
    fn production_excludes_as0_tals() {
        assert_eq!(Tal::PRODUCTION.len(), 5);
        assert_eq!(Tal::ALL.len(), 7);
    }
}
