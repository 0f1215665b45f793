//! Autonomous system numbers.

use std::fmt;
use std::str::FromStr;

use crate::ParseError;

/// An autonomous system number (32-bit, RFC 6793).
///
/// `Asn` is a thin newtype over `u32` with the conventions the paper relies
/// on made explicit:
///
/// * [`Asn::AS0`] is the reserved ASN 0 used in RPKI ROAs to assert that a
///   prefix must **not** be routed (RFC 7607 forbids it in BGP itself).
/// * Display / parse use the canonical `AS64500` form, but bare decimal
///   (`64500`) is accepted on input because RIR stats files and ROA CSVs use
///   both spellings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl Asn {
    /// The reserved ASN 0. In a ROA, AS0 asserts "do not route".
    pub const AS0: Asn = Asn(0);

    /// Returns true if this is the reserved AS0.
    pub fn is_as0(self) -> bool {
        self.0 == 0
    }

    /// Returns true if this ASN falls in a private-use range
    /// (64512–65534 or 4200000000–4294967294, RFC 6996).
    pub fn is_private(self) -> bool {
        (64512..=65534).contains(&self.0) || (4_200_000_000..=4_294_967_294).contains(&self.0)
    }

    /// The numeric value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl FromStr for Asn {
    type Err = ParseError;

    /// Accepts `AS64500`, `as64500`, or bare `64500`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .or_else(|| s.strip_prefix("aS"))
            .unwrap_or(s);
        if digits.is_empty() {
            return Err(ParseError::new("Asn", s, "empty ASN"));
        }
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|e| ParseError::new("Asn", s, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_canonical_form() {
        assert_eq!("AS64500".parse::<Asn>().unwrap(), Asn(64500));
    }

    #[test]
    fn parses_lowercase_and_bare() {
        assert_eq!("as13335".parse::<Asn>().unwrap(), Asn(13335));
        assert_eq!("13335".parse::<Asn>().unwrap(), Asn(13335));
    }

    #[test]
    fn rejects_garbage() {
        assert!("ASfoo".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
        assert!("AS".parse::<Asn>().is_err());
        assert!("AS-1".parse::<Asn>().is_err());
    }

    #[test]
    fn rejects_overflow() {
        assert!("AS4294967296".parse::<Asn>().is_err());
        assert_eq!("AS4294967295".parse::<Asn>().unwrap(), Asn(u32::MAX));
    }

    #[test]
    fn as0_semantics() {
        assert!(Asn::AS0.is_as0());
        assert!(!Asn(1).is_as0());
    }

    #[test]
    fn private_ranges() {
        assert!(Asn(64512).is_private());
        assert!(Asn(65534).is_private());
        assert!(!Asn(65535).is_private());
        assert!(Asn(4_200_000_000).is_private());
        assert!(!Asn(4_294_967_295).is_private());
        assert!(!Asn(3356).is_private());
    }

    #[test]
    fn display_round_trips() {
        let a = Asn(263692);
        assert_eq!(a.to_string().parse::<Asn>().unwrap(), a);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Asn(9) < Asn(100));
    }
}
