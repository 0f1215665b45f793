//! Address-space accounting in /8 equivalents.
//!
//! The paper reports address-space volumes as "/8 equivalents" (one /8 is
//! 2^24 = 16,777,216 addresses): e.g. "6.7 /8s signed but unrouted",
//! "30.0 /8s allocated, unrouted, no ROA". [`AddressSpace`] is an exact
//! address counter with /8-equivalent rendering so those figures can be
//! reproduced without floating-point accumulation error.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use crate::Ipv4Prefix;

/// Number of addresses in a /8 (2^24).
pub const SLASH8: u64 = 1 << 24;

/// An exact count of IPv4 addresses with /8-equivalent reporting helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AddressSpace {
    addresses: u64,
}

impl AddressSpace {
    /// Zero addresses.
    pub const ZERO: AddressSpace = AddressSpace { addresses: 0 };

    /// From a raw address count.
    pub fn from_addresses(addresses: u64) -> AddressSpace {
        AddressSpace { addresses }
    }

    /// The space covered by one prefix.
    pub fn of_prefix(p: &Ipv4Prefix) -> AddressSpace {
        AddressSpace {
            addresses: p.address_count(),
        }
    }

    /// The space covered by a collection of *disjoint* prefixes. For
    /// possibly-overlapping collections use
    /// [`crate::PrefixSet`] which canonicalizes first.
    pub fn of_disjoint<'a>(prefixes: impl IntoIterator<Item = &'a Ipv4Prefix>) -> AddressSpace {
        AddressSpace {
            addresses: prefixes.into_iter().map(|p| p.address_count()).sum(),
        }
    }

    /// Raw address count.
    pub fn addresses(&self) -> u64 {
        self.addresses
    }

    /// The count expressed in /8 equivalents as a float (for reports).
    pub fn slash8_equivalents(&self) -> f64 {
        self.addresses as f64 / SLASH8 as f64
    }

    /// This space as a fraction of `total` (0.0 when `total` is zero).
    pub fn fraction_of(&self, total: AddressSpace) -> f64 {
        if total.addresses == 0 {
            0.0
        } else {
            self.addresses as f64 / total.addresses as f64
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: AddressSpace) -> AddressSpace {
        AddressSpace {
            addresses: self.addresses.saturating_sub(rhs.addresses),
        }
    }

    /// True when zero addresses.
    pub fn is_zero(&self) -> bool {
        self.addresses == 0
    }
}

impl Add for AddressSpace {
    type Output = AddressSpace;
    fn add(self, rhs: AddressSpace) -> AddressSpace {
        AddressSpace {
            addresses: self.addresses + rhs.addresses,
        }
    }
}

impl AddAssign for AddressSpace {
    fn add_assign(&mut self, rhs: AddressSpace) {
        self.addresses += rhs.addresses;
    }
}

impl Sub for AddressSpace {
    type Output = AddressSpace;
    fn sub(self, rhs: AddressSpace) -> AddressSpace {
        AddressSpace {
            addresses: self.addresses - rhs.addresses,
        }
    }
}

impl SubAssign for AddressSpace {
    fn sub_assign(&mut self, rhs: AddressSpace) {
        self.addresses -= rhs.addresses;
    }
}

impl Sum for AddressSpace {
    fn sum<I: Iterator<Item = AddressSpace>>(iter: I) -> AddressSpace {
        iter.fold(AddressSpace::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for AddressSpace {
    /// Renders as /8 equivalents with two decimals, the paper's unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} /8s", self.slash8_equivalents())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn slash8_equivalents() {
        assert_eq!(
            AddressSpace::of_prefix(&p("10.0.0.0/8")).slash8_equivalents(),
            1.0
        );
        assert_eq!(
            AddressSpace::of_prefix(&p("10.0.0.0/9")).slash8_equivalents(),
            0.5
        );
        assert_eq!(
            AddressSpace::of_prefix(&p("0.0.0.0/0")).slash8_equivalents(),
            256.0
        );
    }

    #[test]
    fn arithmetic() {
        let a = AddressSpace::of_prefix(&p("10.0.0.0/8"));
        let b = AddressSpace::of_prefix(&p("11.0.0.0/9"));
        assert_eq!((a + b).slash8_equivalents(), 1.5);
        assert_eq!((a - b).slash8_equivalents(), 0.5);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = AddressSpace::from_addresses(10);
        let b = AddressSpace::from_addresses(20);
        assert_eq!(a.saturating_sub(b), AddressSpace::ZERO);
        assert!(a.saturating_sub(b).is_zero());
    }

    #[test]
    fn fraction_of() {
        let part = AddressSpace::from_addresses(25);
        let total = AddressSpace::from_addresses(100);
        assert_eq!(part.fraction_of(total), 0.25);
        assert_eq!(part.fraction_of(AddressSpace::ZERO), 0.0);
    }

    #[test]
    fn sum_of_disjoint() {
        let prefixes = [p("10.0.0.0/8"), p("11.0.0.0/8")];
        assert_eq!(
            AddressSpace::of_disjoint(prefixes.iter()).slash8_equivalents(),
            2.0
        );
    }

    #[test]
    fn display_unit() {
        let s = AddressSpace::of_prefix(&p("10.0.0.0/9")).to_string();
        assert_eq!(s, "0.50 /8s");
    }

    #[test]
    fn sum_trait() {
        let total: AddressSpace = [p("1.0.0.0/8"), p("2.0.0.0/8")]
            .iter()
            .map(AddressSpace::of_prefix)
            .sum();
        assert_eq!(total.slash8_equivalents(), 2.0);
    }
}
