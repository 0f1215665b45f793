//! IPv4 CIDR prefixes.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::ParseError;

/// An IPv4 CIDR prefix in canonical form (host bits zeroed).
///
/// Ordering is network-byte order by address first, then by prefix length
/// (shorter, i.e. less specific, first). This matches the sort order used
/// by routing-table dumps and makes reports deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    /// Network address as a big-endian u32, with host bits zero.
    addr: u32,
    /// Prefix length in [0, 32].
    len: u8,
}

impl Ipv4Prefix {
    /// The whole IPv4 address space, `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { addr: 0, len: 0 };

    /// Construct from a network address and prefix length, zeroing any set
    /// host bits. Panics if `len > 32` (use [`Ipv4Prefix::try_new`]).
    pub fn new(addr: Ipv4Addr, len: u8) -> Ipv4Prefix {
        assert!(len <= 32, "prefix length must be <= 32");
        Ipv4Prefix {
            addr: u32::from(addr) & mask(len),
            len,
        }
    }

    /// Fallible construction; returns `None` when `len > 32`.
    pub fn try_new(addr: Ipv4Addr, len: u8) -> Option<Ipv4Prefix> {
        if len > 32 {
            return None;
        }
        let raw = u32::from(addr);
        Some(Ipv4Prefix {
            addr: raw & mask(len),
            len,
        })
    }

    /// Construct from a raw big-endian u32 network address.
    pub fn from_u32(addr: u32, len: u8) -> Ipv4Prefix {
        assert!(len <= 32, "prefix length must be <= 32");
        Ipv4Prefix {
            addr: addr & mask(len),
            len,
        }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The network address as a big-endian u32.
    pub fn network_u32(&self) -> u32 {
        self.addr
    }

    /// Prefix length in bits.
    ///
    /// (`is_empty` would be meaningless: a prefix always covers at least
    /// one address.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered: `2^(32 - len)`.
    pub fn address_count(&self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// The last address in the prefix (broadcast address for a subnet).
    pub fn last_address(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr | !mask(self.len))
    }

    /// The last address as a big-endian u32.
    pub fn last_address_u32(&self) -> u32 {
        self.addr | !mask(self.len)
    }

    /// True if `self` covers `other`: every address of `other` lies inside
    /// `self`. A prefix covers itself.
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && (other.addr & mask(self.len)) == self.addr
    }

    /// True if `self` is covered by `other` (see [`Ipv4Prefix::covers`]).
    pub fn covered_by(&self, other: &Ipv4Prefix) -> bool {
        other.covers(self)
    }

    /// True if the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// True if `addr` lies inside this prefix.
    pub fn contains_addr(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & mask(self.len)) == self.addr
    }

    /// The immediate parent prefix (one bit shorter); `None` for `/0`.
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Ipv4Prefix {
            addr: self.addr & mask(len),
            len,
        })
    }

    /// The two immediate children (one bit longer); `None` for `/32`.
    pub fn children(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len == 32 {
            return None;
        }
        let len = self.len + 1;
        let low = Ipv4Prefix {
            addr: self.addr,
            len,
        };
        let high = Ipv4Prefix {
            addr: self.addr | (1u32 << (32 - len)),
            len,
        };
        Some((low, high))
    }

    /// The sibling sharing this prefix's parent; `None` for `/0`.
    pub fn sibling(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            return None;
        }
        Some(Ipv4Prefix {
            addr: self.addr ^ (1u32 << (32 - self.len)),
            len: self.len,
        })
    }

    /// The bit at position `i` (0 = most significant) of the network
    /// address. Only meaningful for `i < self.len()` when treating the
    /// prefix as a bit string, but defined for all `i < 32`.
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        (self.addr >> (31 - i)) & 1 == 1
    }

    /// Split this prefix into subprefixes of length `sub_len`, in address
    /// order. Returns an empty iterator when `sub_len < self.len()`.
    /// Panics if `sub_len > 32`.
    pub fn subdivide(&self, sub_len: u8) -> impl Iterator<Item = Ipv4Prefix> {
        assert!(sub_len <= 32);
        let (base, count, step) = if sub_len < self.len {
            (0u32, 0u64, 1u32)
        } else {
            let count = 1u64 << (sub_len - self.len);
            let step = 1u32 << (32 - sub_len);
            (self.addr, count, step)
        };
        (0..count).map(move |i| Ipv4Prefix {
            addr: base.wrapping_add(step.wrapping_mul(i as u32)),
            len: sub_len,
        })
    }

    /// The length of the common prefix of the two network addresses,
    /// capped at `min(self.len, other.len)`. This is the branch point used
    /// by the Patricia trie.
    pub fn common_prefix_len(&self, other: &Ipv4Prefix) -> u8 {
        let diff = self.addr ^ other.addr;
        let common = diff.leading_zeros() as u8;
        common.min(self.len).min(other.len)
    }

    /// Truncate to the first `len` bits. Panics if `len > self.len()`.
    pub fn truncate(&self, len: u8) -> Ipv4Prefix {
        assert!(len <= self.len, "cannot truncate to a longer prefix");
        Ipv4Prefix {
            addr: self.addr & mask(len),
            len,
        }
    }
}

/// Netmask for a prefix length: `len` leading one-bits.
fn mask(len: u8) -> u32 {
    match len {
        0 => 0,
        32 => u32::MAX,
        l => !0u32 << (32 - l),
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv4Prefix({self})")
    }
}

impl PartialOrd for Ipv4Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ipv4Prefix {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.addr
            .cmp(&other.addr)
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl FromStr for Ipv4Prefix {
    type Err = ParseError;

    /// Parses `a.b.c.d/len`. Host bits set in the address are zeroed (the
    /// convention of the DROP list and IRR archives, which occasionally
    /// carry non-canonical entries).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| ParseError::new("Ipv4Prefix", s, "missing '/'"))?;
        let addr: Ipv4Addr = addr_s
            .parse()
            .map_err(|_| ParseError::new("Ipv4Prefix", s, "bad IPv4 address"))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| ParseError::new("Ipv4Prefix", s, "bad prefix length"))?;
        Ipv4Prefix::try_new(addr, len)
            .ok_or_else(|| ParseError::new("Ipv4Prefix", s, "prefix length > 32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "132.255.0.0/22", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn host_bits_are_zeroed() {
        assert_eq!(p("10.1.2.3/8").to_string(), "10.0.0.0/8");
        assert_eq!(p("192.168.1.129/25").to_string(), "192.168.1.128/25");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
        assert!("300.0.0.0/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn address_count() {
        assert_eq!(p("10.0.0.0/8").address_count(), 1 << 24);
        assert_eq!(p("1.2.3.4/32").address_count(), 1);
        assert_eq!(p("0.0.0.0/0").address_count(), 1u64 << 32);
    }

    #[test]
    fn covers_and_overlaps() {
        let eight = p("10.0.0.0/8");
        let sixteen = p("10.5.0.0/16");
        let other = p("11.0.0.0/8");
        assert!(eight.covers(&sixteen));
        assert!(!sixteen.covers(&eight));
        assert!(sixteen.covered_by(&eight));
        assert!(eight.covers(&eight));
        assert!(!eight.covers(&other));
        assert!(eight.overlaps(&sixteen));
        assert!(sixteen.overlaps(&eight));
        assert!(!eight.overlaps(&other));
    }

    #[test]
    fn contains_addr() {
        let pr = p("132.255.0.0/22");
        assert!(pr.contains_addr("132.255.3.255".parse().unwrap()));
        assert!(!pr.contains_addr("132.255.4.0".parse().unwrap()));
    }

    #[test]
    fn last_address() {
        assert_eq!(
            p("132.255.0.0/22").last_address(),
            "132.255.3.255".parse::<Ipv4Addr>().unwrap()
        );
        assert_eq!(
            p("1.2.3.4/32").last_address(),
            "1.2.3.4".parse::<Ipv4Addr>().unwrap()
        );
    }

    #[test]
    fn parent_children_sibling() {
        let pr = p("10.0.0.0/9");
        assert_eq!(pr.parent().unwrap(), p("10.0.0.0/8"));
        assert_eq!(pr.sibling().unwrap(), p("10.128.0.0/9"));
        let (lo, hi) = p("10.0.0.0/8").children().unwrap();
        assert_eq!(lo, p("10.0.0.0/9"));
        assert_eq!(hi, p("10.128.0.0/9"));
        assert!(p("0.0.0.0/0").parent().is_none());
        assert!(p("0.0.0.0/0").sibling().is_none());
        assert!(p("1.2.3.4/32").children().is_none());
    }

    #[test]
    fn subdivide() {
        let subs: Vec<_> = p("10.0.0.0/22").subdivide(24).collect();
        assert_eq!(
            subs,
            vec![
                p("10.0.0.0/24"),
                p("10.0.1.0/24"),
                p("10.0.2.0/24"),
                p("10.0.3.0/24")
            ]
        );
        // subdividing to a shorter length yields nothing
        assert_eq!(p("10.0.0.0/22").subdivide(20).count(), 0);
        // subdividing to the same length yields self
        assert_eq!(
            p("10.0.0.0/22").subdivide(22).collect::<Vec<_>>(),
            vec![p("10.0.0.0/22")]
        );
    }

    #[test]
    fn common_prefix_len() {
        assert_eq!(p("10.0.0.0/8").common_prefix_len(&p("10.0.0.0/16")), 8);
        assert_eq!(p("10.0.0.0/16").common_prefix_len(&p("10.128.0.0/16")), 8);
        assert_eq!(p("0.0.0.0/8").common_prefix_len(&p("128.0.0.0/8")), 0);
        assert_eq!(p("10.0.0.0/16").common_prefix_len(&p("10.0.0.0/16")), 16);
    }

    #[test]
    fn truncate() {
        assert_eq!(p("10.5.6.0/24").truncate(8), p("10.0.0.0/8"));
        assert_eq!(p("10.5.6.0/24").truncate(24), p("10.5.6.0/24"));
    }

    #[test]
    #[should_panic]
    fn truncate_longer_panics() {
        let _ = p("10.0.0.0/8").truncate(16);
    }

    #[test]
    fn ordering_matches_table_dump_convention() {
        let mut v = vec![p("10.0.0.0/16"), p("9.0.0.0/8"), p("10.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn bit_extraction() {
        let pr = p("128.0.0.0/1");
        assert!(pr.bit(0));
        let pr = p("64.0.0.0/2");
        assert!(!pr.bit(0));
        assert!(pr.bit(1));
    }
}
