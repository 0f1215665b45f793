//! The synthetic address plan and block allocator.

use std::collections::BTreeMap;

use droplens_net::{Ipv4Prefix, PrefixSet};
use droplens_rir::Rir;

/// First-fit CIDR allocator over per-RIR /8 pools.
///
/// The generator carves every modeled block out of a fixed address plan
/// (a synthetic assignment of /8s to RIRs, loosely proportioned like the
/// real registry system). First-fit over a canonical [`PrefixSet`] makes
/// carving deterministic: the same request sequence always yields the
/// same blocks.
pub struct BlockAllocator {
    free: BTreeMap<Rir, PrefixSet>,
}

impl BlockAllocator {
    /// An allocator over the default address plan.
    pub fn new() -> BlockAllocator {
        let mut free = BTreeMap::new();
        for rir in Rir::ALL {
            let mut set = PrefixSet::new();
            for &eight in plan_slash8s(rir) {
                set.insert(Ipv4Prefix::from_u32((eight as u32) << 24, 8));
            }
            free.insert(rir, set);
        }
        BlockAllocator { free }
    }

    /// Reserve a specific prefix (used for the scripted case-study
    /// prefixes so the bulk allocator cannot hand them out). Returns
    /// `false` if the space was already taken.
    pub fn reserve(&mut self, rir: Rir, prefix: Ipv4Prefix) -> bool {
        let Some(set) = self.free.get_mut(&rir) else {
            return false;
        };
        if !set.contains_prefix(&prefix) {
            return false;
        }
        set.remove(prefix);
        true
    }

    /// Allocate the first available aligned block of length `len` from
    /// `rir`'s pool.
    pub fn allocate(&mut self, rir: Rir, len: u8) -> Option<Ipv4Prefix> {
        let set = self.free.get_mut(&rir)?;
        // First-fit: the canonical iteration is in address order; a free
        // prefix of length <= len contains an aligned block at its start.
        let candidate = set.iter().find(|p| p.len() <= len)?;
        let block = Ipv4Prefix::from_u32(candidate.network_u32(), len);
        set.remove(block);
        Some(block)
    }

    /// The space still unallocated in `rir`'s pool.
    pub fn available(&self, rir: Rir) -> &PrefixSet {
        &self.free[&rir]
    }
}

impl Default for BlockAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// The synthetic /8 plan. Counts are roughly proportional to the real
/// registry system (ARIN largest, AFRINIC smallest); specific /8s chosen
/// so the paper's case-study prefixes fall in the right region
/// (132.255.0.0/22 and 45.65.112.0/22 under LACNIC, 41.x under AFRINIC).
pub fn plan_slash8s(rir: Rir) -> &'static [u8] {
    match rir {
        Rir::Afrinic => &[41, 102, 105, 154, 196, 197],
        Rir::Apnic => &[
            1, 14, 27, 36, 39, 42, 43, 49, 58, 59, 60, 61, 101, 103, 110, 111, 112, 113, 114, 115,
            116, 117, 118, 119, 120, 121, 122, 123, 124, 125, 126, 133, 150, 153, 163, 171, 175,
            180, 182, 183, 202, 203, 210, 211, 218, 219, 220, 221, 222, 223,
        ],
        Rir::Arin => &[
            3, 4, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 26, 28, 29, 30,
            32, 33, 34, 35, 38, 40, 44, 47, 48, 50, 52, 54, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72,
            73, 74, 75, 76, 96, 97, 98, 99, 100, 104, 107, 108, 128, 129, 130, 131, 134, 135, 136,
            137, 138, 139, 140, 142, 143, 144, 146, 147, 148, 149, 152, 155, 156, 157, 158, 159,
            160, 161, 162, 164, 165, 166, 167, 168, 169, 170, 172, 173, 174, 192, 198, 199, 204,
            205, 206, 207, 208, 209, 214, 215, 216,
        ],
        Rir::Lacnic => &[45, 132, 177, 179, 181, 186, 187, 189, 190, 191, 200, 201],
        Rir::RipeNcc => &[
            5, 31, 37, 46, 51, 53, 57, 62, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90,
            91, 92, 93, 94, 95, 109, 141, 145, 151, 176, 178, 185, 188, 193, 194, 195, 212, 213,
            217,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplens_net::AddressSpace;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn plan_is_disjoint_across_rirs() {
        let mut seen = std::collections::BTreeSet::new();
        for rir in Rir::ALL {
            for &eight in plan_slash8s(rir) {
                assert!(seen.insert(eight), "/8 {eight} assigned twice");
            }
        }
        // No reserved-for-special-use /8s in the plan.
        for special in [0u8, 10, 127, 224, 240, 255, 25, 55, 56, 2] {
            assert!(!seen.contains(&special), "special /8 {special} in plan");
        }
    }

    #[test]
    fn case_study_prefixes_fall_in_their_regions() {
        let a = BlockAllocator::new();
        assert!(a
            .available(Rir::Lacnic)
            .contains_prefix(&p("132.255.0.0/22")));
        assert!(a
            .available(Rir::Lacnic)
            .contains_prefix(&p("45.65.112.0/22")));
        assert!(a.available(Rir::Afrinic).contains_prefix(&p("41.0.0.0/16")));
    }

    #[test]
    fn first_fit_is_deterministic_and_aligned() {
        let mut a = BlockAllocator::new();
        let b1 = a.allocate(Rir::Afrinic, 16).unwrap();
        let b2 = a.allocate(Rir::Afrinic, 16).unwrap();
        assert_eq!(b1.to_string(), "41.0.0.0/16");
        assert_eq!(b2.to_string(), "41.1.0.0/16");
        assert!(!b1.overlaps(&b2));
        let mut fresh = BlockAllocator::new();
        assert_eq!(fresh.allocate(Rir::Afrinic, 16).unwrap(), b1);
    }

    #[test]
    fn reserve_prevents_allocation() {
        let mut a = BlockAllocator::new();
        assert!(a.reserve(Rir::Afrinic, p("41.0.0.0/16")));
        assert!(!a.reserve(Rir::Afrinic, p("41.0.0.0/16")), "double reserve");
        let next = a.allocate(Rir::Afrinic, 16).unwrap();
        assert_eq!(next.to_string(), "41.1.0.0/16");
    }

    #[test]
    fn allocation_shrinks_pool_exactly() {
        let mut a = BlockAllocator::new();
        let before = a.available(Rir::Lacnic).space();
        let block = a.allocate(Rir::Lacnic, 12).unwrap();
        let after = a.available(Rir::Lacnic).space();
        assert_eq!(before - after, AddressSpace::of_prefix(&block));
        assert!(!a.available(Rir::Lacnic).overlaps(&block));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = BlockAllocator::new();
        // AFRINIC has 6 /8s = 6 allocations of /8.
        for _ in 0..6 {
            assert!(a.allocate(Rir::Afrinic, 8).is_some());
        }
        assert!(a.allocate(Rir::Afrinic, 8).is_none());
        assert!(a.available(Rir::Afrinic).is_empty());
        // A longer request also fails once the pool is drained.
        assert!(a.allocate(Rir::Afrinic, 24).is_none());
    }

    #[test]
    fn mixed_sizes_stay_disjoint() {
        let mut a = BlockAllocator::new();
        let mut blocks = Vec::new();
        for len in [12u8, 16, 14, 20, 10, 16, 22] {
            blocks.push(a.allocate(Rir::RipeNcc, len).unwrap());
        }
        for (i, x) in blocks.iter().enumerate() {
            for y in &blocks[i + 1..] {
                assert!(!x.overlaps(y), "{x} overlaps {y}");
            }
        }
    }
}
