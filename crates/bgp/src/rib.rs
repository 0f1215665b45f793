//! Per-peer routing information bases.

use droplens_net::{Ipv4Prefix, PrefixTrie};

use crate::{AsPath, BgpEvent, BgpUpdate, PeerId};

/// One route in a RIB: the prefix plus the path the peer reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// AS path, first-hop first.
    pub path: AsPath,
}

/// The routing table of one collector peer, reconstructed by replaying
/// updates in order. Equivalent to one peer's slice of a RouteViews
/// `TABLE_DUMP2` snapshot.
#[derive(Debug, Default)]
pub struct Rib {
    routes: PrefixTrie<AsPath>,
}

impl Rib {
    /// An empty table.
    pub fn new() -> Rib {
        Rib {
            routes: PrefixTrie::new(),
        }
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Apply one update. Updates for other peers must be filtered out by
    /// the caller; the RIB itself is peer-agnostic.
    pub fn apply(&mut self, prefix: Ipv4Prefix, event: &BgpEvent) {
        match event {
            BgpEvent::Announce(path) => {
                // `AsPath` is an `Arc<[Asn]>` handle, so this clone is a
                // refcount bump, not a per-announce hop-list copy.
                self.routes.insert(prefix, path.clone());
            }
            BgpEvent::Withdraw => {
                self.routes.remove(&prefix);
            }
        }
    }

    /// The path for an exact-match prefix, if present.
    pub fn route(&self, prefix: &Ipv4Prefix) -> Option<&AsPath> {
        self.routes.get(prefix)
    }

    /// True if the peer has an exact route for `prefix`.
    pub fn has_route(&self, prefix: &Ipv4Prefix) -> bool {
        self.routes.contains(prefix)
    }

    /// Longest-match lookup, as a router would forward.
    pub fn longest_match(&self, prefix: &Ipv4Prefix) -> Option<(Ipv4Prefix, &AsPath)> {
        self.routes.longest_match(prefix)
    }

    /// True if the peer has any route equal to or more specific than
    /// `prefix` (i.e. the prefix's space is at least partly reachable).
    pub fn covers_any(&self, prefix: &Ipv4Prefix) -> bool {
        self.routes.overlaps(prefix)
    }

    /// Iterate all routes in address order.
    pub fn iter(&self) -> impl Iterator<Item = RibEntry> + '_ {
        self.routes.iter().map(|(prefix, path)| RibEntry {
            prefix,
            path: path.clone(),
        })
    }
}

/// The tables of every peer of a collector on one day: replays a full
/// update stream, routing each update to its peer's RIB.
#[derive(Debug, Default)]
pub struct PeerRibs {
    ribs: Vec<Rib>,
}

impl PeerRibs {
    /// Create tables for `peer_count` peers.
    pub fn new(peer_count: usize) -> PeerRibs {
        PeerRibs {
            ribs: (0..peer_count).map(|_| Rib::new()).collect(),
        }
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.ribs.len()
    }

    /// Apply an update to the owning peer's table. Panics if the peer id
    /// is out of range (peer sets are fixed up front in this substrate).
    pub fn apply(&mut self, update: &BgpUpdate) {
        self.ribs[update.peer.index()].apply(update.prefix, &update.event);
    }

    /// The table of one peer.
    pub fn rib(&self, peer: PeerId) -> &Rib {
        &self.ribs[peer.index()]
    }

    /// How many peers currently have an exact route for `prefix`.
    pub fn peers_with_route(&self, prefix: &Ipv4Prefix) -> usize {
        self.ribs.iter().filter(|r| r.has_route(prefix)).count()
    }

    /// Fraction of peers with an exact route for `prefix` (0.0 when there
    /// are no peers).
    pub fn visibility(&self, prefix: &Ipv4Prefix) -> f64 {
        if self.ribs.is_empty() {
            return 0.0;
        }
        self.peers_with_route(prefix) as f64 / self.ribs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplens_net::Date;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn path(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    #[test]
    fn announce_then_withdraw() {
        let mut rib = Rib::new();
        rib.apply(p("10.0.0.0/8"), &BgpEvent::Announce(path("1 2")));
        assert!(rib.has_route(&p("10.0.0.0/8")));
        assert_eq!(rib.route(&p("10.0.0.0/8")), Some(&path("1 2")));
        assert_eq!(rib.len(), 1);

        rib.apply(p("10.0.0.0/8"), &BgpEvent::Withdraw);
        assert!(!rib.has_route(&p("10.0.0.0/8")));
        assert!(rib.is_empty());
    }

    #[test]
    fn implicit_replacement() {
        let mut rib = Rib::new();
        rib.apply(p("10.0.0.0/8"), &BgpEvent::Announce(path("1 2")));
        rib.apply(p("10.0.0.0/8"), &BgpEvent::Announce(path("3 4")));
        assert_eq!(rib.route(&p("10.0.0.0/8")), Some(&path("3 4")));
        assert_eq!(rib.len(), 1);
    }

    #[test]
    fn withdraw_absent_is_noop() {
        let mut rib = Rib::new();
        rib.apply(p("10.0.0.0/8"), &BgpEvent::Withdraw);
        assert!(rib.is_empty());
    }

    #[test]
    fn longest_match_and_covers() {
        let mut rib = Rib::new();
        rib.apply(p("10.0.0.0/8"), &BgpEvent::Announce(path("1 2")));
        rib.apply(p("10.5.0.0/16"), &BgpEvent::Announce(path("1 3")));
        let (best, path_found) = rib.longest_match(&p("10.5.9.0/24")).unwrap();
        assert_eq!(best, p("10.5.0.0/16"));
        assert_eq!(path_found.origin().value(), 3);
        assert!(rib.covers_any(&p("10.0.0.0/7")));
        assert!(!rib.covers_any(&p("12.0.0.0/8")));
    }

    #[test]
    fn peer_ribs_routing_and_visibility() {
        let d: Date = "2020-01-01".parse().unwrap();
        let mut ribs = PeerRibs::new(4);
        for peer in 0..3u32 {
            ribs.apply(&BgpUpdate::announce(
                d,
                PeerId(peer),
                p("10.0.0.0/8"),
                path("1 2"),
            ));
        }
        assert_eq!(ribs.peers_with_route(&p("10.0.0.0/8")), 3);
        assert_eq!(ribs.visibility(&p("10.0.0.0/8")), 0.75);
        assert_eq!(ribs.peer_count(), 4);
        assert!(ribs.rib(PeerId(3)).is_empty());

        ribs.apply(&BgpUpdate::withdraw(d, PeerId(0), p("10.0.0.0/8")));
        assert_eq!(ribs.peers_with_route(&p("10.0.0.0/8")), 2);
    }

    #[test]
    fn empty_peer_ribs_visibility_is_zero() {
        let ribs = PeerRibs::new(0);
        assert_eq!(ribs.visibility(&p("10.0.0.0/8")), 0.0);
    }

    #[test]
    fn rib_iteration_in_order() {
        let mut rib = Rib::new();
        rib.apply(p("11.0.0.0/8"), &BgpEvent::Announce(path("1")));
        rib.apply(p("10.0.0.0/8"), &BgpEvent::Announce(path("1")));
        let prefixes: Vec<String> = rib.iter().map(|e| e.prefix.to_string()).collect();
        assert_eq!(prefixes, ["10.0.0.0/8", "11.0.0.0/8"]);
    }
}
