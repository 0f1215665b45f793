//! Routing-visibility analyses for §4.1 / Figure 2.
//!
//! Two questions are answered here:
//!
//! 1. **Withdrawal after listing** (Figure 2, left): for each DROP-listed
//!    prefix, how many days after listing did the last collector peer stop
//!    observing it? The paper reports 19% of prefixes unobserved 30 days
//!    after listing (70.7% for hijacked, 54.8% for unallocated prefixes).
//! 2. **Peer filtering** (Figure 2, right): the fraction of DROP prefixes
//!    each full-table peer observed; peers that filter the DROP list stand
//!    out with dramatically lower fractions (three RouteViews peers did).

use droplens_net::{Date, DateRange, Ipv4Prefix};

use crate::{BgpArchive, PeerId};

/// Withdrawal outcome for one listed prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Withdrawal {
    /// The prefix was never observed in BGP during the archive at all.
    NeverRouted,
    /// All peers stopped observing the prefix this many days after listing
    /// (may be negative if it went down shortly before listing — the CDF
    /// in Figure 2 starts at −1 day).
    WithdrawnAfterDays(i32),
    /// Still observed by at least one peer at the end of the archive.
    StillRouted,
}

/// Compute the withdrawal outcome for a prefix listed on `listed`.
///
/// The search starts at `listed - lookback` days so that withdrawals just
/// before the listing (Spamhaus and the attacker race each other) are
/// captured, matching the paper's CDF which begins at −1 day. A prefix
/// already unobserved at the start of the lookback window is reported as
/// withdrawn at exactly `-lookback` days (the CDF clamps earlier exits).
pub fn withdrawal_outcome(
    archive: &BgpArchive,
    prefix: &Ipv4Prefix,
    listed: Date,
    lookback: i32,
) -> Withdrawal {
    if !archive.ever_observed(prefix)
        || archive
            .peers()
            .iter()
            .all(|p| !archive.ever_observed_by(prefix, p.id))
    {
        return Withdrawal::NeverRouted;
    }
    // If unobserved for the whole lookback window, treat as never-routed
    // relative to this listing (it was withdrawn long before).
    let from = listed - lookback;
    match archive.first_unobserved_after(prefix, from) {
        Some(gone) => Withdrawal::WithdrawnAfterDays(gone - listed),
        None => Withdrawal::StillRouted,
    }
}

/// The empirical CDF of withdrawal delays for a set of listings, evaluated
/// at each listing's own date. Returns the sorted delays for prefixes that
/// were withdrawn; `denominator` is the total number of listings
/// considered routed at listing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WithdrawalCdf {
    /// Sorted days-to-withdrawal (may include negatives).
    pub delays: Vec<i32>,
    /// Number of listings in the denominator (withdrawn + still routed).
    pub denominator: usize,
    /// Listings never routed at all (excluded from the CDF).
    pub never_routed: usize,
}

impl WithdrawalCdf {
    /// Build from per-listing outcomes.
    pub fn from_outcomes(outcomes: impl IntoIterator<Item = Withdrawal>) -> WithdrawalCdf {
        let mut delays = Vec::new();
        let mut denominator = 0;
        let mut never_routed = 0;
        for o in outcomes {
            match o {
                Withdrawal::WithdrawnAfterDays(d) => {
                    delays.push(d);
                    denominator += 1;
                }
                Withdrawal::StillRouted => denominator += 1,
                Withdrawal::NeverRouted => never_routed += 1,
            }
        }
        delays.sort_unstable();
        WithdrawalCdf {
            delays,
            denominator,
            never_routed,
        }
    }

    /// Fraction of listings withdrawn within `days` of listing
    /// (0.0 when the denominator is empty).
    pub fn fraction_within(&self, days: i32) -> f64 {
        if self.denominator == 0 {
            return 0.0;
        }
        let n = self.delays.partition_point(|&d| d <= days);
        n as f64 / self.denominator as f64
    }

    /// The full empirical curve as `(day, cumulative fraction)` points,
    /// one per distinct delay — the plotted line of Figure 2 (left).
    pub fn curve(&self) -> Vec<(i32, f64)> {
        if self.denominator == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, &d) in self.delays.iter().enumerate() {
            let next_differs = self.delays.get(i + 1) != Some(&d);
            if next_differs {
                out.push((d, (i + 1) as f64 / self.denominator as f64));
            }
        }
        out
    }
}

/// Per-peer observation statistics over a set of listings, for the
/// filtering-peer detection of Figure 2 (right).
#[derive(Debug, Clone, PartialEq)]
pub struct PeerObservation {
    /// The peer.
    pub peer: PeerId,
    /// Number of listed prefixes this peer observed while listed.
    pub observed: usize,
    /// Number of listed prefixes observed by any peer while listed
    /// (the denominator: a peer can only be blamed for missing prefixes
    /// that were actually in BGP).
    pub observable: usize,
}

impl PeerObservation {
    /// Fraction of observable prefixes this peer carried.
    pub fn fraction(&self) -> f64 {
        if self.observable == 0 {
            0.0
        } else {
            self.observed as f64 / self.observable as f64
        }
    }
}

/// For each peer, the fraction of listed-and-routed prefixes it observed
/// during the listing window.
pub fn peer_observations(
    archive: &BgpArchive,
    listings: &[(Ipv4Prefix, DateRange)],
) -> Vec<PeerObservation> {
    // For each listing, the days it was observable (any peer saw it).
    let mut observable_listings: Vec<&(Ipv4Prefix, DateRange)> = Vec::new();
    for listing in listings {
        let (prefix, range) = listing;
        let seen = archive
            .peers()
            .iter()
            .any(|peer| observed_during(archive, prefix, peer.id, *range));
        if seen {
            observable_listings.push(listing);
        }
    }
    archive
        .peers()
        .iter()
        .map(|peer| {
            let observed = observable_listings
                .iter()
                .filter(|(prefix, range)| observed_during(archive, prefix, peer.id, *range))
                .count();
            PeerObservation {
                peer: peer.id,
                observed,
                observable: observable_listings.len(),
            }
        })
        .collect()
}

/// True if `peer` observed `prefix` on any day in `range`.
fn observed_during(
    archive: &BgpArchive,
    prefix: &Ipv4Prefix,
    peer: PeerId,
    range: DateRange,
) -> bool {
    archive.intervals(prefix, peer).iter().any(|iv| {
        let start = iv.start;
        let end = iv.end.unwrap_or(range.end());
        start < range.end() && end > range.start()
    })
}

/// Peers whose observation fraction is below `threshold` while the median
/// peer's fraction is above it — the signature of a peer filtering the
/// DROP list rather than simply having poor coverage overall.
pub fn detect_filtering_peers(observations: &[PeerObservation], threshold: f64) -> Vec<PeerId> {
    if observations.is_empty() {
        return Vec::new();
    }
    let mut fractions: Vec<f64> = observations.iter().map(|o| o.fraction()).collect();
    fractions.sort_by(f64::total_cmp);
    let median = fractions[fractions.len() / 2];
    if median < threshold {
        // The collector as a whole misses these prefixes; no peer stands out.
        return Vec::new();
    }
    observations
        .iter()
        .filter(|o| o.fraction() < threshold)
        .map(|o| o.peer)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use droplens_net::Asn;

    use crate::{BgpUpdate, CollectorSim, Origination, Peer};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn peers(n: u32) -> Vec<Peer> {
        (0..n)
            .map(|i| Peer::new(PeerId(i), Asn(1000 + i), format!("p{i}")))
            .collect()
    }

    #[test]
    fn withdrawal_outcomes() {
        let pfx = p("10.0.0.0/16");
        let updates = vec![
            BgpUpdate::announce(
                d("2020-01-01"),
                PeerId(0),
                pfx,
                "1000 64500".parse().unwrap(),
            ),
            BgpUpdate::withdraw(d("2020-03-15"), PeerId(0), pfx),
        ];
        let a = BgpArchive::from_updates(peers(1), &updates);
        // Listed on 2020-03-01, withdrawn 14 days later.
        assert_eq!(
            withdrawal_outcome(&a, &pfx, d("2020-03-01"), 1),
            Withdrawal::WithdrawnAfterDays(14)
        );
        // Never-seen prefix.
        assert_eq!(
            withdrawal_outcome(&a, &p("99.0.0.0/8"), d("2020-03-01"), 1),
            Withdrawal::NeverRouted
        );
    }

    #[test]
    fn withdrawal_still_routed() {
        let pfx = p("10.0.0.0/16");
        let updates = vec![BgpUpdate::announce(
            d("2020-01-01"),
            PeerId(0),
            pfx,
            "1000 64500".parse().unwrap(),
        )];
        let a = BgpArchive::from_updates(peers(1), &updates);
        assert_eq!(
            withdrawal_outcome(&a, &pfx, d("2020-03-01"), 1),
            Withdrawal::StillRouted
        );
    }

    #[test]
    fn withdrawal_just_before_listing_counts_negative() {
        let pfx = p("10.0.0.0/16");
        let updates = vec![
            BgpUpdate::announce(
                d("2020-01-01"),
                PeerId(0),
                pfx,
                "1000 64500".parse().unwrap(),
            ),
            BgpUpdate::withdraw(d("2020-02-28"), PeerId(0), pfx),
        ];
        let a = BgpArchive::from_updates(peers(1), &updates);
        // Withdrawn 2 days before listing, but a 1-day lookback clamps the
        // reported delay to -1.
        assert_eq!(
            withdrawal_outcome(&a, &pfx, d("2020-03-01"), 1),
            Withdrawal::WithdrawnAfterDays(-1)
        );
        // A wider lookback sees the true exit day.
        assert_eq!(
            withdrawal_outcome(&a, &pfx, d("2020-03-01"), 7),
            Withdrawal::WithdrawnAfterDays(-2)
        );
    }

    #[test]
    fn cdf_accumulates() {
        let cdf = WithdrawalCdf::from_outcomes([
            Withdrawal::WithdrawnAfterDays(-1),
            Withdrawal::WithdrawnAfterDays(2),
            Withdrawal::WithdrawnAfterDays(7),
            Withdrawal::WithdrawnAfterDays(45),
            Withdrawal::StillRouted,
            Withdrawal::NeverRouted,
        ]);
        assert_eq!(cdf.denominator, 5);
        assert_eq!(cdf.never_routed, 1);
        assert_eq!(cdf.fraction_within(-1), 0.2);
        assert_eq!(cdf.fraction_within(2), 0.4);
        assert_eq!(cdf.fraction_within(30), 0.6);
        assert_eq!(cdf.fraction_within(100), 0.8);
    }

    #[test]
    fn cdf_empty() {
        let cdf = WithdrawalCdf::from_outcomes([]);
        assert_eq!(cdf.fraction_within(30), 0.0);
        assert!(cdf.curve().is_empty());
    }

    #[test]
    fn cdf_curve_is_monotone_and_deduplicated() {
        let cdf = WithdrawalCdf::from_outcomes([
            Withdrawal::WithdrawnAfterDays(2),
            Withdrawal::WithdrawnAfterDays(2),
            Withdrawal::WithdrawnAfterDays(7),
            Withdrawal::StillRouted,
        ]);
        let curve = cdf.curve();
        assert_eq!(curve, vec![(2, 0.5), (7, 0.75)]);
        // The curve agrees with fraction_within at each knot.
        for (d, frac) in curve {
            assert_eq!(cdf.fraction_within(d), frac);
        }
    }

    #[test]
    fn filtering_peer_detection() {
        // 8 peers; peer 7 filters the listed prefixes.
        let mut sim = CollectorSim::new(peers(8), d("2022-03-30"));
        let listings: Vec<(Ipv4Prefix, DateRange)> = (0..10u32)
            .map(|i| {
                (
                    Ipv4Prefix::from_u32(0x0a00_0000 + (i << 16), 16),
                    DateRange::new(d("2020-06-01"), d("2020-09-01")),
                )
            })
            .collect();
        let originations: Vec<Origination> = listings
            .iter()
            .map(|(prefix, _)| Origination {
                prefix: *prefix,
                origin: Asn(64500),
                transits: vec![Asn(3356)],
                start: d("2020-01-01"),
                end: None,
            })
            .collect();
        for (prefix, range) in &listings {
            sim.suppress(PeerId(7), *prefix, *range);
        }
        let updates = sim.updates_for(&originations);
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);

        let obs = peer_observations(&a, &listings);
        assert_eq!(obs.len(), 8);
        for o in &obs[0..7] {
            assert_eq!(o.fraction(), 1.0);
        }
        // Peer 7 saw each prefix before/after the listing window? No: the
        // suppression window equals the listing window, and observed_during
        // tests overlap with the listing window only.
        assert_eq!(obs[7].fraction(), 0.0);
        assert_eq!(detect_filtering_peers(&obs, 0.5), vec![PeerId(7)]);
    }

    #[test]
    fn no_filtering_detected_when_everyone_misses() {
        let obs: Vec<PeerObservation> = (0..5)
            .map(|i| PeerObservation {
                peer: PeerId(i),
                observed: 0,
                observable: 10,
            })
            .collect();
        assert!(detect_filtering_peers(&obs, 0.5).is_empty());
        assert!(detect_filtering_peers(&[], 0.5).is_empty());
    }

    #[test]
    fn unobservable_listings_excluded_from_denominator() {
        let pfx = p("10.0.0.0/16");
        let updates = vec![BgpUpdate::announce(
            d("2020-01-01"),
            PeerId(0),
            pfx,
            "1000 64500".parse().unwrap(),
        )];
        let a = BgpArchive::from_updates(peers(2), &updates);
        let listings = vec![
            (pfx, DateRange::new(d("2020-02-01"), d("2020-03-01"))),
            // Never routed: should not count against any peer.
            (
                p("99.0.0.0/8"),
                DateRange::new(d("2020-02-01"), d("2020-03-01")),
            ),
        ];
        let obs = peer_observations(&a, &listings);
        assert_eq!(obs[0].observable, 1);
        assert_eq!(obs[0].observed, 1);
        assert_eq!(obs[1].observed, 0);
    }
}
