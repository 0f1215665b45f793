//! Dated BGP update events as seen by a collector.

use droplens_net::{Date, Ipv4Prefix};

use crate::{AsPath, PeerId};

/// The payload of an update: a new best path, or a withdrawal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpEvent {
    /// The peer announced (or replaced) its path to the prefix.
    Announce(AsPath),
    /// The peer withdrew its route to the prefix.
    Withdraw,
}

impl BgpEvent {
    /// The announced path, if any.
    pub fn path(&self) -> Option<&AsPath> {
        match self {
            BgpEvent::Announce(p) => Some(p),
            BgpEvent::Withdraw => None,
        }
    }

    /// True for announcements.
    pub fn is_announce(&self) -> bool {
        matches!(self, BgpEvent::Announce(_))
    }
}

/// One dated update from one peer about one prefix.
///
/// The study works at day granularity, so updates carry a [`Date`] rather
/// than a timestamp; multiple updates from the same peer for the same
/// prefix on the same day are applied in stream order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpUpdate {
    /// Day the collector recorded the update.
    pub date: Date,
    /// Which peer sent it.
    pub peer: PeerId,
    /// Subject prefix.
    pub prefix: Ipv4Prefix,
    /// Announce or withdraw.
    pub event: BgpEvent,
}

impl BgpUpdate {
    /// Convenience constructor for an announcement.
    pub fn announce(date: Date, peer: PeerId, prefix: Ipv4Prefix, path: AsPath) -> BgpUpdate {
        BgpUpdate {
            date,
            peer,
            prefix,
            event: BgpEvent::Announce(path),
        }
    }

    /// Convenience constructor for a withdrawal.
    pub fn withdraw(date: Date, peer: PeerId, prefix: Ipv4Prefix) -> BgpUpdate {
        BgpUpdate {
            date,
            peer,
            prefix,
            event: BgpEvent::Withdraw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn constructors() {
        let path: AsPath = "3356 263692".parse().unwrap();
        let a = BgpUpdate::announce(
            d("2020-12-01"),
            PeerId(3),
            "132.255.0.0/22".parse().unwrap(),
            path.clone(),
        );
        assert!(a.event.is_announce());
        assert_eq!(a.event.path(), Some(&path));

        let w = BgpUpdate::withdraw(
            d("2021-01-01"),
            PeerId(3),
            "132.255.0.0/22".parse().unwrap(),
        );
        assert!(!w.event.is_announce());
        assert_eq!(w.event.path(), None);
    }
}
