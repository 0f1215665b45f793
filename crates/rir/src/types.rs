//! Registry and status enumerations.

use std::fmt;
use std::str::FromStr;

use droplens_net::{Date, ParseError};

/// A Regional Internet Registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rir {
    /// AFRINIC (Africa).
    Afrinic,
    /// APNIC (Asia-Pacific).
    Apnic,
    /// ARIN (North America).
    Arin,
    /// LACNIC (Latin America and the Caribbean).
    Lacnic,
    /// RIPE NCC (Europe, Middle East, Central Asia).
    RipeNcc,
}

impl Rir {
    /// All five RIRs in the paper's table order.
    pub const ALL: [Rir; 5] = [
        Rir::Afrinic,
        Rir::Apnic,
        Rir::Arin,
        Rir::Lacnic,
        Rir::RipeNcc,
    ];

    /// Token used in delegated stats files.
    pub fn token(self) -> &'static str {
        match self {
            Rir::Afrinic => "afrinic",
            Rir::Apnic => "apnic",
            Rir::Arin => "arin",
            Rir::Lacnic => "lacnic",
            Rir::RipeNcc => "ripencc",
        }
    }

    /// Display name as printed in the paper's tables.
    pub fn display_name(self) -> &'static str {
        match self {
            Rir::Afrinic => "AFRINIC",
            Rir::Apnic => "APNIC",
            Rir::Arin => "ARIN",
            Rir::Lacnic => "LACNIC",
            Rir::RipeNcc => "RIPE NCC",
        }
    }

    /// The date the RIR's AS0-for-unallocated policy took effect, if any
    /// (§2.3.1): APNIC on 2020-09-02, LACNIC on 2021-06-23. RIPE withdrew
    /// its proposal, AFRINIC has not implemented, ARIN never proposed.
    pub fn as0_policy_date(self) -> Option<Date> {
        match self {
            Rir::Apnic => Some(Date::from_ymd(2020, 9, 2)),
            Rir::Lacnic => Some(Date::from_ymd(2021, 6, 23)),
            _ => None,
        }
    }
}

impl fmt::Display for Rir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

impl FromStr for Rir {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Rir::ALL
            .into_iter()
            .find(|r| r.token() == s)
            .ok_or_else(|| ParseError::new("Rir", s, "unknown registry"))
    }
}

/// The status column of a delegated stats record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AllocationStatus {
    /// Allocated to an LIR/ISP.
    Allocated,
    /// Assigned to an end user.
    Assigned,
    /// In the RIR's free pool.
    Available,
    /// Held back by the RIR (not allocatable, not delegated).
    Reserved,
}

impl AllocationStatus {
    /// True for space delegated to some organization (allocated or
    /// assigned) — the "allocated" sense used throughout the paper.
    pub fn is_delegated(self) -> bool {
        matches!(
            self,
            AllocationStatus::Allocated | AllocationStatus::Assigned
        )
    }

    /// Token in stats files.
    pub fn token(self) -> &'static str {
        match self {
            AllocationStatus::Allocated => "allocated",
            AllocationStatus::Assigned => "assigned",
            AllocationStatus::Available => "available",
            AllocationStatus::Reserved => "reserved",
        }
    }
}

impl fmt::Display for AllocationStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for AllocationStatus {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "allocated" => Ok(AllocationStatus::Allocated),
            "assigned" => Ok(AllocationStatus::Assigned),
            "available" => Ok(AllocationStatus::Available),
            "reserved" => Ok(AllocationStatus::Reserved),
            _ => Err(ParseError::new("AllocationStatus", s, "unknown status")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rir_tokens_round_trip() {
        for rir in Rir::ALL {
            assert_eq!(rir.token().parse::<Rir>().unwrap(), rir);
        }
        assert!("iana".parse::<Rir>().is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Rir::RipeNcc.to_string(), "RIPE NCC");
        assert_eq!(Rir::Afrinic.to_string(), "AFRINIC");
    }

    #[test]
    fn as0_policy_dates_match_paper() {
        assert_eq!(
            Rir::Apnic.as0_policy_date(),
            Some(Date::from_ymd(2020, 9, 2))
        );
        assert_eq!(
            Rir::Lacnic.as0_policy_date(),
            Some(Date::from_ymd(2021, 6, 23))
        );
        assert_eq!(Rir::Arin.as0_policy_date(), None);
        assert_eq!(Rir::RipeNcc.as0_policy_date(), None);
        assert_eq!(Rir::Afrinic.as0_policy_date(), None);
    }

    #[test]
    fn status_round_trip_and_delegated() {
        for s in [
            AllocationStatus::Allocated,
            AllocationStatus::Assigned,
            AllocationStatus::Available,
            AllocationStatus::Reserved,
        ] {
            assert_eq!(s.token().parse::<AllocationStatus>().unwrap(), s);
        }
        assert!(AllocationStatus::Allocated.is_delegated());
        assert!(AllocationStatus::Assigned.is_delegated());
        assert!(!AllocationStatus::Available.is_delegated());
        assert!(!AllocationStatus::Reserved.is_delegated());
        assert!("bogus".parse::<AllocationStatus>().is_err());
    }
}
