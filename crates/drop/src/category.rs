//! DROP entry categories (paper §3.1).

use std::fmt;
use std::str::FromStr;

use droplens_net::ParseError;

/// The six categories the paper assigns to DROP prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Hijacked (HJ): obtained through fraud from an RIR, or announced
    /// despite being assigned to another network.
    Hijacked,
    /// Snowshoe spam (SS): spam spread thinly across many addresses.
    SnowshoeSpam,
    /// Known spam operation (KS): controlled by / connected to a ROKSO
    /// spam operation.
    KnownSpamOperation,
    /// Malicious hosting (MH): bulletproof hosting services.
    MaliciousHosting,
    /// Unallocated (UA): not allocated by IANA or any RIR, yet in use.
    Unallocated,
    /// No SBL record (NR): the record was removed after remediation.
    NoSblRecord,
}

impl Category {
    /// All categories in the paper's Figure 1 order.
    pub const ALL: [Category; 6] = [
        Category::Hijacked,
        Category::SnowshoeSpam,
        Category::KnownSpamOperation,
        Category::MaliciousHosting,
        Category::Unallocated,
        Category::NoSblRecord,
    ];

    /// The two-letter code used in the figures.
    pub fn code(self) -> &'static str {
        match self {
            Category::Hijacked => "HJ",
            Category::SnowshoeSpam => "SS",
            Category::KnownSpamOperation => "KS",
            Category::MaliciousHosting => "MH",
            Category::Unallocated => "UA",
            Category::NoSblRecord => "NR",
        }
    }

    /// Full name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Category::Hijacked => "Hijacks",
            Category::SnowshoeSpam => "Snowshoe",
            Category::KnownSpamOperation => "Known Spam Op.",
            Category::MaliciousHosting => "Malicious Hosting",
            Category::Unallocated => "Unallocated",
            Category::NoSblRecord => "No SBL Record",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

impl FromStr for Category {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Category::ALL
            .into_iter()
            .find(|c| c.code() == s)
            .ok_or_else(|| ParseError::new("Category", s, "unknown category code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for c in Category::ALL {
            assert_eq!(c.code().parse::<Category>().unwrap(), c);
        }
        assert!("XX".parse::<Category>().is_err());
    }

    #[test]
    fn figure_order() {
        let codes: Vec<&str> = Category::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes, ["HJ", "SS", "KS", "MH", "UA", "NR"]);
    }

    #[test]
    fn names() {
        assert_eq!(Category::Hijacked.name(), "Hijacks");
        assert_eq!(Category::NoSblRecord.name(), "No SBL Record");
    }
}
