//! §4.1: RIR deallocation after DROP listing.
//!
//! Two statistics:
//!
//! * the fraction of malicious-hosting prefixes allocated at listing time
//!   that the RIR deallocated by the end of the study (paper: 17.4%);
//! * the fraction of removed-from-DROP prefixes that were deallocated
//!   (paper: 8.8%), and of those, how many Spamhaus removed within a week
//!   of the RIR's deallocation (paper: half).

use std::fmt;

use droplens_drop::Category;
use droplens_net::{Date, Ipv4Prefix};

use crate::report::pct;
use crate::Study;

/// One detected deallocation.
#[derive(Debug, Clone, Copy)]
pub struct Dealloc {
    /// The listed prefix.
    pub prefix: Ipv4Prefix,
    /// Listing day.
    pub listed: Date,
    /// First stats snapshot showing it gone.
    pub deallocated: Date,
    /// Spamhaus' removal day, if removed.
    pub removed: Option<Date>,
}

/// The §4.1 statistics.
#[derive(Debug, Clone)]
pub struct Sec4 {
    /// Malicious-hosting listings allocated at listing time.
    pub mh_total: usize,
    /// Of those, deallocated before study end.
    pub mh_deallocated: usize,
    /// Removed-from-DROP listings (allocated at listing).
    pub removed_total: usize,
    /// Of those, deallocated before study end.
    pub removed_deallocated: Vec<Dealloc>,
    /// Of the deallocated-and-removed: Spamhaus removal within 7 days
    /// after the deallocation.
    pub removed_within_week_of_dealloc: usize,
}

impl Sec4 {
    /// The 17.4% statistic.
    pub fn mh_dealloc_fraction(&self) -> f64 {
        if self.mh_total == 0 {
            0.0
        } else {
            self.mh_deallocated as f64 / self.mh_total as f64
        }
    }

    /// The 8.8% statistic.
    pub fn removed_dealloc_fraction(&self) -> f64 {
        if self.removed_total == 0 {
            0.0
        } else {
            self.removed_deallocated.len() as f64 / self.removed_total as f64
        }
    }

    /// The "half within a week" statistic.
    pub fn week_fraction(&self) -> f64 {
        if self.removed_deallocated.is_empty() {
            0.0
        } else {
            self.removed_within_week_of_dealloc as f64 / self.removed_deallocated.len() as f64
        }
    }
}

/// Compute the §4.1 statistics.
pub fn compute(study: &Study) -> Sec4 {
    let end = study.config.window.last_or_start();

    let mut mh_total = 0;
    let mut mh_deallocated = 0;
    for e in study.without_incidents() {
        if !e.has(Category::MaliciousHosting) || !e.allocated_at_listing {
            continue;
        }
        mh_total += 1;
        if study
            .rir
            .deallocation_date(&e.prefix(), e.entry.added, end)
            .is_some()
        {
            mh_deallocated += 1;
        }
    }

    let mut removed_total = 0;
    let mut removed_deallocated = Vec::new();
    let mut within_week = 0;
    for e in study.without_incidents() {
        let Some(removed) = e.entry.removed else {
            continue;
        };
        if !e.allocated_at_listing {
            continue;
        }
        removed_total += 1;
        if let Some(dd) = study.rir.deallocation_date(&e.prefix(), e.entry.added, end) {
            removed_deallocated.push(Dealloc {
                prefix: e.prefix(),
                listed: e.entry.added,
                deallocated: dd,
                removed: Some(removed),
            });
            if removed >= dd && removed - dd <= 7 {
                within_week += 1;
            }
        }
    }

    Sec4 {
        mh_total,
        mh_deallocated,
        removed_total,
        removed_deallocated,
        removed_within_week_of_dealloc: within_week,
    }
}

impl fmt::Display for Sec4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 4.1: deallocation after listing")?;
        writeln!(
            f,
            "  malicious hosting deallocated: {} of {} ({})",
            self.mh_deallocated,
            self.mh_total,
            pct(self.mh_dealloc_fraction()),
        )?;
        writeln!(
            f,
            "  removed-from-DROP deallocated: {} of {} ({})",
            self.removed_deallocated.len(),
            self.removed_total,
            pct(self.removed_dealloc_fraction()),
        )?;
        writeln!(
            f,
            "  of those, Spamhaus removed within a week of the deallocation: {} ({})",
            self.removed_within_week_of_dealloc,
            pct(self.week_fraction()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testutil;

    #[test]
    fn mh_dealloc_rate_near_config() {
        let s = compute(testutil::study());
        assert!(s.mh_total > 0);
        // Config rate is 17.4%; the small world has few MH prefixes, so
        // just require the signal exists and is a minority.
        assert!(s.mh_dealloc_fraction() < 0.6);
    }

    #[test]
    fn removed_dealloc_detected_with_day_precision() {
        let s = compute(testutil::study());
        let world = testutil::world();
        // Cross-check against ground truth: every truth deallocation of a
        // removed prefix is found.
        let truth_deallocs: Vec<_> = world
            .truth
            .listed
            .iter()
            .filter(|t| t.removed.is_some() && t.deallocated.is_some())
            .collect();
        assert_eq!(s.removed_deallocated.len(), truth_deallocs.len());
        for d in &s.removed_deallocated {
            let t = world.truth.for_prefix(&d.prefix).unwrap();
            assert_eq!(Some(d.deallocated), t.deallocated, "{}", d.prefix);
        }
    }

    #[test]
    fn week_fraction_is_roughly_half_when_populated() {
        let s = compute(testutil::study());
        if s.removed_deallocated.len() >= 4 {
            assert!(
                s.week_fraction() > 0.2 && s.week_fraction() < 0.8,
                "{}",
                s.week_fraction()
            );
        }
    }

    #[test]
    fn renders() {
        let s = compute(testutil::study());
        assert!(s.to_string().contains("deallocation after listing"));
    }
}
