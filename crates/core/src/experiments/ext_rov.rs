//! Extension: counterfactual ROV deployment.
//!
//! The paper's conclusion argues for (1) operators signing unrouted space
//! with AS0 and (2) RIR AS0 TALs being usable for filtering. This
//! experiment asks: **had validators enforced each policy, how many of
//! the malicious announcements in this study would have been rejected at
//! announcement time?**
//!
//! Three policies, evaluated against each listing's announcement on its
//! listing day:
//!
//! * `Rov` — plain RFC 6811 against the production TALs (drop Invalid);
//! * `RovPlusAs0Tals` — production + the APNIC/LACNIC AS0 TALs;
//! * `RovPlusOperatorAs0` — additionally assume every holder of signed
//!   but unrouted space had used AS0 (the §6.2.1 recommendation): any
//!   announcement covered by a non-AS0 ROA whose space was unrouted the
//!   day before counts as rejected unless the origin matches the ROA —
//!   and forged-origin announcements of long-unrouted signed space count
//!   as rejected too, because an AS0 ROA would have replaced the stale
//!   authorization.

use std::fmt;

use droplens_drop::Category;
use droplens_net::Asn;
use droplens_rpki::{RovOutcome, Tal};

use crate::report::pct;
use crate::Study;

/// Counterfactual outcomes per policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyOutcome {
    /// Listings whose announcement would have been rejected.
    pub rejected: usize,
    /// Listings evaluated (announced on their listing day).
    pub total: usize,
}

impl PolicyOutcome {
    /// Rejected fraction.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.rejected as f64 / self.total as f64
        }
    }
}

/// The counterfactual results.
#[derive(Debug, Clone)]
pub struct ExtRov {
    /// Plain ROV (production TALs).
    pub rov: PolicyOutcome,
    /// ROV + RIR AS0 TALs.
    pub rov_as0_tals: PolicyOutcome,
    /// ROV + AS0 TALs + operator AS0 on unrouted signed space.
    pub rov_operator_as0: PolicyOutcome,
    /// Unallocated listings rejected under the AS0 TALs specifically.
    pub ua_rejected_by_as0_tals: usize,
    /// Unallocated listings total.
    pub ua_total: usize,
}

/// Compute the counterfactual.
pub fn compute(study: &Study) -> ExtRov {
    let mut rov = PolicyOutcome::default();
    let mut with_tals = PolicyOutcome::default();
    let mut with_operator = PolicyOutcome::default();
    let mut ua_rejected = 0usize;
    let mut ua_total = 0usize;

    let all_tals = Tal::ALL;

    for e in study.without_incidents() {
        let prefix = e.prefix();
        let listed = e.entry.added;
        let origins = study.bgp.origins_at(&prefix, listed);
        let Some(&origin) = origins.iter().next() else {
            continue; // not announced on the listing day
        };
        rov.total += 1;
        with_tals.total += 1;
        with_operator.total += 1;
        let is_ua = e.has(Category::Unallocated);
        if is_ua {
            ua_total += 1;
        }

        let plain = study
            .roa
            .validate_at(&prefix, origin, listed, &Tal::PRODUCTION);
        if plain == RovOutcome::Invalid {
            rov.rejected += 1;
        }
        let tals = study.roa.validate_at(&prefix, origin, listed, &all_tals);
        if tals == RovOutcome::Invalid {
            with_tals.rejected += 1;
            if is_ua && plain != RovOutcome::Invalid {
                ua_rejected += 1;
            }
        }

        // Operator AS0 counterfactual: rejected if either policy above
        // fires, or the announcement leans on a ROA for space that was
        // unrouted before the announcement began (an AS0 ROA would have
        // stood in its place).
        let operator_rejects = tals == RovOutcome::Invalid
            || leans_on_stale_authorization(study, &prefix, origin, listed);
        if operator_rejects {
            with_operator.rejected += 1;
        }
    }

    ExtRov {
        rov,
        rov_as0_tals: with_tals,
        rov_operator_as0: with_operator,
        ua_rejected_by_as0_tals: ua_rejected,
        ua_total,
    }
}

/// Did this RPKI-valid announcement revive a ROA for space its holder had
/// stopped announcing (the 132.255.0.0/22 situation)? Under the operator
/// AS0 recommendation, that ROA would have been AS0 instead.
fn leans_on_stale_authorization(
    study: &Study,
    prefix: &droplens_net::Ipv4Prefix,
    origin: Asn,
    listed: droplens_net::Date,
) -> bool {
    if study
        .roa
        .validate_at(prefix, origin, listed, &Tal::PRODUCTION)
        != RovOutcome::Valid
    {
        return false;
    }
    // Find when the current announcement run began, then check whether
    // the prefix had a long unrouted gap just before it.
    let scope: Vec<droplens_bgp::PeerId> = study.peers.iter().map(|p| p.id).collect();
    let mut run_start = None;
    for peer in study.peers.iter() {
        for iv in study.bgp.intervals(prefix, peer.id) {
            if iv.contains(listed) {
                run_start =
                    Some(run_start.map_or(iv.start, |d: droplens_net::Date| d.min(iv.start)));
            }
        }
    }
    let Some(run_start) = run_start else {
        return false;
    };
    matches!(
        droplens_bgp::history::unrouted_gap_before(&study.bgp, prefix, &scope, run_start),
        Some(gap) if gap >= 60
    )
}

impl fmt::Display for ExtRov {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension: counterfactual ROV deployment (announcements on listing day)"
        )?;
        for (name, o) in [
            ("ROV, production TALs", &self.rov),
            ("ROV + RIR AS0 TALs", &self.rov_as0_tals),
            ("ROV + AS0 TALs + operator AS0", &self.rov_operator_as0),
        ] {
            writeln!(
                f,
                "  {name:<32} rejects {:>3} of {} listings ({})",
                o.rejected,
                o.total,
                pct(o.fraction()),
            )?;
        }
        writeln!(
            f,
            "  unallocated listings newly rejected by the AS0 TALs: {} of {}",
            self.ua_rejected_by_as0_tals, self.ua_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testutil;

    #[test]
    fn policies_strictly_escalate() {
        let e = compute(testutil::study());
        assert!(e.rov.rejected <= e.rov_as0_tals.rejected);
        assert!(e.rov_as0_tals.rejected <= e.rov_operator_as0.rejected);
        assert_eq!(e.rov.total, e.rov_as0_tals.total);
    }

    #[test]
    fn as0_tals_catch_unallocated_squats() {
        let e = compute(testutil::study());
        // Squats in APNIC/LACNIC pools get caught; other regions have no
        // AS0 TAL, so not all 40 (small world: 8) are rejected.
        assert!(e.ua_rejected_by_as0_tals > 0, "{e}");
        assert!(e.ua_rejected_by_as0_tals <= e.ua_total);
    }

    #[test]
    fn operator_as0_catches_the_case_study() {
        let study = testutil::study();
        let world = testutil::world();
        let case = world.truth.case_study_prefix.unwrap();
        let t = world.truth.for_prefix(&case).unwrap();
        assert!(leans_on_stale_authorization(
            study,
            &case,
            world.truth.case_origin.unwrap(),
            t.listed
        ));
    }

    #[test]
    fn plain_rov_rejects_almost_nothing() {
        // The paper's point: attackers avoid signed space, so plain ROV
        // barely bites on the DROP population.
        let e = compute(testutil::study());
        assert!(e.rov.fraction() < 0.2, "{}", e.rov.fraction());
    }

    #[test]
    fn renders() {
        let e = compute(testutil::study());
        assert!(e.to_string().contains("counterfactual ROV"));
    }
}
