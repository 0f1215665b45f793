//! RPSL `route` objects.

use std::fmt;
use std::str::FromStr;

use droplens_net::{Asn, Ipv4Prefix, ParseError};

/// An RPSL `route` object — the IRR record asserting that an AS intends to
/// originate a prefix (RFC 2622).
///
/// Only the attributes the paper's analysis touches are modeled; unknown
/// attributes are preserved on parse so that real RADb dumps round-trip.
///
/// ```text
/// route:      132.255.0.0/22
/// descr:      LACNIC block
/// origin:     AS263692
/// mnt-by:     MAINT-AS263692
/// org:        ORG-PE42
/// source:     RADB
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteObject {
    /// The `route:` attribute.
    pub prefix: Ipv4Prefix,
    /// The `origin:` attribute.
    pub origin: Asn,
    /// The `descr:` attribute (freeform).
    pub descr: String,
    /// The `mnt-by:` maintainer.
    pub maintainer: String,
    /// The `org:` attribute — the ORG-ID the paper groups forged entries
    /// by. Optional: many real objects lack it.
    pub org: Option<String>,
    /// The `source:` registry, e.g. `RADB`.
    pub source: String,
    /// Attributes we don't model, preserved verbatim as `(key, value)`.
    pub extra: Vec<(String, String)>,
}

impl RouteObject {
    /// Construct a minimal object with the required attributes.
    pub fn new(prefix: Ipv4Prefix, origin: Asn) -> RouteObject {
        RouteObject {
            prefix,
            origin,
            descr: String::new(),
            maintainer: String::new(),
            org: None,
            source: "RADB".to_owned(),
            extra: Vec::new(),
        }
    }

    /// Builder-style: set the description.
    pub fn with_descr(mut self, descr: impl Into<String>) -> RouteObject {
        self.descr = descr.into();
        self
    }

    /// Builder-style: set the maintainer.
    pub fn with_maintainer(mut self, mnt: impl Into<String>) -> RouteObject {
        self.maintainer = mnt.into();
        self
    }

    /// Builder-style: set the ORG-ID.
    pub fn with_org(mut self, org: impl Into<String>) -> RouteObject {
        self.org = Some(org.into());
        self
    }

    /// The registry key: `(prefix, origin)`. RPSL allows multiple route
    /// objects for one prefix with different origins; the pair is unique.
    pub fn key(&self) -> (Ipv4Prefix, Asn) {
        (self.prefix, self.origin)
    }
}

impl fmt::Display for RouteObject {
    /// Serializes in canonical RPSL attribute order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "route:          {}", self.prefix)?;
        if !self.descr.is_empty() {
            writeln!(f, "descr:          {}", self.descr)?;
        }
        writeln!(f, "origin:         {}", self.origin)?;
        if !self.maintainer.is_empty() {
            writeln!(f, "mnt-by:         {}", self.maintainer)?;
        }
        if let Some(org) = &self.org {
            writeln!(f, "org:            {}", org)?;
        }
        for (k, v) in &self.extra {
            writeln!(f, "{:<15} {}", format!("{k}:"), v)?;
        }
        writeln!(f, "source:         {}", self.source)
    }
}

impl FromStr for RouteObject {
    type Err = ParseError;

    /// Parses one RPSL object (attribute lines; `+`/whitespace
    /// continuation lines append to the previous attribute).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut attrs: Vec<(String, String)> = Vec::new();
        for raw in s.lines() {
            if raw.trim().is_empty() || raw.starts_with('%') || raw.starts_with('#') {
                continue;
            }
            if raw.starts_with([' ', '\t', '+']) {
                // Continuation of the previous attribute.
                let cont = raw.trim_start_matches(['+', ' ', '\t']);
                match attrs.last_mut() {
                    Some((_, v)) => {
                        v.push(' ');
                        v.push_str(cont);
                    }
                    None => {
                        return Err(ParseError::new(
                            "RouteObject",
                            raw,
                            "continuation line before any attribute",
                        ))
                    }
                }
                continue;
            }
            let (key, value) = raw
                .split_once(':')
                .ok_or_else(|| ParseError::new("RouteObject", raw, "missing ':'"))?;
            attrs.push((key.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }

        let mut prefix = None;
        let mut origin = None;
        let mut descr = String::new();
        let mut maintainer = String::new();
        let mut org = None;
        let mut source = String::from("RADB");
        let mut extra = Vec::new();
        for (key, value) in attrs {
            match key.as_str() {
                "route" => prefix = Some(value.parse::<Ipv4Prefix>()?),
                "origin" => origin = Some(value.parse::<Asn>()?),
                "descr" => descr = value,
                "mnt-by" => maintainer = value,
                "org" => org = Some(value),
                "source" => source = value,
                _ => extra.push((key, value)),
            }
        }
        Ok(RouteObject {
            prefix: prefix
                .ok_or_else(|| ParseError::new("RouteObject", s, "missing route: attribute"))?,
            origin: origin
                .ok_or_else(|| ParseError::new("RouteObject", s, "missing origin: attribute"))?,
            descr,
            maintainer,
            org,
            source,
            extra,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn display_parse_round_trip() {
        let obj = RouteObject::new(p("132.255.0.0/22"), Asn(263692))
            .with_descr("LACNIC block")
            .with_maintainer("MAINT-AS263692")
            .with_org("ORG-PE42");
        let text = obj.to_string();
        let parsed: RouteObject = text.parse().unwrap();
        assert_eq!(parsed, obj);
    }

    #[test]
    fn minimal_object() {
        let obj = RouteObject::new(p("10.0.0.0/8"), Asn(64500));
        let parsed: RouteObject = obj.to_string().parse().unwrap();
        assert_eq!(parsed.org, None);
        assert_eq!(parsed.descr, "");
        assert_eq!(parsed.source, "RADB");
        assert_eq!(parsed.key(), (p("10.0.0.0/8"), Asn(64500)));
    }

    #[test]
    fn parses_real_world_shape() {
        let text = "\
route:      5.188.0.0/17
descr:      customer route
origin:     AS50509
mnt-by:     MAINT-XX
org:        ORG-FORGE1
admin-c:    XX123-RADB
notify:     noc@example.net
source:     RADB
";
        let obj: RouteObject = text.parse().unwrap();
        assert_eq!(obj.prefix, p("5.188.0.0/17"));
        assert_eq!(obj.origin, Asn(50509));
        assert_eq!(obj.org.as_deref(), Some("ORG-FORGE1"));
        assert_eq!(obj.extra.len(), 2);
        assert_eq!(obj.extra[0].0, "admin-c");
    }

    #[test]
    fn continuation_lines_append() {
        let text = "\
route:      10.0.0.0/8
descr:      first line
+           second line
origin:     AS64500
source:     RADB
";
        let obj: RouteObject = text.parse().unwrap();
        assert_eq!(obj.descr, "first line second line");
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "\
% RADb dump excerpt

route:      10.0.0.0/8
origin:     AS64500
# trailing comment
source:     RADB
";
        let obj: RouteObject = text.parse().unwrap();
        assert_eq!(obj.origin, Asn(64500));
    }

    #[test]
    fn missing_required_attributes_rejected() {
        assert!("origin: AS1\nsource: RADB\n"
            .parse::<RouteObject>()
            .is_err());
        assert!("route: 10.0.0.0/8\nsource: RADB\n"
            .parse::<RouteObject>()
            .is_err());
        assert!("route: 10.0.0.0/8\norigin: ASX\n"
            .parse::<RouteObject>()
            .is_err());
        assert!("just some text".parse::<RouteObject>().is_err());
    }

    #[test]
    fn leading_continuation_rejected() {
        assert!("  floating continuation\nroute: 10.0.0.0/8\norigin: AS1\n"
            .parse::<RouteObject>()
            .is_err());
    }

    #[test]
    fn keys_are_case_insensitive() {
        let text = "ROUTE: 10.0.0.0/8\nOrigin: AS64500\nSource: RADB\n";
        let obj: RouteObject = text.parse().unwrap();
        assert_eq!(obj.prefix, p("10.0.0.0/8"));
    }
}
