//! The run report: a plain-data snapshot of the metrics registry and
//! the tracer's span table, renderable as a human text summary or a
//! stable machine-readable JSON document.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json::{self, JsonObject, Value};
use crate::metrics::HistogramSummary;
use crate::registry::ErrorLog;
use crate::report::TextTable;
use crate::trace::SpanStat;

/// Everything a run recorded, as plain data.
///
/// Produced by [`run_report`] (or [`crate::Registry::report`] for a
/// registry's own metrics); `meta` is caller-populated (seed, scale,
/// command line) and travels into both renderings.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Free-form run context (seed, scale, ...), caller-populated.
    pub meta: BTreeMap<String, String>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span timings by nested path: a tracer's span table.
    pub spans: BTreeMap<String, SpanStat>,
    /// Error tallies by source.
    pub errors: BTreeMap<String, ErrorLog>,
}

/// The process-wide run report: the global registry's counters,
/// gauges, histograms and errors joined with the global tracer's span
/// table. The one place the two halves meet — binaries and tests that
/// report a run all call this.
pub fn run_report() -> RunReport {
    let mut report = crate::registry::global().report();
    report.spans = crate::trace::global().span_table();
    report
}

/// Render nanoseconds the way `Duration`'s `Debug` does (`1.23ms`).
fn ns(n: u64) -> String {
    format!("{:?}", Duration::from_nanos(n))
}

impl RunReport {
    /// True when nothing was recorded (meta is ignored).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.errors.is_empty()
    }

    /// Human-readable multi-section summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.meta.is_empty() {
            let mut t = TextTable::new(vec!["meta", "value"]);
            for (k, v) in &self.meta {
                t.row(vec![k.as_str(), v.as_str()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.spans.is_empty() {
            let mut t = TextTable::new(vec!["span", "count", "total", "cpu", "mean", "alloc"]);
            for (path, stat) in &self.spans {
                // Byte column only when a tracking allocator recorded
                // anything — timing-only reports keep a quiet table.
                let alloc = if stat.alloc_bytes > 0 {
                    crate::alloc::format_bytes(stat.alloc_bytes)
                } else {
                    "-".to_owned()
                };
                let cpu = if stat.cpu_ns > 0 {
                    ns(stat.cpu_ns)
                } else {
                    "-".to_owned()
                };
                t.row(vec![
                    path.clone(),
                    stat.count.to_string(),
                    ns(stat.total_ns),
                    cpu,
                    ns(stat.mean_ns()),
                    alloc,
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.counters.is_empty() {
            let mut t = TextTable::new(vec!["counter", "value"]);
            for (k, v) in &self.counters {
                t.row(vec![k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.gauges.is_empty() {
            let mut t = TextTable::new(vec!["gauge", "value"]);
            for (k, v) in &self.gauges {
                t.row(vec![k.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            let mut t = TextTable::new(vec![
                "histogram",
                "count",
                "min",
                "p50",
                "p90",
                "p99",
                "max",
            ]);
            for (k, h) in &self.histograms {
                t.row(vec![
                    k.clone(),
                    h.count.to_string(),
                    h.min.to_string(),
                    h.p50.to_string(),
                    h.p90.to_string(),
                    h.p99.to_string(),
                    h.max.to_string(),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.errors.is_empty() {
            let mut t = TextTable::new(vec!["errors", "seen", "first samples"]);
            for (k, e) in &self.errors {
                t.row(vec![k.clone(), e.seen.to_string(), e.samples.join(" | ")]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Stable machine-readable JSON (schema `droplens-obs/1`).
    ///
    /// Key order is deterministic (maps are sorted by name, field order
    /// is fixed), so identical runs produce byte-identical documents —
    /// suitable for committing as `BENCH_<date>.json`.
    pub fn to_json(&self) -> String {
        let mut root = JsonObject::new();
        root.field_str("schema", "droplens-obs/1");

        let mut meta = JsonObject::new();
        for (k, v) in &self.meta {
            meta.field_str(k, v);
        }
        root.field_object("meta", meta);

        let mut counters = JsonObject::new();
        for (k, v) in &self.counters {
            counters.field_u64(k, *v);
        }
        root.field_object("counters", counters);

        let mut gauges = JsonObject::new();
        for (k, v) in &self.gauges {
            gauges.field_i64(k, *v);
        }
        root.field_object("gauges", gauges);

        let mut histograms = JsonObject::new();
        for (k, h) in &self.histograms {
            let mut o = JsonObject::new();
            o.field_u64("count", h.count)
                .field_u64("sum", h.sum)
                .field_u64("min", h.min)
                .field_u64("max", h.max)
                .field_u64("p50", h.p50)
                .field_u64("p90", h.p90)
                .field_u64("p99", h.p99);
            histograms.field_object(k, o);
        }
        root.field_object("histograms", histograms);

        let mut spans = JsonObject::new();
        for (k, s) in &self.spans {
            let mut o = JsonObject::new();
            o.field_u64("count", s.count)
                .field_u64("total_ns", s.total_ns)
                .field_u64("mean_ns", s.mean_ns());
            // Optional columns appear only when recorded, so older
            // readers see the fields they know.
            if s.cpu_ns > 0 {
                o.field_u64("cpu_ns", s.cpu_ns);
            }
            if s.concurrent > 0 {
                o.field_u64("concurrent", s.concurrent);
            }
            if s.alloc_bytes > 0 || s.freed_bytes > 0 {
                o.field_u64("alloc_bytes", s.alloc_bytes)
                    .field_u64("freed_bytes", s.freed_bytes);
            }
            spans.field_object(k, o);
        }
        root.field_object("spans", spans);

        let mut errors = JsonObject::new();
        for (k, e) in &self.errors {
            let mut o = JsonObject::new();
            o.field_u64("seen", e.seen)
                .field_str_array("samples", &e.samples);
            errors.field_object(k, o);
        }
        root.field_object("errors", errors);

        let mut out = root.finish();
        out.push('\n');
        out
    }

    /// Parse a report back from its [`RunReport::to_json`] document —
    /// how `droplens perf diff` loads the two sides it compares.
    /// Unknown top-level fields are ignored; a malformed document or a
    /// wrong schema tag is an error.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema").and_then(Value::as_str) {
            Some("droplens-obs/1") => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err("missing \"schema\" field".to_owned()),
        }
        let section = |name: &str| doc.get(name).map(Value::members).unwrap_or(&[]).iter();
        let need_u64 = |v: &Value, what: &str, key: &str| {
            v.as_u64()
                .ok_or_else(|| format!("{what} {key:?}: not a u64"))
        };
        let mut report = RunReport::default();
        for (k, v) in section("meta") {
            let s = v
                .as_str()
                .ok_or_else(|| format!("meta {k:?}: not a string"))?;
            report.meta.insert(k.clone(), s.to_owned());
        }
        for (k, v) in section("counters") {
            report
                .counters
                .insert(k.clone(), need_u64(v, "counter", k)?);
        }
        for (k, v) in section("gauges") {
            let n = v
                .as_i64()
                .ok_or_else(|| format!("gauge {k:?}: not an i64"))?;
            report.gauges.insert(k.clone(), n);
        }
        for (k, v) in section("histograms") {
            let field = |name: &str| {
                need_u64(
                    v.get(name).unwrap_or(&Value::Num(0.0)),
                    "histogram field",
                    name,
                )
            };
            report.histograms.insert(
                k.clone(),
                HistogramSummary {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    p50: field("p50")?,
                    p90: field("p90")?,
                    p99: field("p99")?,
                },
            );
        }
        for (k, v) in section("spans") {
            let count = need_u64(v.get("count").unwrap_or(&Value::Null), "span", k)?;
            let total_ns = need_u64(v.get("total_ns").unwrap_or(&Value::Null), "span", k)?;
            // Optional: absent in timing-only documents.
            let optional = |key| v.get(key).and_then(Value::as_u64).unwrap_or(0);
            report.spans.insert(
                k.clone(),
                SpanStat {
                    count,
                    total_ns,
                    cpu_ns: optional("cpu_ns"),
                    concurrent: optional("concurrent"),
                    alloc_bytes: optional("alloc_bytes"),
                    freed_bytes: optional("freed_bytes"),
                },
            );
        }
        for (k, v) in section("errors") {
            let seen = need_u64(v.get("seen").unwrap_or(&Value::Null), "error", k)?;
            let samples = match v.get("samples") {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| format!("error {k:?}: non-string sample"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => Vec::new(),
            };
            report.errors.insert(k.clone(), ErrorLog { seen, samples });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_renders() {
        let r = RunReport::default();
        assert!(r.is_empty());
        assert_eq!(r.to_text(), "(no metrics recorded)\n");
        assert!(r.to_json().starts_with("{\"schema\":\"droplens-obs/1\""));
    }

    fn stat(count: u64, total_ns: u64) -> SpanStat {
        SpanStat {
            count,
            total_ns,
            ..SpanStat::default()
        }
    }

    fn stat_mem(count: u64, total_ns: u64, alloc_bytes: u64, freed_bytes: u64) -> SpanStat {
        SpanStat {
            count,
            total_ns,
            alloc_bytes,
            freed_bytes,
            ..SpanStat::default()
        }
    }

    #[test]
    fn span_table_shows_alloc_column() {
        let mut r = RunReport::default();
        r.spans
            .insert("run/a".into(), stat_mem(1, 1_000_000, 3 << 20, 1 << 20));
        r.spans.insert("run/b".into(), stat(1, 1_000));
        let text = r.to_text();
        assert!(text.contains("alloc"), "{text}");
        assert!(text.contains("3.0MiB"), "{text}");
        // Timing-only rows show a dash, not 0B.
        assert!(
            text.lines()
                .any(|l| l.starts_with("run/b") && l.ends_with('-')),
            "{text}"
        );
    }

    #[test]
    fn json_round_trips_byte_columns() {
        let mut r = RunReport::default();
        r.spans
            .insert("run/load".into(), stat_mem(1, 500, 2048, 1024));
        r.spans.insert("run/plain".into(), stat(1, 100));
        let json = r.to_json();
        assert!(json.contains("\"alloc_bytes\":2048"), "{json}");
        // Timing-only spans omit the byte fields entirely.
        assert!(!json.contains("\"alloc_bytes\":0"), "{json}");
        let back = RunReport::from_json(&json).expect("parses");
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let mut r = RunReport::default();
        r.meta.insert("seed".into(), "42".into());
        r.counters.insert("bgp.parsed".into(), 7);
        r.gauges.insert("depth".into(), -3);
        r.histograms.insert(
            "lat".into(),
            HistogramSummary {
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                p50: 10,
                p90: 20,
                p99: 20,
            },
        );
        r.spans.insert("run/load".into(), stat(3, 1234));
        r.spans.insert(
            "run/load/parse".into(),
            SpanStat {
                cpu_ns: 900,
                concurrent: 2,
                ..stat(3, 1500)
            },
        );
        r.errors.insert(
            "bgp".into(),
            ErrorLog {
                seen: 2,
                samples: vec!["line 3: bad \"prefix\"".into()],
            },
        );
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parses");
        assert_eq!(back.meta, r.meta);
        assert_eq!(back.counters, r.counters);
        assert_eq!(back.gauges, r.gauges);
        assert_eq!(back.histograms, r.histograms);
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.errors, r.errors);
        // Byte-stable round trip.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(RunReport::from_json("not json").is_err());
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("{\"schema\":\"other/9\"}").is_err());
        let bad_span = r#"{"schema":"droplens-obs/1","spans":{"x":{"count":"q"}}}"#;
        assert!(RunReport::from_json(bad_span).is_err());
    }
}
