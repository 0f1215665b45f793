//! `droplens top` — a live textual view of a running server's
//! telemetry, in the spirit of `top(1)`.
//!
//! Each frame is one `Metrics` query against the server (schema
//! `droplens-metrics/1`, see `droplens-serve`'s `telemetry` module),
//! rendered as a header of live gauges plus a per-kind table. The
//! `Δ` column is the change in each kind's lifetime total since the
//! previous frame — the between-frames throughput a human actually
//! watches — so rendering is a pure function of two snapshots
//! ([`render`]), kept free of sockets and clocks for unit testing.

use std::fmt::Write as _;
use std::io::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use droplens_obs::json::{self, Value};
use droplens_obs::report::TextTable;

use crate::CliError;

/// Options for `droplens top`.
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// The server to watch.
    pub addr: SocketAddr,
    /// Milliseconds between frames.
    pub interval_ms: u64,
    /// Frames to render before exiting; 0 = until interrupted.
    pub count: usize,
    /// Per-attempt query deadline, milliseconds.
    pub timeout_ms: u64,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions {
            addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            interval_ms: 2_000,
            count: 0,
            timeout_ms: 2_000,
        }
    }
}

/// One kind's row in a snapshot.
#[derive(Debug, Clone)]
pub struct KindSnap {
    /// The kind label.
    pub kind: String,
    /// Lifetime requests of this kind.
    pub total: u64,
    /// Windowed queries per second.
    pub qps: f64,
    /// Errors inside the window.
    pub window_errors: u64,
    /// Windowed p50 latency, nanoseconds.
    pub p50_ns: u64,
    /// Windowed p99 latency, nanoseconds.
    pub p99_ns: u64,
}

/// The slice of a `droplens-metrics/1` document that `top` renders.
#[derive(Debug, Clone)]
pub struct Snap {
    /// Server uptime, nanoseconds.
    pub uptime_ns: u64,
    /// Width of the rolling window, nanoseconds.
    pub window_ns: u64,
    /// Worker threads.
    pub workers: u64,
    /// Bounded queue capacity.
    pub queue_capacity: u64,
    /// Connections waiting in the queue right now.
    pub queue_depth: i64,
    /// Connections being served right now.
    pub in_flight: i64,
    /// Queries answered inside the window.
    pub window_queries: u64,
    /// Windowed queries per second.
    pub qps: f64,
    /// Connections shed inside the window.
    pub shed: u64,
    /// Per-kind rows, in wire order.
    pub kinds: Vec<KindSnap>,
    /// Slow queries seen over the server's lifetime.
    pub slow_seen: u64,
    /// The slow-query threshold, nanoseconds.
    pub slow_threshold_ns: u64,
}

impl Snap {
    /// Parse a `droplens-metrics/1` JSON document into the view model.
    pub fn parse(text: &str) -> Result<Snap, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let u = |path: &[&str]| -> Result<u64, String> {
            walk(&doc, path)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("metrics missing numeric {}", path.join(".")))
        };
        let i = |path: &[&str]| -> Result<i64, String> {
            walk(&doc, path)
                .and_then(Value::as_i64)
                .ok_or_else(|| format!("metrics missing numeric {}", path.join(".")))
        };
        let f = |path: &[&str]| -> Result<f64, String> {
            walk(&doc, path)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metrics missing numeric {}", path.join(".")))
        };
        let mut kinds = Vec::new();
        for item in doc.get("kinds").map(Value::items).unwrap_or(&[]) {
            let ku = |path: &[&str]| -> Result<u64, String> {
                walk(item, path)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("kind entry missing {}", path.join(".")))
            };
            kinds.push(KindSnap {
                kind: item
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or("kind entry missing label")?
                    .to_owned(),
                total: ku(&["total"])?,
                qps: walk(item, &["qps"]).and_then(Value::as_f64).unwrap_or(0.0),
                window_errors: ku(&["window_errors"])?,
                p50_ns: ku(&["latency_ns", "p50"])?,
                p99_ns: ku(&["latency_ns", "p99"])?,
            });
        }
        Ok(Snap {
            uptime_ns: u(&["uptime_ns"])?,
            window_ns: u(&["window_ns"])?,
            workers: u(&["workers"])?,
            queue_capacity: u(&["queue_capacity"])?,
            queue_depth: i(&["queue_depth"])?,
            in_flight: i(&["in_flight"])?,
            window_queries: u(&["window", "queries"])?,
            qps: f(&["window", "qps"])?,
            shed: u(&["window", "shed"])?,
            kinds,
            slow_seen: u(&["slow", "seen"])?,
            slow_threshold_ns: u(&["slow", "threshold_ns"])?,
        })
    }
}

/// Follow a key path through nested objects.
fn walk<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    Some(cur)
}

/// Microseconds with a unit, the scale serve latencies live at.
fn fmt_us(ns: u64) -> String {
    format!("{}µs", ns / 1_000)
}

/// Render one frame: header gauges plus the per-kind table. `prev` is
/// the previous frame's snapshot (None on the first frame); the `Δ`
/// column shows each kind's lifetime-total change since then. Kinds the
/// server has never seen are skipped so quiet servers render tight.
pub fn render(prev: Option<&Snap>, cur: &Snap) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "droplens top — uptime {:.1}s, window {:.1}s, {} workers",
        cur.uptime_ns as f64 / 1e9,
        cur.window_ns as f64 / 1e9,
        cur.workers,
    );
    let _ = writeln!(
        out,
        "queue {}/{}   in-flight {}   window: {} queries @ {:.1} q/s, {} shed",
        cur.queue_depth, cur.queue_capacity, cur.in_flight, cur.window_queries, cur.qps, cur.shed,
    );
    let mut table = TextTable::new(vec!["kind", "total", "Δ", "q/s", "p50", "p99", "win-err"]);
    for kind in &cur.kinds {
        if kind.total == 0 {
            continue;
        }
        let delta = match prev.and_then(|p| p.kinds.iter().find(|k| k.kind == kind.kind)) {
            Some(before) => format!("+{}", kind.total.saturating_sub(before.total)),
            None => "-".to_owned(),
        };
        table.row(vec![
            kind.kind.clone(),
            kind.total.to_string(),
            delta,
            format!("{:.1}", kind.qps),
            fmt_us(kind.p50_ns),
            fmt_us(kind.p99_ns),
            kind.window_errors.to_string(),
        ]);
    }
    if table.is_empty() {
        out.push_str("(no queries served yet)\n");
    } else {
        out.push_str(&table.render());
    }
    let _ = writeln!(
        out,
        "slow queries: {} seen (threshold {:.0}ms)",
        cur.slow_seen,
        cur.slow_threshold_ns as f64 / 1e6,
    );
    out
}

/// `droplens top`: poll the server's `Metrics` frame every interval and
/// print frames until `count` is exhausted (0 = until interrupted or
/// the server goes away). Frames stream to stdout as they render; the
/// returned string is empty.
pub fn run(opts: &TopOptions) -> Result<String, CliError> {
    use droplens_serve::{Client, ClientConfig, Reply, Request, RetryPolicy};
    let mut client = Client::new(ClientConfig {
        addr: opts.addr,
        deadline: Duration::from_millis(opts.timeout_ms.max(1)),
        retry: RetryPolicy::default(),
    });
    let mut prev: Option<Snap> = None;
    let mut frames = 0usize;
    loop {
        let reply = client
            .query(&Request::Metrics)
            .map_err(|e| CliError::Serve(format!("top: metrics query failed: {e}\n")))?;
        let Reply::Metrics { json } = reply else {
            return Err(CliError::Serve(
                "top: server answered the wrong frame kind\n".to_owned(),
            ));
        };
        let snap =
            Snap::parse(&json).map_err(|m| CliError::Serve(format!("top: bad metrics: {m}\n")))?;
        let frame = render(prev.as_ref(), &snap);
        let mut stdout = std::io::stdout();
        if writeln!(stdout, "{frame}").is_err() || stdout.flush().is_err() {
            // Downstream pipe/pager closed: a clean end, not an error.
            return Ok(String::new());
        }
        prev = Some(snap);
        frames += 1;
        if opts.count != 0 && frames >= opts.count {
            return Ok(String::new());
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms.max(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(totals: &[(&str, u64)]) -> Snap {
        Snap {
            uptime_ns: 12_300_000_000,
            window_ns: 8_000_000_000,
            workers: 4,
            queue_capacity: 64,
            queue_depth: 1,
            in_flight: 2,
            window_queries: 120,
            qps: 15.0,
            shed: 3,
            kinds: totals
                .iter()
                .map(|(kind, total)| KindSnap {
                    kind: (*kind).to_owned(),
                    total: *total,
                    qps: 1.5,
                    window_errors: 0,
                    p50_ns: 40_000,
                    p99_ns: 90_000,
                })
                .collect(),
            slow_seen: 3,
            slow_threshold_ns: 100_000_000,
        }
    }

    #[test]
    fn first_frame_renders_gauges_without_deltas() {
        let cur = snap(&[("ping", 100), ("rov", 0)]);
        let out = render(None, &cur);
        assert!(out.contains("queue 1/64"), "{out}");
        assert!(out.contains("in-flight 2"), "{out}");
        assert!(out.contains("15.0 q/s"), "{out}");
        assert!(out.contains("3 shed"), "{out}");
        // No previous frame: the delta column is a placeholder.
        assert!(out.contains('-'), "{out}");
        // Never-seen kinds are skipped.
        assert!(!out.contains("rov"), "{out}");
        assert!(
            out.contains("slow queries: 3 seen (threshold 100ms)"),
            "{out}"
        );
    }

    #[test]
    fn second_frame_shows_lifetime_deltas() {
        let before = snap(&[("ping", 100)]);
        let after = snap(&[("ping", 112)]);
        let out = render(Some(&before), &after);
        assert!(out.contains("+12"), "{out}");
    }

    #[test]
    fn quiet_server_renders_a_placeholder_table() {
        let cur = snap(&[("ping", 0)]);
        let out = render(None, &cur);
        assert!(out.contains("no queries served yet"), "{out}");
    }

    #[test]
    fn parse_round_trips_a_telemetry_snapshot() {
        // A real snapshot shape, hand-built to the droplens-metrics/1
        // schema (the serve crate's tests pin the producer side).
        let json = "{\n\
            \"schema\": \"droplens-metrics/1\",\n\
            \"uptime_ns\": 5000000000, \"window_ns\": 8000000000,\n\
            \"workers\": 2, \"queue_capacity\": 16,\n\
            \"queue_depth\": 0, \"in_flight\": 1,\n\
            \"window\": {\"queries\": 7, \"qps\": 0.9, \"shed\": 0, \"malformed\": 0, \"io_errors\": 0},\n\
            \"totals\": {\"connections\": 7, \"queries\": 7, \"busy\": 0, \"malformed\": 0, \"io_errors\": 0},\n\
            \"kinds\": [{\"kind\": \"ping\", \"total\": 7, \"window_queries\": 7, \"qps\": 0.9,\n\
                         \"window_errors\": 0,\n\
                         \"latency_ns\": {\"count\": 7, \"min\": 1, \"max\": 9, \"p50\": 4, \"p90\": 8, \"p99\": 9}}],\n\
            \"phases\": [],\n\
            \"slow\": {\"threshold_ns\": 100000000, \"seen\": 0, \"samples\": []}\n\
        }";
        let snap = Snap::parse(json).unwrap();
        assert_eq!(snap.workers, 2);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.kinds.len(), 1);
        assert_eq!(snap.kinds[0].kind, "ping");
        assert_eq!(snap.kinds[0].total, 7);
        assert_eq!(snap.kinds[0].p99_ns, 9);
        let rendered = render(None, &snap);
        assert!(rendered.contains("ping"), "{rendered}");
    }

    #[test]
    fn parse_rejects_truncated_documents() {
        assert!(Snap::parse("{\"uptime_ns\": 1}").is_err());
        assert!(Snap::parse("not json").is_err());
    }
}
