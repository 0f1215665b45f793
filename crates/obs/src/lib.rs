//! droplens-obs: pipeline-wide instrumentation for droplens.
//!
//! Three parts, one report:
//!
//! - [`Registry`]: named counters, gauges and log-bucket histograms
//!   ([`metrics`]) plus per-source error samples. The pipeline records
//!   into the process-wide [`global`] registry; libraries that want
//!   isolation carry their own (cloning is one `Arc`).
//! - [`trace`]: the one span model. Every [`Tracer::span`] adds to a
//!   per-path span table (`study/load/parse.bgp.updates`), nesting
//!   across fork-join workers, and — while the tracer is enabled —
//!   records a timeline event for Chrome trace-event JSON and a
//!   deterministic text tree.
//! - [`alloc`]: an allocation-tracking `#[global_allocator]` wrapper
//!   ([`TrackingAlloc`]) with per-thread shards. When installed, every
//!   span also carries `alloc_bytes`/`freed_bytes`, traces grow
//!   per-worker `live_bytes` timelines, and run reports gain `mem.*`
//!   gauges.
//!
//! [`run_report()`] joins the global registry with the global tracer's
//! span table into a [`RunReport`], rendered as a text summary or a
//! stable JSON document (`droplens-obs/1`).
//!
//! ```
//! use droplens_obs::trace::Tracer;
//! let reg = droplens_obs::Registry::new();
//! let tracer = Tracer::new();
//! let parsed = reg.counter("bgp.records.parsed");
//! {
//!     let _load = tracer.span("load", "stage");
//!     let _parse = tracer.span("parse", "parse");
//!     parsed.add(3);
//! }
//! let mut report = reg.report();
//! report.spans = tracer.span_table();
//! assert_eq!(report.counters["bgp.records.parsed"], 3);
//! assert_eq!(report.spans["load/parse"].count, 1);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod run_report;
pub mod trace;
pub mod window;

pub use alloc::{MemDelta, MemMark, MemSnapshot, TrackingAlloc};
pub use clock::{Clock, Stopwatch};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{global, ErrorLog, Registry, ERROR_SAMPLES_KEPT};
pub use run_report::{run_report, RunReport};
pub use trace::{ArgValue, SpanRef, SpanStat, Trace, TraceEvent, TraceGuard, Tracer};
pub use window::{WindowConfig, WindowedCounter, WindowedHistogram};
