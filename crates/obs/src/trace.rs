//! droplens-trace: one span tree, kept as a per-path table and,
//! on request, as per-worker timelines.
//!
//! Every span a [`Tracer`] opens adds its duration, on-CPU time and
//! byte delta to the **span table** ([`Tracer::span_table`]), keyed by
//! its path — the run report's span rows ([`crate::run_report()`]). While the
//! tracer is enabled (`--trace`) each span is also a [`TraceEvent`]
//! with parent id, worker thread and typed attributes, for Perfetto /
//! `chrome://tracing` ([`Trace::to_chrome_json`]) or the deterministic
//! text tree ([`Trace::to_text_tree`]). All timestamps come from the
//! tracer's [`Clock`].
//!
//! # Recording model
//!
//! A span builds its path once, at open; closing it takes the tracer's
//! table lock once. The pipeline opens spans per stage, file, task and
//! experiment, never per record. Events go into **per-thread buffers** registered with the
//! tracer; [`Tracer::drain`] collects them once the scoped workers have
//! joined.
//!
//! # Hierarchy across threads
//!
//! Each thread keeps a stack of open spans ([`SpanRef`]: event id plus
//! path). Fork-join helpers hand the spawning thread's
//! current span to their workers ([`Tracer::adopt`] /
//! [`Tracer::task_under`]), so a parser span opened on a worker keys
//! under the `load` stage that scheduled it (`study/load/
//! parse.bgp.updates`). Worker tasks are timeline events but not table
//! rows, so the table reads the same at any worker count. Spans opened
//! under an adopted or task frame count as [`SpanStat::concurrent`].
//!
//! ```
//! use droplens_obs::trace::Tracer;
//! let tracer = Tracer::new();
//! tracer.enable();
//! {
//!     let _outer = tracer.span("study", "stage");
//!     let mut inner = tracer.span("load", "stage");
//!     inner.arg_u64("items", 3);
//! }
//! assert_eq!(tracer.span_table()["study/load"].count, 1);
//! let trace = tracer.drain();
//! assert_eq!(trace.events.len(), 2);
//! assert!(trace.to_text_tree().contains("load"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::clock::Clock;
use crate::json::JsonObject;
use crate::registry::lock;

/// A typed attribute value on a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, nanoseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Free-form string (source labels, locations).
    Str(String),
}

impl ArgValue {
    fn render(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::I64(v) => v.to_string(),
            ArgValue::F64(v) => v.to_string(),
            ArgValue::Str(s) => s.clone(),
        }
    }
}

/// What kind of event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (begin..end).
    Span,
    /// A point-in-time marker (quarantine hit, repair applied).
    Instant,
    /// A sampled counter value (per-worker `live_bytes` timelines) —
    /// exported as a Chrome `ph:"C"` counter track, excluded from the
    /// text tree and coverage.
    Counter,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Unique id within the tracer (1-based, allocation order).
    pub id: u64,
    /// Id of the enclosing span (0 = root).
    pub parent: u64,
    /// Event name (`load`, `parse.bgp`, `par.task`, ...).
    pub name: String,
    /// Coarse category (`stage`, `parse`, `par`, `ingest`, ...).
    pub cat: &'static str,
    /// Worker-thread timeline the event ran on (registration order;
    /// the first thread to record is 0).
    pub tid: u64,
    /// Start, nanoseconds on the tracer's clock.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Typed attributes, in insertion order.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }
}

/// Accumulated timing (and, with a tracking allocator installed,
/// allocation) of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall-clock across them, nanoseconds.
    pub total_ns: u64,
    /// Total on-CPU time of the recording threads inside these spans,
    /// nanoseconds (0 where the platform does not report it).
    pub cpu_ns: u64,
    /// How many of these spans ran inside a fork-join fan-out, beside
    /// sibling work on other threads. Their wall-clock sums across
    /// concurrently running workers, so it grows with oversubscription
    /// as well as with work; their `cpu_ns` does not.
    pub concurrent: u64,
    /// Bytes allocated on the recording threads inside these spans
    /// (0 without a tracking allocator).
    pub alloc_bytes: u64,
    /// Bytes freed on the recording threads inside these spans.
    pub freed_bytes: u64,
}

impl SpanStat {
    /// Mean wall-clock per span, nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        match self.count {
            0 => 0,
            n => self.total_ns / n,
        }
    }
}

/// A position in the span tree: what a fork-join helper hands from the
/// spawning thread to its workers ([`Tracer::current`] →
/// [`Tracer::adopt`] / [`Tracer::task_under`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRef {
    /// Trace event id of the span (0 at the root, or when the span is
    /// not recorded on the timeline because tracing is off).
    pub id: u64,
    /// The span's path, `a/b/c` (`None` at the root).
    path: Option<Arc<str>>,
    /// Whether the span runs inside a fork-join fan-out.
    concurrent: bool,
}

impl SpanRef {
    /// The path of a span named `name` opened under this one.
    fn child_path(&self, name: &str) -> Arc<str> {
        match &self.path {
            Some(parent) => format!("{parent}/{name}").into(),
            None => name.into(),
        }
    }
}

/// One thread's slice of the trace, registered with the tracer so
/// [`Tracer::drain`] can collect it without relying on TLS destructors
/// (scoped threads signal their join *before* TLS drops run, so a
/// destructor-flush design loses a race against the draining thread).
/// Only the owning thread ever locks its shard between drains, so the
/// mutex is uncontended — an atomic CAS, no blocking on the hot path.
type Shard = Arc<Mutex<Vec<TraceEvent>>>;

#[derive(Debug, Default)]
struct TracerInner {
    enabled: AtomicBool,
    clock: Clock,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    shards: Mutex<Vec<Shard>>,
    /// Per-path accumulators.
    table: Mutex<BTreeMap<Arc<str>, SpanStat>>,
}

impl TracerInner {
    /// A fresh event id: 1-based, so 0 can mean "no event".
    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A span-tree recorder. Cloning is one `Arc`; all clones feed the same
/// span table and per-thread shards. Every span adds to the span table;
/// timeline events are recorded only while enabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

/// This thread's handle to its shard: owned by one tracer at a time.
struct LocalBuf {
    tracer: Arc<TracerInner>,
    tid: u64,
    shard: Shard,
}

thread_local! {
    /// Per-thread shard handle (the shard itself outlives the thread).
    static LOCAL_BUF: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
    /// The spans currently open (or adopted) on this thread, outermost
    /// first. Shared across tracers: nesting reflects dynamic call
    /// structure.
    static TRACE_STACK: RefCell<Vec<SpanRef>> = const { RefCell::new(Vec::new()) };
}

/// Push `frame` on this thread's span stack, returning the depth to
/// truncate back to.
fn push_frame(frame: SpanRef) -> usize {
    TRACE_STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(frame);
        s.len() - 1
    })
}

impl Tracer {
    /// A fresh, disabled tracer on the real monotonic clock.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A fresh, disabled tracer reading `clock` — a [`Clock::mock`]
    /// makes span durations exact in tests.
    pub fn with_clock(clock: Clock) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                clock,
                ..TracerInner::default()
            }),
        }
    }

    /// Start recording timeline events. Spans opened before the call
    /// are not retroactively recorded.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Stop recording timeline events (already-open guards still record
    /// on drop; the span table keeps collecting).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Release);
    }

    /// Whether timeline events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// The innermost span open on *this thread* (the root when none).
    /// Fork-join helpers capture this before spawning and hand it to
    /// [`Tracer::task_under`] / [`Tracer::adopt`] on the worker.
    pub fn current(&self) -> SpanRef {
        TRACE_STACK.with(|s| s.borrow().last().cloned().unwrap_or_default())
    }

    /// Open a span under this thread's innermost open span.
    pub fn span(&self, name: &str, cat: &'static str) -> TraceGuard {
        let parent = self.current();
        let frame = SpanRef {
            id: 0,
            path: Some(parent.child_path(name)),
            concurrent: parent.concurrent,
        };
        self.open(parent.id, frame, name, cat, true)
    }

    /// Open a worker-task span under `parent`, captured on the spawning
    /// thread. The task is a timeline event of its own, linked to
    /// `parent`, but not a span-table row: spans opened inside it key
    /// under `parent`'s path, exactly as when the work runs inline.
    pub fn task_under(&self, parent: &SpanRef, name: &str, cat: &'static str) -> TraceGuard {
        let frame = SpanRef {
            id: 0,
            path: parent.path.clone(),
            concurrent: true,
        };
        self.open(parent.id, frame, name, cat, false)
    }

    /// Open `frame` (its id still 0) under event `parent`.
    fn open(
        &self,
        parent: u64,
        mut frame: SpanRef,
        name: &str,
        cat: &'static str,
        row: bool,
    ) -> TraceGuard {
        let event = self.is_enabled().then(|| {
            // Register the thread now, not at the drop-time push: open
            // order follows the fork-join hierarchy (a stage opens
            // before the workers it spawns), so timeline ids stay
            // deterministic instead of depending on which span happens
            // to *finish* first.
            self.register_thread();
            OpenEvent {
                parent,
                name: name.to_owned(),
                cat,
                args: Vec::new(),
            }
        });
        if event.is_some() {
            frame.id = self.inner.next_id();
        }
        let depth = push_frame(frame.clone());
        let cpu_start = self.inner.clock.thread_cpu_ns();
        // Every span doubles as a memory attribution region when a
        // tracking allocator is installed. Marked last, so the
        // bookkeeping above is not charged to the span.
        let mem = crate::alloc::mark();
        TraceGuard {
            state: Some(GuardState {
                tracer: self.clone(),
                frame,
                row,
                depth,
                cpu_start,
                start_ns: self.inner.clock.now_ns(),
                event,
                mem,
            }),
        }
    }

    /// Adopt `parent` as this thread's innermost span without opening
    /// one — how fork-join workers inherit the spawning thread's
    /// context. Spans opened under it count as concurrent. The guard
    /// pops it again on drop.
    pub fn adopt(&self, parent: SpanRef) -> AdoptGuard {
        if self.is_enabled() {
            self.register_thread();
        }
        AdoptGuard {
            depth: push_frame(SpanRef {
                concurrent: true,
                ..parent
            }),
        }
    }

    /// Record a point-in-time event under this thread's innermost span
    /// (timeline only: no-op while disabled).
    pub fn instant(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let id = self.inner.next_id();
        self.push(TraceEvent {
            id,
            parent: self.current().id,
            name: name.into(),
            cat,
            tid: 0, // filled by push
            ts_ns: self.inner.clock.now_ns(),
            dur_ns: 0,
            kind: EventKind::Instant,
            args,
        });
    }

    /// Every span path closed under this tracer so far (`a/b/c`), with
    /// its count, total wall-clock and on-CPU time, and byte columns. Collected whether
    /// or not timeline events are enabled; each recorded path's
    /// ancestors are recorded too once they close.
    pub fn span_table(&self) -> BTreeMap<String, SpanStat> {
        lock(&self.inner.table)
            .iter()
            .map(|(path, stat)| (path.to_string(), *stat))
            .collect()
    }

    /// Add one closed span to its path's accumulator.
    fn accumulate(
        &self,
        frame: SpanRef,
        dur_ns: u64,
        cpu_ns: u64,
        mem: Option<crate::alloc::MemDelta>,
    ) {
        let Some(path) = frame.path else { return };
        let mut table = lock(&self.inner.table);
        let stat = table.entry(path).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(dur_ns);
        stat.cpu_ns = stat.cpu_ns.saturating_add(cpu_ns);
        stat.concurrent += u64::from(frame.concurrent);
        if let Some(d) = mem {
            stat.alloc_bytes = stat.alloc_bytes.saturating_add(d.alloc_bytes);
            stat.freed_bytes = stat.freed_bytes.saturating_add(d.freed_bytes);
        }
    }

    /// Ensure this thread has a shard (and timeline id) registered with
    /// this tracer, returning the id. Registration locks the shard list
    /// once per thread; afterwards only the thread's own shard is locked.
    fn register_thread(&self) -> u64 {
        LOCAL_BUF.with(|cell| {
            let mut cell = cell.borrow_mut();
            if let Some(buf) = cell.as_ref() {
                if Arc::ptr_eq(&buf.tracer, &self.inner) {
                    return buf.tid;
                }
            }
            let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
            let shard: Shard = Arc::new(Mutex::new(Vec::with_capacity(256)));
            lock(&self.inner.shards).push(Arc::clone(&shard));
            *cell = Some(LocalBuf {
                tracer: Arc::clone(&self.inner),
                tid,
                shard,
            });
            tid
        })
    }

    /// Append `event` to this thread's shard, registering the thread on
    /// first use. The shard mutex is only ever contended by a concurrent
    /// [`Tracer::drain`], which the pipeline runs after workers joined.
    fn push(&self, mut event: TraceEvent) {
        let tid = self.register_thread();
        LOCAL_BUF.with(|cell| {
            let cell = cell.borrow();
            if let Some(buf) = cell.as_ref() {
                event.tid = tid;
                lock(&buf.shard).push(event);
            }
        });
    }

    /// Take every recorded event, sorted by start time (ties by id).
    /// Safe to call while workers are gone or idle; events pushed after
    /// the drain accumulate toward the next one. The span table is
    /// left as it is.
    pub fn drain(&self) -> Trace {
        let shards: Vec<Shard> = lock(&self.inner.shards).clone();
        let mut events = Vec::new();
        for shard in shards {
            events.append(&mut lock(&shard));
        }
        events.sort_by_key(|e| (e.ts_ns, e.id));
        Trace { events }
    }
}

/// The process-wide tracer the pipeline's built-in instrumentation
/// records into. Its span table feeds every run report; its timeline
/// is enabled by `reproduce --trace` / `droplens --trace`.
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// The timeline half of an open span (present while tracing is on).
#[derive(Debug)]
struct OpenEvent {
    parent: u64,
    name: String,
    cat: &'static str,
    args: Vec<(&'static str, ArgValue)>,
}

/// State of an open trace guard.
#[derive(Debug)]
struct GuardState {
    tracer: Tracer,
    /// The frame this guard pushed: event id and the path it keys under.
    frame: SpanRef,
    /// Whether the span is a span-table row (false for worker tasks).
    row: bool,
    depth: usize,
    /// The thread's on-CPU reading at open (`None` if unavailable).
    cpu_start: Option<u64>,
    start_ns: u64,
    event: Option<OpenEvent>,
    /// Open memory attribution region (`None` without a tracking
    /// allocator); closed on drop into the row's byte columns and the
    /// event's `alloc_bytes`/`freed_bytes`/`peak_delta` args plus a
    /// `live_bytes` counter sample.
    mem: Option<crate::alloc::MemMark>,
}

/// An open span. On drop (or [`TraceGuard::finish`]) it adds to the
/// span table and, if the tracer was enabled when it opened, records a
/// [`TraceEvent`]. Attribute methods are no-ops while tracing is off.
#[derive(Debug)]
pub struct TraceGuard {
    state: Option<GuardState>,
}

impl TraceGuard {
    /// This span's event id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.frame.id)
    }

    fn arg(&mut self, key: &'static str, value: ArgValue) -> &mut Self {
        if let Some(event) = self.state.as_mut().and_then(|s| s.event.as_mut()) {
            event.args.push((key, value));
        }
        self
    }

    /// Attach an unsigned-integer attribute.
    pub fn arg_u64(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.arg(key, ArgValue::U64(value))
    }

    /// Attach a signed-integer attribute.
    pub fn arg_i64(&mut self, key: &'static str, value: i64) -> &mut Self {
        self.arg(key, ArgValue::I64(value))
    }

    /// Attach a float attribute.
    pub fn arg_f64(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.arg(key, ArgValue::F64(value))
    }

    /// Attach a string attribute.
    pub fn arg_str(&mut self, key: &'static str, value: impl Into<String>) -> &mut Self {
        self.arg(key, ArgValue::Str(value.into()))
    }

    /// Close the span now (equivalent to dropping it) and return its
    /// duration.
    pub fn finish(mut self) -> Duration {
        Duration::from_nanos(self.close())
    }

    /// Record the span once; returns its duration in nanoseconds.
    fn close(&mut self) -> u64 {
        let Some(s) = self.state.take() else { return 0 };
        let inner = &s.tracer.inner;
        let dur_ns = inner.clock.now_ns().saturating_sub(s.start_ns);
        TRACE_STACK.with(|stack| {
            // LIFO in well-formed use; truncating self-heals if an outer
            // guard drops before an inner one.
            stack.borrow_mut().truncate(s.depth);
        });
        // Guards drop innermost-first, which is exactly the LIFO
        // discipline the mark's peak save/restore needs.
        let mem = s.mem.map(crate::alloc::MemMark::finish);
        if s.row {
            let cpu_end = inner.clock.thread_cpu_ns();
            let cpu_ns = match (s.cpu_start, cpu_end) {
                (Some(a), Some(b)) => b.saturating_sub(a),
                _ => 0,
            };
            s.tracer.accumulate(s.frame.clone(), dur_ns, cpu_ns, mem);
        }
        let Some(event) = s.event else { return dur_ns };
        let mut args = event.args;
        if let Some(d) = mem {
            args.push(("alloc_bytes", ArgValue::U64(d.alloc_bytes)));
            args.push(("freed_bytes", ArgValue::U64(d.freed_bytes)));
            args.push(("peak_delta", ArgValue::U64(d.peak_delta)));
        }
        s.tracer.push(TraceEvent {
            id: s.frame.id,
            parent: event.parent,
            name: event.name,
            cat: event.cat,
            tid: 0, // filled by push
            ts_ns: s.start_ns,
            dur_ns,
            kind: EventKind::Span,
            args,
        });
        if mem.is_some() {
            // Sample this worker's live bytes at every span close: a
            // timeline dense exactly where the run is busy.
            let id = inner.next_id();
            s.tracer.push(TraceEvent {
                id,
                parent: event.parent,
                name: "live_bytes".to_owned(),
                cat: "mem",
                tid: 0, // filled by push
                ts_ns: s.start_ns.saturating_add(dur_ns),
                dur_ns: 0,
                kind: EventKind::Counter,
                args: vec![(
                    "live_bytes",
                    ArgValue::I64(crate::alloc::thread_live_bytes()),
                )],
            });
        }
        dur_ns
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Pops an adopted parent off this thread's stack on drop.
#[derive(Debug)]
pub struct AdoptGuard {
    depth: usize,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        TRACE_STACK.with(|s| s.borrow_mut().truncate(self.depth));
    }
}

/// A drained trace: every event, sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The events, sorted by `(ts_ns, id)`.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Render as Chrome trace-event JSON (the `trace-event` format
    /// Perfetto and `chrome://tracing` load). Spans become complete
    /// (`"ph":"X"`) events with microsecond timestamps; instants become
    /// thread-scoped `"ph":"i"` markers; every worker timeline gets a
    /// `thread_name` metadata record. Span and parent ids travel in
    /// `args`, so cross-thread hierarchy survives the export.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<JsonObject> = Vec::with_capacity(self.events.len() + 8);
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            let mut name_args = JsonObject::new();
            name_args.field_str("name", &thread_label(*tid));
            let mut meta = JsonObject::new();
            meta.field_str("name", "thread_name")
                .field_str("ph", "M")
                .field_u64("pid", 1)
                .field_u64("tid", *tid)
                .field_object("args", name_args);
            events.push(meta);
        }
        for e in &self.events {
            let mut args = JsonObject::new();
            if e.kind != EventKind::Counter {
                // Counter args are pure series values; ids would render
                // as extra (meaningless) counter tracks.
                args.field_u64("id", e.id).field_u64("parent", e.parent);
            }
            for (k, v) in &e.args {
                match v {
                    ArgValue::U64(n) => args.field_u64(k, *n),
                    ArgValue::I64(n) => args.field_i64(k, *n),
                    ArgValue::F64(n) => args.field_f64(k, *n),
                    ArgValue::Str(s) => args.field_str(k, s),
                };
            }
            let mut o = JsonObject::new();
            match e.kind {
                // Chrome keys counter tracks by (pid, name): suffix the
                // worker label so every thread gets its own track.
                EventKind::Counter => {
                    o.field_str("name", &format!("{} ({})", e.name, thread_label(e.tid)))
                }
                _ => o.field_str("name", &e.name),
            };
            o.field_str("cat", e.cat);
            match e.kind {
                EventKind::Span => {
                    o.field_str("ph", "X")
                        .field_f64("ts", e.ts_ns as f64 / 1000.0)
                        .field_f64("dur", e.dur_ns as f64 / 1000.0);
                }
                EventKind::Instant => {
                    o.field_str("ph", "i")
                        .field_f64("ts", e.ts_ns as f64 / 1000.0)
                        .field_str("s", "t");
                }
                EventKind::Counter => {
                    o.field_str("ph", "C")
                        .field_f64("ts", e.ts_ns as f64 / 1000.0);
                }
            }
            o.field_u64("pid", 1)
                .field_u64("tid", e.tid)
                .field_object("args", args);
            events.push(o);
        }
        let mut root = JsonObject::new();
        root.field_str("schema", "droplens-trace/1")
            .field_str("displayTimeUnit", "ms")
            .field_object_array("traceEvents", events);
        let mut out = root.finish();
        out.push('\n');
        out
    }

    /// Render a deterministic text tree for test assertions.
    ///
    /// Determinism rules: siblings with the same `(name, cat, kind)`
    /// merge into one node (`×count`); children sort by name, not by
    /// wall-clock; node ids are renumbered depth-first; durations are
    /// bucketed into power-of-two ranges. Attributes are shown only when
    /// every merged event agrees on them, so run-varying values drop out
    /// while structural ones (source labels, fixed counts) stay.
    pub fn to_text_tree(&self) -> String {
        let mut children: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        let ids: std::collections::BTreeSet<u64> = self.events.iter().map(|e| e.id).collect();
        for e in &self.events {
            if e.kind == EventKind::Counter {
                continue; // timeline samples, not structure
            }
            // Events whose parent was never recorded (opened before
            // enable, or parented to a disabled guard) are roots.
            let parent = if ids.contains(&e.parent) { e.parent } else { 0 };
            children.entry(parent).or_default().push(e);
        }
        let mut out = String::new();
        let mut next_id = 1u64;
        render_level(&children, 0, 0, &mut next_id, &mut out);
        out
    }

    /// Fraction of the first `root`-named span's wall-clock covered by
    /// its direct children (interval union, clipped to the root span).
    /// `None` when no such span exists or it has zero duration.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let root_ev = self
            .events
            .iter()
            .find(|e| e.name == root && e.kind == EventKind::Span)?;
        if root_ev.dur_ns == 0 {
            return None;
        }
        let mut intervals: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.parent == root_ev.id && e.kind == EventKind::Span)
            .map(|e| (e.ts_ns.max(root_ev.ts_ns), e.end_ns().min(root_ev.end_ns())))
            .filter(|(lo, hi)| hi > lo)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = 0u64;
        for (lo, hi) in intervals {
            let lo = lo.max(cursor);
            if hi > lo {
                covered += hi - lo;
                cursor = hi;
            }
        }
        Some(covered as f64 / root_ev.dur_ns as f64)
    }
}

/// Per-span memory attribution keys appended by the tracking allocator:
/// handled specially by the text tree (summed bucket, not raw values).
const MEM_ARG_KEYS: [&str; 3] = ["alloc_bytes", "freed_bytes", "peak_delta"];

/// The human label of a worker timeline (`main` / `worker-N`), used for
/// thread metadata and per-worker counter track names.
fn thread_label(tid: u64) -> String {
    if tid == 0 {
        "main".to_owned()
    } else {
        format!("worker-{tid}")
    }
}

/// Render one level of the merged tree (children of `parent`), indented.
fn render_level(
    children: &BTreeMap<u64, Vec<&TraceEvent>>,
    parent: u64,
    depth: usize,
    next_id: &mut u64,
    out: &mut String,
) {
    let Some(events) = children.get(&parent) else {
        return;
    };
    // Merge siblings by (name, cat, kind), keeping name order.
    let mut groups: BTreeMap<(&str, &str, bool), Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        groups
            .entry((e.name.as_str(), e.cat, e.kind == EventKind::Instant))
            .or_default()
            .push(e);
    }
    for ((name, cat, is_instant), group) in groups {
        let id = *next_id;
        *next_id += 1;
        let total_ns: u64 = group.iter().map(|e| e.dur_ns).sum();
        let _ = write!(out, "{}#{id} {name}", "  ".repeat(depth));
        if group.len() > 1 {
            let _ = write!(out, " ×{}", group.len());
        }
        if is_instant {
            let _ = write!(out, " [instant]");
        } else if total_ns == 0 {
            let _ = write!(out, " [0]");
        } else {
            // Half-open power-of-two bucket, e.g. `[2.048µs..4.096µs)`.
            let _ = write!(out, " [{})", duration_bucket(total_ns));
        }
        // The default categories carry no information beyond "a span";
        // only domain categories (par, parse, ingest, ...) are shown.
        if cat != "stage" {
            let _ = write!(out, " <{cat}>");
        }
        // Allocation attribution is run-varying byte-for-byte but stable
        // in magnitude: render the *summed* power-of-two bucket instead
        // of the per-event agreement rule below.
        let alloc_total: u64 = group
            .iter()
            .flat_map(|e| &e.args)
            .filter(|(k, _)| *k == "alloc_bytes")
            .map(|(_, v)| match v {
                ArgValue::U64(n) => *n,
                _ => 0,
            })
            .sum();
        if alloc_total > 0 {
            let _ = write!(out, " alloc[{})", crate::alloc::byte_bucket(alloc_total));
        }
        // Attributes every merged event agrees on (memory attribution is
        // handled above and excluded here).
        if let Some(first) = group.first() {
            for (k, v) in &first.args {
                if MEM_ARG_KEYS.contains(k) {
                    continue;
                }
                if group
                    .iter()
                    .all(|e| e.args.iter().any(|(ek, ev)| ek == k && ev == v))
                {
                    let _ = write!(out, " {k}={}", v.render());
                }
            }
        }
        out.push('\n');
        for e in &group {
            render_level(children, e.id, depth + 1, next_id, out);
        }
    }
}

/// The power-of-two duration bucket containing `ns`, rendered as a
/// half-open range (`[512µs..1.048576ms)`), with exact zero kept exact.
fn duration_bucket(ns: u64) -> String {
    if ns == 0 {
        return "0".to_owned();
    }
    let exp = 63 - ns.leading_zeros();
    let lo = 1u64 << exp;
    let hi = lo.saturating_mul(2);
    format!(
        "{:?}..{:?}",
        Duration::from_nanos(lo),
        Duration::from_nanos(hi)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        id: u64,
        parent: u64,
        name: &str,
        cat: &'static str,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> TraceEvent {
        TraceEvent {
            id,
            parent,
            name: name.to_owned(),
            cat,
            tid: 0,
            ts_ns: ts,
            dur_ns: dur,
            kind: EventKind::Span,
            args,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let mut g = t.span("noop", "test");
            g.arg_u64("n", 1);
            assert_eq!(g.id(), 0);
            t.instant("nope", "test", vec![]);
        }
        assert!(t.drain().events.is_empty());
    }

    #[test]
    fn spans_nest_and_record() {
        let t = Tracer::new();
        t.enable();
        let outer_id;
        {
            let outer = t.span("outer", "test");
            outer_id = outer.id();
            assert_ne!(outer_id, 0);
            assert_eq!(t.current().id, outer_id);
            let inner = t.span("inner", "test");
            assert_ne!(inner.id(), 0);
            drop(inner);
            assert_eq!(t.current().id, outer_id);
        }
        assert_eq!(t.current(), SpanRef::default());
        let trace = t.drain();
        // Sibling alloc tests may flip the process-wide ACTIVE flag,
        // adding live_bytes counter samples: count spans only.
        let spans = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .count();
        assert_eq!(spans, 2);
        let outer = trace.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = trace.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.id, outer_id);
    }

    #[test]
    fn adopt_links_across_threads() {
        let t = Tracer::new();
        t.enable();
        let parent = t.span("stage", "test");
        let pid = parent.id();
        let pref = t.current();
        let tc = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _a = tc.adopt(pref);
                let mut g = tc.span("task", "test");
                g.arg_u64("queue_wait_ns", 17);
            });
        });
        drop(parent);
        let trace = t.drain();
        let task = trace.events.iter().find(|e| e.name == "task").unwrap();
        assert_eq!(task.parent, pid);
        assert_ne!(task.tid, 0, "worker gets its own timeline");
        assert_eq!(task.args[0], ("queue_wait_ns", ArgValue::U64(17)));
    }

    #[test]
    fn nesting_builds_paths() {
        // A disabled tracer records no events but still fills the table.
        let t = Tracer::new();
        {
            let _outer = t.span("outer", "test");
            drop(t.span("inner", "test"));
            drop(t.span("sibling", "test"));
        }
        drop(t.span("after", "test"));
        let table = t.span_table();
        let paths: Vec<&str> = table.keys().map(String::as_str).collect();
        assert_eq!(
            paths,
            vec!["after", "outer", "outer/inner", "outer/sibling"]
        );
        assert_eq!(table["outer"].count, 1);
        assert!(t.drain().events.is_empty());
    }

    #[test]
    fn finish_records_once() {
        let clock = Clock::mock();
        let t = Tracer::with_clock(clock.clone());
        let s = t.span("once", "test");
        clock.advance(Duration::from_nanos(42));
        assert_eq!(s.finish(), Duration::from_nanos(42));
        assert_eq!(t.span_table()["once"].count, 1);
    }

    #[test]
    fn mock_clock_span_totals_are_exact() {
        let clock = Clock::mock();
        let t = Tracer::with_clock(clock.clone());
        t.enable();
        {
            let _outer = t.span("outer", "test");
            clock.advance(Duration::from_nanos(100));
            {
                let _a = t.span("a", "test");
                clock.advance(Duration::from_nanos(30));
            }
            {
                let _b = t.span("b", "test");
                clock.advance(Duration::from_nanos(50));
            }
            clock.advance(Duration::from_nanos(20));
        }
        let table = t.span_table();
        assert_eq!(table["outer"].total_ns, 200);
        assert_eq!(table["outer/a"].total_ns, 30);
        assert_eq!(table["outer/b"].total_ns, 50);
        assert!(table["outer"].total_ns >= table["outer/a"].total_ns + table["outer/b"].total_ns);
        // Under the mock, threads are always on-CPU.
        assert_eq!(table["outer/a"].cpu_ns, 30);
        assert_eq!(table["outer"].concurrent, 0);
        // The timeline reads the same clock.
        let trace = t.drain();
        let a = trace.events.iter().find(|e| e.name == "a").unwrap();
        assert_eq!((a.ts_ns, a.dur_ns), (100, 30));
    }

    #[test]
    fn task_spans_key_under_the_scheduling_span() {
        // Work run by a worker task lands on the same paths as work run
        // inline, so the table does not depend on the worker count.
        let t = Tracer::new();
        t.enable();
        let stage = t.span("stage", "test");
        drop(t.span("inline", "test"));
        let at = t.current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _task = t.task_under(&at, "task", "par");
                drop(t.span("inline", "test"));
            });
        });
        drop(stage);
        let table = t.span_table();
        let paths: Vec<&str> = table.keys().map(String::as_str).collect();
        assert_eq!(paths, vec!["stage", "stage/inline"]);
        assert_eq!(table["stage/inline"].count, 2);
        // Only the worker's copy ran inside the fan-out.
        assert_eq!(table["stage/inline"].concurrent, 1);
        assert_eq!(table["stage"].concurrent, 0);
        // The task itself is still a timeline event under `stage`.
        let trace = t.drain();
        let task = trace.events.iter().find(|e| e.name == "task").unwrap();
        assert_eq!(task.parent, at.id);
        let worker_inline = trace
            .events
            .iter()
            .find(|e| e.name == "inline" && e.parent == task.id)
            .unwrap();
        assert_ne!(worker_inline.tid, 0);
    }

    #[test]
    fn instants_attach_to_current_span() {
        let t = Tracer::new();
        t.enable();
        let g = t.span("parse", "test");
        let gid = g.id();
        t.instant(
            "quarantine",
            "ingest",
            vec![("source", ArgValue::Str("bgp".into()))],
        );
        drop(g);
        let trace = t.drain();
        let q = trace
            .events
            .iter()
            .find(|e| e.name == "quarantine")
            .unwrap();
        assert_eq!(q.parent, gid);
        assert_eq!(q.kind, EventKind::Instant);
        assert_eq!(q.dur_ns, 0);
    }

    #[test]
    fn chrome_json_shape() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 2_000, vec![]),
                ev(
                    2,
                    1,
                    "leaf \"q\"",
                    "parse",
                    500,
                    1_000,
                    vec![("items", ArgValue::U64(3)), ("f", ArgValue::F64(0.5))],
                ),
            ],
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"schema\":\"droplens-trace/1\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.5"), "{json}");
        assert!(json.contains("\"dur\":1"), "{json}");
        assert!(json.contains("\"name\":\"leaf \\\"q\\\"\""));
        assert!(json.contains("\"items\":3"));
        assert!(json.contains("\"f\":0.5"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"parent\":1"));
    }

    #[test]
    fn text_tree_is_deterministic_and_merges_siblings() {
        let mk = |order: [u64; 2]| Trace {
            events: vec![
                ev(1, 0, "study", "stage", 0, 4_000, vec![]),
                ev(
                    2,
                    1,
                    "task",
                    "par",
                    order[0],
                    1_000,
                    vec![("items", ArgValue::U64(5))],
                ),
                ev(
                    3,
                    1,
                    "task",
                    "par",
                    order[1],
                    1_000,
                    vec![("items", ArgValue::U64(7))],
                ),
                ev(
                    4,
                    1,
                    "annotate",
                    "stage",
                    100,
                    2_048,
                    vec![("source", ArgValue::Str("drop".into()))],
                ),
            ],
        };
        // Same events in either completion order render identically.
        let a = mk([10, 20]).to_text_tree();
        let b = mk([20, 10]).to_text_tree();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines[0], "#1 study [2.048µs..4.096µs)");
        // Children sorted by name: annotate before task.
        assert_eq!(lines[1], "  #2 annotate [2.048µs..4.096µs) source=drop");
        // Merged node: ×2 with summed duration (2µs), disagreeing
        // `items` arg omitted.
        assert_eq!(lines[2], "  #3 task ×2 [1.024µs..2.048µs) <par>");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn orphaned_events_become_roots() {
        let trace = Trace {
            events: vec![ev(5, 99, "lost", "stage", 0, 10, vec![])],
        };
        let tree = trace.to_text_tree();
        assert!(tree.starts_with("#1 lost"));
    }

    #[test]
    fn coverage_unions_overlapping_children() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 1_000, vec![]),
                // Two overlapping children on different workers.
                ev(2, 1, "a", "stage", 0, 600, vec![]),
                ev(3, 1, "b", "stage", 400, 500, vec![]),
            ],
        };
        let c = trace.coverage("root").unwrap();
        assert!((c - 0.9).abs() < 1e-9, "{c}");
        assert_eq!(trace.coverage("missing"), None);
    }

    #[test]
    fn duration_buckets() {
        assert_eq!(duration_bucket(0), "0");
        assert_eq!(duration_bucket(1), "1ns..2ns");
        assert_eq!(duration_bucket(1500), "1.024µs..2.048µs");
    }

    fn counter_ev(id: u64, tid: u64, ts: u64, live: i64) -> TraceEvent {
        TraceEvent {
            id,
            parent: 0,
            name: "live_bytes".to_owned(),
            cat: "mem",
            tid,
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Counter,
            args: vec![("live_bytes", ArgValue::I64(live))],
        }
    }

    #[test]
    fn counter_events_render_as_per_worker_chrome_tracks() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 2_000, vec![]),
                counter_ev(2, 0, 100, 4096),
                counter_ev(3, 1, 200, 8192),
            ],
        };
        let json = trace.to_chrome_json();
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"name\":\"live_bytes (main)\""), "{json}");
        assert!(
            json.contains("\"name\":\"live_bytes (worker-1)\""),
            "{json}"
        );
        assert!(json.contains("\"live_bytes\":4096"), "{json}");
        // Counter args must carry only series values — an `id` field
        // would render as a bogus extra counter series in Perfetto.
        let counter_start = json.find("\"ph\":\"C\"").unwrap();
        let counter_args = &json[counter_start..];
        let args_field = counter_args.find("\"args\":{").unwrap();
        let close = counter_args[args_field..].find('}').unwrap();
        let args_body = &counter_args[args_field..args_field + close];
        assert!(!args_body.contains("\"id\""), "{args_body}");
        assert!(!args_body.contains("\"parent\""), "{args_body}");
    }

    #[test]
    fn counter_events_stay_out_of_text_tree() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 2_000, vec![]),
                counter_ev(2, 0, 100, 4096),
            ],
        };
        let tree = trace.to_text_tree();
        assert!(!tree.contains("live_bytes"), "{tree}");
        assert_eq!(tree.lines().count(), 1);
    }

    #[test]
    fn text_tree_buckets_alloc_bytes() {
        let mem_args = |b: u64| {
            vec![
                ("alloc_bytes", ArgValue::U64(b)),
                ("freed_bytes", ArgValue::U64(b / 2)),
                ("peak_delta", ArgValue::U64(b / 4)),
            ]
        };
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 4_000, mem_args(100)),
                ev(2, 1, "task", "par", 0, 1_000, mem_args(600)),
                ev(3, 1, "task", "par", 10, 1_000, mem_args(600)),
            ],
        };
        let tree = trace.to_text_tree();
        // Merged siblings sum to 1200B → the [1.0KiB..2.0KiB) bucket;
        // the raw per-event byte values never appear.
        assert!(tree.contains("task ×2"), "{tree}");
        assert!(tree.contains("alloc[1.0KiB..2.0KiB)"), "{tree}");
        assert!(!tree.contains("alloc_bytes="), "{tree}");
        assert!(!tree.contains("freed_bytes="), "{tree}");
        assert!(!tree.contains("peak_delta="), "{tree}");
    }

    #[test]
    fn coverage_of_zero_duration_root_is_none() {
        let trace = Trace {
            events: vec![ev(1, 0, "root", "stage", 0, 0, vec![])],
        };
        assert_eq!(trace.coverage("root"), None);
        // Zero-span trace: nothing to cover at all.
        assert_eq!(Trace::default().coverage("root"), None);
    }
}
