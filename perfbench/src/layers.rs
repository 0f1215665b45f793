//! The traced run (`--trace 1`): every layer's public function called on
//! its own over the same inputs and timed from outside, first at one
//! thread and then at the default thread count. Each pass also measures
//! the end-to-end figures the layers add up to, so the report shows
//! coverage (layer sum against end-to-end), and the run ends with the
//! tracing overhead and the client/server reconciliation of the service.
//!
//! Per-layer metric values come from the one-thread pass, where the
//! layers run one after another and their times add up; `par.*` compares
//! the two passes. The run is the same for every workload.

use std::net::SocketAddr;
use std::sync::Arc;

use droplens_bgp::{format as bgpfmt, BgpArchive, Peer};
use droplens_core::{experiments, paper, Study};
use droplens_drop::{format as dropfmt, DropSnapshot, DropTimeline, SblDatabase};
use droplens_irr::{format as irrfmt, journal, IrrRegistry};
use droplens_net::{Date, IngestPolicy, ParseError, Quarantine};
use droplens_obs::Stopwatch;
use droplens_rir::format::{parse_stats_file_bin_with, parse_stats_file_with, StatsFile};
use droplens_rir::RirStatsArchive;
use droplens_rpki::format::{parse_events_bin_with, parse_events_with};
use droplens_rpki::RoaArchive;
use droplens_serve::net::DeadlineStream;
use droplens_serve::{Engine, Reply, Request, KIND_LABELS};
use droplens_synth::{BinaryArchives, TextArchives};

use crate::load::{self, Plan};
use crate::peak;
use crate::pipeline::{self, IngestInputs};
use crate::serve::{self, Transport, DEADLINE};
use crate::stats::{median, median_of, quantile, timed, Outcome};

/// Timed calls per layer; each layer reports their median.
const K: usize = 3;
/// In-process engine and codec calls timed per kind mix.
const ENGINE_QUERIES: usize = 8192;
/// Queries per client thread over connect-per-query sockets.
const CONNECT_QUERIES: usize = 500;
/// Queries per client thread over kept-alive sockets.
const KEEPALIVE_QUERIES: usize = 5000;
/// Queries per client thread through the bundled retrying `Client`.
const CLIENT_QUERIES: usize = 200;

const SOURCES: [&str; 5] = ["bgp", "irr", "rpki", "rir", "drop"];
const EXPERIMENTS: [&str; 16] = [
    "summary",
    "fig1",
    "fig2",
    "table1",
    "sec5",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "sec4",
    "sec6",
    "ext_maxlen",
    "ext_rov",
    "ext_profiles",
];

/// Named figures in report order.
#[derive(Default)]
struct Figures(Vec<(String, f64)>);

impl Figures {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    fn sum(&self, names: impl IntoIterator<Item = String>) -> f64 {
        names.into_iter().map(|n| self.get(&n)).sum()
    }
}

/// One pass over the batch layers at a fixed thread count. Seconds for
/// layers and end-to-end figures (`e2e.*`), exact counts for the rest.
struct Pass {
    threads: usize,
    figures: Figures,
    /// The text-ingested study, kept for the serve layers.
    study: Study,
}

fn quarantine() -> Quarantine {
    Quarantine::for_policy("perfbench", &IngestPolicy::Strict)
}

/// The median time of `f` over [`K`] calls and its last value, or the
/// parse error named after `what`.
fn layer<T>(what: &str, f: impl FnMut() -> Result<T, ParseError>) -> Result<(T, f64), String> {
    let (res, s) = median_of(K, f);
    res.map(|v| (v, s)).map_err(|e| format!("{what}: {e}"))
}

/// Bytes (MiB) and allocation calls `f` made, all threads.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let a = droplens_obs::alloc::snapshot();
    let v = f();
    let b = droplens_obs::alloc::snapshot();
    (
        v,
        b.alloc_bytes.saturating_sub(a.alloc_bytes) as f64 / peak::MIB,
        b.alloc_ops.saturating_sub(a.alloc_ops),
    )
}

/// Per-date RIR files parsed as `Study` loads them (fanned out over the
/// snapshots, flicker repair included).
fn rir_load<B: Sync>(
    snapshots: &[(Date, Vec<B>)],
    parse: impl Fn(&B, &mut Quarantine) -> Result<Option<StatsFile>, ParseError> + Sync,
) -> Result<Vec<(Date, Vec<StatsFile>)>, ParseError> {
    let per = droplens_par::par_map(snapshots, |(date, files)| {
        let mut kept = Vec::with_capacity(files.len());
        for f in files {
            kept.extend(parse(f, &mut quarantine())?);
        }
        Ok((*date, kept))
    });
    let mut out = per.into_iter().collect::<Result<Vec<_>, ParseError>>()?;
    let undamaged = vec![false; out.len()];
    droplens_rir::format::repair_flickers(&mut out, &undamaged);
    Ok(out)
}

/// Daily DROP files plus the SBL records, parsed as `Study` loads them.
fn drop_load<B: Sync, S: ?Sized>(
    snapshots: &[(Date, B)],
    sbl: &S,
    parse: impl Fn(Date, &B, &mut Quarantine) -> Result<DropSnapshot, ParseError> + Sync,
    parse_sbl: impl Fn(&S, &mut Quarantine) -> Result<SblDatabase, ParseError>,
) -> Result<(Vec<DropSnapshot>, SblDatabase), ParseError> {
    let per = droplens_par::par_map(snapshots, |(date, body)| {
        parse(*date, body, &mut quarantine())
    });
    let mut snaps = per.into_iter().collect::<Result<Vec<_>, ParseError>>()?;
    let undamaged = vec![false; snaps.len()];
    droplens_drop::repair_flickers(&mut snaps, &undamaged);
    Ok((snaps, parse_sbl(sbl, &mut quarantine())?))
}

/// Parse (text and binary) and index each source on its own.
fn sources(
    f: &mut Figures,
    text: &TextArchives,
    bin: &BinaryArchives,
    peers: &[Peer],
) -> Result<(), String> {
    let (updates, t) = layer("bgp text", || {
        bgpfmt::parse_updates_with(&text.bgp_updates, &mut quarantine())
    })?;
    f.put("bgp.parse_text_s", t);
    let (_, t) = layer("bgp binary", || {
        bgpfmt::parse_updates_bin_with(&bin.bgp_updates, &mut quarantine())
    })?;
    f.put("bgp.parse_bin_s", t);
    let (_, t) = median_of(K, || BgpArchive::from_updates(peers.to_vec(), &updates));
    f.put("bgp.index_s", t);
    f.put("bgp.records", updates.len() as f64);

    let (entries, t) = layer("irr text", || {
        journal::parse_journal_with(&text.irr_journal, &mut quarantine())
    })?;
    f.put("irr.parse_text_s", t);
    let (_, t) = layer("irr binary", || {
        irrfmt::parse_journal_bin_with(&bin.irr_journal, &mut quarantine())
    })?;
    f.put("irr.parse_bin_s", t);
    let (_, t) = median_of(K, || IrrRegistry::from_journal(&entries));
    f.put("irr.index_s", t);
    f.put("irr.records", entries.len() as f64);

    let (events, t) = layer("rpki text", || {
        parse_events_with(&text.roa_events, &mut quarantine())
    })?;
    f.put("rpki.parse_text_s", t);
    let (_, t) = layer("rpki binary", || {
        parse_events_bin_with(&bin.roa_events, &mut quarantine())
    })?;
    f.put("rpki.parse_bin_s", t);
    let (_, t) = median_of(K, || RoaArchive::from_events(&events));
    f.put("rpki.index_s", t);
    f.put("rpki.records", events.len() as f64);

    let (files, t) = layer("rir text", || {
        rir_load(&text.rir_snapshots, |s, q| parse_stats_file_with(s, q))
    })?;
    f.put("rir.parse_text_s", t);
    let (_, t) = layer("rir binary", || {
        rir_load(&bin.rir_snapshots, |b, q| parse_stats_file_bin_with(b, q))
    })?;
    f.put("rir.parse_bin_s", t);
    let (_, t) = layer("rir index", || {
        let mut archive = RirStatsArchive::new();
        for (date, day) in &files {
            archive.try_add_snapshot(*date, day)?;
        }
        Ok(archive)
    })?;
    f.put("rir.index_s", t);
    let rir_records: usize = files
        .iter()
        .flat_map(|(_, day)| day.iter().map(|s| s.records.len()))
        .sum();
    f.put("rir.records", rir_records as f64);

    let ((snaps, sbl), t) = layer("drop text", || {
        drop_load(
            &text.drop_snapshots,
            text.sbl_records.as_str(),
            |d, s, q| DropSnapshot::parse_with(d, s, q),
            SblDatabase::parse_with,
        )
    })?;
    f.put("drop.parse_text_s", t);
    let (_, t) = layer("drop binary", || {
        drop_load(
            &bin.drop_snapshots,
            bin.sbl_records.as_slice(),
            |d, b, q| dropfmt::parse_snapshot_bin_with(d, b, q),
            dropfmt::parse_sbl_bin_with,
        )
    })?;
    f.put("drop.parse_bin_s", t);
    let (_, t) = layer("drop index", || DropTimeline::try_from_snapshots(&snaps))?;
    f.put("drop.index_s", t);
    let listed: usize = snaps.iter().map(|s| s.entries.len()).sum();
    f.put("drop.records", (listed + sbl.len()) as f64);
    Ok(())
}

/// Each experiment and the scorecard on its own.
fn experiments(f: &mut Figures, study: &Study) {
    macro_rules! each {
        ($($name:ident),*) => {$(
            let (_, t) = median_of(K, || experiments::$name::compute(study));
            f.put(concat!("core.exp.", stringify!($name), "_s"), t);
        )*};
    }
    each!(
        summary,
        fig1,
        fig2,
        table1,
        sec5,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        table2,
        sec4,
        sec6,
        ext_maxlen,
        ext_rov,
        ext_profiles
    );
    let results = paper::ExperimentResults::compute(study);
    let (_, t) = median_of(K, || paper::scorecard_with(study, &results));
    f.put("core.scorecard_s", t);
}

/// Every batch layer, then the end-to-end figures they make up, at the
/// current `DROPLENS_THREADS`.
fn pass(seed: u64, threads: usize) -> Result<Pass, String> {
    let mut f = Figures::default();

    // Set-up, one layer at a time inside each repetition.
    let (mut gen, mut to_text, mut to_bin) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_text, mut setup_bin) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..K {
        drop(kept.take());
        let (world, g) = timed(|| pipeline::generate(seed));
        let (text, t) = timed(|| world.to_text_archives());
        let (bin, b) = timed(|| world.to_binary_archives());
        gen.push(g);
        to_text.push(t);
        to_bin.push(b);
        setup_text.push(g + t);
        setup_bin.push(g + b);
        kept = Some((world, text, bin));
    }
    let (world, text, bin) = kept.ok_or("no set-up ran")?;
    f.put("synth.generate_s", median(&gen));
    f.put("synth.to_text_s", median(&to_text));
    f.put("synth.to_binary_s", median(&to_bin));
    f.put("e2e.setup_text_s", median(&setup_text));
    f.put("e2e.setup_binary_s", median(&setup_bin));

    sources(&mut f, &text, &bin, &world.peers)?;
    let inputs = IngestInputs::of(&world);
    drop(world);
    let (study, t) = median_of(K, || pipeline::ingest_text(inputs.clone(), &text));
    let study = study?;
    f.put("e2e.ingest_text_s", t);
    let (res, t) = median_of(K, || pipeline::ingest_binary(inputs.clone(), &bin));
    drop(res?);
    f.put("e2e.ingest_binary_s", t);
    let parse_and_index = f.sum(
        SOURCES
            .iter()
            .flat_map(|s| [format!("{s}.parse_text_s"), format!("{s}.index_s")]),
    );
    f.put(
        "core.study_residual_s",
        f.get("e2e.ingest_text_s") - parse_and_index,
    );
    let (res, mib, ops) = allocations(|| pipeline::ingest_text(inputs.clone(), &text));
    drop(res?);
    f.put("obs.ingest_alloc_mib", mib);
    f.put("obs.ingest_alloc_ops", ops as f64);

    experiments(&mut f, &study);
    let (_, t) = median_of(K, || pipeline::analyze(&study));
    f.put("e2e.analysis_s", t);
    let (_, mib, ops) = allocations(|| pipeline::analyze(&study));
    f.put("obs.analysis_alloc_mib", mib);
    f.put("obs.analysis_alloc_ops", ops as f64);
    Ok(Pass {
        threads,
        figures: f,
        study,
    })
}

/// End-to-end ingest + analysis with droplens' own tracer off and on,
/// interleaved; the traced median over the untraced one, minus one.
fn tracing_overhead(seed: u64) -> Result<(f64, usize), String> {
    let world = pipeline::generate(seed);
    let text = world.to_text_archives();
    let inputs = IngestInputs::of(&world);
    drop(world);
    let tracer = droplens_obs::trace::global();
    let (mut plain, mut traced, mut events) = (Vec::new(), Vec::new(), 0);
    for _ in 0..K {
        for on in [false, true] {
            if on {
                tracer.enable();
            }
            let (res, s) = timed(|| {
                pipeline::ingest_text(inputs.clone(), &text).map(|s| pipeline::analyze(&s).1)
            });
            res?;
            if on {
                tracer.disable();
                events = tracer.drain().events.len();
                traced.push(s);
            } else {
                plain.push(s);
            }
        }
    }
    Ok((median(&traced) / median(&plain) - 1.0, events))
}

/// The server's own view from its Metrics document: per-phase p50 (ns)
/// in `droplens_serve::telemetry::PHASE_LABELS` order, queries answered
/// and connections shed over the process so far.
struct ServerView {
    phase_p50_ns: Vec<(String, f64)>,
    queries: u64,
    busy: u64,
}

fn server_view(served: &serve::Served) -> Result<ServerView, String> {
    let doc = droplens_obs::json::parse(&served.handle.metrics_json())
        .map_err(|e| format!("metrics document: {e:?}"))?;
    let phases = doc
        .get("phases")
        .map(|p| p.items().to_vec())
        .unwrap_or_default();
    let phase_p50_ns = phases
        .iter()
        .map(|p| {
            let name = p.get("phase").and_then(|v| v.as_str()).unwrap_or("?");
            let p50 = p
                .get("latency_ns")
                .and_then(|l| l.get("p50"))
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::NAN);
            (name.to_owned(), p50)
        })
        .collect();
    let total = |k: &str| {
        doc.get("totals")
            .and_then(|t| t.get(k))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    Ok(ServerView {
        phase_p50_ns,
        queries: total("queries"),
        busy: total("busy"),
    })
}

impl ServerView {
    fn phase_us(&self, name: &str) -> f64 {
        self.phase_p50_ns
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| v / 1e3)
    }
}

/// Client-side phase samples (ns) of a fixed-count run.
#[derive(Default)]
struct Phases {
    connect: Vec<u64>,
    send: Vec<u64>,
    wait: Vec<u64>,
    total: Vec<u64>,
    sent: u64,
    bad: u64,
    notes: Vec<String>,
}

/// Read one reply, refusing `Busy`, `Error` and a closed connection.
fn read_reply(conn: &mut DeadlineStream) -> Result<Reply, String> {
    match Reply::read_from(conn) {
        Ok(Some(Reply::Busy)) => Err("server busy".to_owned()),
        Ok(Some(Reply::Error { message })) => Err(format!("server error: {message}")),
        Ok(Some(r)) => Ok(r),
        Ok(None) => Err("connection closed before reply".to_owned()),
        Err(e) => Err(format!("reply: {e}")),
    }
}

/// `n` queries per plan, one client thread per plan, timing connect,
/// send and the wait for the reply separately. With `keepalive` each
/// thread connects once, before its first query, and reuses the socket.
fn phased(plans: &[Plan], n: usize, addr: SocketAddr, keepalive: bool) -> Phases {
    let parts: Vec<Phases> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(move || phased_thread(plan, n, addr, keepalive)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out = Phases::default();
    for p in parts {
        out.connect.extend(p.connect);
        out.send.extend(p.send);
        out.wait.extend(p.wait);
        out.total.extend(p.total);
        out.sent += p.sent;
        out.bad += p.bad;
        out.notes.extend(p.notes);
    }
    for v in [
        &mut out.connect,
        &mut out.send,
        &mut out.wait,
        &mut out.total,
    ] {
        v.sort_unstable();
    }
    out
}

fn phased_thread(plan: &Plan, n: usize, addr: SocketAddr, keepalive: bool) -> Phases {
    let mut out = Phases::default();
    let mut held: Option<DeadlineStream> = None;
    for i in 0..n {
        let k = i % plan.requests.len();
        let req = &plan.requests[k];
        out.sent += 1;
        let clock = Stopwatch::start();
        let conn = match held.take() {
            Some(c) => Ok(c),
            None => DeadlineStream::connect(addr, DEADLINE).map_err(|e| format!("connect: {e}")),
        };
        let t1 = clock.elapsed();
        let res = conn.and_then(|mut c| {
            let _ = c.set_nodelay(true);
            req.write_to(&mut c).map_err(|e| format!("send: {e}"))?;
            let t2 = clock.elapsed();
            let reply = read_reply(&mut c)?;
            Ok((c, t2, reply))
        });
        let t3 = clock.elapsed();
        match res {
            Ok((c, t2, reply)) => {
                if plan.expected[k].as_ref().is_some_and(|e| *e != reply) {
                    out.bad += 1;
                    out.notes.push(format!(
                        "reply to {} query differs from the oracle",
                        req.label()
                    ));
                    continue;
                }
                if !keepalive || i == 0 {
                    out.connect.push(t1.as_nanos() as u64);
                }
                out.send.push((t2 - t1).as_nanos() as u64);
                out.wait.push((t3 - t2).as_nanos() as u64);
                out.total.push(t3.as_nanos() as u64);
                if keepalive {
                    held = Some(c);
                }
            }
            Err(e) => {
                out.bad += 1;
                out.notes.push(e);
            }
        }
    }
    out
}

fn p50_us(sorted: &[u64]) -> f64 {
    quantile(sorted, 0.5) as f64 / 1e3
}

/// The service's layers: engine set-up, the engine per request kind, the
/// wire codec, and client phases reconciled with the server's own.
fn serve_layers(f: &mut Figures, out: &mut Outcome, seed: u64, study: Study) -> Result<(), String> {
    let study = Arc::new(study);
    let (engine, t) = median_of(K, || Engine::new(Arc::clone(&study)));
    f.put("serve.engine_new_s", t);
    let engine = Arc::new(engine);

    // The engine per kind and the codec, in-process on this thread.
    let mut per_kind = vec![Vec::new(); KIND_LABELS.len()];
    let (mut encode, mut decode, mut codec_ok) = (Vec::new(), Vec::new(), true);
    for req in load::requests(seed, 0, &study, ENGINE_QUERIES) {
        let (reply, t) = timed(|| engine.answer(&req));
        per_kind[req.kind_index()].push(t * 1e6);
        let (mut req_bytes, mut reply_bytes) = (Vec::new(), Vec::new());
        let (written, t) = timed(|| {
            req.write_to(&mut req_bytes)
                .and_then(|()| reply.write_to(&mut reply_bytes))
        });
        encode.push(t * 1e6);
        let (back, t) = timed(|| {
            (
                Request::read_from(&mut req_bytes.as_slice()),
                Reply::read_from(&mut reply_bytes.as_slice()),
            )
        });
        decode.push(t * 1e6);
        codec_ok &=
            written.is_ok() && matches!(back, (Ok(Some(r)), Ok(Some(p))) if r == req && p == reply);
    }
    out.check(codec_ok, || {
        "a request or reply changed over the codec".to_owned()
    });
    for (label, samples) in KIND_LABELS.iter().zip(&per_kind) {
        if !samples.is_empty() {
            f.put(format!("serve.engine.{label}_us"), median(samples));
        }
    }
    f.put("serve.protocol.encode_us", median(&encode));
    f.put("serve.protocol.decode_us", median(&decode));

    let plans = load::plans(seed, &engine, load::client_threads());
    let phase_sum =
        |v: &ServerView, names: &[&str]| names.iter().map(|n| v.phase_us(n)).sum::<f64>();
    let busy_before = droplens_obs::global().counter("serve.busy").value();

    // Connect per query: client phases next to the server's.
    let served = serve::start(Arc::clone(&engine))?;
    let before = server_view(&served)?;
    let c = phased(&plans, CONNECT_QUERIES, served.handle.addr(), false);
    let view = server_view(&served)?;
    served.handle.stop();
    out.count(c.sent, c.bad, &c.notes);
    f.put("serve.client.connect_us", p50_us(&c.connect));
    f.put("serve.client.send_us", p50_us(&c.send));
    f.put("serve.client.await_us", p50_us(&c.wait));
    f.put("serve.client.total_us", p50_us(&c.total));
    // The connect-per-query tail moves too much between runs to be an
    // end-to-end metric; it is kept here, over the fixed query count.
    f.put("serve.client.p99_us", quantile(&c.total, 0.99) as f64 / 1e3);
    for phase in ["queue_wait", "decode", "engine", "write"] {
        f.put(format!("serve.server.{phase}_us"), view.phase_us(phase));
    }
    f.put(
        "serve.server.queries",
        (view.queries - before.queries) as f64,
    );
    let server_all = phase_sum(&view, &["queue_wait", "decode", "engine", "write"]);
    f.put("serve.unaccounted_us", p50_us(&c.total) - server_all);

    // Kept-alive: one connection per thread, the request phases only.
    let served = serve::start(Arc::clone(&engine))?;
    let k = phased(&plans, KEEPALIVE_QUERIES, served.handle.addr(), true);
    let view = server_view(&served)?;
    served.handle.stop();
    out.count(k.sent, k.bad, &k.notes);
    f.put("serve.keepalive.send_us", p50_us(&k.send));
    f.put("serve.keepalive.await_us", p50_us(&k.wait));
    f.put("serve.keepalive.total_us", p50_us(&k.total));
    f.put(
        "serve.keepalive.p99_us",
        quantile(&k.total, 0.99) as f64 / 1e3,
    );
    for phase in ["decode", "engine", "write"] {
        f.put(
            format!("serve.keepalive.server_{phase}_us"),
            view.phase_us(phase),
        );
    }
    let request_phases = phase_sum(&view, &["decode", "engine", "write"]);
    f.put(
        "serve.keepalive.unaccounted_us",
        p50_us(&k.total) - request_phases,
    );

    // The bundled client's retries under the same mix.
    let served = serve::start(Arc::clone(&engine))?;
    let addr = served.handle.addr();
    let retries_before = serve::client_retries();
    let (mut sent, mut bad, mut notes) = (0, 0, Vec::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                s.spawn(move || {
                    let mut call = serve::caller(Transport::Connect, addr, seed, i);
                    let mut bad = Vec::new();
                    for k in 0..CLIENT_QUERIES {
                        let k = k % plan.requests.len();
                        match call(&plan.requests[k]) {
                            Ok(r) if plan.expected[k].as_ref().is_none_or(|e| *e == r) => {}
                            Ok(_) => bad.push("reply differs from the oracle".to_owned()),
                            Err(e) => bad.push(e),
                        }
                    }
                    bad
                })
            })
            .collect();
        for h in handles {
            let b = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            sent += CLIENT_QUERIES as u64;
            bad += b.len() as u64;
            notes.extend(b);
        }
    });
    let view = server_view(&served)?;
    served.handle.stop();
    out.count(sent, bad, &notes);
    f.put(
        "serve.client.retries",
        (serve::client_retries() - retries_before) as f64,
    );
    f.put("serve.server.shed", (view.busy - busy_before) as f64);
    Ok(())
}

fn set_threads(n: Option<&str>) {
    match n {
        Some(v) => std::env::set_var("DROPLENS_THREADS", v),
        None => std::env::remove_var("DROPLENS_THREADS"),
    }
}

pub fn run(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(&mut out, seed) {
        out.check(false, || e);
    }
    out
}

fn run_into(out: &mut Outcome, seed: u64) -> Result<(), String> {
    let configured = std::env::var("DROPLENS_THREADS").ok();
    set_threads(Some("1"));
    let one = pass(seed, 1);
    set_threads(configured.as_deref());
    let one = one?;
    let default = pass(seed, droplens_par::max_threads())?;
    out.check(true, String::new);
    out.check(true, String::new);

    print_layers(&one, &default);
    let mut f = one.figures;
    let d = &default.figures;
    f.put(
        "par.ingest_speedup",
        f.get("e2e.ingest_text_s") / d.get("e2e.ingest_text_s"),
    );
    f.put(
        "par.analysis_speedup",
        f.get("e2e.analysis_s") / d.get("e2e.analysis_s"),
    );
    println!(
        "par: ingest {:.2}x, analysis {:.2}x at {} threads against 1",
        f.get("par.ingest_speedup"),
        f.get("par.analysis_speedup"),
        default.threads
    );

    let (overhead, events) = tracing_overhead(seed)?;
    f.put("trace.overhead_pct", overhead * 100.0);
    println!(
        "tracing overhead: {:+.2}% on ingest + analysis with droplens' tracer on ({events} events per run)",
        overhead * 100.0
    );

    serve_layers(&mut f, out, seed, default.study)?;
    print_serve(&f);

    for (name, value) in f.0 {
        if name.starts_with("e2e.") {
            continue;
        }
        let unit = unit_of(&name);
        out.metric(name, value, unit);
    }
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_mib") {
        "MiB"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_speedup") {
        "ratio"
    } else {
        "count"
    }
}

/// The layer table at both thread counts, with coverage of each
/// end-to-end figure by the layers that make it up.
fn print_layers(one: &Pass, default: &Pass) {
    println!(
        "{:<28} {:>12} {:>12}",
        "layer",
        format!("{} thread", one.threads),
        format!("{} threads", default.threads)
    );
    for (name, v1) in &one.figures.0 {
        let vd = default.figures.get(name);
        if name.ends_with("_s") {
            println!("{name:<28} {v1:>12.4} {vd:>12.4}");
        } else {
            println!("{name:<28} {v1:>12.0} {vd:>12.0}");
        }
    }
    let each = |of: &[&str], pattern: &str| -> Vec<String> {
        of.iter().map(|n| pattern.replace('*', n)).collect()
    };
    let owned = |of: &[&str]| each(of, "*");
    let index = each(&SOURCES, "*.index_s");
    let mut analysis = each(&EXPERIMENTS, "core.exp.*_s");
    analysis.push("core.scorecard_s".to_owned());
    let rows = [
        (
            "setup_s (text)",
            "e2e.setup_text_s",
            owned(&["synth.generate_s", "synth.to_text_s"]),
        ),
        (
            "setup_s (binary)",
            "e2e.setup_binary_s",
            owned(&["synth.generate_s", "synth.to_binary_s"]),
        ),
        (
            "ingest_s (text)",
            "e2e.ingest_text_s",
            [each(&SOURCES, "*.parse_text_s"), index.clone()].concat(),
        ),
        (
            "ingest_s (binary)",
            "e2e.ingest_binary_s",
            [each(&SOURCES, "*.parse_bin_s"), index].concat(),
        ),
        ("analysis_s", "e2e.analysis_s", analysis),
    ];
    println!("coverage: sum of the layers run alone / end-to-end at the same thread count");
    for (label, e2e, parts) in rows {
        for p in [one, default] {
            let sum = p.figures.sum(parts.iter().cloned());
            let whole = p.figures.get(e2e);
            println!(
                "  {label:<18} {} thread(s): layers {sum:.4} s / end-to-end {whole:.4} s = {:.1}%",
                p.threads,
                100.0 * sum / whole
            );
        }
    }
}

fn print_serve(f: &Figures) {
    let g = |n: &str| f.get(n);
    println!("serve reconciliation, p50 per query in µs (client phases | server phases):");
    println!(
        "  connect per query: connect {:.1} + send {:.1} + await {:.1} (total {:.1}) | queue_wait {:.1} + decode {:.1} + engine {:.1} + write {:.1}; unaccounted {:.1}",
        g("serve.client.connect_us"),
        g("serve.client.send_us"),
        g("serve.client.await_us"),
        g("serve.client.total_us"),
        g("serve.server.queue_wait_us"),
        g("serve.server.decode_us"),
        g("serve.server.engine_us"),
        g("serve.server.write_us"),
        g("serve.unaccounted_us"),
    );
    println!(
        "  kept alive: send {:.1} + await {:.1} (total {:.1}) | decode {:.1} + engine {:.1} + write {:.1}; unaccounted {:.1}",
        g("serve.keepalive.send_us"),
        g("serve.keepalive.await_us"),
        g("serve.keepalive.total_us"),
        g("serve.keepalive.server_decode_us"),
        g("serve.keepalive.server_engine_us"),
        g("serve.keepalive.server_write_us"),
        g("serve.keepalive.unaccounted_us"),
    );
    println!(
        "  coverage of the connect-per-query p50 by the client phases: {:.1}%",
        100.0
            * (g("serve.client.connect_us")
                + g("serve.client.send_us")
                + g("serve.client.await_us"))
            / g("serve.client.total_us")
    );
}
