//! `serve-connect` and `serve-keepalive`: the query service under a
//! closed loop of client threads, over one connection per query (the
//! bundled retrying `Client`) or one held connection per thread.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use droplens_serve::net::DeadlineStream;
use droplens_serve::{
    Client, ClientConfig, Engine, Reply, Request, RetryPolicy, Server, ServerConfig, ServerHandle,
};

use crate::load::{self, Call};
use crate::peak;
use crate::pipeline::{self, world_seed, Format, IngestInputs, WORLDS};
use crate::stats::{timed, Outcome};

/// How a client thread reaches the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// The bundled `Client`: a fresh connection per query, retries.
    Connect,
    /// One connection per thread, frames back to back.
    KeepAlive,
}

/// Connect, read and write deadline of every client socket.
pub const DEADLINE: Duration = Duration::from_secs(2);

/// A running server and the engine it serves.
pub struct Served {
    pub engine: Arc<Engine>,
    pub handle: ServerHandle,
}

/// Timings of one set-up.
struct SetupTimes {
    total: f64,
    ingest: f64,
    analysis: f64,
}

/// World → text archives → `Study` → `Engine` → `Server::start`, as
/// `droplens serve` does it over canonical archives.
fn set_up(seed: u64) -> Result<(Served, SetupTimes), String> {
    let (res, total) = timed(|| {
        let world = pipeline::generate(seed);
        let text = pipeline::serialize(&world, Format::Text);
        let inputs = IngestInputs::of(&world);
        let (study, ingest) = timed(|| pipeline::ingest(inputs, &text));
        drop((world, text));
        let study = Arc::new(study?);
        let (engine, analysis) = timed(|| Arc::new(Engine::new(study)));
        let served = start(engine)?;
        Ok::<_, String>((served, ingest, analysis))
    });
    let (served, ingest, analysis) = res?;
    Ok((
        served,
        SetupTimes {
            total,
            ingest,
            analysis,
        },
    ))
}

/// A server over `engine` with `droplens serve`'s defaults.
pub fn start(engine: Arc<Engine>) -> Result<Served, String> {
    let handle = Server::start(Arc::clone(&engine), ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    Ok(Served { engine, handle })
}

/// Thread `thread`'s caller over `transport`.
pub fn caller(transport: Transport, addr: SocketAddr, seed: u64, thread: usize) -> Call<'static> {
    match transport {
        Transport::Connect => {
            // Jitter seeds derive per thread, as in the bundled load
            // generator.
            let derived =
                seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(thread as u64 + 1));
            let mut client = Client::new(ClientConfig {
                addr,
                deadline: DEADLINE,
                retry: RetryPolicy {
                    seed: derived ^ 0x00c1_1e47,
                    ..RetryPolicy::default()
                },
            });
            Box::new(move |req| client.query(req).map_err(|e| e.to_string()))
        }
        Transport::KeepAlive => {
            let mut conn: Option<DeadlineStream> = None;
            Box::new(move |req| {
                let res = keepalive_round_trip(&mut conn, addr, req);
                if res.is_err() {
                    conn = None; // the next query reconnects
                }
                res
            })
        }
    }
}

/// One request and reply over the held connection, opening it first if
/// there is none.
fn keepalive_round_trip(
    conn: &mut Option<DeadlineStream>,
    addr: SocketAddr,
    req: &Request,
) -> Result<Reply, String> {
    if conn.is_none() {
        let c = DeadlineStream::connect(addr, DEADLINE).map_err(|e| format!("connect: {e}"))?;
        let _ = c.set_nodelay(true);
        *conn = Some(c);
    }
    let c = conn.as_mut().ok_or("no connection")?;
    req.write_to(c).map_err(|e| format!("send: {e}"))?;
    match Reply::read_from(c) {
        Ok(Some(Reply::Busy)) => Err("server busy".to_owned()),
        Ok(Some(Reply::Error { message })) => Err(format!("server error: {message}")),
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err("connection closed before reply".to_owned()),
        Err(e) => Err(format!("reply: {e}")),
    }
}

/// Retries the bundled clients have made in this process.
pub fn client_retries() -> u64 {
    droplens_obs::global().counter("client.retries").value()
}

pub fn run(transport: Transport, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(&mut out, transport, seed, seconds) {
        out.check(false, || e);
    }
    out
}

fn run_into(
    out: &mut Outcome,
    transport: Transport,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let (mut setup_s, mut ingest_s, mut analysis_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let mut total = load::LoadResult::default();
    let mut retries = 0;
    let mut server_log = Vec::new();
    // Each world in turn: set up, then serve it for an equal share of
    // the run under the closed loop.
    let slice = seconds / WORLDS as f64;
    for j in 0..WORLDS {
        peak::take_peak_mib();
        let (served, t) = set_up(world_seed(seed, j))?;
        setup_s.push(t.total);
        ingest_s.push(t.ingest);
        analysis_s.push(t.analysis);
        // The oracle's replies, computed before the clock starts.
        let plans = load::plans(seed, &served.engine, load::client_threads());
        let addr = served.handle.addr();
        let retries_before = client_retries();
        let connect = |i: usize| caller(transport, addr, seed, i);
        let res = load::closed_loop(&plans, slice, slice.round().max(1.0) as usize, 1, &connect);
        retries += client_retries() - retries_before;
        let report = served.handle.stop();
        out.check(report.ledger.malformed == 0 && report.busy == 0, || {
            format!(
                "server ledger: {} malformed, {} shed busy",
                report.ledger.malformed, report.busy
            )
        });
        server_log.push(report.summary());
        total.merge(res, true);
        peaks.push(peak::take_peak_mib());
    }

    out.median_metric("setup_s", &setup_s, "s", "world to running server");
    out.median_metric("ingest_s", &ingest_s, "s", "Study::from_text in set-up");
    out.median_metric("analysis_s", &analysis_s, "s", "Engine::new in set-up");
    out.median_metric(
        "peak_live_mib",
        &peaks,
        "MiB",
        "live-byte high-water per world",
    );
    let how = match transport {
        Transport::Connect => "connect per query",
        Transport::KeepAlive => "kept-alive connections",
    };
    total.report(out, how);
    println!("client retries {retries}");
    for line in server_log {
        println!("server: {line}");
    }
    Ok(())
}
