//! The query mix and the closed loop of client threads shared by every
//! workload that answers queries.
//!
//! The mix is `droplens serve --load-gen`'s: the same request kinds in
//! the same proportions over the study's own listed prefixes and window.
//! Each client thread gets a fixed plan of requests, and the oracle's
//! reply to each is computed before the timed window starts, so the
//! oracle never competes with the load for the cores.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use droplens_obs::Stopwatch;

use droplens_core::Study;
use droplens_serve::{Engine, Reply, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, quantile, Outcome};

/// Client threads: at most the host's cores, and at most two.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Requests per thread plan; the plan repeats when a run outlasts it.
pub const PLAN_LEN: usize = 4096;

/// One thread's requests and the oracle's reply to each (`None` for
/// `Stats`, whose reply carries the server's live counters).
pub struct Plan {
    pub requests: Vec<Request>,
    pub expected: Vec<Option<Reply>>,
}

/// A request drawn exactly as the bundled load generator draws one.
pub fn draw(rng: &mut StdRng, study: &Study) -> Request {
    let entries = &study.entries;
    if entries.is_empty() {
        return Request::Ping;
    }
    let prefix = entries[rng.gen_range(0..entries.len())].prefix();
    let window = study.config.window;
    let date = window.start() + rng.gen_range(0..window.len().max(1)) as i32;
    match rng.gen_range(0..12u32) {
        0 => Request::Ping,
        1..=3 => Request::Visibility { prefix, date },
        4..=6 => Request::Rov {
            prefix,
            origin: droplens_net::Asn(rng.gen_range(1..65_000)),
            date,
            all_tals: rng.gen_range(0..4u8) == 0,
        },
        7..=8 => Request::DropListed { prefix, date },
        9..=10 => Request::DropHistory { prefix },
        _ => {
            if rng.gen_range(0..4u8) == 0 {
                Request::Stats
            } else {
                Request::Scorecard {
                    source: if rng.gen_range(0..2u8) == 0 {
                        None
                    } else {
                        Some("Table".to_owned())
                    },
                }
            }
        }
    }
}

/// Thread `thread`'s seeded request stream (seeds derive as in the
/// bundled load generator: a golden-ratio stride per thread).
pub fn requests(seed: u64, thread: usize, study: &Study, n: usize) -> Vec<Request> {
    let derived = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(thread as u64 + 1));
    let mut rng = StdRng::seed_from_u64(derived);
    (0..n).map(|_| draw(&mut rng, study)).collect()
}

/// One plan per client thread, with the oracle's replies.
pub fn plans(seed: u64, oracle: &Engine, threads: usize) -> Vec<Plan> {
    (0..threads)
        .map(|t| {
            let requests = requests(seed, t, oracle.study(), PLAN_LEN);
            let expected = requests
                .iter()
                .map(|r| match r {
                    Request::Stats | Request::Metrics => None,
                    r => Some(oracle.answer(r)),
                })
                .collect();
            Plan { requests, expected }
        })
        .collect()
}

/// What a closed-loop run saw, merged over threads.
#[derive(Default)]
pub struct LoadResult {
    /// Per-query latency of every verified reply (or block of replies),
    /// nanoseconds; sorted once merged.
    pub samples_ns: Vec<u64>,
    /// Verified replies completed in each sub-window.
    pub window_counts: Vec<u64>,
    pub window_s: f64,
    /// Queries sent (each to completion, retries not counted).
    pub sent: u64,
    /// Queries with no good reply (retry budget spent, transport error,
    /// refused).
    pub failed: u64,
    /// Good replies that differ from the oracle.
    pub mismatched: u64,
    pub notes: Vec<String>,
}

impl LoadResult {
    /// Median over sub-windows of verified replies per second.
    pub fn qps(&self) -> f64 {
        let per_window: Vec<f64> = self
            .window_counts
            .iter()
            .map(|&c| c as f64 / self.window_s)
            .collect();
        median(&per_window)
    }

    /// Add `other`'s tallies and samples; its sub-windows either follow
    /// this run's (`sequential`) or overlap them, window by window.
    pub fn merge(&mut self, other: LoadResult, sequential: bool) {
        if self.window_s == 0.0 {
            self.window_s = other.window_s;
        }
        self.samples_ns.extend(other.samples_ns);
        if sequential || self.window_counts.is_empty() {
            self.window_counts.extend(other.window_counts);
        } else {
            for (t, c) in self.window_counts.iter_mut().zip(other.window_counts) {
                *t += c;
            }
        }
        self.sent += other.sent;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
        self.samples_ns.sort_unstable();
    }

    /// Exact latency quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.samples_ns, q) as f64 / 1e6
    }

    /// Count the run's operations and failures into `out`, and report
    /// its throughput and exact latency quantiles with the sample counts
    /// behind them. Only the median is a metric: connect-per-query
    /// latency is bimodal (replies wait for one or two of the acceptor's
    /// 2 ms poll sleeps), so its p90 and p99 jump between the modes from
    /// run to run on a shared host.
    pub fn report(&self, out: &mut Outcome, how: &str) {
        let errors = self.failed + self.mismatched;
        out.count(self.sent, errors, &self.notes);
        let n = self.samples_ns.len();
        let above = |q: f64| n - (n as f64 * q).ceil() as usize;
        let (qps, p50) = (self.qps(), self.quantile_ms(0.50));
        println!(
            "{:<14} {qps:>12.1} 1/s   {how}, median of {} windows of {:.2} s",
            "qps",
            self.window_counts.len(),
            self.window_s
        );
        println!("{:<14} {p50:>12.4} ms    exact, {n} samples", "p50_ms");
        for q in [0.9, 0.95, 0.99, 0.999] {
            println!(
                "{:<14} {:>12.4} ms    exact, {} above it (not an end-to-end metric)",
                format!("p{}", q * 100.0),
                self.quantile_ms(q),
                above(q)
            );
        }
        println!(
            "{:<14} {:>12.6} ratio {errors} failed or mismatched of {} sent",
            "error_rate",
            errors as f64 / self.sent.max(1) as f64,
            self.sent
        );
        out.metric("qps", qps, "1/s");
        out.metric("p50_ms", p50, "ms");
    }
}

/// Answers one request: a socket round trip or an in-process call.
pub type Call<'a> = Box<dyn FnMut(&Request) -> Result<Reply, String> + 'a>;

/// A closed loop: one thread per plan, each sending its next request
/// only after the previous reply, for `seconds`, split into `windows`
/// equal sub-windows for throughput. `connect(i)` builds thread `i`'s
/// caller before the clock starts. Each latency sample is the mean over
/// `block` consecutive requests: 1 for socket round trips, more for
/// in-process answers, most of which take under a microsecond, too
/// close to the cost of reading the clock to time one by one.
pub fn closed_loop<'c>(
    plans: &[Plan],
    seconds: f64,
    windows: usize,
    block: usize,
    connect: &(dyn Fn(usize) -> Call<'c> + Sync),
) -> LoadResult {
    let block = block.max(1);
    let windows = windows.max(1);
    let window = Duration::from_secs_f64(seconds / windows as f64);
    let barrier = Arc::new(Barrier::new(plans.len()));
    let parts: Vec<LoadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut call = connect(i);
                    barrier.wait();
                    drive(plan, &mut call, window, windows, block)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut out = LoadResult::default();
    for p in parts {
        out.merge(p, false);
    }
    out
}

fn drive(
    plan: &Plan,
    call: &mut Call<'_>,
    window: Duration,
    windows: usize,
    block: usize,
) -> LoadResult {
    let mut out = LoadResult {
        samples_ns: Vec::with_capacity(1 << 16),
        window_counts: vec![0; windows],
        window_s: window.as_secs_f64(),
        ..LoadResult::default()
    };
    let clock = Stopwatch::start();
    let end = window * windows as u32;
    let n = plan.requests.len();
    let mut got = Vec::with_capacity(block);
    let mut i = 0;
    loop {
        let t0 = clock.elapsed();
        if t0 >= end {
            break;
        }
        got.extend((i..i + block).map(|k| call(&plan.requests[k % n])));
        let t1 = clock.elapsed();
        // Verified after the sample's clock stopped, against replies the
        // oracle computed before the run.
        let mut verified = 0u64;
        for (k, res) in (i..).zip(got.drain(..)) {
            out.sent += 1;
            let note = match res {
                Ok(reply) if plan.expected[k % n].as_ref().is_some_and(|e| *e != reply) => {
                    out.mismatched += 1;
                    format!(
                        "reply to {} query differs from the oracle",
                        plan.requests[k % n].label()
                    )
                }
                Ok(_) => {
                    verified += 1;
                    continue;
                }
                Err(e) => {
                    out.failed += 1;
                    e
                }
            };
            if out.notes.len() < 8 {
                out.notes.push(note);
            }
        }
        i += block;
        // A block with a failed or mismatched reply gives no sample.
        if verified == block as u64 {
            out.samples_ns
                .push((t1 - t0).as_nanos() as u64 / block as u64);
        }
        let w = (t1.as_nanos() / window.as_nanos().max(1)) as usize;
        if let Some(c) = out.window_counts.get_mut(w) {
            *c += verified;
        }
    }
    out
}
