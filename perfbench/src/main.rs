//! The droplens benchmark: one command, four workloads, a seed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-text|batch-binary|serve-connect|serve-keepalive \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics; `--trace 1` is
//! the separate traced run that times every layer on its own (the same
//! for every workload). Human-readable lines go to stdout first; the last
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md in this directory.

mod batch;
mod layers;
mod load;
mod peak;
mod pipeline;
mod selftest;
mod serve;
mod stats;

use pipeline::Format;
use serve::Transport;

#[global_allocator]
static ALLOC: peak::PeakAlloc = peak::PeakAlloc::new();

/// The workloads, by name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Batch(Format),
    Serve(Transport),
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("batch-text", Workload::Batch(Format::Text)),
    ("batch-binary", Workload::Batch(Format::Binary)),
    ("serve-connect", Workload::Serve(Transport::Connect)),
    ("serve-keepalive", Workload::Serve(Transport::KeepAlive)),
];

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 | --self-test\n\
         workloads: batch-text, batch-binary, serve-connect, serve-keepalive"
    );
    std::process::exit(2);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} wants a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| *n == value)
                        .copied()
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed wants a u64")),
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds wants a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let (name, workload) = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload,
        name,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace,
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--self-test") {
        std::process::exit(if selftest::run() { 0 } else { 1 });
    }
    let args = parse_args(argv);
    println!(
        "perfbench {} seed {} ({} s{}), {} cores, DROPLENS_THREADS {}",
        args.name,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        droplens_par::max_threads(),
    );
    let outcome = if args.trace {
        layers::run(args.seed)
    } else {
        match args.workload {
            Workload::Batch(format) => batch::run(format, args.seed, args.seconds),
            Workload::Serve(transport) => serve::run(transport, args.seed, args.seconds),
        }
    };
    for note in &outcome.notes {
        println!("FAILED: {note}");
    }
    println!("{}", outcome.to_json());
}
