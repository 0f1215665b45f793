//! `batch-text` and `batch-binary`: the paper's pipeline over archives of
//! one format, repeated in one process, then the mix of queries answered
//! in-process by an `Engine` over the ingested study.

use std::sync::Arc;

use droplens_serve::Engine;

use crate::load::{self, Call};
use crate::peak;
use crate::pipeline::{self, world_seed, Format, IngestInputs, OutputCheck, WORLDS};
use crate::stats::{timed, Outcome};

/// Rounds of repetitions per `ROUND_SECONDS` of `--seconds` (at least
/// one); a round is one set-up, ingest and analysis of each world,
/// about 8 s at paper scale on a 2-core host.
const ROUND_SECONDS: f64 = 8.0;
/// Share of `--seconds` given to the in-process query loop, measured in
/// sub-windows of about a second.
const QUERY_SHARE: f64 = 0.3;
/// Consecutive in-process answers per latency sample.
const IN_PROCESS_BLOCK: usize = 16;

pub fn run(format: Format, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(&mut out, format, seed, seconds) {
        out.check(false, || e);
    }
    out
}

fn run_into(out: &mut Outcome, format: Format, seed: u64, seconds: f64) -> Result<(), String> {
    let mut checks = (0..WORLDS)
        .map(|j| OutputCheck::for_seed(world_seed(seed, j)))
        .collect::<Result<Vec<_>, _>>()?;
    let rounds = ((seconds / ROUND_SECONDS).floor() as usize).max(1);
    peak::take_peak_mib();

    // Each repetition: set-up (world generation and serialization), then
    // ingest, then analysis, each timed; the output is checked outside
    // the timed regions. Repetitions rotate over the run's worlds.
    let (mut setup_s, mut ingest_s, mut analysis_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let mut kept = None;
    for rep in 0..rounds * WORLDS {
        drop(kept.take()); // free the previous study before the next world
        let j = rep % WORLDS;
        let ((world, archives), s) = timed(|| {
            let world = pipeline::generate(world_seed(seed, j));
            let archives = pipeline::serialize(&world, format);
            (world, archives)
        });
        setup_s.push(s);
        let inputs = IngestInputs::of(&world);
        drop(world);
        let (res, s) = timed(|| pipeline::ingest(inputs, &archives));
        let study = res?;
        ingest_s.push(s);
        drop(archives);
        let ((results, targets), a) = timed(|| pipeline::analyze(&study));
        analysis_s.push(a);
        let problems = checks[j].problems(
            pipeline::render(world_seed(seed, j), &results, &targets),
            &targets,
        );
        out.check(problems.is_empty(), || problems.join("; "));
        kept = Some((j, study));
        peaks.push(peak::take_peak_mib());
    }
    let (j, study) = kept.ok_or("no repetition ran")?;

    // Not timed: the other format must give the identical report, and
    // its engine is the oracle for the query loop.
    let other = match format {
        Format::Text => Format::Binary,
        Format::Binary => Format::Text,
    };
    let world = pipeline::generate(world_seed(seed, j));
    let other_archives = pipeline::serialize(&world, other);
    let other_study = pipeline::ingest(IngestInputs::of(&world), &other_archives)?;
    drop((world, other_archives));
    let (results, targets) = pipeline::analyze(&other_study);
    let rendered = pipeline::render(world_seed(seed, j), &results, &targets);
    let first = checks[j].first.as_deref().unwrap_or_default();
    let differing = pipeline::differing_sections(&rendered, first);
    out.check(differing.is_empty(), || {
        format!(
            "{other:?} ingest renders differently: {}",
            differing.join(", ")
        )
    });
    let threads = load::client_threads();
    let plans = {
        let oracle = Engine::new(Arc::new(other_study));
        load::plans(seed, &oracle, threads)
    };
    let engine = Engine::new(Arc::new(study));

    // The query mix, answered in-process.
    let caller = |_: usize| -> Call<'_> { Box::new(|req| Ok(engine.answer(req))) };
    let query_s = seconds * QUERY_SHARE;
    let windows = query_s.round().max(1.0) as usize;
    let res = load::closed_loop(&plans, query_s, windows, IN_PROCESS_BLOCK, &caller);

    out.median_metric("setup_s", &setup_s, "s", "generate + serialize");
    out.median_metric("ingest_s", &ingest_s, "s", "archives to Study");
    out.median_metric("analysis_s", &analysis_s, "s", "experiments + scorecard");
    out.median_metric(
        "peak_live_mib",
        &peaks,
        "MiB",
        "live-byte high-water per repetition",
    );
    res.report(
        out,
        &format!("in-process, timed in blocks of {IN_PROCESS_BLOCK}"),
    );
    Ok(())
}
