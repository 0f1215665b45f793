//! `--self-test`: the benchmark's own checks must count what they exist
//! to catch. A wrong reference report, a scorecard short of its target,
//! a reply that differs from the oracle and a corrupted reply frame must
//! each count as failures, through the same code the workloads use,
//! while the correct versions count none. Runs on the small world in a
//! few seconds.

use std::sync::Arc;

use droplens_serve::{Engine, Reply};
use droplens_synth::{World, WorldConfig};

use crate::load::{self, Call, Plan};
use crate::pipeline::{self, IngestInputs, OutputCheck};
use crate::serve::{self, Transport};
use crate::stats::Outcome;

const SEED: u64 = 7;

/// Run every case; true when each behaved as it must.
pub fn run() -> bool {
    match cases() {
        Ok(all) => {
            let mut pass = true;
            for (name, want_failures, got) in all {
                let ok = (got > 0) == want_failures;
                pass &= ok;
                println!(
                    "{} {name}: {got} failure(s) counted, expected {}",
                    if ok { "PASS" } else { "FAIL" },
                    if want_failures { "some" } else { "none" }
                );
            }
            pass
        }
        Err(e) => {
            println!("FAIL self-test could not run: {e}");
            false
        }
    }
}

/// Failures counted by a batch output check.
fn output_failures(
    mut check: OutputCheck,
    rendered: &str,
    targets: &[droplens_core::paper::Target],
) -> u64 {
    let mut out = Outcome::default();
    let problems = check.problems(rendered.to_owned(), targets);
    out.check(problems.is_empty(), || problems.join("; "));
    out.failed
}

/// Failures counted over a short closed loop.
fn load_failures(plans: &[Plan], connect: &(dyn Fn(usize) -> Call<'static> + Sync)) -> u64 {
    let res = load::closed_loop(plans, 0.3, 1, 1, connect);
    let mut out = Outcome::default();
    out.count(res.sent, res.failed + res.mismatched, &res.notes);
    if res.sent == 0 {
        out.fail("no query completed".to_owned());
    }
    out.failed
}

fn cases() -> Result<Vec<(&'static str, bool, u64)>, String> {
    let world = World::generate(SEED, &WorldConfig::small());
    let text = world.to_text_archives();
    let study = pipeline::ingest_text(IngestInputs::of(&world), &text)?;
    let (results, targets) = pipeline::analyze(&study);
    let rendered = pipeline::render(SEED, &results, &targets);
    let passing: Vec<_> = targets.iter().filter(|t| t.in_band()).cloned().collect();
    let mut cases = Vec::new();

    let reference = |r: String| OutputCheck {
        reference: Some(r),
        ..OutputCheck::default()
    };
    cases.push((
        "matching reference",
        false,
        output_failures(reference(rendered.clone()), &rendered, &targets),
    ));
    // One digit changed in the Figure 1 section.
    let fig1 = rendered.find("Figure 1").ok_or("no Figure 1 section")?;
    let digit = fig1
        + rendered[fig1..]
            .find(|c: char| c.is_ascii_digit() && c != '1')
            .ok_or("no digit")?;
    let mut wrong = rendered.clone();
    wrong.replace_range(digit..digit + 1, "1");
    cases.push((
        "wrong reference",
        true,
        output_failures(reference(wrong), &rendered, &targets),
    ));
    let band = |n: usize| OutputCheck {
        in_band: Some(n),
        ..OutputCheck::default()
    };
    cases.push((
        "scorecard all in band",
        false,
        output_failures(band(passing.len()), &rendered, &passing),
    ));
    cases.push((
        "scorecard short of its count",
        true,
        output_failures(band(passing.len() + 1), &rendered, &passing),
    ));

    let engine = Arc::new(Engine::new(Arc::new(study)));
    let plans = load::plans(SEED, &engine, 1);
    let served = serve::start(Arc::clone(&engine))?;
    let addr = served.handle.addr();
    let keepalive = |i: usize| serve::caller(Transport::KeepAlive, addr, SEED, i);
    cases.push(("served replies", false, load_failures(&plans, &keepalive)));
    let mut tampered = load::plans(SEED, &engine, 1);
    for expected in tampered[0].expected.iter_mut().flatten().take(1) {
        *expected = match expected {
            Reply::Pong => Reply::Busy,
            _ => Reply::Pong,
        };
    }
    cases.push((
        "reply differing from the oracle",
        true,
        load_failures(&tampered, &keepalive),
    ));
    served.handle.stop();

    // Every reply frame arrives with one bit flipped.
    let corrupt = |_: usize| -> Call<'static> {
        let engine = Arc::clone(&engine);
        Box::new(move |req| {
            let mut frame = engine.answer(req).to_frame();
            if let Some(last) = frame.last_mut() {
                *last ^= 1;
            }
            match Reply::read_from(&mut frame.as_slice()) {
                Ok(Some(reply)) => Ok(reply),
                Ok(None) => Err("empty frame".to_owned()),
                Err(e) => Err(format!("reply: {e}")),
            }
        })
    };
    cases.push((
        "corrupted reply frame",
        true,
        load_failures(&plans, &corrupt),
    ));
    Ok(cases)
}
