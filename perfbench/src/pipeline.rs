//! The batch pipeline as the benchmark drives it: world → archives →
//! `Study` → experiments + scorecard, and the rendering the outputs are
//! checked on.

use std::fmt::{Display, Write as _};
use std::path::PathBuf;

use droplens_core::paper::{self, ExperimentResults, Target};
use droplens_core::{Study, StudyConfig};
use droplens_net::DateRange;
use droplens_synth::{BinaryArchives, TextArchives, World, WorldConfig};

/// The archive format a batch run ingests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Format {
    Text,
    Binary,
}

/// Serialized archives of one format.
pub enum Archives {
    Text(TextArchives),
    Binary(BinaryArchives),
}

/// Worlds per run. Paper-scale worlds of different seeds differ in size
/// (RIR and DROP record counts by about ±5%, ingest time and peak memory
/// by more), so a run spreads its repetitions over several worlds
/// derived from its seed instead of resting on one draw.
pub const WORLDS: usize = 3;

/// The seed of world `j` of a run with seed `seed`; world 0 is `seed`
/// itself.
pub fn world_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add(0x0001_0000_0000 * j as u64)
}

/// The paper-scale world of `seed`.
pub fn generate(seed: u64) -> World {
    World::generate(seed, &WorldConfig::paper())
}

/// `world` serialized as `format`.
pub fn serialize(world: &World, format: Format) -> Archives {
    match format {
        Format::Text => Archives::Text(world.to_text_archives()),
        Format::Binary => Archives::Binary(world.to_binary_archives()),
    }
}

/// The study configuration `reproduce` uses: the world's window, its
/// manual labels, strict ingest.
pub fn study_config(world: &World) -> StudyConfig {
    let mut config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    config.manual_labels = world.manual_labels();
    config
}

/// What ingest needs besides the archives, cloned per call so that the
/// clone stays outside the timed region.
#[derive(Clone)]
pub struct IngestInputs {
    pub config: StudyConfig,
    pub peers: Vec<droplens_bgp::Peer>,
}

impl IngestInputs {
    pub fn of(world: &World) -> IngestInputs {
        IngestInputs {
            config: study_config(world),
            peers: world.peers.clone(),
        }
    }
}

/// Archives in memory → indexed `Study`.
pub fn ingest(inputs: IngestInputs, archives: &Archives) -> Result<Study, String> {
    match archives {
        Archives::Text(t) => ingest_text(inputs, t),
        Archives::Binary(b) => ingest_binary(inputs, b),
    }
}

pub fn ingest_text(inputs: IngestInputs, text: &TextArchives) -> Result<Study, String> {
    Study::from_text(inputs.config, inputs.peers, text).map_err(|e| format!("text ingest: {e}"))
}

pub fn ingest_binary(inputs: IngestInputs, bin: &BinaryArchives) -> Result<Study, String> {
    Study::from_binary(inputs.config, inputs.peers, bin).map_err(|e| format!("binary ingest: {e}"))
}

/// All sixteen experiments plus the scorecard.
pub fn analyze(study: &Study) -> (ExperimentResults, Vec<Target>) {
    let results = ExperimentResults::compute(study);
    let targets = paper::scorecard_with(study, &results);
    (results, targets)
}

const RULE: &str = "──────────────────────────────────────────────────────────";

fn section(out: &mut String, title: &str, body: &dyn Display) {
    let _ = write!(out, "{RULE}\n{title}\n{RULE}\n{body}\n");
}

/// The analysis rendered exactly as `reproduce <seed>` prints it.
pub fn render(seed: u64, r: &ExperimentResults, targets: &[Target]) -> String {
    let mut out = format!("=== droplens reproduction (seed {seed}) ===\n\n");
    let sections: [(&str, &dyn Display); 16] = [
        ("Study overview", &r.summary),
        ("Figure 1 — classification of DROP entries", &r.fig1),
        ("Figure 2 — effects of blocklisting on visibility", &r.fig2),
        ("Table 1 — RPKI signing rates", &r.table1),
        ("Section 5 — effectiveness of the IRR", &r.sec5),
        ("Figure 3 — forged-IRR lead times", &r.fig3),
        ("Figure 4 / Section 6.1 — RPKI-signed hijacks", &r.fig4),
        ("Figure 5 — routing status of ROAs", &r.fig5),
        (
            "Figure 6 — unallocated space on DROP vs AS0 policies",
            &r.fig6,
        ),
        ("Figure 7 — RIR free pools", &r.fig7),
        ("Table 2 / Appendix A — SBL categorization", &r.table2),
        ("Section 4.1 — deallocation after listing", &r.sec4),
        ("Section 6.2 — AS0 at operator and RIR level", &r.sec6),
        (
            "Extension — maxLength sub-prefix hijack surface",
            &r.ext_maxlen,
        ),
        ("Extension — counterfactual ROV deployment", &r.ext_rov),
        ("Extension — attacker-AS dossiers", &r.ext_profiles),
    ];
    for (title, body) in sections {
        section(&mut out, title, body);
    }
    section(
        &mut out,
        "Scorecard — paper vs measured",
        &paper::render(targets),
    );
    out
}

/// Split a rendered report into `(title, body)` sections.
pub fn sections(text: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i] == RULE && i + 2 < lines.len() && lines[i + 2] == RULE {
            out.push((lines[i + 1].to_owned(), String::new()));
            i += 3;
            continue;
        }
        if let Some((_, body)) = out.last_mut() {
            body.push_str(lines[i]);
            body.push('\n');
        }
        i += 1;
    }
    out
}

/// Titles of the sections where `rendered` differs from `reference`
/// (missing or extra sections included); empty when they agree.
pub fn differing_sections(rendered: &str, reference: &str) -> Vec<String> {
    let got = sections(rendered);
    let want = sections(reference);
    let mut out = Vec::new();
    for i in 0..got.len().max(want.len()) {
        match (got.get(i), want.get(i)) {
            (Some(g), Some(w)) if g == w => {}
            (Some(g), _) => out.push(g.0.clone()),
            (None, Some(w)) => out.push(format!("{} (missing)", w.0)),
            (None, None) => {}
        }
    }
    out
}

/// `(in band, total)` scorecard targets.
pub fn in_band(targets: &[Target]) -> (usize, usize) {
    (
        targets.iter().filter(|t| t.in_band()).count(),
        targets.len(),
    )
}

/// The seed whose output is checked in as `REPRODUCTION_OUTPUT.txt`.
pub const REFERENCE_SEED: u64 = 42;
/// Scorecard targets the reference run puts in band.
pub const REFERENCE_TARGETS: usize = 39;

/// `REPRODUCTION_OUTPUT.txt` at the repository root (the parent of this
/// package when run through cargo, else the working directory).
pub fn read_reference() -> Result<String, String> {
    let root = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join(".."))
        .unwrap_or_else(|| PathBuf::from("."));
    let path = root.join("REPRODUCTION_OUTPUT.txt");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The output checks every batch repetition must pass: equal to the
/// first repetition, and for the reference seed equal to the reference
/// sections with every scorecard target in band.
#[derive(Default)]
pub struct OutputCheck {
    /// The reference report (the reference seed only).
    pub reference: Option<String>,
    /// Scorecard targets that must all be in band (the reference seed
    /// only).
    pub in_band: Option<usize>,
    /// The first repetition's rendering.
    pub first: Option<String>,
}

impl OutputCheck {
    pub fn for_seed(seed: u64) -> Result<OutputCheck, String> {
        if seed != REFERENCE_SEED {
            return Ok(OutputCheck::default());
        }
        Ok(OutputCheck {
            reference: Some(read_reference()?),
            in_band: Some(REFERENCE_TARGETS),
            first: None,
        })
    }

    /// Problems with one repetition's output; empty when it passes.
    pub fn problems(&mut self, rendered: String, targets: &[Target]) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(reference) = &self.reference {
            for title in differing_sections(&rendered, reference) {
                out.push(format!("section differs from the reference: {title}"));
            }
        }
        if let Some(want) = self.in_band {
            let (ok, total) = in_band(targets);
            if ok != want || total != want {
                out.push(format!("scorecard reads {ok}/{total}, want {want}/{want}"));
            }
        }
        match &self.first {
            Some(first) => {
                for title in differing_sections(&rendered, first) {
                    out.push(format!(
                        "section differs from the first repetition: {title}"
                    ));
                }
            }
            None => self.first = Some(rendered),
        }
        out
    }
}
