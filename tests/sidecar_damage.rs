//! Every `droplens-bin/1` sidecar decoder is total on damaged bytes, and
//! damage is reported the same way whichever representation a source was
//! loaded from.
//!
//! The sidecars come from a small generated world. Each case truncates
//! one of the six sidecar kinds at some offset, or flips one byte, and
//! decodes it under both ingest policies. The decoder must not panic.
//! Strict either decodes or fails with an error located at the
//! sidecar's label, line 0. Permissive never fails: damage quarantines
//! the whole sidecar and yields the empty value.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code: panics are failures
use std::path::Path;
use std::sync::OnceLock;

use droplens_bgp::format as bgpfmt;
use droplens_core::{IngestPolicy, Study, StudyConfig};
use droplens_drop::format as dropfmt;
use droplens_irr::format as irrfmt;
use droplens_net::{Date, DateRange, ParseError, Quarantine};
use droplens_rir::format::parse_stats_file_bin_with;
use droplens_rpki::format::parse_events_bin_with;
use droplens_synth::{BinaryArchives, Layout, World, WorldConfig};
use proptest::prelude::*;

/// The six sidecar kinds, by the order [`decode`] dispatches on.
const KINDS: usize = 6;

struct Fixture {
    world: World,
    bin: BinaryArchives,
    /// The DROP day the test damages: the longest list.
    drop_day: usize,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(23, &WorldConfig::small());
        let bin = world.to_binary_archives();
        let drop_day = (0..bin.drop_snapshots.len())
            .max_by_key(|&i| bin.drop_snapshots[i].1.len())
            .expect("DROP days");
        Fixture {
            world,
            bin,
            drop_day,
        }
    })
}

/// The dates of the per-date sidecars the test damages: the first RIR
/// snapshot and the chosen DROP day.
fn dates() -> (Date, Date) {
    let f = fixture();
    (f.bin.rir_snapshots[0].0, f.bin.drop_snapshots[f.drop_day].0)
}

/// Kind `kind`'s undamaged bytes and quarantine label.
fn sidecar(kind: usize) -> (&'static [u8], String) {
    let Fixture { bin, drop_day, .. } = fixture();
    let (rir_date, drop_date) = dates();
    let l = Layout::BINARY;
    match kind {
        0 => (&bin.bgp_updates, l.bgp_updates()),
        1 => (&bin.irr_journal, l.irr_journal()),
        2 => (&bin.roa_events, l.roa_events()),
        3 => (&bin.rir_snapshots[0].1[0], l.rir_file(rir_date, 0)),
        4 => (&bin.drop_snapshots[*drop_day].1, l.drop_snapshot(drop_date)),
        _ => (&bin.sbl_records, l.sbl_records()),
    }
}

/// Decode `bytes` as sidecar kind `kind`; the number of records in the
/// value returned (0 for the empty value).
fn decode(kind: usize, bytes: &[u8], q: &mut Quarantine) -> Result<usize, ParseError> {
    let (_, drop_date) = dates();
    Ok(match kind {
        0 => bgpfmt::parse_updates_bin_with(bytes, q)?.len(),
        1 => irrfmt::parse_journal_bin_with(bytes, q)?.len(),
        2 => parse_events_bin_with(bytes, q)?.len(),
        3 => parse_stats_file_bin_with(bytes, q)?.map_or(0, |f| f.records.len()),
        4 => dropfmt::parse_snapshot_bin_with(drop_date, bytes, q)?
            .entries
            .len(),
        _ => dropfmt::parse_sbl_bin_with(bytes, q)?.len(),
    })
}

/// Decode `damaged` as kind `kind` under both policies and check the
/// contract; `must_fail` when the damage can never decode.
fn check(kind: usize, damaged: &[u8], must_fail: bool) {
    let (_, label) = sidecar(kind);
    let mut strict_q = Quarantine::strict(label.as_str());
    let strict = decode(kind, damaged, &mut strict_q);
    let mut lenient_q = Quarantine::permissive(label.as_str());
    let lenient = decode(kind, damaged, &mut lenient_q)
        .unwrap_or_else(|e| panic!("{label}: permissive load failed: {e}"));
    match strict {
        Err(e) => {
            assert_eq!(e.location(), Some((label.as_str(), 0)), "{e}");
            assert_eq!(lenient_q.quarantined, 1, "{label}");
            assert_eq!(lenient_q.parsed, 0, "{label}");
            assert_eq!(
                lenient, 0,
                "{label}: damaged sidecar yields the empty value"
            );
        }
        Ok(n) => {
            assert!(
                !must_fail,
                "{label}: damaged sidecar decoded to {n} records"
            );
            assert_eq!(lenient_q.quarantined, 0, "{label}");
            assert_eq!(lenient, n, "{label}");
        }
    }
}

/// An offset into `len` bytes: near the head (magic, kind tag, counts)
/// on `head`, anywhere otherwise.
fn offset(len: usize, head: bool, raw: u64) -> usize {
    let span = if head { len.min(64) } else { len };
    (raw % span as u64) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn truncated_sidecars_quarantine_whole(kind in 0..KINDS, head in any::<bool>(), raw in any::<u64>()) {
        let (bytes, _) = sidecar(kind);
        let at = offset(bytes.len(), head, raw);
        check(kind, &bytes[..at], true);
    }

    #[test]
    fn flipped_byte_never_panics(
        kind in 0..KINDS,
        head in any::<bool>(),
        raw in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let (bytes, _) = sidecar(kind);
        let mut damaged = bytes.to_vec();
        damaged[offset(bytes.len(), head, raw)] ^= mask;
        check(kind, &damaged, false);
    }
}

#[test]
fn undamaged_sidecars_decode_in_both_policies() {
    for kind in 0..KINDS {
        let (bytes, label) = sidecar(kind);
        let n = decode(kind, bytes, &mut Quarantine::strict(label.as_str())).expect("clean");
        assert!(n > 0, "{label} holds records");
        check(kind, bytes, false);
    }
}

/// The file each of `source`'s quarantine samples names, without its
/// extension: the dataset, whichever representation it came from.
fn damaged_files(study: &Study, source: &str) -> Vec<String> {
    study.ingest.sources[source]
        .quarantine
        .samples
        .iter()
        .map(|e| {
            let (file, _) = e.location().expect("located");
            Path::new(file).with_extension("").display().to_string()
        })
        .collect()
}

#[test]
fn text_and_binary_damage_name_the_same_files() {
    let Fixture {
        world,
        bin,
        drop_day,
    } = fixture();
    let mut bin = bin.clone();
    let mut text = world.to_text_archives();
    // Damage the same DROP day and the same RIR file in both forms.
    text.drop_snapshots[*drop_day]
        .1
        .push_str("999.999.0.0/33 ; SBLx\n");
    bin.drop_snapshots[*drop_day].1.truncate(8);
    text.rir_snapshots[0].1[0].push_str("not|a|stats|row\n");
    bin.rir_snapshots[0].1[0][0] ^= 0xff;

    let mut config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    config.manual_labels = world.manual_labels();
    config.ingest = IngestPolicy::permissive();
    let from_text = Study::from_text(config.clone(), world.peers.clone(), &text).expect("text");
    let from_bin = Study::from_binary(config, world.peers.clone(), &bin).expect("binary");

    let (rir_date, drop_date) = dates();
    for (source, file) in [
        ("drop", Layout::TEXT.drop_snapshot(drop_date)),
        ("rir", Layout::TEXT.rir_file(rir_date, 0)),
    ] {
        let dataset = vec![Path::new(&file).with_extension("").display().to_string()];
        assert_eq!(damaged_files(&from_text, source), dataset, "{source}");
        assert_eq!(damaged_files(&from_bin, source), dataset, "{source}");
    }
    for source in ["bgp", "irr", "rpki", "sbl"] {
        assert!(damaged_files(&from_text, source).is_empty(), "{source}");
        assert!(damaged_files(&from_bin, source).is_empty(), "{source}");
    }
    // The samples carry each representation's own file name.
    let drop_sample = |s: &Study| {
        let (file, line) = s.ingest.sources["drop"].quarantine.samples[0]
            .location()
            .expect("located");
        (file.to_owned(), line)
    };
    assert_eq!(
        drop_sample(&from_text).0,
        Layout::TEXT.drop_snapshot(drop_date)
    );
    assert_eq!(
        drop_sample(&from_bin),
        (Layout::BINARY.drop_snapshot(drop_date), 0)
    );
}
