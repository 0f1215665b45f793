//! Property tests for the corruption harness: injection is a pure
//! function of `(seed, rate, classes, input)` — the determinism the
//! chaos suite's byte-compare assertions stand on.

use droplens_faults::{CorruptionClass, CorruptionLog, Corruptor};
use proptest::prelude::*;

/// Arbitrary line-oriented text: words drawn from a tiny vocabulary,
/// with comments and blanks mixed in like real archive files.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..5, 1u8..6), 1..24).prop_map(|specs| {
        let mut out = String::new();
        for (kind, words) in specs {
            match kind {
                0 => out.push_str("# comment line"),
                1 => {} // blank line
                _ => {
                    for w in 0..words {
                        if w > 0 {
                            out.push(' ');
                        }
                        out.push_str(
                            ["10.0.0.0/24", "AS4242", "record", "2021-06-01"][w as usize % 4],
                        );
                    }
                }
            }
            out.push('\n');
        }
        out
    })
}

fn run(seed: u64, rate: f64, text: &str) -> (String, CorruptionLog) {
    let mut log = CorruptionLog::default();
    let out = Corruptor::new(seed)
        .with_rate(rate)
        .corrupt_lines("prop.txt", text, &mut log);
    (out, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_seed_same_bytes_and_log(seed in any::<u64>(), text in arb_text()) {
        let a = run(seed, 0.5, &text);
        let b = run(seed, 0.5, &text);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    #[test]
    fn zero_rate_never_injects(seed in any::<u64>(), text in arb_text()) {
        let (out, log) = run(seed, 0.0, &text);
        prop_assert_eq!(log.total(), 0);
        prop_assert_eq!(out, text);
    }

    #[test]
    fn logged_lines_exist_in_output(seed in any::<u64>(), text in arb_text()) {
        let (out, log) = run(seed, 0.9, &text);
        let line_count = out.lines().count() as u32;
        for event in &log.events {
            let line = event.line.expect("line classes always log a line");
            prop_assert!(line >= 1 && line <= line_count,
                "event {} outside 1..={}", event, line_count);
        }
    }

    #[test]
    fn comments_and_blanks_are_never_faulted(seed in any::<u64>(), text in arb_text()) {
        let (out, _) = run(seed, 1.0, &text);
        let originals = text.lines().filter(|l| l.starts_with('#')).count();
        let survivors = out.lines().filter(|l| l.starts_with("# comment line")).count();
        prop_assert_eq!(originals, survivors);
    }

}

/// Whole-bundle corruption is deterministic too: one generated world,
/// corrupted twice per seed, byte-compares equal (plain test — world
/// generation is too slow to repeat per proptest case).
#[test]
fn full_archive_corruption_is_deterministic() {
    use droplens_synth::{World, WorldConfig};
    let world = World::generate(11, &WorldConfig::small());
    let pristine = world.to_text_archives();
    for seed in [0u64, 1, 42, u64::MAX] {
        let mangle = || {
            let mut text = pristine.clone();
            let log = Corruptor::new(seed)
                .with_rate(0.02)
                .corrupt_archives(&mut text);
            (text, log)
        };
        let a = mangle();
        let b = mangle();
        assert_eq!(a.0, b.0, "seed {seed}: corrupted archives diverged");
        assert_eq!(a.1, b.1, "seed {seed}: fault logs diverged");
        assert!(a.1.total() > 0, "seed {seed}: nothing injected");
        assert!(a.1.count(CorruptionClass::DropDay) <= pristine.drop_snapshots.len());
    }
}
