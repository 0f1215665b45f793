//! Order statistics, timing helpers and the run's result record.

use droplens_obs::Stopwatch;
use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values when even); NaN
/// when empty, which the result printer refuses.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Exact nearest-rank quantile of already sorted samples: the smallest
/// sample with at least `q` of all samples at or below it.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Wall-clock seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Stopwatch::start();
    let v = f();
    (v, clock.elapsed().as_secs_f64())
}

/// `k` (at least one) timed calls of `f`; the median seconds and the
/// last result. Each result is dropped before the next call.
pub fn median_of<T>(k: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut last, s) = timed(&mut f);
    let mut times = vec![s];
    for _ in 1..k {
        drop(last);
        let (v, s) = timed(&mut f);
        last = v;
        times.push(s);
    }
    (last, median(&times))
}

/// One named figure of a run.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run did: operations attempted and failed (failed, refused
/// or mismatched), its metrics, and sampled failure messages.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// How many failure messages a run keeps.
const NOTES_KEPT: usize = 16;

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record `name` as the median of `samples`, and print it with the
    /// sample count and range.
    pub fn median_metric(&mut self, name: &str, samples: &[f64], unit: &'static str, what: &str) {
        let value = median(samples);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{name:<14} {value:>12.4} {unit:<5} {what}, median of {} (range {lo:.4} .. {hi:.4})",
            samples.len()
        );
        self.metric(name, value, unit);
    }

    /// Count one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure of an operation already counted as attempted.
    pub fn fail(&mut self, note: String) {
        self.count(0, 1, &[note]);
    }

    /// Count `attempted` operations of which `failed` failed, keeping
    /// some of the failure messages.
    pub fn count(&mut self, attempted: u64, failed: u64, notes: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        let room = NOTES_KEPT.saturating_sub(self.notes.len());
        self.notes.extend(notes.iter().take(room).cloned());
    }

    /// The closing result line: one JSON object with `correct`,
    /// `attempted`, `failed` and every metric with its unit. A metric
    /// that is not a finite number makes the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A non-finite value is not JSON; it is reported as 0 and
            // the run is already marked incorrect above.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn result_line_counts_failures() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "bad".to_owned());
        o.metric("x_s", 0.5, "s");
        let line = o.to_json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(line.contains("\"x_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
