//! Summaries of measured samples, and the JSON the benchmark prints.

use std::fmt::Write as _;

use ver_common::stats::{percentile_sorted, Summary};

/// Median of `values`, `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`, linear interpolation between the
/// closest ranks) of `values`, `None` when there are none.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, q))
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: whether every correctness check held, how many
/// requests were attempted and failed, and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Every correctness check that failed, in words.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit of `v`; JSON has no NaN or infinity,
/// so those become null.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.9), Some(4.6));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
        // p90 of 1..=100 leaves ten samples above it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile(&hundred, 0.9).unwrap();
        assert_eq!(hundred.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("qps", 12.5, "1/s");
        r.metric("setup_s", 0.1 + 0.2, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
        r.check(false, || "sample 3 differs".into());
        assert!(!r.correct());
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
