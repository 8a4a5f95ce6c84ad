//! Sample aggregation and the result line.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread this program reports is
//! the spread a reader computes from its result lines.

use std::fmt::Write;

/// Median of `values` (mean of the two middle values for an even
/// count); 0.0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile of `values`, by the exclusive
/// method of Python's `statistics.quantiles`. One value is its own
/// quartiles; no values give zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    // Python's integer arithmetic, including a negative `delta` when
    // `j` is clamped up (extrapolation below the smallest value).
    let (n, m) = (4i64, len as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, len as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median (0.0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and is at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one invocation reports: correctness verdicts, work
/// counts and metrics. Verdicts and metrics are printed as they are
/// recorded; [`Report::result_line`] is the closing JSON object.
#[derive(Debug, Default)]
pub struct Report {
    /// `(check, passed)` in the order they ran.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (sessions, or campaigns for a render).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Record and print a correctness verdict.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl std::fmt::Display) {
        let verdict = if passed { "ok" } else { "FAILED" };
        println!("check {name}: {verdict} ({detail})");
        self.checks.push((name.to_string(), passed));
    }

    /// Record and print a metric. A name or unit outside the charset,
    /// or a value that is not finite, fails the `metric.valid` check.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        if !(valid_name(name) && valid_unit(unit) && value.is_finite()) {
            self.check("metric.valid", false, format!("{name} = {value} {unit}"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Print the sample count, extremes, quartiles and spread of a
    /// timed metric's samples.
    fn samples_line(name: &str, samples: &[f64]) {
        let [q1, q2, q3] = quartiles(samples);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "samples {name}: n={} min={lo} q1={q1} median={q2} q3={q3} max={hi} iqr_share={:.4}",
            samples.len(),
            iqr_share(samples)
        );
    }

    /// Record the median of `samples` as a metric.
    pub fn median_metric(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        Self::samples_line(name, samples);
        self.metric(name, median(samples), unit);
    }

    /// Record the best of `samples` (the highest when `higher` is
    /// better, else the lowest) as a metric. Contention from other
    /// tenants of a shared machine only ever slows a run, so the best
    /// sample is the steadiest estimate of what the code can do.
    pub fn best_metric(
        &mut self,
        name: &'static str,
        samples: &[f64],
        unit: &'static str,
        higher: bool,
    ) {
        Self::samples_line(name, samples);
        let pick = if higher { f64::max } else { f64::min };
        let start = if higher {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        self.metric(name, samples.iter().copied().fold(start, pick), unit);
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The closing JSON object: `correct`, `attempted`, `failed` and
    /// `metrics`, each value with all its digits.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
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
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn metric_name_charset() {
        assert!(valid_name("sessions_per_s"));
        assert!(valid_name("dns.cache_hit_ratio"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name("ünïcode"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_carries_every_metric_and_fails_on_bad_input() {
        let mut r = Report::default();
        r.check("ok", true, "");
        r.metric("latency_ms", 1.25, "ms");
        r.attempted = 3;
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.metric("bad name", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
