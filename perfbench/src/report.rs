//! Summaries of samples and the result line the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile `p` (0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// The median of `samples` (mean of the middle two for an even count);
/// 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Named metrics with units, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }
}

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The metrics on the result line.
    pub metrics: Metrics,
    /// Numbers printed in the table but kept off the result line.
    pub table_only: Metrics,
}

impl Outcome {
    /// Counts one operation; a failed one is kept with its reason.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(why);
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len()
        );
        for (i, (name, value, unit)) in self.metrics.rows().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
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
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 5.0);
        assert_eq!(percentile(&xs, 90), 9.0);
        assert_eq!(percentile(&xs, 100), 10.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metrics.put("latency_ms", 1.25, "ms");
        o.metrics.put("setup_s", 0.5, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.check(Err("bad".into()));
        assert!(o
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
