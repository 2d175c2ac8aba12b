//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// Metrics in the order they were added, each with its unit.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Add one metric. Non-finite values (an empty window) become 0 so
    /// the line stays valid JSON; they are also reported on stderr.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("warning: {name} is not finite ({value}); reported as 0");
            0.0
        };
        self.items.push((name, value, unit));
    }

    /// The metrics, in insertion order.
    pub fn items(&self) -> &[(&'static str, f64, &'static str)] {
        &self.items
    }

    /// Value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Outcome of one benchmark run.
pub struct Outcome {
    /// Every reply verified and every state check passed.
    pub correct: bool,
    /// Requests attempted in the measured windows.
    pub attempted: u64,
    /// Requests failed, refused or answered wrongly.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
    /// Measurement checks of a traced run.
    pub checks: crate::Checks,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.items().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }

    /// A human-readable table of the metrics and checks.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in self.metrics.items() {
            let _ = writeln!(s, "  {name:<28} {value:>16.6} {unit}");
        }
        for (what, passed) in &self.checks {
            let _ = writeln!(s, "check {}: {what}", if *passed { "PASS" } else { "FAIL" });
        }
        s
    }
}

/// Peak resident set size of this process in MiB: `VmHWM` of
/// `/proc/self/status`; 0 where it cannot be read. (`getrusage` would
/// also count the parent's memory when this process was started by
/// fork and exec, as under `cargo run`.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut m = Metrics::default();
        m.put("p50_us", 1.25, "us");
        m.put("bad", f64::NAN, "x");
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m,
            checks: Vec::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_us\": \
             {\"value\": 1.25, \"unit\": \"us\"}, \"bad\": {\"value\": 0.0, \"unit\": \"x\"}}}"
        );
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
    }
}
