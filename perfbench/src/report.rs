//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use crate::stats::{median, tail, valid_metric_name, Tail};
use std::fmt::Write as _;

/// The timings every workload measures.
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall time of each successful execute call.
    pub solve_ms: Vec<f64>,
    /// Due time to checked result of each successful operation.
    pub latency_ms: Vec<f64>,
    pub cells_per_s: f64,
    pub vs_naive: f64,
    pub setup_s: f64,
    pub slo_met_frac: f64,
    pub peak_rss_mb: f64,
}

/// Every operation the workload checked, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name}");
        assert!(
            !self.metrics.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Report a tail and state its percentile and sample count.
    pub fn put_tail(&mut self, name: &str, tail: Tail, unit: &'static str) {
        self.notes.push(format!(
            "{name} = p{} of {} samples",
            tail.percentile, tail.samples
        ));
        self.put(name, tail.value, unit);
    }

    /// Report `t`: end to end as the in-process `vs_naive` ratio, which
    /// the host's drift between processes cancels out of, plus set-up
    /// time, the latency-limit share and memory; per layer (`traced`) as
    /// absolute times and rates.
    pub fn put_timings(&mut self, t: &Timings, traced: bool) {
        if traced {
            self.put("solve_ms_p50", median(&t.solve_ms), "ms");
            self.put_tail("solve_ms_tail", tail(&t.solve_ms), "ms");
            self.put("cells_per_s", t.cells_per_s, "1/s");
            self.put("latency_ms_p50", median(&t.latency_ms), "ms");
            self.put_tail("latency_ms_tail", tail(&t.latency_ms), "ms");
            self.put("slo_miss_frac", 1.0 - t.slo_met_frac, "ratio");
        } else {
            let (solve, latency) = (tail(&t.solve_ms), tail(&t.latency_ms));
            self.notes.push(format!(
                "absolute (per-layer metrics): solve_ms p50 {:.4} p{} {:.4}, latency_ms p50 {:.4} \
                 p{} {:.4}, {} samples, cells_per_s {:.4e}",
                median(&t.solve_ms),
                solve.percentile,
                solve.value,
                median(&t.latency_ms),
                latency.percentile,
                latency.value,
                solve.samples,
                t.cells_per_s
            ));
            self.put("vs_naive", t.vs_naive, "ratio");
            self.put("setup_s", t.setup_s, "s");
            self.put("slo_met_frac", t.slo_met_frac, "ratio");
            self.put("peak_rss_mb", t.peak_rss_mb, "MiB");
        }
    }

    /// Whether every metric of `list` has been reported.
    pub fn has_all(&self, list: &[(&str, &str)]) -> bool {
        list.iter()
            .all(|(name, _)| self.metrics.iter().any(|(n, _, _)| n == name))
    }

    /// Report 0 for every metric of `list` not reported yet: the layer is
    /// not on this workload's measured path.
    pub fn fill_missing(&mut self, list: &[(&str, &'static str)]) {
        for (name, unit) in list {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                self.put(name, 0.0, unit);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object on one line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
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
    fn json_has_the_contract_keys() {
        let mut r = Report::default();
        r.check(true);
        r.put("solve_ms_p50", 12.5, "ms");
        r.put("runtime.tiles", 2304.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"solve_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}, \
             \"runtime.tiles\": {\"value\": 2304.0, \"unit\": \"count\"}}}"
        );
        r.check(false);
        assert!(!r.correct());
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
