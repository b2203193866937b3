//! Exact percentiles from raw samples, and the metric set a run prints.

use std::time::Duration;

/// Index of the nearest-rank `q` quantile (`q` in `[0, 1]`) among `len`
/// sorted values; `len` must be positive.
fn rank(len: usize, q: f64) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len) - 1
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(rank(v.len().max(1), 0.5)).copied().unwrap_or(0.0)
}

/// Raw latencies of one operation class, in nanoseconds (4 bytes a sample,
/// sorted in place, so the sample buffers add little to `peak_rss_mb`).
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, latency: Duration) {
        self.ns
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Exact nearest-rank quantile in ms (0 when empty).
    fn quantile_ms(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        self.ns[rank(self.ns.len(), q)] as f64 / 1e6
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile_ms(0.5)
    }

    /// p99, or `None` when fewer than ten samples lie beyond it.
    pub fn p99(&mut self) -> Option<f64> {
        (self.ns.len() >= 1000).then(|| self.quantile_ms(0.99))
    }

    /// p99 even when thinly supported (used only as a pass/fail criterion).
    pub fn p99_any(&mut self) -> f64 {
        self.quantile_ms(0.99)
    }
}

/// Latency samples of the four client operation classes.
#[derive(Default, Clone)]
pub struct OpSamples {
    pub hidden_read: Samples,
    pub hidden_write: Samples,
    pub plain_read: Samples,
    pub plain_write: Samples,
}

impl OpSamples {
    pub fn class(&mut self, hidden: bool, write: bool) -> &mut Samples {
        match (hidden, write) {
            (true, false) => &mut self.hidden_read,
            (true, true) => &mut self.hidden_write,
            (false, false) => &mut self.plain_read,
            (false, true) => &mut self.plain_write,
        }
    }

    pub fn merge(&mut self, other: &OpSamples) {
        self.hidden_read.extend(&other.hidden_read);
        self.hidden_write.extend(&other.hidden_write);
        self.plain_read.extend(&other.plain_read);
        self.plain_write.extend(&other.plain_write);
    }

    pub fn classes(&mut self) -> [(&'static str, &mut Samples); 4] {
        [
            ("hidden_read", &mut self.hidden_read),
            ("hidden_write", &mut self.hidden_write),
            ("plain_read", &mut self.plain_read),
            ("plain_write", &mut self.plain_write),
        ]
    }

    pub fn total(&self) -> usize {
        self.hidden_read.len()
            + self.hidden_write.len()
            + self.plain_read.len()
            + self.plain_write.len()
    }

    pub fn all(&self) -> Samples {
        let mut all = Samples::default();
        for s in [
            &self.hidden_read,
            &self.hidden_write,
            &self.plain_read,
            &self.plain_write,
        ] {
            all.extend(s);
        }
        all
    }

    /// The largest per-class p99: every class meets a limit this meets.
    pub fn worst_p99(&mut self) -> f64 {
        self.classes()
            .into_iter()
            .map(|(_, s)| s.p99_any())
            .fold(0.0, f64::max)
    }

    /// The p50, p99 and sample-count metrics of each class.
    pub fn report(&mut self, out: &mut Metrics) {
        for (name, s) in self.classes() {
            out.layer(&format!("{name}_p50_ms"), s.p50(), "ms");
            // 0 marks a p99 that fewer than ten samples lie beyond.
            out.layer(&format!("{name}_p99_ms"), s.p99().unwrap_or(0.0), "ms");
            out.layer(&format!("bench.{name}_samples"), s.len() as f64, "count");
        }
    }
}

/// The metrics of one run, split into the end-to-end set (printed by timed
/// runs) and the per-layer set (printed by traced runs).
#[derive(Default)]
pub struct Metrics {
    pub end_to_end: Vec<(String, f64, &'static str)>,
    pub per_layer: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push((name.to_string(), value, unit));
    }
}

/// Render `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for i in (1..=100).rev() {
            s.push(Duration::from_millis(i));
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99_any(), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(Duration::from_millis(i));
        }
        assert!(s.p99().is_none());
        s.push(Duration::from_millis(999));
        assert_eq!(s.p99(), Some(989.0));
    }
}
