//! Minimal in-tree micro-benchmark harness.
//!
//! The workspace builds fully offline, so the `[[bench]]` targets
//! cannot depend on an external harness crate; this module supplies the
//! small subset actually needed: per-benchmark calibration (pick an
//! iteration count that makes one sample long enough to time), a few
//! repeated samples, and the median ns/iteration.
//!
//! Tuning (environment):
//! * `SUPERMEM_BENCH_MS` — target milliseconds per sample (default 5).
//! * `SUPERMEM_BENCH_SAMPLES` — samples per benchmark (default 9).
//!
//! Output honors `--json` like the `figures` binary.

use std::hint::black_box;
use std::time::Instant;

use supermem::metrics::TextTable;

use crate::report::json_requested;
use supermem::sim::json_escape;

/// One benchmark's measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub ns_per_iter: f64,
    /// Iterations per timed sample (from calibration).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Collects and reports a group of benchmarks.
pub struct Harness {
    group: String,
    sample_ms: f64,
    samples: usize,
    results: Vec<BenchResult>,
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(default)
}

impl Harness {
    /// Creates a harness for the named benchmark group.
    pub fn new(group: &str) -> Self {
        Self {
            group: group.to_owned(),
            sample_ms: env_f64("SUPERMEM_BENCH_MS", 5.0),
            samples: env_f64("SUPERMEM_BENCH_SAMPLES", 9.0) as usize,
            results: Vec::new(),
        }
    }

    /// Times `f`, recording the median ns/iteration.
    ///
    /// Calibration doubles the iteration count until one batch runs at
    /// least `SUPERMEM_BENCH_MS` milliseconds (this also warms caches),
    /// then times `SUPERMEM_BENCH_SAMPLES` batches at that count.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let target_s = self.sample_ms / 1e3;
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= target_s || iters >= 1 << 32 {
                break;
            }
            // Jump close to the target once we have a usable estimate.
            iters = if elapsed > 1e-4 {
                (iters as f64 * (target_s / elapsed) * 1.2).ceil() as u64
            } else {
                iters * 16
            }
            .max(iters + 1);
        }
        let mut per_iter: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / iters as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        self.results.push(BenchResult {
            name: name.to_owned(),
            ns_per_iter: per_iter[per_iter.len() / 2],
            iters_per_sample: iters,
            samples: per_iter.len(),
        });
    }

    /// The measurements recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the results as an aligned text table.
    pub fn render_text(&self) -> String {
        let mut t = TextTable::new(vec![
            "benchmark".into(),
            "ns/iter".into(),
            "iters/sample".into(),
            "samples".into(),
        ]);
        for r in &self.results {
            t.row(vec![
                r.name.clone(),
                format!("{:.1}", r.ns_per_iter),
                r.iters_per_sample.to_string(),
                r.samples.to_string(),
            ]);
        }
        format!("benchmark group: {}\n{}", self.group, t.render())
    }

    /// Renders the results as one JSON document.
    pub fn render_json(&self) -> String {
        let entries: Vec<String> = self
            .results
            .iter()
            .map(|r| {
                format!(
                    "{{\"name\":\"{}\",\"ns_per_iter\":{:.3},\"iters_per_sample\":{},\"samples\":{}}}",
                    json_escape(&r.name),
                    r.ns_per_iter,
                    r.iters_per_sample,
                    r.samples
                )
            })
            .collect();
        format!(
            "{{\"group\":\"{}\",\"results\":[{}]}}",
            json_escape(&self.group),
            entries.join(",")
        )
    }

    /// Prints the results: JSON when `--json` was passed, else text.
    pub fn finish(&self) {
        if json_requested() {
            println!("{}", self.render_json());
        } else {
            println!("{}", self.render_text());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut h = Harness::new("test");
        h.sample_ms = 0.2;
        h.samples = 3;
        let mut x = 0u64;
        h.bench("add", || {
            x = x.wrapping_add(1);
            x
        });
        let r = &h.results()[0];
        assert!(r.ns_per_iter > 0.0);
        assert!(r.iters_per_sample >= 1);
        assert_eq!(r.samples, 3);
        assert!(h.render_text().contains("add"));
        assert!(h.render_json().contains("\"name\":\"add\""));
    }
}
