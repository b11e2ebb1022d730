//! Result aggregation for the figure harness.
//!
//! [`RunResult`] bundles one experiment's measurements (the inputs stay
//! with the caller, who already holds them); the helpers here
//! normalize series against a baseline (the paper plots everything
//! normalized to `Unsec`) and render aligned text tables that the
//! `supermem-bench` binaries print.

use supermem_nvm::WearReport;
use supermem_sim::{Cycle, Stats, Telemetry};

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Controller + system statistics for the measured phase.
    pub stats: Stats,
    /// Simulated cycles from measurement start to the last core's finish.
    pub total_cycles: Cycle,
    /// Per-line wear summary of the NVM at the end of the run.
    pub wear: WearReport,
    /// Collected probe telemetry, present when the run was observed via
    /// [`crate::Experiment::observe`]; `None` for unobserved runs.
    pub telemetry: Option<Telemetry>,
}

impl RunResult {
    /// Mean transaction latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the run committed no transactions.
    pub fn mean_txn_latency(&self) -> f64 {
        self.stats
            .mean_txn_latency()
            .expect("run committed no transactions")
    }

    /// Total NVM write requests (data + counter).
    pub fn nvm_writes(&self) -> u64 {
        self.stats.nvm_writes_total()
    }

    /// Counter-cache hit rate, if any counter accesses happened.
    pub fn counter_cache_hit_rate(&self) -> Option<f64> {
        self.stats.counter_cache_hit_rate()
    }
}

/// `value / baseline` for latency-normalized figures.
///
/// # Panics
///
/// Panics if `baseline` is zero.
pub fn normalized(value: f64, baseline: f64) -> f64 {
    assert!(baseline != 0.0, "normalizing against zero baseline");
    value / baseline
}

/// Geometric mean of a series (the paper's cross-workload summary).
///
/// # Panics
///
/// Panics if the series is empty or contains non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty series");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use supermem::metrics::TextTable;
///
/// let mut t = TextTable::new(vec!["workload".into(), "WT".into()]);
/// t.row(vec!["array".into(), "1.92".into()]);
/// let s = t.render();
/// assert!(s.contains("array"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The appended rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the aligned table. A table with no columns renders as the
    /// empty string (headerless tables have nothing to align).
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        if cols == 0 {
            return String::new();
        }
        let mut widths: Vec<usize> = self.headers.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            parts.join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (for plotting scripts).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // exact arithmetic on small integers
    fn normalized_divides() {
        assert_eq!(normalized(4.0, 2.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "zero baseline")]
    fn normalized_rejects_zero() {
        normalized(1.0, 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn table_alignment_and_csv() {
        let mut t = TextTable::new(vec!["w".into(), "value".into()]);
        t.row(vec!["array".into(), "1.0".into()]);
        t.row(vec!["q".into(), "22.5".into()]);
        let rendered = t.render();
        assert!(rendered.contains("array"));
        assert!(rendered.lines().count() == 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next(), Some("w,value"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn zero_column_table_renders_empty() {
        // Regression: `2 * (cols - 1)` underflowed usize and the
        // separator `repeat` panicked with capacity overflow.
        let t = TextTable::new(Vec::new());
        assert_eq!(t.render(), "");
        assert_eq!(t.to_csv(), "\n");
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact arithmetic on small integers
    fn run_result_accessors() {
        let mut stats = Stats::new(8);
        stats.record_txn(100);
        stats.record_txn(200);
        stats.nvm_data_writes = 5;
        stats.nvm_counter_writes = 5;
        let r = RunResult {
            stats,
            total_cycles: 300,
            wear: WearReport::default(),
            telemetry: None,
        };
        assert_eq!(r.mean_txn_latency(), 150.0);
        assert_eq!(r.nvm_writes(), 10);
        assert_eq!(r.counter_cache_hit_rate(), None);
    }
}
