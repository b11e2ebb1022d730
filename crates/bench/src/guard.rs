//! Hot-path regression guard support: extracting reference timings
//! from the committed `results/BENCH_sweep.json` and comparing fresh
//! measurements against them.
//!
//! The `benchguard` binary re-runs the memory-controller micro
//! benchmarks (observers disabled — the default) and fails when any of
//! them exceeds its committed `after_ns` reference by more than
//! `SUPERMEM_BENCH_TOLERANCE` (a multiplier, default 4.0). The generous
//! default tolerates noisy shared CI hosts while still catching gross
//! hot-path regressions — e.g. an always-on probe layer, an accidental
//! allocation per flush.

/// Extracts `"name": { ... "after_ns": <value> ... }` from the
/// committed benchmark JSON without a JSON parser dependency. Returns
/// `None` when the entry or its `after_ns` field is missing.
pub fn extract_after_ns(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\"");
    let start = json.find(&key)? + key.len();
    let obj = &json[start..];
    // The entry's object ends at the first closing brace after the key.
    let end = obj.find('}')?;
    let obj = &obj[..end];
    let field = obj.find("\"after_ns\"")? + "\"after_ns\"".len();
    let rest = obj[field..].trim_start().strip_prefix(':')?.trim_start();
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// One guard check's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardCheck {
    /// Benchmark name (matches `results/BENCH_sweep.json` keys).
    pub name: String,
    /// Committed reference ns/iter.
    pub reference_ns: f64,
    /// Freshly measured ns/iter.
    pub measured_ns: f64,
    /// The allowed ceiling (`reference_ns * tolerance`).
    pub limit_ns: f64,
}

impl GuardCheck {
    /// Whether the fresh measurement is within the allowed ceiling.
    pub fn passed(&self) -> bool {
        self.measured_ns <= self.limit_ns
    }
}

/// Compares measurements against references under a multiplier.
pub fn check(name: &str, reference_ns: f64, measured_ns: f64, tolerance: f64) -> GuardCheck {
    GuardCheck {
        name: name.to_owned(),
        reference_ns,
        measured_ns,
        limit_ns: reference_ns * tolerance,
    }
}

/// Parses a `SUPERMEM_BENCH_TOLERANCE` value. `None` (variable unset)
/// yields the default 4.0; a set-but-invalid value is an error rather
/// than a silent fallback — a typo like `4,5` or `4x` must not quietly
/// re-enable the default and mask a tightened (or loosened) guard.
///
/// # Errors
///
/// Returns a message naming the bad value when it does not parse as a
/// finite number greater than zero.
fn parse_tolerance(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(4.0);
    };
    match raw.trim().parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
        Ok(v) => Err(format!(
            "SUPERMEM_BENCH_TOLERANCE must be a finite multiplier > 0, got `{v}`"
        )),
        Err(_) => Err(format!("SUPERMEM_BENCH_TOLERANCE is not a number: `{raw}`")),
    }
}

/// The guard tolerance multiplier from `SUPERMEM_BENCH_TOLERANCE`
/// (default 4.0; values must be positive and finite).
///
/// # Errors
///
/// Returns a message naming the bad value when the variable is set to
/// something other than a finite number greater than zero.
pub fn tolerance() -> Result<f64, String> {
    parse_tolerance(std::env::var("SUPERMEM_BENCH_TOLERANCE").ok().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "microbench": {
        "flush_line/Unsec": { "before_ns": 2294.3, "after_ns": 646.7, "speedup": 3.55 },
        "read_line/SuperMem": { "before_ns": 878.7, "after_ns": 318.5, "speedup": 2.76 }
      }
    }"#;

    #[test]
    fn extracts_after_ns_per_entry() {
        assert_eq!(extract_after_ns(SAMPLE, "flush_line/Unsec"), Some(646.7));
        assert_eq!(extract_after_ns(SAMPLE, "read_line/SuperMem"), Some(318.5));
        assert_eq!(extract_after_ns(SAMPLE, "no_such_bench"), None);
    }

    #[test]
    fn missing_field_is_none() {
        assert_eq!(extract_after_ns(r#"{"x": {"before_ns": 1}}"#, "x"), None);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact arithmetic on small integers
    fn check_applies_tolerance() {
        let c = check("b", 100.0, 350.0, 4.0);
        assert!(c.passed());
        let c = check("b", 100.0, 450.0, 4.0);
        assert!(!c.passed());
        assert_eq!(c.limit_ns, 400.0);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact arithmetic on small integers
    fn tolerance_unset_defaults() {
        assert_eq!(parse_tolerance(None), Ok(4.0));
        assert_eq!(parse_tolerance(Some("2.5")), Ok(2.5));
        assert_eq!(parse_tolerance(Some(" 8 ")), Ok(8.0));
    }

    #[test]
    fn tolerance_garbage_is_an_error_not_the_default() {
        // Regression: these used to silently fall back to 4.0.
        for bad in ["4x", "4,5", "", "fast", "NaN", "inf", "0", "-1"] {
            let r = parse_tolerance(Some(bad));
            assert!(r.is_err(), "`{bad}` must be rejected, got {r:?}");
        }
    }
}
