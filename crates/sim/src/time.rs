//! The simulation time base.
//!
//! All components share a single logical clock measured in CPU cycles at the
//! frequency given by [`crate::Config::cpu_ghz`] (2 GHz in the paper's
//! Table 2). Device latencies specified in nanoseconds are converted with
//! [`ns_to_cycles`], rounding *up* so that sub-cycle latencies (such as the
//! paper's tWTR = 7.5 ns) are never silently dropped to zero.

/// A point in simulated time, in CPU cycles since simulation start.
pub type Cycle = u64;

/// Converts a latency in nanoseconds to CPU cycles, rounding up.
///
/// # Examples
///
/// ```
/// use supermem_sim::ns_to_cycles;
///
/// // 2 GHz: one cycle is 0.5 ns.
/// assert_eq!(ns_to_cycles(15.0, 2.0), 30);
/// // Sub-cycle remainders round up (tWTR = 7.5 ns -> 15 cycles exactly).
/// assert_eq!(ns_to_cycles(7.5, 2.0), 15);
/// assert_eq!(ns_to_cycles(7.6, 2.0), 16);
/// // Zero stays zero.
/// assert_eq!(ns_to_cycles(0.0, 2.0), 0);
/// ```
pub fn ns_to_cycles(ns: f64, cpu_ghz: f64) -> Cycle {
    debug_assert!(ns >= 0.0, "latency must be non-negative");
    debug_assert!(cpu_ghz > 0.0, "frequency must be positive");
    (ns * cpu_ghz).ceil() as Cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converts_paper_pcm_timings_at_2ghz() {
        // Table 2: tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns.
        // tFAW is not modeled: no bank timing reads it.
        assert_eq!(ns_to_cycles(48.0, 2.0), 96);
        assert_eq!(ns_to_cycles(15.0, 2.0), 30);
        assert_eq!(ns_to_cycles(13.0, 2.0), 26);
        assert_eq!(ns_to_cycles(50.0, 2.0), 100);
        assert_eq!(ns_to_cycles(7.5, 2.0), 15);
        assert_eq!(ns_to_cycles(300.0, 2.0), 600);
    }

    #[test]
    fn rounds_up_fractional_cycles() {
        assert_eq!(ns_to_cycles(0.1, 2.0), 1);
        assert_eq!(ns_to_cycles(0.5, 2.0), 1);
        assert_eq!(ns_to_cycles(0.51, 2.0), 2);
    }

    #[test]
    fn other_frequencies() {
        assert_eq!(ns_to_cycles(10.0, 1.0), 10);
        assert_eq!(ns_to_cycles(10.0, 4.0), 40);
    }
}
