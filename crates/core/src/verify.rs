//! Checked runs: drive an experiment with the persistency-ordering
//! [`Checker`] attached and report every crash-consistency invariant
//! violation found in the probe stream.
//!
//! The checker (from `supermem-check`, re-exported here) is a pure
//! observer: a checked run's simulated timing and results are identical
//! to an unchecked run's. [`check_run`] checks an [`Experiment`]'s
//! measured window; [`run_mutant`] drives a fixed stress workload with
//! an optional fault injection ([`Mutation`]) so tests can prove each
//! rule actually fires on the behavior it guards against.
//!
//! This layer validates the event *ordering* of one execution. Its
//! siblings attack the other axes: `supermem torture` crashes the
//! *media* one operation at a time, and `supermem-lincheck`
//! exhaustively explores *interleavings* of the serving protocols with
//! a crash after every persist, checking each recovered state for
//! durable linearizability (`DESIGN.md` §16).
//!
//! # Examples
//!
//! ```
//! use supermem::sim::Config;
//! use supermem::verify::{check_run, run_mutant};
//! use supermem::workloads::{WorkloadKind, WorkloadSpec};
//! use supermem::{Experiment, Scheme};
//! use supermem_sim::Mutation;
//!
//! // A correct run is clean ...
//! let cfg = Scheme::SuperMem.apply(Config::default());
//! let spec = WorkloadSpec::new(WorkloadKind::Array)
//!     .with_txns(10)
//!     .with_req_bytes(256)
//!     .with_array_footprint(256 << 10);
//! assert!(check_run(Experiment::new(cfg, spec).unwrap()).is_clean());
//!
//! // ... and a controller that drops counter write-through is caught.
//! let report = run_mutant(Some(Mutation::WtOff));
//! assert!(!report.is_clean());
//! ```

use supermem_sim::{Config, Mutation};

pub use supermem_check::{CheckReport, Checker, CheckerMode, Rule, Violation};

use crate::experiment::Experiment;
use crate::scheme::Scheme;
use crate::system::System;

/// Retrieves the checker from a finished experiment session and drains
/// its report.
fn report_from(exp: &mut Experiment) -> CheckReport {
    for mut obs in exp.take_observers() {
        if let Some(c) = obs.as_any_mut().downcast_mut::<Checker>() {
            return c.take_report();
        }
    }
    unreachable!("the attached Checker must come back from the run")
}

/// Attaches the persistency-ordering checker to `exp`'s machine.
fn with_checker(exp: Experiment) -> Experiment {
    let mode = CheckerMode::from_config(exp.config());
    exp.observe_with(Box::new(Checker::new(mode)))
}

/// Runs `exp` ([`Experiment::run`]: single- or multi-core by its
/// program count) with the persistency-ordering checker attached to the
/// measured window, and returns the invariant report.
pub fn check_run(exp: Experiment) -> CheckReport {
    let mut exp = with_checker(exp);
    exp.run();
    report_from(&mut exp)
}

/// Like [`check_run`], but replays recorded per-program traces with
/// event-granularity interleaving (the `fig14t`/`tracebench` pipeline).
pub fn check_run_trace(exp: Experiment) -> CheckReport {
    let mut exp = with_checker(exp);
    exp.run_multicore_trace();
    report_from(&mut exp)
}

/// The machine configuration [`run_mutant`] drives: the full SuperMem
/// scheme with an optional fault injection. Tree mutants additionally
/// arm the streaming integrity tree — the subsystem they corrupt.
fn mutant_config(mutation: Option<Mutation>) -> Config {
    let mut cfg = Scheme::SuperMem.apply(Config::default());
    if matches!(
        mutation,
        Some(Mutation::TreeSkip | Mutation::TreeLate | Mutation::TreeDoubleRoot)
    ) {
        cfg.integrity_tree = true;
        cfg.persisted_levels = Some(1);
    }
    cfg.mutation = mutation;
    cfg
}

/// Drives a fixed two-phase stress pattern through a [`System`] with the
/// checker attached, injecting `mutation` into the controller (or
/// nothing, for the clean-run control).
///
/// Phase A rotates flushes over every line of one page with frequent
/// fences — exercising the staged data+counter pairs (P2), counter
/// write coalescing (P3), and fence-time counter coverage (P1). Phase B
/// hammers a single line past the 7-bit minor-counter limit to force a
/// page re-encryption — exercising the RSR protocol (R1–R6).
pub fn run_mutant(mutation: Option<Mutation>) -> CheckReport {
    run_mutant_sharded(mutation, 1)
}

/// [`run_mutant`] with the machine sharded over `channels` interleaved
/// channels. The stress pattern's page-0 working set maps to channel 0,
/// so the injected bug runs through one sharded controller while the
/// checker's per-channel shadow state watches every channel — proving
/// the mutation harness keeps its teeth at any interleaving width.
pub fn run_mutant_sharded(mutation: Option<Mutation>, channels: usize) -> CheckReport {
    use supermem_persist::PMem;

    let mut cfg = mutant_config(mutation);
    cfg.channels = channels;
    let checker = Checker::new(CheckerMode::from_config(&cfg));
    let mut sys = System::new(cfg);
    sys.attach_observer(Box::new(checker));

    let line = 64u64;
    let payload = [0xA5u8; 64];

    // Phase A: every line of page 0, several rounds, fence every 4th flush.
    for i in 0..192u64 {
        let addr = (i % 64) * line;
        sys.write(addr, &payload);
        sys.clwb(addr, line);
        if i % 4 == 3 {
            sys.sfence();
        }
    }
    sys.sfence();

    // Phase B: one line past the minor-counter limit → re-encryption.
    for i in 0..140u64 {
        sys.write(0, &[i as u8; 64]);
        sys.clwb(0, line);
        if i % 8 == 7 {
            sys.sfence();
        }
    }
    sys.sfence();
    sys.checkpoint();

    for mut obs in sys.take_observers() {
        if let Some(c) = obs.as_any_mut().downcast_mut::<Checker>() {
            return c.take_report();
        }
    }
    unreachable!("the attached Checker must come back from the run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem_workloads::{WorkloadKind, WorkloadSpec};

    fn quick(scheme: Scheme, kind: WorkloadKind) -> Experiment {
        let spec = WorkloadSpec::new(kind)
            .with_txns(30)
            .with_req_bytes(256)
            .with_array_footprint(256 << 10);
        Experiment::new(scheme.apply(Config::default()), spec).unwrap()
    }

    #[test]
    fn figure_schemes_check_clean_on_array() {
        for scheme in crate::scheme::FIGURE_SCHEMES {
            let report = check_run(quick(scheme, WorkloadKind::Array));
            assert!(report.is_clean(), "{scheme}: {report}");
            assert!(
                report.events_seen > 0,
                "{scheme}: no events reached checker"
            );
        }
    }

    #[test]
    fn multicore_and_trace_runs_check_clean() {
        let spec = WorkloadSpec::new(WorkloadKind::Queue)
            .with_txns(10)
            .with_req_bytes(256);
        let exp = || {
            Experiment::new(Scheme::SuperMem.apply(Config::default()), spec.clone())
                .and_then(|e| e.with_programs(4))
                .unwrap()
        };
        let report = check_run(exp());
        assert!(report.is_clean(), "{report}");
        let report = check_run_trace(exp());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn clean_mutant_harness_run_reports_nothing() {
        let report = run_mutant(None);
        assert!(report.is_clean(), "{report}");
        assert!(report.events_seen > 0);
    }

    #[test]
    fn every_mutation_still_trips_on_a_sharded_machine() {
        // The acceptance bar for the multi-channel refactor: sharding
        // must not blunt the mutation harness. A clean sharded control
        // run pins the other direction (no false positives).
        let report = run_mutant_sharded(None, 4);
        assert!(report.is_clean(), "clean @4ch: {report}");
        for m in Mutation::ALL {
            let report = run_mutant_sharded(Some(m), 4);
            assert!(!report.is_clean(), "{} undetected at 4 channels", m.name());
        }
    }

    #[test]
    fn checked_run_does_not_perturb_results() {
        let plain = quick(Scheme::SuperMem, WorkloadKind::Queue).run();
        let mut exp = with_checker(quick(Scheme::SuperMem, WorkloadKind::Queue));
        let checked = exp.run();
        assert_eq!(plain.total_cycles, checked.total_cycles);
        assert_eq!(plain.stats.nvm_data_writes, checked.stats.nvm_data_writes);
    }
}
