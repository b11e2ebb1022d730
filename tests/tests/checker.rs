//! Persistency-ordering checker integration tests: the mutant harness
//! proves each invariant fires on exactly the misbehavior it guards
//! against, and randomized clean runs prove the checker stays silent on
//! correct configurations.

use supermem::scheme::FIGURE_SCHEMES;
use supermem::verify::{check_run, run_mutant, Rule};
use supermem::{Experiment, Scheme};
use supermem_sim::{Config, Mutation, SplitMix64};
use supermem_workloads::spec::ALL_KINDS;
use supermem_workloads::{WorkloadKind, WorkloadSpec};

fn quick(kind: WorkloadKind) -> WorkloadSpec {
    WorkloadSpec::new(kind)
        .with_txns(30)
        .with_req_bytes(256)
        .with_array_footprint(256 << 10)
}

/// Which rule each injected mutation must trip first.
fn expected_rule(m: Mutation) -> Rule {
    match m {
        Mutation::WtOff => Rule::P1,
        Mutation::PairSplit => Rule::P2,
        Mutation::CwcNewest => Rule::P3,
        Mutation::RsrSkip => Rule::R3,
        Mutation::TreeLate => Rule::T1,
        Mutation::TreeSkip => Rule::T2,
        Mutation::TreeDoubleRoot => Rule::T3,
    }
}

#[test]
fn every_mutation_trips_its_matching_invariant() {
    for m in Mutation::ALL {
        let report = run_mutant(Some(m));
        assert!(
            !report.is_clean(),
            "{}: injected fault produced a clean report",
            m.name()
        );
        let first = report.violations[0].rule;
        assert_eq!(
            first,
            expected_rule(m),
            "{}: first violation was {first} — {}",
            m.name(),
            report.violations[0].message
        );
        assert!(
            !report.violations[0].window.is_empty(),
            "{}: violation carries no event window",
            m.name()
        );
    }
}

#[test]
fn mutations_do_not_cross_fire() {
    // The rule a mutation targets must not be reported by the other
    // mutants' *first* detection — each fault has a distinct signature.
    let firsts: Vec<(Mutation, Rule)> = Mutation::ALL
        .into_iter()
        .map(|m| (m, run_mutant(Some(m)).violations[0].rule))
        .collect();
    for (m, first) in &firsts {
        for (other, other_first) in &firsts {
            if m != other {
                assert_ne!(
                    first,
                    other_first,
                    "{} and {} trip the same first rule",
                    m.name(),
                    other.name()
                );
            }
        }
    }
}

#[test]
fn clean_harness_run_has_zero_violations() {
    let report = run_mutant(None);
    assert!(report.is_clean(), "{report}");
    assert!(report.events_seen > 0);
}

#[test]
fn randomized_clean_runs_stay_clean() {
    // Deterministically-seeded random picks over scheme x workload x seed:
    // the checker must stay silent on every unmutated configuration.
    let schemes: Vec<Scheme> = FIGURE_SCHEMES
        .into_iter()
        .chain([Scheme::WtSameBank, Scheme::Osiris, Scheme::Sca])
        .collect();
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..6 {
        let scheme = schemes[(rng.next_u64() % schemes.len() as u64) as usize];
        let kind = ALL_KINDS[(rng.next_u64() % ALL_KINDS.len() as u64) as usize];
        let seed = rng.next_u64() % 1000 + 1;
        let cfg = scheme.apply(Config::default()).with_seed(seed);
        let spec = quick(kind).with_seed(seed).with_txns(20);
        let report = check_run(Experiment::new(cfg, spec).unwrap());
        assert!(report.is_clean(), "{scheme}/{kind} seed {seed}: {report}");
    }
}

#[test]
fn mutated_experiment_run_is_caught_end_to_end() {
    // The mutation plumbs through Config -> controller, so a checked
    // workload run (not just the fixed harness) catches it too.
    let cfg = Scheme::SuperMem
        .apply(Config::default())
        .with_seed(1)
        .with_mutation(Mutation::WtOff);
    let report = check_run(Experiment::new(cfg, quick(WorkloadKind::Queue)).unwrap());
    assert!(!report.is_clean());
    assert_eq!(report.violations[0].rule, Rule::P1);
}
