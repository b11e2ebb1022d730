//! End-to-end differential crash torture: the full campaign must
//! classify every injection, and no injection may corrupt silently.
//!
//! These tests exercise the whole stack — fault plan (`supermem-nvm`),
//! degraded controller (`supermem-memctrl`), hardened recovery
//! (`supermem-persist`), and the campaign engine (`supermem::campaign`)
//! with the undo-log subject (`supermem::torture`) — at the scale the CI
//! torture job runs.

use supermem::campaign::{Campaign, Case, Fault, Subject, Tally, Verdict};
use supermem::torture::{torture_campaign, tree_campaign, TORTURE_SCHEMES};
use supermem::Scheme;
use supermem_nvm::FaultClass;

/// A row's tally as `(cases, old, new, detected, silent)`.
type Row = (u64, u64, u64, u64, u64);

fn row(t: &Tally) -> Row {
    (t.cases, t.old, t.new, t.detected, t.silent)
}

#[test]
fn full_campaign_classifies_everything_with_zero_silent_corruption() {
    let campaign = torture_campaign(&TORTURE_SCHEMES, &[1, 2]);
    let report = campaign.run();
    assert!(
        report.total() >= 1000,
        "the campaign must run at least 1000 injections, got {}",
        report.total()
    );
    let classified = report.count(Verdict::Old)
        + report.count(Verdict::New)
        + report.count(Verdict::Detected)
        + report.count(Verdict::Silent);
    assert_eq!(classified, report.total(), "every outcome is classified");
    if let Some(r) = report.silent().first() {
        panic!(
            "silent corruption: {} — {}",
            campaign.subject.repro(&r.case),
            r.detail
        );
    }
    // Per-scheme tallies cover every default scheme and agree in total.
    let by_scheme = report.tally_by(|r| r.case.cell.label.clone());
    assert_eq!(by_scheme.len(), TORTURE_SCHEMES.len());
    assert_eq!(
        by_scheme.iter().map(|(_, s)| s.cases).sum::<u64>(),
        report.total()
    );
    for (scheme, s) in &by_scheme {
        assert_eq!(s.verdict(), "fail-safe", "{scheme}: {s:?}");
    }
    // The verdict table of `supermem torture --seeds 2`, pinned exactly:
    // (cases, old, new, detected, silent) per scheme.
    let expected: [(&str, Row); 8] = [
        ("Unsec", (168, 123, 9, 36, 0)),
        ("WB", (168, 108, 8, 52, 0)),
        ("WT", (336, 251, 19, 66, 0)),
        ("WT+CWC", (168, 112, 8, 48, 0)),
        ("WT+XBank", (168, 112, 8, 48, 0)),
        ("SuperMem", (336, 249, 21, 66, 0)),
        ("WT+SameBank", (168, 112, 8, 48, 0)),
        ("Osiris", (168, 125, 11, 32, 0)),
    ];
    let got: Vec<(&str, _)> = by_scheme
        .iter()
        .map(|(scheme, s)| (scheme.as_str(), row(s)))
        .collect();
    assert_eq!(got, expected);

    // The verdict table of `supermem torture --tree --seeds 2`.
    let tree = tree_campaign(&[1, 2]).expect("valid frontiers").run();
    let got: Vec<(String, _)> = tree
        .tally_by(|r| r.case.cell.label.clone())
        .iter()
        .map(|(frontier, s)| (frontier.clone(), row(s)))
        .collect();
    assert_eq!(
        got,
        [
            ("L1".to_owned(), (192, 118, 10, 64, 0)),
            ("L2".to_owned(), (192, 118, 10, 64, 0)),
        ]
    );
}

#[test]
fn every_fault_class_leaves_a_trace_somewhere_in_the_sweep() {
    // Mutation-style pin: for each class there must exist a case whose
    // verdict carries the class's evidence — otherwise the injection is
    // wired to a dead path and the campaign proves nothing.
    let evidence = |class: FaultClass| -> bool {
        let campaign = Campaign {
            faults: vec![Fault::Media(class)],
            seeds: vec![1, 2, 3],
            ..torture_campaign(&[Scheme::SuperMem, Scheme::WriteThrough], &[1])
        };
        let report = campaign.run();
        assert!(report.silent().is_empty(), "{class}: silent corruption");
        match class {
            // Destructive classes must surface as detected somewhere.
            FaultClass::Torn | FaultClass::DoubleFlip | FaultClass::BankFail => {
                report.count(Verdict::Detected) > 0
            }
            // Benign-under-ECC classes must still recover everywhere
            // (their traces are counted on the recovery side, which the
            // unit tests pin); here the pin is "no degradation at all".
            FaultClass::BitFlip | FaultClass::StuckAt | FaultClass::TransientRead => report
                .results
                .iter()
                .all(|r| matches!(r.verdict, Verdict::Old | Verdict::New | Verdict::Detected)),
        }
    };
    for class in FaultClass::ALL {
        assert!(evidence(class), "{class}: no trace of the injection");
    }
}

#[test]
fn seeded_cases_are_deterministic() {
    let campaign = torture_campaign(&[Scheme::SuperMem], &[1]);
    let cell = campaign.cells[0].clone();
    let tc = Case {
        point: campaign.crash_points(&cell, 42) / 2,
        cell,
        fault: Fault::Media(FaultClass::Torn),
        seed: 42,
    };
    let a = campaign.run_case(&tc);
    let b = campaign.run_case(&tc);
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.detail, b.detail);
}

#[test]
fn osiris_scheme_survives_torture_through_trial_decryption_recovery() {
    // Osiris takes the counter-reconstruction recovery path; torture it
    // separately so a regression there cannot hide behind the strict
    // schemes' aggregate.
    let campaign = Campaign {
        faults: vec![
            Fault::None,
            Fault::Media(FaultClass::Torn),
            Fault::Media(FaultClass::DoubleFlip),
        ],
        ..torture_campaign(&[Scheme::Osiris], &[1])
    };
    let report = campaign.run();
    assert!(report.silent().is_empty());
    assert!(report.count(Verdict::Old) > 0);
}
