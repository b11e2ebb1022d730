//! Integration smoke for the KV differential crash-torture campaign:
//! a reduced grid (one seed per scheme, every fault class, plus a
//! multi-channel slice) that must classify every injection without a
//! single SILENT case. The full 1,764-injection grid is the
//! `kvtorture` figure; this is the CI-sized certificate that
//! the machinery itself — crash arming, fault planning, image capture,
//! recovery, oracle classification — holds together across crates.

use supermem::campaign::{shrink, Campaign, Case, Fault, Subject, Verdict};
use supermem::nvm::FaultClass;
use supermem::Scheme;
use supermem_kv::{kv_campaign, KvSubject};

#[test]
fn reduced_campaign_has_zero_silent_cases() {
    let campaign = Campaign {
        seeds: vec![1],
        ..kv_campaign(&[Scheme::SuperMem, Scheme::WriteThrough], &[1])
    };
    assert_eq!(campaign.subject.ops, 10);
    let report = campaign.run();

    let expected: u64 = campaign
        .cells
        .iter()
        .map(|cell| campaign.crash_points(cell, 1) * campaign.faults.len() as u64)
        .sum();
    assert_eq!(report.total(), expected, "every grid cell executed");
    assert!(
        report.silent().is_empty(),
        "SILENT cases: {:?}",
        report
            .silent()
            .iter()
            .map(|r| campaign.subject.repro(&r.case))
            .collect::<Vec<_>>()
    );
    // The campaign must see all three benign outcomes, or the oracle
    // is vacuous.
    assert!(
        report.count(Verdict::New) > 0,
        "no recovered-committed case"
    );
    assert!(report.count(Verdict::Old) > 0, "no lost-unacked-tail case");
    assert!(report.count(Verdict::Detected) > 0);
    // Crash-only cases never involve media damage, so nothing there
    // may be degraded to "detected": the WAL contract handles a bare
    // crash at any append without data loss beyond the unacked tail.
    let cells = report.tally_by(|r| (r.case.cell.label.clone(), r.case.fault));
    for cell in &campaign.cells {
        let bare = cells
            .iter()
            .find(|((label, fault), _)| *label == cell.label && *fault == Fault::None)
            .map(|(_, t)| *t)
            .unwrap_or_default();
        assert!(bare.cases > 0, "{}: no crash-only cases", cell.label);
        assert_eq!(
            bare.detected, 0,
            "{}: a bare crash must never need a damage signal",
            cell.label
        );
    }
    for (_, s) in report.tally_by(|r| r.case.cell.label.clone()) {
        assert_eq!(s.verdict(), "fail-safe");
        assert_eq!(
            s.cases,
            s.new + s.old + s.detected + s.silent,
            "tallies add up"
        );
    }
}

#[test]
fn multichannel_slice_is_fail_safe_too() {
    let campaign = Campaign {
        subject: KvSubject { ops: 8 },
        faults: vec![
            Fault::None,
            Fault::Media(FaultClass::Torn),
            Fault::Media(FaultClass::BankFail),
        ],
        seeds: vec![2],
        ..kv_campaign(&[Scheme::SuperMem], &[2])
    };
    let report = campaign.run();
    assert!(report.total() > 0);
    assert!(report.silent().is_empty());
}

#[test]
fn campaign_is_deterministic() {
    let campaign = Campaign {
        subject: KvSubject { ops: 8 },
        faults: vec![Fault::None, Fault::Media(FaultClass::Torn)],
        seeds: vec![3],
        ..kv_campaign(&[Scheme::SuperMem], &[1])
    };
    let a = campaign.run();
    let b = campaign.run();
    assert_eq!(a.total(), b.total());
    for (ra, rb) in a.results.iter().zip(&b.results) {
        assert_eq!(ra.case, rb.case);
        assert_eq!(ra.verdict, rb.verdict);
        assert_eq!(ra.detail, rb.detail);
    }
}

#[test]
fn shrink_finds_an_equally_classified_earlier_point() {
    // Pick a detected case from a small sweep and shrink it: the
    // minimized point must reproduce the same verdict.
    let campaign = Campaign {
        faults: vec![Fault::Media(FaultClass::Torn)],
        seeds: vec![1],
        ..kv_campaign(&[Scheme::SuperMem], &[1])
    };
    let report = campaign.run();
    let Some(detected) = report
        .results
        .iter()
        .find(|r| r.verdict == Verdict::Detected)
    else {
        panic!("torn-write sweep produced no detected case to shrink");
    };
    let verdict_at = |point| {
        campaign
            .run_case(&Case {
                point,
                ..detected.case.clone()
            })
            .verdict
    };
    let min_point = shrink(detected.case.point, |p| verdict_at(p) == Verdict::Detected);
    assert!(min_point <= detected.case.point);
    assert_eq!(min_point, campaign.shrink_point(&detected.case));
    assert_eq!(verdict_at(min_point), Verdict::Detected);
}
