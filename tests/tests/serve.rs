//! Serving-engine integration: open-loop determinism across reruns and
//! channel widths, persistency-ordering cleanliness of the
//! shared-structure protocols, and the CAS-window torture campaign,
//! exercised across crate boundaries the way `supermem serve` wires
//! them.

use supermem::campaign::{Campaign, Fault, Subject, Verdict};
use supermem::nvm::FaultClass;
use supermem::Scheme;
use supermem_check::Checker;
use supermem_serve::{run_serve, run_serve_observed, serve_campaign, ServeConfig, StructureKind};

fn quick(structure: StructureKind) -> ServeConfig {
    ServeConfig {
        structure,
        cores: 4,
        requests: 48,
        mean_gap: 150,
        region_len: 1 << 18,
        ..ServeConfig::default()
    }
}

#[test]
fn open_loop_runs_are_deterministic_across_reruns() {
    for structure in StructureKind::ALL {
        let cfg = quick(structure);
        let a = run_serve(&cfg).unwrap();
        let b = run_serve(&cfg).unwrap();
        assert_eq!(a.digest, b.digest, "{structure}: same seed, same op stream");
        assert_eq!(
            (a.p50, a.p99, a.p999, a.max, a.total_cycles),
            (b.p50, b.p99, b.p999, b.max, b.total_cycles),
            "{structure}: same seed, same tail table and timing"
        );
    }
}

#[test]
fn multi_channel_serving_is_deterministic_and_verified() {
    for channels in [2, 4] {
        let mut cfg = quick(StructureKind::Queue);
        cfg.channels = channels;
        let a = run_serve(&cfg).unwrap();
        let b = run_serve(&cfg).unwrap();
        assert_eq!(a.digest, b.digest, "channels={channels}");
        assert!(a.verified, "channels={channels}");
        assert_eq!(a.completed, 48, "channels={channels}");
    }
}

#[test]
fn shared_structure_protocols_are_checker_clean() {
    // The recoverable-CAS protocols persist from several cores into one
    // region; every data line must still ride with its counter
    // (write-through P-rules), and any core's fence may be the one that
    // exposes a violation. A clean report here is the cross-core
    // arming guarantee.
    for structure in StructureKind::ALL {
        let cfg = quick(structure);
        let checker = Checker::for_config(&cfg.machine_config());
        let (report, observers) = run_serve_observed(&cfg, vec![Box::new(checker)]).unwrap();
        assert_eq!(report.completed, 48, "{structure}");

        let mut found = false;
        for mut obs in observers {
            if let Some(c) = obs.as_any_mut().downcast_mut::<Checker>() {
                let rep = c.take_report();
                assert!(
                    rep.is_clean(),
                    "{structure}: persistency-ordering violation under serving: {rep}"
                );
                assert!(rep.events_seen > 0, "{structure}: checker saw no events");
                found = true;
            }
        }
        assert!(found, "{structure}: checker observer was not returned");
    }
}

#[test]
fn degraded_serving_stays_deterministic() {
    let cfg = ServeConfig {
        degraded_bank: Some(0),
        ..quick(StructureKind::Stack)
    };
    let a = run_serve(&cfg).unwrap();
    let b = run_serve(&cfg).unwrap();
    assert_eq!(a.digest, b.digest);
    assert!(!a.verified);
    assert_eq!(a.completed, 48);
    assert!(a.poisoned_reads + a.dropped_writes > 0);
}

#[test]
fn cas_window_torture_has_no_silent_corruption() {
    // Cross-crate smoke of the full campaign shape: every structure,
    // crash-only plus one power-event and one media fault class.
    let campaign = Campaign {
        faults: vec![
            Fault::None,
            Fault::Media(FaultClass::Torn),
            Fault::Media(FaultClass::DoubleFlip),
        ],
        seeds: vec![1],
        ..serve_campaign(&[Scheme::SuperMem], &StructureKind::ALL)
    };
    let report = campaign.run();
    assert!(report.total() > 0);
    assert!(
        report.silent().is_empty(),
        "silent corruption: {}",
        campaign.subject.repro(&report.silent()[0].case)
    );
    // The crash-only slice must recover an oracle state on both sides
    // of the linearization point.
    assert!(report.count(Verdict::Old) > 0);
    assert!(report.count(Verdict::New) > 0);

    // The verdict table of `supermem serve --torture --seeds 2`, pinned
    // exactly: (cases, old, new, detected, silent) per structure.
    let full = serve_campaign(&[Scheme::SuperMem], &StructureKind::ALL).run();
    let got: Vec<(String, _)> = full
        .tally_by(|r| r.case.cell.1.to_string())
        .into_iter()
        .map(|(k, t)| (k, (t.cases, t.old, t.new, t.detected, t.silent)))
        .collect();
    assert_eq!(
        got,
        [
            ("stack".to_owned(), (49, 17, 18, 14, 0)),
            ("queue".to_owned(), (56, 18, 25, 13, 0)),
            ("hash".to_owned(), (56, 24, 20, 12, 0)),
        ]
    );
}
