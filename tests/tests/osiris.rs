//! Osiris-baseline integration: relaxed counter persistence is
//! recoverable *through ECC reconstruction*, at a recovery cost that
//! grows with the memory footprint — the §6 trade-off against
//! SuperMem's strict (and recovery-free) counter persistence.

use supermem::persist::{recover_transactions, DirectMem, PMem, RecoveredMemory, TxnManager};
use supermem::sim::Config;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Scheme, System};

const DATA: u64 = 0x8000;
const LOG: u64 = 0x20_0000;

#[test]
fn osiris_txn_recovers_at_every_append_boundary_via_ecc() {
    let cfg = Scheme::Osiris.apply(Config::default());
    let mut base = DirectMem::new(&cfg);
    base.persist(DATA, &[0x11; 512]);
    base.shutdown();
    let mutate = |mem: &mut DirectMem| {
        let mut txm = TxnManager::new(LOG, 8192);
        let mut txn = txm.begin();
        txn.write(DATA, vec![0x22; 512]);
        txn.commit(mem).expect("commit");
    };
    let mut dry = base.clone();
    let before = dry.controller().append_events();
    mutate(&mut dry);
    dry.shutdown();
    let total = dry.controller().append_events() - before;

    for k in 1..=total {
        let mut mem = base.clone();
        mem.controller_mut().arm_crash_after_appends(k);
        mutate(&mut mem);
        let image = mem
            .controller_mut()
            .take_machine_crash_image()
            .expect("fired");
        let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, image)
            .unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        assert_eq!(
            rec.osiris_report().unrecoverable_lines,
            0,
            "crash point {k}"
        );
        recover_transactions(&mut rec, LOG).unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        let mut buf = [0u8; 512];
        rec.read(DATA, &mut buf);
        assert!(
            buf == [0x11; 512] || buf == [0x22; 512],
            "crash point {k}: inconsistent state after ECC recovery"
        );
    }
}

#[test]
fn osiris_recovery_cost_scales_with_footprint_supermem_is_free() {
    let cost = |footprint: u64| {
        let cfg = Scheme::Osiris.apply(Config::default());
        let mut sys = System::new(Scheme::Osiris.apply(Config::default()));
        let spec = WorkloadSpec::new(WorkloadKind::Array)
            .with_txns(20)
            .with_req_bytes(256)
            .with_array_footprint(footprint);
        let mut w = spec.build(&mut sys).expect("valid spec");
        for _ in 0..20 {
            w.step(&mut sys).expect("txn");
        }
        RecoveredMemory::from_machine_image_checked(&cfg, sys.machine_crash_now())
            .expect("image recovers")
            .osiris_report()
            .trial_decryptions
    };
    let small = cost(128 << 10);
    let large = cost(1 << 20);
    assert!(
        large > small * 4,
        "Osiris recovery must scale with footprint: {small} vs {large}"
    );
}

#[test]
fn osiris_runtime_beats_write_through() {
    // Osiris' selling point: deferring counters buys back most of WT's
    // overhead (SuperMem achieves the same without a recovery scan).
    let lat = |scheme: Scheme| {
        let cfg = scheme.apply(Config::default()).with_seed(1);
        let spec = WorkloadSpec::new(WorkloadKind::Queue).with_txns(60);
        supermem::Experiment::new(cfg, spec)
            .unwrap()
            .run()
            .mean_txn_latency()
    };
    let wt = lat(Scheme::WriteThrough);
    let osiris = lat(Scheme::Osiris);
    assert!(
        osiris < wt * 0.8,
        "Osiris ({osiris:.0}) must clearly beat WT ({wt:.0})"
    );
}
