//! Authenticated-mode integration: the integrity tree wired into the
//! timed controller detects active DIMM tampering across a crash, at a
//! measurable (small) runtime cost.

use supermem::crypto::CounterLine;
use supermem::nvm::addr::PageId;
use supermem::persist::{verify_image_integrity, IntegrityVerdict, PMem};
use supermem::sim::Config;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, Scheme, System};

fn auth_system() -> System {
    let mut cfg = Scheme::SuperMem.apply(Config::default());
    cfg.integrity_tree = true;
    System::new(cfg)
}

#[test]
fn clean_crash_image_verifies() {
    let mut sys = auth_system();
    for p in 0..8u64 {
        sys.write(p * 4096, &[p as u8 + 1; 256]);
        sys.clwb(p * 4096, 256);
    }
    sys.sfence();
    sys.checkpoint();
    let cfg = sys.config().clone();
    let mut image = sys.crash_now();
    let verdict = verify_image_integrity(&cfg, &mut image).unwrap();
    let IntegrityVerdict::Clean { rebuild } = verdict else {
        panic!("clean image must verify, got {verdict:?}");
    };
    assert_eq!(rebuild.counter_lines_checked, 8);
    assert!(rebuild.root_matches);
}

#[test]
fn counter_rollback_attack_is_detected() {
    let mut sys = auth_system();
    sys.write(0x3000, &[9u8; 64]);
    sys.clwb(0x3000, 64);
    sys.sfence();
    sys.checkpoint();
    let cfg = sys.config().clone();
    let mut image = sys.crash_now();
    // The attacker rewinds page 3's counter line to fresh (a replay of
    // old DIMM contents).
    image
        .store
        .write_counter(PageId(3), CounterLine::new().encode());
    assert_eq!(
        verify_image_integrity(&cfg, &mut image).unwrap(),
        IntegrityVerdict::Tampered
    );
}

#[test]
fn data_only_tampering_is_caught_by_decryption_not_tree() {
    // The Bonsai argument: data lines need no tree because the cipher
    // binds them to counters; flipping ciphertext yields garbage
    // plaintext, detectable by any content check — while the counter
    // region is what the tree guards.
    let mut sys = auth_system();
    sys.write(0x3000, &[9u8; 64]);
    sys.clwb(0x3000, 64);
    sys.sfence();
    sys.checkpoint();
    let cfg = sys.config().clone();
    let mut image = sys.crash_now();
    let line = supermem::nvm::addr::LineAddr(0x3000);
    let mut cipher = image.store.read_data(line);
    cipher[0] ^= 0xFF;
    image.store.write_data(line, cipher);
    // Tree still clean (counters untouched)...
    assert!(matches!(
        verify_image_integrity(&cfg, &mut image).unwrap(),
        IntegrityVerdict::Clean { .. }
    ));
    // ...but the data no longer decrypts to what was written.
    let mut rec = supermem::persist::RecoveredMemory::from_image(&cfg, image);
    let mut buf = [0u8; 64];
    rec.read(0x3000, &mut buf);
    assert_ne!(buf, [9u8; 64]);
}

#[test]
fn verification_happens_on_counter_fetches_and_costs_little() {
    let spec = WorkloadSpec::new(WorkloadKind::HashTable)
        .with_txns(60)
        .with_req_bytes(256);
    let run = |integrity_tree: bool| {
        let cfg = Scheme::SuperMem
            .apply(Config::default())
            .with_seed(1)
            .with_counter_cache_bytes(1 << 10) // tiny cache: frequent NVM fetches
            .with_integrity_tree(integrity_tree);
        Experiment::new(cfg, spec.clone()).unwrap().run()
    };
    let plain = run(false);
    let auth = run(true);
    assert!(
        auth.stats.integrity_verifications > 0,
        "cold counter fetches must verify"
    );
    assert_eq!(auth.stats.integrity_violations, 0);
    let overhead = auth.mean_txn_latency() / plain.mean_txn_latency();
    assert!(
        overhead < 1.2,
        "authentication on counter misses must stay cheap, got {overhead:.2}x"
    );
}

#[test]
fn unauthenticated_images_report_a_usable_error() {
    let sys = System::new(Scheme::SuperMem.apply(Config::default()));
    let cfg = sys.config().clone();
    let err = verify_image_integrity(&cfg, &mut sys.crash_now()).unwrap_err();
    assert!(err.contains("integrity_tree"));
}
