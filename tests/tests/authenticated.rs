//! Authenticated-mode integration: the integrity tree wired into the
//! timed controller detects active DIMM tampering across a crash, at a
//! measurable (small) runtime cost.

use supermem::crypto::CounterLine;
use supermem::nvm::addr::PageId;
use supermem::persist::{PMem, RecoveredMemory, RecoveryError, TreeRebuild};
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
    let rec = RecoveredMemory::from_machine_image_checked(&cfg, sys.machine_crash_now())
        .unwrap_or_else(|e| panic!("clean image must verify, got {e}"));
    assert_eq!(rec.tree_rebuild().counter_lines_checked, 8);
}

#[test]
fn counter_rollback_attack_is_detected() {
    let mut sys = auth_system();
    sys.write(0x3000, &[9u8; 64]);
    sys.clwb(0x3000, 64);
    sys.sfence();
    sys.checkpoint();
    let cfg = sys.config().clone();
    let mut image = sys.machine_crash_now();
    // The attacker rewinds page 3's counter line to fresh (a replay of
    // old DIMM contents).
    image.channels[0]
        .store
        .write_counter(PageId(3), CounterLine::new().encode());
    let err = RecoveredMemory::from_machine_image_checked(&cfg, image).unwrap_err();
    assert!(
        matches!(err, RecoveryError::DetectedCorrupt(_)),
        "got {err:?}"
    );
    assert!(err.to_string().contains("integrity root mismatch"));
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
    let mut image = sys.machine_crash_now();
    let store = &mut image.channels[0].store;
    let line = supermem::nvm::addr::LineAddr(0x3000);
    let mut cipher = store.read_data(line);
    cipher[0] ^= 0xFF;
    store.write_data(line, cipher);
    // Tree still clean (counters untouched)...
    let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, image)
        .unwrap_or_else(|e| panic!("the tree guards only counters, got {e}"));
    // ...but the data no longer decrypts to what was written.
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
fn unauthenticated_images_recover_without_a_tree_rebuild() {
    let sys = System::new(Scheme::SuperMem.apply(Config::default()));
    let cfg = sys.config().clone();
    let rec = RecoveredMemory::from_machine_image_checked(&cfg, sys.machine_crash_now())
        .unwrap_or_else(|e| panic!("an image without a root recovers, got {e}"));
    assert_eq!(rec.tree_rebuild(), &TreeRebuild::default());
    assert_eq!(rec.recovery_cycles(), 0);
}
