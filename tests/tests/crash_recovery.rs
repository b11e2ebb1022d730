//! Crash-recovery integration: sweeping power failures over every
//! write-queue append boundary and checking that recovery always lands
//! in a transaction-consistent state under SuperMem — and demonstrably
//! does not under the broken baselines.

use supermem::persist::{recover_transactions, DirectMem, PMem, RecoveredMemory, TxnManager};
use supermem::sim::{Config, CounterCacheBacking, CounterCacheMode};
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Scheme, System};

const DATA: u64 = 0x8000;
const LOG: u64 = 0x20_0000;

/// Runs `mutate` against a durable base image, crashing after `k`
/// appends, and returns the recovered view.
fn crash_at(
    cfg: &Config,
    base: &DirectMem,
    k: u64,
    mutate: impl Fn(&mut DirectMem),
) -> RecoveredMemory {
    let mut mem = base.clone();
    mem.controller_mut().arm_crash_after_appends(k);
    mutate(&mut mem);
    let image = mem
        .controller_mut()
        .take_machine_crash_image()
        .expect("armed crash must fire");
    RecoveredMemory::from_machine_image_checked(cfg, image).expect("image recovers")
}

fn append_count(base: &DirectMem, mutate: impl Fn(&mut DirectMem)) -> u64 {
    let mut dry = base.clone();
    let before = dry.controller().append_events();
    mutate(&mut dry);
    dry.shutdown();
    dry.controller().append_events() - before
}

#[test]
fn supermem_txn_recovers_at_every_append_boundary() {
    let cfg = Scheme::SuperMem.apply(Config::default());
    let mut base = DirectMem::new(&cfg);
    base.persist(DATA, &[0x11; 512]);
    base.shutdown();
    let mutate = |mem: &mut DirectMem| {
        let mut txm = TxnManager::new(LOG, 8192);
        let mut txn = txm.begin();
        txn.write(DATA, vec![0x22; 512]);
        txn.commit(mem).expect("commit");
    };
    let total = append_count(&base, mutate);
    assert!(total > 10, "expected a meaningful number of crash points");
    let mut saw_old = false;
    let mut saw_new = false;
    for k in 1..=total {
        let mut rec = crash_at(&cfg, &base, k, mutate);
        recover_transactions(&mut rec, LOG).unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        let mut buf = [0u8; 512];
        rec.read(DATA, &mut buf);
        if buf == [0x11; 512] {
            saw_old = true;
        } else if buf == [0x22; 512] {
            saw_new = true;
        } else {
            panic!("crash point {k}: recovered state is neither old nor new");
        }
    }
    assert!(saw_old, "early crashes must roll back");
    assert!(
        saw_new,
        "the final crash point must show the committed state"
    );
}

#[test]
fn multi_record_txn_is_atomic_across_crashes() {
    // Three disjoint ranges updated in one transaction: recovery must
    // never surface a mix of old and new across them.
    let cfg = Scheme::SuperMem.apply(Config::default());
    let ranges: [(u64, u8, u8); 3] = [(0x8000, 1, 2), (0x9000, 3, 4), (0xA000, 5, 6)];
    let mut base = DirectMem::new(&cfg);
    for (addr, old, _) in ranges {
        base.persist(addr, &[old; 128]);
    }
    base.shutdown();
    let mutate = |mem: &mut DirectMem| {
        let mut txm = TxnManager::new(LOG, 8192);
        let mut txn = txm.begin();
        for (addr, _, new) in ranges {
            txn.write(addr, vec![new; 128]);
        }
        txn.commit(mem).expect("commit");
    };
    let total = append_count(&base, mutate);
    for k in 1..=total {
        let mut rec = crash_at(&cfg, &base, k, mutate);
        recover_transactions(&mut rec, LOG).unwrap_or_else(|e| panic!("crash point {k}: {e}"));
        let mut versions = Vec::new();
        for (addr, old, new) in ranges {
            let mut buf = [0u8; 128];
            rec.read(addr, &mut buf);
            if buf == [old; 128] {
                versions.push("old");
            } else if buf == [new; 128] {
                versions.push("new");
            } else {
                panic!("crash point {k}: range {addr:#x} is garbage");
            }
        }
        versions.dedup();
        assert_eq!(
            versions.len(),
            1,
            "crash point {k}: torn transaction {versions:?}"
        );
    }
}

#[test]
fn unbacked_write_back_cache_is_not_crash_consistent() {
    // The negative control for the sweep above (Table 1's "No" rows).
    let cfg = Config {
        encryption: true,
        counter_cache_mode: CounterCacheMode::WriteBack,
        counter_cache_backing: CounterCacheBacking::None,
        ..Config::default()
    };
    let mut base = DirectMem::new(&cfg);
    base.persist(DATA, &[0x11; 512]);
    base.shutdown();
    let mutate = |mem: &mut DirectMem| {
        let mut txm = TxnManager::new(LOG, 8192);
        let mut txn = txm.begin();
        txn.write(DATA, vec![0x22; 512]);
        txn.commit(mem).expect("commit");
    };
    let total = append_count(&base, mutate);
    let mut garbage = 0;
    for k in 1..=total {
        let mut rec = crash_at(&cfg, &base, k, mutate);
        // An undecryptable log may legitimately surface as a torn-log
        // error here: this scheme is the negative control.
        let _ = recover_transactions(&mut rec, LOG);
        let mut buf = [0u8; 512];
        rec.read(DATA, &mut buf);
        if buf != [0x11; 512] && buf != [0x22; 512] {
            garbage += 1;
        }
    }
    assert!(
        garbage > 0,
        "losing dirty counters must corrupt some crash points"
    );
}

#[test]
fn workload_crash_mid_run_leaves_decryptable_structures() {
    // Run the queue workload on the full timed system, crash mid-run,
    // and check the recovered header and items decrypt to plausible
    // values (indices within bounds, monotone).
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()).with_seed(3));
    let cfg = sys.config().clone();
    let spec = WorkloadSpec::new(WorkloadKind::Queue)
        .with_txns(50)
        .with_req_bytes(256);
    let mut w = spec.build(&mut sys).expect("valid spec");
    sys.checkpoint();
    sys.arm_crash_after_appends(123);
    for _ in 0..50 {
        w.step(&mut sys).expect("txn");
    }
    let image = sys.take_machine_crash_image().expect("crash fired mid-run");
    let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, image).expect("image recovers");
    // Queue layout: log (2*256+4096 bytes) then the header line.
    let header = 2 * 256 + 4096;
    let head = rec.read_u64(header);
    let tail = rec.read_u64(header + 8);
    assert!(tail >= head, "indices must be ordered: {head} {tail}");
    assert!(tail - head <= 1024, "length must be within capacity");
    assert!(tail <= 100, "tail cannot exceed committed enqueues");
}

#[test]
fn recovery_completes_interrupted_page_reencryption() {
    // Overflow a minor counter so a page re-encryption starts, crash in
    // the middle, and confirm the RSR-driven recovery restores every
    // line of the page.
    let cfg = Scheme::SuperMem.apply(Config::default());
    let mut base = DirectMem::new(&cfg);
    base.persist(0x0, &[0x77; 64]); // bystander line in page 0
    base.persist(0x1000, &[0x66; 64]); // bystander in page 1
    base.shutdown();

    let mut mem = base.clone();
    // Hammer one line of page 0 up to the overflow (127 minors), then
    // arm a crash inside the 64-line rewrite.
    for i in 0..127u32 {
        mem.persist(0x40, &i.to_le_bytes());
    }
    mem.controller_mut().arm_crash_after_appends(20);
    mem.persist(0x40, &[0xFF; 8]);
    mem.persist(0x80, &[0xEE; 8]);
    let image = mem
        .controller_mut()
        .take_machine_crash_image()
        .expect("crash fired");
    let mut rec = RecoveredMemory::from_machine_image_checked(&cfg, image).expect("image recovers");
    let mut buf = [0u8; 64];
    rec.read(0x0, &mut buf);
    assert_eq!(buf, [0x77; 64], "page-0 bystander must survive");
    rec.read(0x1000, &mut buf);
    assert_eq!(buf, [0x66; 64], "other pages must be untouched");
}
