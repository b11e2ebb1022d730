//! Security-property integration tests: what an attacker with physical
//! access to the DIMM (stolen DIMM / bus snooping, paper §2.2.1) can
//! and cannot learn.

use supermem::persist::PMem;
use supermem::sim::Config;
use supermem::{Scheme, System};

fn flushed_dimm_bytes(scheme: Scheme, addr: u64, data: &[u8]) -> [u8; 64] {
    let mut sys = System::new(scheme.apply(Config::default()).with_seed(11));
    sys.write(addr, data);
    sys.clwb(addr, data.len() as u64);
    sys.sfence();
    let image = sys.crash_now();
    image
        .store
        .read_data(supermem::nvm::addr::LineAddr(addr & !63))
}

#[test]
fn dimm_holds_ciphertext_when_encrypted() {
    let secret = [0x41u8; 64]; // 'A' x 64
    let raw = flushed_dimm_bytes(Scheme::SuperMem, 0x1000, &secret);
    assert_ne!(raw, secret, "plaintext must never reach the DIMM");
}

#[test]
fn unsec_dimm_holds_plaintext() {
    let secret = [0x41u8; 64];
    let raw = flushed_dimm_bytes(Scheme::Unsec, 0x1000, &secret);
    assert_eq!(
        raw, secret,
        "the Unsec baseline is deliberately unprotected"
    );
}

#[test]
fn equal_lines_have_unequal_ciphertexts() {
    // Dictionary-attack resistance across addresses (Figure 1b/1c): two
    // lines with identical contents must encrypt differently.
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()));
    let data = [0x42u8; 64];
    sys.write(0x1000, &data);
    sys.write(0x2000, &data);
    sys.clwb(0x1000, 64);
    sys.clwb(0x2000, 64);
    sys.sfence();
    let image = sys.crash_now();
    let a = image.store.read_data(supermem::nvm::addr::LineAddr(0x1000));
    let b = image.store.read_data(supermem::nvm::addr::LineAddr(0x2000));
    assert_ne!(a, b, "same plaintext at different addresses must differ");
}

#[test]
fn rewriting_same_value_changes_ciphertext() {
    // Replay/dictionary resistance in time (Figure 1c): consecutive
    // writes of the same value to the same line use fresh minors.
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()));
    let data = [0x43u8; 64];
    sys.write(0x3000, &data);
    sys.clwb(0x3000, 64);
    sys.sfence();
    let first = sys
        .crash_now()
        .store
        .read_data(supermem::nvm::addr::LineAddr(0x3000));
    // Touch and rewrite the identical bytes.
    sys.write(0x3000, &[0u8; 64]);
    sys.clwb(0x3000, 64);
    sys.sfence();
    sys.write(0x3000, &data);
    sys.clwb(0x3000, 64);
    sys.sfence();
    let second = sys
        .crash_now()
        .store
        .read_data(supermem::nvm::addr::LineAddr(0x3000));
    assert_ne!(first, second, "counter-mode must never reuse a pad");
}

#[test]
fn different_seeds_produce_unrelated_ciphertexts() {
    // The per-machine key is derived from the seed; two machines never
    // share pads.
    let a = flushed_dimm_bytes(Scheme::SuperMem, 0x1000, &[9u8; 64]);
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()).with_seed(999));
    sys.write(0x1000, &[9u8; 64]);
    sys.clwb(0x1000, 64);
    sys.sfence();
    let b = sys
        .crash_now()
        .store
        .read_data(supermem::nvm::addr::LineAddr(0x1000));
    assert_ne!(a, b);
}

#[test]
fn counters_are_not_secret_but_data_is() {
    // Counters are stored raw (they need no confidentiality); data is
    // not. Verify the split: the counter region decodes to sane minors,
    // while the data region is indistinguishable from noise relative to
    // the plaintext.
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()));
    sys.write(0x5000, &[1u8; 64]);
    sys.clwb(0x5000, 64);
    sys.sfence();
    let image = sys.crash_now();
    let page = supermem::nvm::addr::PageId(0x5000 / 4096);
    let ctr = supermem::crypto::CounterLine::decode(&image.store.read_counter(page));
    // 0x5000 is the first line of its page: minor index 0.
    assert_eq!(ctr.minor(0), 1, "counter readable in the clear");
}
