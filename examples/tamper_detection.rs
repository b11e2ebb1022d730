//! Active-attacker (bus tampering) detection with the Bonsai Merkle
//! Tree — the defense the paper's §2.2.1 footnote defers to as
//! orthogonal work, provided here as the `supermem-integrity` crate.
//!
//! Encryption alone stops a *passive* attacker (stolen DIMM, bus
//! snooping): the DIMM holds only ciphertext. An *active* attacker can
//! still rewrite NVM bytes; counter-mode decryption would then return
//! garbage silently. Hanging a keyed hash tree over the counter lines
//! (data lines are bound to counters by the encryption itself) turns
//! silent corruption into detected tampering.
//!
//! Run with: `cargo run --example tamper_detection`

use supermem::crypto::CounterLine;
use supermem::integrity::Bmt;
use supermem::nvm::addr::{LineAddr, PageId};
use supermem::persist::PMem;
use supermem::sim::Config;
use supermem::{Scheme, System};

fn main() {
    // A SuperMem system plus an integrity tree over its first 4096
    // counter lines (16 MiB of protected data).
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()).with_seed(99));
    let mut bmt = Bmt::new([0x17; 16], 4096).expect("valid tree shape");
    println!(
        "integrity tree: {} counter lines, height {}",
        bmt.pages(),
        bmt.height()
    );

    // Persist some data, then mirror the resulting counter lines into
    // the tree (a real controller would do this on every counter write).
    for page in 0..8u64 {
        sys.write(page * 4096, &[page as u8 + 1; 128]);
        sys.clwb(page * 4096, 128);
    }
    sys.sfence();
    sys.checkpoint();
    for page in 0..8u64 {
        let ctr = sys.controller().store().read_counter(PageId(page));
        bmt.update(page, &ctr);
    }

    // Normal operation: every counter fetch verifies against the root.
    for page in 0..8u64 {
        let ctr = sys.controller().store().read_counter(PageId(page));
        assert!(bmt.verify(page, &ctr));
    }
    println!("all counter fetches verify against the trusted root");

    // The attack: rewind page 3's counter line to its fresh state (a
    // classic replay attack — re-serving old ciphertext+counter pairs).
    let image = sys.crash_now();
    let mut tampered = image.store.clone();
    tampered.write_counter(PageId(3), CounterLine::new().encode());
    let forged = tampered.read_counter(PageId(3));
    assert!(
        !bmt.verify(3, &forged),
        "the replayed counter must not verify"
    );
    println!("replay attack on page 3's counters: DETECTED (root mismatch)");

    // Decryption without the tree would have silently returned garbage:
    let line = LineAddr(3 * 4096);
    let ctr = CounterLine::decode(&forged);
    let engine = supermem::crypto::EncryptionEngine::new(sys.config().encryption_key());
    let garbage = engine.decrypt_line(&tampered.read_data(line), line.0, ctr.major(), ctr.minor(0));
    assert_ne!(garbage, [4u8; 64]);
    println!(
        "without the tree, the same read silently decrypts to garbage: {:02x?}...",
        &garbage[..6]
    );
}
