//! Quickstart: build a SuperMem system, persist data through the
//! encrypted NVM, crash it, and recover.
//!
//! Run with: `cargo run --example quickstart`

use supermem::persist::{PMem, RecoveredMemory};
use supermem::sim::Config;
use supermem::{Scheme, System};

fn main() {
    // A full secure-PM machine with the paper's Table 2 configuration:
    // 8 banks of PCM behind a 32-entry ADR write queue, a 256 KB
    // write-through counter cache, counter write coalescing, and
    // cross-bank counter storage.
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()).with_seed(42));

    // Ordinary persistent-memory programming: store, flush, fence.
    let message = b"SuperMem: application-transparent secure persistent memory";
    sys.write(0x1000, message);
    sys.clwb(0x1000, message.len() as u64);
    sys.sfence();

    // Reads decrypt transparently through the counter-mode engine.
    let mut buf = vec![0u8; message.len()];
    sys.read(0x1000, &mut buf);
    assert_eq!(&buf, message);
    println!(
        "read back through the hierarchy: {:?}",
        String::from_utf8_lossy(&buf)
    );

    // The NVM DIMM itself holds only ciphertext: a thief learns nothing.
    let line = supermem::nvm::addr::LineAddr(0x1000);
    let raw = sys.controller().store().read_data(line);
    // (The line may still be queued; drain so the DIMM view is current.)
    let raw = if raw == [0u8; 64] {
        let image = sys.machine_crash_now().merged();
        image.store.read_data(line)
    } else {
        raw
    };
    assert_ne!(
        &raw[..message.len().min(64)],
        &message[..message.len().min(64)]
    );
    println!("DIMM bytes are ciphertext: {:02x?}...", &raw[..8]);

    // Power failure: volatile state is gone, the ADR domain survives,
    // and recovery decrypts with the persisted counters.
    let image = sys.machine_crash_now();
    let cfg = sys.config().clone();
    let mut recovered =
        RecoveredMemory::from_machine_image_checked(&cfg, image).expect("image recovers");
    let mut buf = vec![0u8; message.len()];
    recovered.read(0x1000, &mut buf);
    assert_eq!(&buf, message);
    println!("recovered after crash: {:?}", String::from_utf8_lossy(&buf));

    // Simulation statistics (drain the write queue first so the write
    // counters are final).
    sys.checkpoint();
    let s = sys.stats();
    println!(
        "stats: {} NVM data writes, {} counter writes, {} coalesced, core at cycle {}",
        s.nvm_data_writes,
        s.nvm_counter_writes,
        s.counter_writes_coalesced,
        sys.now()
    );
}
