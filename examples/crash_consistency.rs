//! Crash-consistency demonstration (paper Table 1 and Figure 6, condensed).
//!
//! Shows why counter atomicity matters: the same atomic in-place update
//! is crashed at its single most dangerous point under three designs.
//! With SuperMem's write-through counter cache and staging register the
//! line always decrypts; without the register (Figure 6) or with an
//! unbacked write-back counter cache (Table 1) it can come back as
//! garbage.
//!
//! Run with: `cargo run --example crash_consistency`

use supermem::persist::{DirectMem, PMem, RecoveredMemory};
use supermem::sim::{Config, CounterCacheBacking, CounterCacheMode};
use supermem::Scheme;

const ADDR: u64 = 0x4000;
const OLD: u64 = 0xAAAA_AAAA_AAAA_AAAA;
const NEW: u64 = 0xBBBB_BBBB_BBBB_BBBB;

fn demo(name: &str, cfg: &Config) {
    // Durable old state.
    let mut mem = DirectMem::new(cfg);
    mem.persist(ADDR, &OLD.to_le_bytes());
    mem.shutdown();

    // Crash on the very first append of the update: under the atomic
    // register this is the whole data+counter pair; without it, it is
    // the counter alone — the Figure 6 window.
    mem.controller_mut().arm_crash_after_appends(1);
    mem.persist(ADDR, &NEW.to_le_bytes());
    let image = mem
        .controller_mut()
        .take_machine_crash_image()
        .expect("crash fired");

    let mut rec = RecoveredMemory::from_machine_image_checked(cfg, image).expect("image recovers");
    let value = rec.read_u64(ADDR);
    let outcome = match value {
        OLD => "consistent (old value)".to_owned(),
        NEW => "consistent (new value)".to_owned(),
        other => format!("GARBAGE {other:#018x} — unrecoverable"),
    };
    println!("{name:<24} -> {outcome}");
}

fn main() {
    println!("atomic 8-byte in-place update, crash at the first append event\n");

    demo("SuperMem", &Scheme::SuperMem.apply(Config::default()));

    let mut no_register = Scheme::WriteThrough.apply(Config::default());
    no_register.atomic_pair_append = false;
    demo("WT without register", &no_register);

    let wb_unbacked = Config {
        encryption: true,
        counter_cache_mode: CounterCacheMode::WriteBack,
        counter_cache_backing: CounterCacheBacking::None,
        ..Config::default()
    };
    demo("WB without battery", &wb_unbacked);

    println!("\nSuperMem's staging register appends data and counter as one");
    println!("ADR event, so every crash point leaves a decryptable NVM image.");
}
