//! A durable key-value store over encrypted NVM.
//!
//! Runs the paper's B-tree workload scenario end-to-end: transactional
//! inserts of 1 KB key-value items into a persistent B-tree, a power
//! failure in the middle of the run, recovery, and a functional
//! re-read of the committed data — all under the full SuperMem scheme.
//!
//! Run with: `cargo run --example kv_store_txn`

use supermem::persist::{PMem, RecoveredMemory};
use supermem::sim::Config;
use supermem::workloads::BTreeWorkload;
use supermem::{Scheme, System};

fn main() {
    let mut sys = System::new(Scheme::SuperMem.apply(Config::default()).with_seed(7));

    // A B-tree KV store in a 256 MiB region: 1 KB values out of line,
    // every insert a durable undo-logged transaction.
    let mut kv = BTreeWorkload::new(&mut sys, 0, 1 << 28, 1024, 7);
    for key in 0..200u64 {
        let value = vec![(key % 251) as u8; 1000];
        kv.insert(&mut sys, key, value).expect("insert");
    }
    kv.verify(&mut sys).expect("tree consistent");
    println!(
        "inserted {} items in {} committed transactions (cycle {})",
        kv.len(),
        kv.committed(),
        sys.now()
    );

    // Pull the plug. Everything committed must survive; the B-tree's
    // durable root pointer and nodes decrypt through the persisted
    // counters.
    let cfg = sys.config().clone();
    let image = sys.crash_now();
    let mut recovered = RecoveredMemory::from_image(&cfg, image);

    // Functional re-read: walk a few keys by consulting the recovered
    // bytes directly (header at region start holds the root pointer).
    // The workload's own verify requires its shadow, so here we spot
    // check values by recomputing what was inserted.
    for key in [0u64, 17, 99, 199] {
        let value = lookup(&mut recovered, key).expect("key must survive the crash");
        assert_eq!(value, vec![(key % 251) as u8; 1000]);
        println!(
            "key {key:3} -> {} bytes, first byte {}",
            value.len(),
            value[0]
        );
    }
    println!("all spot-checked keys recovered intact");
}

/// Minimal read-only B-tree lookup against recovered memory, using the
/// same node layout as [`BTreeWorkload`] (meta at +0, keys at +8,
/// values at +128, children at +248; the region header holds the root).
fn lookup(mem: &mut RecoveredMemory, key: u64) -> Option<Vec<u8>> {
    // Region layout from BTreeWorkload::new: log (4*1024+8192 bytes),
    // then the 64-byte header holding the root pointer.
    let header = 4 * 1024 + 8192;
    let mut node = mem.read_u64(header);
    for _ in 0..64 {
        let meta = mem.read_u64(node);
        let leaf = meta >> 63 == 1;
        let count = (meta & 0xFFFF_FFFF) as usize;
        let mut keys = Vec::with_capacity(count);
        for i in 0..count {
            keys.push(mem.read_u64(node + 8 + 8 * i as u64));
        }
        match keys.binary_search(&key) {
            Ok(pos) => {
                let vaddr = mem.read_u64(node + 128 + 8 * pos as u64);
                let len = mem.read_u64(vaddr) as usize;
                let mut value = vec![0u8; len];
                mem.read(vaddr + 8, &mut value);
                return Some(value);
            }
            Err(pos) => {
                if leaf {
                    return None;
                }
                node = mem.read_u64(node + 248 + 8 * pos as u64);
            }
        }
    }
    None
}
