//! Trace-driven what-if analysis.
//!
//! Records the B-tree workload's memory trace once, serializes it,
//! and replays the identical traffic through three machine
//! configurations — the methodology behind the `tracebench` harness.
//!
//! Run with: `cargo run --release --example trace_replay`

use supermem::sim::Config;
use supermem::trace::{decode, encode};
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, Scheme};

fn main() {
    let spec = WorkloadSpec::new(WorkloadKind::BTree)
        .with_txns(100)
        .with_req_bytes(1024);
    let machine = |scheme: Scheme| scheme.apply(Config::default()).with_seed(1);
    let session = |scheme| Experiment::new(machine(scheme), spec.clone()).expect("valid run");

    // Capture once, against a purely functional memory (fast).
    let trace = session(Scheme::SuperMem).record_trace();
    let bytes = encode(&trace);
    println!(
        "recorded {} events ({} KiB serialized) for {} transactions",
        trace.len(),
        bytes.len() / 1024,
        spec.txns
    );

    // The serialized form round-trips (a trace can be shipped to disk).
    let trace = decode(&bytes).expect("self-produced trace decodes");

    // Replay through three machines.
    for scheme in [Scheme::Unsec, Scheme::WriteThrough, Scheme::SuperMem] {
        let r = session(scheme).replay(&trace);
        println!(
            "{:<10} mean txn latency {:>7.0} cycles, {} NVM writes, {} coalesced",
            scheme.name(),
            r.mean_txn_latency(),
            r.nvm_writes(),
            r.stats.counter_writes_coalesced
        );
    }
    println!("\nIdentical traffic, different memory systems: the gap is pure");
    println!("counter-handling overhead — what SuperMem eliminates.");
}
