//! Bank-placement ablation (paper Figure 8 / §3.3), runnable demo.
//!
//! Runs the queue workload under the write-through counter cache with
//! each counter placement and prints where writes land and what that
//! does to transaction latency — SingleBank funnels every counter write
//! into one bank, SameBank doubles the load of each data bank, and
//! XBank overlaps the pair in distant banks.
//!
//! Run with: `cargo run --release --example bank_ablation`

use supermem::sim::{Config, CounterPlacement};
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, Scheme};

fn main() {
    println!("queue workload, 1 KB transactions, WT counter cache\n");
    let mut baseline = None;
    for (placement, name) in [
        (CounterPlacement::SingleBank, "SingleBank (Fig. 8a)"),
        (CounterPlacement::SameBank, "SameBank   (Fig. 8b)"),
        (CounterPlacement::CrossBank, "XBank      (Fig. 8c)"),
    ] {
        // The scheme is a preset; the ablation edits one of its knobs.
        let mut cfg = Scheme::WriteThrough.apply(Config::default()).with_seed(1);
        cfg.counter_placement = placement;
        let spec = WorkloadSpec::new(WorkloadKind::Queue).with_txns(150);
        let r = Experiment::new(cfg, spec).expect("valid run").run();
        let lat = r.mean_txn_latency();
        let base = *baseline.get_or_insert(lat);
        let total: u64 = r.stats.bank_writes.iter().sum();
        let shares: Vec<String> = r
            .stats
            .bank_writes
            .iter()
            .map(|&w| format!("{:>3.0}%", 100.0 * w as f64 / total.max(1) as f64))
            .collect();
        println!(
            "{name}: latency {:.2}x, writes per bank [{}]",
            lat / base,
            shares.join(" ")
        );
    }
    println!("\nXBank keeps data and counter writes in different, distant banks,");
    println!("so the two writes of every flush proceed in parallel (paper §3.3).");
}
