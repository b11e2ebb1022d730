//! End-to-end scheme benchmarks: one full workload run per scheme,
//! reporting host wall time. The *simulated* results (the paper's
//! figures) come from the `fig13`..`fig17` binaries; this bench tracks
//! the cost of producing them.

use std::hint::black_box;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{Experiment, Scheme};
use supermem_bench::machine;
use supermem_bench::micro::Harness;

fn main() {
    let mut h = Harness::new("schemes");

    for scheme in supermem::scheme::FIGURE_SCHEMES {
        h.bench(&format!("run_single/queue/{}", scheme.name()), || {
            let exp = Experiment::new(
                machine(scheme),
                WorkloadSpec::new(WorkloadKind::Queue).with_txns(50),
            );
            black_box(exp.expect("valid run").run_single())
        });
    }

    for kind in supermem::workloads::spec::ALL_KINDS {
        h.bench(&format!("run_single/supermem/{}", kind.name()), || {
            let spec = WorkloadSpec::new(kind)
                .with_txns(50)
                .with_array_footprint(1 << 20);
            let exp = Experiment::new(machine(Scheme::SuperMem), spec);
            black_box(exp.expect("valid run").run_single())
        });
    }

    h.finish();
}
