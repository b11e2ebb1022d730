//! `steady-write`: SuperMem under a stream of 1 KiB array-swap
//! transactions over a 32 MiB footprint (8x the L3, 2x the counter
//! cache's reach), closed loop on one core. Almost all the work is the
//! flush path: clwb, counter cache and CWC, AES, write queue, banks.

use supermem::sim::Config;
use supermem::workloads::{AnyWorkload, WorkloadKind, WorkloadSpec};
use supermem::{Scheme, System};

use super::{
    attach_observers, machine_finish, machine_window, Batch, Observed, Sim, Size, Workload,
};
use crate::trace::{span, Mem, Tracer};

pub struct SteadyWrite {
    m: Mem,
    w: AnyWorkload,
    batch: u64,
    start_cycle: u64,
    ops: u64,
}

impl Workload for SteadyWrite {
    fn window_batches(_: Size) -> u64 {
        20
    }

    fn setup(seed: u64, size: Size, mut tr: Option<Tracer>) -> Result<Self, String> {
        let mut cfg = Scheme::SuperMem.apply(Config::default()).with_seed(seed);
        cfg.cores = 1;
        let sys = span(&mut tr, "system.new", || System::new(cfg));
        let mut m = Mem::new(sys, tr);
        let spec = WorkloadSpec::new(WorkloadKind::Array)
            .with_req_bytes(1024)
            .with_array_footprint(size.pick(32 << 20, 32 << 10))
            .with_seed(seed);
        let mut w = m
            .span("workloads.build", |s| spec.build(s))
            .map_err(|e| format!("steady-write build: {e}"))?;
        m.span("system.checkpoint", System::checkpoint);
        for _ in 0..size.pick(2_000, 2) {
            w.step(&mut m.sys)
                .map_err(|e| format!("steady-write warm-up: {e}"))?;
        }
        m.sys.reset_stats();
        if m.tr.is_some() {
            attach_observers(&mut m.sys);
        }
        Ok(Self {
            start_cycle: m.sys.now(),
            m,
            w,
            batch: size.pick(1_000, 10),
            ops: 0,
        })
    }

    fn batch(&mut self) -> Batch {
        let mut failed = 0;
        for _ in 0..self.batch {
            let start = self.m.sys.now();
            let w = &mut self.w;
            if self.m.op("workloads.step", |m| w.step(m)).is_err() {
                failed += 1;
            }
            let end = self.m.sys.now();
            self.m.sys.record_txn(start, end);
        }
        self.ops += self.batch;
        Batch {
            ops: self.batch,
            failed,
        }
    }

    fn window(&mut self) -> (Sim, Observed) {
        machine_window(&mut self.m, self.ops, self.start_cycle)
    }

    fn finish(self) -> (Result<Sim, String>, Option<Tracer>) {
        let mut w = self.w;
        machine_finish(self.m, self.ops, self.start_cycle, |s| w.verify(s))
    }
}
