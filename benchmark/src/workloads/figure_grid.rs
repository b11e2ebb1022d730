//! `figure-grid`: the figure suite's shape. {Unsec, WT, SuperMem} x the
//! paper's five structures, 200 1 KiB transactions each over an 8 MiB
//! array footprint; one batch is one grid at a seed derived from the
//! run's seed and the batch index. Every run pays its own build,
//! checkpoints and verification, so set-up dominates, and the baseline
//! schemes' code paths run too.

use supermem::sim::Config;
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::WorkloadSpec;
use supermem::{Scheme, System};

use super::{attach_observers, mix, observe, Batch, Observed, Sim, Size, Workload};
use crate::stats::geomean;
use crate::trace::{span, Mem, Tracer};

const SCHEMES: [Scheme; 3] = [Scheme::Unsec, Scheme::WriteThrough, Scheme::SuperMem];

pub struct FigureGrid {
    seed: u64,
    txns: u64,
    footprint: u64,
    tr: Option<Tracer>,
    passes: u64,
    sim: Sim,
    obs: Observed,
    /// Summed latency and transactions per (scheme, structure).
    lat: [[(u128, u64); ALL_KINDS.len()]; SCHEMES.len()],
}

impl FigureGrid {
    /// One whole run: build, checkpoint, transactions, checkpoint,
    /// verify. Returns the failed transactions.
    fn run(&mut self, scheme: usize, kind: usize, seed: u64) -> u64 {
        let cfg = SCHEMES[scheme].apply(Config::default()).with_seed(seed);
        let sys = span(&mut self.tr, "system.new", || System::new(cfg));
        let mut m = Mem::new(sys, self.tr.take());
        let spec = WorkloadSpec::new(ALL_KINDS[kind])
            .with_txns(self.txns)
            .with_req_bytes(1024)
            .with_array_footprint(self.footprint)
            .with_seed(seed);
        let built = m.span("workloads.build", |s| spec.build(s));
        let Ok(mut w) = built else {
            self.tr = m.tr.take();
            return self.txns;
        };
        m.span("system.checkpoint", System::checkpoint);
        m.sys.reset_stats();
        if m.tr.is_some() {
            attach_observers(&mut m.sys);
        }
        let start_cycle = m.sys.now();
        let mut failed = 0;
        for _ in 0..self.txns {
            let start = m.sys.now();
            if m.op("workloads.step", |m| w.step(m)).is_err() {
                failed += 1;
            }
            let end = m.sys.now();
            m.sys.record_txn(start, end);
        }
        m.span("system.checkpoint", System::checkpoint);
        self.sim.cycles += m.sys.now() - start_cycle;
        self.sim.ops += self.txns;
        let stats = m.sys.stats().clone();
        let cell = &mut self.lat[scheme][kind];
        cell.0 += stats
            .txn_latencies
            .iter()
            .map(|&l| u128::from(l))
            .sum::<u128>();
        cell.1 += stats.txn_latencies.len() as u64;
        self.sim.absorb(stats);
        observe(&mut m.sys, &mut self.obs);
        if m.span("workloads.verify", |s| w.verify(s)).is_err() {
            failed = self.txns;
        }
        self.tr = m.tr.take();
        failed
    }

    /// Geometric mean over structures of `scheme`'s mean transaction
    /// latency relative to Unsec's.
    fn vs_unsec(&self, scheme: usize) -> f64 {
        let mean = |(sum, n): (u128, u64)| sum as f64 / n.max(1) as f64;
        let ratios: Vec<f64> = (0..ALL_KINDS.len())
            .map(|k| mean(self.lat[scheme][k]) / mean(self.lat[0][k]))
            .collect();
        geomean(&ratios)
    }
}

impl Workload for FigureGrid {
    fn window_batches(_: Size) -> u64 {
        5
    }

    fn setup(seed: u64, size: Size, tr: Option<Tracer>) -> Result<Self, String> {
        let mut me = Self {
            seed,
            txns: size.pick(200, 2),
            footprint: size.pick(8 << 20, 8 << 10),
            tr,
            passes: 0,
            sim: Sim::default(),
            obs: Observed::default(),
            lat: Default::default(),
        };
        // Warm-up: the grid's heaviest cell, discarded.
        if me.run(SCHEMES.len() - 1, 0, mix(seed)) > 0 {
            return Err("figure-grid warm-up run failed".into());
        }
        me.sim = Sim::default();
        me.obs = Observed::default();
        me.lat = Default::default();
        Ok(me)
    }

    fn batch(&mut self) -> Batch {
        let seed = mix(self.seed ^ (self.passes + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut failed = 0;
        for scheme in 0..SCHEMES.len() {
            for kind in 0..ALL_KINDS.len() {
                failed += self.run(scheme, kind, seed);
            }
        }
        self.passes += 1;
        Batch {
            ops: self.txns * (SCHEMES.len() * ALL_KINDS.len()) as u64,
            failed,
        }
    }

    fn window(&mut self) -> (Sim, Observed) {
        let mut sim = self.sim.clone();
        sim.extra = vec![
            ("grid.supermem_vs_unsec", self.vs_unsec(2)),
            ("grid.wt_vs_unsec", self.vs_unsec(1)),
        ];
        (sim, self.obs.clone())
    }

    fn finish(mut self) -> (Result<Sim, String>, Option<Tracer>) {
        (Ok(self.sim), self.tr.take())
    }
}
