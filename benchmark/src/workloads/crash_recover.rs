//! `crash-recover`: the KV store on SuperMem with the streaming
//! integrity tree persisting level 1 (Triad-NVM style). Rounds of 64
//! Zipf-0.99 requests, each round ending in a power failure: image the
//! machine, rebuild and audit it, recover the store from its WAL and
//! snapshots, and compare with the live store. The only workload where
//! recovery runs and the tree is armed.

use supermem::persist::RecoveredMemory;
use supermem::sim::Config;
use supermem::workloads::Workload as _;
use supermem::{Scheme, System};
use supermem_kv::layout::SNAP_HEADER_LEN;
use supermem_kv::{recover, KvLayout, KvStats, KvWorkload, RecoveryOptions};
use supermem_serve::TrafficSpec;

use super::{
    attach_observers, machine_finish, machine_window, Batch, Observed, Sim, Size, Workload,
};
use crate::trace::{span, Mem, Tracer};

const SNAPSHOT_EVERY: u64 = 64;

pub struct CrashRecover {
    m: Mem,
    cfg: Config,
    kv: KvWorkload,
    rounds_per_batch: u64,
    requests_per_round: u64,
    start_cycle: u64,
    ops: u64,
    rounds: u64,
    recovery_cycles: u64,
    /// Store counters when the measurement started.
    kv_base: KvStats,
}

impl CrashRecover {
    /// One round: requests, then a crash and a full recovery checked
    /// against the live store. Returns the failed requests.
    fn round(&mut self) -> u64 {
        let mut failed = 0;
        for _ in 0..self.requests_per_round {
            let acked = self.kv.store().stats().acked;
            let start = self.m.sys.now();
            let kv = &mut self.kv;
            if self.m.op("kv.request", |m| kv.step(m)).is_err() {
                failed += 1;
            }
            // Reads hit the store's DRAM index and never reach simulated
            // memory; only mutations have a simulated latency.
            if self.kv.store().stats().acked > acked {
                let end = self.m.sys.now();
                self.m.sys.record_txn(start, end);
            }
        }
        self.rounds += 1;
        let image = self.m.span("system.crash_image", |s| s.machine_crash_now());
        let cfg = &self.cfg;
        let rebuilt = span(&mut self.m.tr, "persist.recover_image", || {
            RecoveredMemory::from_machine_image_checked(cfg, image)
        });
        let Ok(mut rec) = rebuilt else {
            return self.requests_per_round;
        };
        self.recovery_cycles += rec.recovery_cycles();
        let layout = self.kv.store().layout();
        let recovered = span(&mut self.m.tr, "kv.recover", || {
            recover(&mut rec, layout, &RecoveryOptions::default())
        });
        match recovered {
            Ok(r) if r.store.entries() == self.kv.store().entries() => failed,
            _ => self.requests_per_round,
        }
    }
}

impl Workload for CrashRecover {
    fn window_batches(_: Size) -> u64 {
        16
    }

    fn setup(seed: u64, size: Size, mut tr: Option<Tracer>) -> Result<Self, String> {
        let mut cfg = Scheme::SuperMem
            .apply(Config::default())
            .with_integrity_tree(true)
            .with_persisted_levels(Some(1))
            .with_seed(seed);
        cfg.cores = 1;
        let sys = span(&mut tr, "system.new", || System::new(cfg.clone()));
        let mut m = Mem::new(sys, tr);
        let keyspace = size.pick(1024, 64);
        // Snapshot slots sized for the whole keyspace (8 B keys and
        // values, 16 B framing) with headroom.
        let snap_cap = (SNAP_HEADER_LEN + keyspace * 24 + 64).next_multiple_of(64);
        let layout = KvLayout::new(0x8000, 1 << 16, snap_cap).map_err(|e| e.to_string())?;
        let traffic = TrafficSpec {
            read_pct: 50,
            zipf_theta: 0.99,
            keyspace,
            seed,
            ..TrafficSpec::default()
        };
        let kv = m
            .span("workloads.build", |s| {
                KvWorkload::new(s, layout, SNAPSHOT_EVERY, traffic)
            })
            .map_err(|e| format!("crash-recover format: {e}"))?;
        m.span("system.checkpoint", System::checkpoint);
        let tr = m.tr.take();
        let mut me = Self {
            start_cycle: 0,
            m,
            cfg,
            kv,
            rounds_per_batch: size.pick(50, 1),
            requests_per_round: size.pick(64, 8),
            ops: 0,
            rounds: 0,
            recovery_cycles: 0,
            kv_base: KvStats::default(),
        };
        // Warm-up, untraced: the WAL fills and the first snapshots land.
        for _ in 0..size.pick(100, 1) {
            if me.round() > 0 {
                return Err("crash-recover warm-up round failed".into());
            }
        }
        me.m.tr = tr;
        me.m.sys.reset_stats();
        if me.m.tr.is_some() {
            attach_observers(&mut me.m.sys);
        }
        me.rounds = 0;
        me.recovery_cycles = 0;
        me.kv_base = me.kv.store().stats();
        me.start_cycle = me.m.sys.now();
        Ok(me)
    }

    fn batch(&mut self) -> Batch {
        let failed = (0..self.rounds_per_batch).map(|_| self.round()).sum();
        let ops = self.rounds_per_batch * self.requests_per_round;
        self.ops += ops;
        Batch { ops, failed }
    }

    fn window(&mut self) -> (Sim, Observed) {
        let (mut sim, obs) = machine_window(&mut self.m, self.ops, self.start_cycle);
        let (kv, base) = (self.kv.store().stats(), self.kv_base);
        sim.extra = vec![
            (
                "persist.recovery_cycles",
                self.recovery_cycles as f64 / self.rounds as f64,
            ),
            (
                "kv.wal_bytes_per_op",
                (kv.wal_bytes - base.wal_bytes) as f64 / self.ops as f64,
            ),
            (
                "kv.snapshots_per_kop",
                (kv.snapshots - base.snapshots) as f64 * 1e3 / self.ops as f64,
            ),
        ];
        sim.digest = u64::from(self.kv.store().state_digest());
        (sim, obs)
    }

    fn finish(self) -> (Result<Sim, String>, Option<Tracer>) {
        let digest = u64::from(self.kv.store().state_digest());
        let mut kv = self.kv;
        // Reads checked against the shadow, then recover-and-compare.
        let (fin, tr) = machine_finish(self.m, self.ops, self.start_cycle, |s| kv.verify(s));
        (fin.map(|sim| Sim { digest, ..sim }), tr)
    }
}
