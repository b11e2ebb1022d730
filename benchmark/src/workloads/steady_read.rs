//! `steady-read`: a SuperMem B-tree preloaded with 8,192 1 KiB records
//! (2x the L3), then YCSB-B: 95% lookups of stored keys, 5% inserts of
//! new ones. The read path (tree walk, decrypt with the pad overlapped)
//! does most of the work, so a flush-path change should leave it flat.

use std::collections::HashSet;

use supermem::persist::TxnError;
use supermem::sim::{Config, SplitMix64};
use supermem::workloads::BTreeWorkload;
use supermem::{Scheme, System};

use super::{
    attach_observers, machine_finish, machine_window, mix, Batch, Observed, Sim, Size, Workload,
};
use crate::trace::{span, Mem, Tracer};

const VALUE_BYTES: usize = 1016; // a 1 KiB request: 8 B length + value
/// Every 20th op inserts (5%); a fixed pattern rather than a coin flip,
/// so the write share of a window does not vary with the seed.
const INSERT_EVERY: u64 = 20;

/// The value stored under `key`, derived from the key alone so a lookup
/// checks itself.
fn value_of(key: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_BYTES];
    SplitMix64::new(key).fill_bytes(&mut v);
    v
}

/// The stored keys, drawn from the seed.
struct Keys {
    rng: SplitMix64,
    present: HashSet<u64>,
    list: Vec<u64>,
}

impl Keys {
    fn fresh(&mut self) -> u64 {
        loop {
            let k = self.rng.next_u64();
            if self.present.insert(k) {
                self.list.push(k);
                return k;
            }
        }
    }

    fn stored(&mut self) -> u64 {
        self.list[self.rng.next_below(self.list.len() as u64) as usize]
    }
}

pub struct SteadyRead {
    m: Mem,
    tree: BTreeWorkload,
    keys: Keys,
    batch: u64,
    start_cycle: u64,
    ops: u64,
}

impl Workload for SteadyRead {
    fn window_batches(_: Size) -> u64 {
        8
    }

    fn setup(seed: u64, size: Size, mut tr: Option<Tracer>) -> Result<Self, String> {
        let mut cfg = Scheme::SuperMem.apply(Config::default()).with_seed(seed);
        cfg.cores = 1;
        let sys = span(&mut tr, "system.new", || System::new(cfg));
        let mut m = Mem::new(sys, tr);
        let mut keys = Keys {
            rng: SplitMix64::new(mix(seed ^ 0x5EAD)),
            present: HashSet::new(),
            list: Vec::new(),
        };
        let preload: Vec<u64> = (0..size.pick(8_192, 8)).map(|_| keys.fresh()).collect();
        let tree = m
            .span("workloads.build", |s| {
                let mut tree = BTreeWorkload::new(s, 0, 1 << 28, 1024, seed);
                for &k in &preload {
                    tree.insert(s, k, value_of(k))?;
                }
                Ok::<_, TxnError>(tree)
            })
            .map_err(|e| format!("steady-read preload: {e}"))?;
        m.span("system.checkpoint", System::checkpoint);
        m.sys.reset_stats();
        if m.tr.is_some() {
            attach_observers(&mut m.sys);
        }
        Ok(Self {
            start_cycle: m.sys.now(),
            m,
            tree,
            keys,
            batch: size.pick(5_000, 5),
            ops: 0,
        })
    }

    fn batch(&mut self) -> Batch {
        let mut failed = 0;
        for i in self.ops..self.ops + self.batch {
            let lookup = i % INSERT_EVERY != INSERT_EVERY - 1;
            let key = if lookup {
                self.keys.stored()
            } else {
                self.keys.fresh()
            };
            let start = self.m.sys.now();
            let tree = &mut self.tree;
            let ok = self.m.op("workloads.btree_op", |m| {
                if lookup {
                    tree.get(m, key) == Some(value_of(key))
                } else {
                    tree.insert(m, key, value_of(key)).is_ok()
                }
            });
            let end = self.m.sys.now();
            self.m.sys.record_txn(start, end);
            failed += u64::from(!ok);
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
        let mut tree = self.tree;
        machine_finish(self.m, self.ops, self.start_cycle, |s| tree.verify(s))
    }
}
