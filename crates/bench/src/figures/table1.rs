//! Table 1 + Figure 6: crash recoverability per scheme, swept over
//! *every* write-queue append boundary.
//!
//! Two persistence idioms are tested (both from the paper's §2):
//!
//! 1. **Durable transaction (undo log)** — prepare / mutate / commit
//!    with cache-line flushes and fences (Table 1). Recovery rolls back
//!    an uncommitted transaction from the log; if the log (or its
//!    counters) did not survive, recovery cannot proceed.
//! 2. **Atomic 8-byte in-place update** — the crafted-data-structure
//!    idiom of §2.1 (wB+-tree-style pointers/bitmaps): a bare
//!    write + clwb + sfence with no log. Crash consistency relies
//!    entirely on the flush being atomic with its counter — exactly the
//!    property the staging register provides (Figure 6/7).
//!
//! Expected shape:
//! * `Unsec` and `SuperMem` recover at every crash point in both idioms.
//! * `WT w/o register` survives the logged transaction (the undo log
//!   heals torn lines) but breaks on the in-place update: a crash
//!   between the counter append and the data append leaves the line
//!   undecryptable (Figure 6).
//! * `WB w/o battery` loses dirty counters wholesale and is
//!   unrecoverable once data is mutated (Table 1's "No" rows).
//!
//! Both experiments are crash-only campaigns ([`supermem::campaign`])
//! over labelled machine rows; "unrecoverable" counts every case that
//! recovered neither state (detected + silent).

use supermem::campaign::{Campaign, Case, Fault, Judgement, Machine, Subject, Verdict};
use supermem::persist::{DirectMem, PMem, RecoveredMemory};
use supermem::sim::{CounterCacheBacking, CounterCacheMode};
use supermem::torture::TxnSubject;

use super::prelude::*;

const DATA_ADDR: u64 = 0x2000;

const OLD_WORD: u64 = 0x1111_1111_1111_1111;
const NEW_WORD: u64 = 0x2222_2222_2222_2222;

const SCHEMES: [&str; 4] = ["Unsec", "SuperMem", "WT w/o register", "WB w/o battery"];

fn scheme_config(name: &str) -> Config {
    match name {
        "Unsec" => Scheme::Unsec.apply(Config::default()),
        "SuperMem" => Scheme::SuperMem.apply(Config::default()),
        "WT w/o register" => {
            let mut cfg = Scheme::WriteThrough.apply(Config::default());
            cfg.atomic_pair_append = false;
            cfg
        }
        "WB w/o battery" => Config {
            encryption: true,
            counter_cache_mode: CounterCacheMode::WriteBack,
            counter_cache_backing: CounterCacheBacking::None,
            ..Config::default()
        },
        other => unreachable!("unknown scheme {other}"),
    }
}

/// Experiment 2's workload: one bare 8-byte persist, no log.
struct InPlaceUpdate;

impl Subject for InPlaceUpdate {
    type Cell = Machine;
    type State = ();
    type Evidence = ();

    fn config(&self, cell: &Machine) -> Config {
        cell.cfg.clone()
    }

    fn base(&self, cfg: &Config, _: &Machine, _: u64) -> (DirectMem, ()) {
        let mut base = DirectMem::new(cfg);
        base.persist(DATA_ADDR, &OLD_WORD.to_le_bytes());
        base.shutdown();
        (base, ())
    }

    fn workload(&self, mem: &mut DirectMem, (): &mut ()) {
        mem.persist(DATA_ADDR, &NEW_WORD.to_le_bytes());
    }

    fn judge(&self, rec: &mut RecoveredMemory, (): &(), _: u64) -> Judgement<()> {
        match rec.read_u64(DATA_ADDR) {
            OLD_WORD => Judgement::of(Verdict::Old, "old word".into()),
            NEW_WORD => Judgement::of(Verdict::New, "new word".into()),
            w => Judgement::wrong(false, format!("read {w:#018x}")),
        }
    }

    fn repro(&self, case: &Case<Machine>) -> String {
        format!(
            "table1 in-place update on {} crashed after {} appends",
            case.cell.label, case.point
        )
    }
}

/// Sweeps `subject` crash-only over every append-boundary crash point
/// of every scheme row.
fn crash_table<S: Subject<Cell = Machine>>(subject: S) -> TextTable {
    let campaign = Campaign {
        subject,
        cells: SCHEMES
            .iter()
            .map(|name| Machine::new(name, scheme_config(name)))
            .collect(),
        faults: vec![Fault::None],
        seeds: vec![1],
        point: None,
    };
    let mut t = table(
        "scheme | crash points | consistent(old) | consistent(new) | unrecoverable | verdict",
    );
    for (label, s) in campaign.run().tally_by(|r| r.case.cell.label.clone()) {
        t.row(vec![
            label,
            s.cases.to_string(),
            s.old.to_string(),
            s.new.to_string(),
            s.unrecoverable().to_string(),
            if s.unrecoverable() == 0 {
                "recoverable at every stage"
            } else {
                "UNRECOVERABLE windows"
            }
            .into(),
        ]);
    }
    t
}

pub fn report(_: &mut Runs, _: u64) -> Report {
    let mut rep = Report::new("table1");
    rep.section(
        "Table 1: durable transaction (undo log), crash at every append boundary",
        crash_table(TxnSubject::DATA),
    );
    rep.section(
        "Figure 6 scenario: atomic 8-byte in-place update (no log)",
        crash_table(InPlaceUpdate),
    );
    rep.footnote("(old = pre-mutation state; new = mutation visible)");
    rep
}
