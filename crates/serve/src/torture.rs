//! Crash campaigns inside the CAS windows of the served structures.
//!
//! The undo-log subject ([`supermem::torture`]) attacks a transaction;
//! [`ServeSubject`] attacks the *lock-free* protocol: one mutating
//! operation on a warmed-up shared structure, crashed (and optionally
//! media-faulted) after every write-queue append boundary it crosses —
//! which places crash points between the descriptor announce, the node
//! persist, the linearizing pointer store, and the completion record.
//! The crash-campaign engine ([`supermem::campaign`]) runs the loop.
//!
//! The oracle is exact: with a single tortured operation there are only
//! two legal recovered states, *before* (the op never linearized) and
//! *after* (it did). Recovery ([`crate::service::recover`]) must
//! produce one of them, cross-checked against the descriptor slot: a
//! `DONE` descriptor over a *before* structure is a lie (the completion
//! record persisted before the linearizing store did). Anything else
//! must be *detected*, never silent.

use supermem::campaign::{Campaign, Case, Fault, Judgement, Subject, Verdict};
use supermem::persist::{DirectMem, RecoveredMemory, SlotState};
use supermem::sim::Config;
use supermem::Scheme;

use crate::service::{recover, Service, ServiceLayout, StepResult, StructureKind, OP_UPDATE};
use crate::traffic::{ReqKind, Request};

const BASE: u64 = 0x10_0000;
const REGION: u64 = 1 << 16;
const CORES: usize = 2;
const BUCKETS: u64 = 4;

/// One mutating operation on a warmed shared structure, crashed inside
/// its CAS window. Cells are `(scheme, structure)` rows; the seed picks
/// the tortured op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSubject;

/// The warmed service positioned before the tortured op, with both
/// oracle states.
#[derive(Clone)]
pub struct ServeState {
    svc: Service,
    layout: ServiceLayout,
    req: Request,
    before: Vec<(u64, u64)>,
    after: Vec<(u64, u64)>,
}

/// The prologue ops that warm the structure before the tortured op, so
/// crash points land on a non-trivial structure (for stacks/queues the
/// tortured pop/dequeue has something to remove).
fn prologue(structure: StructureKind) -> Vec<Request> {
    let mk = |kind, key, value| Request {
        at: 0,
        kind,
        key,
        value,
    };
    match structure {
        StructureKind::Stack | StructureKind::Queue => vec![
            mk(ReqKind::Update, 1, 0x101),
            mk(ReqKind::Update, 2, 0x202),
            mk(ReqKind::Update, 3, 0x303),
            mk(ReqKind::Remove, 0, 0),
        ],
        StructureKind::Hash => vec![
            mk(ReqKind::Update, 1, 0x101),
            mk(ReqKind::Update, 5, 0x505), // same bucket as 1 (mod 4)
            mk(ReqKind::Update, 2, 0x202),
        ],
    }
}

/// The tortured mutation (always a core-0 write so the descriptor slot
/// under test is slot 0).
fn tortured_request(structure: StructureKind, seed: u64) -> Request {
    let remove = structure != StructureKind::Hash && seed.is_multiple_of(2);
    Request {
        at: 0,
        kind: if remove {
            ReqKind::Remove
        } else {
            ReqKind::Update
        },
        key: 7 + seed,
        value: 0x7000 + seed,
    }
}

fn run_op(svc: &mut Service, mem: &mut DirectMem, core: usize, req: &Request) {
    svc.start_op(mem, core, req);
    while svc.step(mem, core) == StepResult::InFlight {}
}

impl Subject for ServeSubject {
    type Cell = (Scheme, StructureKind);
    type State = ServeState;
    type Evidence = ();

    fn config(&self, &(scheme, _): &Self::Cell) -> Config {
        scheme.apply(Config::default())
    }

    /// Warms the structure, shuts down durably, and captures the
    /// *before* oracle and the *after* one (the tortured op completed on
    /// an unfaulted clone).
    fn base(
        &self,
        cfg: &Config,
        &(_, structure): &Self::Cell,
        seed: u64,
    ) -> (DirectMem, ServeState) {
        let mut mem = DirectMem::new(cfg);
        let mut svc = Service::new(&mut mem, structure, BASE, REGION, CORES, BUCKETS);
        for req in prologue(structure) {
            run_op(&mut svc, &mut mem, 1, &req);
        }
        mem.shutdown();
        let req = tortured_request(structure, seed);
        let mut oracle_svc = svc.clone();
        run_op(&mut oracle_svc, &mut mem.clone(), 0, &req);
        let state = ServeState {
            layout: svc.layout(),
            before: svc.shadow_entries(),
            after: oracle_svc.shadow_entries(),
            svc,
            req,
        };
        (mem, state)
    }

    fn workload(&self, mem: &mut DirectMem, st: &mut ServeState) {
        run_op(&mut st.svc, mem, 0, &st.req);
    }

    fn judge(&self, rec: &mut RecoveredMemory, st: &ServeState, _: u64) -> Judgement<()> {
        let recovered = match recover(rec, &st.layout) {
            Ok(r) => r,
            Err(e) => return Judgement::of(Verdict::Detected, format!("{e}")),
        };

        // Structure-level differential check against the exact oracle.
        let matches_before = recovered.entries == st.before;
        let matches_after = recovered.entries == st.after;

        // Descriptor cross-check: slot 0 belongs to the tortured op. A DONE
        // descriptor for it promises the op linearized — a *before*
        // structure under that promise is a lie.
        let slot0 = recovered.slots[0];
        let slot_lies = slot0.state == SlotState::Done
            && slot0.rec.seq == 1
            && matches_before
            && !matches_after
            // An update that "completed" must have published its node; an
            // empty-remove completion (result 0 on a remove) legally leaves
            // the structure unchanged.
            && !(slot0.rec.op != OP_UPDATE && slot0.result == 0);

        if (matches_before || matches_after) && !slot_lies {
            let (verdict, which) = if matches_after {
                (Verdict::New, "after")
            } else {
                (Verdict::Old, "before")
            };
            return Judgement::of(
                verdict,
                format!("{which} entries intact (slot0 {:?})", slot0.state),
            );
        }
        Judgement::wrong(
            false,
            format!(
                "slot_lies={slot_lies} (recovered {} entries; oracle {} before / {} after)",
                recovered.entries.len(),
                st.before.len(),
                st.after.len()
            ),
        )
    }

    fn repro(&self, case: &Case<Self::Cell>) -> String {
        let (scheme, structure) = case.cell;
        format!(
            "supermem serve --torture --structure {structure} --scheme {} --fault {} --point {} --seed {}",
            scheme.name().to_ascii_lowercase(),
            case.fault,
            case.point,
            case.seed
        )
    }
}

/// `supermem serve --torture`'s default shape over `schemes` ×
/// `structures`: crash-only plus every media fault class, seeds 1 and 2,
/// every crash point of each seed's op.
pub fn serve_campaign(schemes: &[Scheme], structures: &[StructureKind]) -> Campaign<ServeSubject> {
    Campaign {
        subject: ServeSubject,
        cells: schemes
            .iter()
            .flat_map(|&s| structures.iter().map(move |&k| (s, k)))
            .collect(),
        faults: Fault::media_grid(),
        seeds: vec![1, 2],
        point: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermem::campaign::SubjectReport;
    use supermem::nvm::FaultClass;

    fn campaign_on(
        scheme: Scheme,
        structure: StructureKind,
        fault: Fault,
        seeds: &[u64],
    ) -> SubjectReport<ServeSubject> {
        Campaign {
            faults: vec![fault],
            seeds: seeds.to_vec(),
            ..serve_campaign(&[scheme], &[structure])
        }
        .run()
    }

    fn assert_unfaulted_crashes_recover(scheme: Scheme) {
        for structure in StructureKind::ALL {
            let report = campaign_on(scheme, structure, Fault::None, &[1, 2]);
            assert!(report.total() > 0, "{structure}: no crash points");
            for r in &report.results {
                assert!(
                    matches!(r.verdict, Verdict::Old | Verdict::New),
                    "{}: un-faulted case must recover cleanly, got {} ({})",
                    ServeSubject.repro(&r.case),
                    r.verdict,
                    r.detail
                );
            }
            // The sweep must actually straddle the linearization point:
            // both oracle states must appear somewhere.
            assert!(
                report.count(Verdict::Old) > 0 && report.count(Verdict::New) > 0,
                "{structure}: crash points never straddled the CAS"
            );
        }
    }

    #[test]
    fn unfaulted_cas_window_crashes_recover_an_oracle_state() {
        assert_unfaulted_crashes_recover(Scheme::SuperMem);
    }

    #[test]
    fn unfaulted_osiris_cas_window_crashes_recover_an_oracle_state() {
        // Osiris relaxes counter persistence: only trial-decryption
        // counter recovery sees the structure, never the strict rebuild.
        assert_unfaulted_crashes_recover(Scheme::Osiris);
    }

    #[test]
    fn torn_drains_in_cas_windows_never_corrupt_silently() {
        for structure in StructureKind::ALL {
            let report = campaign_on(
                Scheme::SuperMem,
                structure,
                Fault::Media(FaultClass::Torn),
                &[1, 2],
            );
            assert!(
                report.silent().is_empty(),
                "{structure}: torn drain slipped through: {:?}",
                report.silent().first().map(|r| &r.detail)
            );
        }
    }

    #[test]
    fn double_flips_on_the_structure_are_detected() {
        let report = campaign_on(
            Scheme::SuperMem,
            StructureKind::Stack,
            Fault::Media(FaultClass::DoubleFlip),
            &[1, 2],
        );
        assert!(report.silent().is_empty());
    }

    #[test]
    fn bank_failures_in_cas_windows_never_lie() {
        let report = campaign_on(
            Scheme::SuperMem,
            StructureKind::Queue,
            Fault::Media(FaultClass::BankFail),
            &[1, 2],
        );
        assert!(report.silent().is_empty());
    }

    #[test]
    fn repro_line_names_the_case() {
        let tc = Case {
            cell: (Scheme::SuperMem, StructureKind::Hash),
            fault: Fault::Media(FaultClass::Torn),
            point: 3,
            seed: 2,
        };
        assert_eq!(
            ServeSubject.repro(&tc),
            "supermem serve --torture --structure hash --scheme supermem --fault torn --point 3 --seed 2"
        );
    }
}
