//! The undo-logged transaction as a crash-campaign [`Subject`].
//!
//! Every scheme claims some crash-consistency story; these campaigns
//! attack those claims with *media faults* layered on the crash model:
//! torn write-queue drains, bit flips under a SECDED ECC model, stuck-at
//! cells, transient read failures and whole-bank fail-stops (see
//! [`supermem_nvm::fault`]). The workload is one durable undo-logged
//! transaction flipping [`DATA_LEN`] bytes from an old to a new image;
//! recovery is [`recover_transactions`]; the oracle holds the only two
//! legal states, the pre- and post-transaction images. The engine
//! ([`crate::campaign`]) does everything else.
//!
//! Two campaigns use the subject:
//!
//! * [`torture_campaign`] — scheme rows, faults striking data lines
//!   (`supermem torture`); `supermem crash` and `table1` run the same
//!   subject crash-only.
//! * [`tree_campaign`] — SuperMem with the streaming integrity tree
//!   persisted to each frontier, faults (and ECC-clean tampering) aimed
//!   at the persisted tree-node lines (`supermem torture --tree`).
//!
//! # Examples
//!
//! ```
//! use supermem::torture::torture_campaign;
//! use supermem::Scheme;
//!
//! let mut campaign = torture_campaign(&[Scheme::SuperMem], &[1]);
//! campaign.seeds = vec![1];
//! let report = campaign.run();
//! assert!(report.silent().is_empty(), "no silent corruption");
//! assert!(report.total() > 0);
//! ```

use supermem_persist::{recover_transactions, DirectMem, PMem, RecoveredMemory, TxnManager};
use supermem_sim::{Config, ConfigError};

use crate::campaign::{Campaign, Case, Fault, Judgement, Machine, Subject, Target, Verdict};
use crate::scheme::Scheme;

/// Address of the data region the tortured transaction mutates.
pub const DATA_ADDR: u64 = 0x2000;
/// Address of the undo log.
pub const LOG_ADDR: u64 = 0x10_0000;
/// Bytes mutated per transaction.
pub const DATA_LEN: usize = 256;

const OLD_IMAGE: [u8; DATA_LEN] = [0x11; DATA_LEN];
const NEW_IMAGE: [u8; DATA_LEN] = [0x22; DATA_LEN];

/// Schemes the campaign sweeps by default: every evaluated configuration
/// except SCA, which by design does not persist its counters (the paper
/// pairs it with a full-memory re-encryption sweep at recovery, which
/// this harness does not model), so a differential check against live
/// data is meaningless for it.
pub const TORTURE_SCHEMES: [Scheme; 8] = [
    Scheme::Unsec,
    Scheme::WriteBackIdeal,
    Scheme::WriteThrough,
    Scheme::WtCwc,
    Scheme::WtXbank,
    Scheme::SuperMem,
    Scheme::WtSameBank,
    Scheme::Osiris,
];

/// One durable undo-logged transaction from the old to the new image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnSubject {
    /// Where media faults strike: data lines (scheme rows) or the
    /// persisted tree-node lines (frontier rows).
    pub target: Target,
}

impl TxnSubject {
    /// The data-line campaign of `supermem torture`, `crash` and `table1`.
    pub const DATA: Self = Self {
        target: Target::Data,
    };
    /// The tree-node campaign of `supermem torture --tree`.
    pub const TREE: Self = Self {
        target: Target::TreeNodes,
    };
}

impl Subject for TxnSubject {
    type Cell = Machine;
    type State = ();
    type Evidence = ();

    fn config(&self, cell: &Machine) -> Config {
        cell.cfg.clone()
    }

    fn base(&self, cfg: &Config, _: &Machine, _: u64) -> (DirectMem, ()) {
        let mut base = DirectMem::new(cfg);
        base.persist(DATA_ADDR, &OLD_IMAGE);
        base.shutdown();
        (base, ())
    }

    fn workload(&self, mem: &mut DirectMem, (): &mut ()) {
        let mut txm = TxnManager::new(LOG_ADDR, 4096);
        let mut txn = txm.begin();
        txn.write(DATA_ADDR, NEW_IMAGE.to_vec());
        txn.commit(mem).expect("commit");
    }

    fn judge(&self, rec: &mut RecoveredMemory, (): &(), _: u64) -> Judgement<()> {
        let outcome = match recover_transactions(rec, LOG_ADDR) {
            Ok(o) => o,
            Err(e) => return Judgement::of(Verdict::Detected, format!("log recovery failed: {e}")),
        };
        let mut buf = [0u8; DATA_LEN];
        rec.read(DATA_ADDR, &mut buf);
        if buf == OLD_IMAGE {
            Judgement::of(Verdict::Old, format!("old state intact after {outcome:?}"))
        } else if buf == NEW_IMAGE {
            Judgement::of(Verdict::New, format!("new state intact after {outcome:?}"))
        } else {
            Judgement::wrong(false, format!("after {outcome:?}"))
        }
    }

    fn repro(&self, case: &Case<Machine>) -> String {
        match self.target {
            Target::Data => case.scheme_repro("torture"),
            Target::TreeNodes => format!(
                "supermem torture --tree --persisted-levels {} --fault {} --point {} --seed {}",
                case.cell.cfg.persisted_levels.unwrap_or(0),
                case.fault,
                case.point,
                case.seed
            ),
        }
    }

    fn target(&self) -> Target {
        self.target
    }
}

/// The scheme rows of a torture campaign, channel count outermost. When
/// more than one channel count is listed (matrix mode), the
/// multi-channel columns certify only the schemes whose sharded
/// behaviour the campaign pins down: SuperMem and WriteThrough.
pub fn scheme_machines(schemes: &[Scheme], channels: &[usize]) -> Vec<Machine> {
    let mut rows = Vec::new();
    for &ch in channels {
        for &scheme in schemes {
            if ch != 1
                && channels.len() > 1
                && !matches!(scheme, Scheme::SuperMem | Scheme::WriteThrough)
            {
                continue;
            }
            rows.push(Machine::scheme(scheme, ch));
        }
    }
    rows
}

/// `supermem torture`'s default shape over `schemes` × `channels`: the
/// crash-only baseline plus every media fault class, seeds 1 and 2,
/// every crash point.
pub fn torture_campaign(schemes: &[Scheme], channels: &[usize]) -> Campaign<TxnSubject> {
    Campaign {
        subject: TxnSubject::DATA,
        cells: scheme_machines(schemes, channels),
        faults: Fault::media_grid(),
        seeds: vec![1, 2],
        point: None,
    }
}

/// `supermem torture --tree`'s default shape over the persistence
/// frontiers `levels` (each `1..=height`; level 0 persists nothing and
/// leaves no tree region to hit): SuperMem with the streaming integrity
/// tree persisted to each frontier, crash-only, tamper and every media
/// fault class, seeds 1 and 2. Rows are labelled `L1`, `L2`, ...
///
/// # Errors
///
/// The machine's [`ConfigError`] when a frontier exceeds the tree's
/// height.
pub fn tree_campaign(levels: &[u32]) -> Result<Campaign<TxnSubject>, ConfigError> {
    let mut faults = vec![Fault::None, Fault::Tamper];
    faults.extend(Fault::media_grid().into_iter().skip(1));
    let cells = levels
        .iter()
        .map(|&l| {
            let cfg = Scheme::SuperMem
                .apply(Config::default())
                .with_integrity_tree(true)
                .with_persisted_levels(Some(l));
            cfg.validate()?;
            Ok(Machine::new(&format!("L{l}"), cfg))
        })
        .collect::<Result<_, _>>()?;
    Ok(Campaign {
        subject: TxnSubject::TREE,
        cells,
        faults,
        seeds: vec![1, 2],
        point: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{shrink, SubjectReport};
    use supermem_nvm::FaultClass;

    fn single(scheme: Scheme, fault: Fault, seeds: &[u64]) -> SubjectReport<TxnSubject> {
        single_ch(scheme, fault, seeds, 1)
    }

    fn single_ch(
        scheme: Scheme,
        fault: Fault,
        seeds: &[u64],
        channels: usize,
    ) -> SubjectReport<TxnSubject> {
        Campaign {
            faults: vec![fault],
            seeds: seeds.to_vec(),
            ..torture_campaign(&[scheme], &[channels])
        }
        .run()
    }

    fn repro(case: &Case<Machine>) -> String {
        TxnSubject::DATA.repro(case)
    }

    #[test]
    fn baseline_without_faults_always_recovers_an_oracle_state() {
        // Recovery of an un-faulted crash image must never report
        // corruption, at any crash point, under several seeds.
        for scheme in [Scheme::SuperMem, Scheme::WriteThrough, Scheme::Osiris] {
            let report = single(scheme, Fault::None, &[1, 2, 3]);
            for r in &report.results {
                assert!(
                    matches!(r.verdict, Verdict::Old | Verdict::New),
                    "{}: un-faulted case must recover cleanly, got {} ({})",
                    repro(&r.case),
                    r.verdict,
                    r.detail
                );
            }
        }
    }

    #[test]
    fn torn_drains_never_corrupt_silently() {
        let report = single(
            Scheme::SuperMem,
            Fault::Media(FaultClass::Torn),
            &[1, 2, 3, 4],
        );
        assert!(report.silent().is_empty(), "torn drain slipped through");
        // The tear must actually bite somewhere: at least one case must
        // deviate from the clean-crash classification.
        assert!(
            report.count(Verdict::Detected) > 0,
            "no torn case was detected — the injection is not wired up"
        );
    }

    #[test]
    fn double_flips_are_detected_not_silent() {
        let report = single(
            Scheme::SuperMem,
            Fault::Media(FaultClass::DoubleFlip),
            &[1, 2, 3],
        );
        assert!(report.silent().is_empty());
        assert!(
            report.count(Verdict::Detected) > 0,
            "an uncorrectable double flip must surface as detected"
        );
    }

    #[test]
    fn single_flips_and_stuck_cells_are_absorbed() {
        // SECDED corrects single wrong bits, so these classes should
        // leave recovery intact (and certainly never silent).
        for class in [FaultClass::BitFlip, FaultClass::StuckAt] {
            let report = single(Scheme::SuperMem, Fault::Media(class), &[1, 2]);
            assert!(report.silent().is_empty(), "{class}: silent corruption");
            assert_eq!(
                report.count(Verdict::Old)
                    + report.count(Verdict::New)
                    + report.count(Verdict::Detected),
                report.total()
            );
        }
    }

    #[test]
    fn transient_reads_are_retried_through() {
        let report = single(
            Scheme::SuperMem,
            Fault::Media(FaultClass::TransientRead),
            &[1, 2],
        );
        assert!(report.silent().is_empty());
    }

    #[test]
    fn bank_failures_degrade_but_never_lie() {
        let report = single(
            Scheme::SuperMem,
            Fault::Media(FaultClass::BankFail),
            &[1, 2],
        );
        assert!(report.silent().is_empty(), "bank loss must be detected");
        assert!(
            report.count(Verdict::Detected) > 0,
            "losing a whole bank must be detected somewhere in the sweep"
        );
    }

    #[test]
    fn report_tallies_are_consistent() {
        let report = single(
            Scheme::WriteThrough,
            Fault::Media(FaultClass::BitFlip),
            &[7],
        );
        let by_scheme = report.tally_by(|r| r.case.cell.label.clone());
        assert_eq!(by_scheme.len(), 1);
        let s = by_scheme[0].1;
        assert_eq!(s.cases, report.total());
        assert_eq!(s.old + s.new + s.detected + s.silent, s.cases);
        assert_eq!(s.verdict(), "fail-safe");
    }

    #[test]
    fn repro_line_round_trips_through_the_cli_spelling() {
        let case = |scheme, fault, point, seed, channels| Case {
            cell: Machine::scheme(scheme, channels),
            fault,
            point,
            seed,
        };
        let tc = case(
            Scheme::WtXbank,
            Fault::Media(FaultClass::DoubleFlip),
            5,
            9,
            1,
        );
        assert_eq!(
            repro(&tc),
            "supermem torture --scheme wt+xbank --fault double-flip --point 5 --seed 9"
        );
        let tc = case(Scheme::SuperMem, Fault::None, 1, 1, 1);
        assert!(repro(&tc).contains("--fault none"));
        let tc2 = case(Scheme::SuperMem, Fault::None, 1, 1, 2);
        assert!(repro(&tc2).ends_with("--channels 2"));
    }

    #[test]
    fn multi_channel_baseline_recovers_an_oracle_state() {
        for scheme in [Scheme::SuperMem, Scheme::WriteThrough] {
            let report = single_ch(scheme, Fault::None, &[1, 2], 2);
            for r in &report.results {
                assert_eq!(r.case.cell.cfg.channels, 2);
                assert!(
                    matches!(r.verdict, Verdict::Old | Verdict::New),
                    "{}: un-faulted 2-channel case must recover cleanly, got {} ({})",
                    repro(&r.case),
                    r.verdict,
                    r.detail
                );
            }
        }
    }

    #[test]
    fn multi_channel_torn_drains_never_corrupt_silently() {
        let report = single_ch(Scheme::SuperMem, Fault::Media(FaultClass::Torn), &[1, 2], 2);
        assert!(
            report.silent().is_empty(),
            "torn drain slipped through at 2 channels"
        );
    }

    #[test]
    fn matrix_mode_limits_multi_channel_columns_to_certified_schemes() {
        let campaign = Campaign {
            faults: vec![Fault::None],
            seeds: vec![1],
            point: Some(1),
            ..torture_campaign(&[Scheme::SuperMem, Scheme::Osiris], &[1, 2])
        };
        let report = campaign.run();
        let has = |label: &str, ch: usize| {
            report
                .results
                .iter()
                .any(|r| r.case.cell.label == label && r.case.cell.cfg.channels == ch)
        };
        assert!(has("Osiris", 1));
        assert!(
            !has("Osiris", 2),
            "Osiris must not appear in the multi-channel column"
        );
        assert!(has("SuperMem", 2));
    }

    #[test]
    fn shrink_finds_a_smaller_point_with_the_same_outcome() {
        // Shrinking a clean case keeps its class of outcome; the exact
        // verdict at the minimal point must match the original's.
        let campaign = torture_campaign(&[Scheme::SuperMem], &[1]);
        let cell = campaign.cells[0].clone();
        let tc = Case {
            point: campaign.crash_points(&cell, 1),
            cell,
            fault: Fault::None,
            seed: 1,
        };
        let verdict_at = |point| {
            campaign
                .run_case(&Case {
                    point,
                    ..tc.clone()
                })
                .verdict
        };
        let target = verdict_at(tc.point);
        let min = shrink(tc.point, |p| verdict_at(p) == target);
        assert!(min >= 1 && min <= tc.point);
        assert_eq!(min, campaign.shrink_point(&tc));
        assert_eq!(verdict_at(min), target);
    }

    fn tree_single(levels: u32, fault: Fault, seeds: &[u64]) -> SubjectReport<TxnSubject> {
        Campaign {
            faults: vec![fault],
            seeds: seeds.to_vec(),
            ..tree_campaign(&[levels]).expect("valid frontier")
        }
        .run()
    }

    #[test]
    fn tree_baseline_without_faults_always_recovers_an_oracle_state() {
        // The streaming tree must not *cause* recovery failures: an
        // un-faulted crash at any point recovers one oracle state.
        for levels in [1, 2] {
            let report = tree_single(levels, Fault::None, &[1, 2]);
            for r in &report.results {
                assert!(
                    matches!(r.verdict, Verdict::Old | Verdict::New),
                    "{}: un-faulted streaming-tree case must recover cleanly, got {} ({})",
                    TxnSubject::TREE.repro(&r.case),
                    r.verdict,
                    r.detail
                );
            }
        }
    }

    #[test]
    fn tree_node_double_flips_are_detected_not_silent() {
        let report = tree_single(1, Fault::Media(FaultClass::DoubleFlip), &[1, 2]);
        assert!(
            report.silent().is_empty(),
            "tree-node damage slipped through"
        );
        assert!(
            report.count(Verdict::Detected) > 0,
            "an uncorrectable tree-node flip must surface as detected"
        );
    }

    #[test]
    fn tree_node_tampering_is_always_detected() {
        // ECC-clean forgery of a node line: only the recovery audit can
        // see it, and it must see it every time — the whole point of
        // persisting the frontier.
        for levels in [1, 2] {
            let report = tree_single(levels, Fault::Tamper, &[1, 2, 3]);
            for r in &report.results {
                assert_eq!(
                    r.verdict,
                    Verdict::Detected,
                    "{}: forged node line not detected ({})",
                    TxnSubject::TREE.repro(&r.case),
                    r.detail
                );
            }
        }
    }

    #[test]
    fn tree_bank_failure_takes_node_lines_honestly() {
        let report = tree_single(1, Fault::Media(FaultClass::BankFail), &[1, 2]);
        assert!(
            report.silent().is_empty(),
            "lost tree lines must be detected"
        );
        assert!(report.count(Verdict::Detected) > 0);
    }

    #[test]
    fn tree_repro_line_round_trips_through_the_cli_spelling() {
        let tc = Case {
            cell: tree_campaign(&[2]).expect("valid frontier").cells[0].clone(),
            fault: Fault::Tamper,
            point: 5,
            seed: 9,
        };
        assert_eq!(
            TxnSubject::TREE.repro(&tc),
            "supermem torture --tree --persisted-levels 2 --fault tamper --point 5 --seed 9"
        );
    }
}
