//! `benchmark compare PARENT.jsonl CHANGE.jsonl`: the noise-aware
//! verdict on two sets of runs of the same benchmark.
//!
//! Each file holds the standard output of several runs (the per-metric
//! JSON lines; other lines are skipped). For every (workload, metric)
//! both files report, the runs are paired in file order, and:
//!
//! * **improved**: the change wins at least 9 in 10 pairs (ties count
//!   for neither) and the medians differ, in the better direction, by
//!   more than the parent's interquartile range;
//! * **regressed**: the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * **unresolved**: otherwise, when either side's interquartile range
//!   exceeds the bound (as a share of the parent's median), unless every
//!   change run reads better than every parent run;
//! * **unchanged**: otherwise.
//!
//! Per-layer metrics have no bound: they are reported improved or
//! worse by the same pair rule, and never fail the comparison. The exit
//! status is 1 when any end-to-end metric regressed or the share of
//! failed operations grew.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{parse, Json};
use crate::metrics::{self, Better, Metric};
use crate::stats::{median, quartiles};

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
    /// Per-layer only: the pair rule, the other way round.
    Worse,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Worse => "worse",
        }
    }
}

/// Summary of one side's runs.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            median: median(values),
            q1,
            q3,
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Everything `compare` says about one (workload, metric).
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub parent: Side,
    pub change: Side,
    pub wins: usize,
    pub losses: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Applies the rules in the module documentation.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn judge(m: &Metric, parent: &[f64], change: &[f64]) -> Row {
    let (p, c) = (Side::of(parent), Side::of(change));
    // How much better the change is, in the metric's own direction.
    let gain = |from: f64, to: f64| match m.better {
        Better::Higher => to - from,
        Better::Lower => from - to,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| gain(a, b) > 0.0)
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|&(&a, &b)| gain(a, b) < 0.0)
        .count();
    let diff = gain(p.median, c.median);
    let decisive = |n: usize| pairs > 0 && n * 10 >= pairs * 9 && diff.abs() > p.iqr();
    let scale = p.median.abs();
    let verdict = if decisive(wins) && diff > 0.0 {
        Verdict::Improved
    } else if let Some(bound) = m.bound {
        let all_better = parent
            .iter()
            .all(|&a| change.iter().all(|&b| gain(a, b) > 0.0));
        if -diff > bound * scale {
            Verdict::Regressed
        } else if p.iqr().max(c.iqr()) > bound * scale && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    } else if decisive(losses) && diff < 0.0 {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Row {
        parent: p,
        change: c,
        wins,
        losses,
        pairs,
        verdict,
    }
}

/// (workload, metric) -> values, in file order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for line in text.lines() {
        let Ok(v) = parse(line) else { continue };
        let (Some(w), Some(m), Some(x)) = (
            v.get("workload").and_then(Json::as_str),
            v.get("metric").and_then(Json::as_str),
            v.get("value").and_then(Json::as_f64),
        ) else {
            continue;
        };
        runs.entry((w.to_owned(), m.to_owned()))
            .or_default()
            .push(x);
    }
    if runs.is_empty() {
        return Err(format!("{path}: no metric lines"));
    }
    Ok(runs)
}

/// The `compare` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: benchmark compare PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failing = 0;
    println!(
        "{:<14} {:<36} {:>26} {:>26} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "delta",
        "won-lost"
    );
    for ((workload, name), p) in &parent {
        let Some(c) = change.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        if name == "fail_ratio" {
            let grew =
                c.iter().copied().fold(0.0, f64::max) > p.iter().copied().fold(0.0, f64::max);
            if grew {
                failing += 1;
                println!("{workload:<14} {name:<36} failed operations grew: REGRESSED");
            }
            continue;
        }
        let Some(m) = metrics::find(name) else {
            continue;
        };
        let r = judge(m, p, c);
        let side = |s: Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
        let delta = if r.parent.median == 0.0 {
            0.0
        } else {
            (r.change.median / r.parent.median - 1.0) * 100.0
        };
        println!(
            "{workload:<14} {name:<36} {:>26} {:>26} {delta:>+7.2}% {:>2}-{}/{:<2}  {}",
            side(r.parent),
            side(r.change),
            r.wins,
            r.losses,
            r.pairs,
            r.verdict.name()
        );
        if r.verdict == Verdict::Regressed {
            failing += 1;
        }
    }
    if failing > 0 {
        println!("{failing} regression(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Higher is better, 10% bound.
    const RATE: Metric = Metric {
        name: "rate",
        unit: "op/s",
        better: Better::Higher,
        bound: Some(0.10),
    };
    /// Lower is better, 10% bound.
    const LATENCY: Metric = Metric {
        name: "latency",
        unit: "cycles",
        better: Better::Lower,
        bound: Some(0.10),
    };
    /// A per-layer metric: no bound.
    const LAYER: Metric = Metric {
        name: "layer",
        unit: "ns",
        better: Better::Lower,
        bound: None,
    };

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn clear_gain_is_improved_in_either_direction() {
        let r = judge(&RATE, &ten(100.0, 0.1), &ten(120.0, 0.1));
        assert_eq!((r.wins, r.pairs, r.verdict), (10, 10, Verdict::Improved));
        let r = judge(&LATENCY, &ten(100.0, 0.1), &ten(90.0, 0.1));
        assert_eq!(r.verdict, Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = ten(100.0, 1.0);
        let r = judge(&RATE, &same, &same);
        assert_eq!((r.wins, r.losses), (0, 0));
        assert_eq!(r.verdict, Verdict::Unchanged);
        // 8 wins and 2 ties: 8 of 10 pairs is short of nine tenths.
        let mut better = same.clone();
        for x in &mut better[..8] {
            *x += 50.0;
        }
        let r = judge(&RATE, &same, &better);
        assert_eq!((r.wins, r.losses), (8, 0));
        assert_ne!(r.verdict, Verdict::Improved);
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_claimed() {
        // Every pair won, but by less than the parent's own IQR.
        let parent = ten(100.0, 1.0);
        let change: Vec<f64> = parent.iter().map(|x| x + 0.5).collect();
        let r = judge(&RATE, &parent, &change);
        assert_eq!(r.wins, 10);
        assert_eq!(r.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_regresses() {
        let r = judge(&RATE, &ten(100.0, 0.1), &ten(85.0, 0.1));
        assert_eq!(r.verdict, Verdict::Regressed);
        let r = judge(&LATENCY, &ten(100.0, 0.1), &ten(115.0, 0.1));
        assert_eq!(r.verdict, Verdict::Regressed);
        // Within the 10% bound: unchanged.
        let r = judge(&RATE, &ten(100.0, 0.1), &ten(95.0, 0.1));
        assert_eq!(r.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = ten(70.0, 6.0); // IQR 33 on a median of 97
        let r = judge(&RATE, &noisy, &noisy);
        assert_eq!(r.verdict, Verdict::Unresolved);
        // ... unless every change run beats every parent run, even by
        // less than the parent's IQR.
        let r = judge(&RATE, &noisy, &ten(125.0, 0.1));
        assert!(r.change.median - r.parent.median < r.parent.iqr());
        assert_eq!(r.verdict, Verdict::Unchanged);
        let far: Vec<f64> = noisy.iter().map(|x| x + 1_000.0).collect();
        assert_eq!(judge(&RATE, &noisy, &far).verdict, Verdict::Improved);
    }

    #[test]
    fn per_layer_metrics_never_regress() {
        let r = judge(&LAYER, &ten(100.0, 0.1), &ten(200.0, 0.1));
        assert_eq!(r.verdict, Verdict::Worse);
        let r = judge(&LAYER, &ten(100.0, 0.1), &ten(100.0, 0.1));
        assert_eq!(r.verdict, Verdict::Unchanged);
    }
}
