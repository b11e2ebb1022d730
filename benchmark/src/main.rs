//! The SuperMem benchmark: five fixed workloads, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced one, and a
//! noise-aware `compare` of two sets of runs. See `README.md`.
//!
//! ```text
//! benchmark --workload W --seed N [--seconds S] [--trace 0|1]
//! benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```

mod compare;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;
use workloads::{Budget, Pass, Size};

const USAGE: &str = "usage: benchmark --workload W --seed N [--seconds S] [--trace 0|1]
       benchmark compare PARENT.jsonl CHANGE.jsonl
workloads: steady-write steady-read serve-tail crash-recover figure-grid";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: u32 = 5;

#[derive(Debug)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true, // a bare `--trace` turns tracing on
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn pass(o: &Opts, traced: bool, setups: u32, budget: Budget) -> Result<Pass, String> {
    workloads::run_named(&o.workload, o.seed, Size::Full, traced, setups, budget)
        .expect("workload names are checked when parsed")
}

/// The untraced run: end-to-end metrics.
fn untraced(o: &Opts) -> Result<Outcome, String> {
    let p = pass(o, false, SETUPS, Budget::Seconds(o.seconds))?;
    if let Err(e) = &p.fin {
        eprintln!("{}: final check failed: {e}", o.workload);
    }
    let (q1, q3) = stats::quartiles(&p.batch_rates);
    eprintln!(
        "{}: {} batches, op/s per batch: q1 {q1:.1}, median {:.1}, q3 {q3:.1}",
        o.workload,
        p.batches(),
        stats::median(&p.batch_rates)
    );
    Ok(Outcome {
        workload: o.workload.clone(),
        seed: o.seed,
        traced: false,
        correct: p.failed == 0 && p.fin.is_ok(),
        attempted: p.attempted,
        failed: p.failed,
        values: report::end_to_end(&p),
    })
}

/// The traced run: an untraced pass over half the time, then a traced
/// pass over the same batches. The two must agree on every simulated
/// result; their throughputs give the tracing overhead.
fn traced(o: &Opts) -> Result<Outcome, String> {
    let plain = pass(o, false, 1, Budget::Seconds(o.seconds / 2.0))?;
    let traced = pass(o, true, 1, Budget::Batches(plain.batches()))?;
    let identical = plain.window == traced.window
        && matches!((&plain.fin, &traced.fin), (Ok(a), Ok(b)) if a == b);
    if !identical {
        eprintln!(
            "{}: the traced pass's simulated results differ from the untraced pass's",
            o.workload
        );
    }
    for (name, p) in [("untraced", &plain), ("traced", &traced)] {
        if let Err(e) = &p.fin {
            eprintln!("{} ({name}): final check failed: {e}", o.workload);
        }
    }
    let rate = |p: &Pass| stats::top_quarter_median(&p.batch_rates);
    let overhead_pct = (rate(&plain) / rate(&traced) - 1.0) * 100.0;
    if let Some(tr) = &traced.tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", o.workload, o.seed));
        tr.write_spans(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", tr.span_count(), path.display());
    }
    Ok(Outcome {
        workload: o.workload.clone(),
        seed: o.seed,
        traced: true,
        correct: identical && plain.failed == 0 && traced.failed == 0,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        values: report::per_layer(&traced, overhead_pct),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.trace {
        traced(&opts)
    } else {
        untraced(&opts)
    };
    match outcome {
        Ok(out) => {
            out.print();
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // the expected values are exact
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_opts(&args(
            "--workload serve-tail --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.trace),
            ("serve-tail", 7, true)
        );
        assert_eq!(o.seconds, 10.0);
        let o = parse_opts(&args("--trace --workload figure-grid --seed 1")).unwrap();
        assert!(o.trace);
        let o = parse_opts(&args("--workload figure-grid --seed 1 --trace 0")).unwrap();
        assert!(!o.trace);
        for bad in [
            "--workload nope --seed 1",
            "--workload serve-tail",
            "--workload serve-tail --seed x",
            "--workload serve-tail --seed 1 --seconds -1",
            "--workload serve-tail --seed 1 --bogus",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }

    /// Every workload at its tiny size emits every declared metric in
    /// both modes, with no failed operation.
    #[test]
    fn every_workload_emits_every_metric_at_tiny_size() {
        for name in workloads::NAMES {
            let run = |traced, budget| {
                workloads::run_named(name, 3, Size::Tiny, traced, 1, budget)
                    .unwrap()
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            let plain = run(false, Budget::Seconds(0.0));
            assert_eq!(plain.failed, 0, "{name}");
            assert!(plain.fin.is_ok(), "{name}: {:?}", plain.fin);
            let e2e = report::end_to_end(&plain);
            for m in metrics::END_TO_END {
                let v = e2e[m.name];
                assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", m.name);
            }
            let traced = run(true, Budget::Batches(plain.batches()));
            assert_eq!(traced.failed, 0, "{name}");
            assert_eq!(
                plain.window, traced.window,
                "{name}: tracing perturbed the model"
            );
            assert_eq!(plain.fin, traced.fin, "{name}");
            let layers = report::per_layer(&traced, 0.0);
            assert_eq!(layers.len(), metrics::PER_LAYER.len());
            assert!(layers["probe.events_per_op"] > 0.0, "{name}");
            assert!(layers.values().all(|v| v.is_finite()), "{name}");
        }
    }
}
