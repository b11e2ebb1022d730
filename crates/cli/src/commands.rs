//! Command implementations.

use supermem::campaign::{shrink, Campaign, Case, Fault, Machine, Subject, SubjectReport, Verdict};
use supermem::metrics::TextTable;
use supermem::nvm::FaultClass;
use supermem::persist::DirectMem;
use supermem::scheme::FIGURE_SCHEMES;
use supermem::sim::{Config, CounterPlacement, Mutation};
use supermem::torture::{
    scheme_machines, torture_campaign, tree_campaign, TxnSubject, TORTURE_SCHEMES,
};
use supermem::verify::{check_run, check_run_trace, run_mutant_sharded, CheckReport};
use supermem::workloads::spec::ALL_KINDS;
use supermem::workloads::Workload;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{sweep, Experiment, RunResult, Scheme};
use supermem_bench::{machine, Report};
use supermem_kv::torture::KV_TORTURE_SCHEMES;
use supermem_kv::{kv_campaign, KvLayout, KvWorkload};
use supermem_lincheck::{find_minimal, lincheck, CrashMode, LincheckConfig, Mutant};
use supermem_serve::{run_serve, serve_campaign, ServeConfig, StructureKind, TrafficSpec};

use crate::args::{parse_run_flags, parse_scheme, ArgError, Parsed};

/// Every scheme `supermem crash` sweeps when none is named.
const ALL_SCHEMES: [Scheme; 9] = [
    Scheme::Unsec,
    Scheme::WriteBackIdeal,
    Scheme::WriteThrough,
    Scheme::WtCwc,
    Scheme::WtXbank,
    Scheme::SuperMem,
    Scheme::WtSameBank,
    Scheme::Osiris,
    Scheme::Sca,
];

/// A validated [`Experiment`] of `programs` copies of `spec` on `cfg`.
fn session(cfg: &Config, spec: &WorkloadSpec, programs: usize) -> Result<Experiment, ArgError> {
    Experiment::new(cfg.clone(), spec.clone())
        .and_then(|e| e.with_programs(programs))
        .map_err(|e| ArgError(e.to_string()))
}

fn result_row(p: &Parsed, r: &RunResult) -> Vec<String> {
    vec![
        p.scheme.name().to_owned(),
        p.spec.kind.name().to_owned(),
        r.stats.txn_commits.to_string(),
        format!("{:.0}", r.mean_txn_latency()),
        r.nvm_writes().to_string(),
        r.stats.counter_writes_coalesced.to_string(),
        r.counter_cache_hit_rate()
            .map_or_else(|| "-".to_owned(), |h| format!("{:.1}%", h * 100.0)),
        r.total_cycles.to_string(),
    ]
}

fn result_headers() -> Vec<String> {
    [
        "scheme",
        "workload",
        "txns",
        "cyc/txn",
        "nvm writes",
        "coalesced",
        "cc hit",
        "cycles",
    ]
    .map(str::to_owned)
    .to_vec()
}

/// `supermem run`
pub fn cmd_run(p: Parsed) -> Result<(), ArgError> {
    if let Some(flag) = p.leftover.first() {
        return Err(ArgError(format!("unknown flag `{flag}`")));
    }
    let r = session(&p.cfg, &p.spec, p.programs)?.run();
    let mut t = TextTable::new(result_headers());
    t.row(result_row(&p, &r));
    print!("{}", if p.csv { t.to_csv() } else { t.render() });
    Ok(())
}

/// `supermem sweep --param P --values a,b,c [run flags]`
pub fn cmd_sweep(argv: &[String]) -> Result<(), ArgError> {
    let p = parse_run_flags(argv)?;
    let mut param = None;
    let mut values = None;
    let mut it = p.leftover.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--param" => param = it.next().cloned(),
            "--values" => values = it.next().cloned(),
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }
    let param = param.ok_or_else(|| ArgError("sweep needs --param".into()))?;
    let values = values.ok_or_else(|| ArgError("sweep needs --values".into()))?;
    let points: Vec<u64> = values
        .split(',')
        .map(crate::args::parse_size)
        .collect::<Result<_, _>>()?;
    if points.is_empty() {
        return Err(ArgError("--values must list at least one point".into()));
    }

    // Point `v`'s run: the parsed one with `param` set to `v`.
    let point = |v: u64| {
        let (mut cfg, mut spec, mut programs) = (p.cfg.clone(), p.spec.clone(), p.programs);
        match param.as_str() {
            "wq" => cfg.write_queue_entries = v as usize,
            "cc" => cfg.counter_cache_bytes = v,
            "req" => spec.req_bytes = v,
            "programs" => programs = v as usize,
            other => return Err(ArgError(format!("unknown sweep param `{other}`"))),
        }
        session(&cfg, &spec, programs)
    };
    for &v in &points {
        point(v)?;
    }
    // All points run through the parallel sweep engine; results come
    // back in input order, so the table matches the sequential output.
    let results = sweep(&points, |&v| point(v).expect("point validated").run());

    let mut t = TextTable::new(
        std::iter::once(param.clone())
            .chain(result_headers())
            .collect(),
    );
    for (&v, r) in points.iter().zip(&results) {
        let mut row = vec![v.to_string()];
        row.extend(result_row(&p, r));
        t.row(row);
    }
    print!("{}", if p.csv { t.to_csv() } else { t.render() });
    Ok(())
}

/// `supermem profile [run flags] [--json]`: run once with the built-in
/// telemetry observer attached and print the latency attribution.
pub fn cmd_profile(argv: &[String]) -> Result<(), ArgError> {
    let p = parse_run_flags(argv)?;
    let mut json = false;
    for flag in &p.leftover {
        match flag.as_str() {
            "--json" => json = true,
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }
    let mut exp = session(&p.cfg, &p.spec, p.programs)?.observe();
    let r = exp.run();
    let t = r
        .telemetry
        .as_ref()
        .expect("observed run returns telemetry");
    if json {
        println!("{}", t.to_json(r.total_cycles));
        return Ok(());
    }

    let b = &t.breakdown;
    let flush_total = b.counter_fetch_cycles + b.crypto_cycles + b.queue_admission_cycles;
    let share = |c: u64| {
        if flush_total == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}%", 100.0 * c as f64 / flush_total as f64)
        }
    };
    let mut attribution = TextTable::new(
        ["flush phase", "cycles", "share"]
            .map(str::to_owned)
            .to_vec(),
    );
    attribution.row(vec![
        "counter fetch".into(),
        b.counter_fetch_cycles.to_string(),
        share(b.counter_fetch_cycles),
    ]);
    attribution.row(vec![
        "crypto".into(),
        b.crypto_cycles.to_string(),
        share(b.crypto_cycles),
    ]);
    attribution.row(vec![
        "queue admission".into(),
        b.queue_admission_cycles.to_string(),
        share(b.queue_admission_cycles),
    ]);
    println!(
        "{} / {} — {} txns, {} cycles",
        p.scheme,
        p.spec.kind.name(),
        r.stats.txn_commits,
        r.total_cycles
    );
    println!();
    print!("{}", attribution.render());

    let mut hist = TextTable::new(
        [
            "latency", "count", "mean cyc", "p50", "p99", "p999", "max cyc",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for (name, h) in [
        ("txn", &t.txn_latency),
        ("flush", &t.flush_latency),
        ("read", &t.read_latency),
    ] {
        hist.row(vec![
            name.into(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            h.p50().to_string(),
            h.p99().to_string(),
            h.p999().to_string(),
            h.max().to_string(),
        ]);
    }
    println!();
    print!("{}", hist.render());

    println!();
    println!(
        "write queue: {} enqueues, {} coalesced, {} stalls ({} cycles), \
         occupancy mean {:.2} max {}",
        t.wq_occupancy.enqueues,
        b.coalesced,
        b.wq_stalls,
        b.wq_stall_cycles,
        t.wq_occupancy.histogram.mean(),
        t.wq_occupancy.max,
    );
    // Bank ids are machine-global (`channel * banks + bank`); with more
    // than one channel the table splits the id into its two coordinates.
    let banks_per_channel = p.cfg.banks;
    let multi = p.cfg.channels > 1;
    println!("channels: {} × {} banks", p.cfg.channels, banks_per_channel);
    let headers: &[&str] = if multi {
        &["ch", "bank", "reads", "writes", "busy cyc", "util"]
    } else {
        &["bank", "reads", "writes", "busy cyc", "util"]
    };
    let mut banks = TextTable::new(headers.iter().map(|s| (*s).to_owned()).collect());
    for (i, bank) in t.banks.banks().iter().enumerate() {
        let mut row = if multi {
            vec![
                (i / banks_per_channel).to_string(),
                (i % banks_per_channel).to_string(),
            ]
        } else {
            vec![i.to_string()]
        };
        row.extend([
            bank.reads.to_string(),
            bank.writes.to_string(),
            bank.busy_cycles.to_string(),
            format!("{:.1}%", 100.0 * t.banks.utilization(i, r.total_cycles)),
        ]);
        banks.row(row);
    }
    println!();
    print!("{}", banks.render());
    Ok(())
}

/// `supermem crash [--scheme S] [--channels N] [--json]`: sweep a
/// crash over every append boundary of one durable transaction — under
/// every scheme by default, or just the named one.
pub fn cmd_crash(argv: &[String]) -> Result<(), ArgError> {
    let flags = CampaignFlags::parse(argv, false, |arg, _| match arg {
        "--fault" | "--point" | "--seed" | "--seeds" => {
            Err(ArgError(format!("unknown flag `{arg}`")))
        }
        _ => Ok(false),
    })?;
    let schemes = flags.scheme.map_or(ALL_SCHEMES.to_vec(), |s| vec![s]);

    // Crash-only: every case recovers an oracle state or it does not.
    let campaign = Campaign {
        subject: TxnSubject::DATA,
        cells: scheme_machines(&schemes, &[flags.channels.unwrap_or(1)]),
        faults: vec![Fault::None],
        seeds: vec![1],
        point: None,
    };
    let report = campaign.run();

    let mut t = TextTable::new(
        [
            "scheme",
            "crash points",
            "rolled back",
            "committed",
            "unrecoverable",
            "verdict",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for (label, s) in report.tally_by(|r| r.case.cell.label.clone()) {
        t.row(vec![
            label,
            s.cases.to_string(),
            s.old.to_string(),
            s.new.to_string(),
            s.unrecoverable().to_string(),
            if s.unrecoverable() == 0 {
                "recoverable at every crash point"
            } else {
                "UNRECOVERABLE windows"
            }
            .to_owned(),
        ]);
    }
    let mut rep = Report::new("crash");
    rep.section(
        "Crash-point sweep: one durable undo-logged transaction per scheme",
        t,
    );
    rep.footnote("(rolled back = old state restored; committed = new state durable)");
    rep.emit();
    Ok(())
}

/// The flags every crash-campaign command shares:
/// `--scheme/--fault/--point/--seed/--seeds/--channels` (and `--json`,
/// which `Report::emit` reads from the process args).
#[derive(Default)]
struct CampaignFlags {
    scheme: Option<Scheme>,
    faults: Option<Vec<Fault>>,
    point: Option<u64>,
    seeds: Option<Vec<u64>>,
    channels: Option<usize>,
}

impl CampaignFlags {
    /// Parses `argv`. Each flag is offered to `extra` first, which
    /// consumes the command's own flags (returning `true`); `tamper`
    /// admits `--fault tamper`.
    fn parse(
        argv: &[String],
        tamper: bool,
        mut extra: impl FnMut(&str, &mut std::slice::Iter<String>) -> Result<bool, ArgError>,
    ) -> Result<Self, ArgError> {
        let mut f = Self::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if extra(arg, &mut it)? {
                continue;
            }
            match arg.as_str() {
                "--scheme" => f.scheme = Some(parse_scheme(&flag_value(&mut it, arg)?)?),
                "--fault" => {
                    let name = flag_value(&mut it, arg)?;
                    f.faults = Some(vec![parse_fault(&name, tamper)?]);
                }
                "--point" => f.point = Some(flag_number(&mut it, arg)?),
                "--seed" => f.seeds = Some(vec![flag_number(&mut it, arg)?]),
                "--seeds" => {
                    let n: u64 = flag_number(&mut it, arg)?;
                    if n == 0 {
                        return Err(ArgError("--seeds must be at least 1".into()));
                    }
                    f.seeds = Some((1..=n).collect());
                }
                "--channels" => {
                    let n: usize = flag_number(&mut it, arg)?;
                    if n == 0 || !n.is_power_of_two() {
                        return Err(ArgError("--channels must be a power of two".into()));
                    }
                    f.channels = Some(n);
                }
                "--json" => {}
                other => return Err(ArgError(format!("unknown flag `{other}`"))),
            }
        }
        Ok(f)
    }

    /// Narrows `campaign` to the named faults, seeds and crash point.
    fn narrow<S: Subject>(&self, campaign: &mut Campaign<S>) {
        if let Some(faults) = &self.faults {
            campaign.faults.clone_from(faults);
        }
        if let Some(seeds) = &self.seeds {
            campaign.seeds.clone_from(seeds);
        }
        campaign.point = self.point;
    }
}

fn flag_value(it: &mut std::slice::Iter<String>, flag: &str) -> Result<String, ArgError> {
    it.next()
        .cloned()
        .ok_or_else(|| ArgError(format!("{flag} needs a value")))
}

fn flag_number<T: std::str::FromStr>(
    it: &mut std::slice::Iter<String>,
    flag: &str,
) -> Result<T, ArgError> {
    let raw = flag_value(it, flag)?;
    raw.parse()
        .map_err(|_| ArgError(format!("invalid {flag} `{raw}`")))
}

fn parse_fault(name: &str, tamper: bool) -> Result<Fault, ArgError> {
    if name.eq_ignore_ascii_case("none") {
        return Ok(Fault::None);
    }
    if tamper && name.eq_ignore_ascii_case("tamper") {
        return Ok(Fault::Tamper);
    }
    FaultClass::parse(name).map(Fault::Media).ok_or_else(|| {
        ArgError(format!(
            "unknown fault `{name}` (expected {}one of: {})",
            if tamper {
                "none, tamper, or "
            } else {
                "none or "
            },
            FaultClass::ALL.map(FaultClass::name).join(" ")
        ))
    })
}

/// The tally table of a campaign: one row per `key` (column `header`),
/// then the cases, the subject's two oracle-state columns in `states`
/// order, detected and silent, and (with `verdict`) the fail-safe
/// verdict.
fn tally_table<S: Subject>(
    campaign: &Campaign<S>,
    report: &SubjectReport<S>,
    header: &str,
    key: impl Fn(&Case<S::Cell>) -> String,
    states: [Verdict; 2],
    verdict: bool,
) -> TextTable {
    let mut headers = vec![header.to_owned(), "cases".to_owned()];
    headers.extend(
        [states[0], states[1], Verdict::Detected].map(|v| campaign.subject.label(v).to_owned()),
    );
    headers.push("silent".to_owned());
    if verdict {
        headers.push("verdict".to_owned());
    }
    let mut t = TextTable::new(headers);
    for (k, s) in report.tally_by(|r| key(&r.case)) {
        let mut row = vec![k, s.cases.to_string()];
        row.extend(
            [states[0], states[1], Verdict::Detected, Verdict::Silent].map(|v| s.of(v).to_string()),
        );
        if verdict {
            row.push(s.verdict().to_owned());
        }
        t.row(row);
    }
    t
}

/// Prints every silent case with its minimal reproducer and fails the
/// command; a campaign without one passes.
fn fail_on_silent<S: Subject>(
    campaign: &Campaign<S>,
    report: &SubjectReport<S>,
) -> Result<(), ArgError> {
    let silent = report.silent();
    if silent.is_empty() {
        return Ok(());
    }
    for r in &silent {
        eprintln!();
        eprintln!("silent corruption: {}", campaign.subject.repro(&r.case));
        eprintln!("  {}", r.detail);
        let min = Case {
            point: campaign.shrink_point(&r.case),
            ..r.case.clone()
        };
        eprintln!("  minimal repro: {}", campaign.subject.repro(&min));
    }
    Err(ArgError(format!(
        "silent corruption in {} of {} injections",
        silent.len(),
        report.total()
    )))
}

fn machine_label(case: &Case<Machine>) -> String {
    case.cell.label.clone()
}

/// `supermem torture [--scheme S] [--fault F|none] [--point K]
/// [--seed N] [--seeds COUNT] [--channels N] [--json]`: the differential crash-torture
/// campaign — media faults injected at crash time, every recovered
/// image checked against the shadow oracle. Exits non-zero (with a
/// shrunk reproducer per case) if any injection corrupts silently.
pub fn cmd_torture(argv: &[String]) -> Result<(), ArgError> {
    if argv.iter().any(|a| a == "--tree") {
        return cmd_tree_torture(argv);
    }
    let flags = CampaignFlags::parse(argv, false, |_, _| Ok(false))?;
    let schemes = flags.scheme.map_or(TORTURE_SCHEMES.to_vec(), |s| vec![s]);
    let channels = flags.channels.map_or(vec![1, 2], |n| vec![n]);
    let mut campaign = torture_campaign(&schemes, &channels);
    flags.narrow(&mut campaign);
    let report = campaign.run();

    let t = tally_table(
        &campaign,
        &report,
        "scheme",
        machine_label,
        [Verdict::Old, Verdict::New],
        true,
    );
    let mut rep = Report::new("torture");
    rep.section(
        "Differential crash torture: crash point x fault class x seed",
        t,
    );
    rep.footnote(&format!(
        "{} injections across {} scheme(s), {} fault class(es), {} seed(s)",
        report.total(),
        schemes.len(),
        campaign.faults.len(),
        campaign.seeds.len()
    ));
    rep.footnote("(detected = degraded but flagged by ECC/poison/dirty-shutdown or a typed error)");
    rep.emit();
    fail_on_silent(&campaign, &report)
}

/// `supermem torture --tree [--persisted-levels L] [--fault F|tamper|none]
/// [--point K] [--seed N] [--seeds COUNT] [--json]` — the integrity-tree
/// campaign: media faults and ECC-clean tampering aimed at the persisted
/// tree-node region of a streaming-tree SuperMem machine.
fn cmd_tree_torture(argv: &[String]) -> Result<(), ArgError> {
    let mut levels = vec![1, 2];
    let flags = CampaignFlags::parse(argv, true, |arg, it| match arg {
        "--tree" => Ok(true),
        "--persisted-levels" => {
            let n: u32 = flag_number(it, arg)?;
            if n == 0 {
                return Err(ArgError(
                    "--persisted-levels must be at least 1 (level 0 persists \
                     nothing and leaves no tree region to torture)"
                        .into(),
                ));
            }
            levels = vec![n];
            Ok(true)
        }
        "--scheme" | "--channels" => Err(ArgError(format!("unknown flag `{arg}`"))),
        _ => Ok(false),
    })?;
    let mut campaign = tree_campaign(&levels).map_err(|e| ArgError(e.to_string()))?;
    flags.narrow(&mut campaign);
    let report = campaign.run();

    let t = tally_table(
        &campaign,
        &report,
        "frontier",
        machine_label,
        [Verdict::Old, Verdict::New],
        true,
    );
    let mut rep = Report::new("tree-torture");
    rep.section(
        "Integrity-tree torture: crash point x tree fault x seed (SuperMem, streaming tree)",
        t,
    );
    rep.footnote(&format!(
        "{} injections across {} frontier(s), {} fault(s), {} seed(s)",
        report.total(),
        levels.len(),
        campaign.faults.len(),
        campaign.seeds.len()
    ));
    rep.footnote(
        "(tamper = ECC-clean node-line forgery; only the recovery-time tree audit can catch it)",
    );
    rep.emit();
    fail_on_silent(&campaign, &report)
}

/// `supermem serve [--structure S] [--scheme S] [--cores N] [--requests N]
/// [--read-pct P] [--mean-gap G] [--zipf T] [--keyspace K] [--buckets B]
/// [--seed X] [--channels N] [--degraded BANK] [--json]`
/// — drive a shared lock-free structure open-loop and print the tail
/// table; or `supermem serve --torture [--structure S] [--scheme S]
/// [--fault F|none] [--point K] [--seed N] [--seeds COUNT] [--json]` —
/// the CAS-window crash campaign.
pub fn cmd_serve(argv: &[String]) -> Result<(), ArgError> {
    if argv.iter().any(|a| a == "--torture") {
        return cmd_serve_torture(argv);
    }
    let mut cfg = ServeConfig::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, ArgError> {
        it.next()
            .cloned()
            .ok_or_else(|| ArgError(format!("{flag} needs a value")))
    };
    let parse_num = |s: String, flag: &str| -> Result<u64, ArgError> {
        s.parse().map_err(|_| ArgError(format!("invalid {flag}")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--structure" => {
                let s = value(&mut it, "--structure")?;
                cfg.structure = StructureKind::parse(&s).ok_or_else(|| {
                    ArgError(format!(
                        "unknown structure `{s}` (expected stack|queue|hash)"
                    ))
                })?;
            }
            "--scheme" => cfg.scheme = parse_scheme(&value(&mut it, "--scheme")?)?,
            "--cores" => cfg.cores = parse_num(value(&mut it, "--cores")?, "--cores")? as usize,
            "--requests" => cfg.requests = parse_num(value(&mut it, "--requests")?, "--requests")?,
            "--read-pct" => {
                cfg.read_pct = value(&mut it, "--read-pct")?
                    .parse()
                    .map_err(|_| ArgError("invalid --read-pct".into()))?;
            }
            "--mean-gap" => cfg.mean_gap = parse_num(value(&mut it, "--mean-gap")?, "--mean-gap")?,
            "--zipf" => {
                cfg.zipf_theta = value(&mut it, "--zipf")?
                    .parse()
                    .map_err(|_| ArgError("invalid --zipf".into()))?;
            }
            "--keyspace" => cfg.keyspace = parse_num(value(&mut it, "--keyspace")?, "--keyspace")?,
            "--buckets" => {
                cfg.hash_buckets = parse_num(value(&mut it, "--buckets")?, "--buckets")?;
            }
            "--seed" => cfg.seed = parse_num(value(&mut it, "--seed")?, "--seed")?,
            "--channels" => {
                cfg.channels = parse_num(value(&mut it, "--channels")?, "--channels")? as usize;
                if cfg.channels == 0 || !cfg.channels.is_power_of_two() {
                    return Err(ArgError("--channels must be a power of two".into()));
                }
            }
            "--degraded" => {
                cfg.degraded_bank =
                    Some(parse_num(value(&mut it, "--degraded")?, "--degraded")? as usize);
            }
            "--fault" | "--point" | "--seeds" => {
                return Err(ArgError(
                    "--fault/--point/--seeds only apply with --torture".into(),
                ))
            }
            "--json" => {} // Report::emit picks this up from the process args.
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

    cfg.validate().map_err(|e| ArgError(e.to_string()))?;
    let r = run_serve(&cfg).map_err(|e| ArgError(e.to_string()))?;

    let mut t = TextTable::new(
        [
            "structure",
            "cores",
            "reqs",
            "p50",
            "p99",
            "p999",
            "mean",
            "max",
            "retries",
            "reenc",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    t.row(vec![
        r.structure.to_string(),
        r.cores.to_string(),
        r.completed.to_string(),
        r.p50.to_string(),
        r.p99.to_string(),
        r.p999.to_string(),
        format!("{:.0}", r.mean),
        r.max.to_string(),
        r.retries.to_string(),
        r.reencryptions.to_string(),
    ]);
    let mut rep = Report::new("serve");
    rep.section(
        &format!(
            "Open-loop serving: {} cores on one shared {} under {} \
             (sojourn latency, cycles)",
            r.cores, r.structure, r.scheme
        ),
        t,
    );
    let mut per_core = TextTable::new(["core", "completed"].map(str::to_owned).to_vec());
    for (c, n) in r.per_core.iter().enumerate() {
        per_core.row(vec![c.to_string(), n.to_string()]);
    }
    rep.section("Per-core completions", per_core);
    if cfg.degraded_bank.is_some() {
        rep.footnote(&format!(
            "degraded mode: bank {} failed at time zero — {} poisoned reads, \
             {} dropped writes, shadow verification skipped",
            cfg.degraded_bank.unwrap_or_default(),
            r.poisoned_reads,
            r.dropped_writes
        ));
    } else {
        rep.footnote("persistent structure verified against the shadow model");
    }
    rep.footnote(&format!(
        "digest {:#018x} — identical across reruns of the same (config, seed)",
        r.digest
    ));
    rep.emit();
    Ok(())
}

/// The `--torture` arm of `cmd_serve`.
fn cmd_serve_torture(argv: &[String]) -> Result<(), ArgError> {
    let mut structures = StructureKind::ALL.to_vec();
    let flags = CampaignFlags::parse(argv, false, |arg, it| match arg {
        "--torture" => Ok(true),
        // A CAS-window cell is (scheme, structure): no channel axis.
        "--channels" => Err(ArgError(
            "--channels does not apply to serve --torture (its cells are scheme x structure)"
                .into(),
        )),
        "--structure" => {
            let s = flag_value(it, arg)?;
            structures = vec![StructureKind::parse(&s).ok_or_else(|| {
                ArgError(format!(
                    "unknown structure `{s}` (expected stack|queue|hash)"
                ))
            })?];
            Ok(true)
        }
        _ => Ok(false),
    })?;
    let scheme = flags.scheme.unwrap_or(ServeConfig::default().scheme);
    let mut campaign = serve_campaign(&[scheme], &structures);
    flags.narrow(&mut campaign);
    let report = campaign.run();

    let t = tally_table(
        &campaign,
        &report,
        "structure",
        |c| c.cell.1.to_string(),
        [Verdict::Old, Verdict::New],
        false,
    );
    let mut rep = Report::new("serve-torture");
    rep.section(
        "CAS-window crash torture: crash point x fault class x seed",
        t,
    );
    rep.footnote(&format!(
        "{} injections across {} structure(s), {} fault class(es), {} seed(s)",
        report.total(),
        structures.len(),
        campaign.faults.len(),
        campaign.seeds.len()
    ));
    rep.footnote("(crash points land between announce, node persist, linearizing CAS, completion)");
    rep.emit();
    fail_on_silent(&campaign, &report)
}

/// One named figure configuration the checker sweeps: a batch of runs
/// (mirroring the parameter points of the `figures` entry of the same
/// name, each a machine, a workload and a program count) and whether
/// they replay through the event-granularity trace pipeline.
struct CheckConfig {
    name: &'static str,
    runs: Vec<(Config, WorkloadSpec, usize)>,
    trace: bool,
}

/// The 18 figure configurations, with `txns` transactions per run. Each
/// mirrors its figure's distinctive knobs at checker-sweep scale.
fn check_configs(txns: u64) -> Vec<CheckConfig> {
    let spec = |kind| {
        WorkloadSpec::new(kind)
            .with_txns(txns)
            .with_req_bytes(1024)
            .with_array_footprint(1 << 20)
    };
    let run = |cfg: Config, kind| (cfg, spec(kind), 1);
    let base = |scheme, kind| run(machine(scheme), kind);
    let plain = |name, runs| CheckConfig {
        name,
        runs,
        trace: false,
    };
    let ablation = |placement, cwc| {
        let mut cfg = machine(Scheme::WriteThrough);
        cfg.counter_placement = placement;
        cfg.cwc = cwc;
        run(cfg, WorkloadKind::Queue)
    };
    vec![
        plain(
            "fig13",
            FIGURE_SCHEMES
                .iter()
                .map(|&s| base(s, WorkloadKind::Array))
                .collect(),
        ),
        plain(
            "fig14",
            [Scheme::WriteThrough, Scheme::SuperMem]
                .iter()
                .map(|&s| (machine(s), spec(WorkloadKind::Queue), 4))
                .collect(),
        ),
        CheckConfig {
            name: "fig14t",
            runs: [Scheme::WriteThrough, Scheme::SuperMem]
                .iter()
                .map(|&s| (machine(s), spec(WorkloadKind::Queue), 4))
                .collect(),
            trace: true,
        },
        plain(
            "fig15",
            [Scheme::WriteThrough, Scheme::SuperMem]
                .iter()
                .map(|&s| base(s, WorkloadKind::HashTable))
                .collect(),
        ),
        plain(
            "fig16",
            [16usize, 64]
                .iter()
                .map(|&wq| {
                    run(
                        machine(Scheme::SuperMem).with_write_queue_entries(wq),
                        WorkloadKind::Queue,
                    )
                })
                .collect(),
        ),
        plain(
            "fig17",
            [64u64 << 10, 1 << 20]
                .iter()
                .map(|&cc| {
                    run(
                        machine(Scheme::SuperMem).with_counter_cache_bytes(cc),
                        WorkloadKind::BTree,
                    )
                })
                .collect(),
        ),
        plain(
            "table1",
            vec![
                base(Scheme::SuperMem, WorkloadKind::Array),
                base(Scheme::WriteThrough, WorkloadKind::Array),
            ],
        ),
        plain(
            "headline",
            vec![
                base(Scheme::SuperMem, WorkloadKind::Queue),
                base(Scheme::WriteBackIdeal, WorkloadKind::Queue),
            ],
        ),
        plain(
            "ablation",
            vec![
                ablation(CounterPlacement::SameBank, false),
                ablation(CounterPlacement::CrossBank, true),
            ],
        ),
        plain(
            "osiris",
            vec![
                base(Scheme::Osiris, WorkloadKind::Array),
                base(Scheme::SuperMem, WorkloadKind::Array),
            ],
        ),
        plain(
            "endurance",
            vec![
                base(Scheme::WriteThrough, WorkloadKind::BTree),
                base(Scheme::SuperMem, WorkloadKind::BTree),
            ],
        ),
        CheckConfig {
            name: "tracebench",
            runs: vec![base(Scheme::SuperMem, WorkloadKind::Array)],
            trace: true,
        },
        plain(
            "battery",
            vec![base(Scheme::WriteBackIdeal, WorkloadKind::Queue)],
        ),
        plain(
            "mixed",
            [10u8, 90]
                .iter()
                .map(|&pct| {
                    let spec = spec(WorkloadKind::Ycsb).with_ycsb_read_pct(pct);
                    (machine(Scheme::SuperMem), spec, 1)
                })
                .collect(),
        ),
        plain("sca", vec![base(Scheme::Sca, WorkloadKind::Array)]),
        plain(
            "bitwrites",
            vec![(
                machine(Scheme::Unsec),
                spec(WorkloadKind::BTree).with_req_bytes(256),
                1,
            )],
        ),
        plain(
            "authenticated",
            vec![run(
                machine(Scheme::SuperMem).with_integrity_tree(true),
                WorkloadKind::Queue,
            )],
        ),
        plain(
            "treesweep",
            vec![run(
                machine(Scheme::SuperMem)
                    .with_integrity_tree(true)
                    .with_persisted_levels(Some(1)),
                WorkloadKind::Queue,
            )],
        ),
    ]
}

/// Checks one figure configuration, merging all of its runs' reports.
fn check_one(cc: &CheckConfig) -> Result<CheckReport, ArgError> {
    let mut merged = CheckReport::default();
    for (cfg, spec, programs) in &cc.runs {
        let exp =
            session(cfg, spec, *programs).map_err(|e| ArgError(format!("{}: {e}", cc.name)))?;
        let report = if cc.trace {
            check_run_trace(exp)
        } else {
            check_run(exp)
        };
        merged.events_seen += report.events_seen;
        merged.violations.extend(report.violations);
    }
    Ok(merged)
}

/// `supermem check [--json] [--txns N] [--config NAME] [--channels N]
/// [--mutate M]`: run the persistency-ordering checker over the figure
/// configurations (or prove a rule fires under an injected mutation).
pub fn cmd_check(argv: &[String]) -> Result<(), ArgError> {
    let mut json = false;
    let mut txns = 25u64;
    let mut channels = 1usize;
    let mut only: Option<String> = None;
    let mut mutate: Option<Mutation> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--txns" => {
                txns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ArgError("invalid --txns".into()))?;
            }
            "--channels" => {
                channels = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ArgError("invalid --channels".into()))?;
                if channels == 0 || !channels.is_power_of_two() {
                    return Err(ArgError("--channels must be a power of two".into()));
                }
            }
            "--config" => only = it.next().cloned(),
            "--mutate" => {
                let m = it
                    .next()
                    .ok_or_else(|| ArgError("--mutate needs a value".into()))?;
                mutate = Some(Mutation::parse(m).ok_or_else(|| {
                    ArgError(format!(
                        "unknown mutation `{m}` (expected one of: wt-off pair-split \
                         cwc-newest rsr-skip tree-skip tree-late tree-double-root)"
                    ))
                })?);
            }
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

    if let Some(m) = mutate {
        let report = run_mutant_sharded(Some(m), channels);
        if json {
            println!("{}", report.to_json());
        } else {
            println!("mutation {}: {report}", m.name());
        }
        return if report.is_clean() {
            Err(ArgError(format!(
                "mutation `{}` injected but no invariant fired",
                m.name()
            )))
        } else {
            Ok(())
        };
    }

    let mut configs: Vec<CheckConfig> = check_configs(txns)
        .into_iter()
        .filter(|c| only.as_deref().is_none_or(|n| n == c.name))
        .collect();
    // Every figure configuration runs unchanged at any interleaving
    // width; the checker shards its shadow state to match.
    for cc in &mut configs {
        for (cfg, _, _) in &mut cc.runs {
            cfg.channels = channels;
        }
    }
    if configs.is_empty() {
        return Err(ArgError(format!(
            "unknown config `{}`",
            only.unwrap_or_default()
        )));
    }

    let mut t = TextTable::new(
        ["config", "runs", "events", "violations", "status"]
            .map(str::to_owned)
            .to_vec(),
    );
    let mut dirty = Vec::new();
    let mut json_rows = Vec::new();
    for cc in &configs {
        let report = check_one(cc)?;
        t.row(vec![
            cc.name.to_owned(),
            cc.runs.len().to_string(),
            report.events_seen.to_string(),
            report.violations.len().to_string(),
            if report.is_clean() { "ok" } else { "FAIL" }.to_owned(),
        ]);
        if json {
            json_rows.push(format!("\"{}\":{}", cc.name, report.to_json()));
        }
        if !report.is_clean() {
            dirty.push((cc, report));
        }
    }
    if json {
        println!("{{{}}}", json_rows.join(","));
    } else {
        print!("{}", t.render());
    }

    if dirty.is_empty() {
        return Ok(());
    }
    for (cc, report) in &dirty {
        eprintln!();
        eprintln!("{}:", cc.name);
        for v in &report.violations {
            eprintln!("  {v}");
            for (ord, ev) in &v.window {
                eprintln!("    #{ord} {ev}");
            }
        }
        // The smallest transaction count (halving from `txns`) at which
        // the configuration still reports a violation.
        let min = shrink(txns, |t| {
            let smaller = CheckConfig {
                name: cc.name,
                runs: cc
                    .runs
                    .iter()
                    .map(|(cfg, spec, programs)| {
                        (cfg.clone(), spec.clone().with_txns(t), *programs)
                    })
                    .collect(),
                trace: cc.trace,
            };
            check_one(&smaller).is_ok_and(|r| !r.is_clean())
        });
        let ch = if channels == 1 {
            String::new()
        } else {
            format!(" --channels {channels}")
        };
        eprintln!(
            "  minimal repro: supermem check --config {} --txns {min}{ch}",
            cc.name
        );
    }
    Err(ArgError(format!(
        "persistency-ordering violations in {} configuration(s)",
        dirty.len()
    )))
}

/// `supermem lincheck [--structure S|all] [--cores N] [--ops N]
/// [--depth N] [--crash {all|none|K}] [--reduce] [--mutate M] [--json]`
pub fn cmd_lincheck(argv: &[String]) -> Result<(), ArgError> {
    let mut structure: Option<StructureKind> = None;
    let mut cores = 2usize;
    let mut ops = 3usize;
    let mut depth = 96u64;
    let mut crash = CrashMode::All;
    let mut reduce = false;
    let mut mutate: Option<Mutant> = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--structure" => {
                let s = it
                    .next()
                    .ok_or_else(|| ArgError("--structure needs a value".into()))?;
                if s != "all" {
                    structure = Some(StructureKind::parse(s).ok_or_else(|| {
                        ArgError(format!("unknown structure `{s}` (stack queue hash all)"))
                    })?);
                }
            }
            "--cores" => {
                cores = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|c| (1..=4).contains(c))
                    .ok_or_else(|| ArgError("invalid --cores (1..=4)".into()))?;
            }
            "--ops" => {
                ops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|o| (1..=8).contains(o))
                    .ok_or_else(|| ArgError("invalid --ops (1..=8)".into()))?;
            }
            "--depth" => {
                depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|d| *d > 0)
                    .ok_or_else(|| ArgError("invalid --depth".into()))?;
            }
            "--crash" => {
                let c = it
                    .next()
                    .ok_or_else(|| ArgError("--crash needs a value".into()))?;
                crash = match c.as_str() {
                    "all" => CrashMode::All,
                    "none" => CrashMode::Final,
                    k => CrashMode::AfterPersist(k.parse().map_err(|_| {
                        ArgError(format!(
                            "invalid --crash `{k}` (all, none, or a persist index)"
                        ))
                    })?),
                };
            }
            "--reduce" => reduce = true,
            "--json" => json = true,
            "--mutate" => {
                let m = it
                    .next()
                    .ok_or_else(|| ArgError("--mutate needs a value".into()))?;
                mutate = Some(Mutant::parse(m).ok_or_else(|| {
                    ArgError(format!(
                        "unknown mutant `{m}` (expected one of: skip-linearize \
                         complete-first drop-invalidate skip-scan)"
                    ))
                })?);
            }
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }
    let structures: Vec<StructureKind> =
        structure.map_or_else(|| StructureKind::ALL.to_vec(), |s| vec![s]);

    let mut t = TextTable::new(
        [
            "structure",
            "schedules",
            "crash points",
            "dedup",
            "pruned",
            "ms",
            "verdict",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    let mut json_rows = Vec::new();
    let mut violations = Vec::new();
    let mut missed = Vec::new();
    for s in &structures {
        let mut cfg = LincheckConfig::mixed(*s, cores, ops);
        cfg.crash = crash;
        cfg.reduce = reduce;
        cfg.mutant = mutate;
        cfg.max_actions = depth;
        let t0 = std::time::Instant::now();
        let report = lincheck(&cfg);
        let ms = t0.elapsed().as_millis();
        let caught = report.violation.is_some();
        let verdict = match (mutate.is_some(), caught) {
            (false, false) => "ok",
            (false, true) => "VIOLATION",
            (true, true) => "caught",
            (true, false) => "MISSED",
        };
        t.row(vec![
            s.name().to_owned(),
            report.stats.schedules.to_string(),
            report.stats.crash_points.to_string(),
            report.stats.dedup_hits.to_string(),
            report.stats.sleep_pruned.to_string(),
            ms.to_string(),
            verdict.to_owned(),
        ]);
        if json {
            let viol = report
                .violation
                .as_ref()
                .map_or_else(|| "null".to_owned(), |v| format!("{:?}", v.to_string()));
            json_rows.push(format!(
                "\"{}\":{{\"schedules\":{},\"crash_points\":{},\"dedup_hits\":{},\
                 \"sleep_pruned\":{},\"ms\":{ms},\"violation\":{viol}}}",
                s.name(),
                report.stats.schedules,
                report.stats.crash_points,
                report.stats.dedup_hits,
                report.stats.sleep_pruned,
            ));
        }
        match (mutate.is_some(), caught) {
            (true, false) => missed.push(*s),
            (_, true) => violations.push((*s, cfg)),
            _ => {}
        }
    }
    if json {
        println!("{{{}}}", json_rows.join(","));
    } else {
        print!("{}", t.render());
    }

    // Shrink every violation to a minimal replayable witness.
    for (s, cfg) in &violations {
        if let Some(repro) = find_minimal(cfg) {
            eprintln!();
            eprintln!("{s}: minimal repro: {}", repro.summary());
        }
    }
    if let Some(m) = mutate {
        return if missed.is_empty() {
            Ok(())
        } else {
            let names: Vec<&str> = missed.iter().map(|s| s.name()).collect();
            Err(ArgError(format!(
                "mutant `{m}` injected but not caught on: {}",
                names.join(", ")
            )))
        };
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "durable-linearizability violations in {} structure(s)",
            violations.len()
        )))
    }
}

/// `supermem list`
pub fn cmd_list() {
    println!("schemes:");
    for s in [
        supermem::Scheme::Unsec,
        supermem::Scheme::WriteBackIdeal,
        supermem::Scheme::WriteThrough,
        supermem::Scheme::WtCwc,
        supermem::Scheme::WtXbank,
        supermem::Scheme::SuperMem,
        supermem::Scheme::WtSameBank,
        supermem::Scheme::Osiris,
        supermem::Scheme::Sca,
    ] {
        println!("  {s}");
    }
    println!("workloads:");
    for k in ALL_KINDS {
        println!("  {k}");
    }
}

/// `supermem kv {run|torture|recover}` — the recoverable KV store:
/// drive it with Zipfian traffic (`run`), sweep the differential
/// crash-torture campaign (`torture`), or crash one run at a chosen
/// point and print the typed recovery report (`recover`).
pub fn cmd_kv(argv: &[String]) -> Result<(), ArgError> {
    match argv.first().map(String::as_str) {
        Some("run") => cmd_kv_run(&argv[1..]),
        Some("torture") => cmd_kv_torture(&argv[1..]),
        Some("recover") => cmd_kv_recover(&argv[1..]),
        Some(other) => Err(ArgError(format!(
            "unknown kv subcommand `{other}` (expected run, torture, or recover)"
        ))),
        None => Err(ArgError(
            "kv needs a subcommand: run, torture, or recover".into(),
        )),
    }
}

fn cmd_kv_run(argv: &[String]) -> Result<(), ArgError> {
    let mut scheme = Scheme::SuperMem;
    let mut requests: u64 = 2000;
    let mut spec = TrafficSpec::default();
    let mut snapshot_every: u64 = 64;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => scheme = parse_scheme(&flag_value(&mut it, "--scheme")?)?,
            "--requests" => requests = flag_number(&mut it, "--requests")?,
            "--read-pct" => {
                spec.read_pct = flag_number(&mut it, "--read-pct")?;
                if spec.read_pct > 100 {
                    return Err(ArgError("--read-pct must be 0..=100".into()));
                }
            }
            "--zipf" => spec.zipf_theta = flag_number(&mut it, "--zipf")?,
            "--keyspace" => {
                spec.keyspace = flag_number(&mut it, "--keyspace")?;
                if spec.keyspace == 0 {
                    return Err(ArgError("--keyspace must be at least 1".into()));
                }
            }
            "--snapshot-every" => {
                snapshot_every = flag_number(&mut it, "--snapshot-every")?;
            }
            "--seed" => spec.seed = flag_number(&mut it, "--seed")?,
            "--json" => {}
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

    let cfg = scheme.apply(supermem::sim::Config::default());
    let mut mem = DirectMem::new(&cfg);
    // Size the snapshot slots for the whole keyspace (8 B keys and
    // values, 16 B record framing) with headroom, 64-aligned.
    let snap_cap =
        (supermem_kv::layout::SNAP_HEADER_LEN + spec.keyspace * 24 + 64).next_multiple_of(64);
    let layout = KvLayout::new(0x8000, 1 << 16, snap_cap)
        .map_err(|e| ArgError(format!("kv layout: {e}")))?;
    let mut w = KvWorkload::new(&mut mem, layout, snapshot_every, spec)
        .map_err(|e| ArgError(format!("kv format: {e}")))?;
    for _ in 0..requests {
        Workload::step(&mut w, &mut mem).map_err(|e| ArgError(format!("kv step: {e}")))?;
    }
    let verify = Workload::verify(&mut w, &mut mem);
    let stats = w.store().stats();

    let mut t = TextTable::new(
        [
            "scheme",
            "requests",
            "acked",
            "reads",
            "puts",
            "dels",
            "snapshots",
            "rotations",
            "wal-bytes",
            "entries",
            "verify",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    t.row(vec![
        scheme.name().to_owned(),
        requests.to_string(),
        stats.acked.to_string(),
        w.reads().to_string(),
        stats.puts.to_string(),
        stats.dels.to_string(),
        stats.snapshots.to_string(),
        stats.rotations.to_string(),
        stats.wal_bytes.to_string(),
        w.store().len().to_string(),
        match &verify {
            Ok(()) => "ok".to_owned(),
            Err(e) => format!("FAIL: {e}"),
        },
    ]);
    let mut rep = Report::new("kv");
    rep.section("Recoverable KV store under open-loop Zipfian traffic", t);
    rep.footnote(
        "(verify = recover from the persistent image and compare against the in-DRAM shadow)",
    );
    rep.emit();
    verify.map_err(|e| ArgError(format!("kv verify failed: {e}")))
}

fn cmd_kv_torture(argv: &[String]) -> Result<(), ArgError> {
    let flags = CampaignFlags::parse(argv, false, |_, _| Ok(false))?;
    let schemes = flags
        .scheme
        .map_or(KV_TORTURE_SCHEMES.to_vec(), |s| vec![s]);
    let mut campaign = kv_campaign(&schemes, &[flags.channels.unwrap_or(1)]);
    flags.narrow(&mut campaign);
    let report = campaign.run();

    let t = tally_table(
        &campaign,
        &report,
        "scheme",
        machine_label,
        [Verdict::New, Verdict::Old],
        true,
    );
    let mut rep = Report::new("kvtorture");
    rep.section("KV crash torture: crash point x fault class x seed", t);
    rep.footnote(&format!(
        "{} injections across {} scheme(s), {} fault class(es), {} seed(s)",
        report.total(),
        schemes.len(),
        campaign.faults.len(),
        campaign.seeds.len()
    ));
    rep.footnote(
        "(lost-unacked-tail = only never-acknowledged ops missing; detected = degraded but \
         flagged by a typed error, the recovery report, or ECC/poison/dirty-shutdown)",
    );
    rep.emit();
    fail_on_silent(&campaign, &report)
}

fn cmd_kv_recover(argv: &[String]) -> Result<(), ArgError> {
    let mut scheme = Scheme::SuperMem;
    let mut seed: u64 = 1;
    let mut point: Option<u64> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => scheme = parse_scheme(&flag_value(&mut it, "--scheme")?)?,
            "--seed" => seed = flag_number(&mut it, "--seed")?,
            "--point" => point = Some(flag_number(&mut it, "--point")?),
            "--json" => {}
            other => return Err(ArgError(format!("unknown flag `{other}`"))),
        }
    }

    let campaign = kv_campaign(&[scheme], &[1]);
    let cell = &campaign.cells[0];
    let total = campaign.crash_points(cell, seed);
    let point = point.unwrap_or(total / 2).clamp(1, total);
    let r = campaign.run_case(&Case {
        cell: cell.clone(),
        fault: Fault::None,
        point,
        seed,
    });

    let mut t = TextTable::new(["field", "value"].map(str::to_owned).to_vec());
    t.row(vec!["crash point".into(), format!("{point} of {total}")]);
    t.row(vec![
        "classification".into(),
        campaign.subject.label(r.verdict).into(),
    ]);
    match &r.evidence {
        Some(rec) => {
            t.row(vec![
                "snapshot".into(),
                format!("slot {} seq {}", rec.snapshot_slot, rec.snapshot_seq),
            ]);
            t.row(vec![
                "snapshots rejected".into(),
                rec.snapshots_rejected.to_string(),
            ]);
            t.row(vec!["manifest ok".into(), rec.manifest_ok.to_string()]);
            t.row(vec!["wal header ok".into(), rec.wal_header_ok.to_string()]);
            t.row(vec!["wal epoch".into(), rec.wal_seq.to_string()]);
            t.row(vec![
                "records replayed".into(),
                rec.records_replayed.to_string(),
            ]);
            t.row(vec![
                "corrupt entries skipped".into(),
                rec.corrupt_entries_skipped.to_string(),
            ]);
            t.row(vec![
                "torn tail".into(),
                rec.torn_tail_at
                    .map_or("none".to_owned(), |o| format!("at offset {o}")),
            ]);
            t.row(vec!["resume offset".into(), rec.resume_offset.to_string()]);
            t.row(vec!["entries".into(), rec.entries.to_string()]);
            t.row(vec![
                "state digest".into(),
                format!("{:#010x}", rec.state_digest),
            ]);
        }
        None => t.row(vec!["recovery".into(), r.detail.clone()]),
    }
    let mut rep = Report::new("kvrecover");
    rep.section(
        &format!("KV recovery after a crash at append {point} ({scheme})"),
        t,
    );
    rep.footnote(&r.detail);
    rep.emit();
    Ok(())
}
