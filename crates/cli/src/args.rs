//! Flag parsing (dependency-free).

use supermem::sim::Config;
use supermem::workloads::{WorkloadKind, WorkloadSpec};
use supermem::{env_run_threads, Scheme};

/// A human-readable argument error.
#[derive(Debug)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed `run`-style flags: one run's machine, workload and program
/// count, plus output flags.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The named scheme (reported in the result rows).
    pub scheme: Scheme,
    /// The machine: `scheme`'s preset plus the machine flags.
    pub cfg: Config,
    /// Program 0's workload.
    pub spec: WorkloadSpec,
    /// Concurrent programs, one per core.
    pub programs: usize,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Flags the parser did not consume (for `sweep`'s own flags).
    pub leftover: Vec<String>,
}

/// Parses a scheme name (paper labels, case-insensitive).
pub fn parse_scheme(s: &str) -> Result<Scheme, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "unsec" => Ok(Scheme::Unsec),
        "wb" | "writeback" | "ideal" => Ok(Scheme::WriteBackIdeal),
        "wt" | "writethrough" => Ok(Scheme::WriteThrough),
        "wt+cwc" | "cwc" => Ok(Scheme::WtCwc),
        "wt+xbank" | "xbank" => Ok(Scheme::WtXbank),
        "supermem" => Ok(Scheme::SuperMem),
        "wt+samebank" | "samebank" => Ok(Scheme::WtSameBank),
        "osiris" => Ok(Scheme::Osiris),
        "sca" => Ok(Scheme::Sca),
        other => Err(ArgError(format!("unknown scheme `{other}`"))),
    }
}

/// Parses a size with optional `K`/`M` suffix.
pub fn parse_size(s: &str) -> Result<u64, ArgError> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1024),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| ArgError(format!("invalid size `{s}`")))
}

/// Parses the shared run flags, collecting unknown flags into
/// [`Parsed::leftover`]. Every flag writes straight into the machine
/// [`Config`] or the [`WorkloadSpec`]; `--seed` seeds both, and the
/// scheme's preset is applied last (it sets only knobs no flag touches).
pub fn parse_run_flags(argv: &[String]) -> Result<Parsed, ArgError> {
    let mut scheme = Scheme::SuperMem;
    let mut cfg = Config::default()
        .with_seed(1)
        .with_run_threads(env_run_threads());
    let mut spec = WorkloadSpec::new(WorkloadKind::Array).with_txns(150);
    let mut programs = 1;
    let mut csv = false;
    let mut leftover = Vec::new();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, ArgError> {
        it.next()
            .cloned()
            .ok_or_else(|| ArgError(format!("{flag} needs a value")))
    };
    let number = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                  flag: &str|
     -> Result<u64, ArgError> {
        value(it, flag)?
            .parse()
            .map_err(|_| ArgError(format!("invalid {flag}")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scheme" => scheme = parse_scheme(&value(&mut it, "--scheme")?)?,
            "--workload" => {
                let w = value(&mut it, "--workload")?;
                spec.kind = WorkloadKind::from_name(&w)
                    .ok_or_else(|| ArgError(format!("unknown workload `{w}`")))?;
            }
            "--txns" => spec.txns = number(&mut it, "--txns")?,
            "--req" => spec.req_bytes = parse_size(&value(&mut it, "--req")?)?,
            "--wq" => cfg.write_queue_entries = number(&mut it, "--wq")? as usize,
            "--cc" => cfg.counter_cache_bytes = parse_size(&value(&mut it, "--cc")?)?,
            "--channels" => {
                cfg.channels = number(&mut it, "--channels")? as usize;
                if cfg.channels == 0 || !cfg.channels.is_power_of_two() {
                    return Err(ArgError("--channels must be a power of two".into()));
                }
            }
            "--programs" => programs = number(&mut it, "--programs")? as usize,
            "--seed" => {
                cfg.seed = number(&mut it, "--seed")?;
                spec.seed = cfg.seed;
            }
            "--read-pct" => {
                spec.ycsb_read_pct = value(&mut it, "--read-pct")?
                    .parse()
                    .map_err(|_| ArgError("invalid --read-pct".into()))?;
                if spec.ycsb_read_pct > 100 {
                    return Err(ArgError("--read-pct must be 0..=100".into()));
                }
            }
            "--integrity-tree" => cfg.integrity_tree = true,
            "--persisted-levels" => {
                let n: u32 = value(&mut it, "--persisted-levels")?
                    .parse()
                    .map_err(|_| ArgError("invalid --persisted-levels".into()))?;
                // The frontier only means anything with the tree armed.
                cfg.integrity_tree = true;
                cfg.persisted_levels = Some(n);
            }
            "--run-threads" => {
                cfg.run_threads = number(&mut it, "--run-threads")? as usize;
                if cfg.run_threads == 0 {
                    return Err(ArgError("--run-threads must be at least 1".into()));
                }
            }
            "--csv" => csv = true,
            other => {
                leftover.push(other.to_owned());
                if let Some(next) = it.peek() {
                    if !next.starts_with("--") {
                        leftover.push(it.next().expect("peeked").clone());
                    }
                }
            }
        }
    }
    Ok(Parsed {
        scheme,
        cfg: scheme.apply(cfg),
        spec,
        programs,
        csv,
        leftover,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let p = parse_run_flags(&strs(&[
            "--scheme",
            "wt+cwc",
            "--workload",
            "btree",
            "--txns",
            "42",
            "--req",
            "4K",
            "--wq",
            "64",
            "--cc",
            "1M",
            "--programs",
            "4",
            "--seed",
            "9",
            "--csv",
        ]))
        .unwrap();
        assert_eq!(p.scheme, Scheme::WtCwc);
        assert_eq!(p.cfg, Scheme::WtCwc.apply(p.cfg.clone()));
        assert_eq!(p.spec.kind, WorkloadKind::BTree);
        assert_eq!(p.spec.txns, 42);
        assert_eq!(p.spec.req_bytes, 4096);
        assert_eq!(p.cfg.write_queue_entries, 64);
        assert_eq!(p.cfg.counter_cache_bytes, 1 << 20);
        assert_eq!(p.programs, 4);
        assert_eq!((p.cfg.seed, p.spec.seed), (9, 9));
        assert!(p.csv);
        assert!(p.leftover.is_empty());
    }

    #[test]
    fn unknown_flags_go_to_leftover_with_values() {
        let p = parse_run_flags(&strs(&["--param", "wq", "--scheme", "unsec"])).unwrap();
        assert_eq!(p.leftover, strs(&["--param", "wq"]));
        assert_eq!(p.scheme, Scheme::Unsec);
        assert!(!p.cfg.encryption);
    }

    #[test]
    fn channels_flag_parses_and_validates() {
        let p = parse_run_flags(&strs(&["--channels", "4"])).unwrap();
        assert_eq!(p.cfg.channels, 4);
        assert!(parse_run_flags(&strs(&["--channels", "3"])).is_err());
        assert!(parse_run_flags(&strs(&["--channels", "0"])).is_err());
    }

    #[test]
    fn persisted_levels_flag_arms_the_tree() {
        let p = parse_run_flags(&strs(&["--persisted-levels", "2"])).unwrap();
        assert!(p.cfg.integrity_tree);
        assert_eq!(p.cfg.persisted_levels, Some(2));
        let p = parse_run_flags(&strs(&["--integrity-tree"])).unwrap();
        assert!(p.cfg.integrity_tree);
        assert_eq!(p.cfg.persisted_levels, None);
        assert!(parse_run_flags(&strs(&["--persisted-levels", "x"])).is_err());
    }

    #[test]
    fn run_threads_flag_parses_and_validates() {
        let p = parse_run_flags(&strs(&["--run-threads", "4"])).unwrap();
        assert_eq!(p.cfg.run_threads, 4);
        assert!(parse_run_flags(&strs(&["--run-threads", "0"])).is_err());
        assert!(parse_run_flags(&strs(&["--run-threads", "x"])).is_err());
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("256K").unwrap(), 256 * 1024);
        assert_eq!(parse_size("4M").unwrap(), 4 << 20);
        assert_eq!(parse_size("512").unwrap(), 512);
        assert!(parse_size("x").is_err());
    }

    #[test]
    fn scheme_aliases() {
        assert_eq!(parse_scheme("SuperMem").unwrap(), Scheme::SuperMem);
        assert_eq!(parse_scheme("xbank").unwrap(), Scheme::WtXbank);
        assert_eq!(parse_scheme("osiris").unwrap(), Scheme::Osiris);
        assert!(parse_scheme("nope").is_err());
    }

    #[test]
    fn read_pct_parses_and_validates() {
        let p = parse_run_flags(&strs(&["--workload", "ycsb", "--read-pct", "95"])).unwrap();
        assert_eq!(p.spec.kind, WorkloadKind::Ycsb);
        assert_eq!(p.spec.ycsb_read_pct, 95);
        assert!(parse_run_flags(&strs(&["--read-pct", "101"])).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse_run_flags(&strs(&["--scheme"])).is_err());
        assert!(parse_run_flags(&strs(&["--txns", "abc"])).is_err());
    }
}
