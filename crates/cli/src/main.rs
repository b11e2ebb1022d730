//! `supermem` — command-line experiment driver.
//!
//! Run `supermem help` for the commands and every flag they accept (the
//! one listing is `usage()` below). Sizes accept `K`/`M` suffixes
//! (`--cc 256K`). Everything is deterministic in `--seed`.

use std::process::ExitCode;

mod args;
mod commands;

use args::{parse_run_flags, ArgError};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    concat!(
        "usage:\n",
        "  supermem run     [--scheme S] [--workload W] [--txns N] [--req BYTES]\n",
        "                   [--wq ENTRIES] [--cc BYTES] [--channels N] [--programs P]\n",
        "                   [--seed X] [--read-pct P] [--integrity-tree]\n",
        "                   [--persisted-levels L] [--csv]\n",
        "  supermem sweep   --param {wq|cc|req|programs} --values a,b,c [run flags]\n",
        "  supermem profile [run flags] [--json]\n",
        "  supermem crash   [--scheme S] [--channels N] [--json]\n",
        "  supermem torture [--scheme S] [--fault F|none] [--point K]\n",
        "                   [--seed N] [--seeds COUNT] [--channels N] [--json]\n",
        "  supermem torture --tree [--persisted-levels L] [--fault F|tamper|none]\n",
        "                   [--point K] [--seed N] [--seeds COUNT] [--json]\n",
        "  supermem serve   [--structure {stack|queue|hash}] [--scheme S] [--cores N]\n",
        "                   [--requests N] [--read-pct P] [--mean-gap CYC] [--zipf T]\n",
        "                   [--keyspace K] [--buckets B] [--seed X] [--channels N]\n",
        "                   [--degraded BANK] [--json]\n",
        "  supermem serve   --torture [--structure S] [--scheme S] [--fault F|none]\n",
        "                   [--point K] [--seed N] [--seeds COUNT] [--json]\n",
        "  supermem kv      run     [--scheme S] [--requests N] [--read-pct P] [--zipf T]\n",
        "                           [--keyspace K] [--snapshot-every N] [--seed X] [--json]\n",
        "  supermem kv      torture [--scheme S] [--fault F|none] [--point K] [--seed N]\n",
        "                           [--seeds COUNT] [--channels N] [--json]\n",
        "  supermem kv      recover [--scheme S] [--point K] [--seed N] [--json]\n",
        "  supermem check   [--json] [--txns N] [--config NAME] [--channels N]\n",
        "                   [--mutate {wt-off|pair-split|cwc-newest|rsr-skip|\n",
        "                            tree-skip|tree-late|tree-double-root}]\n",
        "  supermem lincheck [--structure {stack|queue|hash|all}] [--cores N] [--ops N]\n",
        "                   [--depth N] [--crash {all|none|K}] [--reduce] [--json]\n",
        "                   [--mutate {skip-linearize|complete-first|drop-invalidate|skip-scan}]\n",
        "  supermem list\n",
        "\n",
        "schemes: unsec wb wt wt+cwc wt+xbank supermem wt+samebank osiris sca\n",
        "faults:  torn bit-flip double-flip stuck-at transient-read bank-fail\n",
        "workloads: array queue btree hash rbtree ycsb (--read-pct sets its read share)\n",
        "sizes accept K/M suffixes (e.g. --cc 256K)"
    )
}

fn dispatch(argv: &[String]) -> Result<(), ArgError> {
    match argv.first().map(String::as_str) {
        Some("run") => commands::cmd_run(parse_run_flags(&argv[1..])?),
        Some("sweep") => commands::cmd_sweep(&argv[1..]),
        Some("profile") => commands::cmd_profile(&argv[1..]),
        Some("crash") => commands::cmd_crash(&argv[1..]),
        Some("torture") => commands::cmd_torture(&argv[1..]),
        Some("serve") => commands::cmd_serve(&argv[1..]),
        Some("kv") => commands::cmd_kv(&argv[1..]),
        Some("check") => commands::cmd_check(&argv[1..]),
        Some("lincheck") => commands::cmd_lincheck(&argv[1..]),
        Some("list") => {
            commands::cmd_list();
            Ok(())
        }
        Some("help" | "--help" | "-h") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(ArgError(format!("unknown command `{other}`"))),
    }
}
