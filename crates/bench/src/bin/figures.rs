//! Regenerates the committed figures of `supermem_bench::figures`.
//!
//! ```text
//! figures <name>...     print the named figures
//! figures --all         print every figure
//! figures --check DIR   regenerate every figure and byte-compare it with
//!                       DIR/<name>.txt; exit 1 at the first difference
//! ```
//!
//! `--json` prints JSON instead of text. Every mode ends with one stderr
//! line counting the runs the figures requested and those simulated.

use std::path::Path;
use std::process::ExitCode;

use supermem_bench::figures::{find, first_difference, Figure, FIGURES};
use supermem_bench::Runs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--json").collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut runs = Runs::default();
    let figures: Vec<&Figure> = match args.as_slice() {
        ["--check", dir] => {
            let checked = check(Path::new(dir), &mut runs);
            return finish(&runs, checked);
        }
        ["--all"] => FIGURES.iter().collect(),
        [_, ..] if args.iter().all(|a| !a.starts_with('-')) => {
            match args.iter().map(|&n| find(n).ok_or(n)).collect() {
                Ok(figures) => figures,
                Err(name) => return usage(&format!("unknown figure `{name}`")),
            }
        }
        _ => return usage("expected figure names, --all or --check DIR"),
    };
    for figure in figures {
        figure.render(&mut runs).emit();
    }
    finish(&runs, Ok(()))
}

/// Prints the run counts and the error, if any, and picks the exit code.
fn finish(runs: &Runs, result: Result<(), String>) -> ExitCode {
    eprintln!(
        "figures: {} runs requested, {} simulated",
        runs.requested(),
        runs.simulated()
    );
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Regenerates every figure and compares it with `dir/<name>.txt`,
/// stopping at the first file that differs or cannot be read.
fn check(dir: &Path, runs: &mut Runs) -> Result<(), String> {
    for figure in &FIGURES {
        let path = dir.join(format!("{}.txt", figure.name));
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let fresh = figure.render(runs).render_text();
        if let Some(line) = first_difference(&committed, &fresh) {
            let show = |text: &str| {
                text.lines()
                    .nth(line - 1)
                    .unwrap_or("<end of file>")
                    .to_owned()
            };
            return Err(format!(
                "{}:{line} differs from the regenerated figure\n  committed:   {}\n  \
                 regenerated: {}",
                path.display(),
                show(&committed),
                show(&fresh)
            ));
        }
    }
    eprintln!(
        "figures: all {} files in {} match",
        FIGURES.len(),
        dir.display()
    );
    Ok(())
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("figures: {problem}\nusage: figures <name>... | --all | --check DIR  [--json]");
    eprintln!("figures and their pinned sizes:");
    for f in &FIGURES {
        let size = f.txns.map_or("fixed".to_owned(), |n| n.to_string());
        eprintln!("  {:<14} {size}", f.name);
    }
    ExitCode::from(2)
}
