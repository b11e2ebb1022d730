//! End-to-end tests of the `supermem` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_supermem"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
    assert!(stdout.contains("supermem run"));
}

#[test]
fn list_names_all_schemes_and_workloads() {
    let (ok, stdout, _) = run(&["list"]);
    assert!(ok);
    for name in ["Unsec", "WB", "WT+CWC", "SuperMem", "Osiris", "SCA"] {
        assert!(stdout.contains(name), "missing scheme {name}");
    }
    for name in ["array", "queue", "btree", "hash", "rbtree"] {
        assert!(stdout.contains(name), "missing workload {name}");
    }
}

#[test]
fn run_produces_a_result_row() {
    let (ok, stdout, stderr) = run(&[
        "run",
        "--scheme",
        "supermem",
        "--workload",
        "queue",
        "--txns",
        "25",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("SuperMem"));
    assert!(stdout.contains("queue"));
    assert!(stdout.contains("cyc/txn"));
}

#[test]
fn csv_output_is_machine_readable() {
    let (ok, stdout, _) = run(&[
        "run",
        "--scheme",
        "unsec",
        "--workload",
        "queue",
        "--txns",
        "20",
        "--csv",
    ]);
    assert!(ok);
    let mut lines = stdout.lines();
    let header = lines.next().expect("header");
    assert!(header.starts_with("scheme,workload,"));
    let row = lines.next().expect("row");
    assert!(row.starts_with("Unsec,queue,20,"));
}

#[test]
fn sweep_emits_one_row_per_point() {
    let (ok, stdout, stderr) = run(&[
        "sweep",
        "--param",
        "wq",
        "--values",
        "8,32",
        "--workload",
        "queue",
        "--txns",
        "20",
        "--csv",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 3, "header + 2 rows:\n{stdout}");
}

#[test]
fn profile_prints_latency_attribution() {
    let (ok, stdout, stderr) = run(&[
        "profile",
        "--scheme",
        "supermem",
        "--workload",
        "queue",
        "--txns",
        "20",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("flush phase"));
    assert!(stdout.contains("counter fetch"));
    assert!(stdout.contains("queue admission"));
    assert!(stdout.contains("write queue:"));
}

#[test]
fn profile_json_reconciles_with_txns() {
    let (ok, stdout, stderr) = run(&[
        "profile",
        "--scheme",
        "supermem",
        "--workload",
        "queue",
        "--txns",
        "20",
        "--json",
    ]);
    assert!(ok, "stderr: {stderr}");
    let line = stdout.lines().next().expect("one JSON object");
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"breakdown\":"));
    assert!(line.contains("\"txns\":20"));
    assert!(line.contains("\"histograms\":"));
    assert!(line.contains("\"banks\":["));
}

#[test]
fn profile_rejects_invalid_config() {
    let (ok, _, stderr) = run(&["profile", "--programs", "99"]);
    assert!(!ok);
    assert!(stderr.contains("programs must be in"));
}

#[test]
fn crash_reports_a_verdict() {
    let (ok, stdout, _) = run(&["crash", "--scheme", "supermem"]);
    assert!(ok);
    assert!(stdout.contains("recoverable at every crash point"));

    // The full table, pinned: every scheme has 12 crash points, 11 rolled
    // back and 1 committed — except SCA, whose unpersisted counters
    // leave 5 windows unrecoverable.
    let (ok, stdout, _) = run(&["crash"]);
    assert!(ok);
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(3)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().take(5).collect())
        .collect();
    let expected: Vec<Vec<&str>> = [
        "Unsec",
        "WB",
        "WT",
        "WT+CWC",
        "WT+XBank",
        "SuperMem",
        "WT+SameBank",
        "Osiris",
    ]
    .iter()
    .map(|&s| vec![s, "12", "11", "1", "0"])
    .chain([vec!["SCA", "12", "7", "0", "5"]])
    .collect();
    assert_eq!(rows, expected);
}

#[test]
fn unknown_flags_fail_with_guidance() {
    let (ok, _, stderr) = run(&["run", "--bogus", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
    assert!(stderr.contains("usage:"));

    // Out-of-range campaign input is an error with guidance, not a panic.
    let (ok, _, stderr) = run(&["torture", "--tree", "--persisted-levels", "99"]);
    assert!(!ok);
    assert!(stderr.contains("exceeds integrity-tree height"), "{stderr}");
    assert!(stderr.contains("usage:"));
}

#[test]
fn unknown_command_fails_with_guidance() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}
