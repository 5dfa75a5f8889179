//! End-to-end tests of the `dvdc-sim` binary: spawn the real executable
//! and check exit codes and output.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvdc-sim"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    for invocation in [vec![], vec!["help"]] {
        let out = run(&invocation);
        assert!(out.status.success());
        let text = stdout(&out);
        for cmd in ["plan", "drill", "run", "model", "mttdl"] {
            assert!(text.contains(cmd), "help missing '{cmd}'");
        }
    }
}

#[test]
fn plan_prints_groups_and_balance() {
    let out = run(&[
        "plan",
        "--nodes",
        "4",
        "--vms-per-node",
        "3",
        "--group",
        "3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("4 groups"));
    assert!(text.contains("parity on node3"));
    assert!(text.contains("[1, 1, 1, 1]"));
}

#[test]
fn drill_verifies_byte_exact_recovery() {
    // The second shape is k = 5, m = 2 over 256 KiB images (262 144
    // bytes, which 6 does not divide): a double-parity group takes an
    // image of any length.
    for shape in [
        "--nodes 6 --vms-per-node 2 --group 3 --parity 2 --kill 0,1",
        "--nodes 8 --vms-per-node 5 --group 5 --parity 2 --kill 2,6",
    ] {
        let args: Vec<&str> = std::iter::once("drill")
            .chain(shape.split_whitespace())
            .collect();
        let out = run(&args);
        assert!(out.status.success(), "{shape}: {}", stderr(&out));
        assert!(
            stdout(&out).contains("byte-exact after recovery ✓"),
            "{shape}"
        );
    }
}

#[test]
fn run_reports_outcome() {
    let out = run(&[
        "run",
        "--job-secs",
        "120",
        "--interval",
        "20",
        "--seed",
        "7",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("completion ratio"));
    assert!(text.contains("checkpoint rounds"));
}

#[test]
fn run_replays_a_trace_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("dvdc_cli_test_trace.csv");
    std::fs::write(&path, "15,0\n45,2,3\n").unwrap();
    let out = run(&[
        "run",
        "--job-secs",
        "90",
        "--interval",
        "10",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("failures          : 2"));
}

#[test]
fn model_prints_both_optima() {
    let out = run(&["model", "--mtbf-hours", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("diskless"));
    assert!(text.contains("disk-full"));
    assert!(text.contains("Daly"));
}

#[test]
fn mttdl_prints_years() {
    let out = run(&["mttdl", "--nodes", "16", "--node-mtbf-days", "30"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("MTTDL, single parity"));
}

#[test]
fn bad_arguments_fail_with_messages() {
    let out = run(&["plan", "--nodes", "four"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--nodes four"));

    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));

    let out = run(&["drill", "--kill", "99"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no such node"));

    let out = run(&["plan", "--group", "9"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("distinct nodes"));
}
