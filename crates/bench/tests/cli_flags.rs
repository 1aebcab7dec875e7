//! Every experiment binary rejects what it does not understand: an unknown
//! flag, a flag without its value, or a value that does not parse exits
//! with status 2 and a usage line on stderr, before any work starts.

use std::process::Command;

/// Every binary of this package.
const BINS: [(&str, &str); 13] = [
    ("expansion_costs", env!("CARGO_BIN_EXE_expansion_costs")),
    ("fig1_blocked_over_time", env!("CARGO_BIN_EXE_fig1_blocked_over_time")),
    ("fig2_gc_phases", env!("CARGO_BIN_EXE_fig2_gc_phases")),
    ("fig3_goleak_ratio", env!("CARGO_BIN_EXE_fig3_goleak_ratio")),
    ("fig4_mark_slowdown", env!("CARGO_BIN_EXE_fig4_mark_slowdown")),
    ("golf_explorer", env!("CARGO_BIN_EXE_golf_explorer")),
    ("golf_tester", env!("CARGO_BIN_EXE_golf_tester")),
    ("rq1c_real_service", env!("CARGO_BIN_EXE_rq1c_real_service")),
    ("run_all", env!("CARGO_BIN_EXE_run_all")),
    ("sweep_leak_rate", env!("CARGO_BIN_EXE_sweep_leak_rate")),
    ("table1_micro", env!("CARGO_BIN_EXE_table1_micro")),
    ("table2_service", env!("CARGO_BIN_EXE_table2_service")),
    ("table3_production", env!("CARGO_BIN_EXE_table3_production")),
];

fn path(name: &str) -> &'static str {
    BINS.iter().find(|(n, _)| *n == name).map(|(_, p)| *p).expect("known binary")
}

/// Runs `exe` with `args` and asserts a usage error naming `name`.
fn assert_usage_error(name: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: stderr {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with(&format!("usage: {name}"))),
        "{name} {args:?}: no usage line in stderr {stderr:?}"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?}: did work before rejecting");
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for (name, exe) in BINS {
        assert_usage_error(name, exe, &["--no-such-flag"]);
    }
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    assert_usage_error("table1_micro", path("table1_micro"), &["--runs"]);
    assert_usage_error("golf_explorer", path("golf_explorer"), &["--max-first-leak"]);
    assert_usage_error("fig1_blocked_over_time", path("fig1_blocked_over_time"), &["--csv"]);
}

#[test]
fn a_value_that_does_not_parse_is_a_usage_error() {
    for flag in ["--budget", "--seed", "--threads", "--shrink-budget", "--max-first-leak"] {
        assert_usage_error("golf_explorer", path("golf_explorer"), &[flag, "x"]);
    }
    assert_usage_error("golf_explorer", path("golf_explorer"), &["--corpus", "nope"]);
    assert_usage_error("golf_explorer", path("golf_explorer"), &["--strategy", "nope"]);
    assert_usage_error("table2_service", path("table2_service"), &["--run-ticks", "-5"]);
    assert_usage_error("sweep_leak_rate", path("sweep_leak_rate"), &["--rates", "1,x"]);
}
