//! `golf-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! [--spans-out <path>]`
//!
//! Runs one workload for about `--seconds` of wall-clock time and prints a
//! human-readable report followed, as the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run is split into
//! an untraced and a traced pass over the same rounds, and the metrics are
//! the per-layer ones. Exits 1 if any output check failed, 2 on bad usage.

use golf_perfbench::workloads::{Checks, Size, Workload};
use golf_perfbench::{end_to_end, per_layer, run_pass, Metric, Pass, Plan};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

fn print_counts(label: &str, pass: &Pass) {
    for (i, r) in pass.rounds.iter().enumerate() {
        println!(
            "{label} round {i}: setup {:.6} s, timed {:.4} s, {:.1} {}/s",
            r.setup_ns as f64 / 1e9,
            r.timed_ns as f64 / 1e9,
            r.counts.units as f64 / (r.timed_ns as f64 / 1e9),
            pass.workload.unit()
        );
    }
    let c = pass.counts();
    println!(
        "{label}: {} rounds; per round: units {} runs {} reports {} detected_sites {} ticks {} \
         instrs {} spawned {} parks {} wakes {} forced_shutdowns {} allocs {} frees {} \
         live_objects {} | {:?}",
        pass.rounds.len(),
        c.units,
        c.runs,
        c.reports,
        c.detected_sites,
        c.ticks,
        c.instrs,
        c.spawned,
        c.parks,
        c.wakes,
        c.forced_shutdowns,
        c.allocs,
        c.frees,
        c.live_objects,
        c.core
    );
}

fn json_result(checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("golf-perfbench: {e}");
            eprintln!(
                "usage: golf-perfbench --workload <service|corpus|gc-churn|gc-idle> --seed <n> \
                 --seconds <n> --trace <0|1> [--spans-out <path>]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let size = Size::FULL;
    let mut checks = Checks::default();
    println!(
        "golf-perfbench: workload {} seed {} seconds {} trace {} (one thread; {} available)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("step = {}; throughput unit = {}", w.step(), w.unit());

    let budget = Duration::from_secs(args.seconds);
    let metrics = if !args.trace {
        let pass =
            run_pass(w, &size, args.seed, false, Plan::Until { budget, min: 3 }, &mut checks);
        print_counts("untraced", &pass);
        end_to_end(w, &pass)
    } else {
        let untraced = run_pass(
            w,
            &size,
            args.seed,
            false,
            Plan::Until { budget: budget / 2, min: 1 },
            &mut checks,
        );
        let traced =
            run_pass(w, &size, args.seed, true, Plan::Exactly(untraced.rounds.len()), &mut checks);
        print_counts("untraced", &untraced);
        print_counts("traced", &traced);
        checks.check(traced.counts() == untraced.counts(), || {
            "traced pass counts differ from the untraced pass".to_string()
        });
        let log = traced.rec.spans.as_ref().expect("traced pass has spans");
        println!("{:<20} {:>12} {:>12} {:>12}", "span", "calls", "total_s", "self_s");
        for (name, t) in log.totals() {
            println!(
                "{name:<20} {:>12} {:>12.6} {:>12.6}",
                t.calls,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        if let Some(path) = &args.spans_out {
            if let Err(e) = std::fs::write(path, log.to_jsonl()) {
                eprintln!("golf-perfbench: cannot write spans to {path}: {e}");
                return ExitCode::from(2);
            }
            println!("spans written to {path}");
        }
        per_layer(&untraced, &traced)
    };

    for m in &metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!("failed_ratio {ratio} ({} of {} checks failed)", checks.failed, checks.attempted);
    for f in &checks.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", json_result(&checks, &metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
