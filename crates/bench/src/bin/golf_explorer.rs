//! Schedule-exploration campaign runner (the `golf-explore` front end).
//!
//! Explores every target of the selected corpus slice under a budgeted
//! number of schedules, shrinks the first reproducing schedule of each
//! exposed leak, verifies the minimized schedules replay byte-identically,
//! and writes the campaign artifacts (JSONL log, minimized `.schedule`
//! files, reproduced reports, `BENCH_explore.json`).
//!
//! ```text
//! golf_explorer [--corpus goker|cgo|micro|service|all] [--match PAT]
//!               [--budget N] [--strategy random|pct[:d]|delay[:k]]
//!               [--seed N] [--threads N] [--shrink-budget N]
//!               [--no-shrink] [--no-verify] [--out DIR]
//!               [--bench-json FILE] [--gate] [--max-first-leak N]
//!               [--replay FILE]
//! ```
//!
//! `--replay FILE` switches to single-schedule mode: load the schedule,
//! re-run it against its target, and print the reproduced reports.
//!
//! Any other argument, a flag without its value, or a value that does not
//! parse is a usage error (exit status 2).

use golf_bench::{arg_value, check_flags, or_usage, parse_arg};
use golf_explore::{
    replay_run, run_campaign, targets, CampaignConfig, CampaignResult, CorpusSelect, Schedule,
    StrategyKind,
};
use std::fmt::Write as _;
use std::path::Path;

const USAGE: &str =
    "usage: golf_explorer [--corpus goker|cgo|micro|service|all] [--match <pattern>] \
[--budget <n>] [--strategy random|pct[:d]|delay[:k]] [--seed <n>] [--threads <n>] \
[--shrink-budget <n>] [--no-shrink] [--no-verify] [--out <dir>] [--bench-json <file>] [--gate] \
[--max-first-leak <n>] [--replay <file>]";

fn fail(msg: &str) -> ! {
    eprintln!("golf_explorer: {msg}");
    std::process::exit(2);
}

fn replay_mode(path: &str) {
    let schedule = Schedule::load(path).unwrap_or_else(|e: String| fail(&e));
    let all = targets(CorpusSelect::All, None, 24);
    let target = all
        .iter()
        .find(|t| t.name == schedule.target)
        .unwrap_or_else(|| fail(&format!("unknown target {:?}", schedule.target)));
    let run = replay_run(target, &schedule, false);
    println!(
        "replayed {} ({} decisions, seed {}): status {:?}, {} ticks, {} report(s)",
        schedule.target,
        schedule.decisions.len(),
        schedule.seed,
        run.status,
        run.ticks,
        run.reports.len()
    );
    for r in &run.reports {
        print!("{r}");
    }
    std::process::exit(i32::from(run.reports.is_empty()));
}

/// File-system-safe form of a target name.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
        .collect()
}

fn bench_json(result: &CampaignResult, wall_secs: f64) -> String {
    let mut per_target = String::new();
    for o in &result.outcomes {
        if !per_target.is_empty() {
            per_target.push(',');
        }
        let _ = write!(
            per_target,
            "\n    {{\"name\": \"{}\", \"sites_expected\": {}, \"sites_found\": {}, \"schedules\": {}, \"first_leak\": {}, \"original_len\": {}, \"minimized_len\": {}, \"shrink_probes\": {}, \"verified\": {}}}",
            o.name,
            o.expected_sites.len(),
            o.found_sites.len(),
            o.schedules_run,
            o.first_leak.map_or("null".into(), |v| v.to_string()),
            o.original_len.map_or("null".into(), |v| v.to_string()),
            o.minimized.as_ref().map_or("null".into(), |s| s.decisions.len().to_string()),
            o.shrink_probes,
            o.verified.map_or("null".into(), |v| v.to_string()),
        );
    }
    let runs_total = result.schedules_total + result.replays_total;
    format!(
        "{{\n  \"schedules_total\": {},\n  \"replays_total\": {},\n  \"wall_seconds\": {:.3},\n  \"schedules_per_sec\": {:.1},\n  \"targets\": {},\n  \"leaky_targets\": {},\n  \"leaky_found\": {},\n  \"all_verified\": {},\n  \"first_leak_max\": {},\n  \"per_target\": [{}\n  ]\n}}\n",
        result.schedules_total,
        result.replays_total,
        wall_secs,
        runs_total as f64 / wall_secs.max(1e-9),
        result.outcomes.len(),
        result.leaky_targets(),
        result.leaky_found(),
        result.all_verified(),
        result.first_leak_max().map_or("null".into(), |v| v.to_string()),
        per_target,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(
        check_flags(
            &args,
            &[
                "--corpus",
                "--match",
                "--budget",
                "--strategy",
                "--seed",
                "--threads",
                "--shrink-budget",
                "--out",
                "--bench-json",
                "--max-first-leak",
                "--replay",
            ],
            &["--no-shrink", "--no-verify", "--gate"],
        ),
        USAGE,
    );
    if let Some(path) = arg_value(&args, "--replay") {
        replay_mode(&path);
    }

    let select: CorpusSelect =
        or_usage(arg_value(&args, "--corpus").unwrap_or_else(|| "goker".into()).parse(), USAGE);
    let pattern = arg_value(&args, "--match");
    let strategy: StrategyKind =
        or_usage(arg_value(&args, "--strategy").unwrap_or_else(|| "pct".into()).parse(), USAGE);
    let no_shrink = args.iter().any(|a| a == "--no-shrink");
    let config = CampaignConfig {
        budget: or_usage(parse_arg(&args, "--budget"), USAGE).unwrap_or(2_000),
        strategy,
        root_seed: or_usage(parse_arg(&args, "--seed"), USAGE).unwrap_or(0x601F),
        threads: or_usage(parse_arg(&args, "--threads"), USAGE).unwrap_or(0),
        shrink_budget: if no_shrink {
            0
        } else {
            or_usage(parse_arg(&args, "--shrink-budget"), USAGE).unwrap_or(96)
        },
        verify: !args.iter().any(|a| a == "--no-verify"),
    };
    let max_first_leak: u64 = or_usage(parse_arg(&args, "--max-first-leak"), USAGE).unwrap_or(500);
    let out_dir = arg_value(&args, "--out");

    let list = targets(select, pattern.as_deref(), 24);
    if list.is_empty() {
        fail("no targets selected");
    }
    println!(
        "golf_explorer: {} target(s), strategy {}, budget {} schedules/target, root seed {:#x}",
        list.len(),
        config.strategy,
        config.budget,
        config.root_seed
    );
    println!(
        "derived seeds: vm=seed_for(root, \"vm/<target>\")+i  strategy=seed_for(root, \"strategy/<target>\")+i"
    );

    let start = std::time::Instant::now();
    let result = run_campaign(&list, &config);
    let wall = start.elapsed().as_secs_f64();

    for o in &result.outcomes {
        let status = if o.expected_sites.is_empty() {
            "no annotated sites".to_string()
        } else if let Some(first) = o.first_leak {
            format!(
                "leak at schedule {first}, {}/{} sites, minimized {} -> {} decisions{}",
                o.found_sites.len(),
                o.expected_sites.len(),
                o.original_len.unwrap_or(0),
                o.minimized.as_ref().map_or(0, |s| s.decisions.len()),
                match o.verified {
                    Some(true) => ", replay verified",
                    Some(false) => ", REPLAY MISMATCH",
                    None => "",
                }
            )
        } else {
            format!("NOT FOUND in {} schedules", o.schedules_run)
        };
        println!("  {:<28} {}", o.name, status);
    }
    println!(
        "campaign: {} schedules + {} shrink/verify replays in {:.2}s ({:.0} runs/s); leaks {}/{}",
        result.schedules_total,
        result.replays_total,
        wall,
        (result.schedules_total + result.replays_total) as f64 / wall.max(1e-9),
        result.leaky_found(),
        result.leaky_targets(),
    );

    if let Some(dir) = &out_dir {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("mkdir {dir:?}: {e}")));
        let mut log = String::new();
        for o in &result.outcomes {
            for line in &o.log {
                log.push_str(line);
                log.push('\n');
            }
        }
        std::fs::write(dir.join("campaign.jsonl"), log).expect("write campaign.jsonl");
        for o in &result.outcomes {
            if let Some(m) = &o.minimized {
                let base = sanitize(&o.name);
                m.save(dir.join(format!("{base}.schedule"))).expect("write schedule");
                if let Some(text) = &o.report_text {
                    std::fs::write(dir.join(format!("{base}.report.txt")), text)
                        .expect("write report");
                }
            }
        }
        println!("artifacts written to {}", dir.display());
    }
    if let Some(path) = arg_value(&args, "--bench-json") {
        std::fs::write(&path, bench_json(&result, wall)).expect("write bench json");
        println!("wrote {path}");
    }

    if args.iter().any(|a| a == "--gate") {
        let mut failures = Vec::new();
        if result.leaky_found() != result.leaky_targets() {
            failures.push(format!(
                "leaks found {}/{}",
                result.leaky_found(),
                result.leaky_targets()
            ));
        }
        if !result.all_verified() {
            failures.push("some minimized schedule failed byte-for-byte replay".into());
        }
        match result.first_leak_max() {
            Some(max) if max > max_first_leak => {
                failures.push(format!("schedules-to-first-leak {max} > {max_first_leak}"));
            }
            _ => {}
        }
        if !failures.is_empty() {
            eprintln!("golf_explorer: GATE FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        println!(
            "gate passed: all leaks found within {max_first_leak} schedules, replays verified"
        );
    }
}
