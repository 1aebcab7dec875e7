//! Regenerates the paper's **Table 1** (RQ1(a)): partial-deadlock detection
//! counts per leaky `go` site, across `GOMAXPROCS` ∈ {1, 2, 4, 10}.
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin table1_micro [-- --runs 100 \
//!     --procs 1,2,4,10 --seed 24655 --match cockroach --budget 3000]
//! ```

use golf_bench::{arg_value, check_flags, or_usage, parse_arg, parse_list};
use golf_micro::{corpus, Table1Config};

const USAGE: &str = "usage: table1_micro [--runs <n>] [--procs <n,n,...>] [--seed <n>] \
[--match <name>] [--budget <ticks>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(
        check_flags(&args, &["--runs", "--procs", "--seed", "--match", "--budget"], &[]),
        USAGE,
    );
    let runs: u32 = or_usage(parse_arg(&args, "--runs"), USAGE).unwrap_or(100);
    let procs = arg_value(&args, "--procs")
        .map(|v| or_usage(parse_list(&v), USAGE))
        .unwrap_or(vec![1, 2, 4, 10]);
    let seed: u64 = or_usage(parse_arg(&args, "--seed"), USAGE).unwrap_or(0x601F);
    let budget: u64 = or_usage(parse_arg(&args, "--budget"), USAGE).unwrap_or(3_000);
    let pattern = arg_value(&args, "--match");

    let mut benchmarks = corpus();
    if let Some(pat) = &pattern {
        benchmarks.retain(|b| b.name.contains(pat.as_str()));
    }
    eprintln!(
        "table1: {} benchmarks ({} sites), {} runs x {:?} cores, seed {seed}",
        benchmarks.len(),
        benchmarks.iter().map(|b| b.sites.len()).sum::<usize>(),
        runs,
        procs
    );

    let config = Table1Config {
        procs,
        runs,
        tick_budget: budget,
        base_seed: seed,
        ..Table1Config::default()
    };
    let start = std::time::Instant::now();
    let table = golf_micro::table1::run_table1_on(&benchmarks, &config);
    eprintln!("table1: completed in {:.1}s", start.elapsed().as_secs_f64());

    println!("{}", table.render());
    println!(
        "runtime failures: {}   unexpected deadlock reports: {}",
        table.runtime_failures, table.unexpected_reports
    );
}
