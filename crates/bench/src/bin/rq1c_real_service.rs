//! Regenerates the paper's **RQ1(c)** experiment: GOLF deployed on a real
//! service. Paper reference: five instances observed for 24 hours detect
//! **252 individual partial deadlocks**, which the stack traces narrow to
//! **3 programming errors** (all of the Listing 7 / `SendEmail` family).
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin rq1c_real_service \
//!     [-- --instances 5 --hours 24]
//! ```

use golf_bench::{check_flags, or_usage, parse_arg};
use golf_service::rq1c::{run_rq1c, Rq1cConfig};

const USAGE: &str = "usage: rq1c_real_service [--instances <n>] [--hours <n>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &["--instances", "--hours"], &[]), USAGE);
    let mut config = Rq1cConfig::default();
    if let Some(v) = or_usage(parse_arg(&args, "--instances"), USAGE) {
        config.instances = v;
    }
    if let Some(v) = or_usage(parse_arg(&args, "--hours"), USAGE) {
        config.hours = v;
    }

    eprintln!(
        "rq1c: deploying GOLF on {} instances for {} simulated hours…",
        config.instances, config.hours
    );
    let start = std::time::Instant::now();
    let r = run_rq1c(&config);
    eprintln!("rq1c: done in {:.1}s", start.elapsed().as_secs_f64());

    println!(
        "RQ1(c) — GOLF on a real service ({} instances, {} h)\n",
        config.instances, config.hours
    );
    println!("requests served:              {:>8}", r.requests_served);
    println!("individual partial deadlocks: {:>8}   (paper: 252 over 24 h)", r.individual_reports);
    println!("distinct programming errors:  {:>8}   (paper: 3)\n", r.by_location.len());
    println!("by source location:");
    let mut rows: Vec<_> = r.by_location.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for ((block, spawn), count) in rows {
        println!("  {count:>5}  blocked at {block:<18} created by go statement at {spawn}");
    }
}
