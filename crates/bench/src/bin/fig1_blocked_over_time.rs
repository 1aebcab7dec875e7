//! Regenerates the paper's **Figure 1**: blocked goroutines over time for a
//! leaky production service — weekday redeployments hide the leak, weekend
//! counts spike. Also plots the same service under GOLF (flat).
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin fig1_blocked_over_time \
//!     [-- --days 28 --csv out.csv]
//! ```

use golf_bench::{arg_value, check_flags, or_usage, parse_arg};
use golf_service::longrun::{run_longrun, sparkline, LongRunConfig};

const USAGE: &str = "usage: fig1_blocked_over_time [--days <n>] [--csv <path>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &["--days", "--csv"], &[]), USAGE);
    let days: usize = or_usage(parse_arg(&args, "--days"), USAGE).unwrap_or(28);

    let base_config = LongRunConfig { days, ..LongRunConfig::default() };
    let golf_config = LongRunConfig { golf: true, ..base_config.clone() };

    eprintln!("fig1: simulating {days} days, baseline then GOLF…");
    let baseline = run_longrun(&base_config);
    let golf = run_longrun(&golf_config);

    println!("Figure 1 — blocked goroutines over time ({}-day simulation)", days);
    println!("(weekday mornings redeploy; weekends accumulate)\n");
    println!("baseline  max {:>6.0}  {}", baseline.max().unwrap_or(0.0), sparkline(&baseline, 84));
    println!("with GOLF max {:>6.0}  {}", golf.max().unwrap_or(0.0), sparkline(&golf, 84));

    // Per-day peaks to make the weekend spikes explicit.
    let per_day = baseline.windowed_mean(base_config.day_ticks);
    println!("\nday  weekday  mean blocked (baseline)");
    for (i, (_, mean)) in per_day.iter().enumerate() {
        let wd = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][i % 7];
        println!("{i:>3}  {wd}      {mean:>8.1}");
    }

    if let Some(path) = arg_value(&args, "--csv") {
        std::fs::write(&path, baseline.to_csv()).expect("write csv");
        eprintln!("fig1: baseline series written to {path}");
    }
}
