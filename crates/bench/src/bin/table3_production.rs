//! Regenerates the paper's **Table 3**: the service under production-like
//! conditions (diurnal traffic, noise, a real low-rate leak) — P50/P99
//! latency and CPU utilization, mean ± σ over metric-emission windows,
//! baseline vs GOLF.
//!
//! Paper takeaway: the two columns are statistically indistinguishable —
//! GOLF does not impinge on production performance.
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin table3_production \
//!     [-- --windows 160 --window-ticks 1500]
//! ```

use golf_bench::{check_flags, or_usage, parse_arg};
use golf_service::production::{render_table3, run_production, ProductionConfig};

const USAGE: &str = "usage: table3_production [--windows <n>] [--window-ticks <ticks>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &["--windows", "--window-ticks"], &[]), USAGE);
    let mut config = ProductionConfig::default();
    if let Some(v) = or_usage(parse_arg(&args, "--windows"), USAGE) {
        config.windows = v;
    }
    if let Some(v) = or_usage(parse_arg(&args, "--window-ticks"), USAGE) {
        config.window_ticks = v;
    }

    eprintln!(
        "table3: {} windows x {} ticks, leak {}‰, diurnal period {}…",
        config.windows, config.window_ticks, config.service.leak_per_mille, config.diurnal_period
    );
    let start = std::time::Instant::now();
    let baseline = run_production(&config, false);
    let golf = run_production(&config, true);
    eprintln!("table3: done in {:.1}s", start.elapsed().as_secs_f64());

    println!("Table 3 — performance impact of GOLF on a production-like service\n");
    println!("{}", render_table3(&baseline, &golf));
    println!(
        "GOLF detected {} partial deadlocks over the observation period (baseline: {}).",
        golf.deadlocks_detected, baseline.deadlocks_detected
    );
}
