//! Regenerates the paper's **Table 2**: the controlled service under
//! {0%, 10%} leak rates × {baseline, GOLF} — throughput, latency
//! percentiles, MemStats and GC metrics.
//!
//! Paper reference shape: with no leaks, baseline and GOLF are comparable
//! except for GC pauses (GOLF ~2.5× higher per cycle); at a 10% leak rate
//! GOLF delivers higher throughput, ~1.5× lower tail latency, ~49× lower
//! `HeapAlloc`, ~61× fewer heap objects, and more (cheaper) GC cycles.
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin table2_service \
//!     [-- --run-ticks 30000 --warmup 5000 --map-bytes 1600000]
//! ```

use golf_bench::{check_flags, or_usage, parse_arg};
use golf_service::table2::{run_table2, Table2Config};

const USAGE: &str =
    "usage: table2_service [--run-ticks <ticks>] [--warmup <ticks>] [--map-bytes <bytes>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &["--run-ticks", "--warmup", "--map-bytes"], &[]), USAGE);
    let mut config = Table2Config::default();
    if let Some(v) = or_usage(parse_arg(&args, "--run-ticks"), USAGE) {
        config.run_ticks = v;
    }
    if let Some(v) = or_usage(parse_arg(&args, "--warmup"), USAGE) {
        config.warmup_ticks = v;
    }
    if let Some(v) = or_usage(parse_arg(&args, "--map-bytes"), USAGE) {
        config.service.map_bytes = v;
    }

    eprintln!(
        "table2: {} connections, {} warmup + {} measured ticks, scenarios {:?} per mille…",
        config.service.connections, config.warmup_ticks, config.run_ticks, config.leak_rates
    );
    let start = std::time::Instant::now();
    let table = run_table2(&config);
    eprintln!("table2: done in {:.1}s", start.elapsed().as_secs_f64());
    println!("Table 2 — performance impact of GOLF on the controlled service");
    println!("(1 tick ≈ 1 ms of simulated time)\n");
    println!("{}", table.render());
}
