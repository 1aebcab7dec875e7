//! Regenerates the paper's **Figure 3** and the RQ1(b) headline numbers:
//! GOLF vs GOLEAK over the test suites of a large codebase.
//!
//! Paper reference points: GOLEAK 29 513 individual → 357 deduplicated
//! reports; GOLF 17 872 (60%) → 180 (50%); area under the per-report ratio
//! curve ≈ 82%; GOLF finds *all* of GOLEAK's reports for 103 (55%) of its
//! 180 deduplicated reports.
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin fig3_goleak_ratio \
//!     [-- --packages 3111 --seed 61795 --csv curve.csv]
//! ```

use golf_bench::{arg_value, check_flags, or_usage, parse_arg};
use golf_service::testcorpus::{run_corpus, CorpusConfig};

const USAGE: &str = "usage: fig3_goleak_ratio [--packages <n>] [--seed <n>] [--csv <path>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &["--packages", "--seed", "--csv"], &[]), USAGE);
    let packages: usize = or_usage(parse_arg(&args, "--packages"), USAGE).unwrap_or(3_111);
    let seed: u64 = or_usage(parse_arg(&args, "--seed"), USAGE).unwrap_or(0xF163);

    let config = CorpusConfig { packages, seed, ..CorpusConfig::default() };
    eprintln!("fig3: running {} package test suites…", config.packages);
    let start = std::time::Instant::now();
    let r = run_corpus(&config);
    eprintln!("fig3: {} tests in {:.1}s", r.tests_run, start.elapsed().as_secs_f64());

    println!("RQ1(b) — GOLF vs GOLEAK on {} package test suites\n", config.packages);
    println!("                      individual   deduplicated");
    println!("GOLEAK reports        {:>10}   {:>12}", r.goleak_total, r.goleak_dedup);
    println!("GOLF reports          {:>10}   {:>12}", r.golf_total, r.golf_dedup);
    println!(
        "GOLF / GOLEAK         {:>9.0}%   {:>11.0}%",
        100.0 * r.golf_total as f64 / r.goleak_total.max(1) as f64,
        100.0 * r.golf_dedup as f64 / r.goleak_dedup.max(1) as f64,
    );
    println!();
    println!("area under the ratio curve: {:.0}%   (paper: 82%)", 100.0 * r.auc);
    println!(
        "reports where GOLF finds everything GOLEAK finds: {} of {} ({:.0}%)   (paper: 103 of 180, 55%)",
        r.fully_caught,
        r.golf_dedup,
        100.0 * r.fully_caught as f64 / r.golf_dedup.max(1) as f64
    );

    // The Figure 3 curve, decile-sampled for terminal display.
    println!("\nFigure 3 — GOLF/GOLEAK ratio per deduplicated GOLF report (sorted):");
    let n = r.ratio_curve.len();
    for decile in 0..=10 {
        let idx = ((decile as f64 / 10.0) * (n.saturating_sub(1)) as f64).round() as usize;
        if let Some(ratio) = r.ratio_curve.get(idx) {
            let bar_len = (ratio * 50.0).round() as usize;
            println!("report #{:>4}  {:>5.1}%  {}", idx + 1, ratio * 100.0, "#".repeat(bar_len));
        }
    }

    if let Some(path) = arg_value(&args, "--csv") {
        let mut csv = String::from("report_index,ratio\n");
        for (i, ratio) in r.ratio_curve.iter().enumerate() {
            csv.push_str(&format!("{},{}\n", i + 1, ratio));
        }
        std::fs::write(&path, csv).expect("write csv");
        eprintln!("fig3: ratio curve written to {path}");
    }
}
