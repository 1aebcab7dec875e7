//! Regenerates the paper's **Figure 4** (RQ2): distribution of GC
//! marking-phase slowdown, GOLF vs baseline, over the 105 programs
//! (73 deadlocking + 32 fixed), at one virtual core with 5 repetitions.
//!
//! Paper reference points: correct programs median 0.96×, worst 4.8×;
//! deadlocking programs median 0.71× (GOLF marks *less* when goroutines
//! are dead), minimum 0.04×, worst 5.87×; absolute GOLF mark times stay in
//! the low-millisecond range.
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin fig4_mark_slowdown \
//!     [-- --reps 5 --csv results-perf.csv]
//! ```

use golf_bench::{arg_value, check_flags, or_usage, parse_arg};
use golf_micro::{run_perf_comparison, summarize_groups, PerfSettings};

const USAGE: &str = "usage: fig4_mark_slowdown [--reps <n>] [--tex <path>] [--csv <path>]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &["--reps", "--tex", "--csv"], &[]), USAGE);
    let reps: u32 = or_usage(parse_arg(&args, "--reps"), USAGE).unwrap_or(5);

    let settings = PerfSettings { repetitions: reps, ..PerfSettings::default() };
    eprintln!("fig4: measuring 105 programs x 2 collectors x {reps} reps…");
    let start = std::time::Instant::now();
    let rows = run_perf_comparison(&settings);
    eprintln!("fig4: done in {:.1}s", start.elapsed().as_secs_f64());

    println!("Figure 4 — GC marking-phase slowdown (GOLF / baseline), 1 core\n");
    for group in summarize_groups(&rows) {
        let b = group.slowdown;
        println!(
            "{:<12} n={:<3}  min {:.2}x  q1 {:.2}x  median {:.2}x  q3 {:.2}x  max {:.2}x   (worst GOLF mark: {:.0}µs)",
            group.label, b.n, b.min, b.q1, b.median, b.q3, b.max, group.max_golf_mark_us
        );
        // ASCII box plot on a log-ish scale 0..max.
        let scale = 60.0 / b.max.max(1.0);
        let pos = |x: f64| (x * scale).round() as usize;
        let mut line = vec![' '; 62];
        let (q1, q3) = (pos(b.q1), pos(b.q3).min(61));
        line[q1..=q3].fill('=');
        line[pos(b.min).min(61)] = '|';
        line[pos(b.max).min(61)] = '|';
        line[pos(b.median).min(61)] = 'M';
        println!("             0x {} {:.1}x\n", line.iter().collect::<String>(), b.max);
    }

    // The extremes the paper calls out.
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| a.slowdown.partial_cmp(&b.slowdown).expect("NaN slowdown"));
    println!("largest speedups (GOLF unburdened by leaked memory):");
    for r in sorted.iter().take(3) {
        println!(
            "  {:<28} {:.2}x  ({:.0}µs -> {:.0}µs)",
            r.name, r.slowdown, r.baseline_mark_us, r.golf_mark_us
        );
    }
    println!("largest slowdowns:");
    for r in sorted.iter().rev().take(3) {
        println!(
            "  {:<28} {:.2}x  ({:.0}µs -> {:.0}µs)",
            r.name, r.slowdown, r.baseline_mark_us, r.golf_mark_us
        );
    }

    if let Some(path) = arg_value(&args, "--tex") {
        // Artifact parity: the paper's artifact emits a LaTeX box plot of
        // the Mark clock columns as `results.tex`.
        let mut tex = String::from(
            "\\begin{tikzpicture}\n\\begin{axis}[boxplot/draw direction=y,\n  ylabel={GOLF / baseline mark-phase slowdown},\n  xtick={1,2}, xticklabels={correct, deadlocking}]\n",
        );
        for group in summarize_groups(&rows) {
            tex.push_str(&group.slowdown.to_pgfplots(group.label));
            tex.push('\n');
        }
        tex.push_str("\\end{axis}\n\\end{tikzpicture}\n");
        std::fs::write(&path, tex).expect("write tex");
        eprintln!("fig4: LaTeX box plot written to {path}");
    }

    if let Some(path) = arg_value(&args, "--csv") {
        let mut csv = String::from(
            "name,buggy,mark_clock_off_us,mark_clock_on_us,slowdown,cycles_off,cycles_on\n",
        );
        for r in &rows {
            csv.push_str(&format!(
                "{},{},{:.3},{:.3},{:.4},{},{}\n",
                r.name,
                r.buggy,
                r.baseline_mark_us,
                r.golf_mark_us,
                r.slowdown,
                r.baseline_cycles,
                r.golf_cycles
            ));
        }
        std::fs::write(&path, csv).expect("write csv");
        eprintln!("fig4: per-program measurements written to {path}");
    }
}
