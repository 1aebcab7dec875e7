//! A wall-clock benchmark of golf-rs. It drives the workspace crates
//! through their public API on four workloads (see `README.md`), times
//! every call into a layer from outside, checks every workload's outputs,
//! and reports end-to-end metrics (untraced) or per-layer metrics (traced).

pub mod driver;
pub mod spans;
pub mod workloads;

use driver::{CycleSample, Recorder};
use golf_metrics::percentile;
use std::time::{Duration, Instant};
use workloads::{run_round, Checks, Round, RoundCounts, Size, Workload};

/// How many rounds a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Whole rounds until `budget` has elapsed, and at least `min`.
    Until {
        /// Wall-clock budget of the pass.
        budget: Duration,
        /// Rounds run regardless of the budget.
        min: usize,
    },
    /// Exactly this many rounds.
    Exactly(usize),
}

/// One pass over a workload: whole rounds, traced or not.
#[derive(Debug)]
pub struct Pass {
    /// The workload run.
    pub workload: Workload,
    /// The rounds run.
    pub rounds: Vec<Round>,
    /// What was recorded while they ran.
    pub rec: Recorder,
    /// Peak resident set size after the first round. Later rounds repeat
    /// its work; only the benchmark's own sample vectors keep growing.
    pub peak_rss_mb: f64,
}

impl Pass {
    /// The deterministic counts of one round (every round has the same).
    pub fn counts(&self) -> &RoundCounts {
        &self.rounds[0].counts
    }

    /// Summed timed-phase wall time.
    pub fn timed_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.timed_ns).sum()
    }

    /// Every timed collection of every round.
    pub fn cycles(&self) -> impl Iterator<Item = &CycleSample> {
        self.rounds.iter().flat_map(|r| r.cycles.iter())
    }
}

/// The element-wise median round: sample *i* is the median of sample *i*
/// over all rounds. Rounds repeat the same work step for step, so this
/// keeps every step's cost while discarding interference that slowed only
/// some rounds.
fn median_round(rounds: &[Round], samples: impl Fn(&Round) -> Vec<u64>) -> Vec<u64> {
    let per_round: Vec<Vec<u64>> = rounds.iter().map(samples).collect();
    let len = per_round.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let mut column: Vec<u64> = per_round.iter().map(|r| r[i]).collect();
            column.sort_unstable();
            column[column.len() / 2]
        })
        .collect()
}

/// Runs rounds of `workload` by `plan`, checking that every round's
/// deterministic counts equal the first round's.
pub fn run_pass(
    workload: Workload,
    size: &Size,
    seed: u64,
    traced: bool,
    plan: Plan,
    checks: &mut Checks,
) -> Pass {
    let mut rec = Recorder::new(traced);
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let more = match plan {
            Plan::Until { budget, min } => rounds.len() < min || start.elapsed() < budget,
            Plan::Exactly(n) => rounds.len() < n,
        };
        if !more {
            break;
        }
        let round = run_round(workload, size, seed, &mut rec, checks);
        if let Some(first) = rounds.first() {
            checks.check(round.counts == first.counts, || {
                format!(
                    "{}: round {} counts differ from round 0:\n  {:?}\n  {:?}",
                    workload.name(),
                    rounds.len(),
                    round.counts,
                    first.counts
                )
            });
        }
        rounds.push(round);
        if rounds.len() == 1 {
            peak_rss_mb = read_peak_rss_mb();
        }
    }
    Pass { workload, rounds, rec, peak_rss_mb }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds; 0 for
/// no samples.
fn pct_us(samples_ns: &[u64], q: f64) -> f64 {
    let us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    percentile(&us, q).unwrap_or(0.0)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1e3)
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(workload: Workload, pass: &Pass) -> Vec<Metric> {
    let setup: Vec<f64> = pass.rounds.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let pauses = median_round(&pass.rounds, |r| r.cycles.iter().map(|c| c.ns).collect());
    let steps = median_round(&pass.rounds, |r| r.steps_ns.clone());
    let step_s = steps.iter().sum::<u64>() as f64 / 1e9;
    let (pause_tail, step_tail) = workload.tail_percentiles();
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", pass.peak_rss_mb, "MB"),
        metric("gc_pause_p50_us", pct_us(&pauses, 50.0), "us"),
        metric("gc_pause_tail_us", pct_us(&pauses, pause_tail), "us"),
        metric("throughput_per_s", pass.counts().units as f64 / step_s, "1/s"),
        metric("step_p50_us", pct_us(&steps, 50.0), "us"),
        metric("step_tail_us", pct_us(&steps, step_tail), "us"),
    ]
}

/// The per-layer metrics of a traced pass. `untraced` ran the same rounds
/// without spans; it gives the tracing overhead.
pub fn per_layer(untraced: &Pass, traced: &Pass) -> Vec<Metric> {
    let log = traced.rec.spans.as_ref().expect("per-layer metrics need a traced pass");
    let totals = log.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let span_p50_us = |name: &str| {
        let ns: Vec<u64> = log
            .spans()
            .iter()
            .filter(|s| s.name == name && s.calls == 1)
            .map(|s| s.dur_ns)
            .collect();
        pct_us(&ns, 50.0)
    };
    let tick_calls = totals.get("runtime.step_tick").map_or(0, |t| t.calls);
    let tick_s = self_s("runtime.step_tick");
    let wall_s: f64 = traced.rounds.iter().map(|r| (r.setup_ns + r.timed_ns) as f64 / 1e9).sum();

    // Counts are per round; collector work is per executed cycle.
    let c = traced.counts();
    let core = c.core;
    let count = |v: u64| v as f64;
    let executed = (core.cycles - core.replayed).max(1) as f64;
    let per_cycle = |v: u64| v as f64 / executed;
    let full: Vec<u64> = traced.cycles().filter(|s| !s.replayed).map(|s| s.ns).collect();
    let replays: Vec<u64> = traced.cycles().filter(|s| s.replayed).map(|s| s.ns).collect();
    let full_ns: u64 = full.iter().sum();
    let pause_ns: u64 = traced.cycles().map(|s| s.ns).sum();
    let mark_ns: u64 = traced.cycles().map(|s| s.mark_ns).sum();
    let full_objects: u64 = traced.cycles().filter(|s| !s.replayed).map(|s| s.objects_marked).sum();
    // Every instruction of the pass ran inside a `runtime.step_tick` span.
    let instrs_total = c.instrs as f64 * traced.rounds.len() as f64;
    vec![
        metric("runtime.busy_s", tick_s + self_s("runtime.boot"), "s"),
        metric("runtime.instrs_per_s", instrs_total / tick_s.max(1e-9), "1/s"),
        metric("runtime.ticks_per_s", tick_calls as f64 / tick_s.max(1e-9), "1/s"),
        metric("runtime.boot_p50_us", span_p50_us("runtime.boot"), "us"),
        metric("runtime.instrs", count(c.instrs), "count"),
        metric("runtime.spawned", count(c.spawned), "count"),
        metric("runtime.parks", count(c.parks), "count"),
        metric("runtime.wakes", count(c.wakes), "count"),
        metric("runtime.forced_shutdowns", count(c.forced_shutdowns), "count"),
        metric("heap.allocs", count(c.allocs), "count"),
        metric("heap.frees", count(c.frees), "count"),
        metric("heap.live_objects", count(c.live_objects), "count"),
        metric("core.busy_s", self_s("core.collect"), "s"),
        metric("core.share", self_s("core.collect") / wall_s.max(1e-9), "ratio"),
        metric("core.cycles", count(core.cycles), "count"),
        metric("core.full_pause_p50_us", pct_us(&full, 50.0), "us"),
        metric("core.objects_marked", per_cycle(core.objects_marked), "count"),
        metric("core.pointer_traversals", per_cycle(core.pointer_traversals), "count"),
        metric("core.ns_per_object", full_ns as f64 / full_objects.max(1) as f64, "ns"),
        metric("core.liveness_checks", per_cycle(core.liveness_checks), "count"),
        metric("core.mark_iterations", per_cycle(core.mark_iterations), "count"),
        metric("core.mark_ns_share", mark_ns as f64 / (pause_ns.max(1)) as f64, "ratio"),
        metric("core.replay_ratio", core.replayed as f64 / core.cycles.max(1) as f64, "ratio"),
        metric("core.replay_pause_p50_us", pct_us(&replays, 50.0), "us"),
        metric("core.deadlocks_detected", count(core.deadlocks_detected), "count"),
        metric("core.deadlocks_reclaimed", count(core.deadlocks_reclaimed), "count"),
        metric("core.swept_objects", count(core.swept_objects), "count"),
        metric("micro.build_p50_us", span_p50_us("micro.build"), "us"),
        metric("micro.runs", count(c.runs), "count"),
        metric(
            "trace.overhead_ratio",
            traced.timed_ns() as f64 / untraced.timed_ns().max(1) as f64,
            "ratio",
        ),
    ]
}
