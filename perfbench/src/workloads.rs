//! The four workloads. Each is a closed loop on one thread, run in whole
//! *rounds*: a round sets up from scratch, then runs a fixed amount of
//! work, so every deterministic count of a round repeats exactly.

use crate::driver::{CoreCounts, CycleSample, Driver, Recorder, TickRun};
use golf_core::{oracle, GcCycleStats, GolfConfig, PacerConfig};
use golf_micro::{corpus, instances_for, Microbenchmark};
use golf_runtime::{seed_for, FuncBuilder, PanicPolicy, ProgramSet, TickStatus, Vm, VmConfig};
use golf_service::{build_service, read_latencies, ServiceConfig};
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table-2 service at a 10 % leak rate under GOLF.
    Service,
    /// Every corpus program, leaky and fixed, at several proc counts.
    Corpus,
    /// A large retained heap, a daisy chain of blocked goroutines and a
    /// writer that defeats incremental replay.
    GcChurn,
    /// The same heap and chain with no writer: every cycle after the
    /// first is replayed.
    GcIdle,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Service, Workload::Corpus, Workload::GcChurn, Workload::GcIdle];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Service => "service",
            Workload::Corpus => "corpus",
            Workload::GcChurn => "gc-churn",
            Workload::GcIdle => "gc-idle",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of `throughput_per_s` is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Service => "requests",
            Workload::Corpus => "runs",
            Workload::GcChurn | Workload::GcIdle => "cycles",
        }
    }

    /// What one closed-loop step is.
    pub fn step(self) -> &'static str {
        match self {
            Workload::Service => "one forced-GC chunk of ticks plus its collection",
            Workload::Corpus => "one program run (one verdict)",
            Workload::GcChurn | Workload::GcIdle => "one burst of ticks plus a forced collection",
        }
    }

    /// The tail percentiles reported for collections and for steps. Each
    /// has at least ten samples beyond it in one full-size round: p99 needs
    /// 1,000 samples, so service steps (125 per round) and gc-churn (100
    /// cycles per round) report p90. gc-idle reports p90 too: its cycles
    /// are identical replays, and above p90 their times measure the host's
    /// interference rather than the collector.
    pub fn tail_percentiles(self) -> (f64, f64) {
        match self {
            Workload::Service => (99.0, 90.0),
            Workload::Corpus => (99.0, 99.0),
            Workload::GcChurn | Workload::GcIdle => (90.0, 90.0),
        }
    }
}

/// Sizes of one round.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Service ticks run during set-up before timing starts.
    pub service_warmup_ticks: u64,
    /// Service ticks timed per round.
    pub service_ticks: u64,
    /// Ticks between forced service collections.
    pub forced_gc_every: u64,
    /// Corpus seeds per round (each program runs at every proc count per
    /// seed).
    pub corpus_seeds: u64,
    /// Retained heap objects of the gc workloads.
    pub heap_objects: i64,
    /// Blocked goroutines in the gc workloads' daisy chain.
    pub chain_links: i64,
    /// Ticks between forced collections in the gc workloads.
    pub burst_ticks: u64,
    /// Forced collections per gc-churn round.
    pub churn_cycles: u64,
    /// Forced collections per gc-idle round.
    pub idle_cycles: u64,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        service_warmup_ticks: 5_000,
        service_ticks: 250_000,
        forced_gc_every: 2_000,
        corpus_seeds: 25,
        heap_objects: 60_000,
        chain_links: 512,
        burst_ticks: 16,
        churn_cycles: 100,
        idle_cycles: 20_000,
    };

    /// A size small enough for tests.
    pub const TINY: Size = Size {
        service_warmup_ticks: 500,
        service_ticks: 6_000,
        forced_gc_every: 2_000,
        corpus_seeds: 1,
        heap_objects: 2_000,
        chain_links: 16,
        burst_ticks: 4,
        churn_cycles: 4,
        idle_cycles: 20,
    };
}

/// Proc counts every corpus program runs at.
const CORPUS_PROCS: [usize; 4] = [1, 2, 4, 10];

/// The corpus harness's tick budget (`RunSettings::default().tick_budget`).
const CORPUS_TICK_BUDGET: u64 = 3_000;
/// The corpus harness's instance cap (`RunSettings::default().max_instances`).
const CORPUS_MAX_INSTANCES: usize = 24;
/// The service's spawn site for request children, the only leaky site.
const SERVICE_CHILD_SITE: &str = "handleRequest:child";

/// Output checks: how many were made and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(what());
            }
        }
    }
}

/// The deterministic counts of one round. They depend only on the seed
/// and the size, never on timing or tracing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// Units of work (requests, program runs or cycles).
    pub units: u64,
    /// Programs run (the service and gc workloads run one per round).
    pub runs: u64,
    /// Deadlock reports.
    pub reports: u64,
    /// Distinct expected sites detected, summed over runs (corpus).
    pub detected_sites: u64,
    /// Scheduler ticks stepped.
    pub ticks: u64,
    /// Instructions executed.
    pub instrs: u64,
    /// Goroutines spawned.
    pub spawned: u64,
    /// Goroutine parks.
    pub parks: u64,
    /// Goroutine wakes.
    pub wakes: u64,
    /// Goroutines shut down by the collector.
    pub forced_shutdowns: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Heap objects live at the end of each run, summed.
    pub live_objects: u64,
    /// Collector work.
    pub core: CoreCounts,
}

impl RoundCounts {
    fn absorb_vm(&mut self, vm: &Vm, ticks: u64) {
        let c = vm.counters();
        let h = vm.heap().stats();
        self.runs += 1;
        self.ticks += ticks;
        self.instrs += vm.instrs_executed();
        self.spawned += c.spawned;
        self.parks += c.parks;
        self.wakes += c.wakes;
        self.forced_shutdowns += c.forced_shutdowns;
        self.allocs += h.total_allocs;
        self.frees += h.total_frees;
        self.live_objects += h.heap_objects;
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Set-up wall time.
    pub setup_ns: u64,
    /// Timed-phase wall time.
    pub timed_ns: u64,
    /// Wall time of every closed-loop step of the timed phase.
    pub steps_ns: Vec<u64>,
    /// Every collection of the timed phase.
    pub cycles: Vec<CycleSample>,
    /// Deterministic counts.
    pub counts: RoundCounts,
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Runs one round of `workload`.
pub fn run_round(
    workload: Workload,
    size: &Size,
    seed: u64,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Round {
    rec.enter("round");
    let mut round = match workload {
        Workload::Service => service_round(size, seed, rec, checks),
        Workload::Corpus => corpus_round(size, seed, rec, checks),
        Workload::GcChurn => gc_round(size, seed, true, rec, checks),
        Workload::GcIdle => gc_round(size, seed, false, rec, checks),
    };
    rec.exit();
    round.counts.core = std::mem::take(&mut rec.core);
    round.cycles = std::mem::take(&mut rec.cycles);
    round
}

/// The service configuration: the paper's defaults (32 connections,
/// 8 procs) at a 10 % leak rate.
pub fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig { leak_per_mille: 100, seed: seed_for(seed, "service"), ..Default::default() }
}

/// The service-scale pacer of `table2::run_scenario`.
pub fn service_pacer() -> PacerConfig {
    PacerConfig { min_trigger_bytes: 64 * 1024 * 1024, ..PacerConfig::default() }
}

/// Builds and boots the service exactly as `golf_service::boot_service`
/// does, timing the build and the boot separately.
pub fn boot_service_timed(
    config: &ServiceConfig,
    rec: &mut Recorder,
) -> (Driver, golf_service::ServiceGlobals) {
    let (program, globals) = rec.call("micro.build", || build_service(config));
    let vm_config = VmConfig {
        gomaxprocs: config.server_procs,
        seed: config.seed,
        assist: config.assist,
        ..VmConfig::default()
    };
    let vm = rec.call("runtime.boot", || Vm::boot(program, vm_config));
    let mut driver = Driver::session(vm, GolfConfig::default(), service_pacer());
    driver.engine.set_keep_history(false);
    driver.charge_pauses(1_000_000); // 1 tick = 1 ms, as in Table 2
    (driver, globals)
}

/// `table2::run_scenario`'s chunked run: `total` ticks in chunks of
/// `every`, with a forced collection after each chunk. Returns each
/// chunk's wall time.
pub fn run_chunked(driver: &mut Driver, total: u64, every: u64, rec: &mut Recorder) -> Vec<u64> {
    let mut steps = Vec::new();
    let mut left = total;
    while left > 0 {
        let chunk = left.min(every.max(1));
        let start = Instant::now();
        rec.enter("chunk");
        driver.run(chunk, rec);
        driver.collect(rec);
        rec.exit();
        steps.push(elapsed_ns(start));
        left -= chunk;
    }
    steps
}

fn service_round(size: &Size, seed: u64, rec: &mut Recorder, checks: &mut Checks) -> Round {
    let config = service_config(seed);
    let setup = Instant::now();
    rec.enter("setup");
    let (mut driver, globals) = boot_service_timed(&config, rec);
    run_chunked(&mut driver, size.service_warmup_ticks, size.forced_gc_every, rec);
    rec.exit();
    let setup_ns = elapsed_ns(setup);

    let warm = read_latencies(&driver.vm, globals).len() as u64;
    let ticks_before = driver.vm.now();
    rec.measuring = true;
    let timed = Instant::now();
    rec.enter("timed");
    let steps_ns = run_chunked(&mut driver, size.service_ticks, size.forced_gc_every, rec);
    rec.exit();
    let timed_ns = elapsed_ns(timed);
    rec.measuring = false;

    let mut counts = RoundCounts {
        units: read_latencies(&driver.vm, globals).len() as u64 - warm,
        reports: driver.engine.reports().len() as u64,
        ..RoundCounts::default()
    };
    counts.absorb_vm(&driver.vm, driver.vm.now() - ticks_before);
    for r in driver.engine.reports() {
        checks.check(r.spawn_site.as_deref() == Some(SERVICE_CHILD_SITE), || {
            format!("service: report at unexpected site {:?}", r.spawn_site)
        });
    }
    // After one more collection, no goroutine may be deadlocked without a
    // report.
    driver.engine.collect(&mut driver.vm);
    let verdict = oracle::compute_liveness(&driver.vm);
    let unreported = verdict
        .deadlocked
        .iter()
        .filter(|&&g| driver.vm.goroutine(g).is_some_and(|g| !g.reported_deadlocked))
        .count();
    checks.check(unreported == 0, || {
        format!("service: {unreported} deadlocked goroutines left unreported")
    });
    Round { setup_ns, timed_ns, steps_ns, counts, cycles: Vec::new() }
}

/// The outcome of one hand-driven corpus run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusVerdict {
    /// Expected sites reported.
    pub detected_sites: Vec<String>,
    /// Reported sites that are not annotated.
    pub unexpected_sites: Vec<String>,
    /// Individual reports.
    pub report_count: usize,
    /// Ticks at the end of the run.
    pub ticks: u64,
}

/// One corpus run with `golf_micro::run_benchmark` semantics at default
/// settings: build, boot, run to the tick budget, one final collection.
pub fn corpus_run(
    mb: &Microbenchmark,
    fixed: bool,
    procs: usize,
    seed: u64,
    rec: &mut Recorder,
    counts: &mut RoundCounts,
) -> CorpusVerdict {
    let n = instances_for(mb.flakiness, CORPUS_MAX_INSTANCES);
    let build = if fixed { mb.build_fixed.expect("fixed variant") } else { mb.build };
    let program = rec.call("micro.build", || build(n));
    let config = VmConfig {
        gomaxprocs: procs,
        seed,
        panic_policy: PanicPolicy::KillGoroutine,
        ..VmConfig::default()
    };
    let vm = rec.call("runtime.boot", || Vm::boot(program, config));
    let mut driver = Driver::session(vm, GolfConfig::default(), PacerConfig::default());
    driver.vm.heap_mut().set_dirty_tracking(true);
    driver.run(CORPUS_TICK_BUDGET, rec);
    driver.collect(rec);

    let mut detected = Vec::new();
    let mut unexpected = Vec::new();
    for r in driver.engine.reports() {
        match r.spawn_site.as_deref() {
            Some(site) if mb.sites.contains(&site) => detected.push(site.to_string()),
            Some(site) => unexpected.push(site.to_string()),
            None => unexpected.push(format!("<main> at {}", r.block_location)),
        }
    }
    detected.sort_unstable();
    detected.dedup();
    unexpected.sort_unstable();
    unexpected.dedup();
    let ticks = driver.vm.now();
    counts.absorb_vm(&driver.vm, ticks);
    counts.units += 1;
    counts.reports += driver.engine.reports().len() as u64;
    counts.detected_sites += detected.len() as u64;
    CorpusVerdict {
        detected_sites: detected,
        unexpected_sites: unexpected,
        report_count: driver.engine.reports().len(),
        ticks,
    }
}

fn corpus_round(size: &Size, seed: u64, rec: &mut Recorder, checks: &mut Checks) -> Round {
    // Set-up: list the corpus, then build and boot every program once so
    // allocator and code caches are warm before timing starts.
    let setup = Instant::now();
    rec.enter("setup");
    let programs = corpus();
    for mb in &programs {
        let n = instances_for(mb.flakiness, CORPUS_MAX_INSTANCES);
        for build in std::iter::once(mb.build).chain(mb.build_fixed) {
            let program = rec.call("micro.build", || build(n));
            rec.call("runtime.boot", || Vm::boot(program, VmConfig::default()));
        }
    }
    rec.exit();
    let setup_ns = elapsed_ns(setup);

    let mut counts = RoundCounts::default();
    let mut steps_ns = Vec::new();
    rec.measuring = true;
    let timed = Instant::now();
    rec.enter("timed");
    for r in 0..size.corpus_seeds {
        let run_seed = seed_for(seed, &format!("corpus/{r}"));
        for procs in CORPUS_PROCS {
            for mb in &programs {
                for fixed in [false, true] {
                    if fixed && mb.build_fixed.is_none() {
                        continue;
                    }
                    let start = Instant::now();
                    rec.enter("verdict");
                    let v = corpus_run(mb, fixed, procs, run_seed, rec, &mut counts);
                    rec.exit();
                    steps_ns.push(elapsed_ns(start));
                    if fixed {
                        checks.check(v.report_count == 0, || {
                            format!(
                                "corpus: fixed {} reported {} (procs {procs})",
                                mb.name, v.report_count
                            )
                        });
                    } else {
                        checks.check(v.unexpected_sites.is_empty(), || {
                            format!(
                                "corpus: {} unexpected {:?} (procs {procs})",
                                mb.name, v.unexpected_sites
                            )
                        });
                    }
                }
            }
        }
    }
    rec.exit();
    let timed_ns = elapsed_ns(timed);
    rec.measuring = false;
    Round { setup_ns, timed_ns, steps_ns, counts, cycles: Vec::new() }
}

/// The gc workloads' program: `main` spawns a daisy chain of `links`
/// goroutines (goroutine *i* blocks receiving on channel *i* and holds
/// channel *i+1*; `main` holds channel 0, so each mark iteration proves one
/// more link live — the §5.2 worst case), builds a linked list of
/// `objects` nodes in a loop, optionally starts a writer that stores into
/// the list head every `write_every` ticks, requests a GC to signal that
/// construction is done, and sleeps forever.
pub fn gc_program(objects: i64, links: i64, write_every: Option<u64>) -> ProgramSet {
    let mut p = ProgramSet::new();
    let node = p.struct_type("node", &["next"]);
    let link_site = p.site("gc:link");
    let writer_site = p.site("gc:writer");

    let mut b = FuncBuilder::new("link", 2);
    let mine = b.param(0);
    b.recv(mine, None); // `next` (param 1) stays on the parked stack
    let link = p.define(b);

    let writer = write_every.map(|every| {
        let mut b = FuncBuilder::new("writer", 1);
        let head = b.param(0);
        let t = b.var("t");
        b.forever(|b| {
            b.sleep(every);
            b.get_field(t, head, 0);
            b.set_field(head, 0, t);
        });
        p.define(b)
    });

    let mut b = FuncBuilder::new("main", 0);
    let head = b.var("head");
    let cur = b.var("cur");
    let next = b.var("next");
    b.make_chan(head, 0);
    b.copy(cur, head);
    b.repeat(links, |b, _| {
        b.make_chan(next, 0);
        b.go(link, &[cur, next], link_site);
        b.copy(cur, next);
    });
    b.clear(cur);
    b.clear(next);
    let list = b.var("list");
    let zero = b.int(0);
    b.new_struct(node, &[zero], list);
    b.repeat(objects - 1, |b, _| {
        b.new_struct(node, &[list], list);
    });
    if let Some(writer) = writer {
        b.go(writer, &[list], writer_site);
    }
    b.gc();
    b.forever(|b| b.sleep(10_000_000));
    p.define(b);
    p
}

/// Whether two cycles agree on every field of `cycle_key` in
/// `benches/gc_incremental.rs` except the cycle number: the fields a replay
/// must reproduce.
fn same_outcome(a: &GcCycleStats, b: &GcCycleStats) -> bool {
    a.golf_detection == b.golf_detection
        && a.mark_iterations == b.mark_iterations
        && a.objects_marked == b.objects_marked
        && a.pointer_traversals == b.pointer_traversals
        && a.liveness_checks == b.liveness_checks
        && a.deadlocks_detected == b.deadlocks_detected
        && a.deadlocks_reclaimed == b.deadlocks_reclaimed
        && a.swept_objects == b.swept_objects
        && a.live_bytes_after == b.live_bytes_after
        && a.modeled_stw_ns == b.modeled_stw_ns
        && a.phases == b.phases
}

fn gc_round(size: &Size, seed: u64, churn: bool, rec: &mut Recorder, checks: &mut Checks) -> Round {
    let name = if churn { "gc-churn" } else { "gc-idle" };
    let setup = Instant::now();
    rec.enter("setup");
    let write_every = churn.then_some((size.burst_ticks / 2).max(1));
    let program =
        rec.call("micro.build", || gc_program(size.heap_objects, size.chain_links, write_every));
    let config = VmConfig { seed: seed_for(seed, name), ..VmConfig::default() };
    let vm = rec.call("runtime.boot", || Vm::boot(program, config));
    let mut driver = Driver::forced_only(vm);
    driver.engine.set_keep_history(false);
    // Interpret the construction; `main`'s GC request marks its end.
    let mut ticks = TickRun::start(rec);
    while !driver.vm.take_gc_request() {
        let status = driver.vm.step_tick();
        ticks.calls += 1;
        assert_eq!(status, TickStatus::Progress, "{name}: construction stopped");
    }
    ticks.finish(rec);
    rec.exit();
    let setup_ns = elapsed_ns(setup);

    let cycles = if churn { size.churn_cycles } else { size.idle_cycles };
    let ticks_before = driver.vm.now();
    let mut steps_ns = Vec::with_capacity(cycles as usize);
    let mut first: Option<GcCycleStats> = None;
    let mut last = GcCycleStats::default();
    rec.measuring = true;
    let timed = Instant::now();
    rec.enter("timed");
    for i in 0..cycles {
        let start = Instant::now();
        rec.enter("burst");
        driver.run(size.burst_ticks, rec);
        let stats = driver.collect(rec);
        rec.exit();
        steps_ns.push(elapsed_ns(start));
        let live = driver.vm.heap().len() as u64;
        if churn {
            checks.check(
                !stats.incremental_replayed
                    && stats.objects_marked == live
                    && stats.swept_objects == 0
                    && stats.deadlocks_detected == 0,
                || format!("gc-churn: cycle {i} marked {} of {live} objects, replayed {}, swept {}, reported {}", stats.objects_marked, stats.incremental_replayed, stats.swept_objects, stats.deadlocks_detected),
            );
        } else if let Some(full) = &first {
            checks.check(stats.incremental_replayed && same_outcome(&stats, full), || {
                format!(
                    "gc-idle: cycle {i} (replayed {}) differs from the first: {stats}",
                    stats.incremental_replayed
                )
            });
        } else {
            checks.check(!stats.incremental_replayed && stats.objects_marked == live, || {
                format!("gc-idle: first cycle marked {} of {live} objects", stats.objects_marked)
            });
            first = Some(stats.clone());
        }
        last = stats;
    }
    rec.exit();
    let timed_ns = elapsed_ns(timed);
    rec.measuring = false;

    // Sampled oracle check on the round's last cycle: the collector's
    // marked set and liveness verdict match the independent oracle.
    let verdict = oracle::compute_liveness(&driver.vm);
    checks.check(
        verdict.deadlocked.is_empty()
            && verdict.live.len() == driver.vm.live_count()
            && verdict.reachable_objects.len() as u64 == last.objects_marked,
        || {
            format!(
                "{name}: oracle disagrees: {} deadlocked, {} of {} live, {} reachable vs {} marked",
                verdict.deadlocked.len(),
                verdict.live.len(),
                driver.vm.live_count(),
                verdict.reachable_objects.len(),
                last.objects_marked
            )
        },
    );
    let mut counts = RoundCounts {
        units: cycles,
        reports: driver.engine.reports().len() as u64,
        ..RoundCounts::default()
    };
    counts.absorb_vm(&driver.vm, driver.vm.now() - ticks_before);
    Round { setup_ns, timed_ns, steps_ns, counts, cycles: Vec::new() }
}
