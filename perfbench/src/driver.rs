//! The benchmark's own step/collect loop. It mirrors
//! `golf_core::Session::{step, collect, run}` call for call (pacer checks
//! and pause charging included), so that `Vm::step_tick` and every
//! `GcEngine::collect` can be timed from outside.

use crate::spans::SpanLog;
use golf_core::{GcCycleStats, GcEngine, GcMode, GolfConfig, Pacer, PacerConfig};
use golf_runtime::{RunStatus, TickStatus, Vm};
use std::time::Instant;

/// Deterministic collector work, summed over cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounts {
    /// Collections run.
    pub cycles: u64,
    /// Collections answered from the incremental replay cache.
    pub replayed: u64,
    /// Objects marked by executed (not replayed) cycles.
    pub objects_marked: u64,
    /// Pointer traversals of executed cycles.
    pub pointer_traversals: u64,
    /// Liveness checks of executed cycles.
    pub liveness_checks: u64,
    /// Mark iterations of executed cycles.
    pub mark_iterations: u64,
    /// Goroutines reported deadlocked.
    pub deadlocks_detected: u64,
    /// Deadlocked goroutines shut down.
    pub deadlocks_reclaimed: u64,
    /// Objects swept.
    pub swept_objects: u64,
}

impl CoreCounts {
    /// Folds one cycle in.
    pub fn absorb(&mut self, c: &GcCycleStats) {
        self.cycles += 1;
        if c.incremental_replayed {
            self.replayed += 1;
        } else {
            self.objects_marked += c.objects_marked;
            self.pointer_traversals += c.pointer_traversals;
            self.liveness_checks += c.liveness_checks;
            self.mark_iterations += u64::from(c.mark_iterations);
        }
        self.deadlocks_detected += c.deadlocks_detected as u64;
        self.deadlocks_reclaimed += c.deadlocks_reclaimed as u64;
        self.swept_objects += c.swept_objects;
    }
}

/// One timed `GcEngine::collect` call.
#[derive(Debug, Clone, Copy)]
pub struct CycleSample {
    /// Wall-clock duration of the call, as the benchmark timed it.
    pub ns: u64,
    /// The collector's own measure of its marking phase.
    pub mark_ns: u64,
    /// Objects the cycle marked (or carried over, when replayed).
    pub objects_marked: u64,
    /// Whether the cycle was replayed.
    pub replayed: bool,
}

/// What the benchmark records while it drives the layers.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Spans, in a traced pass only.
    pub spans: Option<SpanLog>,
    /// Collections timed while `measuring` is set.
    pub cycles: Vec<CycleSample>,
    /// Whether collections are sampled into `cycles` (off during set-up).
    pub measuring: bool,
    /// Collector work of every collection of the current round, set-up
    /// included.
    pub core: CoreCounts,
}

impl Recorder {
    /// A recorder; `traced` turns spans on.
    pub fn new(traced: bool) -> Self {
        Recorder { spans: traced.then(SpanLog::default), ..Recorder::default() }
    }

    /// Calls `f`, recording it as a leaf span named `name` when traced.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.spans {
            None => f(),
            Some(log) => {
                let start = Instant::now();
                let out = f();
                log.leaf(name, start, Instant::now(), 1);
                out
            }
        }
    }

    /// Opens a parent span when traced.
    pub fn enter(&mut self, name: &'static str) {
        if let Some(log) = &mut self.spans {
            log.enter(name);
        }
    }

    /// Closes the innermost parent span when traced.
    pub fn exit(&mut self) {
        if let Some(log) = &mut self.spans {
            log.exit();
        }
    }
}

/// A VM, a collector and (optionally) a pacer, stepped like a `Session`.
#[derive(Debug)]
pub struct Driver {
    /// The VM.
    pub vm: Vm,
    /// The collector.
    pub engine: GcEngine,
    pacer: Option<Pacer>,
    pause_ns_per_tick: Option<u64>,
    pause_ns_accum: u64,
}

impl Driver {
    /// The equivalent of `Session::new(vm, GcMode::Golf, golf, pacer)`.
    pub fn session(vm: Vm, golf: GolfConfig, pacer: PacerConfig) -> Self {
        Driver {
            vm,
            engine: GcEngine::new(GcMode::Golf, golf),
            pacer: Some(Pacer::new(pacer)),
            pause_ns_per_tick: None,
            pause_ns_accum: 0,
        }
    }

    /// A GOLF collector with no pacer: only guest `runtime.GC()` requests
    /// and explicit [`Driver::collect`] calls collect.
    pub fn forced_only(vm: Vm) -> Self {
        Driver {
            vm,
            engine: GcEngine::new(GcMode::Golf, GolfConfig::default()),
            pacer: None,
            pause_ns_per_tick: None,
            pause_ns_accum: 0,
        }
    }

    /// `Session::charge_pauses`.
    pub fn charge_pauses(&mut self, ns_per_tick: u64) {
        self.pause_ns_per_tick = Some(ns_per_tick.max(1));
    }

    /// `Session::collect`: one timed `GcEngine::collect` call, then the
    /// pacer update and pause charging.
    pub fn collect(&mut self, rec: &mut Recorder) -> GcCycleStats {
        let start = Instant::now();
        let stats = self.engine.collect(&mut self.vm);
        let end = Instant::now();
        if let Some(log) = &mut rec.spans {
            log.leaf("core.collect", start, end, 1);
        }
        if rec.measuring {
            rec.cycles.push(CycleSample {
                ns: end.duration_since(start).as_nanos() as u64,
                mark_ns: stats.mark_ns,
                objects_marked: stats.objects_marked,
                replayed: stats.incremental_replayed,
            });
        }
        rec.core.absorb(&stats);
        if let Some(pacer) = &mut self.pacer {
            pacer.on_cycle_end(stats.live_bytes_after);
        }
        if let Some(ns_per_tick) = self.pause_ns_per_tick {
            self.pause_ns_accum += stats.modeled_stw_ns;
            let ticks = self.pause_ns_accum / ns_per_tick;
            if ticks > 0 {
                self.pause_ns_accum -= ticks * ns_per_tick;
                self.vm.advance_ticks(ticks);
            }
        }
        stats
    }

    /// `Session::run`: steps until main returns, global deadlock, panic,
    /// or `max_ticks` more ticks, collecting after any step where guest
    /// code requested a GC or the pacer fired (`Session::step`).
    ///
    /// When traced, each run of consecutive steps between collections is
    /// one `runtime.step_tick` span: timing every tick on its own would
    /// cost more than most ticks do.
    pub fn run(&mut self, max_ticks: u64, rec: &mut Recorder) -> RunStatus {
        let start = self.vm.now();
        let mut ticks = TickRun::start(rec);
        let status = loop {
            let status = self.vm.step_tick();
            ticks.calls += 1;
            let requested = self.vm.take_gc_request();
            let paced = self
                .pacer
                .as_ref()
                .is_some_and(|p| p.should_collect(self.vm.heap().stats().heap_alloc_bytes));
            if requested || paced {
                ticks.finish(rec);
                self.collect(rec);
                ticks = TickRun::start(rec);
            }
            match status {
                TickStatus::Progress => {
                    if self.vm.now() - start >= max_ticks {
                        break RunStatus::TickLimit;
                    }
                }
                TickStatus::MainDone => break RunStatus::MainDone,
                TickStatus::GlobalDeadlock => break RunStatus::GlobalDeadlock,
                TickStatus::Panicked => break RunStatus::Panicked,
            }
        };
        ticks.finish(rec);
        self.vm.tracer_mut().flush();
        status
    }
}

/// Consecutive `Vm::step_tick` calls, timed as one span when traced.
pub(crate) struct TickRun {
    start: Option<Instant>,
    /// Ticks stepped so far.
    pub(crate) calls: u64,
}

impl TickRun {
    /// Starts a run (reads the clock only when traced).
    pub(crate) fn start(rec: &Recorder) -> Self {
        TickRun { start: rec.spans.is_some().then(Instant::now), calls: 0 }
    }

    /// Records the run, if traced and not empty.
    pub(crate) fn finish(self, rec: &mut Recorder) {
        if let (Some(start), Some(log)) = (self.start, &mut rec.spans) {
            if self.calls > 0 {
                log.leaf("runtime.step_tick", start, Instant::now(), self.calls);
            }
        }
    }
}
