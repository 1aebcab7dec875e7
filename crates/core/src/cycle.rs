//! The garbage-collection cycle: baseline marking, the GOLF reachable-
//! liveness fixed point, deadlock reporting, finalizer-preserving recovery,
//! and sweeping. This module is the reproduction of the paper's §4.2/§5.

use crate::config::{ExpansionStrategy, GcMode, GolfConfig};
use crate::forensics::{self, WaitForGraph};
use crate::hints::LivenessHint;
use crate::mark::Marker;
use crate::report::DeadlockReport;
use crate::stats::{GcCycleStats, GcTotals, PhaseEvent};
use golf_heap::{Handle, Heap};
use golf_runtime::{Finalizer, GStatus, Gid, Goroutine, Object, Value, Vm};
use golf_trace::{GoId, TraceEvent};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

fn go_id(gid: Gid) -> GoId {
    GoId::new(gid.index(), gid.generation())
}

/// Reusable per-cycle working state, hoisted out of [`GcEngine::collect`] so
/// steady-state cycles clear containers instead of reallocating them.
#[derive(Debug, Default)]
struct CycleScratch {
    inert_globals: HashSet<Handle>,
    inert_sites: HashSet<Arc<str>>,
    candidates: CandidateTable,
    marker: Marker,
    /// Objects blackened by the current mark iteration (`FromMarked` only).
    newly_marked: Vec<Handle>,
    added: Vec<Gid>,
    /// Worklist and visited set of [`CycleScratch::subgraph_has_finalizer`].
    finalizer_work: Vec<Handle>,
    finalizer_seen: HashSet<Handle>,
}

impl CycleScratch {
    fn reset(&mut self) {
        self.inert_globals.clear();
        self.inert_sites.clear();
        self.candidates.clear();
        self.marker.reset();
        self.newly_marked.clear();
        self.added.clear();
    }

    /// BFS over the *unmarked* subgraph reachable from `gid`'s stack,
    /// checking for finalizers (paper §5.5). Marked objects are reachable
    /// from live goroutines and their finalizers behave normally.
    fn subgraph_has_finalizer(&mut self, vm: &Vm, gid: Gid) -> bool {
        let Some(g) = vm.goroutine(gid) else { return false };
        let heap = vm.heap();
        let (work, seen) = (&mut self.finalizer_work, &mut self.finalizer_seen);
        work.clear();
        seen.clear();
        work.extend(g.stack_roots());
        while let Some(h) = work.pop() {
            if h.is_masked() || heap.is_marked(h) || !seen.insert(h) {
                continue;
            }
            if heap.has_finalizer(h) {
                return true;
            }
            if let Some(obj) = heap.get(h) {
                use golf_heap::Trace;
                obj.trace(&mut |child| work.push(child));
            }
        }
        false
    }
}

/// A goroutine's part in the current cycle's liveness fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Role {
    /// A dead slot, or any goroutine in a cycle without detection.
    #[default]
    Other,
    /// In the root set: included at root preparation or found reachably
    /// live by root expansion.
    Root,
    /// Spawned at a hinted-inert site: withheld from the fixed point and
    /// re-marked before the sweep.
    Inert,
    /// A deadlock candidate not (yet) in the root set.
    Pending,
}

/// A pending deadlock candidate and where its `B(g)` sits in
/// [`CandidateTable::handles`].
#[derive(Debug, Clone, Copy)]
struct Pending {
    gid: Gid,
    start: usize,
    end: usize,
}

/// The per-cycle candidate table, filled once at root preparation: a role
/// per goroutine slot, and the pending candidates in slot order with their
/// `B(g)` copied into one flat handle list. Root expansion then costs host
/// work in proportion to the liveness checks it counts, not to iterations
/// × live goroutines.
#[derive(Debug, Default)]
struct CandidateTable {
    roles: Vec<Role>,
    pending: Vec<Pending>,
    handles: Vec<Handle>,
}

impl CandidateTable {
    fn clear(&mut self) {
        self.roles.clear();
        self.pending.clear();
        self.handles.clear();
    }

    /// Keyed by slot alone: no goroutine is spawned or finished between
    /// root preparation and the end of detection, so every gid a cycle
    /// looks up is its slot's current one.
    fn role(&self, gid: Gid) -> Role {
        self.roles.get(gid.index() as usize).copied().unwrap_or_default()
    }

    fn set_role(&mut self, gid: Gid, role: Role) {
        let i = gid.index() as usize;
        if i >= self.roles.len() {
            self.roles.resize(i + 1, Role::Other);
        }
        self.roles[i] = role;
    }

    fn push_pending(&mut self, g: &Goroutine) {
        let start = self.handles.len();
        self.handles.extend_from_slice(g.blocked.handles());
        self.pending.push(Pending { gid: g.id, start, end: self.handles.len() });
        self.set_role(g.id, Role::Pending);
    }

    /// Moves a pending goroutine to the root set. False if it was not
    /// pending (already a root, inert, or not a candidate).
    fn promote(&mut self, gid: Gid) -> bool {
        let pending = self.role(gid) == Role::Pending;
        if pending {
            self.set_role(gid, Role::Root);
        }
        pending
    }

    /// `Rescan` root expansion (paper §4.2 step 3): promotes, in slot
    /// order, every pending goroutine with a marked object in its `B(g)`,
    /// appending it to `added`. Returns the liveness checks: one per handle
    /// tested, up to the first marked one.
    fn rescan(&mut self, heap: &Heap<Object, Finalizer>, added: &mut Vec<Gid>) -> u64 {
        let CandidateTable { roles, pending, handles } = self;
        let mut checks = 0;
        pending.retain(|p| {
            for &o in &handles[p.start..p.end] {
                checks += 1;
                // `is_marked` is false for stale handles too; all our
                // concurrency objects are heap-tracked, so there is no "not
                // on the heap ⇒ conservatively reachable" case (globals are
                // heap objects reached via the root scan).
                if heap.is_marked(o) {
                    roles[p.gid.index() as usize] = Role::Root;
                    added.push(p.gid);
                    return false;
                }
            }
            true
        });
        checks
    }

    /// The candidates still pending, in slot order: after the fixed point,
    /// exactly the deadlocked goroutines.
    fn still_pending(&self) -> impl Iterator<Item = Gid> + '_ {
        self.pending.iter().map(|p| p.gid).filter(|&gid| self.role(gid) == Role::Pending)
    }
}

/// The outcome of the last side-effect-free cycle, kept per detection
/// parity (`detect_every > 1` alternates detection and plain cycles).
///
/// A cached cycle is *replayable* exactly when the world it observed is
/// provably unchanged: same heap mutation epoch, same runtime-roots epoch,
/// and the same liveness fingerprint for every live goroutine. A cycle is
/// cached only if it was *steady* — it detected, reclaimed, preserved,
/// swept, and resurrected nothing — so replaying its outcome is
/// byte-identical to re-running it. Partial bitmap reuse under mutation is
/// deliberately NOT attempted: a dirty object dropping its last reference
/// to a clean-shard object would leave a stale mark (over-live), and a
/// dirty-shard object reachable only through clean marked objects would
/// never be re-discovered (under-marked). Full quiescence is the only
/// condition under which carrying the bitmap is exact; see DESIGN.md §10.
#[derive(Debug, Clone)]
struct CycleCache {
    heap_epoch: u64,
    roots_epoch: u64,
    fingerprints: Vec<u64>,
    /// `objects_marked` at mark-phase end, *before* the inert/preserved
    /// re-mark passes — the count the default `gc_phase_end` trace event
    /// carries, which differs from the final stat when hints are in play.
    mark_phase_count: u64,
    stats: GcCycleStats,
}

fn spawn_site_is_inert(vm: &Vm, sites: &HashSet<Arc<str>>, g: &Goroutine) -> bool {
    !sites.is_empty()
        && g.spawn_site.is_some_and(|s| sites.contains(&*vm.program().site_info(s).label))
}

/// The collector: owns mode, configuration, cumulative statistics, cycle
/// history and the accumulated deadlock reports.
///
/// One engine drives one [`Vm`] across its lifetime (pair them with
/// [`Session`](crate::Session) for pacer-driven collection).
///
/// # Example
///
/// ```
/// use golf_core::{GcEngine, GcMode, GolfConfig};
/// use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig};
///
/// let mut p = ProgramSet::new();
/// let site = p.site("main:go");
/// let mut b = FuncBuilder::new("leaky", 1);
/// let ch = b.param(0);
/// let v = b.int(1);
/// b.send(ch, v); // blocks forever: the channel is dropped by main
/// let leaky = p.define(b);
/// let mut b = FuncBuilder::new("main", 0);
/// let ch = b.var("ch");
/// b.make_chan(ch, 0);
/// b.go(leaky, &[ch], site);
/// b.sleep(10);
/// b.ret(None);
/// p.define(b);
///
/// let mut vm = Vm::boot(p, VmConfig::default());
/// vm.run(1_000);
/// let mut gc = GcEngine::new(GcMode::Golf, GolfConfig::default());
/// gc.collect(&mut vm);
/// assert_eq!(gc.reports().len(), 1);
/// assert!(gc.reports()[0].block_location.starts_with("leaky:"));
/// ```
#[derive(Debug)]
pub struct GcEngine {
    mode: GcMode,
    golf: GolfConfig,
    totals: GcTotals,
    history: Vec<GcCycleStats>,
    reports: Vec<DeadlockReport>,
    keep_history: bool,
    hints: Vec<LivenessHint>,
    scratch: CycleScratch,
    /// Replay caches indexed by detection parity (`detection as usize`), so
    /// `detect_every > 1` workloads can replay both flavors of cycle.
    caches: [Option<CycleCache>; 2],
    cycles_replayed: u64,
}

impl GcEngine {
    /// A collector in the given mode.
    pub fn new(mode: GcMode, golf: GolfConfig) -> Self {
        assert!(golf.detect_every >= 1, "detect_every must be >= 1");
        GcEngine {
            mode,
            golf,
            totals: GcTotals::default(),
            history: Vec::new(),
            reports: Vec::new(),
            keep_history: true,
            hints: Vec::new(),
            scratch: CycleScratch::default(),
            caches: [None, None],
            cycles_replayed: 0,
        }
    }

    /// Replaces the GOLF configuration (e.g. `--full-gc` turning
    /// `incremental` off). Invalidates the incremental replay cache.
    pub fn set_golf_config(&mut self, golf: GolfConfig) {
        assert!(golf.detect_every >= 1, "detect_every must be >= 1");
        self.golf = golf;
        self.caches = [None, None];
    }

    /// The current GOLF configuration.
    pub fn golf_config(&self) -> GolfConfig {
        self.golf
    }

    /// Number of cycles answered from the incremental replay cache instead
    /// of being executed.
    pub fn cycles_replayed(&self) -> u64 {
        self.cycles_replayed
    }

    /// A baseline collector (ordinary Go GC).
    pub fn baseline() -> Self {
        Self::new(GcMode::Baseline, GolfConfig::default())
    }

    /// A GOLF collector with default options (detect every cycle, reclaim).
    pub fn golf() -> Self {
        Self::new(GcMode::Golf, GolfConfig::default())
    }

    /// Disables per-cycle history retention (long-running services).
    pub fn set_keep_history(&mut self, keep: bool) {
        self.keep_history = keep;
    }

    /// The collector mode.
    pub fn mode(&self) -> GcMode {
        self.mode
    }

    /// Cumulative statistics.
    pub fn totals(&self) -> &GcTotals {
        &self.totals
    }

    /// Per-cycle statistics (empty if history retention is disabled).
    pub fn history(&self) -> &[GcCycleStats] {
        &self.history
    }

    /// All deadlock reports so far, in detection order.
    pub fn reports(&self) -> &[DeadlockReport] {
        &self.reports
    }

    /// Removes and returns the accumulated reports.
    pub fn take_reports(&mut self) -> Vec<DeadlockReport> {
        std::mem::take(&mut self.reports)
    }

    /// Supplies a liveness hint (paper §8 future work; see
    /// [`LivenessHint`]). Hints accumulate; memory safety is unaffected,
    /// detection exactness depends on the hints being true.
    pub fn add_liveness_hint(&mut self, hint: LivenessHint) {
        self.hints.push(hint);
        // A new hint changes what the liveness fixed point would compute;
        // any cached cycle outcome is stale.
        self.caches = [None, None];
    }

    /// The hints currently in effect.
    pub fn liveness_hints(&self) -> &[LivenessHint] {
        &self.hints
    }

    /// Attempts to answer this cycle from the replay cache. Succeeds only
    /// under proven full quiescence: unchanged heap mutation epoch,
    /// unchanged runtime-roots epoch, and an unchanged liveness fingerprint
    /// for every live goroutine (in slot order). Checks run cheapest-first.
    fn try_replay(
        &mut self,
        vm: &mut Vm,
        cycle_no: u64,
        detection: bool,
        pause_start: Instant,
    ) -> Option<GcCycleStats> {
        let (mut stats, mark_phase_count, hits) = {
            let cache = self.caches[usize::from(detection)].as_ref()?;
            if vm.heap().mutation_epoch() != cache.heap_epoch
                || vm.roots_epoch() != cache.roots_epoch
            {
                return None;
            }
            let mut n = 0usize;
            for g in vm.live_goroutines() {
                if cache.fingerprints.get(n).copied() != Some(g.liveness_fingerprint()) {
                    return None;
                }
                n += 1;
            }
            if n != cache.fingerprints.len() {
                return None;
            }
            (cache.stats.clone(), cache.mark_phase_count, n as u64)
        };

        // Quiescence proven: the cached (side-effect-free) cycle would be
        // reproduced byte-for-byte, so replay its outcome. The mark bitmap
        // from the cached cycle is still exact and is reused wholesale —
        // `clear_dirty_marks` with an empty dirty set clears nothing and
        // reports how many marks were carried over.
        stats.cycle = cycle_no;
        stats.incremental_replayed = true;
        stats.marks_reused = vm.heap_mut().clear_dirty_marks();
        stats.liveness_cache_hits = hits;
        stats.dirty_shards = 0;
        if vm.trace_enabled() {
            // The default trace events a steady full cycle would emit.
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "mark" });
            vm.trace_emit(TraceEvent::GcPhaseEnd {
                cycle: cycle_no,
                phase: "mark",
                count: mark_phase_count,
            });
            if detection {
                vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "detect" });
                vm.trace_emit(TraceEvent::GcPhaseEnd {
                    cycle: cycle_no,
                    phase: "detect",
                    count: 0,
                });
            }
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "sweep" });
            vm.trace_emit(TraceEvent::GcPhaseEnd { cycle: cycle_no, phase: "sweep", count: 0 });
            if self.golf.trace_incremental {
                vm.trace_emit(TraceEvent::GcIncrementalSkip {
                    cycle: cycle_no,
                    marks_reused: stats.marks_reused,
                    liveness_cached: hits,
                });
            }
        }
        vm.heap_mut().reset_alloc_window();
        stats.mark_ns = 0;
        stats.pause_ns = pause_start.elapsed().as_nanos() as u64;
        self.totals.absorb(&stats);
        self.cycles_replayed += 1;
        if self.keep_history {
            self.history.push(stats.clone());
        }
        Some(stats)
    }

    /// Runs one full garbage-collection cycle on `vm`.
    ///
    /// Phases (paper Figure 2): initialization, (restricted) root
    /// preparation, iterative marking with GOLF root expansion to the
    /// reachable-liveness fixed point, deadlock detection, recovery (forced
    /// shutdown or finalizer preservation), sweep.
    pub fn collect(&mut self, vm: &mut Vm) -> GcCycleStats {
        let pause_start = Instant::now();
        let cycle_no = self.totals.num_gc + 1;
        let detection = self.mode == GcMode::Golf
            && (cycle_no - 1).is_multiple_of(u64::from(self.golf.detect_every));

        // Incremental mode needs the write barrier: with tracking disabled
        // the mutation epoch is frozen, so "unchanged" would prove nothing.
        let incremental =
            self.mode == GcMode::Golf && self.golf.incremental && vm.heap().dirty_tracking();
        if incremental {
            if let Some(stats) = self.try_replay(vm, cycle_no, detection, pause_start) {
                return stats;
            }
        }

        let mut stats =
            GcCycleStats { cycle: cycle_no, golf_detection: detection, ..Default::default() };
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset();

        // ---- Initialization ----
        if vm.heap().dirty_tracking() {
            stats.dirty_shards = vm.heap().dirty_shard_count() as u64;
            if self.golf.trace_incremental && vm.trace_enabled() {
                for s in vm.heap().dirty_shards() {
                    vm.trace_emit(TraceEvent::GcDirtyShard { cycle: cycle_no, shard: s as u64 });
                }
            }
        }
        // A full clear: partial bitmap reuse under mutation is unsound (see
        // [`CycleCache`]); the bitmap is only ever carried over whole, by
        // the replay path above.
        vm.heap_mut().clear_marks();
        stats.phases.push(PhaseEvent::Init);

        // Liveness hints (§8 future work): inert references are withheld
        // from the liveness fixed point and re-marked before the sweep.
        if detection {
            for hint in &self.hints {
                match hint {
                    LivenessHint::InertGlobal(id) => {
                        if let Some(h) = vm.global(*id).as_ref_handle() {
                            scratch.inert_globals.insert(h);
                        }
                    }
                    LivenessHint::InertSpawnSite(label) => {
                        scratch.inert_sites.insert(label.clone());
                    }
                }
            }
        }

        let marker = &mut scratch.marker;
        for h in vm.runtime_root_handles() {
            if !scratch.inert_globals.contains(&h) {
                marker.push_root(h);
            }
        }

        // Root preparation: GOLF withholds goroutines blocked at
        // deadlock-eligible concurrency operations (paper §4.2 step 1); the
        // baseline includes everything (§5.1).
        let candidates = &mut scratch.candidates;
        let mut goroutine_roots = 0usize;
        for g in vm.live_goroutines() {
            if detection {
                if spawn_site_is_inert(vm, &scratch.inert_sites, g) {
                    candidates.set_role(g.id, Role::Inert);
                    continue; // withheld from liveness; re-marked before sweep
                }
                if g.deadlock_candidate() {
                    candidates.push_pending(g);
                    continue;
                }
                candidates.set_role(g.id, Role::Root);
            }
            for h in g.stack_roots() {
                marker.push_root(h);
            }
            goroutine_roots += 1;
        }
        stats.phases.push(PhaseEvent::RootsPrepared { goroutine_roots, restricted: detection });

        // ---- Iterative marking to the reachable-liveness fixed point ----
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "mark" });
        }
        let mark_start = Instant::now();
        let expansion = detection.then_some(self.golf.expansion);
        loop {
            stats.mark_iterations += 1;
            let before = marker.marked;
            while let Some(h) = marker.step(vm.heap_mut()) {
                match expansion {
                    Some(ExpansionStrategy::FromMarked) => scratch.newly_marked.push(h),
                    // §5.3's furthest variant: expand the root set *during*
                    // marking. An object's waiters join the worklist the
                    // instant the object is blackened, so one pass reaches
                    // the fixed point.
                    Some(ExpansionStrategy::Incremental) => {
                        for gid in vm.waiters_on(h) {
                            stats.liveness_checks += 1;
                            if !candidates.promote(gid) {
                                continue;
                            }
                            if let Some(g) = vm.goroutine(gid) {
                                for root in g.stack_roots() {
                                    marker.push_root(root);
                                }
                            }
                        }
                    }
                    Some(ExpansionStrategy::Rescan) | None => {}
                }
            }
            stats.phases.push(PhaseEvent::MarkIteration {
                iteration: stats.mark_iterations,
                newly_marked: marker.marked - before,
            });
            // Root expansion (paper §4.2 step 3): a blocked goroutine whose
            // B(g) intersects the marked heap is reachably live.
            scratch.added.clear();
            match expansion {
                None | Some(ExpansionStrategy::Incremental) => break,
                Some(ExpansionStrategy::Rescan) => {
                    stats.liveness_checks += candidates.rescan(vm.heap(), &mut scratch.added);
                }
                Some(ExpansionStrategy::FromMarked) => {
                    // §5.3: only the wait queues of objects marked in the
                    // last iteration can yield newly-live goroutines.
                    for h in scratch.newly_marked.drain(..) {
                        for gid in vm.waiters_on(h) {
                            stats.liveness_checks += 1;
                            if candidates.promote(gid) {
                                scratch.added.push(gid);
                            }
                        }
                    }
                }
            }
            if scratch.added.is_empty() {
                break;
            }
            for gid in &scratch.added {
                if let Some(g) = vm.goroutine(*gid) {
                    for h in g.stack_roots() {
                        marker.push_root(h);
                    }
                }
            }
            stats.phases.push(PhaseEvent::RootExpansion { goroutines_added: scratch.added.len() });
        }
        stats.objects_marked = marker.marked;
        stats.pointer_traversals = marker.traversals;
        stats.mark_ns = mark_start.elapsed().as_nanos() as u64;
        stats.phases.push(PhaseEvent::MarkDone);
        // The marked count *before* the inert/preserved re-mark passes —
        // what the `gc_phase_end` mark event reports, cached for replay.
        let mark_phase_count = stats.objects_marked;
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseEnd {
                cycle: cycle_no,
                phase: "mark",
                count: stats.objects_marked,
            });
        }

        // ---- Deadlock detection & recovery ----
        if detection {
            if vm.trace_enabled() {
                vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "detect" });
            }
            let deadlocked: Vec<Gid> = scratch.candidates.still_pending().collect();

            // Forensics snapshot: capture the wait-for graph while this
            // cycle's mark bits are still valid (pre-sweep); every report
            // of the cycle shares it, and it renders only when asked.
            let wait_for =
                (!deadlocked.is_empty()).then(|| Arc::new(WaitForGraph::capture(vm, &deadlocked)));

            let mut new_reports = 0usize;
            for &gid in &deadlocked {
                let already = vm.goroutine(gid).is_some_and(|g| g.reported_deadlocked);
                if already {
                    continue;
                }
                let mut report = self.build_report(vm, gid, cycle_no);
                report.recent_events =
                    forensics::flight_tail(vm, gid, forensics::DEFAULT_FORENSIC_TAIL);
                report.wait_for = wait_for.clone();
                if vm.trace_enabled() {
                    vm.trace_emit(TraceEvent::DeadlockDetected {
                        gid: go_id(gid),
                        reason: report.wait_reason.as_str(),
                        location: report.block_location.clone(),
                    });
                }
                self.reports.push(report);
                vm.set_reported(gid);
                new_reports += 1;
            }
            stats.deadlocks_detected = new_reports;
            stats.phases.push(PhaseEvent::DeadlocksDetected { count: new_reports });
            if vm.trace_enabled() {
                vm.trace_emit(TraceEvent::GcPhaseEnd {
                    cycle: cycle_no,
                    phase: "detect",
                    count: new_reports as u64,
                });
            }

            if self.golf.reclaim {
                let mut reclaimed = 0usize;
                let mut preserved = 0usize;
                for &gid in &deadlocked {
                    // Paper §5.5: while marking resources reachable only
                    // from deadlocked goroutines, check for finalizers. Any
                    // finalizer ⇒ keep the goroutine (and its memory) alive
                    // forever so Go's observable semantics are preserved.
                    if scratch.subgraph_has_finalizer(vm, gid) {
                        vm.set_deadlocked(gid);
                        mark_goroutine_subgraph(vm, gid, &mut scratch.marker);
                        preserved += 1;
                    } else {
                        vm.force_shutdown(gid);
                        reclaimed += 1;
                    }
                }
                stats.deadlocks_reclaimed = reclaimed;
                stats.preserved_for_finalizers = preserved;
                if reclaimed > 0 {
                    stats.phases.push(PhaseEvent::Reclaimed { count: reclaimed });
                }
                if preserved > 0 {
                    stats.phases.push(PhaseEvent::PreservedForFinalizers { count: preserved });
                }
            } else {
                // Report-only mode: the goroutines stay parked, so their
                // memory must survive the sweep (only the *report* is
                // withheld from re-emission).
                for &gid in &deadlocked {
                    mark_goroutine_subgraph(vm, gid, &mut scratch.marker);
                }
            }
        }

        // Re-mark the hinted (inert) sources: they were withheld from the
        // liveness computation only; their memory is still reachable.
        for &h in &scratch.inert_globals {
            scratch.marker.push_root(h);
        }
        for g in vm.live_goroutines().filter(|g| scratch.candidates.role(g.id) == Role::Inert) {
            for h in g.stack_roots() {
                scratch.marker.push_root(h);
            }
        }
        scratch.marker.drain(vm.heap_mut());
        // The preserved and hinted subgraphs count as marking work too.
        stats.objects_marked = scratch.marker.marked;
        stats.pointer_traversals = scratch.marker.traversals;

        // ---- Sweep ----
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "sweep" });
        }
        let outcome = vm.heap_mut().sweep_unmarked();
        stats.swept_objects = outcome.reclaimed_objects;
        stats.swept_bytes = outcome.reclaimed_bytes;
        // Unreachable objects with finalizers were resurrected; run their
        // finalizers on a runtime-internal goroutine, whose stack keeps the
        // object alive until the finalizer has observed it.
        let mut finalizer_spawns = 0usize;
        for (h, fin) in outcome.finalizable {
            vm.spawn_internal(fin.func, &[Value::Ref(h)]);
            finalizer_spawns += 1;
        }
        stats
            .phases
            .push(PhaseEvent::Sweep { objects: stats.swept_objects, bytes: stats.swept_bytes });
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseEnd {
                cycle: cycle_no,
                phase: "sweep",
                count: stats.swept_objects,
            });
        }
        vm.heap_mut().reset_alloc_window();

        stats.live_bytes_after = vm.heap().stats().heap_alloc_bytes;
        stats.pause_ns = pause_start.elapsed().as_nanos() as u64;
        // Modeled STW (Go's marking is concurrent; only root setup, the
        // marking-done handshake — one per marking *iteration*, which is
        // where the paper locates GOLF's primary penalty (§6.2: "the STW
        // phase required to complete the marking phase") — plus GOLF's
        // liveness checks and forced shutdowns stop the world).
        stats.modeled_stw_ns = 150_000 * u64::from(stats.mark_iterations.max(1))
            + stats.liveness_checks * 150
            + stats.deadlocks_reclaimed as u64 * 3_000
            + stats.deadlocks_detected as u64 * 2_000;

        // Cache this cycle for replay if it was *steady* — side-effect
        // free, so reproducing its outcome under quiescence is exact.
        if incremental {
            let steady = stats.deadlocks_detected == 0
                && stats.deadlocks_reclaimed == 0
                && stats.preserved_for_finalizers == 0
                && stats.swept_objects == 0
                && finalizer_spawns == 0;
            self.caches[usize::from(detection)] = steady.then(|| CycleCache {
                heap_epoch: vm.heap().mutation_epoch(),
                roots_epoch: vm.roots_epoch(),
                fingerprints: vm.live_goroutines().map(Goroutine::liveness_fingerprint).collect(),
                mark_phase_count,
                stats: stats.clone(),
            });
        }
        // Start the next barrier window: dirty bits recorded before this
        // point are consumed by this cycle's full re-mark.
        if vm.heap().dirty_tracking() {
            vm.heap_mut().clear_dirty();
        }

        self.totals.absorb(&stats);
        if self.keep_history {
            self.history.push(stats.clone());
        }
        self.scratch = scratch;
        stats
    }

    fn build_report(&self, vm: &Vm, gid: Gid, cycle: u64) -> DeadlockReport {
        let g = vm.goroutine(gid).expect("reporting a stale goroutine");
        let program = vm.program();
        let stack: Vec<String> = g
            .frames
            .iter()
            .rev()
            .map(|f| program.describe_loc(f.func, f.pc.saturating_sub(1)))
            .collect();
        let block_location = stack.first().cloned().unwrap_or_else(|| "<unknown>".into());
        DeadlockReport {
            gid,
            wait_reason: g.wait_reason().expect("deadlocked goroutine is parked"),
            block_location,
            spawn_site: g.spawn_site.map(|s| program.site_info(s).label.clone()),
            stack,
            cycle,
            tick: vm.now(),
            recent_events: Vec::new(),
            wait_for: None,
        }
    }
}

/// Marks everything reachable from `gid`'s stack (used to keep the memory
/// of preserved, report-only or hinted-inert goroutines alive).
fn mark_goroutine_subgraph(vm: &mut Vm, gid: Gid, marker: &mut Marker) {
    if let Some(g) = vm.goroutine(gid) {
        for h in g.stack_roots() {
            marker.push_root(h);
        }
    }
    marker.drain(vm.heap_mut());
}

/// Returns the goroutines currently in the permanent `Deadlocked` state
/// (preserved for finalizer semantics).
pub fn preserved_goroutines(vm: &Vm) -> Vec<Gid> {
    vm.live_goroutines().filter(|g| g.status == GStatus::Deadlocked).map(|g| g.id).collect()
}
