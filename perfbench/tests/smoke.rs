//! Tiny-size runs of every workload, and the equivalence of the
//! benchmark's hand-driven loop with the library's own drivers.

use golf_core::{GcMode, GolfConfig, Session};
use golf_micro::{corpus, run_benchmark, RunSettings};
use golf_perfbench::driver::{Driver, Recorder};
use golf_perfbench::workloads::{
    boot_service_timed, corpus_run, run_chunked, service_config, service_pacer, Checks,
    RoundCounts, Size, Workload,
};
use golf_perfbench::{end_to_end, per_layer, run_pass, Plan};
use golf_service::{boot_service, read_latencies};

#[test]
fn every_workload_passes_its_checks_and_traces_the_same_counts() {
    let size = Size::TINY;
    for w in Workload::ALL {
        let mut checks = Checks::default();
        let untraced = run_pass(w, &size, 7, false, Plan::Exactly(2), &mut checks);
        let traced = run_pass(w, &size, 7, true, Plan::Exactly(1), &mut checks);
        assert_eq!(checks.failed, 0, "{}: {:?}", w.name(), checks.failures);
        assert!(checks.attempted > 2, "{}: {} checks", w.name(), checks.attempted);
        assert_eq!(traced.counts(), untraced.counts(), "{}", w.name());

        for m in end_to_end(w, &untraced) {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }
        let layers = per_layer(&untraced, &traced);
        let layer = |name: &str| {
            layers.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name}")).value
        };
        assert_eq!(layers.len(), 30);
        assert!(layer("trace.overhead_ratio") > 0.0);
        assert!(layer("runtime.busy_s") > 0.0 && layer("core.busy_s") > 0.0);

        let c: &RoundCounts = untraced.counts();
        match w {
            Workload::Service => assert!(c.core.deadlocks_reclaimed > 0 && c.units > 0),
            Workload::Corpus => assert!(c.detected_sites > 0 && c.runs == c.units),
            Workload::GcChurn => {
                assert_eq!(c.core.replayed, 0);
                let links = size.chain_links as u64;
                assert_eq!(layer("core.liveness_checks"), (links * (links + 1) / 2) as f64);
                assert_eq!(layer("core.mark_iterations"), (links + 1) as f64);
            }
            Workload::GcIdle => assert_eq!(c.core.replayed, c.core.cycles - 1),
        }
    }
}

#[test]
fn hand_driven_service_matches_session() {
    let config = service_config(11);
    let (ticks, every) = (5_000, 1_000);

    let (vm, globals) = boot_service(&config);
    let mut session = Session::new(vm, GcMode::Golf, GolfConfig::default(), service_pacer());
    session.engine_mut().set_keep_history(false);
    session.charge_pauses(1_000_000);
    let mut left = ticks;
    while left > 0 {
        let chunk = left.min(every);
        session.run(chunk);
        session.collect();
        left -= chunk;
    }

    let mut rec = Recorder::new(true);
    let (mut driver, globals2) = boot_service_timed(&config, &mut rec);
    run_chunked(&mut driver, ticks, every, &mut rec);

    let (vm, gc) = (session.vm(), session.gc_totals());
    assert_eq!(read_latencies(vm, globals), read_latencies(&driver.vm, globals2));
    assert_eq!(vm.now(), driver.vm.now());
    assert_eq!(vm.instrs_executed(), driver.vm.instrs_executed());
    assert_eq!(vm.counters(), driver.vm.counters());
    assert_eq!(vm.heap().stats(), driver.vm.heap().stats());
    let mine = driver.engine.totals();
    assert_eq!(
        (gc.num_gc, gc.swept_objects, gc.deadlocks_detected, gc.deadlocks_reclaimed),
        (mine.num_gc, mine.swept_objects, mine.deadlocks_detected, mine.deadlocks_reclaimed)
    );
    assert_eq!(gc.modeled_stw_total_ns, mine.modeled_stw_total_ns);
    let key = |r: &golf_core::DeadlockReport| (r.gid, r.cycle, r.tick, r.spawn_site.clone());
    let expected: Vec<_> = session.reports().iter().map(key).collect();
    let got: Vec<_> = driver.engine.reports().iter().map(key).collect();
    assert!(!expected.is_empty());
    assert_eq!(expected, got);
}

#[test]
fn hand_driven_corpus_run_matches_run_benchmark() {
    for mb in corpus() {
        for procs in [1, 4] {
            let settings = RunSettings { procs, seed: 5, ..RunSettings::default() };
            let expected = run_benchmark(&mb, &settings);
            let mut counts = RoundCounts::default();
            let got = corpus_run(&mb, false, procs, 5, &mut Recorder::new(false), &mut counts);
            let detected: Vec<String> = expected.detected_sites.into_iter().collect();
            let unexpected: Vec<String> = expected.unexpected_sites.into_iter().collect();
            assert_eq!(got.detected_sites, detected, "{} procs {procs}", mb.name);
            assert_eq!(got.unexpected_sites, unexpected, "{} procs {procs}", mb.name);
            assert_eq!(got.report_count, expected.report_count, "{} procs {procs}", mb.name);
            assert_eq!(got.ticks, expected.ticks, "{} procs {procs}", mb.name);
        }
    }
}

#[test]
fn driver_without_pacer_collects_only_when_asked() {
    let vm = golf_runtime::Vm::boot(
        golf_perfbench::workloads::gc_program(50, 4, None),
        golf_runtime::VmConfig::default(),
    );
    let mut driver = Driver::forced_only(vm);
    let mut rec = Recorder::new(false);
    driver.run(10_000, &mut rec);
    // Construction ends with main's `runtime.GC()`: exactly one cycle.
    assert_eq!(rec.core.cycles, 1);
    assert_eq!(driver.vm.heap().len(), 50 + 5, "list nodes plus chain channels");
}
