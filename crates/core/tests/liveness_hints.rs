//! Liveness hints (§8 future work) turn the paper's two false-negative
//! patterns — Listings 4 and 5 — into detections, without ever freeing
//! reachable memory.

use golf_core::{ExpansionStrategy, GcEngine, GcMode, GolfConfig, LivenessHint};
use golf_runtime::{BinOp, FuncBuilder, GStatus, GlobalId, ProgramSet, Vm, VmConfig};

/// Listing 4: a sender blocked on a channel stored in a global.
fn listing4() -> (ProgramSet, GlobalId) {
    let mut p = ProgramSet::new();
    let global_ch = p.global("ch");
    let site = p.site("main:59");

    let mut b = FuncBuilder::new("sender", 0);
    let ch = b.var("ch");
    b.get_global(ch, global_ch);
    let one = b.int(1);
    b.send(ch, one);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.set_global(global_ch, ch);
    b.clear(ch);
    b.go(sender, &[], site);
    b.sleep(1_000_000); // main stays alive, like a real service
    p.define(b);
    (p, global_ch)
}

#[test]
fn inert_global_hint_exposes_listing4() {
    // Without the hint: false negative.
    let (p, _) = listing4();
    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(200);
    let mut gc = GcEngine::golf();
    gc.collect(&mut vm);
    assert!(gc.reports().is_empty(), "unhinted: reachably live via the global");

    // With the hint: detected and reclaimed; the channel itself survives
    // (the global still references it).
    let (p, global_ch) = listing4();
    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(200);
    let mut gc = GcEngine::golf();
    gc.add_liveness_hint(LivenessHint::InertGlobal(global_ch));
    let stats = gc.collect(&mut vm);
    assert_eq!(gc.reports().len(), 1, "hinted: the sender is deadlocked");
    assert_eq!(stats.deadlocks_reclaimed, 1);
    // Memory safety: the global's channel was re-marked, not swept.
    let ch = vm.global(global_ch).as_ref_handle().unwrap();
    assert!(vm.heap().contains(ch), "hinted global's memory must survive");
}

/// Listing 5: the heartbeat keeps the dispatcher (and its channel)
/// reachable, shielding the blocked sender.
fn listing5() -> ProgramSet {
    let mut p = ProgramSet::new();
    let disp_ty = p.struct_type("dispatcher", &["ch", "ticks"]);
    let site_hb = p.site("newDispatcher:71");
    let site_send = p.site("main:80");

    let mut b = FuncBuilder::new("heartbeat", 1);
    let d = b.param(0);
    let t = b.var("t");
    let one = b.int(1);
    b.forever(|b| {
        b.sleep(5);
        b.get_field(t, d, 1);
        b.bin(BinOp::Add, t, t, one);
        b.set_field(d, 1, t);
    });
    let heartbeat = p.define(b);

    let mut b = FuncBuilder::new("sender", 1);
    let d = b.param(0);
    let ch = b.var("ch");
    let v = b.int(1);
    b.get_field(ch, d, 0);
    b.send(ch, v);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let zero = b.int(0);
    let d = b.var("d");
    b.make_chan(ch, 0);
    b.new_struct(disp_ty, &[ch, zero], d);
    b.go(heartbeat, &[d], site_hb);
    b.go(sender, &[d], site_send);
    b.clear(ch);
    b.clear(d);
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// Listing 5 with the heartbeat parked on a ticker channel that `main`
/// keeps: the hinted goroutine is itself a waiter on a marked object, so no
/// root expansion may promote it.
fn listing5_parked() -> ProgramSet {
    let mut p = ProgramSet::new();
    let disp_ty = p.struct_type("dispatcher", &["ch", "ticks"]);
    let site_hb = p.site("newDispatcher:71");
    let site_send = p.site("main:80");

    let mut b = FuncBuilder::new("heartbeat", 2);
    let tick = b.param(1); // param 0, the dispatcher, stays on the stack
    b.forever(|b| b.recv(tick, None));
    let heartbeat = p.define(b);

    let mut b = FuncBuilder::new("sender", 1);
    let d = b.param(0);
    let ch = b.var("ch");
    let v = b.int(1);
    b.get_field(ch, d, 0);
    b.send(ch, v);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let zero = b.int(0);
    let d = b.var("d");
    let tick = b.var("tick");
    b.make_chan(ch, 0);
    b.make_chan(tick, 0);
    b.new_struct(disp_ty, &[ch, zero], d);
    b.go(heartbeat, &[d, tick], site_hb);
    b.go(sender, &[d], site_send);
    b.clear(ch);
    b.clear(d);
    b.sleep(1_000_000);
    p.define(b);
    p
}

#[test]
fn inert_spawn_site_hint_exposes_listing5() {
    // Without the hint: false negative.
    let mut vm = Vm::boot(listing5(), VmConfig::default());
    vm.run(200);
    let mut gc = GcEngine::golf();
    gc.collect(&mut vm);
    assert!(gc.reports().is_empty());

    // With the hint on the heartbeat's spawn site: the sender is exposed.
    let mut vm = Vm::boot(listing5(), VmConfig::default());
    vm.run(200);
    let mut gc = GcEngine::golf();
    gc.add_liveness_hint(LivenessHint::InertSpawnSite("newDispatcher:71".into()));
    gc.collect(&mut vm);
    assert_eq!(gc.reports().len(), 1);
    assert_eq!(gc.reports()[0].spawn_site.as_deref(), Some("main:80"));

    // The heartbeat itself is never reported and keeps running.
    let hb = vm
        .live_goroutines()
        .find(|g| {
            g.spawn_site.is_some_and(|s| &*vm.program().site_info(s).label == "newDispatcher:71")
        })
        .expect("heartbeat alive");
    assert_ne!(hb.status, GStatus::Deadlocked);
    // Its dispatcher struct survived the sweep (inert stacks are re-marked).
    let roots: Vec<_> = hb.stack_roots().collect();
    assert!(roots.iter().all(|&h| vm.heap().contains(h)), "heartbeat memory intact");
    // And the heartbeat continues to make progress afterwards.
    let before = vm.instrs_executed();
    vm.run(100);
    assert!(vm.instrs_executed() > before);
}

#[test]
fn hints_do_not_affect_unrelated_goroutines() {
    // A live consumer on a global channel must NOT be reported just
    // because an unrelated global is hinted inert.
    let mut p = ProgramSet::new();
    let g_used = p.global("used");
    let g_dead = p.global("dead");
    let site_ok = p.site("main:ok");
    let site_leak = p.site("main:leak");

    let mut b = FuncBuilder::new("consumer", 0);
    let ch = b.var("ch");
    b.get_global(ch, g_used);
    b.recv(ch, None);
    b.ret(None);
    let consumer = p.define(b);

    let mut b = FuncBuilder::new("stuck", 0);
    let ch = b.var("ch");
    b.get_global(ch, g_dead);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let stuck = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let a = b.var("a");
    let c = b.var("c");
    b.make_chan(a, 0);
    b.make_chan(c, 0);
    b.set_global(g_used, a);
    b.set_global(g_dead, c);
    b.clear(a);
    b.clear(c);
    b.go(consumer, &[], site_ok);
    b.go(stuck, &[], site_leak);
    b.sleep(50);
    // main will eventually serve the consumer through the global.
    let ch = b.var("ch");
    b.get_global(ch, g_used);
    let v = b.int(9);
    b.send(ch, v);
    b.sleep(1_000_000);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(30);
    let mut gc = GcEngine::golf();
    gc.add_liveness_hint(LivenessHint::InertGlobal(g_dead));
    gc.collect(&mut vm);
    let sites: Vec<_> =
        gc.reports().iter().filter_map(|r| r.spawn_site.as_deref().map(str::to_string)).collect();
    assert_eq!(sites, vec!["main:leak".to_string()], "only the hinted-dead global's goroutine");
    // The consumer still completes once main sends.
    vm.run(100_000);
    assert_eq!(vm.blocked_count(), 0, "consumer was served");
}

/// Listings 4 and 5 under every §5.3 strategy, reclaiming and report-only.
/// The inert goroutines and globals are withheld from the fixed point and
/// re-marked before the sweep, and report-only mode re-marks the deadlocked
/// subgraphs too, so all three strategies must agree on the reports and on
/// the final marking work.
#[test]
fn hints_agree_across_strategies() {
    type Case = (&'static str, fn() -> (ProgramSet, LivenessHint));
    fn heartbeat() -> LivenessHint {
        LivenessHint::InertSpawnSite("newDispatcher:71".into())
    }
    let cases: [Case; 3] = [
        ("listing4", || {
            let (p, global_ch) = listing4();
            (p, LivenessHint::InertGlobal(global_ch))
        }),
        ("listing5", || (listing5(), heartbeat())),
        ("listing5_parked", || (listing5_parked(), heartbeat())),
    ];
    for (name, build) in cases {
        for reclaim in [true, false] {
            let outcomes: Vec<_> = [
                ExpansionStrategy::Rescan,
                ExpansionStrategy::FromMarked,
                ExpansionStrategy::Incremental,
            ]
            .into_iter()
            .map(|expansion| {
                let (p, hint) = build();
                let mut vm = Vm::boot(p, VmConfig::default());
                vm.run(200);
                let mut gc = GcEngine::new(
                    GcMode::Golf,
                    GolfConfig { expansion, reclaim, ..GolfConfig::default() },
                );
                gc.add_liveness_hint(hint);
                let stats = gc.collect(&mut vm);
                let reports: Vec<_> = gc.reports().iter().map(|r| r.dedup_key_owned()).collect();
                (reports, stats.objects_marked, stats.pointer_traversals)
            })
            .collect();
            let what = format!("{name} reclaim={reclaim}");
            assert_eq!(outcomes[0].0.len(), 1, "{what}: the hinted leak is reported");
            assert_eq!(outcomes[0], outcomes[1], "{what}: Rescan vs FromMarked");
            assert_eq!(outcomes[0], outcomes[2], "{what}: Rescan vs Incremental");
        }
    }
}
