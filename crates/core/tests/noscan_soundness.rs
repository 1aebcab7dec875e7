//! Slices that hold no `Ref` are never scanned (Go's `noscan` objects). This
//! test checks that the skip follows the slice's contents: a goroutine
//! blocked on a channel whose only reference sits in a global slice that so
//! far held only ints stays live while the slice holds it, and is reported by
//! the first detecting cycle after the slice lets go — under every expansion
//! strategy, with incremental replay on and off.

use golf_core::{ExpansionStrategy, GcEngine, GcMode, GolfConfig};
use golf_runtime::{FuncBuilder, FuncId, GlobalId, Object, ProgramSet, Value, Vm, VmConfig};

/// Main fills a global slice with ints, parks `waiter` on a fresh channel,
/// stores the channel into the slice (`s[1] = ch`), drops its own references
/// and sleeps. Returns the program, the slice's global and `release`, which
/// takes the slice and overwrites the channel with an int (`s[1] = 7`).
fn program() -> (ProgramSet, GlobalId, FuncId) {
    let mut p = ProgramSet::new();
    let global = p.global("holder");
    let site = p.site("main:waiter");

    let mut b = FuncBuilder::new("waiter", 1);
    let ch = b.param(0);
    b.recv(ch, None);
    b.ret(None);
    let waiter = p.define(b);

    let mut b = FuncBuilder::new("release", 1);
    let s = b.param(0);
    let one = b.int(1);
    let seven = b.int(7);
    b.slice_set(s, one, seven);
    b.ret(None);
    let release = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let s = b.var("s");
    let ch = b.var("ch");
    let ints: Vec<_> = (0..3).map(|i| b.int(i)).collect();
    b.new_slice(s);
    for &i in &ints {
        b.slice_push(s, i);
    }
    b.set_global(global, s);
    b.make_chan(ch, 0);
    b.go(waiter, &[ch], site);
    b.slice_set(s, ints[1], ch);
    b.clear(ch);
    b.clear(s);
    b.sleep(1_000_000);
    p.define(b);
    (p, global, release)
}

/// The `Ref` count of the slice `global` points to.
fn ref_count(vm: &Vm, global: GlobalId) -> usize {
    let Value::Ref(s) = vm.global(global) else { panic!("holder global is not set") };
    match vm.heap().get(s) {
        Some(Object::Slice(s)) => s.ref_count(),
        other => panic!("holder is not a slice: {other:?}"),
    }
}

fn check(expansion: ExpansionStrategy, incremental: bool) {
    let ctx = format!("{expansion:?}, incremental {incremental}");
    let (p, global, release) = program();
    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(100);
    assert_eq!(ref_count(&vm, global), 1, "{ctx}: the channel is stored");
    let mut gc =
        GcEngine::new(GcMode::Golf, GolfConfig { expansion, incremental, ..GolfConfig::default() });

    // Held: several detecting cycles (replays, when incremental) keep the
    // waiter live.
    for _ in 0..3 {
        gc.collect(&mut vm);
    }
    assert!(gc.reports().is_empty(), "{ctx}: reported while the slice holds its channel");
    assert_eq!(vm.live_count(), 2, "{ctx}: main and the waiter are live");

    // Release through the interpreter: the harness hands the slice to a
    // fresh goroutine.
    let s = vm.global(global);
    vm.spawn_internal(release, &[s]);
    vm.run(100);
    assert_eq!(ref_count(&vm, global), 0, "{ctx}: the slice is pointer-free again");

    // Released: the very next detecting cycle reports the waiter.
    gc.collect(&mut vm);
    let sites: Vec<_> = gc.reports().iter().map(|r| r.spawn_site.as_deref()).collect();
    assert_eq!(sites, [Some("main:waiter")], "{ctx}: the waiter is reported once released");
}

#[test]
fn pointer_free_slice_keeps_and_releases_a_blocked_goroutine() {
    for expansion in
        [ExpansionStrategy::Rescan, ExpansionStrategy::FromMarked, ExpansionStrategy::Incremental]
    {
        for incremental in [true, false] {
            check(expansion, incremental);
        }
    }
}
