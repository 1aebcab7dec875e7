//! Property-based tests of the runtime's concurrency semantics: channel
//! FIFO order, value conservation across producer/consumer fleets, and
//! whole-VM determinism. Also the `Ref` count of slices that lets the
//! marker skip pointer-free ones.

use golf_heap::{Handle, Heap, Trace};
use golf_runtime::{
    BinOp, FuncBuilder, Object, ProgramSet, RunStatus, SliceData, Value, Vm, VmConfig,
};
use proptest::prelude::*;

/// Builds a producer/consumer program: `producers` goroutines send
/// `per_producer` distinct tagged values into one channel of capacity
/// `cap`; `consumers` goroutines drain it into a shared result slice
/// (mutex-protected); main waits for all of it and closes up shop.
fn producer_consumer(
    producers: i64,
    per_producer: i64,
    consumers: i64,
    cap: usize,
) -> (ProgramSet, golf_runtime::GlobalId) {
    let mut p = ProgramSet::new();
    let out = p.global("out");
    let s_prod = p.site("main:producer");
    let s_cons = p.site("main:consumer");

    // producer(ch, base, wg): for i in 0..per_producer { ch <- base+i }
    let mut b = FuncBuilder::new("producer", 3);
    let ch = b.param(0);
    let base = b.param(1);
    let wg = b.param(2);
    let v = b.var("v");
    b.repeat(per_producer, |b, i| {
        b.bin(BinOp::Add, v, base, i);
        b.send(ch, v);
    });
    b.wg_done(wg);
    b.ret(None);
    let producer = p.define(b);

    // consumer(ch, slice, mu): for v := range ch { lock; append; unlock }
    let mut b = FuncBuilder::new("consumer", 3);
    let ch = b.param(0);
    let slice = b.param(1);
    let mu = b.param(2);
    let item = b.var("item");
    b.range_chan(ch, item, |b| {
        b.lock(mu);
        b.slice_push(slice, item);
        b.unlock(mu);
    });
    b.ret(None);
    let consumer = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let slice = b.var("slice");
    let mu = b.var("mu");
    let wg = b.var("wg");
    b.make_chan(ch, cap);
    b.new_slice(slice);
    b.set_global(out, slice);
    b.new_mutex(mu);
    b.new_waitgroup(wg);
    b.wg_add(wg, producers);
    let base = b.var("base");
    let step = b.int(1_000);
    let zero = b.int(0);
    b.copy(base, zero);
    b.repeat(producers, |b, _| {
        b.go(producer, &[ch, base, wg], s_prod);
        b.bin(BinOp::Add, base, base, step);
    });
    b.repeat(consumers, |b, _| {
        b.go(consumer, &[ch, slice, mu], s_cons);
    });
    b.wg_wait(wg); // all values sent…
    b.close_chan(ch); // …so close; consumers drain and exit
    b.sleep(100);
    b.ret(None);
    p.define(b);
    (p, out)
}

fn read_slice(vm: &Vm, out: golf_runtime::GlobalId) -> Vec<i64> {
    let Value::Ref(h) = vm.global(out) else { return Vec::new() };
    match vm.heap().get(h) {
        Some(golf_runtime::Object::Slice(vs)) => vs.iter().filter_map(|v| v.as_int()).collect(),
        _ => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Every sent value is received exactly once, whatever the fleet shape,
    /// buffer capacity, core count or seed.
    #[test]
    fn channels_conserve_values(
        producers in 1i64..5,
        per_producer in 1i64..8,
        consumers in 1i64..5,
        cap in 0usize..4,
        procs in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (p, out) = producer_consumer(producers, per_producer, consumers, cap);
        let mut vm = Vm::boot(p, VmConfig { seed, gomaxprocs: procs, ..VmConfig::default() });
        let outcome = vm.run(200_000);
        prop_assert_eq!(outcome.status, RunStatus::MainDone);

        let mut got = read_slice(&vm, out);
        got.sort_unstable();
        let mut expected: Vec<i64> = (0..producers)
            .flat_map(|pr| (0..per_producer).map(move |i| pr * 1_000 + i))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected, "lost or duplicated messages");
        prop_assert_eq!(vm.live_count(), 0, "all goroutines terminated");
    }

    /// Single producer, single consumer: FIFO order is preserved for any
    /// buffer capacity.
    #[test]
    fn channels_are_fifo(per_producer in 1i64..12, cap in 0usize..5, seed in any::<u64>()) {
        let (p, out) = producer_consumer(1, per_producer, 1, cap);
        let mut vm = Vm::boot(p, VmConfig { seed, ..VmConfig::default() });
        prop_assert_eq!(vm.run(100_000).status, RunStatus::MainDone);
        let got = read_slice(&vm, out);
        let expected: Vec<i64> = (0..per_producer).collect();
        prop_assert_eq!(got, expected, "order not preserved");
    }

    /// Weak fairness: with N compute-loop goroutines, every one of them
    /// makes progress — the randomized scheduler never starves anyone.
    #[test]
    fn scheduler_is_weakly_fair(n in 2i64..8, procs in 1usize..5, seed in any::<u64>()) {
        let mut p = ProgramSet::new();
        let out = p.global("cells");
        let site = p.site("main:looper");

        // looper(cell): forever { *cell += 1; gosched }
        let mut b = FuncBuilder::new("looper", 1);
        let cell = b.param(0);
        let t = b.var("t");
        let one = b.int(1);
        b.forever(|b| {
            b.cell_get(t, cell);
            b.bin(BinOp::Add, t, t, one);
            b.cell_set(cell, t);
            b.yield_now();
        });
        let looper = p.define(b);

        let mut b = FuncBuilder::new("main", 0);
        let cells = b.var("cells");
        b.new_slice(cells);
        b.set_global(out, cells);
        let zero = b.int(0);
        let cell = b.var("cell");
        b.repeat(n, |b, _| {
            b.new_cell(cell, zero);
            b.slice_push(cells, cell);
            b.go(looper, &[cell], site);
        });
        b.sleep(1_000_000);
        p.define(b);

        let mut vm = Vm::boot(p, VmConfig { seed, gomaxprocs: procs, ..VmConfig::default() });
        vm.run(600);
        // Read each looper's progress.
        let Value::Ref(slice) = vm.global(out) else { panic!("no cells") };
        let cells: Vec<_> = match vm.heap().get(slice) {
            Some(golf_runtime::Object::Slice(vs)) => vs.to_vec(),
            _ => panic!("not a slice"),
        };
        prop_assert_eq!(cells.len(), n as usize);
        for (i, c) in cells.iter().enumerate() {
            let Value::Ref(h) = c else { panic!("cell ref") };
            let Some(golf_runtime::Object::Cell(v)) = vm.heap().get(*h) else { panic!() };
            let count = v.as_int().unwrap_or(0);
            prop_assert!(count > 0, "looper {i} starved (0 iterations in 600 ticks)");
        }
    }

    /// Bit-for-bit determinism: the same seed replays the exact execution.
    #[test]
    fn vm_is_deterministic(
        producers in 1i64..4,
        consumers in 1i64..4,
        procs in 1usize..5,
        seed in any::<u64>(),
    ) {
        let run = || {
            let (p, out) = producer_consumer(producers, 4, consumers, 1);
            let mut vm = Vm::boot(p, VmConfig { seed, gomaxprocs: procs, ..VmConfig::default() });
            let outcome = vm.run(200_000);
            (outcome, read_slice(&vm, out), vm.counters())
        };
        prop_assert_eq!(run(), run());
    }

    /// Slices built from random contents, then random push/set sequences
    /// over Int, Bool, Nil, `Ref` and masked `Ref` values: after
    /// construction and every operation the `Ref` count equals a naive
    /// count, and `trace` visits exactly the handles of a naive scan, in its
    /// order.
    #[test]
    fn slice_ref_count_tracks_every_mutation(
        init in proptest::collection::vec(any::<u8>(), 0..6),
        ops in proptest::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 0..60),
    ) {
        let mut heap: Heap<Object> = Heap::new();
        let targets: Vec<Handle> = (0..3).map(|_| heap.alloc(Object::chan(0))).collect();
        let value = |code: u8| match code % 8 {
            0..=2 => Value::Int(i64::from(code / 8 % 4)),
            3 => Value::Bool(code & 8 != 0),
            4 => Value::Nil,
            5 | 6 => Value::Ref(targets[usize::from(code / 8) % 3]),
            _ => Value::Ref(targets[usize::from(code / 8) % 3].masked()),
        };
        let slice = heap.alloc(Object::Slice(SliceData::from(
            init.iter().map(|&a| value(a)).collect::<Vec<_>>(),
        )));
        check_ref_count(&heap, slice);
        for (push, idx, a) in ops {
            let a = value(a);
            let Some(Object::Slice(s)) = heap.get_mut(slice) else { panic!("slice") };
            if push {
                s.push(a);
            } else {
                // `len` itself is out of range: a no-op returning `None`.
                let i = usize::from(idx) % (s.len() + 1);
                let old = s.get(i).copied();
                prop_assert_eq!(s.set(i, a), old);
            }
            check_ref_count(&heap, slice);
        }
    }
}

/// Asserts that the slice's `Ref` count equals a naive count, and that
/// tracing it visits exactly the handles of a naive scan, in its order.
fn check_ref_count(heap: &Heap<Object>, slice: Handle) {
    let Some(Object::Slice(s)) = heap.get(slice) else { panic!("slice") };
    let naive: Vec<Handle> = s.iter().filter_map(|v| v.as_ref_handle()).collect();
    assert_eq!(s.ref_count(), naive.len());
    let mut traced = Vec::new();
    heap.get(slice).expect("slice").trace(&mut |h| traced.push(h));
    assert_eq!(traced, naive);
}
