//! Tentpole acceptance tests: trace determinism and deadlock forensics.
//!
//! The tracer stamps records only with the scheduler tick and an emission
//! sequence number — never wall-clock time — so the same program and seed
//! must yield *byte-identical* JSONL, and the wait-for graph export must
//! match a committed golden file exactly.

use golf_core::{forensics, Session};
use golf_runtime::{FuncBuilder, ProgramSet, SelectSpec, Vm, VmConfig};
use golf_trace::VecSink;
use std::sync::Arc;

/// The paper's Listing 7 shape: `task` sends on a channel `main` drops.
fn leaky_program() -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("SendEmail:104");
    let mut b = FuncBuilder::new("task", 1);
    let done = b.param(0);
    let one = b.int(1);
    b.send(done, one);
    let task = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    let done = b.var("done");
    b.make_chan(done, 0);
    b.go(task, &[done], site);
    b.clear(done);
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);
    p
}

/// Runs the leaky program under GOLF with a collecting sink; returns the
/// JSONL trace plus the session for report inspection.
fn traced_run(seed: u64) -> (String, Session) {
    let vm = Vm::boot(leaky_program(), VmConfig { seed, ..VmConfig::default() });
    let mut session = Session::golf(vm);
    let sink = VecSink::new();
    session.set_trace_sink(Some(Box::new(sink.clone())));
    session.run(10_000);
    let jsonl: String = sink.records().iter().map(|r| r.to_jsonl() + "\n").collect();
    (jsonl, session)
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let (a, _) = traced_run(42);
    let (b, _) = traced_run(42);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same program + seed must trace identically");
}

#[test]
fn trace_covers_the_event_vocabulary_and_parses() {
    let (jsonl, _) = traced_run(7);
    for kind in [
        "go_create",
        "go_block",
        "chan_make",
        "gc_phase_begin",
        "gc_phase_end",
        "deadlock_detected",
        "reclaimed",
    ] {
        assert!(
            jsonl.contains(&format!("\"type\":\"{kind}\"")),
            "trace missing {kind} events:\n{jsonl}"
        );
    }
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(line.contains("\"tick\":") && line.contains("\"seq\":"), "unstamped: {line}");
        // Balanced quoting is the cheap stand-in for a JSON parser here.
        assert_eq!(line.matches('"').count() % 2, 0, "unbalanced quotes: {line}");
    }
}

#[test]
fn reports_carry_flight_recorder_tail_and_wait_for_graph() {
    let (_, session) = traced_run(0);
    let reports = session.reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert!(!r.recent_events.is_empty(), "flight-recorder tail must be populated while tracing");
    assert!(
        r.recent_events.iter().any(|e| e.contains("GoBlock")),
        "tail should show the fatal park: {:?}",
        r.recent_events
    );
    let dot = r.wait_for_dot();
    assert!(dot.starts_with("digraph wait_for {"), "{dot}");
    assert!(dot.contains("color=red"), "deadlocked node must be red");
    assert!(dot.contains("unmarked"), "B(g) object must be unmarked");
}

#[test]
fn wait_for_graph_matches_golden_file() {
    let (_, session) = traced_run(0);
    let dot = session.reports()[0].wait_for_dot();
    let golden = include_str!("golden/wait_for_leaky.dot");
    assert_eq!(dot, golden, "DOT export drifted from tests/golden/wait_for_leaky.dot");
}

/// Every node shape the wait-for graph draws: two goroutines deadlocked in
/// a `select` over two channels, one shared (multi-edge `B(g)`, object
/// dedup); one deadlocked on a `sync.Mutex` (a masked sema handle, drawn
/// unmasked); one blocked on a channel `main` still holds (reachably live:
/// black, with a marked box); and one asleep (no edges).
fn mixed_program() -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("spawn:1");
    let mut b = FuncBuilder::new("selector", 2);
    let (x, y) = (b.param(0), b.param(1));
    let done = b.label();
    b.select(SelectSpec::new().recv(x, None, done).recv(y, None, done));
    b.bind(done);
    b.ret(None);
    let selector = p.define(b);
    let mut b = FuncBuilder::new("locker", 1);
    let mu = b.param(0);
    b.lock(mu);
    b.ret(None);
    let locker = p.define(b);
    let mut b = FuncBuilder::new("receiver", 1);
    let ch = b.param(0);
    b.recv(ch, None);
    b.ret(None);
    let receiver = p.define(b);
    let mut b = FuncBuilder::new("sleeper", 0);
    b.sleep(1_000_000);
    b.ret(None);
    let sleeper = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let (a, shared, c) = (b.var("a"), b.var("shared"), b.var("c"));
    let (mu, live) = (b.var("mu"), b.var("live"));
    b.make_chan(a, 0);
    b.make_chan(shared, 0);
    b.make_chan(c, 0);
    b.go(selector, &[a, shared], site);
    b.go(selector, &[shared, c], site);
    b.new_mutex(mu);
    b.lock(mu);
    b.go(locker, &[mu], site);
    b.make_chan(live, 0);
    b.go(receiver, &[live], site);
    b.go(sleeper, &[], site);
    for v in [a, shared, c, mu] {
        b.clear(v);
    }
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);
    p
}

#[test]
fn mixed_wait_for_graph_matches_golden_file() {
    let mut session = Session::golf(Vm::boot(mixed_program(), VmConfig::default()));
    session.run(10_000);
    let reports = session.reports();
    assert_eq!(reports.len(), 3, "two selectors and the locker deadlock");
    let dot = reports[0].wait_for_dot();
    assert!(reports.iter().all(|r| r.wait_for_dot() == dot), "one graph per cycle");
    let golden = include_str!("golden/wait_for_mixed.dot");
    assert_eq!(dot, golden, "DOT export drifted from tests/golden/wait_for_mixed.dot");
}

/// Two goroutines deadlock sending on channels `main` drops; `main` then
/// wakes and allocates channels into the slots the sweep freed.
fn slot_reuse_program() -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("spawn:1");
    let mut b = FuncBuilder::new("task", 1);
    let ch = b.param(0);
    let one = b.int(1);
    b.send(ch, one);
    b.ret(None);
    let task = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    let (x, y) = (b.var("x"), b.var("y"));
    for v in [x, y] {
        b.make_chan(v, 0);
        b.go(task, &[v], site);
        b.clear(v);
    }
    b.sleep(20);
    let fresh: Vec<_> = (0..4).map(|_| b.var("fresh")).collect();
    for &v in &fresh {
        b.make_chan(v, 0);
    }
    b.sleep(1_000_000);
    b.ret(None);
    p.define(b);
    p
}

#[test]
fn wait_for_graph_is_a_snapshot_shared_by_the_cycle() {
    let mut session = Session::golf(Vm::boot(slot_reuse_program(), VmConfig::default()));
    session.run(10);
    session.collect();
    let reports = session.reports();
    assert_eq!(reports.len(), 2);
    let graph = reports[0].wait_for.clone().expect("a detecting cycle captures a graph");
    assert!(
        reports.iter().all(|r| r.wait_for.as_ref().is_some_and(|g| Arc::ptr_eq(g, &graph))),
        "all reports of one cycle share one graph"
    );
    let dot = reports[0].wait_for_dot();
    // Object node ids are raw handles: slot index in the low 32 bits,
    // generation above.
    let raws: Vec<u64> = dot
        .lines()
        .filter(|l| l.contains("shape=box"))
        .map(|l| {
            let id = l.trim_start().trim_start_matches("\"0x");
            u64::from_str_radix(&id[..id.find('"').unwrap()], 16).unwrap()
        })
        .collect();
    assert_eq!(raws.len(), 2, "{dot}");

    session.run(100);
    let heap = session.vm().heap();
    for raw in &raws {
        assert!(
            heap.handles().any(|h| u64::from(h.index()) == raw & 0xffff_ffff && h.raw() != *raw),
            "slot of {raw:#x} was not reused:\n{dot}"
        );
    }
    let stats = session.collect();
    assert_eq!(stats.deadlocks_detected, 0);
    assert_eq!(session.reports()[0].wait_for_dot(), dot, "the render must not read the VM");
}

#[test]
fn function_names_are_escaped_in_dot_labels() {
    let mut p = ProgramSet::new();
    let site = p.site("spawn:1");
    let mut spawned = Vec::new();
    for name in ["say \"hi\"", "back\\slash"] {
        let mut b = FuncBuilder::new(name, 1);
        let ch = b.param(0);
        let one = b.int(1);
        b.send(ch, one);
        spawned.push(p.define(b));
    }
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    for f in spawned {
        b.make_chan(ch, 0);
        b.go(f, &[ch], site);
    }
    b.clear(ch);
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);
    let mut session = Session::golf(Vm::boot(p, VmConfig::default()));
    session.run(10_000);
    let dot = session.reports()[0].wait_for_dot();
    assert!(dot.contains(r#"label="g1.0\nchan send\nsay \"hi\":1"]"#), "{dot}");
    assert!(dot.contains(r#"label="g2.0\nchan send\nback\\slash:1"]"#), "{dot}");
}

#[test]
fn forensics_are_empty_without_tracing() {
    let vm = Vm::boot(leaky_program(), VmConfig::default());
    let mut session = Session::golf(vm);
    session.run(10_000);
    let r = &session.reports()[0];
    assert!(r.recent_events.is_empty(), "no recorder without a sink");
    // The graph is rendered from GC state and needs no tracing.
    assert!(r.wait_for_dot().contains("digraph wait_for"));
}

#[test]
fn flight_tail_is_bounded_and_chronological() {
    let (_, session) = traced_run(3);
    let gid = session.reports()[0].gid;
    let tail = forensics::flight_tail(session.vm(), gid, 2);
    assert!(tail.len() <= 2);
}
