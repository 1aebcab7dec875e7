//! Regenerates the paper's **Figure 2**: the garbage-collection cycle with
//! GOLF's extensions. Runs one instrumented cycle on a program with both
//! live and deadlocked goroutines and prints the phase trace — regular
//! phases plain, GOLF extensions marked with `▞` (the paper's hatched
//! boxes).
//!
//! Usage:
//! ```text
//! cargo run --release -p golf-bench --bin fig2_gc_phases
//! ```

use golf_bench::{check_flags, or_usage};
use golf_core::{GcEngine, PhaseEvent};
use golf_runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};

fn build() -> ProgramSet {
    let mut p = ProgramSet::new();
    let leak_site = p.site("worker:leak");
    let live_site = p.site("worker:live");

    // A daisy chain of live goroutines (forces several mark iterations)
    // plus a pair of deadlocked ones.
    let mut b = FuncBuilder::new("link", 2);
    let mine = b.param(0);
    b.recv(mine, None);
    b.ret(None);
    let link = p.define(b);

    let mut b = FuncBuilder::new("leaky", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    let leaky = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let chans: Vec<_> = (0..4).map(|i| b.var(&format!("ch{i}"))).collect();
    for &ch in &chans {
        b.make_chan(ch, 0);
    }
    for i in 0..3 {
        b.go(link, &[chans[i], chans[i + 1]], live_site);
    }
    let orphan1 = b.var("o1");
    let orphan2 = b.var("o2");
    b.make_chan(orphan1, 0);
    b.make_chan(orphan2, 0);
    b.go(leaky, &[orphan1], leak_site);
    b.go(leaky, &[orphan2], leak_site);
    for &ch in &chans[1..] {
        b.clear(ch);
    }
    b.clear(orphan1);
    b.clear(orphan2);
    // Main stays alive holding the head of the chain, so the links are
    // reachably live (root expansion) while the orphan senders deadlock.
    b.sleep(1_000_000);
    b.ret(None);
    p.define(b);
    p
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    or_usage(check_flags(&args, &[], &[]), "usage: fig2_gc_phases (takes no arguments)");
    let mut vm = Vm::boot(build(), VmConfig::default());
    vm.run(500);
    let mut gc = GcEngine::golf();
    let stats = gc.collect(&mut vm);

    println!("Figure 2 — one GOLF garbage-collection cycle");
    println!("(▞ marks the phases the GOLF extension adds to the regular GC)\n");
    for event in &stats.phases {
        match event {
            PhaseEvent::Init => println!("   Initialization: unmark all objects"),
            PhaseEvent::RootsPrepared { goroutine_roots, restricted } => {
                if *restricted {
                    println!(
                        " ▞ Restricted root preparation: {goroutine_roots} runnable/internal goroutines (blocked goroutines withheld)"
                    );
                } else {
                    println!("   Root preparation: {goroutine_roots} goroutines");
                }
            }
            PhaseEvent::MarkIteration { iteration, newly_marked } => {
                println!("   Marking (iteration {iteration}): {newly_marked} objects marked");
            }
            PhaseEvent::RootExpansion { goroutines_added } => {
                println!(" ▞ Root expansion: +{goroutines_added} reachably-live goroutines");
            }
            PhaseEvent::MarkDone => println!("   Marking done (stop-the-world)"),
            PhaseEvent::DeadlocksDetected { count } => {
                println!(" ▞ Deadlock detection: {count} goroutines reported");
            }
            PhaseEvent::Reclaimed { count } => {
                println!(" ▞ Recovery: {count} deadlocked goroutines shut down");
            }
            PhaseEvent::PreservedForFinalizers { count } => {
                println!(" ▞ Preserved for finalizers: {count} goroutines kept live");
            }
            PhaseEvent::Sweep { objects, bytes } => {
                println!("   Sweep: {objects} objects / {bytes} bytes reclaimed");
            }
        }
    }
    println!(
        "\ncycle summary: {} mark iterations, {} pointer traversals, {} liveness checks, {} reports",
        stats.mark_iterations, stats.pointer_traversals, stats.liveness_checks,
        stats.deadlocks_detected
    );
    for report in gc.reports() {
        print!("\n{report}");
    }
}
