//! Deadlock forensics: flight-recorder tails and wait-for-graph export.
//!
//! The paper's reports name the blocked operation and the `go` statement;
//! real debugging wants more: *what the goroutine did right before parking*
//! and *which objects the deadlocked clique is waiting on*. This module
//! answers both from state the collector already has — the runtime's
//! flight recorder, and a [`WaitForGraph`] captured with the mark bits of
//! the cycle that proved the deadlock.

use golf_heap::Handle;
use golf_runtime::{FuncId, GStatus, Gid, Object, ProgramSet, Vm, WaitReason};
use golf_trace::GoId;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Number of flight-recorder events attached to each deadlock report.
pub const DEFAULT_FORENSIC_TAIL: usize = 16;

fn go_id(gid: Gid) -> GoId {
    GoId::new(gid.index(), gid.generation())
}

/// Renders the last `k` flight-recorder events concerning `gid`, oldest
/// first.
///
/// Returns an empty vector when the flight recorder is off (it turns on
/// with the first installed trace sink, or explicitly via
/// `Tracer::set_recorder_enabled`).
pub fn flight_tail(vm: &Vm, gid: Gid, k: usize) -> Vec<String> {
    vm.tracer().recorder().tail_for(go_id(gid), k).iter().map(|r| r.to_string()).collect()
}

fn object_kind(obj: &Object) -> &'static str {
    match obj {
        Object::Chan(_) => "chan",
        Object::Mutex(_) => "mutex",
        Object::RwLock(_) => "rwmutex",
        Object::WaitGroup(_) => "waitgroup",
        Object::Cond(_) => "cond",
        Object::Sema => "sema",
        Object::Struct { .. } => "struct",
        Object::Slice(_) => "slice",
        Object::Map(_) => "map",
        Object::Once { .. } => "once",
        Object::Cell(_) => "cell",
        Object::Blob { .. } => "blob",
    }
}

/// A parked goroutine of a [`WaitForGraph`].
struct GoroutineNode {
    gid: Gid,
    reason: WaitReason,
    /// Function and pc of the blocking instruction; `None` without frames.
    top: Option<(FuncId, usize)>,
    deadlocked: bool,
    /// Where its unmasked `B(g)` sits in [`WaitForGraph::edges`].
    edges: Range<usize>,
}

/// A `B(g)` object of a [`WaitForGraph`].
struct ObjectNode {
    handle: Handle,
    kind: &'static str,
    marked: bool,
}

/// The wait-for graph of every parked goroutine at the moment a GC cycle
/// proved a deadlock, captured as plain data and rendered as Graphviz DOT
/// by its `Display` impl.
///
/// Goroutine nodes (ellipses) link to the objects in their blocking set
/// `B(g)` (boxes). Object labels carry the mark state of the capturing
/// cycle, so the graph must be captured **pre-sweep, post-marking** — the
/// collector captures it at detection time, when an `unmarked` box is
/// exactly an object unreachable from live code. Deadlocked goroutines are
/// drawn red; reachably-live blocked goroutines stay black, which makes
/// the unreachable clique visually obvious.
///
/// Capturing copies ids, handles and mark bits and formats nothing;
/// rendering reads only the snapshot and the program it names functions
/// from, so the graph stays the same however the VM moves on. The reports
/// of one cycle share one snapshot. Output is deterministic: goroutines
/// are emitted in slot order and objects in handle order. `Debug` prints
/// the rendered DOT and `PartialEq` compares it, so graphs captured from
/// separately built but identical programs compare equal.
pub struct WaitForGraph {
    program: Arc<ProgramSet>,
    goroutines: Vec<GoroutineNode>,
    /// Every goroutine's `B(g)`, unmasked, in goroutine order.
    edges: Vec<Handle>,
    /// The distinct handles of `edges`, sorted.
    objects: Vec<ObjectNode>,
}

impl WaitForGraph {
    /// Captures the wait-for graph of `vm`'s parked goroutines, marking
    /// those in `deadlocked` (which must be sorted: slot order, as the
    /// collector's detection yields them).
    pub(crate) fn capture(vm: &Vm, deadlocked: &[Gid]) -> Self {
        let mut goroutines = Vec::new();
        let mut edges = Vec::new();
        for g in vm.live_goroutines() {
            let GStatus::Waiting(reason) = g.status else { continue };
            let start = edges.len();
            // Masked handles (§5.4) hide the object from the marker; the
            // forensic view sees through them for labeling only.
            edges.extend(g.blocked.handles().iter().map(|h| h.unmasked()));
            goroutines.push(GoroutineNode {
                gid: g.id,
                reason,
                top: g.frames.last().map(|f| (f.func, f.pc.saturating_sub(1))),
                deadlocked: deadlocked.binary_search(&g.id).is_ok(),
                edges: start..edges.len(),
            });
        }
        let mut handles = edges.clone();
        handles.sort_unstable();
        handles.dedup();
        let heap = vm.heap();
        let objects = handles
            .into_iter()
            .map(|handle| ObjectNode {
                handle,
                kind: heap.get(handle).map_or("freed", object_kind),
                marked: heap.is_marked(handle),
            })
            .collect();
        WaitForGraph { program: Arc::clone(vm.shared_program()), goroutines, edges, objects }
    }
}

/// Writes a string with the characters DOT's quoted strings treat
/// specially (`"` and `\`) escaped.
struct DotEscaped<'a>(&'a str);

impl fmt::Display for DotEscaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(['"', '\\']) {
            write!(f, "{}\\{}", &rest[..i], &rest[i..=i])?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
}

impl fmt::Display for WaitForGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("digraph wait_for {\n  rankdir=LR;\n")?;
        for g in &self.goroutines {
            let (id, reason) = (g.gid, g.reason);
            let color = if g.deadlocked { "red" } else { "black" };
            write!(f, "  \"{id}\" [shape=ellipse, color={color}, label=\"{id}\\n{reason}\\n")?;
            match g.top {
                Some((func, pc)) => {
                    write!(f, "{}:{pc}", DotEscaped(&self.program.func(func).name))?
                }
                None => f.write_str("<no frames>")?,
            }
            f.write_str("\"];\n")?;
        }
        for &ObjectNode { handle: h, kind, marked } in &self.objects {
            let (style, mark) = if marked { ("solid", "marked") } else { ("dashed", "unmarked") };
            writeln!(f, "  \"{h}\" [shape=box, style={style}, label=\"{h}\\n{kind}\\n{mark}\"];")?;
        }
        for g in &self.goroutines {
            for h in &self.edges[g.edges.clone()] {
                writeln!(f, "  \"{}\" -> \"{h}\";", g.gid)?;
            }
        }
        f.write_str("}\n")
    }
}

impl fmt::Debug for WaitForGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl PartialEq for WaitForGraph {
    fn eq(&self, other: &Self) -> bool {
        self.to_string() == other.to_string()
    }
}

impl Eq for WaitForGraph {}
