//! The tricolor marker: worklist-based transitive marking over the heap.
//!
//! This is the collector's only marker. Every phase that blackens objects
//! goes through it: the mark iterations of all three §5.3 root-expansion
//! strategies, the re-mark of hinted-inert roots, and the preservation of
//! deadlocked subgraphs. [`Marker::step`] blackens one object at a time, so
//! each strategy observes the objects it needs as they are marked: `Rescan`
//! just drains, `FromMarked` collects the handles each iteration blackens,
//! and `Incremental` enqueues waiters the moment their object turns black.

use golf_heap::{Handle, Heap, Trace};

/// A marking worklist with work accounting.
///
/// Gray objects live on the worklist; [`Marker::step`] blackens one of
/// them, pushing its white children. The counters feed the paper's claim
/// that GOLF performs *the same aggregate marking work* as the baseline
/// (§5.2): the number of pointer traversals is identical, only partitioned
/// across more iterations.
#[derive(Debug, Default)]
pub struct Marker {
    work: Vec<Handle>,
    /// Objects blackened since the last [`Marker::reset`].
    pub marked: u64,
    /// Pointer traversals since the last [`Marker::reset`]: edges followed
    /// out of objects as they were blackened. Each object is traced exactly
    /// once, so this count is a pure property of the reachable graph,
    /// independent of root order and of the expansion strategy.
    pub traversals: u64,
}

impl Marker {
    /// An empty marker.
    pub fn new() -> Self {
        Marker::default()
    }

    /// Empties the worklist and zeroes the counters, keeping the worklist's
    /// allocation for the next cycle.
    pub fn reset(&mut self) {
        self.work.clear();
        self.marked = 0;
        self.traversals = 0;
    }

    /// Adds a root. Masked handles are accepted but will be ignored by
    /// marking, reproducing GOLF's address obfuscation.
    pub fn push_root(&mut self, h: Handle) {
        self.work.push(h);
    }

    /// Blackens the next gray object and returns it, or `None` once the
    /// worklist is empty.
    ///
    /// Worklist entries that turn out to be already marked, masked or stale
    /// are skipped. Children already marked (or masked) are skipped
    /// *before* being pushed, so the worklist sees each object at most once
    /// per parent that found it white.
    pub fn step<O: Trace, F>(&mut self, heap: &mut Heap<O, F>) -> Option<Handle> {
        while let Some(h) = self.work.pop() {
            if !heap.try_mark(h) {
                continue; // already marked, masked, or stale
            }
            self.marked += 1;
            let heap = &*heap;
            if let Some(obj) = heap.get(h) {
                let (work, traversals) = (&mut self.work, &mut self.traversals);
                obj.trace(&mut |child| {
                    *traversals += 1;
                    if !child.is_masked() && !heap.is_marked(child) {
                        work.push(child);
                    }
                });
            }
            return Some(h);
        }
        None
    }

    /// Blackens everything reachable from the current worklist. Returns how
    /// many objects were newly marked by this drain.
    pub fn drain<O: Trace, F>(&mut self, heap: &mut Heap<O, F>) -> u64 {
        let before = self.marked;
        while self.step(heap).is_some() {}
        self.marked - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use golf_runtime::{Finalizer, Object, Value};

    fn cell(heap: &mut Heap<Object, Finalizer>, v: Value) -> Handle {
        heap.alloc(Object::Cell(v))
    }

    #[test]
    fn drains_transitively() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(a));
        let c = cell(&mut heap, Value::Ref(b));
        let _unreachable = cell(&mut heap, Value::Nil);

        let mut m = Marker::new();
        m.push_root(c);
        let newly = m.drain(&mut heap);
        assert_eq!(newly, 3);
        assert!(heap.is_marked(a) && heap.is_marked(b) && heap.is_marked(c));
        assert_eq!(heap.marked_count(), 3);
    }

    #[test]
    fn masked_roots_are_ignored() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let mut m = Marker::new();
        m.push_root(a.masked());
        assert_eq!(m.step(&mut heap), None);
        assert_eq!(m.drain(&mut heap), 0);
        assert!(!heap.is_marked(a));
        m.push_root(a);
        assert_eq!(m.drain(&mut heap), 1, "the unmasked handle still marks");
    }

    #[test]
    fn cycles_terminate() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(a));
        // close the cycle
        if let Some(Object::Cell(slot)) = heap.get_mut(a) {
            *slot = Value::Ref(b);
        }
        let mut m = Marker::new();
        m.push_root(a);
        assert_eq!(m.drain(&mut heap), 2);
        assert_eq!(m.traversals, 2, "each cycle edge followed once");
    }

    #[test]
    fn incremental_drains_accumulate() {
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Nil);
        let mut m = Marker::new();
        m.push_root(a);
        assert_eq!(m.drain(&mut heap), 1);
        m.push_root(b);
        assert_eq!(m.drain(&mut heap), 1);
        assert_eq!(m.marked, 2);
        assert_eq!(m.traversals, 0, "isolated cells have no outgoing edges");
        m.reset();
        assert_eq!((m.marked, m.traversals), (0, 0));
        m.push_root(a);
        assert_eq!(m.drain(&mut heap), 0, "marks live in the heap, not the marker");
    }

    #[test]
    fn step_blackens_one_object_at_a_time() {
        // c -> b -> a: each step returns the object it just blackened, in
        // worklist (depth-first) order, then `None` once the graph is done.
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let a = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(a));
        let c = cell(&mut heap, Value::Ref(b));
        let mut m = Marker::new();
        m.push_root(c);
        assert_eq!(m.step(&mut heap), Some(c));
        assert!(heap.is_marked(c) && !heap.is_marked(b), "children stay gray");
        assert_eq!((m.marked, m.traversals), (1, 1));
        assert_eq!(m.step(&mut heap), Some(b));
        assert_eq!(m.step(&mut heap), Some(a));
        assert_eq!(m.step(&mut heap), None);
        assert_eq!((m.marked, m.traversals), (3, 2));
        // A root pushed after the worklist emptied is picked up by the next
        // step; already-marked roots are skipped without being returned.
        m.push_root(b);
        assert_eq!(m.step(&mut heap), None);
        assert_eq!(m.marked, 3);
    }

    #[test]
    fn empty_channels_have_no_outgoing_edges() {
        // An unbuffered channel with empty wait queues holds no references:
        // blackening it follows no edge. The `expansion_costs` daisy chain
        // marks such channels straight from the link goroutines' stacks,
        // which are roots, so it reports 0 traversals for every size.
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let ch = heap.alloc(Object::chan(0));
        let mut m = Marker::new();
        m.push_root(ch);
        assert_eq!(m.drain(&mut heap), 1);
        assert_eq!(m.traversals, 0, "an empty channel contributes no traversal");
        // A buffered reference is an edge out of the channel.
        let v = cell(&mut heap, Value::Nil);
        let full = heap.alloc(Object::chan(1));
        heap.get_mut(full).and_then(Object::as_chan_mut).unwrap().buf.push_back(Value::Ref(v));
        m.push_root(full);
        assert_eq!(m.drain(&mut heap), 2);
        assert_eq!(m.traversals, 1);
    }

    #[test]
    fn shared_children_are_not_repushed() {
        // Diamond: a -> {b, c}, b -> d, c -> d. The second parent of `d`
        // must observe the mark before pushing, so the worklist sees `d`
        // once and `traversals` counts the graph's 4 edges exactly.
        let mut heap: Heap<Object, Finalizer> = Heap::new();
        let d = cell(&mut heap, Value::Nil);
        let b = cell(&mut heap, Value::Ref(d));
        let c = cell(&mut heap, Value::Ref(d));
        let a = heap.alloc(Object::Slice(vec![Value::Ref(b), Value::Ref(c)].into()));
        let mut m = Marker::new();
        m.push_root(a);
        let mut order = Vec::new();
        while let Some(h) = m.step(&mut heap) {
            order.push(h);
        }
        assert_eq!(order.len(), 4, "every object returned exactly once");
        assert_eq!(order[0], a);
        assert_eq!(m.traversals, 4, "edges followed once each, no re-push traffic");
    }
}
