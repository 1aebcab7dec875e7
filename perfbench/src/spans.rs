//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans are kept in memory and written out once the run ends.
//!
//! A leaf span (a call into a layer with no spans of its own) may stand for
//! several back-to-back calls: `calls` counts them. The driver records each
//! run of consecutive `Vm::step_tick` calls this way.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span: a call (or a run of back-to-back leaf calls) into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `"runtime.step_tick"`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// Calls the span covers.
    pub calls: u64,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Calls, counting every call of a multi-call leaf.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span log of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl SpanLog {
    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a parent span; close it with [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.ns_since_origin(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, start_ns, dur_ns: 0, calls: 1 });
        self.open.push((self.spans.len() - 1) as u32);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("span exit without a matching enter") as usize;
        let end_ns = self.ns_since_origin(Instant::now());
        self.spans[idx].dur_ns = end_ns - self.spans[idx].start_ns;
    }

    /// Records `calls` back-to-back leaf calls that ran from `start` to
    /// `end`.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, calls: u64) {
        let parent = self.open.last().copied();
        let start_ns = self.ns_since_origin(start);
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        self.spans.push(Span { name, parent, start_ns, dur_ns, calls });
    }

    /// The recorded spans, parents before their children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time (duration minus child coverage).
    /// Children of one parent never overlap, so their durations add up.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += s.calls;
            t.total_ns += s.dur_ns;
            t.self_ns += s.dur_ns.saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines: `{"id", "parent", "name", "start_ns",
    /// "dur_ns", "calls"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.dur_ns, s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::default();
        log.enter("round");
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_nanos(150);
        log.leaf("tick", t0, t1, 2);
        log.leaf("collect", t1, t1 + Duration::from_nanos(30), 1);
        log.leaf("tick", t1, t1 + Duration::from_nanos(20), 1);
        log.exit();
        let totals = log.totals();
        assert_eq!(totals["tick"], SpanTotals { calls: 3, total_ns: 170, self_ns: 170 });
        assert_eq!(totals["collect"].calls, 1);
        let round = totals["round"];
        assert_eq!(round.self_ns, round.total_ns.saturating_sub(200));
        assert_eq!(log.spans()[1].parent, Some(0));
        assert_eq!(log.to_jsonl().lines().count(), 4);
    }
}
