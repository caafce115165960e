//! Span tracing from outside the program under test.
//!
//! The benchmark's own files put a span around each call into a layer's
//! public function. An operation (one sighting, one frame, one query, or one
//! batch of identical layer calls) is a root span with an `op_id`; the layer
//! calls made for it are its children. Totals and per-call samples are kept
//! for every span; the first [`KEPT_SPANS`] spans are kept in full and
//! written out when the run ends. A disabled tracer (the untraced run) costs
//! one predictable branch per call site and reads no clock.
//!
//! One process traces several phases, and two phases may wrap the same layer
//! call (each with its own fleet): totals are kept per *scope* — the phase
//! running when the span closed — and written out as `scope/name`.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept in full per run; totals keep counting past this.
pub const KEPT_SPANS: usize = 100_000;

/// Per-name cap on per-call samples; past it every other sample is dropped
/// and the sampling stride doubles, so the kept set always spans the run.
const MAX_SAMPLES: usize = 1 << 15;

/// One finished span, times in ns since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Layer calls this span wraps (1, or the batch size).
    pub calls: u32,
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

const DISABLED: Open = Open(u32::MAX);

#[derive(Debug)]
struct Frame {
    id: u32,
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    children: u32,
}

#[derive(Debug, Default)]
struct NameStats {
    spans: u64,
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    /// ns per call of each span, span cost already removed.
    per_call_ns: Vec<f32>,
    stride: u32,
    skipped: u32,
}

/// See the module docs.
#[derive(Debug)]
pub struct Tracer {
    /// Built by [`Tracer::enabled`]; a tracer built disabled never records.
    capable: bool,
    enabled: bool,
    origin: Instant,
    stack: Vec<Frame>,
    kept: Vec<Span>,
    /// Totals by span name, one map per scope.
    scopes: Vec<(&'static str, BTreeMap<&'static str, NameStats>)>,
    scope: usize,
    next_id: u32,
    op: u32,
    span_cost_ns: f64,
}

/// `duration − children − span cost`: the time a span spent in its own code.
/// Each child's bookkeeping happens inside the parent's interval, so one
/// calibrated span cost per child is removed too; never negative.
pub fn self_time_ns(duration_ns: u64, children_ns: u64, children: u32, span_cost_ns: f64) -> f64 {
    (duration_ns as f64 - children_ns as f64 - f64::from(children) * span_cost_ns).max(0.0)
}

impl Tracer {
    /// A tracer for the untraced run: every call is a no-op.
    pub fn disabled() -> Tracer {
        Tracer::build(false, 0.0)
    }

    /// A recording tracer; calibrates the cost of one empty span first.
    pub fn enabled() -> Tracer {
        let mut probe = Tracer::build(true, 0.0);
        let mut costs = Vec::with_capacity(64);
        for _ in 0..64 {
            let started = Instant::now();
            for _ in 0..256 {
                let s = probe.begin("calibrate");
                probe.end(s, 1);
            }
            costs.push(started.elapsed().as_nanos() as f64 / 256.0);
        }
        Tracer::build(true, stats::median(&costs).unwrap_or(0.0))
    }

    fn build(enabled: bool, span_cost_ns: f64) -> Tracer {
        Tracer {
            capable: enabled,
            enabled,
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            kept: Vec::new(),
            scopes: vec![("", BTreeMap::new())],
            scope: 0,
            next_id: 0,
            op: 0,
            span_cost_ns,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Calibrated cost of one begin/end pair, ns.
    pub fn span_cost_ns(&self) -> f64 {
        self.span_cost_ns
    }

    /// Switches recording on or off between operations (the traced run
    /// alternates traced and untraced rounds to measure its own overhead).
    /// A tracer built disabled stays disabled.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between operations");
        self.enabled = on && self.capable;
    }

    /// Makes `scope` (a phase name) the one later spans are totalled under
    /// and [`Tracer::median_ns`] reads from.
    pub fn set_scope(&mut self, scope: &'static str) {
        debug_assert!(self.stack.is_empty(), "change scope only between operations");
        self.scope = match self.scopes.iter().position(|(name, _)| *name == scope) {
            Some(i) => i,
            None => {
                self.scopes.push((scope, BTreeMap::new()));
                self.scopes.len() - 1
            }
        };
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. A span opened with an empty stack is a root and starts
    /// a new operation.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return DISABLED;
        }
        if self.stack.is_empty() {
            self.op = self.op.wrapping_add(1);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = self.now_ns();
        self.stack.push(Frame { id, name, start_ns, children_ns: 0, children: 0 });
        Open(id)
    }

    /// Closes the innermost open span, which must be `open`. `calls` is the
    /// number of layer calls the span wrapped.
    #[inline]
    pub fn end(&mut self, open: Open, calls: u32) {
        if open.0 == DISABLED.0 {
            return;
        }
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("end without begin");
        assert_eq!(frame.id, open.0, "spans must close innermost first");
        let duration = end_ns - frame.start_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children_ns += duration;
                p.children += 1;
                p.id
            }
            None => u32::MAX,
        };
        let cost = self.span_cost_ns;
        let stats = self.scopes[self.scope].1.entry(frame.name).or_default();
        stats.spans += 1;
        stats.calls += u64::from(calls);
        stats.total_ns += duration;
        stats.self_ns += self_time_ns(duration, frame.children_ns, frame.children, cost) as u64;
        stats.sample(((duration as f64 - cost).max(0.0) / f64::from(calls.max(1))) as f32);
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                id: frame.id,
                parent,
                op: self.op,
                name: frame.name,
                start_ns: frame.start_ns,
                end_ns,
                calls,
            });
        }
    }

    /// Median ns per call over every span of `name` in the current scope
    /// (span cost removed).
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let stats = self.scopes[self.scope].1.get(name)?;
        let v: Vec<f64> = stats.per_call_ns.iter().map(|&x| f64::from(x)).collect();
        stats::median(&v)
    }

    /// Median ns per call over the spans of all `names` together.
    pub fn median_ns_of(&self, names: &[&str]) -> Option<f64> {
        let v: Vec<f64> = names
            .iter()
            .filter_map(|n| self.scopes[self.scope].1.get(n))
            .flat_map(|s| s.per_call_ns.iter().map(|&x| f64::from(x)))
            .collect();
        stats::median(&v)
    }

    /// Layer calls wrapped by every span of `name`.
    #[cfg(test)]
    pub fn calls(&self, name: &str) -> u64 {
        self.scopes[self.scope].1.get(name).map_or(0, |s| s.calls)
    }

    #[cfg(test)]
    pub fn kept_spans(&self) -> &[Span] {
        &self.kept
    }

    /// The trace as one JSON document: calibrated span cost, per-name totals
    /// (all spans), and the first [`KEPT_SPANS`] spans in full.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 * self.kept.len() + 4096);
        let _ = write!(
            out,
            "{{\"schema\":\"mbdr-benchmark-trace/1\",\"workload\":\"{workload}\",\
             \"span_cost_ns\":{:.1},\"spans_total\":{},\"spans_kept\":{},\"totals\":[",
            self.span_cost_ns,
            self.scopes.iter().flat_map(|(_, names)| names.values()).map(|s| s.spans).sum::<u64>(),
            self.kept.len()
        );
        let mut first = true;
        for (scope, names) in &self.scopes {
            for (name, s) in names {
                let v: Vec<f64> = s.per_call_ns.iter().map(|&x| f64::from(x)).collect();
                let _ = write!(
                    out,
                    "{}{{\"name\":\"{scope}/{name}\",\"spans\":{},\"calls\":{},\"total_ns\":{},\
                     \"self_ns\":{},\"median_ns_per_call\":{:.1}}}",
                    if first { "" } else { "," },
                    s.spans,
                    s.calls,
                    s.total_ns,
                    s.self_ns,
                    stats::median(&v).unwrap_or(0.0)
                );
                first = false;
            }
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.kept.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"calls\":{}}}",
                if i == 0 { "" } else { "," },
                s.id,
                if s.parent == u32::MAX { -1 } else { i64::from(s.parent) },
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                s.calls
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl NameStats {
    fn sample(&mut self, per_call_ns: f32) {
        if self.skipped < self.stride {
            self.skipped += 1;
            return;
        }
        self.skipped = 0;
        if self.per_call_ns.len() == MAX_SAMPLES {
            let mut keep = false;
            self.per_call_ns.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride = self.stride * 2 + 1;
        }
        self.per_call_ns.push(per_call_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_minus_their_span_cost() {
        assert_eq!(self_time_ns(1_000, 600, 2, 50.0), 300.0);
        assert_eq!(self_time_ns(1_000, 0, 0, 50.0), 1_000.0);
        // Clock granularity can make children appear to outlast the parent.
        assert_eq!(self_time_ns(100, 90, 1, 50.0), 0.0);
    }

    #[test]
    fn nesting_links_children_to_parents_and_roots_start_operations() {
        let mut t = Tracer::enabled();
        assert!(t.span_cost_ns() > 0.0);
        for _ in 0..2 {
            let root = t.begin("op");
            let a = t.begin("layer.a");
            t.end(a, 1);
            let b = t.begin("layer.b");
            t.end(b, 4);
            t.end(root, 1);
        }
        let spans = t.kept_spans();
        assert_eq!(spans.len(), 6);
        // Children close (and are recorded) before their root.
        let root0 = spans[2];
        assert_eq!(root0.name, "op");
        assert_eq!(root0.parent, u32::MAX);
        assert_eq!(spans[0].parent, root0.id);
        assert_eq!(spans[1].parent, root0.id);
        assert_eq!(spans[0].op, root0.op);
        assert_ne!(spans[5].op, root0.op, "second root is a new operation");
        assert!(spans[0].start_ns >= root0.start_ns && spans[1].end_ns <= root0.end_ns);
        assert_eq!(t.calls("layer.b"), 8);
        assert_eq!(t.calls("op"), 2);
        let json = t.to_json("w");
        assert!(json.contains("\"spans_kept\":6") && json.contains("\"name\":\"/layer.a\""));
    }

    #[test]
    fn scopes_keep_the_same_span_name_apart() {
        let mut t = Tracer::enabled();
        t.set_scope("a");
        let s = t.begin("layer.x");
        t.end(s, 10);
        t.set_scope("b");
        assert_eq!(t.calls("layer.x"), 0);
        let s = t.begin("layer.x");
        t.end(s, 3);
        assert_eq!(t.calls("layer.x"), 3);
        t.set_scope("a");
        assert_eq!(t.calls("layer.x"), 10);
        let json = t.to_json("w");
        assert!(json.contains("\"name\":\"a/layer.x\"") && json.contains("\"name\":\"b/layer.x\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let s = t.begin("op");
        t.end(s, 1);
        t.set_recording(true);
        let s = t.begin("op");
        t.end(s, 1);
        assert!(t.kept_spans().is_empty());
        assert_eq!(t.median_ns("op"), None);
    }

    #[test]
    fn sample_store_is_bounded_and_still_spans_the_run() {
        let mut s = NameStats::default();
        for i in 0..(MAX_SAMPLES * 5) {
            s.sample(i as f32);
        }
        assert!(s.per_call_ns.len() <= MAX_SAMPLES);
        let last = *s.per_call_ns.last().unwrap();
        assert!(last > (MAX_SAMPLES * 4) as f32, "late samples are still admitted");
        assert!(s.per_call_ns[0] < 8.0, "early samples survive decimation");
    }
}
