//! Spans recorded by the benchmark around each call into a layer's
//! public function.
//!
//! The repetition drivers in `reps.rs` are generic over [`Tracer`]:
//! with [`NoTrace`] every hook is an empty inline function, so the
//! end-to-end numbers are measured by code with no span in it; with
//! [`Recorder`] each hook reads the clock once and the spans stay in
//! memory until the run writes them out.

use aion_types::Stopwatch;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One closed interval of work attributed to a layer (or to the
/// harness, for the spans that only group others).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, [`NO_PARENT`] for a
    /// root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Hooks a repetition driver calls at layer boundaries.
pub trait Tracer {
    /// False for the tracer that records nothing, so drivers can skip
    /// work that only feeds the trace.
    const ON: bool;
    /// Open a span under the innermost open one.
    fn enter(&mut self, name: &'static str);
    /// Close the innermost open span.
    fn exit(&mut self);
    /// Close the innermost open span and open a sibling at the same
    /// instant: one clock read for a boundary two layers share.
    fn split(&mut self, name: &'static str);
    /// Rename the span closed last (used when only the callee's result
    /// tells which layer the call exercised, e.g. a feed that ran a GC
    /// pass).
    fn retag_last(&mut self, name: &'static str);
}

/// The tracer of the untraced repetitions.
pub struct NoTrace;

impl Tracer for NoTrace {
    const ON: bool = false;
    #[inline(always)]
    fn enter(&mut self, _: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn split(&mut self, _: &'static str) {}
    #[inline(always)]
    fn retag_last(&mut self, _: &'static str) {}
}

/// In-memory span store of one traced repetition.
pub struct Recorder {
    clock: Stopwatch,
    /// Repetition every span here belongs to.
    pub rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_closed: Option<u32>,
}

impl Recorder {
    /// A recorder for repetition `rep` with room for `capacity` spans,
    /// so recording never reallocates inside a timed region.
    pub fn new(rep: u32, capacity: usize) -> Recorder {
        Recorder {
            clock: Stopwatch::start(),
            rep,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            last_closed: None,
        }
    }

    /// A recorder sized for a repetition over `txns` transactions: two
    /// spans each (tick, feed), one per dispatch batch, a handful more.
    pub fn for_txns(rep: u32, txns: usize) -> Recorder {
        Recorder::new(rep, 2 * txns + txns / 100 + 64)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn open_at(&mut self, name: &'static str, now: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, parent, start_ns: now, end_ns: now });
    }

    fn close_at(&mut self, now: u64) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx as usize].end_ns = now;
            self.last_closed = Some(idx);
        }
    }
}

impl Tracer for Recorder {
    const ON: bool = true;

    fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.open_at(name, now);
    }

    fn exit(&mut self) {
        let now = self.now_ns();
        self.close_at(now);
    }

    fn split(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.close_at(now);
        self.open_at(name, now);
    }

    fn retag_last(&mut self, name: &'static str) {
        if let Some(idx) = self.last_closed {
            self.spans[idx as usize].name = name;
        }
    }
}

/// Run `f` inside a span.
pub fn in_span<T: Tracer, R>(t: &mut T, name: &'static str, f: impl FnOnce() -> R) -> R {
    t.enter(name);
    let out = f();
    t.exit();
    out
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' self times: each span's duration minus the
    /// part of its interval its direct children cover.
    pub self_ns: u64,
}

/// Aggregate `spans` by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
}

/// Render a trace file: a name table plus one
/// `[index, parent, name, rep, start_ns, end_ns]` row per span (`-1`
/// parent for roots). See the README for how to read it.
pub fn render_trace(workload: &str, seed: u64, rec: &Recorder) -> String {
    let (spans, rep) = (rec.spans(), rec.rep);
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::with_capacity(64 + spans.len() * 40);
    out.push_str(&format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\n"));
    out.push_str("\"columns\":[\"index\",\"parent\",\"name\",\"rep\",\"start_ns\",\"end_ns\"],\n");
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    out.push_str(&format!("\"names\":[{}],\n\"spans\":[\n", quoted.join(",")));
    for (i, s) in spans.iter().enumerate() {
        let name = names.binary_search(&s.name).unwrap_or(0);
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        out.push_str(&format!("[{i},{parent},{name},{rep},{},{}]{sep}\n", s.start_ns, s.end_ns));
    }
    out.push_str("]}\n");
    out
}

/// Write the trace of `workload` under `dir`.
pub fn write_trace(dir: &Path, workload: &str, seed: u64, rec: &Recorder) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::File::create(dir.join(format!("trace-{workload}.json")))?;
    f.write_all(render_trace(workload, seed, rec).as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100) > batch [10,90) > feed [20,50), feed [50,70)
        let spans = vec![
            span("rep", NO_PARENT, 0, 100),
            span("batch", 0, 10, 90),
            span("feed", 1, 20, 50),
            span("feed", 1, 50, 70),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["rep"], NameTotals { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["batch"], NameTotals { count: 1, total_ns: 80, self_ns: 30 });
        assert_eq!(t["feed"], NameTotals { count: 2, total_ns: 50, self_ns: 50 });
        // Self times partition the root interval.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn child_sticking_out_of_its_parent_is_clipped() {
        let spans = vec![span("p", NO_PARENT, 10, 20), span("c", 0, 15, 30)];
        assert_eq!(totals_by_name(&spans)["p"].self_ns, 5);
    }

    #[test]
    fn recorder_nests_splits_and_retags() {
        let mut r = Recorder::new(3, 4);
        r.enter("outer");
        r.enter("tick");
        r.split("feed");
        r.exit();
        r.retag_last("feed.gc");
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", NO_PARENT));
        assert_eq!((s[1].name, s[1].parent), ("tick", 0));
        assert_eq!((s[2].name, s[2].parent), ("feed.gc", 0));
        // A split is one instant: the siblings share the boundary.
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(durations_of(s, "feed.gc").len(), 1);
    }

    #[test]
    fn trace_file_rows_index_the_name_table() {
        let mut rec = Recorder::new(0, 2);
        rec.spans = vec![span("rep", NO_PARENT, 0, 9), span("a.feed", 0, 1, 5)];
        let text = render_trace("single-si", 42, &rec);
        assert!(text.contains("\"workload\":\"single-si\",\"seed\":42"));
        assert!(text.contains("\"names\":[\"a.feed\",\"rep\"]"));
        assert!(text.contains("[0,-1,1,0,0,9],\n[1,0,0,0,1,5]\n]}"));
    }
}
