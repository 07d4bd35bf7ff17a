//! The traced pass's span recorder: name, start, end, parent, op id, kept in
//! memory and written out when the run ends. Deliberately independent of
//! `dm_obs::trace` (which a later issue refactors): these spans are taken
//! from the benchmark's side of each layer's public functions.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    parent: u32,
    /// The op this span belongs to: spans of one request share it.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` inside a span; spans `f` opens through the recorder it is
    /// handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op: self.op });
        self.open.push(idx);
        // Clock reads are the last thing before and the first thing after
        // `f`, so the bookkeeping above lands in the parent's self time.
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.t0.elapsed().as_nanos() as u64;
        self.open.pop();
        let s = &mut self.spans[idx as usize];
        (s.start_ns, s.end_ns) = (start, end);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children never overlap (one thread, strictly nested), so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] = own[s.parent as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per span name: the median over ops of (total duration, self time) in
/// microseconds, and how many spans carried the name.
pub struct Folded {
    pub total_us: f64,
    pub self_us: f64,
    pub count: usize,
}

pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.dur_ns() as f64 / 1e3);
        e.1.push(own_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (mut total, mut own))| {
            let f = Folded {
                total_us: median(&mut total),
                self_us: median(&mut own),
                count: total.len(),
            };
            (name, f)
        })
        .collect()
}

/// Write the spans of ops below `max_ops` as a Chrome trace (`chrome://tracing`,
/// Perfetto): one complete event per span.
pub fn write_chrome_trace(w: &mut impl Write, spans: &[Span], max_ops: u32) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for s in spans.iter().filter(|s| s.op < max_ops) {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        )?;
    }
    writeln!(w, "\n]}}")
}

/// Write the first ops' spans to `<out_dir>/trace_<workload>.json`; the
/// returned line says where they went, or why they did not.
pub fn write_trace_file(out_dir: &Path, workload: &str, spans: &[Span], max_ops: u32) -> String {
    let path = out_dir.join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .map(io::BufWriter::new)
        .and_then(|mut w| {
            write_chrome_trace(&mut w, spans, max_ops)?;
            w.flush()
        });
    match written {
        Ok(()) => format!("trace of the first {max_ops} ops: {}", path.display()),
        Err(e) => format!("trace not written to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100 has two adjacent children a 10..40 and b 40..70;
        // a has a nested child c 15..25.
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("c", 15, 25, 1),
            span("b", 40, 70, 0),
        ];
        // root: 100 - 30 - 30 (the grandchild is already inside a);
        // a: 30 - 10; leaves keep their whole duration.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        rec.set_op(3);
        rec.span("outer", |rec| {
            rec.span("first", |_| ());
            rec.span("second", |rec| rec.span("inner", |_| ()));
        });
        rec.span("sibling", |_| ());
        let s = rec.spans();
        let parents: Vec<u32> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, 2, NO_PARENT]);
        assert!(s.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        // A child lies inside its parent; adjacent children do not overlap.
        assert!(s[1].start_ns >= s[0].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(s[1].end_ns <= s[2].start_ns);
        let own = self_times(s);
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns() - s[2].dur_ns());
    }

    #[test]
    fn fold_takes_medians_per_name() {
        let spans = [
            span("k", 0, 1_000, NO_PARENT),
            span("k", 0, 3_000, NO_PARENT),
            span("k", 0, 8_000, NO_PARENT),
        ];
        let f = fold(&spans);
        assert_eq!(f["k"].total_us, 3.0);
        assert_eq!(f["k"].count, 3);
    }

    #[test]
    fn chrome_trace_keeps_only_the_first_ops() {
        let mut spans = vec![span("x", 1_000, 2_500, NO_PARENT), span("y", 0, 1, NO_PARENT)];
        spans[1].op = 5;
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &spans, 5).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"name\":\"x\"") && text.contains("\"ts\":1.000"), "{text}");
        assert!(text.contains("\"dur\":1.500") && !text.contains("\"name\":\"y\""), "{text}");
    }
}
