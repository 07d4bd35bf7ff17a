//! Integration tests for the structured tracer: span collection under
//! concurrency and the well-formedness of the Chrome trace export.
//!
//! The trace buffers are process-global, so every test here serializes
//! through one static lock and clears the buffers before asserting.

use dm_obs::json;
use dm_obs::trace::{self, EventKind, Span, TraceEvent};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    dm_obs::lock(&LOCK)
}

/// Spawn `threads` workers, each opening `depth` nested spans under an
/// explicitly propagated root handle, and return the drained events.
fn run_concurrent_spans(threads: usize, depth: usize) -> (trace::SpanHandle, Vec<TraceEvent>) {
    trace::set_enabled(true);
    trace::clear();
    let root = Span::enter("root", "test");
    let root_h = root.handle().expect("tracing enabled");
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut task = Span::child_of(Some(root_h), "task", "test");
                task.arg("worker", t.to_string());
                for d in 0..depth {
                    let _inner = Span::enter(format!("level{d}"), "test");
                }
            });
        }
    });
    drop(root);
    trace::set_enabled(false);
    (root_h, trace::take_events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Spans emitted from N concurrent threads serialize into one buffer
    /// with valid parent links (every non-root parent id is a collected
    /// span of the same trace) and coherent timing.
    #[test]
    fn concurrent_spans_serialize_with_valid_links(
        threads in 1usize..6,
        depth in 0usize..4,
    ) {
        let _guard = lock();
        let (root_h, events) = run_concurrent_spans(threads, depth);
        let ours: Vec<&TraceEvent> =
            events.iter().filter(|e| e.trace == root_h.trace).collect();
        // One root + per thread: one task + `depth` nested levels.
        prop_assert_eq!(ours.len(), 1 + threads * (1 + depth));

        let span_ids: std::collections::HashSet<u64> =
            ours.iter().map(|e| e.span).collect();
        prop_assert_eq!(span_ids.len(), ours.len(), "span ids unique");
        for e in &ours {
            // Parent links resolve within the trace; only the root is
            // parentless.
            if e.span == root_h.span {
                prop_assert_eq!(e.parent, 0, "root has no parent");
            } else {
                prop_assert!(span_ids.contains(&e.parent), "parent collected");
            }
            // Durations are non-negative by construction (u64) and the
            // open/close sequence numbers are ordered.
            match e.kind {
                EventKind::Span { seq_open, seq_close, .. } => {
                    prop_assert!(seq_open < seq_close);
                }
                EventKind::Instant { .. } => prop_assert!(false, "no instants emitted"),
            }
        }
        // Every task span links directly to the cross-thread root handle.
        let tasks = ours.iter().filter(|e| e.name == "task").count();
        let linked = ours
            .iter()
            .filter(|e| e.name == "task" && e.parent == root_h.span)
            .count();
        prop_assert_eq!(tasks, threads);
        prop_assert_eq!(linked, threads);
    }
}

/// Walk a Chrome trace JSON document: every `ph` is B/E/X/i, and per tid the
/// B/E events form a strictly nested (balanced, never-negative) bracket
/// sequence.
fn assert_chrome_trace_well_formed(doc: &str) {
    let v = json::parse(doc).expect("chrome trace parses as JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    let mut depth: std::collections::HashMap<i64, Vec<String>> = std::collections::HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph present");
        assert!(matches!(ph, "B" | "E" | "X" | "i"), "unexpected phase {ph:?} in {doc}");
        let tid = ev.get("tid").and_then(|t| t.as_f64()).expect("tid present") as i64;
        assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some(), "numeric ts");
        match ph {
            "B" => {
                let name = ev.get("name").and_then(|n| n.as_str()).unwrap().to_owned();
                depth.entry(tid).or_default().push(name);
            }
            "E" => {
                let open = depth.entry(tid).or_default().pop();
                let name = ev.get("name").and_then(|n| n.as_str()).unwrap();
                assert_eq!(open.as_deref(), Some(name), "E matches innermost open B");
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(|s| s.as_str()), Some("t"), "instant scope");
            }
            _ => {}
        }
    }
    for (tid, open) in depth {
        assert!(open.is_empty(), "unclosed spans on tid {tid}: {open:?}");
    }
}

#[test]
fn chrome_export_is_well_formed_and_strictly_nested() {
    let _guard = lock();
    trace::set_enabled(true);
    trace::clear();
    {
        let outer = Span::enter("outer", "test");
        let outer_h = outer.handle();
        {
            let mut mid = Span::enter("mid", "test");
            mid.arg("k", "v with \"quotes\" and \\ backslash");
            trace::instant("tick", &[("n", "1".into())]);
            let _leaf = Span::enter("leaf", "test");
        }
        // A cross-thread child closes after sibling spans opened later on
        // the main thread — per-tid nesting must still hold.
        std::thread::scope(|s| {
            s.spawn(move || {
                let _task = Span::child_of(outer_h, "task", "test");
            });
        });
    }
    trace::set_enabled(false);
    let events = trace::take_events();
    let doc = trace::chrome_trace(&events);
    assert_chrome_trace_well_formed(&doc);
    // Golden structural facts: 4 spans -> 4 B + 4 E, one instant.
    let v = json::parse(&doc).unwrap();
    let arr = v.get("traceEvents").unwrap().as_arr().unwrap();
    let count =
        |ph: &str| arr.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph)).count();
    assert_eq!(count("B"), 4, "{doc}");
    assert_eq!(count("E"), 4, "{doc}");
    assert_eq!(count("i"), 1, "{doc}");
    // Args carry the ids and the escaped user value round-trips.
    let mid = arr
        .iter()
        .find(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("mid")
                && e.get("ph").and_then(|p| p.as_str()) == Some("B")
        })
        .expect("mid begin event");
    let args = mid.get("args").unwrap();
    assert!(args.get("trace").and_then(|t| t.as_f64()).is_some());
    assert_eq!(args.get("k").and_then(|k| k.as_str()), Some("v with \"quotes\" and \\ backslash"));
}

#[test]
fn export_of_concurrent_run_stays_nested_per_thread() {
    let _guard = lock();
    let (_, events) = run_concurrent_spans(4, 3);
    assert_chrome_trace_well_formed(&trace::chrome_trace(&events));
}
