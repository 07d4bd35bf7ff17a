//! Search tracing: wrap a trainer closure so every configuration evaluation
//! is timed, then render a search-trace report or feed the timings into the
//! workspace stats registry.

use crate::search::Params;
use dm_obs::{elapsed_ns, fmt_ns, lock, StatsRegistry};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed trainer invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Configuration evaluated.
    pub params: Params,
    /// Budget the trainer was given.
    pub budget: f64,
    /// Returned validation score.
    pub score: f64,
    /// Wall time of the fit/score call.
    pub wall_ns: u64,
}

/// Collects per-evaluation timings from a wrapped trainer. Interior-mutable
/// so the same trace can observe a `Fn` trainer passed by shared reference
/// into any of the [`crate::search`] strategies.
#[derive(Debug, Default)]
pub struct SearchTrace {
    entries: Mutex<Vec<TraceEntry>>,
}

impl SearchTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap a trainer so every invocation is timed into this trace. The
    /// wrapper is itself a valid trainer for every search strategy:
    ///
    /// ```
    /// use dm_modelsel::search::{grid_search, ParamSpace};
    /// use dm_modelsel::trace::SearchTrace;
    ///
    /// let space = ParamSpace::new().grid("lr", &[0.01, 0.1]);
    /// let trace = SearchTrace::new();
    /// let result = grid_search(&space, trace.wrap(|p, _| -p.get("lr")));
    /// assert_eq!(trace.len(), result.evaluations.len());
    /// ```
    pub fn wrap<'a, F>(&'a self, trainer: F) -> impl Fn(&Params, f64) -> f64 + 'a
    where
        F: Fn(&Params, f64) -> f64 + 'a,
    {
        move |p: &Params, budget: f64| {
            let t0 = Instant::now();
            let score = trainer(p, budget);
            lock(&self.entries).push(TraceEntry {
                params: p.clone(),
                budget,
                score,
                wall_ns: elapsed_ns(t0),
            });
            score
        }
    }

    /// Number of evaluations observed.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// True when no evaluations were observed.
    pub fn is_empty(&self) -> bool {
        lock(&self.entries).is_empty()
    }

    /// Snapshot of all entries, in execution order.
    pub fn entries(&self) -> Vec<TraceEntry> {
        lock(&self.entries).clone()
    }

    /// Total wall time across all observed evaluations.
    pub fn total_wall_ns(&self) -> u64 {
        lock(&self.entries).iter().map(|e| e.wall_ns).sum()
    }

    /// Push the trace into `rec`: one `modelsel.search.fit` histogram
    /// sample per evaluation plus a `modelsel.search.evals` counter.
    pub fn record(&self, rec: &StatsRegistry) {
        let entries = lock(&self.entries);
        rec.add("modelsel.search.evals", entries.len() as u64);
        for e in entries.iter() {
            rec.record_histogram("modelsel.search.fit", e.wall_ns);
        }
    }

    /// Render a search-trace report: evaluation count, total fit time, and
    /// the `top_k` configurations by score with their budgets and timings.
    pub fn report(&self, top_k: usize) -> String {
        let entries = lock(&self.entries);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "search trace: {} evaluations, total fit wall {}",
            entries.len(),
            fmt_ns(entries.iter().map(|e| e.wall_ns).sum()),
        );
        let mut ranked: Vec<&TraceEntry> = entries.iter().collect();
        ranked.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
        let _ = writeln!(out, "top {} by score:", top_k.min(ranked.len()));
        for e in ranked.iter().take(top_k) {
            let cfg = e
                .params
                .pairs()
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  score {:+.4}  budget {:.2}  fit {:>9}  {{{cfg}}}",
                e.score,
                e.budget,
                fmt_ns(e.wall_ns),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{grid_search, successive_halving, ParamSpace};

    fn space() -> ParamSpace {
        ParamSpace::new().grid("lr", &[0.01, 0.1, 1.0])
    }

    #[test]
    fn wrap_observes_every_evaluation() {
        let trace = SearchTrace::new();
        let r = grid_search(&space(), trace.wrap(|p, _| -(p.get("lr") - 0.1).abs()));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.len(), r.evaluations.len());
        let entries = trace.entries();
        // Scores and budgets mirror the search result, in execution order.
        for (t, e) in entries.iter().zip(&r.evaluations) {
            assert_eq!(t.score, e.score);
            assert_eq!(t.budget, e.budget);
        }
    }

    #[test]
    fn wrap_composes_with_budgeted_strategies() {
        let s = ParamSpace::new().uniform("x", 0.0, 1.0);
        let trace = SearchTrace::new();
        let r = successive_halving(&s, 9, 3, 1, trace.wrap(|p, _| p.get("x")));
        assert_eq!(trace.len(), r.evaluations.len());
        let budgets: Vec<f64> = trace.entries().iter().map(|e| e.budget).collect();
        assert!(budgets.iter().any(|&b| b < 1.0));
        assert!(budgets.contains(&1.0));
    }

    #[test]
    fn report_ranks_by_score() {
        let trace = SearchTrace::new();
        grid_search(&space(), trace.wrap(|p, _| -(p.get("lr") - 0.1).abs()));
        let txt = trace.report(2);
        assert!(txt.contains("3 evaluations"), "{txt}");
        assert!(txt.contains("top 2 by score:"), "{txt}");
        let first = txt.lines().nth(2).unwrap();
        assert!(first.contains("lr=0.1"), "best config first: {txt}");
    }

    #[test]
    fn record_pushes_durations() {
        let trace = SearchTrace::new();
        grid_search(&space(), trace.wrap(|p, _| p.get("lr")));
        let reg = StatsRegistry::new();
        trace.record(&reg);
        let rep = reg.report();
        assert_eq!(rep.counter("modelsel.search.evals"), Some(3));
        assert_eq!(rep.histogram("modelsel.search.fit").unwrap().count, 3);
    }
}
