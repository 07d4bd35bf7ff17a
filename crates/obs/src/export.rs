//! Machine-readable expositions of a [`StatsReport`]: Prometheus text
//! format and a JSON document, for scraping or archiving alongside the
//! Chrome trace export of [`trace`](crate::trace).

use crate::histogram::HistogramSnapshot;
use crate::json::escape_json;
use crate::registry::StatsReport;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Turn a dot-separated site path into a Prometheus metric name:
/// `buffer.pool.lru.hit` → `dmml_buffer_pool_lru_hit`. Characters outside
/// `[a-zA-Z0-9_]` become underscores (the `dmml_` prefix guarantees a legal
/// leading character).
fn metric_name(site: &str) -> String {
    let mut out = String::with_capacity(site.len() + 5);
    out.push_str("dmml_");
    for c in site.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Sanitization maps distinct sites onto one name (`exec.eval` and
/// `exec-eval` both become `dmml_exec_eval`); a scraper rejects the
/// duplicate `# TYPE` lines that would produce. The deduper suffixes
/// repeats with `_2`, `_3`, … so every exported family name is unique.
#[derive(Default)]
struct NameDeduper {
    seen: HashSet<String>,
}

impl NameDeduper {
    fn claim(&mut self, site: &str) -> String {
        let base = metric_name(site);
        if self.seen.insert(base.clone()) {
            return base;
        }
        let mut n = 2;
        loop {
            let candidate = format!("{base}_{n}");
            if self.seen.insert(candidate.clone()) {
                return candidate;
            }
            n += 1;
        }
    }
}

fn push_histogram_text(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} summary");
    for (q, v) in [(0.5, h.p50()), (0.95, h.p95()), (0.99, h.p99())] {
        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Render the full report in the Prometheus text exposition format:
/// counters as `counter`, gauges as `gauge` (with a `_peak` companion), and
/// histograms — every timing included — as `summary` metrics carrying
/// p50/p95/p99 quantile labels plus `_sum` and `_count`.
pub fn prometheus_text(report: &StatsReport) -> String {
    let mut out = String::new();
    let mut names = NameDeduper::default();
    for (site, v) in report.counters() {
        let name = names.claim(site);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (site, (cur, peak)) in report.gauges() {
        let name = names.claim(site);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {cur}");
        let _ = writeln!(out, "# TYPE {name}_peak gauge");
        let _ = writeln!(out, "{name}_peak {peak}");
    }
    for (site, h) in report.histograms() {
        let name = names.claim(site);
        push_histogram_text(&mut out, &name, h);
    }
    out
}

/// Render the full report as one JSON document:
/// `{"counters":{...},"gauges":{site:{"current","peak"}},"histograms":{site:
/// {"count","sum","min","max","p50","p95","p99"}}}`. Parseable back with
/// [`json::parse`](crate::json::parse).
pub fn stats_json(report: &StatsReport) -> String {
    let mut out = String::from("{");
    out.push_str("\"counters\":{");
    for (i, (site, v)) in report.counters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape_json(site));
    }
    out.push_str("},\"gauges\":{");
    for (i, (site, (cur, peak))) in report.gauges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"current\":{cur},\"peak\":{peak}}}", escape_json(site));
    }
    out.push_str("},\"histograms\":{");
    for (i, (site, h)) in report.histograms().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            escape_json(site),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50(),
            h.p95(),
            h.p99()
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::StatsRegistry;

    fn sample_report() -> StatsReport {
        let reg = StatsRegistry::new();
        reg.counter("pool.hit").add(42);
        reg.gauge("mem.used").set(100);
        reg.gauge("mem.used").set(64);
        reg.record_histogram("exec.eval", 1_500);
        let h = reg.histogram("exec.node_self_ns");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        reg.report()
    }

    #[test]
    fn prometheus_text_covers_every_metric_kind() {
        let text = prometheus_text(&sample_report());
        assert!(text.contains("# TYPE dmml_pool_hit counter"), "{text}");
        assert!(text.contains("dmml_pool_hit 42"), "{text}");
        assert!(text.contains("dmml_mem_used 64"), "{text}");
        assert!(text.contains("dmml_mem_used_peak 100"), "{text}");
        assert!(text.contains("# TYPE dmml_exec_eval summary"), "{text}");
        assert!(text.contains("dmml_exec_eval_count 1"), "{text}");
        assert!(text.contains("dmml_exec_eval_sum 1500"), "{text}");
        assert!(text.contains("# TYPE dmml_exec_node_self_ns summary"), "{text}");
        assert!(text.contains("dmml_exec_node_self_ns{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("dmml_exec_node_self_ns_count 3"), "{text}");
    }

    #[test]
    fn json_export_parses_back() {
        let doc = stats_json(&sample_report());
        let v = json::parse(&doc).expect("well-formed JSON");
        assert_eq!(v.get("counters").unwrap().get("pool.hit").unwrap().as_f64(), Some(42.0));
        let g = v.get("gauges").unwrap().get("mem.used").unwrap();
        assert_eq!(g.get("current").unwrap().as_f64(), Some(64.0));
        assert_eq!(g.get("peak").unwrap().as_f64(), Some(100.0));
        let d = v.get("histograms").unwrap().get("exec.eval").unwrap();
        assert_eq!(d.get("sum").unwrap().as_f64(), Some(1500.0));
        let h = v.get("histograms").unwrap().get("exec.node_self_ns").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(3.0));
        assert!(h.get("p99").unwrap().as_f64().unwrap() >= h.get("p50").unwrap().as_f64().unwrap());
    }

    #[test]
    fn empty_report_exports_cleanly() {
        let rep = StatsRegistry::new().report();
        assert_eq!(prometheus_text(&rep), "");
        let v = json::parse(&stats_json(&rep)).unwrap();
        assert_eq!(v.get("counters").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(metric_name("buffer.pool.lru.hit"), "dmml_buffer_pool_lru_hit");
        assert_eq!(metric_name("a-b c"), "dmml_a_b_c");
    }

    #[test]
    fn colliding_sites_export_unique_names() {
        let reg = StatsRegistry::new();
        // Three sites that all sanitize to dmml_exec_eval.
        reg.counter("exec.eval").add(1);
        reg.counter("exec-eval").add(2);
        reg.counter("exec eval").add(3);
        let text = prometheus_text(&reg.report());
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let unique: std::collections::HashSet<&&str> = families.iter().collect();
        assert_eq!(families.len(), unique.len(), "duplicate TYPE families in:\n{text}");
        assert!(text.contains("dmml_exec_eval "), "{text}");
        assert!(text.contains("dmml_exec_eval_2 "), "{text}");
        assert!(text.contains("dmml_exec_eval_3 "), "{text}");
    }

    /// A Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    fn is_valid_metric_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Every line of the exposition must be a `# TYPE <name> <kind>`
    /// comment or a `<name>[{label="value"}] <number>` sample, with legal
    /// metric names throughout — the conformance contract real scrapers
    /// hold us to.
    #[test]
    fn prometheus_text_conforms_to_exposition_format() {
        let reg = StatsRegistry::new();
        reg.counter("pool.hit").add(42);
        reg.counter("weird site-name.0").add(1);
        reg.gauge("mem.used").set(64);
        reg.record_histogram("exec.eval", 1_500);
        let h = reg.histogram("lang.exec.node_self_ns");
        for v in [100u64, 200, 300, 5_000] {
            h.record(v);
        }
        let text = prometheus_text(&reg.report());
        assert!(!text.is_empty());
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE line has a name");
                let kind = parts.next().expect("TYPE line has a kind");
                assert!(is_valid_metric_name(name), "bad metric name {name:?} in {line:?}");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary"),
                    "bad metric kind {kind:?} in {line:?}"
                );
                assert!(parts.next().is_none(), "trailing tokens in {line:?}");
                continue;
            }
            // Sample line: name, optional {labels}, one numeric value.
            let (series, value) =
                line.rsplit_once(' ').unwrap_or_else(|| panic!("no value in {line:?}"));
            assert!(value.parse::<f64>().is_ok(), "non-numeric value {value:?} in {line:?}");
            let name = series.split('{').next().unwrap();
            assert!(is_valid_metric_name(name), "bad metric name {name:?} in {line:?}");
            if let Some(labels) = series.strip_prefix(name) {
                if !labels.is_empty() {
                    assert!(
                        labels.starts_with('{') && labels.ends_with('}'),
                        "malformed labels {labels:?} in {line:?}"
                    );
                    for pair in labels[1..labels.len() - 1].split(',') {
                        let (k, v) = pair.split_once('=').expect("label has =");
                        assert!(is_valid_metric_name(k), "bad label name {k:?}");
                        assert!(v.starts_with('"') && v.ends_with('"'), "unquoted label {v:?}");
                    }
                }
            }
        }
    }
}
