//! The per-layer side of a result: the fixed list of per-layer metrics every
//! traced run reports, and the printed ledger that folds them into one row
//! per layer with the dominant layer on top.

use crate::harness::{metric, Metric, Report};
use crate::machine::Ceilings;
use crate::spans::Folded;
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run reports
/// all of them; a layer the workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_request_us", "us"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_response_us", "us"),
    ("wire.decode_response_us", "us"),
    ("wire.bytes_per_op", "bytes"),
    ("plan.key_us", "us"),
    ("plan.lookup_us", "us"),
    ("plan.hit_ratio", "ratio"),
    ("compile.us", "us"),
    ("compile.nodes_in", "count"),
    ("compile.nodes_out", "count"),
    ("compile.rewrites", "count"),
    ("compile.blocked_nodes", "count"),
    ("admit.us", "us"),
    ("exec.bind_us", "us"),
    ("exec.eval_us", "us"),
    ("exec.self_us", "us"),
    ("kernel.gemv_us", "us"),
    ("kernel.gemv_gbs", "GB/s"),
    ("kernel.gemm_us", "us"),
    ("kernel.gemm_gflops", "GFLOP/s"),
    ("kernel.crossprod_us", "us"),
    ("kernel.crossprod_gflops", "GFLOP/s"),
    ("kernel.tmv_us", "us"),
    ("kernel.tmv_gbs", "GB/s"),
    ("kernel.exp_us", "us"),
    ("kernel.exp_gbs", "GB/s"),
    ("par.speedup", "ratio"),
    ("ooc.eval_us", "us"),
    ("ooc.slowdown", "ratio"),
    ("pool.spilled_bytes", "bytes"),
    ("pool.faulted_bytes", "bytes"),
    ("pool.evictions", "count"),
    ("serve.residual_us", "us"),
    ("serve.residual_share", "ratio"),
    ("live.p50_us", "us"),
    ("live.untraced_p50_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.ops", "count"),
    ("machine.stream_gbs", "GB/s"),
    ("machine.fma_gflops", "GFLOP/s"),
    ("machine.probe_drift", "ratio"),
];

/// Values of a traced run, keyed by per-layer metric name.
#[derive(Default)]
pub struct PerLayer(HashMap<&'static str, f64>);

impl PerLayer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set_machine(&mut self, start: &Ceilings, end: &Ceilings) {
        self.set("machine.stream_gbs", start.stream_gbs.max(end.stream_gbs));
        self.set("machine.fma_gflops", start.fma_gflops.max(end.fma_gflops));
        self.set("machine.probe_drift", start.drift(end));
    }

    /// A kernel's time and rate: `work` is flops or bytes per call, so the
    /// rate comes out in GFLOP/s or GB/s.
    pub fn set_kernel(
        &mut self,
        us_name: &'static str,
        rate_name: &'static str,
        us: f64,
        work: f64,
    ) {
        self.set(us_name, us);
        self.set(rate_name, if us > 0.0 { work / us / 1e3 } else { 0.0 });
    }

    /// Close a traced run: the figures about the run itself, the printed
    /// ledger and kernel lines, and the per-layer metrics as the result.
    pub fn finish(
        mut self,
        report: &mut Report,
        ledger: &Ledger,
        untraced_us: f64,
        folded: &BTreeMap<&'static str, Folded>,
    ) {
        let replay_self_us = folded.get("replay").map_or(0.0, |f| f.self_us);
        self.set("live.p50_us", ledger.live_us);
        self.set("live.untraced_p50_us", untraced_us);
        self.set("trace.overhead_share", ledger.live_us / untraced_us - 1.0);
        self.set("trace.ops", ledger.ops as f64);
        report.notes.extend(ledger.lines());
        report.notes.extend(self.kernel_lines());
        report.notes.push(format!(
            "replay glue {replay_self_us:.1} us per op: the replay span's self time, in no row \
             (operand copies, result conversion)"
        ));
        report.notes.push(format!(
            "trace.overhead_share {:+.3}: traced live p50 {:.1} us vs untraced {untraced_us:.1} us",
            self.get("trace.overhead_share"),
            ledger.live_us
        ));
        report.metrics = self.metrics();
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER.iter().map(|(name, unit)| metric(name, self.get(name), unit)).collect()
    }

    /// One line per kernel that ran: its rate against the machine ceiling
    /// it is bound by.
    pub fn kernel_lines(&self) -> Vec<String> {
        let ceilings =
            [("GFLOP/s", self.get("machine.fma_gflops")), ("GB/s", self.get("machine.stream_gbs"))];
        PER_LAYER
            .iter()
            .filter(|(name, _)| name.starts_with("kernel.") && !name.ends_with("_us"))
            .filter(|(name, _)| self.get(name) > 0.0)
            .map(|(name, unit)| {
                let ceiling = ceilings.iter().find(|(u, _)| u == unit).expect("a rate unit").1;
                let rate = self.get(name);
                format!(
                    "{name} {rate:.2} {unit} = {:.0}% of ceiling {ceiling:.2}",
                    100.0 * rate / ceiling
                )
            })
            .collect()
    }
}

/// The printed ledger of one workload: where the live op's median went.
pub struct Ledger {
    pub workload: &'static str,
    /// Median of the live op the rows account for, in microseconds.
    pub live_us: f64,
    pub ops: usize,
    /// (layer, microseconds, what it is made of), in pipeline order.
    pub rows: Vec<(&'static str, f64, String)>,
}

impl Ledger {
    /// The layer with the largest row and its share of the live op.
    pub fn dominant(&self) -> (&'static str, f64) {
        let (name, us, _) =
            self.rows.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("a ledger has rows");
        (name, us / self.live_us)
    }

    pub fn lines(&self) -> Vec<String> {
        let (top, share) = self.dominant();
        let mut out = vec![format!(
            "ledger {}: dominant layer {top}, {:.1}% of the live op's p50 {:.1} us ({} traced ops)",
            self.workload,
            100.0 * share,
            self.live_us,
            self.ops
        )];
        for (name, us, detail) in &self.rows {
            out.push(format!(
                "ledger {}:   {name:<12} {us:>12.1} us {:>6.1}%  {detail}",
                self.workload,
                100.0 * us / self.live_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_reports_every_name_once_with_zero_default() {
        let mut p = PerLayer::default();
        p.set_kernel("kernel.gemm_us", "kernel.gemm_gflops", 1_000.0, 2e9);
        let m = p.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        let names: std::collections::HashSet<_> = m.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), PER_LAYER.len(), "names are unique");
        // 2 GFLOP in 1 ms is 2000 GFLOP/s.
        assert_eq!(p.get("kernel.gemm_gflops"), 2_000.0);
        assert_eq!(p.get("kernel.gemv_us"), 0.0);
    }

    #[test]
    fn ledger_names_the_largest_row() {
        let l = Ledger {
            workload: "w",
            live_us: 100.0,
            ops: 3,
            rows: vec![("wire", 70.0, String::new()), ("kernels", 20.0, String::new())],
        };
        assert_eq!(l.dominant(), ("wire", 0.7));
        assert!(l.lines()[0].contains("dominant layer wire, 70.0%"), "{}", l.lines()[0]);
    }

    /// `BENCHMARK.json` is the contract; this list is what the binary prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let j = dm_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let want: Vec<(String, String)> =
            PER_LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("per_layer"), want);
        let bounds: Vec<(String, f64)> = j
            .get("end_to_end")
            .and_then(|a| a.as_arr())
            .expect("end_to_end")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(|v| v.as_str()).expect("name").to_owned();
                (name, m.get("bound").and_then(|v| v.as_f64()).expect("bound"))
            })
            .collect();
        let want: Vec<(String, f64)> =
            crate::suite::BOUNDS.iter().map(|(n, b)| (n.to_string(), *b)).collect();
        assert_eq!(bounds, want, "the suite gates by the contract's bounds");
        let workloads: Vec<String> = j
            .get("workloads")
            .and_then(|a| a.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name").to_owned())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS[..4], "the gated workloads");
        assert_eq!(crate::WORKLOADS[4], crate::UNGATED);
    }
}
