//! The whole suite in one command: every workload, untraced then traced,
//! each pass in a fresh child process of this binary, so resident memory,
//! plan cache, registry and allocator state never leak from one workload
//! into the next. Machine probes run before and after; with `--repeat N`
//! the suite runs N times (seed, seed + 1, ...) and reports how far each
//! gated metric moved between runs, next to its bound.

use crate::machine::{self, NOISY_DRIFT};
use crate::stats::{median, quartiles};
use crate::{Args, UNGATED, WORKLOADS};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The gated end-to-end metrics and the share of the median by which each
/// may worsen (`BENCHMARK.json`'s `bound`).
pub const BOUNDS: [(&str, f64); 3] =
    [("latency_p50_ms", 0.25), ("peak_rss_mb", 0.10), ("setup_s", 0.25)];
/// `setup_s` is short on some workloads; a move under this many seconds is
/// not a regression whatever its share.
const SETUP_ABS_SLACK_S: f64 = 0.25;
/// The contract's cap on one pass of one workload.
const CHILD_LIMIT: Duration = Duration::from_secs(180);

struct Child {
    lines: Vec<String>,
    ok: bool,
    secs: f64,
}

/// Run this binary again for one pass of one workload; echo and keep its
/// output. A child over [`CHILD_LIMIT`] is killed and reaped.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool, args: &Args) -> Child {
    let exe = std::env::current_exe().expect("path of this binary");
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped())
        .spawn()
        .expect("re-exec this binary");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = loop {
        match child.try_wait().expect("wait for the child") {
            Some(status) => break Some(status),
            None if t.elapsed() > CHILD_LIMIT => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().expect("reader thread");
    print!("{text}");
    Child {
        lines: text.lines().map(str::to_owned).collect(),
        ok: status.is_some_and(|s| s.success()),
        secs: t.elapsed().as_secs_f64(),
    }
}

/// Everything the children said, by (workload, name).
#[derive(Default)]
struct Collected {
    metrics: BTreeMap<(String, String), Vec<f64>>,
    units: BTreeMap<String, String>,
    /// `note <workload> <key> <value>` lines, latest per (workload, key).
    notes: BTreeMap<(String, String), String>,
}

impl Collected {
    fn absorb(&mut self, lines: &[String]) {
        for line in lines {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["metric", w, name, value, unit, ..] => {
                    if let Ok(v) = value.parse() {
                        self.metrics.entry((w.to_string(), name.to_string())).or_default().push(v);
                        self.units.insert(name.to_string(), unit.to_string());
                    }
                }
                ["note", w, key, value] => {
                    self.notes.insert((w.to_string(), key.to_string()), value.to_string());
                }
                _ => {}
            }
        }
    }

    fn last(&self, workload: &str, name: &str) -> f64 {
        self.metrics
            .get(&(workload.to_owned(), name.to_owned()))
            .and_then(|v| v.last().copied())
            .unwrap_or(f64::NAN)
    }

    /// Sum of every value reported under (workload, name).
    fn total(&self, workload: &str, name: &str) -> f64 {
        self.metrics.get(&(workload.to_owned(), name.to_owned())).map_or(0.0, |v| v.iter().sum())
    }

    fn note(&self, workload: &str, key: &str) -> Option<&String> {
        self.notes.get(&(workload.to_owned(), key.to_owned()))
    }
}

/// Records each expectation as it is checked and remembers any failure.
struct Verdict {
    failures: usize,
}

impl Verdict {
    fn expect(&mut self, ok: bool, what: &str) {
        println!("check {} {what}", if ok { "ok  " } else { "FAIL" });
        self.failures += usize::from(!ok);
    }
}

/// min / median / max of the runs, the largest move from the median and the
/// quartile spread (both as a share of the median).
fn repeat_row(values: &[f64]) -> (f64, f64, f64, f64, f64) {
    let mut v = values.to_vec();
    let med = median(&mut v);
    let (min, max) = (v[0], v[v.len() - 1]);
    // A metric that is 0 on this workload (a layer it never enters) has
    // nothing to be a share of.
    if med == 0.0 {
        return (min, med, max, 0.0, 0.0);
    }
    let dev = (max - med).max(med - min) / med;
    let spread = if v.len() >= 2 {
        let [q1, _, q3] = quartiles(&mut v);
        (q3 - q1) / med
    } else {
        0.0
    };
    (min, med, max, dev, spread)
}

pub fn run(args: &Args) -> ExitCode {
    let started = Instant::now();
    let mut verdict = Verdict { failures: 0 };
    let machine_start = machine::probe();
    println!(
        "suite: seed {} x {} run(s), {} s untraced + {} s traced per workload, {} cores",
        args.seed,
        args.repeat,
        args.seconds,
        traced_seconds(args.seconds),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut all = Collected::default();
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        let mut hashes = Vec::new();
        for w in WORKLOADS {
            let untraced = run_child(w, seed, args.seconds, false, args);
            all.absorb(&untraced.lines);
            let hash = all.note(w, "inputs_hash").cloned();
            let traced = run_child(w, seed, traced_seconds(args.seconds), true, args);
            all.absorb(&traced.lines);
            verdict.expect(
                untraced.ok && traced.ok,
                &format!(
                    "{w} seed {seed}: both passes exited cleanly ({:.1} s + {:.1} s)",
                    untraced.secs, traced.secs
                ),
            );
            verdict.expect(
                hash.is_some() && hash.as_ref() == all.note(w, "inputs_hash"),
                &format!(
                    "{w} seed {seed}: both passes generated the same inputs ({})",
                    hash.as_deref().unwrap_or("no hash")
                ),
            );
            hashes.extend(hash);
        }
        let bits = |w| all.note(w, "result_bits").cloned();
        verdict.expect(
            bits("inproc_dense").is_some() && bits("inproc_dense") == bits("inproc_blocked"),
            &format!("seed {seed}: inproc_dense and inproc_blocked returned the same bits"),
        );
        println!("suite: seed {seed} inputs {}", hashes.join(" "));
    }
    let machine_end = machine::probe();
    let drift = machine_start.drift(&machine_end);
    let noisy = drift > NOISY_DRIFT;

    println!("\n== summary ==");
    println!(
        "machine.stream_gbs {:.2} -> {:.2}, machine.fma_gflops {:.2} -> {:.2}, drift {:.3}, noisy: {noisy}",
        machine_start.stream_gbs, machine_end.stream_gbs, machine_start.fma_gflops, machine_end.fma_gflops, drift
    );
    let attempted: f64 = WORKLOADS.iter().map(|w| all.total(w, "ops_attempted")).sum();
    let failed: f64 = WORKLOADS.iter().map(|w| all.total(w, "ops_failed")).sum();
    verdict.expect(failed == 0.0, &format!("failed_share 0: {failed} of {attempted} ops failed"));
    if noisy {
        println!("warning: the machine probes before and after differ by more than 10%: a neighbour was busy, re-run rather than trust these numbers");
    }
    for w in WORKLOADS {
        let hit = all.last(w, "plan.hit_ratio");
        let blocked = all.last(w, "compile.blocked_nodes");
        let (ok, what) = match w {
            "serve_small_hot" | "serve_wide_hot" => {
                (hit >= 0.99, format!("plan.hit_ratio {hit:.4} >= 0.99"))
            }
            "serve_compile_cold" => (hit <= 0.01, format!("plan.hit_ratio {hit:.4} <= 0.01")),
            "inproc_dense" => (blocked == 0.0, format!("compile.blocked_nodes {blocked} == 0")),
            _ => (blocked >= 2.0, format!("compile.blocked_nodes {blocked} >= 2")),
        };
        verdict.expect(ok, &format!("{w}: {what}"));
    }

    println!(
        "{:<20} {:<22} {:>12} {:>12} {:>12}  {:>8} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "max dev", "spread", "bound"
    );
    let mut json = Vec::new();
    for w in WORKLOADS {
        // The op counts add two passes of different length; they are summed
        // above, not spread here.
        let rows = all.metrics.iter().filter(|((mw, name), _)| {
            mw == w && !name.starts_with("ops_") && name != "failed_share"
        });
        for ((_, name), values) in rows {
            let (min, med, max, dev, spread) = repeat_row(values);
            let unit = &all.units[name];
            let bound = BOUNDS.iter().find(|(n, _)| n == name && w != UNGATED).map(|(_, b)| *b);
            println!(
                "{w:<20} {name:<22} {min:>12.4} {med:>12.4} {max:>12.4}  {:>7.1}% {:>7.1}% {:>6} {unit}",
                100.0 * dev,
                100.0 * spread,
                bound.map_or("-".to_owned(), |b| format!("{:.0}%", 100.0 * b)),
            );
            if let Some(bound) = bound {
                let small = name == "setup_s" && (max - med).max(med - min) <= SETUP_ABS_SLACK_S;
                if args.repeat > 1 {
                    verdict.expect(
                        dev <= bound || small,
                        &format!(
                            "{w} {name}: runs within {:.0}% of their median (max dev {:.1}%)",
                            100.0 * bound,
                            100.0 * dev
                        ),
                    );
                }
                json.push(format!("\"{w}.{name}\": {{\"value\": {med}, \"unit\": \"{unit}\"}}"));
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    println!("suite took {secs:.1} s; {} check(s) failed", verdict.failures);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"noisy\": {noisy}, \"seconds\": {secs:.1}, \"metrics\": {{{}}}}}",
        verdict.failures == 0,
        json.join(", ")
    );
    if verdict.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced pass is the short one: 4/10 of the untraced window.
fn traced_seconds(seconds: u64) -> u64 {
    (seconds * 4 / 10).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collected_parses_metric_and_note_lines() {
        let mut c = Collected::default();
        c.absorb(&[
            "metric w latency_p50_ms 1.5 ms".to_owned(),
            "metric w latency_p50_ms 2.5 ms".to_owned(),
            "note w inputs_hash abc".to_owned(),
            "note w some longer free-form note".to_owned(),
            "{\"correct\": true}".to_owned(),
        ]);
        assert_eq!(c.metrics[&("w".to_owned(), "latency_p50_ms".to_owned())], vec![1.5, 2.5]);
        assert_eq!(c.last("w", "latency_p50_ms"), 2.5);
        assert_eq!(c.note("w", "inputs_hash").map(String::as_str), Some("abc"));
        assert!(c.last("w", "absent").is_nan());
    }

    #[test]
    fn repeat_row_reports_the_largest_move_from_the_median() {
        let (min, med, max, dev, spread) = repeat_row(&[10.0, 9.0, 12.0]);
        assert_eq!((min, med, max), (9.0, 10.0, 12.0));
        assert!((dev - 0.2).abs() < 1e-12);
        // statistics.quantiles([9, 10, 12], n=4) == [9, 10, 12]
        assert!((spread - 0.3).abs() < 1e-12);
    }
}
