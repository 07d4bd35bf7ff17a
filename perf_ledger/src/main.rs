//! `perf_ledger`: the repo's benchmark. See `README.md` beside this package
//! for every metric, workload and layer by name.
//!
//! Two ways in, one binary:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one pass of one
//!   workload in this process and ends with the JSON result line (the
//!   driver's contract in `BENCHMARK.json`);
//! * without `--workload` it runs the whole suite: every workload, both
//!   passes, each in a fresh child process of this same binary, with the
//!   machine probes around them and one summary at the end.

mod gen;
mod harness;
mod inproc;
mod ledger;
mod machine;
mod reference;
mod serve;
mod spans;
mod stats;
mod suite;

use harness::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every workload the suite runs. All but the last are `BENCHMARK.json`'s, in
/// its order.
pub const WORKLOADS: [&str; 5] =
    ["serve_small_hot", "serve_wide_hot", "serve_compile_cold", "inproc_dense", UNGATED];
/// Reported, not gated: its latency does not repeat on a shared box (measured
/// in README.md), so the driver's contract does not list it.
pub const UNGATED: &str = "inproc_blocked";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: usize,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15,
        trace: false,
        repeat: 1,
        out: "perf_ledger/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            "--repeat" => args.repeat = num()?.max(1) as usize,
            "--out" => args.out = value.into(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Report {
    let (seed, seconds) = (args.seed, args.seconds);
    let serve = |spec| match args.trace {
        false => serve::run_untraced(spec, seed, seconds),
        true => serve::run_traced(spec, seed, seconds, &args.out),
    };
    let inproc = |spec| match args.trace {
        false => inproc::run_untraced(spec, seed, seconds),
        true => inproc::run_traced(spec, seed, seconds, &args.out),
    };
    match name {
        "serve_small_hot" => serve(&serve::SMALL_HOT),
        "serve_wide_hot" => serve(&serve::WIDE_HOT),
        "serve_compile_cold" => serve(&serve::COMPILE_COLD),
        "inproc_dense" => inproc(&inproc::DENSE),
        "inproc_blocked" => inproc(&inproc::BLOCKED),
        _ => unreachable!("parse_args admits only WORKLOADS"),
    }
}

/// JSON has no NaN or infinity; a metric that came out non-finite prints 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Print one workload's result: every metric by name with its unit, the
/// notes, and the JSON result as the last line.
fn print_report(workload: &str, report: &Report) {
    for m in report.metrics.iter().chain(&report.extra) {
        println!("metric {workload} {} {} {}", m.name, json_num(m.value), m.unit);
    }
    println!("metric {workload} ops_attempted {} count", report.attempted);
    println!("metric {workload} ops_failed {} count", report.failed);
    println!(
        "metric {workload} failed_share {} ratio",
        json_num(report.failed as f64 / report.attempted.max(1) as f64)
    );
    for note in &report.notes {
        println!("note {workload} {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => {
            print_report(name, &run_workload(name, &args));
            ExitCode::SUCCESS
        }
        None => suite::run(&args),
    }
}
