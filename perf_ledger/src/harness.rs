//! What every workload shares: the closed-loop driver, the set-up
//! repetition, process memory, and the shape of a result.

use crate::stats::{iqr, median, quartiles, round_medians, tail};
use std::time::{Duration, Instant};

/// Timed rounds per run; one more round runs first and is discarded as
/// warm-up, so a run of `--seconds S` spends `S` timed and `S / ROUNDS`
/// settling.
pub const ROUNDS: usize = 10;
/// Set-ups per run. `setup_s` is their median, so one slow bind or page-in
/// does not decide the metric.
pub const SETUP_REPS: usize = 5;
/// A teardown slower than this fails the run: it means a worker sat in a
/// socket read timeout, and that stall must never reach a measurement.
pub const TEARDOWN_LIMIT: Duration = Duration::from_secs(2);
/// Ops of every `serve_*` workload checked against the naive reference.
pub const CHECKED_OPS: usize = 16;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_owned(), value, unit }
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the JSON result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Reported beside them, not gated.
    pub extra: Vec<Metric>,
    /// Free-form lines (`inputs_hash`, the ledger, the tail's percentile).
    pub notes: Vec<String>,
}

impl Report {
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Samples of a closed-loop drive: per-op latency in milliseconds, by round.
pub struct Drive {
    pub rounds: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` when the last load thread finished, before the samples were
    /// merged: the drive's own bookkeeping is not the workload's memory.
    pub peak_rss: Metric,
}

/// Room for a round's samples per thread, reserved up front so the sample
/// buffers never reallocate while the workload's memory is being measured
/// (pages of the reservation that are never written are never resident).
const ROUND_CAPACITY: usize = 1 << 18;

/// Closed loop: each of `states.len()` threads owns one state (a client
/// connection) and issues its next op only when the previous one returned.
/// Thread `t` runs ops `t, t + n, t + 2n, ...`, so threads never share an
/// input. `op` times its own measured part and says whether the output was
/// right; a sample belongs to the round its op started in.
pub fn drive<S: Send>(
    states: &mut [S],
    rounds: usize,
    round_len: Duration,
    op: &(impl Fn(&mut S, usize) -> (Duration, bool) + Sync),
) -> Drive {
    let n = states.len();
    let start = Instant::now();
    let per_thread: Vec<(Vec<Vec<f64>>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(t, state)| {
                scope.spawn(move || {
                    let mut samples: Vec<Vec<f64>> =
                        (0..rounds).map(|_| Vec::with_capacity(ROUND_CAPACITY)).collect();
                    let mut failed = 0;
                    let mut i = t;
                    loop {
                        let round = (start.elapsed().as_nanos() / round_len.as_nanos()) as usize;
                        if round >= rounds {
                            break (samples, failed);
                        }
                        let (took, ok) = op(state, i);
                        samples[round].push(took.as_secs_f64() * 1e3);
                        failed += u64::from(!ok);
                        i += n;
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let peak_rss = peak_rss_mb();
    let mut out = Drive { rounds: vec![Vec::new(); rounds], attempted: 0, failed: 0, peak_rss };
    for (samples, failed) in per_thread {
        out.failed += failed;
        for (all, mine) in out.rounds.iter_mut().zip(samples) {
            out.attempted += mine.len() as u64;
            all.extend(mine);
        }
    }
    out
}

/// The untraced pass over a set-up workload: one discarded warm-up round,
/// then [`ROUNDS`] timed rounds filling `seconds`. Adds `latency_p50_ms` to
/// the report's metrics, then `peak_rss_mb` as the load threads left it, and
/// the ungated latency figures to its extras.
pub fn measure<S: Send>(
    report: &mut Report,
    states: &mut [S],
    seconds: u64,
    op: &(impl Fn(&mut S, usize) -> (Duration, bool) + Sync),
) {
    let round_len = Duration::from_secs(seconds) / ROUNDS as u32;
    let mut d = drive(states, ROUNDS + 1, round_len, op);
    report.attempted += d.attempted;
    report.failed += d.failed;
    let timed = &mut d.rounds[1..];
    let timed_ops: usize = timed.iter().map(Vec::len).sum();
    let mut medians = round_medians(timed);
    let listed: String = medians.iter().map(|m| format!(" {m:.4}")).collect();
    report.notes.push(format!("round_medians_ms{listed}"));
    // Interference on a shared box only ever slows a round down, so a low
    // order statistic of the round medians repeats better than their median
    // (which follows the neighbours' duty cycle) and than their minimum
    // (which follows one lucky round). Measured in README.md.
    let [quiet, mid, _] = quartiles(&mut medians);
    report.metrics.extend([metric("latency_p50_ms", quiet, "ms"), d.peak_rss]);
    report.extra.push(metric("latency_p50_iqr_ms", iqr(&mut medians), "ms"));
    report.extra.push(metric("latency_p50_all_rounds_ms", mid, "ms"));
    report.extra.push(metric(
        "throughput_ops_s",
        timed_ops as f64 / (round_len * ROUNDS as u32).as_secs_f64(),
        "1/s",
    ));
    let mut all: Vec<f64> = timed.iter().flatten().copied().collect();
    match tail(&mut all) {
        Some((k, v, n)) => {
            report.extra.push(metric("latency_tail_ms", v, "ms"));
            report.notes.push(format!(
                "latency_tail_ms is p{} of {n} samples ({} beyond it)",
                100.0 - 100.0 / k as f64,
                n / k
            ));
        }
        None => report
            .notes
            .push(format!("latency_tail_ms: {} samples support no tail percentile", all.len())),
    }
}

/// The traced pass splits its window 3 : 7. This is the first part: an
/// untraced reference of three short rounds on the same states, returning
/// the median op latency in microseconds.
pub fn untraced_baseline_us<S: Send>(
    report: &mut Report,
    states: &mut [S],
    seconds: u64,
    op: &(impl Fn(&mut S, usize) -> (Duration, bool) + Sync),
) -> f64 {
    let mut d = drive(states, 3, Duration::from_secs(seconds) / 10, op);
    report.attempted += d.attempted;
    report.failed += d.failed;
    let mut all: Vec<f64> = d.rounds.drain(..).flatten().collect();
    median(&mut all) * 1e3
}

/// The second part: traced ops run until this instant.
pub fn traced_deadline(seconds: u64) -> Instant {
    Instant::now() + Duration::from_secs(seconds) * 7 / 10
}

/// Run `f` under the clock: its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `setup_s`: the median of [`SETUP_REPS`] set-ups. The first is the one the
/// run measured on (`first_secs`); the others happen here, after the
/// measurement, each torn down again, so that `peak_rss_mb` is the memory of
/// one set-up under load and not of five servers' leftovers.
pub fn setup_metric<W>(
    report: &mut Report,
    first_secs: f64,
    mut setup: impl FnMut(&mut Report) -> W,
    teardown: impl Fn(W),
) -> Metric {
    let mut secs = vec![first_secs];
    for _ in 1..SETUP_REPS {
        let (w, took) = timed(|| setup(report));
        secs.push(took);
        timed_teardown(report, || teardown(w));
    }
    metric("setup_s", median(&mut secs), "s")
}

/// Run a teardown under the clock, keep the slowest in the extras, and fail
/// the run when it exceeds [`TEARDOWN_LIMIT`].
pub fn timed_teardown(report: &mut Report, teardown: impl FnOnce()) {
    let t = Instant::now();
    teardown();
    let took = t.elapsed();
    report.count(took <= TEARDOWN_LIMIT);
    match report.extra.iter_mut().find(|m| m.name == "teardown_s") {
        Some(m) => m.value = m.value.max(took.as_secs_f64()),
        None => report.extra.push(metric("teardown_s", took.as_secs_f64(), "s")),
    }
}

/// High-water mark of this process's resident set, in MiB (`VmHWM`).
fn peak_rss_mb() -> Metric {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    metric("peak_rss_mb", kb / 1024.0, "MiB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_splits_ops_between_threads_and_rounds() {
        let mut states = vec![Vec::new(), Vec::new()];
        let op = |seen: &mut Vec<usize>, i: usize| {
            seen.push(i);
            std::thread::sleep(Duration::from_millis(1));
            (Duration::from_millis(1), !i.is_multiple_of(10))
        };
        let d = drive(&mut states, 3, Duration::from_millis(30), &op);
        assert_eq!(d.rounds.len(), 3);
        assert!(d.rounds.iter().all(|r| !r.is_empty()), "every round saw ops");
        assert_eq!(d.attempted as usize, states[0].len() + states[1].len());
        assert!(states[0].iter().all(|i| i % 2 == 0) && states[1].iter().all(|i| i % 2 == 1));
        let tens = states.iter().flatten().filter(|i| i.is_multiple_of(10)).count();
        assert_eq!(d.failed as usize, tens);
    }

    #[test]
    fn setup_metric_is_the_median_over_all_reps_and_tears_each_down() {
        let torn = std::cell::Cell::new(0);
        let mut r = Report::default();
        // The first set-up took "an hour"; the four here take microseconds.
        let m = setup_metric(&mut r, 3600.0, |_| (), |()| torn.set(torn.get() + 1));
        assert_eq!(torn.get(), SETUP_REPS - 1);
        assert_eq!(m.name, "setup_s");
        assert!(m.value < 1.0, "one slow set-up does not decide the median");
        assert_eq!((r.attempted, r.failed), (SETUP_REPS as u64 - 1, 0));
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb().value > 1.0);
    }
}
