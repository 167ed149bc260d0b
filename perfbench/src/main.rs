//! One benchmark for the three front ends of the CRED pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-cold|serve-warm|verify-fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the workloads read `kernels/*.loop`).
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! it also replays a fixed prefix of the workload's ops through the
//! public layer functions under a span recorder and prints the per-layer
//! metrics instead. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). Any wrong output makes
//! the run exit with status 1; a run that cannot set up exits with 2
//! without a result line. See `perfbench/README.md`.

mod check;
mod explore_cold;
mod replay;
mod serve_warm;
mod trace;
mod verify_fuzz;

use std::process::ExitCode;
use std::time::Instant;

use replay::Counters;
use trace::{self_by_layer, totals_by_name, Span, Tracer};

/// One named measurement; its unit is in the published lists below.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end figures: the bounded metrics, the wall-clock ones
    /// and `failed_ratio`.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics; filled only by a traced run.
    pub layers: Vec<Metric>,
    /// The spans of one traced replay pass; written out at exit.
    pub spans: Vec<Span>,
}

/// The end-to-end metrics every untraced run reports, in the order of
/// `BENCHMARK.json`. Only these carry a regression bound; see
/// `perfbench/README.md` for why the timings of the timed phase are not
/// among them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cred_size_total", "count"),
];

/// The per-layer metrics every traced run reports, in the order of
/// `BENCHMARK.json`, after the timed phase's own timings. A layer a
/// workload never reaches reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("cpu_us_per_op", "us"),
    ("wall.ops_per_s", "1/s"),
    ("wall.p50_us", "us"),
    ("wall.p99_us", "us"),
    ("host.steal_pct", "%"),
    ("dfg.wd.calls", "count"),
    ("dfg.wd.busy_ms", "ms"),
    ("retime.solve.calls", "count"),
    ("retime.solve.busy_ms", "ms"),
    ("retime.work_units", "count"),
    ("unfold.calls", "count"),
    ("unfold.busy_ms", "ms"),
    ("unfold.nodes_out", "count"),
    ("codegen.calls", "count"),
    ("codegen.busy_ms", "ms"),
    ("codegen.insts_emitted", "count"),
    ("schedule.maxlive.calls", "count"),
    ("schedule.maxlive.busy_ms", "ms"),
    ("explore.cache.probe_us", "us"),
    ("explore.cache.hits", "count"),
    ("explore.cache.misses", "count"),
    ("explore.cache.hit_ratio", "ratio"),
    ("explore.request.self_ms", "ms"),
    ("exact.calls", "count"),
    ("exact.busy_ms", "ms"),
    ("exact.work_units", "count"),
    ("vm.compile.calls", "count"),
    ("vm.compile.busy_ms", "ms"),
    ("vm.execute.calls", "count"),
    ("vm.execute.busy_ms", "ms"),
    ("vm.execute.insts_executed", "count"),
    ("vm.tape.max_loop_insts", "count"),
    ("verify.oracle.self_ms", "ms"),
    ("verify.skipped_cases", "count"),
    ("service.json.decode_us", "us"),
    ("service.json.encode_us", "us"),
    ("service.explore_computes", "count"),
    ("service.coalesced_joins", "count"),
    ("service.shed", "count"),
    ("service.compute_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.open_p50_us", "us"),
    ("loadgen.open_p99_us", "us"),
    ("share.dfg", "%"),
    ("share.retime", "%"),
    ("share.unfold", "%"),
    ("share.codegen", "%"),
    ("share.schedule", "%"),
    ("share.exact", "%"),
    ("share.vm", "%"),
    ("share.explore", "%"),
    ("share.verify", "%"),
    ("share.service", "%"),
    ("trace.ops", "count"),
    ("trace.cred_size_total", "count"),
    ("trace.replay_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Figures printed for the reader but not published in `BENCHMARK.json`.
const PRINTED_ONLY: &[(&str, &str)] = &[("failed_ratio", "ratio")];

/// The published unit of a metric.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(PRINTED_ONLY)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the published lists"))
}

/// The value of each metric named in `list`, in its order, from `all`,
/// or 0 for a layer the workload does not reach.
fn select(all: &[Metric], list: &[(&'static str, &'static str)]) -> Vec<Metric> {
    list.iter()
        .map(|&(name, _)| {
            let value = all.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            metric(name, value)
        })
        .collect()
}

/// A traced replay: the spans and counters of one traced pass, plus the
/// median untraced and traced pass times.
pub struct Replay {
    pub spans: Vec<Span>,
    pub counters: Counters,
    pub ops: u64,
    pub failed: u64,
    pub untraced_ns: f64,
    pub traced_ns: f64,
}

/// Run `pass` alternately untraced and traced, at least twice each and
/// for at most `seconds` after that. Work counters must repeat exactly
/// from pass to pass; a pass that disagrees counts as a failure.
pub fn replay_passes(
    seconds: f64,
    mut pass: impl FnMut(&mut Tracer) -> (Counters, u64, u64),
) -> Replay {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<(Tracer, Counters, u64, u64)> = None;
    let mut drift = 0;
    while traced.len() < 2 || (start.elapsed().as_secs_f64() < seconds && traced.len() < 15) {
        for enabled in [false, true] {
            let mut t = Tracer::new(enabled);
            let t0 = Instant::now();
            let (counters, ops, failed) = pass(&mut t);
            let ns = t0.elapsed().as_nanos() as f64;
            if enabled { &mut traced } else { &mut untraced }.push(ns);
            match &first {
                Some((_, c, _, _)) => drift += u64::from(*c != counters),
                None if enabled => first = Some((t, counters, ops, failed)),
                None => {}
            }
        }
    }
    let (tracer, counters, ops, failed) = first.expect("at least one traced pass");
    Replay {
        spans: tracer.spans,
        counters,
        ops,
        failed: failed + drift,
        untraced_ns: median(&mut untraced),
        traced_ns: median(&mut traced),
    }
}

/// Per-layer metrics derivable from a replay's spans and counters.
/// Layer shares are taken of the replayed time (the root spans), or, when
/// the workload has an oracle, of `oracle_ns`: then the oracle time not
/// covered by the replayed layer calls is the `verify` layer's own time
/// (see `verify_fuzz`).
pub fn replay_metrics(r: &Replay, oracle_ns: Option<u64>) -> Vec<Metric> {
    let names = totals_by_name(&r.spans);
    let get = |n: &str| names.get(n).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mean_us = |n: &str| {
        let t = get(n);
        if t.calls == 0 {
            0.0
        } else {
            t.busy_ns as f64 / t.calls as f64 / 1e3
        }
    };
    let c = &r.counters;
    let mut out = vec![
        metric("retime.work_units", c.retime_work as f64),
        metric("exact.work_units", c.exact_work as f64),
        metric("unfold.nodes_out", c.unfold_nodes_out as f64),
        metric("codegen.insts_emitted", c.insts_emitted as f64),
        metric("vm.execute.insts_executed", c.insts_executed as f64),
        metric("vm.tape.max_loop_insts", c.max_loop_insts as f64),
        metric("explore.cache.hits", c.cache_hits as f64),
        metric("explore.cache.misses", c.cache_misses as f64),
        metric(
            "explore.cache.hit_ratio",
            c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        ),
        metric("explore.cache.probe_us", mean_us("explore.cache.probe")),
        metric(
            "explore.request.self_ms",
            ms(get("explore.request").self_ns),
        ),
        metric("service.json.decode_us", mean_us("service.json.decode")),
        metric("service.json.encode_us", mean_us("service.json.encode")),
        metric("trace.ops", r.ops as f64),
        metric("trace.cred_size_total", c.cred_size as f64),
        metric("trace.replay_ms", r.untraced_ns / 1e6),
        metric(
            "trace.overhead_pct",
            (r.traced_ns - r.untraced_ns) / r.untraced_ns.max(1.0) * 100.0,
        ),
    ];
    for (span, calls, busy) in [
        ("dfg.wd", "dfg.wd.calls", "dfg.wd.busy_ms"),
        ("retime.solve", "retime.solve.calls", "retime.solve.busy_ms"),
        ("unfold", "unfold.calls", "unfold.busy_ms"),
        ("codegen", "codegen.calls", "codegen.busy_ms"),
        (
            "schedule.maxlive",
            "schedule.maxlive.calls",
            "schedule.maxlive.busy_ms",
        ),
        ("exact", "exact.calls", "exact.busy_ms"),
        ("vm.compile", "vm.compile.calls", "vm.compile.busy_ms"),
        ("vm.execute", "vm.execute.calls", "vm.execute.busy_ms"),
    ] {
        out.push(metric(calls, get(span).calls as f64));
        out.push(metric(busy, ms(get(span).busy_ns)));
    }
    let (mut layers, roots_ns) = self_by_layer(&r.spans);
    let base_ns = oracle_ns.unwrap_or(roots_ns);
    if let Some(oracle_ns) = oracle_ns {
        let own = oracle_ns.saturating_sub(roots_ns);
        layers.insert("verify", own);
        out.push(metric("verify.oracle.self_ms", ms(own)));
    }
    for (layer, name) in [
        ("dfg", "share.dfg"),
        ("retime", "share.retime"),
        ("unfold", "share.unfold"),
        ("codegen", "share.codegen"),
        ("schedule", "share.schedule"),
        ("exact", "share.exact"),
        ("vm", "share.vm"),
        ("explore", "share.explore"),
        ("verify", "share.verify"),
        ("service", "share.service"),
    ] {
        let self_ns = layers.get(layer).copied().unwrap_or(0);
        out.push(metric(name, self_ns as f64 / base_ns.max(1) as f64 * 100.0));
    }
    out
}

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of `v` (sorts it); 0 for an empty slice.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Run `setup` `SETUP_REPS` times and return the last result with the
/// median process CPU time of one set-up, in seconds. CPU time, like
/// `cpu_us_per_op`, leaves out time the hypervisor took away; the median
/// makes it a figure rather than one sample.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = process_cpu_s();
        let value = setup()?;
        times.push(process_cpu_s() - t0);
        last = Some(value);
    }
    Ok((last.expect("SETUP_REPS >= 1"), median(&mut times)))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ops of one timed phase: when each finished (seconds since the phase
/// started), the process CPU clock then, and how long it took (µs).
#[derive(Default)]
pub struct Timed {
    pub done_s: Vec<f64>,
    pub done_cpu_s: Vec<f64>,
    pub latency_us: Vec<f64>,
    pub elapsed_s: f64,
    /// Fraction of the host's CPU time the hypervisor took away from
    /// this machine during the phase (0 where not reported).
    pub steal: f64,
}

/// Width of the windows throughput is measured over.
const RATE_WINDOW_S: f64 = 0.5;
/// Width of the windows tail latency is measured over.
const TAIL_WINDOW_S: f64 = 1.0;

impl Timed {
    pub fn record(&mut self, start: Instant, op_start: Instant) {
        let now = Instant::now();
        self.done_s.push((now - start).as_secs_f64());
        self.done_cpu_s.push(process_cpu_s());
        self.latency_us.push((now - op_start).as_secs_f64() * 1e6);
    }

    /// Add another recorder's ops (a second client of the same phase).
    pub fn merge(&mut self, other: Timed) {
        self.done_s.extend(other.done_s);
        self.done_cpu_s.extend(other.done_cpu_s);
        self.latency_us.extend(other.latency_us);
    }

    /// Process CPU time per op (every thread, the load generator's
    /// included): the median over half-second windows of the CPU clock's
    /// advance from a window's first completion to its last, over the ops
    /// in between. The process CPU clock is one clock for all threads, so
    /// this holds for merged recorders too. Falls back to the whole phase
    /// when it is shorter than one window.
    pub fn cpu_us_per_op(&self) -> f64 {
        let per_op = |ops: &[usize]| {
            let cpu = ops.iter().map(|&i| self.done_cpu_s[i]);
            let span = cpu.clone().fold(f64::MIN, f64::max) - cpu.fold(f64::MAX, f64::min);
            span * 1e6 / (ops.len() - 1) as f64
        };
        let mut windows: Vec<f64> = self
            .windows(RATE_WINDOW_S)
            .iter()
            .filter(|w| w.len() >= 2)
            .map(|w| per_op(w))
            .collect();
        if windows.is_empty() {
            let all: Vec<usize> = (0..self.done_s.len()).collect();
            return if all.len() >= 2 { per_op(&all) } else { 0.0 };
        }
        median(&mut windows)
    }

    /// The indices of the ops in each full window of `width` seconds; a
    /// partial last window is dropped.
    fn windows(&self, width: f64) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); (self.elapsed_s / width).floor() as usize];
        for (i, &t) in self.done_s.iter().enumerate() {
            if let Some(w) = out.get_mut((t / width) as usize) {
                w.push(i);
            }
        }
        out
    }

    /// Ops per second: the median over half-second windows, so a single
    /// heavy op or a stalled stretch moves one window, not the figure.
    /// Falls back to the phase mean when the phase is shorter than one
    /// window.
    pub fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .windows(RATE_WINDOW_S)
            .iter()
            .map(|w| w.len() as f64 / RATE_WINDOW_S)
            .collect();
        if rates.is_empty() {
            return self.done_s.len() as f64 / self.elapsed_s.max(1e-9);
        }
        median(&mut rates)
    }

    /// The 99th percentile latency: the median over one-second windows of
    /// each window's p99, or the phase p99 when the phase is shorter.
    pub fn p99_us(&self) -> f64 {
        let mut tails: Vec<f64> = self
            .windows(TAIL_WINDOW_S)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                percentile(
                    &mut w.iter().map(|&i| self.latency_us[i]).collect::<Vec<_>>(),
                    99.0,
                )
            })
            .collect();
        if tails.is_empty() {
            return percentile(&mut self.latency_us.clone(), 99.0);
        }
        median(&mut tails)
    }
}

/// Start of a timed phase: wall clock and host steal.
pub struct Meter {
    pub start: Instant,
    steal: Option<(u64, u64)>,
}

impl Meter {
    pub fn start() -> Self {
        Meter {
            start: Instant::now(),
            steal: steal_ticks(),
        }
    }

    /// Close the phase: its length and the host's steal go into `t`.
    pub fn stop(&self, t: &mut Timed) {
        t.elapsed_s = self.start.elapsed().as_secs_f64();
        t.steal = match (self.steal, steal_ticks()) {
            (Some((s0, a0)), Some((s1, a1))) if a1 > a0 => {
                s1.saturating_sub(s0) as f64 / (a1 - a0) as f64
            }
            _ => 0.0,
        };
    }
}

/// CPU time this process has used, all threads, in seconds. Unlike wall
/// time it does not include time the hypervisor took the CPU away.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Host steal and total CPU ticks of all CPUs so far (`/proc/stat`), or
/// `None` where the file is missing.
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Every end-to-end figure of a workload. The bounded metrics are the
/// set-up time, the peak RSS and `cred_size_total`; the process CPU time
/// per op, the wall-clock throughput and latencies of the `wall` phase
/// and the host's steal are reported beside them (see the README). `failed_ratio` is printed for the reader and reported to
/// the caller as `failed` / `attempted`.
pub fn e2e_metrics(
    setup_s: f64,
    cpu_us_per_op: f64,
    wall: &Timed,
    attempted: u64,
    failed: u64,
    cred_size_total: u64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s),
        metric("peak_rss_mb", peak_rss_mb()),
        metric("cred_size_total", cred_size_total as f64),
        metric("cpu_us_per_op", cpu_us_per_op),
        metric("wall.ops_per_s", wall.ops_per_s()),
        metric(
            "wall.p50_us",
            percentile(&mut wall.latency_us.clone(), 50.0),
        ),
        metric("wall.p99_us", wall.p99_us()),
        metric("host.steal_pct", wall.steal * 100.0),
        metric("failed_ratio", failed as f64 / attempted.max(1) as f64),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| num("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| num("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(num("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let result = match args.workload.as_str() {
        "explore-cold" => explore_cold::run(seed, seconds, trace),
        "serve-warm" => serve_warm::run(seed, seconds, trace),
        "verify-fuzz" => verify_fuzz::run(seed, seconds, trace),
        other => Err(format!(
            "unknown workload {other:?} (explore-cold, serve-warm, verify-fuzz)"
        )),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    if trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", args.workload));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| trace::write_jsonl(&out.spans, &path))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let mut all = std::mem::take(&mut out.e2e);
    all.append(&mut out.layers);
    println!(
        "workload {} seed {seed} ({} ops, {} failed)",
        args.workload, out.attempted, out.failed
    );
    for m in &all {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, unit_of(m.name));
    }
    let reported = select(&all, if trace { PER_LAYER } else { END_TO_END });
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                unit_of(m.name)
            )
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 100.0);
        assert_eq!(percentile(&mut v, 99.0), 198.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn throughput_and_tail_are_window_medians() {
        // Three full one-second windows with 4, 2 and 7 ops; the slow
        // middle one has a 100 µs op. The partial fourth second, with its
        // 1 s op, does not count towards the tail.
        let mut t = Timed {
            elapsed_s: 3.5,
            ..Timed::default()
        };
        for (done, lat) in [
            (0.1, 10.0),
            (0.2, 10.0),
            (0.6, 10.0),
            (0.7, 20.0),
            (1.1, 100.0),
            (1.9, 10.0),
            (2.0, 10.0),
            (2.1, 10.0),
            (2.2, 10.0),
            (2.3, 10.0),
            (2.6, 10.0),
            (2.7, 30.0),
            (3.2, 1e6),
        ] {
            // The CPU clock advances 1 ms per op, 7 ms for the slow one.
            let cpu = t.done_cpu_s.last().map_or(0.0, |c| c + 1e-3)
                + if lat == 100.0 { 6e-3 } else { 0.0 };
            t.done_s.push(done);
            t.done_cpu_s.push(cpu);
            t.latency_us.push(lat);
        }
        // Half-second windows hold 2, 2, 1, 1, 4, 2, 1 ops.
        assert_eq!(t.ops_per_s(), 4.0);
        // Windows with two or more ops advance 1 ms per op; the slow op
        // sits alone in its window.
        assert!((t.cpu_us_per_op() - 1000.0).abs() < 1e-6);
        // Per-second p99s are 20, 100, 30.
        assert_eq!(t.p99_us(), 30.0);
        let short = Timed {
            done_s: vec![0.1, 0.2],
            done_cpu_s: vec![1.0, 1.004],
            latency_us: vec![5.0, 7.0],
            elapsed_s: 0.25,
            ..Timed::default()
        };
        assert_eq!(short.ops_per_s(), 8.0);
        assert_eq!(short.p99_us(), 7.0);
        assert!((short.cpu_us_per_op() - 4000.0).abs() < 1e-6);
    }
}
