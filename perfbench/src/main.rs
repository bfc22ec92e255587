//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--report FILE]
//! ```
//!
//! One process runs one workload, so `peak_rss_mb` (the process's
//! VmHWM) belongs to that workload alone. Every measured phase pins the
//! library to [`GATE_THREADS`] worker thread; the traced run adds
//! `par.thread_ratio`, the same work at the default thread count over
//! the pinned time. The benchmark derives every input from `--seed`,
//! drives the library's public functions from a single closed-loop
//! caller (no TCP), measures for `--seconds`, checks every output with
//! a checker of its own, and prints a report: the
//! runner fingerprint, every metric by name and unit with its sample
//! count, and as the last line one JSON object for a regression gate. With
//! `--trace 0` that object carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of [`LAYERS`], taken
//! from timers around public calls and from the obs events that the
//! public `*_with(sink)` entry points emit. A correctness mismatch makes
//! the exit code nonzero. `--report FILE` also writes the whole report
//! as JSON, for `compare.py`.

mod chase_fixpoint;
mod fc_certify;
mod recorder;
mod rewrite_ucq;
mod serve_mix;
mod stats;

use bddfc_core::par;
use bddfc_core::prng::SplitMix64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The thread count of every measured phase. At the default count (the
/// cores, 2 on a small runner) the fork-join layer's per-call spawns
/// wait on a second vCPU, and on a shared host that wait swings run
/// times by 2x from one run to the next; one thread keeps a run-to-run
/// comparison like for like. The default count is measured separately,
/// as `par.thread_ratio`.
pub const GATE_THREADS: usize = 1;

static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Runs `f` at the library's default thread count, as it was before
/// the measured phases were pinned to [`GATE_THREADS`].
pub fn at_default_threads<R>(f: impl FnOnce() -> R) -> R {
    par::with_thread_count(
        *DEFAULT_THREADS.get().expect("set before any workload runs"),
        f,
    )
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: samples as u64,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (verdicts, chases, requests, rewritings).
    pub attempted: u64,
    /// Operations that did not produce a usable answer (an `err` or
    /// `unknown` reply, an unsaturated rewriting).
    pub failed: u64,
    /// Correctness-check mismatches; any one fails the run.
    pub mismatches: Vec<String>,
    /// Operations timed by the gated measurement.
    pub samples: usize,
    /// Median set-up time, in seconds.
    pub setup_s: f64,
    /// Median reference-kernel time over the run, in ms.
    pub reference_ms: f64,
    /// Operations per second, from each input's (or command's) median
    /// time.
    pub throughput_per_s: f64,
    /// Geometric mean over the workload's inputs (or command kinds) of
    /// each one's median latency.
    pub latency_geomean_ms: f64,
    /// The workload's own end-to-end metrics, under their own names.
    pub named: Vec<Metric>,
    /// Per-layer values by name (traced run only).
    pub layers: BTreeMap<&'static str, (f64, usize)>,
}

impl Outcome {
    /// Records a correctness mismatch.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("mismatch: {what}");
        }
        self.mismatches.push(what);
    }

    /// Records one per-layer value and its sample count.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            LAYERS.iter().any(|l| l.0 == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, (value, samples));
    }
}

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it is expected to move. A workload reports 0 for the layers
/// it does not exercise.
pub const LAYERS: &[(&str, &str, &str)] = &[
    (
        "finite.transform_ms",
        "ms",
        "verdict_ms_geomean @ fc_certify",
    ),
    (
        "finite.skeleton_ms",
        "ms",
        "verdict_ms_geomean @ fc_certify",
    ),
    ("finite.certify_ms", "ms", "verdict_ms_geomean @ fc_certify"),
    (
        "finite.attempts",
        "count",
        "verdict_ms_geomean @ fc_certify",
    ),
    (
        "finite.attempt_yield",
        "ratio",
        "verdict_ms_geomean @ fc_certify",
    ),
    ("types.coloring_ms", "ms", "verdicts_per_s @ fc_certify"),
    ("types.partition_ms", "ms", "verdicts_per_s @ fc_certify"),
    ("types.quotient_ms", "ms", "verdicts_per_s @ fc_certify"),
    ("types.conservative_ms", "ms", "verdicts_per_s @ fc_certify"),
    (
        "rewrite.kappa_ms",
        "ms",
        "none: predicted not to move fc_certify",
    ),
    (
        "rewrite.generations",
        "count",
        "rewrites_per_s, failed_share @ rewrite_ucq",
    ),
    (
        "rewrite.steps",
        "count",
        "rewrites_per_s, failed_share @ rewrite_ucq",
    ),
    (
        "rewrite.retained_yield",
        "ratio",
        "rewrites_per_s, failed_share @ rewrite_ucq",
    ),
    (
        "rewrite.subsume_pairs",
        "count",
        "rewrites_per_s, failed_share @ rewrite_ucq",
    ),
    (
        "rewrite.prefilter_rejects",
        "count",
        "rewrites_per_s, failed_share @ rewrite_ucq",
    ),
    (
        "rewrite.rule_ms",
        "ms",
        "rewrites_per_s, failed_share @ rewrite_ucq",
    ),
    ("chase.prefix_ms", "ms", "verdict_ms_geomean @ fc_certify"),
    ("chase.quotient_ms", "ms", "verdict_ms_geomean @ fc_certify"),
    (
        "chase.rounds",
        "count",
        "facts_per_s @ chase_fixpoint, insert_p50_us @ serve_mix",
    ),
    (
        "chase.collect_ms",
        "ms",
        "facts_per_s @ chase_fixpoint, insert_p50_us @ serve_mix",
    ),
    (
        "chase.admit_apply_ms",
        "ms",
        "facts_per_s @ chase_fixpoint, insert_p50_us @ serve_mix",
    ),
    (
        "chase.body_matches",
        "count",
        "facts_per_s @ chase_fixpoint, insert_p50_us @ serve_mix",
    ),
    (
        "chase.fire_yield",
        "ratio",
        "facts_per_s @ chase_fixpoint, insert_p50_us @ serve_mix",
    ),
    ("join.build_ms", "ms", "facts_per_s @ chase_fixpoint"),
    ("join.probe_ms", "ms", "facts_per_s @ chase_fixpoint"),
    ("join.probe_rows", "count", "facts_per_s @ chase_fixpoint"),
    ("join.match_yield", "ratio", "facts_per_s @ chase_fixpoint"),
    (
        "hom.scan_candidates",
        "count",
        "facts_per_s @ chase_fixpoint",
    ),
    ("hom.query_us", "us", "query_p50_us @ serve_mix"),
    (
        "incremental.insert_us",
        "us",
        "insert_p50_us, insert_p99_us @ serve_mix",
    ),
    (
        "incremental.retract_us",
        "us",
        "retract_p50_us, retract_p99_us @ serve_mix",
    ),
    (
        "incremental.rounds_per_insert",
        "count",
        "insert_p50_us, insert_p99_us @ serve_mix",
    ),
    (
        "incremental.overdeleted_per_retract",
        "count",
        "retract_p50_us, retract_p99_us @ serve_mix",
    ),
    (
        "incremental.rederive_yield",
        "ratio",
        "retract_p50_us, retract_p99_us @ serve_mix",
    ),
    ("serve.overhead_us", "us", "requests_per_s @ serve_mix"),
    ("serve.writer_wait_ms", "ms", "requests_per_s @ serve_mix"),
    ("parser.load_ms", "ms", "setup_s @ serve_mix"),
    ("analyze.load_ms", "ms", "setup_s @ serve_mix"),
    ("chase.load_ms", "ms", "setup_s @ serve_mix"),
    (
        "par.thread_ratio",
        "ratio",
        "verdict_ms_geomean @ fc_certify, insert_p50_us @ serve_mix; ~1.0 @ chase_fixpoint",
    ),
    (
        "trace.overhead",
        "ratio",
        "none: traced over untraced time, per workload",
    ),
    (
        "trace.unattributed_share",
        "ratio",
        "none: time outside every timed layer, per workload",
    ),
];

const WORKLOADS: &[&str] = &["fc_certify", "chase_fixpoint", "serve_mix", "rewrite_ucq"];

/// Wall-clock budget of one measured phase.
pub struct Budget {
    start: Instant,
    len: Duration,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            len: Duration::from_secs_f64(seconds),
        }
    }

    pub fn over(&self) -> bool {
        self.start.elapsed() >= self.len
    }
}

/// A seed for the `i`-th input of a run, mixed from the run's seed.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Host speed the gated figures are scaled to: the reference kernel
/// takes this many milliseconds.
const REFERENCE_MS: f64 = 2.0;

/// A fixed kernel of hashing and small allocations, the mix the
/// library's hot paths are made of, on the standard library only so no
/// library change can move it. Its time is the benchmark's reading of
/// how fast the host runs at that moment, in ms.
fn reference_ms() -> f64 {
    let t = Instant::now();
    let mut map = std::collections::HashMap::new();
    let mut rows = Vec::new();
    for i in 0..20_000u64 {
        map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        rows.push(vec![i; 8]);
    }
    black_box((&map, &rows));
    t.elapsed().as_secs_f64() * 1e3
}

/// Timings taken before a workload measures and after every measured
/// pass: set-ups, and the reference kernel. Spread over the run, they
/// meet the same host conditions as the measurement; on a shared host
/// those change over seconds to minutes (whole runs of the same code
/// moved 1.5x), and a burst at the start would catch only one of them.
#[derive(Default)]
pub struct Between {
    setup: Vec<f64>,
    reference: Vec<f64>,
}

impl Between {
    /// Times one set-up and returns its product.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = black_box(f());
        self.setup.push(t.elapsed().as_secs_f64());
        v
    }

    /// Times the reference kernel three times.
    pub fn reference(&mut self) {
        self.reference.extend((0..3).map(|_| reference_ms()));
    }

    /// Median seconds of one set-up.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup)
    }

    /// Median reference-kernel time, in ms.
    pub fn reference_ms(&self) -> f64 {
        stats::median(&self.reference)
    }
}

/// Runs `f` `reps` times and returns the median seconds of one run,
/// with the last run's value.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = black_box(f());
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut report) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--report" => report = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        report,
    })
}

/// The runner a report was measured on. Two reports compare only when
/// everything but `rev` matches and their calibration times agree.
struct Fingerprint {
    cores: usize,
    /// Threads of the measured phases.
    threads: usize,
    /// `par::num_threads()` without the pin.
    default_threads: usize,
    profile: &'static str,
    rev: String,
    seed: u64,
    calibration_ms: f64,
}

impl Fingerprint {
    fn take(seed: u64, default_threads: usize, calibration_ms: f64) -> Self {
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: GATE_THREADS,
            default_threads,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rev: git_rev(),
            seed,
            calibration_ms,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"cores\":{},\"threads\":{},\"default_threads\":{},\"profile\":\"{}\",\"rev\":\"{}\",\"seed\":{},\"calibration_ms\":{}}}",
            self.cores,
            self.threads,
            self.default_threads,
            self.profile,
            self.rev,
            self.seed,
            num(self.calibration_ms)
        )
    }
}

/// The checkout's commit, read from `./.git` only (never a parent
/// directory's repository); `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".into())
}

/// Fastest of 15 timings, in milliseconds, of a fixed single-threaded
/// integer loop: a reading of the runner's speed, so trajectories from
/// different runners can be read as ratios against it. The fastest,
/// because a busy neighbour on a shared host only ever slows it.
fn calibrate() -> f64 {
    (0..15)
        .map(|_| {
            let t = Instant::now();
            let mut rng = SplitMix64::new(1);
            let mut acc = 0u64;
            for _ in 0..2_000_000 {
                acc = acc.wrapping_add(black_box(rng.next_u64()));
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A JSON number; the metrics are finite by construction, and a
/// non-finite one is a bug worth seeing as a failed parse.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[&Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(",\"samples\":{}", m.samples)
            } else {
                String::new()
            };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"{samples}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(args: &Args) -> Result<bool, String> {
    let default_threads = par::num_threads();
    DEFAULT_THREADS
        .set(default_threads)
        .expect("one run per process");
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let calibration_start = calibrate();
    let mut out = par::with_thread_count(GATE_THREADS, || match args.workload.as_str() {
        "fc_certify" => fc_certify::run(args.seed, args.seconds, args.trace),
        "chase_fixpoint" => chase_fixpoint::run(args.seed, args.seconds, args.trace),
        "serve_mix" => serve_mix::run(args.seed, args.seconds, args.trace),
        "rewrite_ucq" => rewrite_ucq::run(args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} passed validation"),
    });
    // Calibrated at both ends of the run, so that one busy moment on
    // the host does not set the reading.
    let fp = Fingerprint::take(
        args.seed,
        default_threads,
        calibration_start.min(calibrate()),
    );
    println!("fingerprint {}", fp.json());
    let attempted = out.attempted.max(1);
    // The gated times are scaled to a host on which the reference kernel
    // takes REFERENCE_MS: on a shared host whole runs of the same code
    // move together with that kernel (r = -0.97 against fc_certify's
    // throughput over 6 runs), so the scaled figures compare across
    // runs where the raw ones do not. The raw figures are printed too.
    let host = out.reference_ms / REFERENCE_MS;
    let e2e = [
        Metric::new(
            "throughput_per_s",
            out.throughput_per_s * host,
            "1/s",
            out.samples,
        ),
        Metric::new(
            "latency_geomean_ms",
            out.latency_geomean_ms / host,
            "ms",
            out.samples,
        ),
        Metric::new("setup_s", out.setup_s / host, "s", 1),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB", 1),
    ];
    out.named
        .push(Metric::new("reference_ms", out.reference_ms, "ms", 1));
    out.named.push(Metric {
        name: "setup_s",
        value: out.setup_s,
        unit: "s",
        samples: 1,
    });
    out.named.push(Metric {
        name: "peak_rss_mb",
        value: e2e[3].value,
        unit: "MB",
        samples: 1,
    });
    out.named.push(Metric {
        name: "failed_share",
        value: out.failed as f64 / attempted as f64,
        unit: "ratio",
        samples: out.attempted,
    });
    let layers: Vec<Metric> = LAYERS
        .iter()
        .map(|&(name, unit, _)| {
            let (value, samples) = out.layers.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                value,
                unit,
                samples: samples as u64,
            }
        })
        .collect();

    let print = |m: &Metric| {
        println!(
            "{:<28} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        )
    };
    println!("-- end-to-end ({}, as measured)", args.workload);
    out.named.iter().for_each(print);
    println!("-- gated by BENCHMARK.json (times scaled to reference_ms = {REFERENCE_MS})");
    e2e.iter().for_each(print);
    if args.trace {
        println!("-- per layer (expected to move)");
        for (m, (_, _, moves)) in layers.iter().zip(LAYERS) {
            println!(
                "{:<36} {:>14.6} {:<6} n={:<6} -> {moves}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }
    let correct = out.mismatches.is_empty();
    println!(
        "-- checks: attempted={} failed={} mismatches={}",
        out.attempted,
        out.failed,
        out.mismatches.len()
    );
    if let Some(path) = &args.report {
        let measured: Vec<&Metric> = out
            .named
            .iter()
            .chain(if args.trace { &layers[..] } else { &[] })
            .collect();
        let gated: Vec<&Metric> = e2e.iter().collect();
        let report = format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"seconds\":{},\"fingerprint\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"gated\":{},\"metrics\":{}}}\n",
            args.workload,
            u8::from(args.trace),
            num(args.seconds),
            fp.json(),
            out.attempted,
            out.failed,
            metrics_json(&gated, true),
            metrics_json(&measured, true)
        );
        std::fs::write(path, report).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let shown: Vec<&Metric> = if args.trace {
        layers.iter().collect()
    } else {
        e2e.iter().collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        out.failed,
        metrics_json(&shown, false)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--report FILE]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
