//! The layered benchmark of the SN-SLP stack.
//!
//! One process runs one workload for a fixed wall-clock budget and prints
//! one JSON result line. Every layer is timed only through its public
//! functions: `snslp-ir` (parse, verify), `snslp-core` (O3 cleanup and the
//! SLP pipelines), `snslp-jit` (lower, map, invoke), `snslp-interp` (the
//! reference runs) and `snslp-serve` (the in-process daemon). Every output
//! is checked against a reference the compiler under test did not
//! produce; a mismatch is counted as a failed op and reported on stderr
//! with its input.
//!
//! A plain run (`--trace 0`) reports the end-to-end metrics. A traced run
//! (`--trace 1`) alternates untraced stretches with stretches that record
//! the benchmark's own spans around each layer call, and reports the
//! per-layer metrics plus the tracing overhead.

pub mod calib;
pub mod compile;
pub mod corpus;
pub mod kernels;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use std::time::{Duration, Instant};

use report::Outcome;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["kernels_native", "compile_corpus", "serve_mixed"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xC60;

/// How much input a workload builds. `Tiny` exists for the self-check
/// tests: every metric is still produced, from a few ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's real sizes.
    Full,
    /// A handful of ops per workload.
    Tiny,
}

/// A deliberate corruption of one output, used only by the self-check
/// tests to prove that each oracle is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No corruption.
    None,
    /// Flip the low bit of one lane of the first native result.
    FlipNativeLane,
    /// Change one byte of the first daemon reply.
    AlterReplyByte,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured wall-clock budget.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Injected corruption (tests only).
    pub fault: Fault,
}

impl Opts {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            scale: Scale::Full,
            fault: Fault::None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => opts.workload = value()?,
                "--seed" => opts.seed = parse_u64(&value()?)?,
                "--seconds" => {
                    let v = value()?;
                    opts.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds `{v}`"))?;
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad --trace `{other}` (want 0 or 1)")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} (got `{}`)",
                WORKLOADS.join(", "),
                opts.workload
            ));
        }
        Ok(opts)
    }

    /// The measured budget as a duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad seed `{s}`"))
}

/// Set-up runs per process; `setup_s` is their median, so that a one-off
/// stall does not read as a regression.
pub const SETUP_REPEATS: usize = 5;

/// Builds a workload's inputs [`SETUP_REPEATS`] times, keeps the last,
/// and returns it with the median set-up time in host-calibrated seconds
/// (see [`calib`]).
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous copy first so peak memory holds one set-up.
        drop(last.take());
        let mut calib = calib::Calibrator::single();
        let start = Instant::now();
        last = Some(build());
        let s = start.elapsed().as_secs_f64();
        times.push(s * calib.factor());
    }
    let built = last.expect("SETUP_REPEATS > 0");
    (built, stats::median(&mut times))
}

/// Runs the workload `opts` names and returns its outcome.
pub fn run(opts: &Opts) -> Outcome {
    match opts.workload.as_str() {
        "kernels_native" => kernels::run(opts),
        "compile_corpus" => corpus::run(opts),
        "serve_mixed" => serve::run(opts),
        other => unreachable!("workload `{other}` passed Opts::parse"),
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Ends a traced run: writes its spans to `.bench_out/` in the working
/// directory and prints each layer's share of self time to stderr.
pub fn finish_trace(
    opts: &Opts,
    times: &std::collections::BTreeMap<&'static str, spans::LayerTime>,
    tracers: &[&spans::Tracer],
) {
    let path = std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-{:#x}.jsonl",
        opts.workload, opts.seed
    ));
    if let Err(e) = spans::write_spans(&path, tracers) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let total: u64 = times.values().map(|t| t.self_ns).sum();
    for (name, t) in times {
        eprintln!(
            "perfbench: self time {name:<14} {:>6.2}%  ({} spans, {:.1} us/span)",
            t.self_ns as f64 * 100.0 / total.max(1) as f64,
            t.count,
            t.self_ns as f64 / t.count.max(1) as f64 / 1e3
        );
    }
}
