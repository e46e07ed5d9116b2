//! `compile_corpus`: single-function fuzz texts compiled to native code
//! under SN-SLP, cycling through a corpus drawn from the seed.
//!
//! One op is text → parse → verify → `run_slp` (SN-SLP) → `jit::compile`
//! → `finalize`. A JIT decline ends the op; it counts toward
//! `jit.coverage`, not toward failures. No native code runs inside an op.
//!
//! Oracle, once per corpus function and outside the timed op: the
//! optimized function is verified again and interpreted on the fuzz
//! inputs, and its native code (when the JIT lowered it) is run on the
//! same inputs; both must match the interpreter run of the unoptimized
//! function made during set-up (traps by kind).

use std::time::{Duration, Instant};

use snslp_core::{SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::{outcomes_match, run_with_args, ArgSpec, ExecOptions, RunOutcome};
use snslp_ir::Function;
use snslp_jit::JitFunction;
use snslp_trace::hist::percentile;

use crate::calib::Calibrator;
use crate::compile::{compile_text, Pipeline};
use crate::report::{overhead_pct, CompileAcc, Failures, Outcome, Values};
use crate::spans::{layer_times, Tracer};
use crate::stats::{per_second, sorted};
use crate::{kernels, peak_rss_mib, timed_setup, Fault, Opts, Scale};

/// Corpus functions per run at full scale.
pub const CORPUS: usize = 6000;

/// What a run of a function on the fuzz inputs observed.
#[derive(Debug, Clone)]
pub enum Observed {
    /// Ran to completion.
    Ran(Box<RunOutcome>),
    /// Trapped with this kind.
    Trapped(&'static str),
}

/// One corpus function.
#[derive(Debug)]
pub struct CorpusCase {
    /// The function as `.snir` text: all the program under test sees.
    pub text: String,
    /// The fuzz inputs.
    pub args: Vec<ArgSpec>,
    /// The interpreter's run of the unoptimized function.
    pub reference: Result<Observed, String>,
}

/// The corpus and its reference runs.
#[derive(Debug)]
pub struct Setup {
    /// The fuzz seed: function `i` is `snslp_fuzz::generate(seed, i)`.
    pub seed: u64,
    /// Corpus functions, in generation order.
    pub cases: Vec<CorpusCase>,
    /// Total interpreter time of the reference runs, ms.
    pub reference_ms: f64,
}

fn interpret(f: &Function, args: &[ArgSpec]) -> Result<Observed, String> {
    match run_with_args(f, args, &CostModel::default(), &ExecOptions::default()) {
        Ok(out) => Ok(Observed::Ran(Box::new(out))),
        Err(e) => match e.as_trap() {
            Some(t) => Ok(Observed::Trapped(t.kind())),
            None => Err(format!("interpreter error: {e}")),
        },
    }
}

/// Generates the corpus of `seed` and interprets every function once.
pub fn setup(seed: u64, scale: Scale) -> Setup {
    let n = match scale {
        Scale::Full => CORPUS,
        Scale::Tiny => 16,
    };
    let mut reference_ns = 0u128;
    let cases = (0..n as u64)
        .map(|i| {
            let case = snslp_fuzz::generate(seed, i);
            let start = Instant::now();
            let reference = interpret(&case.function, &case.args);
            reference_ns += start.elapsed().as_nanos();
            CorpusCase {
                text: case.function.to_string(),
                args: case.args,
                reference,
            }
        })
        .collect();
    Setup {
        seed,
        cases,
        reference_ms: reference_ns as f64 / 1e6,
    }
}

fn same(reference: &Observed, got: &Observed) -> Result<(), String> {
    match (reference, got) {
        (Observed::Ran(a), Observed::Ran(b)) => outcomes_match(a, b),
        (Observed::Trapped(a), Observed::Trapped(b)) if a == b => Ok(()),
        (a, b) => Err(format!("reference {a:?} but got {b:?}")),
    }
}

fn run_native(native: &JitFunction, case: &CorpusCase) -> Observed {
    let (mut mem, values) = snslp_jit::materialize_args(&case.args);
    match native.invoke(&values, &mut mem, &ExecOptions::default()) {
        Ok(run) => {
            let arrays = kernels::read_back(&mem, &case.args, &values);
            Observed::Ran(Box::new(kernels::outcome(run.ret, arrays)))
        }
        Err(e) => match e.as_trap() {
            Some(t) => Observed::Trapped(t.kind()),
            None => Observed::Trapped("non-trap error"),
        },
    }
}

/// The oracle for one compiled corpus function.
fn check(
    case: &CorpusCase,
    optimized: &Function,
    native: Option<&JitFunction>,
) -> Result<(), String> {
    let reference = case.reference.as_ref().map_err(Clone::clone)?;
    snslp_ir::verify(optimized).map_err(|e| format!("optimized function fails verify: {e}"))?;
    let interpreted = interpret(optimized, &case.args)?;
    same(reference, &interpreted).map_err(|e| format!("optimized (interpreted): {e}"))?;
    if let Some(native) = native {
        same(reference, &run_native(native, case))
            .map_err(|e| format!("optimized (native): {e}"))?;
    }
    Ok(())
}

/// Samples of one kind of pass (traced or not), in host-calibrated time
/// (see [`crate::calib`]).
#[derive(Debug, Default)]
pub struct Measured {
    /// Every completed compile, µs.
    pub latency_us: Vec<f64>,
    /// Compiles since the last calibration probe, µs as measured.
    pending: Vec<f64>,
    /// Compile-side layer work.
    pub acc: CompileAcc,
    /// Ops attempted.
    pub attempted: u64,
}

/// Longest stretch of compiles between two calibration probes.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

impl Measured {
    /// Ends a calibration stretch: the pending compiles join the
    /// calibrated ones.
    fn calibrate(&mut self, calib: &mut Calibrator) {
        let f = calib.factor();
        self.latency_us
            .extend(self.pending.drain(..).map(|us| us * f));
    }

    /// Ops completed per second inside timed ops.
    pub fn ops_per_s(&self) -> f64 {
        per_second(self.latency_us.len() as u64, self.latency_us.iter().sum())
    }
}

/// Compiles the corpus functions in order, stopping early at `deadline`.
/// Each function's first compile is checked by the oracle. With `probe`,
/// kernel rounds are interleaved.
fn pass(
    setup: &Setup,
    m: &mut Measured,
    checked: &mut [bool],
    deadline: Option<Instant>,
    tr: &mut Tracer,
    failures: &mut Failures,
    mut probe: Option<&mut kernels::Rounds>,
) {
    let pipeline = Pipeline::Slp(SlpConfig::new(SlpMode::SnSlp));
    let mut calib = Calibrator::single();
    let mut stretch = Instant::now();
    for (idx, case) in setup.cases.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let op = m.attempted;
        m.attempted += 1;
        let root = tr.enter("op", op);
        let t0 = Instant::now();
        let compiled = compile_text(&case.text, &pipeline, tr, op, &mut m.acc);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tr.exit(root);
        let seed = setup.seed;
        match compiled {
            Ok(compiled) => {
                m.pending.push(us);
                if !checked[idx] {
                    checked[idx] = true;
                    let s = tr.enter("bench.check", op);
                    let verdict = check(case, &compiled.function, compiled.native.as_ref());
                    tr.exit(s);
                    if let Err(e) = verdict {
                        failures.fail(&format!("fuzz seed {seed:#x} index {idx}: {e}"), || {
                            format!("{}\n; INPUTS: {:?}", case.text, case.args)
                        });
                    }
                }
            }
            Err(e) => failures.fail(&format!("fuzz seed {seed:#x} index {idx}: {e}"), || {
                case.text.clone()
            }),
        }
        let round_due = probe.as_ref().is_some_and(|p| p.due());
        if round_due || stretch.elapsed() >= CALIBRATE_EVERY {
            m.calibrate(&mut calib);
            stretch = Instant::now();
        }
        if let Some(p) = probe.as_deref_mut().filter(|_| round_due) {
            p.round(&mut Tracer::new(false, stretch), failures);
            calib = Calibrator::single();
            stretch = Instant::now();
        }
    }
    m.calibrate(&mut calib);
}

/// Runs the `compile_corpus` workload: passes over the corpus until the
/// budget is spent (the first pass always completes). A traced run
/// alternates untraced and traced passes, so both sample the same
/// stretch of the host's speed; a plain run interleaves kernel rounds.
pub fn run(opts: &Opts) -> Outcome {
    let ((setup, ksetup), setup_s) =
        timed_setup(|| (setup(opts.seed, opts.scale), kernels::setup(opts.scale)));
    let n = setup.cases.len();
    let mut failures = Failures::default();
    let mut values = Values::default();
    let mut checked = vec![false; n];
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    let mut probe = (!opts.trace).then(|| kernels::Rounds::new(&ksetup, opts.seed, Fault::None));
    let mut plain = Measured::default();
    let mut traced = opts
        .trace
        .then(|| (Measured::default(), Tracer::new(true, epoch)));
    let deadline = Instant::now() + opts.budget();
    let mut first = true;
    while first || Instant::now() < deadline {
        let until = (!first).then_some(deadline);
        pass(
            &setup,
            &mut plain,
            &mut checked,
            until,
            &mut off,
            &mut failures,
            probe.as_mut(),
        );
        if let Some((t, tr)) = traced.as_mut() {
            pass(&setup, t, &mut checked, until, tr, &mut failures, None);
        }
        first = false;
    }
    let mut attempted = plain.attempted;
    if let Some((t, tr)) = traced {
        attempted += t.attempted;
        let times = layer_times(&[&tr]);
        t.acc.layer_values(&times, &mut values);
        values.set("interp.reference_ms", setup.reference_ms);
        values.set(
            "trace.overhead_pct",
            overhead_pct(plain.ops_per_s(), t.ops_per_s()),
        );
        crate::finish_trace(opts, &times, &[&tr]);
    } else {
        let lat = sorted(plain.latency_us.clone());
        eprintln!(
            "perfbench: compile_corpus p50/p99 over {} compiles",
            lat.len()
        );
        values.set("setup_s", setup_s);
        values.set("ops_per_s", plain.ops_per_s());
        values.set("p50_us", percentile(&lat, 50.0));
        values.set("p99_us", percentile(&lat, 99.0));
        let mut probe = probe.expect("plain runs interleave kernel rounds");
        if probe.m.rounds == 0 {
            probe.round(&mut off, &mut failures);
        }
        attempted += probe.m.attempted;
        attempted += kernels::end_to_end(&ksetup, &probe.m, &mut failures, &mut values);
        values.set("peak_rss_mib", peak_rss_mib());
    }
    Outcome::finish(attempted, failures.count(), values, opts.trace)
}
