//! `kernels_native`: the 12 Table I kernels under O3, SLP, LSLP and
//! SN-SLP, from printed `.snir` text to native execution.
//!
//! Each round takes every kernel × pipeline row through parse → verify →
//! pipeline → `jit::compile` → `finalize`, then invokes the result
//! [`INVOKES`] times on freshly materialized inputs (materializing is not
//! timed). Every round maps the code again, so it lands at new
//! addresses: a row's invoke time is the fastest of its round's invokes,
//! summarised across rounds by the median, so that placement variance
//! stays in the figure. Each round is bracketed by calibration probes and
//! its times are reported in host-calibrated time ([`crate::calib`]).
//! Pipelines are interleaved with a start that rotates per round and per
//! kernel, so drift over the run hits every pipeline alike.
//!
//! Oracle: every native return value and memory image is compared with
//! the interpreter run of the unoptimized scalar kernel, made once during
//! set-up (fast-math tolerance for floats, exact for integers).

use std::time::{Duration, Instant};

use snslp_cost::CostModel;
use snslp_interp::{
    outcomes_match, run_with_args, ArgSpec, ArrayData, DynProfile, ExecOptions, ExecResult, Memory,
    RunOutcome, Value,
};
use snslp_jit::{materialize_args, JitFunction};
use snslp_trace::hist::percentile;

use crate::calib::Calibrator;
use crate::compile::{compile_text, Pipeline};
use crate::report::{exec_row, overhead_pct, CompileAcc, Failures, Outcome, Values, MODES};
use crate::spans::{layer_times, Tracer};
use crate::stats::{geomean, per_second, quartiles, sorted};
use crate::{peak_rss_mib, timed_setup, Fault, Opts, Scale};

/// Native invocations of each compiled row per round.
pub const INVOKES: usize = 8;

/// One kernel: its printed text, inputs, and reference outcome.
#[derive(Debug)]
pub struct KernelCase {
    /// Registry name.
    pub name: &'static str,
    /// The unoptimized scalar kernel as `.snir` text.
    pub text: String,
    /// Inputs at the measured iteration count.
    pub args: Vec<ArgSpec>,
    /// The interpreter's run of the unoptimized kernel.
    pub reference: RunOutcome,
}

/// Everything a kernels measurement needs, built before timing.
#[derive(Debug)]
pub struct Setup {
    /// The kernels, in registry order.
    pub cases: Vec<KernelCase>,
    /// Total interpreter time of the reference runs, ms.
    pub reference_ms: f64,
}

/// Prints every kernel and runs its reference on the interpreter.
///
/// # Panics
///
/// Panics if the interpreter rejects an unoptimized kernel: the
/// registry's kernels and inputs are fixed, so that is a broken build.
pub fn setup(scale: Scale) -> Setup {
    let model = CostModel::default();
    let mut reference_ns = 0u128;
    let cases = snslp_kernels::registry()
        .into_iter()
        .map(|k| {
            let f = k.build();
            let args = match scale {
                Scale::Full => k.default_args(),
                Scale::Tiny => k.args(4),
            };
            let start = Instant::now();
            let reference = run_with_args(&f, &args, &model, &ExecOptions::default())
                .unwrap_or_else(|e| panic!("reference run of {} failed: {e}", k.name));
            reference_ns += start.elapsed().as_nanos();
            KernelCase {
                name: k.name,
                text: f.to_string(),
                args,
                reference,
            }
        })
        .collect();
    Setup {
        cases,
        reference_ms: reference_ns as f64 / 1e6,
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates on a SplitMix stream).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = snslp_fuzz::Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Reads every array argument back from `mem` after a run.
pub fn read_back(mem: &Memory, args: &[ArgSpec], values: &[Value]) -> Vec<ArrayData> {
    args.iter()
        .zip(values)
        .filter_map(|(spec, v)| {
            let Value::Ptr(base) = *v else { return None };
            Some(match spec {
                ArgSpec::F64Array(d) => ArrayData::F64(mem.read_slice_f64(base, d.len())),
                ArgSpec::F32Array(d) => ArrayData::F32(mem.read_slice_f32(base, d.len())),
                ArgSpec::I32Array(d) => ArrayData::I32(mem.read_slice_i32(base, d.len())),
                ArgSpec::I64Array(d) => ArrayData::I64(mem.read_slice_i64(base, d.len())),
                _ => return None,
            })
        })
        .collect()
}

/// A native run in the interpreter's outcome shape, so that
/// `outcomes_match` compares it (it reads only the return value and the
/// arrays).
pub fn outcome(ret: Option<Value>, arrays: Vec<ArrayData>) -> RunOutcome {
    RunOutcome {
        exec: ExecResult {
            function: String::new(),
            ret,
            cycles: 0,
            dyn_insts: 0,
            profile: DynProfile::default(),
        },
        arrays,
    }
}

/// Corrupts the first lane of the first array (or the returned value
/// when there is no array) by more than any tolerance: integers get
/// their low bit flipped, floats move by at least their own magnitude.
fn flip_lane(out: &mut RunOutcome) {
    fn far(v: f64) -> f64 {
        v + v.abs().max(1.0)
    }
    match out.arrays.first_mut() {
        Some(ArrayData::F64(v)) => v[0] = far(v[0]),
        Some(ArrayData::F32(v)) => v[0] = far(f64::from(v[0])) as f32,
        Some(ArrayData::I32(v)) => v[0] ^= 1,
        Some(ArrayData::I64(v)) => v[0] ^= 1,
        None => {
            out.exec.ret = match out.exec.ret.take() {
                Some(Value::I64(x)) => Some(Value::I64(x ^ 1)),
                Some(Value::I32(x)) => Some(Value::I32(x ^ 1)),
                Some(Value::F64(x)) => Some(Value::F64(far(x))),
                Some(Value::F32(x)) => Some(Value::F32(far(f64::from(x)) as f32)),
                other => other,
            }
        }
    }
}

/// Invokes `native` once on fresh inputs, checks it against the
/// reference, and returns the invoke time in ns.
fn invoke_checked(
    case: &KernelCase,
    native: &JitFunction,
    corrupt: bool,
    tr: &mut Tracer,
    op: u64,
) -> Result<f64, String> {
    let s = tr.enter("bench.inputs", op);
    let (mut mem, values) = materialize_args(&case.args);
    tr.exit(s);
    let opts = ExecOptions::default();
    let s = tr.enter("jit.exec", op);
    let start = Instant::now();
    let run = native.invoke(&values, &mut mem, &opts);
    let ns = start.elapsed().as_nanos() as f64;
    tr.exit(s);
    let s = tr.enter("bench.check", op);
    let checked = check_run(case, run, &mem, &values, corrupt);
    tr.exit(s);
    checked.map(|()| ns)
}

fn check_run(
    case: &KernelCase,
    run: Result<snslp_jit::NativeRun, snslp_interp::ExecError>,
    mem: &Memory,
    values: &[Value],
    corrupt: bool,
) -> Result<(), String> {
    let run = run.map_err(|e| format!("native run failed: {e}"))?;
    let mut got = outcome(run.ret, read_back(mem, &case.args, values));
    if corrupt {
        flip_lane(&mut got);
    }
    outcomes_match(&case.reference, &got)
}

/// Samples of one measurement phase, per kernel × mode row, one sample
/// per round, in host-calibrated time (see [`crate::calib`]).
#[derive(Debug)]
pub struct Measured {
    /// The fastest of the round's invokes, ns.
    pub exec_ns: Vec<[Vec<f64>; 4]>,
    /// Text-to-entry-point times, µs.
    pub compile_us: Vec<[Vec<f64>; 4]>,
    /// Row latencies (compile plus the round's invokes), µs.
    pub row_us: Vec<[Vec<f64>; 4]>,
    /// Rows completed.
    pub completed: u64,
    /// Time inside completed rows, µs.
    pub timed_us: f64,
    /// Code bytes (from the last round).
    pub code_bytes: Vec<[u64; 4]>,
    /// Compile-side layer work.
    pub acc: CompileAcc,
    /// Rows attempted.
    pub attempted: u64,
    /// Rounds completed.
    pub rounds: usize,
}

/// One completed row of one round, as measured.
#[derive(Debug, Clone, Copy)]
struct Sample {
    exec_ns: f64,
    compile_us: f64,
    row_us: f64,
}

/// The median across rounds of each row, in kernel-major order (0 for a
/// row without samples, which only a failed row has). Each round places
/// the code at new addresses, so the median keeps placement variance in
/// the figure: code that is slow in most placements reads slow, where a
/// minimum would report the luckiest placement.
fn across_rounds(rows: &[[Vec<f64>; 4]]) -> Vec<f64> {
    rows.iter()
        .flat_map(|r| r.iter().map(|v| percentile(&sorted(v.clone()), 50.0)))
        .collect()
}

impl Measured {
    /// Rows completed per second inside timed rows.
    pub fn ops_per_s(&self) -> f64 {
        per_second(self.completed, self.timed_us)
    }
}

/// Runs kernel rounds one at a time, so that other workloads can spread
/// a few of them over their own run.
#[derive(Debug)]
pub struct Rounds<'a> {
    setup: &'a Setup,
    pipelines: [Pipeline; 4],
    order: Vec<usize>,
    corrupt_next: bool,
    last: Instant,
    /// The samples so far.
    pub m: Measured,
}

impl<'a> Rounds<'a> {
    /// No rounds yet; `seed` fixes the kernel order.
    pub fn new(setup: &'a Setup, seed: u64, fault: Fault) -> Rounds<'a> {
        let n = setup.cases.len();
        let rows = || (0..n).map(|_| Default::default()).collect();
        Rounds {
            setup,
            pipelines: Pipeline::all(),
            order: permutation(n, seed),
            corrupt_next: fault == Fault::FlipNativeLane,
            last: Instant::now(),
            m: Measured {
                exec_ns: rows(),
                compile_us: rows(),
                row_us: rows(),
                completed: 0,
                timed_us: 0.0,
                code_bytes: vec![[0; 4]; n],
                acc: CompileAcc::default(),
                attempted: 0,
                rounds: 0,
            },
        }
    }

    /// Compiles, runs and checks every kernel × mode row once, between
    /// two calibration probes. The round starts one kernel further along
    /// the seeded order than the last, so that no row always runs first,
    /// on caches another workload left cold.
    pub fn round(&mut self, tr: &mut Tracer, failures: &mut Failures) {
        let round = self.m.rounds;
        let n = self.order.len();
        let mut calib = Calibrator::single();
        let mut done = Vec::with_capacity(n * MODES.len());
        for pos in 0..n {
            for j in 0..MODES.len() {
                let ki = self.order[(round + pos) % n];
                let mi = (round + pos + j) % MODES.len();
                if let Some(sample) = self.row(ki, mi, tr, failures) {
                    done.push((ki, mi, sample));
                }
            }
        }
        let f = calib.factor();
        let m = &mut self.m;
        for (ki, mi, s) in done {
            m.exec_ns[ki][mi].push(s.exec_ns * f);
            m.compile_us[ki][mi].push(s.compile_us * f);
            m.row_us[ki][mi].push(s.row_us * f);
            m.completed += 1;
            m.timed_us += s.row_us * f;
        }
        m.rounds += 1;
        self.last = Instant::now();
    }

    /// For a workload that interleaves kernel rounds with its own ops:
    /// whether [`PROBE_EVERY`] has passed since the last round.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= PROBE_EVERY
    }

    /// Compiles, runs and checks one row; `None` when it failed.
    fn row(
        &mut self,
        ki: usize,
        mi: usize,
        tr: &mut Tracer,
        failures: &mut Failures,
    ) -> Option<Sample> {
        let case = &self.setup.cases[ki];
        let m = &mut self.m;
        let op = m.attempted;
        m.attempted += 1;
        let root = tr.enter("op", op);
        let t0 = Instant::now();
        let compiled = compile_text(&case.text, &self.pipelines[mi], tr, op, &mut m.acc);
        let compile_us = t0.elapsed().as_secs_f64() * 1e6;
        let native = compiled.and_then(|c| {
            c.native
                .ok_or_else(|| "the JIT declined the kernel".to_string())
        });
        let native = match native {
            Ok(native) => native,
            Err(e) => {
                tr.exit(root);
                failures.fail(&format!("{} [{}]: {e}", case.name, MODES[mi]), || {
                    case.text.clone()
                });
                return None;
            }
        };
        m.code_bytes[ki][mi] = native.stats().code_bytes as u64;
        let mut row_us = compile_us;
        let mut fastest = f64::INFINITY;
        for _ in 0..INVOKES {
            let corrupt = std::mem::take(&mut self.corrupt_next);
            match invoke_checked(case, &native, corrupt, tr, op) {
                Ok(ns) => {
                    row_us += ns / 1e3;
                    fastest = fastest.min(ns);
                }
                Err(e) => {
                    tr.exit(root);
                    failures.fail(&format!("{} [{}]: {e}", case.name, MODES[mi]), || {
                        format!("{}\n; INPUTS: {:?}", case.text, case.args)
                    });
                    return None;
                }
            }
        }
        tr.exit(root);
        Some(Sample {
            exec_ns: fastest,
            compile_us,
            row_us,
        })
    }
}

/// Simulated cycles and dynamic instruction counts of every kernel under
/// every pipeline, from the interpreter; each optimized run is also
/// checked against the reference. Returns the per-kernel cycles, the
/// per-mode instruction totals and the number of runs checked.
fn simulate(setup: &Setup, failures: &mut Failures) -> (Vec<[f64; 4]>, [f64; 4], u64) {
    let model = CostModel::default();
    let mut cycles = Vec::new();
    let mut dyn_insts = [0.0; 4];
    let mut checked = 0;
    for case in &setup.cases {
        let mut row = [0.0; 4];
        for (mi, p) in Pipeline::all().iter().enumerate() {
            checked += 1;
            let mut f = snslp_ir::parse_function_str(&case.text).expect("kernel text parses");
            p.apply(&mut f);
            let verdict = run_with_args(&f, &case.args, &model, &ExecOptions::default())
                .map_err(|e| e.to_string())
                .and_then(|out| {
                    row[mi] = out.exec.cycles as f64;
                    dyn_insts[mi] += out.exec.dyn_insts as f64;
                    outcomes_match(&case.reference, &out)
                });
            if let Err(e) = verdict {
                failures.fail(
                    &format!("{} [{}] interpreted: {e}", case.name, MODES[mi]),
                    || f.to_string(),
                );
            }
        }
        cycles.push(row);
    }
    (cycles, dyn_insts, checked)
}

/// Sets the kernels' end-to-end values (native and simulated speed, code
/// size, compile time) from `m`; returns the interpreter runs checked.
pub fn end_to_end(setup: &Setup, m: &Measured, failures: &mut Failures, out: &mut Values) -> u64 {
    let (cycles, _, checked) = simulate(setup, failures);
    let exec = across_rounds(&m.exec_ns);
    for (mi, mode) in MODES.iter().enumerate() {
        let rows: Vec<f64> = exec.iter().skip(mi).step_by(MODES.len()).copied().collect();
        out.set(format!("native_ns_geomean.{mode}"), geomean(&rows));
        // The paper's gate compares O3, LSLP and SN-SLP.
        if *mode != "slp" {
            let sims: Vec<f64> = cycles.iter().map(|r| r[mi]).collect();
            out.set(format!("sim_cycles_geomean.{mode}"), geomean(&sims));
        }
    }
    out.set("compile_us_geomean", geomean(&across_rounds(&m.compile_us)));
    out.set(
        "native_code_bytes",
        m.code_bytes.iter().flatten().sum::<u64>() as f64,
    );
    checked
}

/// Spacing of the kernel rounds the other workloads interleave with
/// their own ops, so that their result line carries the kernels'
/// end-to-end metrics too, sampled across the whole run.
pub const PROBE_EVERY: Duration = Duration::from_millis(400);

/// Runs the `kernels_native` workload: whole rounds until the budget is
/// spent (at least two). A traced run alternates untraced and traced
/// rounds, so both sample the same stretch of the host's speed.
pub fn run(opts: &Opts) -> Outcome {
    let (setup, setup_s) = timed_setup(|| setup(opts.scale));
    let mut failures = Failures::default();
    let mut values = Values::default();
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    let mut plain = Rounds::new(&setup, opts.seed, opts.fault);
    let mut traced = opts.trace.then(|| {
        (
            Rounds::new(&setup, opts.seed, Fault::None),
            Tracer::new(true, epoch),
        )
    });
    let start = Instant::now();
    while plain.m.rounds < 2 || start.elapsed() < opts.budget() {
        plain.round(&mut off, &mut failures);
        if let Some((rounds, tr)) = traced.as_mut() {
            rounds.round(tr, &mut failures);
        }
    }
    let m = plain.m;
    let mut attempted = m.attempted;
    if let Some((rounds, tr)) = traced {
        let t = rounds.m;
        attempted += t.attempted;
        let times = layer_times(&[&tr]);
        t.acc.layer_values(&times, &mut values);
        values.set("interp.reference_ms", setup.reference_ms);
        let (_, dyn_insts, checked) = simulate(&setup, &mut failures);
        attempted += checked;
        for (mi, mode) in MODES.iter().enumerate() {
            values.set(format!("interp.dyn_insts.{mode}"), dyn_insts[mi]);
        }
        let exec = across_rounds(&t.exec_ns);
        for (ki, case) in setup.cases.iter().enumerate() {
            for (mi, mode) in MODES.iter().enumerate() {
                let name = exec_row(case.name, mode);
                let samples = &t.exec_ns[ki][mi];
                let [q1, q2, q3] = quartiles(&mut samples.clone());
                eprintln!(
                    "perfbench: {name} across {} rounds: q1={q1:.0} median={q2:.0} q3={q3:.0} ns",
                    samples.len()
                );
                values.set(name, exec[ki * MODES.len() + mi]);
            }
        }
        values.set(
            "trace.overhead_pct",
            overhead_pct(m.ops_per_s(), t.ops_per_s()),
        );
        crate::finish_trace(opts, &times, &[&tr]);
    } else {
        attempted += end_to_end(&setup, &m, &mut failures, &mut values);
        let rows = sorted(m.row_us.iter().flatten().flatten().copied().collect());
        eprintln!(
            "perfbench: kernels_native p50/p99 over {} row latencies",
            rows.len()
        );
        values.set("setup_s", setup_s);
        values.set("ops_per_s", m.ops_per_s());
        values.set("p50_us", percentile(&rows, 50.0));
        values.set("p99_us", percentile(&rows, 99.0));
        values.set("peak_rss_mib", peak_rss_mib());
    }
    Outcome::finish(attempted, failures.count(), values, opts.trace)
}
