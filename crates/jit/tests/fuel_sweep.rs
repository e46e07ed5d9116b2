//! Fuel sweeps and register-cache stress: the native code charges fuel
//! once per run of pure instructions and keeps values in registers
//! within a block, so every fuel budget, every eviction and every
//! helper call must still leave the interpreter's exact observables —
//! trap kind, remaining fuel, return bits and the whole memory image.
//!
//! Each case runs [`check_backends`] for every fuel value from 0 to
//! `dyn_insts + 1`: the budgets that trap at each instruction, the one
//! that just suffices, and one to spare. Off x86-64 Linux every run
//! reports `NotCovered` and the sweep checks only the fallback contract.

use snslp_core::{optimize_o3, run_slp, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::{run_with_args, ArgSpec, ExecOptions};
use snslp_ir::{BinOp, Function, FunctionBuilder, Param, ScalarType, Type, VectorType};
use snslp_jit::{check_backends, native_supported, BackendDiff};

/// Checks `f` on `args` at every fuel budget from 0 to `dyn_insts + 1`.
/// A run that traps anyway is swept up to its function's size, which
/// bounds the instructions a straight-line trap can execute.
fn sweep(what: &str, f: &Function, args: &[ArgSpec]) {
    let model = CostModel::default();
    let dyn_insts = match run_with_args(f, args, &model, &ExecOptions::default()) {
        Ok(r) => r.exec.dyn_insts,
        Err(_) => f.num_inst_slots() as u64,
    };
    for fuel in 0..=dyn_insts + 1 {
        let opts = ExecOptions { fuel };
        match check_backends(f, args, &model, &opts) {
            Ok(BackendDiff::Agreed) => {}
            Ok(BackendDiff::NotCovered { reason }) => {
                assert!(!native_supported(), "{what}: not covered: {reason}");
                return;
            }
            Err(div) => panic!("{what} at fuel {fuel} of {dyn_insts}: {div}"),
        }
    }
}

#[test]
fn kernels_agree_at_every_fuel_budget() {
    for name in ["motiv_leaf", "povray_shade"] {
        let kernel = snslp_kernels::kernel_by_name(name).expect("registry kernel");
        let args = kernel.args(2);
        for mode in [
            None,
            Some(SlpMode::Slp),
            Some(SlpMode::Lslp),
            Some(SlpMode::SnSlp),
        ] {
            let mut f = kernel.build();
            match mode {
                None => {
                    optimize_o3(&mut f);
                }
                Some(m) => {
                    run_slp(&mut f, &SlpConfig::new(m));
                }
            }
            let label = mode.map_or("o3", |m| m.label());
            sweep(&format!("{name} [{label}]"), &f, &args);
        }
    }
}

const F64X2: VectorType = VectorType {
    elem: ScalarType::F64,
    lanes: 2,
};

/// More simultaneously live `f64x2` and `i64` values than the cache has
/// XMM (13) and GPR (9) registers: all are loaded first and consumed in
/// reverse order, so the lowering must evict and reload.
#[test]
fn register_pressure_forces_evictions() {
    const N: usize = 20;
    let mut fb = FunctionBuilder::new(
        "pressure",
        vec![
            Param::noalias_ptr("v"),
            Param::noalias_ptr("w"),
            Param::noalias_ptr("out"),
        ],
        Type::scalar(ScalarType::I64),
    );
    let v = fb.func().param(0);
    let w = fb.func().param(1);
    let out = fb.func().param(2);
    let mut vecs = Vec::new();
    let mut ints = Vec::new();
    for i in 0..N as i64 {
        let p = fb.ptradd_const(v, 16 * i);
        vecs.push(fb.load_vector(F64X2, p));
        let q = fb.ptradd_const(w, 8 * i);
        ints.push(fb.load(ScalarType::I64, q));
    }
    let mut acc = vecs[N - 1];
    let mut sum = ints[N - 1];
    for i in (0..N - 1).rev() {
        acc = if i % 2 == 0 {
            fb.add(acc, vecs[i])
        } else {
            fb.binary_lanewise(vec![BinOp::Sub, BinOp::Add], acc, vecs[i])
        };
        sum = fb.binary(BinOp::Sub, ints[i], sum);
        let q = fb.ptradd_const(out, 16 * i as i64);
        fb.store(q, acc);
    }
    // Reuse the first values once more, long after they were evicted.
    let again = fb.mul(vecs[0], vecs[1]);
    let q = fb.ptradd_const(out, 16 * N as i64);
    fb.store(q, again);
    let last = fb.binary(BinOp::Mul, ints[0], ints[1]);
    let total = fb.binary(BinOp::Add, sum, last);
    fb.ret(Some(total));
    let f = fb.finish();

    let args = [
        ArgSpec::F64Array((0..2 * N).map(|i| i as f64 * 0.75 - 9.0).collect()),
        ArgSpec::I64Array((0..N as i64).map(|i| i * 1_000_003 - 7).collect()),
        ArgSpec::F64Array(vec![0.0; 2 * (N + 1)]),
    ];
    sweep("pressure", &f, &args);
}

/// `fmin` and `frem` are helper calls that clobber every caller-saved
/// register; cached floats and integers used after them must survive.
#[test]
fn helper_calls_preserve_cached_values() {
    for st in [ScalarType::F32, ScalarType::F64] {
        let mut fb = FunctionBuilder::new(
            "helpers",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("k"),
                Param::noalias_ptr("out"),
            ],
            Type::scalar(ScalarType::I64),
        );
        let a = fb.func().param(0);
        let k = fb.func().param(1);
        let out = fb.func().param(2);
        let sz = i64::from(st.size_bytes());
        let x = fb.load(st, a);
        let p = fb.ptradd_const(a, sz);
        let y = fb.load(st, p);
        let p = fb.ptradd_const(a, 2 * sz);
        let z = fb.load(st, p);
        let i = fb.load(ScalarType::I64, k);
        let p = fb.ptradd_const(k, 8);
        let j = fb.load(ScalarType::I64, p);
        let sum = fb.add(x, y); // live across both calls
        let m = fb.binary(BinOp::Min, x, z);
        let ij = fb.binary(BinOp::Mul, i, j); // GPR live across the calls
        let r = fb.binary(BinOp::Rem, sum, m);
        let t = fb.add(r, sum);
        let u = fb.mul(t, y);
        fb.store(out, u);
        let q = fb.ptradd_const(out, sz);
        fb.store(q, z);
        let total = fb.binary(BinOp::Add, ij, i);
        fb.ret(Some(total));
        let f = fb.finish();
        let vals = [2.5f64, -7.25, 1.5];
        let floats = match st {
            ScalarType::F32 => ArgSpec::F32Array(vals.iter().map(|&v| v as f32).collect()),
            _ => ArgSpec::F64Array(vals.to_vec()),
        };
        let zeros = match st {
            ScalarType::F32 => ArgSpec::F32Array(vec![0.0; 2]),
            _ => ArgSpec::F64Array(vec![0.0; 2]),
        };
        let args = [floats, ArgSpec::I64Array(vec![-3, 1 << 40]), zeros];
        sweep(&format!("helpers {st}"), &f, &args);
    }
}

/// A division by zero in the middle of a block traps after an earlier
/// store of the same block reached memory, and not before.
#[test]
fn mid_block_division_by_zero_keeps_the_earlier_store() {
    let mut fb = FunctionBuilder::new(
        "divz_after_store",
        vec![
            Param::noalias_ptr("a"),
            Param::new("d", Type::scalar(ScalarType::I64)),
        ],
        Type::scalar(ScalarType::I64),
    );
    let a = fb.func().param(0);
    let d = fb.func().param(1);
    let x = fb.load(ScalarType::I64, a);
    let y = fb.binary(BinOp::Mul, x, x);
    fb.store(a, y);
    let q = fb.binary(BinOp::Div, y, d);
    let p = fb.ptradd_const(a, 8);
    fb.store(p, q);
    fb.ret(Some(q));
    let f = fb.finish();
    let args = [ArgSpec::I64Array(vec![12, 0]), ArgSpec::I64(0)];
    let model = CostModel::default();
    let trap = run_with_args(&f, &args, &model, &ExecOptions::default()).unwrap_err();
    assert_eq!(trap.as_trap().map(|t| t.kind()), Some("division_by_zero"));
    sweep("divz", &f, &args);
    sweep(
        "div",
        &f,
        &[ArgSpec::I64Array(vec![12, 0]), ArgSpec::I64(5)],
    );
}
