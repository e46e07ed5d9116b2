//! One compile op: `.snir` text to a callable native entry point, through
//! the public functions of `snslp-ir`, `snslp-core` and `snslp-jit`.

use snslp_core::{optimize_o3, run_slp, SlpConfig, SlpMode};
use snslp_ir::{parse_module, verify, Function};
use snslp_jit::JitFunction;
use snslp_trace::MetricsSnapshot;

use crate::report::CompileAcc;
use crate::spans::Tracer;

/// A pipeline of the paper's evaluation: scalar O3 cleanup, or one of
/// the three SLP vectorizers (each of which runs the cleanup first).
#[derive(Debug, Clone)]
pub enum Pipeline {
    /// `optimize_o3` only.
    O3,
    /// `run_slp` under this configuration.
    Slp(SlpConfig),
}

impl Pipeline {
    /// The four pipelines in [`crate::report::MODES`] order.
    pub fn all() -> [Pipeline; 4] {
        [
            Pipeline::O3,
            Pipeline::Slp(SlpConfig::new(SlpMode::Slp)),
            Pipeline::Slp(SlpConfig::new(SlpMode::Lslp)),
            Pipeline::Slp(SlpConfig::new(SlpMode::SnSlp)),
        ]
    }

    /// Runs the pipeline on `f` in place.
    pub fn apply(&self, f: &mut Function) {
        match self {
            Pipeline::O3 => {
                optimize_o3(f);
            }
            Pipeline::Slp(cfg) => {
                run_slp(f, cfg);
            }
        }
    }
}

/// The products of one compile op.
#[derive(Debug)]
pub struct Compiled {
    /// The optimized function.
    pub function: Function,
    /// Its mapped native code; `None` when the JIT declined it.
    pub native: Option<JitFunction>,
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Parses the single function in `text`, verifies it, runs `pipeline`,
/// lowers it with the JIT and maps the code. Layer work is added to
/// `acc`; with tracing on, each layer call gets a span under op `op`.
///
/// # Errors
///
/// A parse or verify rejection of generated text, a panic anywhere in
/// the program, or a refused mapping: each means the program failed on
/// valid input.
pub fn compile_text(
    text: &str,
    pipeline: &Pipeline,
    tr: &mut Tracer,
    op: u64,
    acc: &mut CompileAcc,
) -> Result<Compiled, String> {
    let depth = tr.depth();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compile_unguarded(text, pipeline, tr, op, acc)
    }));
    run.unwrap_or_else(|payload| {
        tr.unwind_to(depth);
        Err(format!(
            "the compiler panicked: {}",
            panic_message(&*payload)
        ))
    })
}

fn compile_unguarded(
    text: &str,
    pipeline: &Pipeline,
    tr: &mut Tracer,
    op: u64,
    acc: &mut CompileAcc,
) -> Result<Compiled, String> {
    let s = tr.enter("ir.parse", op);
    let parsed = parse_module(text);
    tr.exit(s);
    let mut function = parsed
        .map_err(|e| format!("parse error: {e}"))?
        .into_functions()
        .into_iter()
        .next()
        .ok_or("the text holds no function")?;
    acc.parse_bytes += text.len() as u64;

    let s = tr.enter("ir.verify", op);
    let verified = verify(&function);
    tr.exit(s);
    verified.map_err(|e| format!("verify error: {e}"))?;

    let before = MetricsSnapshot::current();
    let s = tr.enter("core.pass", op);
    pipeline.apply(&mut function);
    tr.exit(s);
    acc.core
        .merge(&MetricsSnapshot::current().delta_since(&before));
    acc.ops += 1;

    acc.jit_attempted += 1;
    let s = tr.enter("jit.lower", op);
    let lowered = snslp_jit::compile(&function);
    tr.exit(s);
    let Ok(lowered) = lowered else {
        return Ok(Compiled {
            function,
            native: None,
        });
    };
    acc.jit_lowered += 1;
    acc.code_bytes += lowered.stats().code_bytes as u64;

    let s = tr.enter("jit.map", op);
    let mapped = lowered.finalize();
    tr.exit(s);
    let native = mapped.map_err(|e| format!("jit finalize: {e}"))?;
    Ok(Compiled {
        function,
        native: Some(native),
    })
}
