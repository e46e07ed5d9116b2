//! Metric names, units, and the result line.

use snslp_bench::json::Json;
use snslp_trace::{Counter, MetricsSnapshot, Stage};

use crate::spans::LayerTime;
use std::collections::BTreeMap;

/// The pipelines every kernel runs under, in report order.
pub const MODES: [&str; 4] = ["o3", "slp", "lslp", "snslp"];

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_rate", "ok/op"),
    ("ops_per_s", "op/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("native_ns_geomean.o3", "ns"),
    ("native_ns_geomean.slp", "ns"),
    ("native_ns_geomean.lslp", "ns"),
    ("native_ns_geomean.snslp", "ns"),
    ("sim_cycles_geomean.o3", "cycles"),
    ("sim_cycles_geomean.lslp", "cycles"),
    ("sim_cycles_geomean.snslp", "cycles"),
    ("native_code_bytes", "bytes"),
    ("compile_us_geomean", "us"),
];

/// Per-layer metrics shared by every workload (the per-kernel
/// `jit.exec_ns.<kernel>.<mode>` rows are added from the registry).
pub const LAYERS: [(&str, &str); 40] = [
    ("ir.parse_us", "us"),
    ("ir.parse_mb_s", "MB/s"),
    ("ir.verify_us", "us"),
    ("core.pass_us", "us"),
    ("core.cleanup_us", "us"),
    ("core.seeds_us", "us"),
    ("core.graph_us", "us"),
    ("core.cost_us", "us"),
    ("core.codegen_us", "us"),
    ("core.bundles_attempted", "count/op"),
    ("core.graphs_vectorized", "count/op"),
    ("core.vectorized_frac", "ratio"),
    ("core.lookahead_hit_rate", "ratio"),
    ("core.gathers", "count/op"),
    ("jit.lower_us", "us"),
    ("jit.map_us", "us"),
    ("jit.coverage", "ratio"),
    ("jit.code_bytes", "bytes"),
    ("interp.reference_ms", "ms"),
    ("interp.dyn_insts.o3", "count"),
    ("interp.dyn_insts.slp", "count"),
    ("interp.dyn_insts.lslp", "count"),
    ("interp.dyn_insts.snslp", "count"),
    ("serve.request_total_p50_us", "us"),
    ("serve.request_total_p99_us", "us"),
    ("serve.parse_p50_us", "us"),
    ("serve.queue_p50_us", "us"),
    ("serve.compile_hit_p50_us", "us"),
    ("serve.compile_miss_p50_us", "us"),
    ("serve.render_p50_us", "us"),
    ("serve.write_p50_us", "us"),
    ("serve.memo_hit_rate", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.busy_replies", "count"),
    ("serve.error_replies", "count"),
    ("serve.bytes_in_per_req", "bytes"),
    ("serve.peak_queue_depth", "count"),
    ("serve.client_gap_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Name of the per-row native execution metric.
pub fn exec_row(kernel: &str, mode: &str) -> String {
    format!("jit.exec_ns.{kernel}.{mode}")
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for k in snslp_kernels::registry() {
        for m in MODES {
            out.push((exec_row(k.name, m), "ns"));
        }
    }
    out
}

/// A workload's measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output failed its oracle, plus refused or failed ops.
    pub failed: u64,
    /// Metric values, end-to-end or per-layer.
    pub values: Values,
    /// Whether `values` holds the per-layer metrics.
    pub traced: bool,
}

impl Outcome {
    /// Wraps a run's counts and values, adding `ok_rate` to a plain run.
    pub fn finish(attempted: u64, failed: u64, mut values: Values, traced: bool) -> Outcome {
        if !traced {
            let ok = attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64;
            values.set("ok_rate", ok);
        }
        Outcome {
            attempted,
            failed,
            values,
            traced,
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of the run's kind with its unit. A per-layer metric the
    /// workload's ops never reach reads 0 (no work in that layer).
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured: that is a bug in
    /// the workload, not in the program under test.
    pub fn render(&self) -> String {
        let names: Vec<(String, &str)> = if self.traced {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let metrics = names
            .into_iter()
            .map(|(name, unit)| {
                let value = match self.values.get(&name) {
                    Some(v) => v,
                    None if self.traced => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                let obj = Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]);
                (name, obj)
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.failed == 0)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render_compact()
    }
}

/// Oracle bookkeeping: counts failures and prints the first few, with
/// the failing input, to stderr.
#[derive(Debug, Default)]
pub struct Failures {
    count: u64,
}

impl Failures {
    /// Failures to print in full; the rest are only counted.
    const SHOWN: u64 = 5;

    /// Records one failed op.
    pub fn fail(&mut self, what: &str, input: impl FnOnce() -> String) {
        self.count += 1;
        if self.count <= Self::SHOWN {
            eprintln!(
                "perfbench: FAILED {what}\n--- failing input ---\n{}\n---",
                input()
            );
        }
    }

    /// Failures recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Compile-side layer work accumulated over a run's ops.
#[derive(Debug, Default)]
pub struct CompileAcc {
    /// Ops that reached the pipeline.
    pub ops: u64,
    /// `snslp-core` counters and stage timers summed over ops.
    pub core: MetricsSnapshot,
    /// Bytes of `.snir` text parsed.
    pub parse_bytes: u64,
    /// Functions handed to `jit::compile`.
    pub jit_attempted: u64,
    /// Functions `jit::compile` lowered.
    pub jit_lowered: u64,
    /// Machine-code bytes of the lowered functions.
    pub code_bytes: u64,
}

impl CompileAcc {
    /// The `ir.*`, `core.*` and `jit.*` metrics from this accumulator and
    /// the traced span times.
    pub fn layer_values(&self, times: &BTreeMap<&'static str, LayerTime>, out: &mut Values) {
        let per_span_us = |name: &str| {
            times
                .get(name)
                .filter(|t| t.count > 0)
                .map_or(0.0, |t| t.self_ns as f64 / t.count as f64 / 1e3)
        };
        let ops = self.ops.max(1) as f64;
        let per_op = |c: Counter| self.core.get(c) as f64 / ops;
        let stage_us = |s: Stage| self.core.stage_nanos(s) as f64 / ops / 1e3;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };

        out.set("ir.parse_us", per_span_us("ir.parse"));
        let parse_ns = times.get("ir.parse").map_or(0, |t| t.self_ns);
        out.set(
            "ir.parse_mb_s",
            if parse_ns == 0 {
                0.0
            } else {
                self.parse_bytes as f64 / parse_ns as f64 * 1e3
            },
        );
        out.set("ir.verify_us", per_span_us("ir.verify"));
        out.set("core.pass_us", per_span_us("core.pass"));
        out.set("core.cleanup_us", stage_us(Stage::Cleanup));
        out.set("core.seeds_us", stage_us(Stage::Seeds));
        out.set("core.graph_us", stage_us(Stage::GraphBuild));
        out.set("core.cost_us", stage_us(Stage::CostEval));
        out.set("core.codegen_us", stage_us(Stage::Codegen));
        out.set("core.bundles_attempted", per_op(Counter::BundlesAttempted));
        out.set("core.graphs_vectorized", per_op(Counter::GraphsVectorized));
        out.set(
            "core.vectorized_frac",
            ratio(
                self.core.get(Counter::GraphsVectorized),
                self.core.get(Counter::BundlesAttempted),
            ),
        );
        let hits = self.core.get(Counter::LookaheadCacheHits);
        let misses = self.core.get(Counter::LookaheadCacheMisses);
        out.set("core.lookahead_hit_rate", ratio(hits, hits + misses));
        out.set("core.gathers", per_op(Counter::GathersEmitted));
        out.set("jit.lower_us", per_span_us("jit.lower"));
        out.set("jit.map_us", per_span_us("jit.map"));
        out.set("jit.coverage", ratio(self.jit_lowered, self.jit_attempted));
        out.set("jit.code_bytes", ratio(self.code_bytes, self.jit_lowered));
    }
}

/// Tracing overhead in percent: how much longer an op took with spans
/// on than off, from the two phases' throughputs.
pub fn overhead_pct(plain_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    if traced_ops_per_s <= 0.0 {
        return 0.0;
    }
    (plain_ops_per_s / traced_ops_per_s - 1.0) * 100.0
}
