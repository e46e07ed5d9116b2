//! Golden-file tests for the optimization-remark stream.
//!
//! Each `.snir` fixture is compiled under SN-SLP while the `remarks`
//! trace facet is captured; the rendered record lines must match the
//! checked-in golden file byte for byte. Regenerate after an intentional
//! change with:
//!
//! ```text
//! SNSLP_BLESS=1 cargo test -p snslp-core --test remarks_golden
//! ```

use std::path::PathBuf;

use snslp_core::{run_slp, FunctionReport, SlpConfig, SlpMode};
use snslp_ir::parse_function_str;
use snslp_trace::{Counter, Facet};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snir")
        .join(format!("{name}.snir"))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.remarks"))
}

/// Compares `actual` against the golden file for `name` (or rewrites it
/// under `SNSLP_BLESS=1`).
fn compare_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with SNSLP_BLESS=1"));
    assert_eq!(
        actual, expected,
        "remark stream for `{name}` diverged from {path:?}; \
         rerun with SNSLP_BLESS=1 if intentional"
    );
}

/// Runs SN-SLP over a fixture, capturing the remark stream, and checks it
/// against the golden file. Returns the report for extra assertions.
fn check_golden(name: &str) -> FunctionReport {
    check_golden_with(name, &SlpConfig::new(SlpMode::SnSlp))
}

/// [`check_golden`] under an explicit pass configuration (fixtures whose
/// interesting remark only fires on a non-default target or tuning).
fn check_golden_with(name: &str, cfg: &SlpConfig) -> FunctionReport {
    let src = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
    let mut f = parse_function_str(&src).expect("fixture parses");
    let mut report = None;
    let lines = snslp_trace::capture(Facet::Remarks as u32, || {
        report = Some(run_slp(&mut f, cfg));
    });
    let report = report.unwrap();

    // The emitted stream and the remarks retained on the report are the
    // same records.
    assert_eq!(
        lines.len(),
        report.remarks.len(),
        "one sink record per report remark"
    );
    assert_eq!(
        report.metrics.get(Counter::RemarksEmitted),
        report.remarks.len() as u64,
    );

    compare_golden(name, &(lines.join("\n") + "\n"));
    report
}

#[test]
fn fig3_trunk_reorder_remarks() {
    let report = check_golden("fig3_trunk_reorder");
    let r = &report.remarks[0];
    assert!(r.vectorized);
    assert_eq!(r.reason, snslp_trace::ReasonCode::Profitable);
    assert_eq!(r.cost, Some(-6));

    // Metrics registry agrees with the per-graph stats: this fixture
    // vectorizes on the first (SN-SLP) attempt, so the counters match the
    // chosen graphs exactly — and both kinds of reordering moves fired.
    let stat_leaf: usize = report.graphs.iter().map(|g| g.leaf_moves).sum();
    let stat_trunk: usize = report.graphs.iter().map(|g| g.trunk_assisted_moves).sum();
    assert!(stat_leaf > 0 && stat_trunk > 0, "{:?}", report.graphs);
    assert_eq!(report.metrics.get(Counter::LeafMoves), stat_leaf as u64);
    assert_eq!(
        report.metrics.get(Counter::TrunkAssistedMoves),
        stat_trunk as u64
    );
    assert_eq!(report.metrics.get(Counter::GraphsVectorized), 1);
    assert!(report.metrics.get(Counter::SeedsCollected) >= 1);
}

#[test]
fn muldiv_supernode_remarks() {
    let report = check_golden("muldiv_supernode");
    assert!(
        report.remarks.iter().any(|r| r.vectorized),
        "{:#?}",
        report.remarks
    );
    assert_eq!(
        report.metrics.get(Counter::GraphsVectorized),
        report.vectorized_graphs() as u64
    );
}

#[test]
fn aliasing_blocks_vectorization_remarks() {
    let report = check_golden("aliasing_blocks_vectorization");
    let r = &report.remarks[0];
    assert!(!r.vectorized);
    assert_eq!(r.reason, snslp_trace::ReasonCode::Aliasing);
    assert_eq!(report.metrics.get(Counter::GraphsVectorized), 0);
}

#[test]
fn cost_param_stores_remarks() {
    let report = check_golden("cost_param_stores");
    let r = &report.remarks[0];
    assert!(!r.vectorized);
    assert_eq!(r.reason, snslp_trace::ReasonCode::Cost);
}

#[test]
fn unsupported_extract_stores_remarks() {
    let report = check_golden("unsupported_extract_stores");
    let r = &report.remarks[0];
    assert!(!r.vectorized);
    assert_eq!(r.reason, snslp_trace::ReasonCode::UnsupportedOpcode);
}

#[test]
fn nonconsecutive_gap_loads_remarks() {
    let report = check_golden("nonconsecutive_gap_loads");
    let r = &report.remarks[0];
    assert!(!r.vectorized);
    assert_eq!(r.reason, snslp_trace::ReasonCode::NonConsecutive);
}

#[test]
fn too_narrow_reduction_remarks() {
    // Only interesting on the 256-bit target: the 5-leaf f32 tree is
    // narrower than the 8-lane vector factor there.
    let cfg = SlpConfig::new(SlpMode::SnSlp).with_model(snslp_cost::CostModel::new(
        snslp_cost::TargetDesc::avx2_like(),
    ));
    let report = check_golden_with("too_narrow_reduction", &cfg);
    let r = &report.remarks[0];
    assert!(!r.vectorized);
    assert_eq!(r.reason, snslp_trace::ReasonCode::TooNarrow);
}

#[test]
fn scheduling_failure_remark_renders() {
    // The pass defends against scheduling cycles before costing (lane
    // cross-dependence and in-span aliasing both gather), but reduction
    // seeds can still reach the codegen cycle check: the two
    // `snir/fuzz/fuzz_s*_min.snir` reproducers do (see
    // `scheduling_failure_leaves_function_valid`). Their remark text
    // carries fuzz-generated names, so the golden for this reason code
    // renders an explicitly-constructed remark through the same sink
    // path the pass uses.
    let remark = snslp_trace::Remark {
        pass: "snslp".to_string(),
        function: "@synthetic".to_string(),
        block: "entry".to_string(),
        site: "%t9".to_string(),
        inst: 9,
        decision: snslp_trace::DecisionId::new("synthetic", "entry", 0, 9),
        seed_kind: "store".to_string(),
        width: 2,
        vectorized: false,
        reason: snslp_trace::ReasonCode::SchedulingFailure,
        cost: Some(-2),
        detail: "SchedulingCycle".to_string(),
    };
    let lines = snslp_trace::capture(Facet::Remarks as u32, || remark.emit());
    compare_golden("scheduling_failure_synthetic", &(lines.join("\n") + "\n"));
}

#[test]
fn scheduling_failure_leaves_function_valid() {
    // Reduction graphs whose extracts would close a dependence cycle:
    // codegen must report the failure and leave the function as it was,
    // so later seeds in the same block still see consistent IR.
    for name in ["fuzz/fuzz_s2d_i2077_min", "fuzz/fuzz_s50_i863_min"] {
        let src = std::fs::read_to_string(fixture_path(name)).expect("fixture exists");
        let orig = parse_function_str(&src).expect("fixture parses");
        for mode in [SlpMode::Slp, SlpMode::Lslp, SlpMode::SnSlp] {
            let mut f = orig.clone();
            let mut report = None;
            // Captured, so these remarks stay out of the sibling tests'
            // golden streams.
            let lines = snslp_trace::capture(Facet::Remarks as u32, || {
                report = Some(run_slp(&mut f, &SlpConfig::new(mode).with_verification()));
            });
            let report = report.unwrap();
            assert!(
                report
                    .remarks
                    .iter()
                    .any(|r| r.reason == snslp_trace::ReasonCode::SchedulingFailure),
                "{name} [{mode:?}]: no scheduling-failure remark"
            );
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains("reason=scheduling-failure")),
                "{name} [{mode:?}]: remark stream lacks the failure:\n{lines:#?}"
            );
            snslp_ir::verify(&f).unwrap_or_else(|e| panic!("{name} [{mode:?}]: {e}\n{f}"));
        }
    }
}

#[test]
fn cost_misprediction_remark_renders() {
    // Cost-misprediction remarks are emitted by the dynamic calibration
    // layer in `snslp-bench` (predicted vs achieved savings joined per
    // kernel), not by the pass over IR, so the golden for this reason
    // code renders a representatively-constructed remark through the
    // same sink path the calibration uses.
    let remark = snslp_trace::Remark {
        pass: "snslp".to_string(),
        function: "@milc_su3".to_string(),
        block: "-".to_string(),
        site: "-".to_string(),
        inst: 0,
        decision: snslp_trace::DecisionId::new("milc_su3", "-", 0, 0),
        seed_kind: "calibration".to_string(),
        width: 2,
        vectorized: true,
        reason: snslp_trace::ReasonCode::CostMisprediction,
        cost: Some(-7),
        detail: "achieved=1.2/iter ratio=0.17".to_string(),
    };
    let lines = snslp_trace::capture(Facet::Remarks as u32, || remark.emit());
    compare_golden("cost_misprediction_synthetic", &(lines.join("\n") + "\n"));
}

#[test]
fn jit_fallback_remark_renders() {
    // JIT-fallback remarks are emitted by `snslp-jit::compile` when the
    // native backend declines a function (unsupported opcode, oversized
    // frame) and the interpreter result stands. The jit crate sits above
    // this one, so the golden renders a remark with exactly the shape
    // `snslp_jit::fallback_remark` constructs through the same sink.
    let remark = snslp_trace::Remark {
        pass: "jit".to_string(),
        function: "@cast_heavy".to_string(),
        block: "entry".to_string(),
        site: "%0".to_string(),
        inst: 0,
        decision: snslp_trace::DecisionId::new("cast_heavy", "entry", 0, 0),
        seed_kind: "function".to_string(),
        width: 0,
        vectorized: false,
        reason: snslp_trace::ReasonCode::JitFallback,
        cost: None,
        detail: "cast fptosi is not lowered".to_string(),
    };
    let lines = snslp_trace::capture(Facet::Remarks as u32, || remark.emit());
    compare_golden("jit_fallback_synthetic", &(lines.join("\n") + "\n"));
}

#[test]
fn every_reason_code_appears_in_a_golden_stream() {
    // Exhaustiveness: each ReasonCode must be exercised by at least one
    // checked-in golden remark stream, so a renderer or classifier change
    // to any code is caught byte-for-byte by some fixture.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut corpus = String::new();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().map(|e| e == "remarks").unwrap_or(false) {
            corpus.push_str(&std::fs::read_to_string(&path).unwrap());
        }
    }
    for code in snslp_trace::ReasonCode::ALL {
        let needle = format!("reason={}", code.code());
        assert!(
            corpus.contains(&needle),
            "no golden remark stream in {dir:?} contains `{needle}`; \
             add a fixture (or bless the existing ones) covering it"
        );
    }
}

#[test]
fn remarks_silent_when_facet_disabled() {
    let src = std::fs::read_to_string(fixture_path("fig3_trunk_reorder")).unwrap();
    let mut f = parse_function_str(&src).unwrap();
    let mut report = None;
    let lines = snslp_trace::capture(0, || {
        report = Some(run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp)));
    });
    assert!(lines.is_empty(), "no facet, no records: {lines:?}");
    // ... but the report still carries the remarks and metrics.
    let report = report.unwrap();
    assert!(!report.remarks.is_empty());
    assert!(report.metrics.get(Counter::BundlesAttempted) > 0);
}
