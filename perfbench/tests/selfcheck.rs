//! Self-check of the benchmark: a tiny run of every workload emits every
//! metric `BENCHMARK.json` names, with its unit, and each oracle notices
//! a deliberately corrupted output.

use snslp_bench::json::Json;
use snslp_perfbench::report::{per_layer_names, END_TO_END};
use snslp_perfbench::{run, Fault, Opts, Scale, WORKLOADS};

fn tiny(workload: &str, trace: bool, fault: Fault) -> Json {
    let opts = Opts {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        fault,
    };
    Json::parse(&run(&opts).render()).expect("the result line is JSON")
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_num).expect(key)
}

/// `(name, unit)` of each metric of `kind` in `BENCHMARK.json`.
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(kind)
        .and_then(Json::as_arr)
        .expect(kind)
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_metrics(doc: &Json, want: &[(String, String)], nonzero: bool) {
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object");
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, names);
    for ((name, unit), (_, m)) in want.iter().zip(metrics) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Json::as_num).expect(name);
        assert!(v.is_finite(), "{name} = {v}");
        if nonzero {
            assert!(v > 0.0, "{name} must never be 0, got {v}");
        }
    }
}

#[test]
fn declared_metrics_match_the_code() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let doc = tiny(workload, trace, Fault::None);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(num(&doc, "attempted") >= 1.0, "{workload}");
            assert_eq!(num(&doc, "failed"), 0.0, "{workload}");
            if trace {
                check_metrics(&doc, &declared("per_layer"), false);
            } else {
                check_metrics(&doc, &declared("end_to_end"), true);
            }
        }
    }
}

#[test]
fn a_flipped_native_lane_is_a_failure() {
    let doc = tiny("kernels_native", false, Fault::FlipNativeLane);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(num(&doc, "failed"), 1.0);
}

#[test]
fn an_altered_reply_byte_is_a_failure() {
    let doc = tiny("serve_mixed", false, Fault::AlterReplyByte);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(num(&doc, "failed"), 1.0);
}
