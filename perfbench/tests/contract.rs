//! `BENCHMARK.json` names exactly the workloads and metrics this
//! benchmark runs and prints, within the driver's limits.

use chameleon_perfbench::metrics::{per_layer, END_TO_END};
use chameleon_perfbench::WORKLOADS;

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse(&text).expect("valid JSON")
}

fn entries(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    v[key]
        .as_array()
        .expect("an array")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("a name").to_owned();
            let unit = m
                .get("unit")
                .and_then(|u| u.as_str())
                .unwrap_or("")
                .to_owned();
            (name, unit)
        })
        .collect()
}

#[test]
fn keys_workloads_and_metrics_match_the_code() {
    let v = benchmark_json();
    let keys: Vec<&str> = v
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<String> = entries(&v, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(entries(&v, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(entries(&v, "per_layer"), layers);
}

#[test]
fn bounds_and_limits_hold() {
    let v = benchmark_json();
    let run_seconds = v["run_seconds"].as_u64().expect("whole seconds");
    assert!((1..=60).contains(&run_seconds));
    let mut setup_bound = 0.0;
    let mut max_other: f64 = 0.0;
    for m in v["end_to_end"].as_array().expect("an array") {
        let bound = m["bound"].as_f64().expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
        if m["name"].as_str() == Some("setup_s") {
            setup_bound = bound;
        } else {
            max_other = max_other.max(bound);
        }
    }
    assert!(
        setup_bound >= max_other,
        "setup_s carries the largest bound"
    );
    for w in v["workloads"].as_array().expect("an array") {
        assert!(w["why"].as_str().expect("a why").len() <= 200);
    }
}
