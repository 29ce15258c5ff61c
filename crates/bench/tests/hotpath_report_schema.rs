//! Golden-schema test for the committed `BENCH_hotpath.json`: the
//! committed report must keep the shape `bench_hotpath` writes — schema
//! version, one scalar cell per table architecture, and the ratio gate's
//! committed Chameleon-Opt / flat-small ratio that `--check` compares
//! against.

use serde::Value;

fn committed_report() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json");
    let data = std::fs::read_to_string(&path).expect("committed BENCH_hotpath.json present");
    serde_json::parse(&data).expect("committed report parses")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name:?}")),
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

fn has_field(v: &Value, name: &str) -> bool {
    matches!(v, Value::Object(pairs) if pairs.iter().any(|(k, _)| k == name))
}

#[test]
fn committed_hotpath_report_matches_v4_schema() {
    let report = committed_report();
    assert_eq!(
        field(&report, "schema_version").as_u64(),
        Some(4),
        "BENCH_hotpath.json must be regenerated at schema v4"
    );
    for gone in ["stages", "batched_fill"] {
        assert!(!has_field(&report, gone), "v4 carries no {gone:?} section");
    }
    let Value::Array(cells) = field(&report, "cells") else {
        panic!("cells must be an array");
    };
    let archs: Vec<&str> = cells
        .iter()
        .map(|c| field(c, "arch").as_str().expect("arch is a string"))
        .collect();
    for want in [
        "PoM",
        "Chameleon",
        "Chameleon-Opt",
        "Alloy-Cache",
        "baseline_small_DDR (no stacked DRAM)",
    ] {
        assert!(archs.contains(&want), "missing {want} cell in {archs:?}");
    }
    for cell in cells {
        for gone in ["mode", "speedup"] {
            assert!(!has_field(cell, gone), "v4 cells carry no {gone:?}");
        }
        let ns = field(cell, "ns_per_access")
            .as_f64()
            .expect("ns_per_access");
        assert!(ns > 0.0, "ns_per_access must be positive");
        assert!(field(cell, "accesses").as_u64().unwrap_or(0) > 0);
    }
}

#[test]
fn committed_report_carries_the_gate_ratio() {
    let report = committed_report();
    let gate = field(&report, "gate");
    assert_eq!(field(gate, "numerator").as_str(), Some("Chameleon-Opt"));
    assert_eq!(
        field(gate, "denominator").as_str(),
        Some("baseline_small_DDR (no stacked DRAM)")
    );
    assert!(field(gate, "instructions_per_core").as_u64().unwrap_or(0) > 0);
    let Value::Array(pairs) = field(gate, "pair_ratios") else {
        panic!("pair_ratios must be an array");
    };
    assert!(
        pairs.len() % 2 == 1,
        "an odd pair count keeps the median a sample"
    );
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|r| r.as_f64().expect("ratios are numbers"))
        .collect();
    assert!(ratios.iter().all(|&r| r > 0.0), "ratios are positive");
    ratios.sort_by(f64::total_cmp);
    let ratio = field(gate, "ratio").as_f64().expect("ratio");
    assert_eq!(
        ratio,
        ratios[ratios.len() / 2],
        "the committed ratio is the median of the pair ratios"
    );
}
