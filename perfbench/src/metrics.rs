//! Metric names, units and the result line.
//!
//! The names here are the contract with `BENCHMARK.json` (a test keeps
//! the two in step). Every run prints every end-to-end metric untraced
//! and every per-layer metric traced; a layer a workload does not
//! exercise, or cannot be observed from outside on it, reads 0.

use chameleon::Architecture;

/// The schemes of the scenario preset, in grid order.
pub fn scenario_schemes() -> Vec<Architecture> {
    vec![
        Architecture::ChameleonOpt,
        Architecture::Guided,
        Architecture::AutoNuma { threshold_pct: 90 },
    ]
}

/// The `Architecture::parse` spelling of `arch` (lower-case, `-`
/// separated: the form metric names embed).
pub fn spelling(arch: Architecture) -> String {
    Architecture::CANONICAL
        .iter()
        .find(|(_, a)| *a == arch)
        .map(|(name, _)| (*name).to_owned())
        .unwrap_or_else(|| match arch {
            Architecture::AutoNuma { threshold_pct } => format!("autonuma-{threshold_pct}"),
            other => other.label().to_ascii_lowercase(),
        })
}

/// End-to-end metrics with their units, in print order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("maccess_per_s", "Mref/s"),
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_owned(), unit));
    add("workloads.decode_ns", "ns");
    add("workloads.ops", "count");
    add("workloads.mem_ops", "count");
    add("cpu.self_ns", "ns");
    add("cpu.ipc", "instr/cycle");
    for level in ["l1", "l2", "l3", "mem"] {
        add(&format!("system.access_ns.{level}"), "ns");
    }
    for level in ["l1", "l2", "l3", "mem"] {
        add(&format!("system.refs.{level}"), "count");
    }
    for level in ["l1", "l2", "l3"] {
        add(&format!("cache.{level}.hit_rate"), "ratio");
    }
    add("cache.l3.misses", "count");
    let schemes: Vec<String> = Architecture::all().into_iter().map(spelling).collect();
    for s in &schemes {
        add(&format!("core.build_s.{s}"), "s");
    }
    for (name, unit) in [
        ("core.demand", "count"),
        ("core.stacked_hit_rate", "ratio"),
        ("core.swaps", "count"),
        ("core.fills", "count"),
        ("core.writebacks", "count"),
        ("core.isa_allocs", "count"),
        ("core.isa_frees", "count"),
        ("core.cache_fraction", "ratio"),
        ("core.amat", "cycles"),
    ] {
        add(name, unit);
    }
    for dev in ["stacked", "offchip"] {
        add(&format!("dram.{dev}.row_hit_rate"), "ratio");
        add(&format!("dram.{dev}.bytes"), "bytes");
    }
    for s in &schemes {
        add(&format!("os.prefault_s.{s}"), "s");
    }
    add("os.prefault_ns_per_page", "ns");
    for name in [
        "os.minor_faults",
        "os.major_faults",
        "os.allocs",
        "os.frees",
        "os.migrations",
        "os.hint_promotions",
    ] {
        add(name, "count");
    }
    add("simkit.epochs", "count");
    add("simkit.report_kb", "KiB");
    add("simkit.finalize_ms", "ms");
    for s in &schemes {
        add(&format!("sweep.cell_s.{s}"), "s");
    }
    add("sweep.worker_busy_frac", "ratio");
    add("sweep.store_save_ms", "ms");
    add("sweep.store_load_ms", "ms");
    add("sweep.resume_cells_per_s", "cells/s");
    let scen: Vec<String> = scenario_schemes().into_iter().map(spelling).collect();
    for s in &scen {
        add(&format!("scenarios.run_s.{s}"), "s");
    }
    for s in &scen {
        add(&format!("scenarios.lat_p99.{s}"), "slowdown");
        add(&format!("scenarios.batch_p99.{s}"), "slowdown");
        add(&format!("scenarios.pressure_cycles.{s}"), "cycles");
    }
    add("trace.overhead_frac", "ratio");
    add("trace.timer_ns", "ns");
    m
}

/// Values measured by one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Records `value` under `name` (a later record replaces it).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What a run reports: the outcome counts plus its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (repetitions, cells, resumes, scenario runs).
    pub attempted: u64,
    /// Attempted operations that panicked, errored or failed a check.
    pub failed: u64,
    /// Why each failure happened, for stderr.
    pub failures: Vec<String>,
    /// Measured values.
    pub values: Values,
}

impl Outcome {
    /// Counts one attempted operation; `Err` counts it failed.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// The catalogue this run prints: end-to-end untraced, per-layer
    /// traced.
    fn catalogue(traced: bool) -> Vec<(String, &'static str)> {
        if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| ((*n).to_owned(), *u))
                .collect()
        }
    }

    /// Human-readable metric lines followed by the one-line JSON result
    /// (the last line of the output). Unmeasured catalogue metrics read 0.
    pub fn render(&self, traced: bool) -> String {
        let mut text = String::new();
        let mut json = Vec::new();
        for (name, unit) in Self::catalogue(traced) {
            let v = self.values.get(&name).unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            text.push_str(&format!("{name:<36} {v:>16.6} {unit}\n"));
            json.push(format!(
                "{name:?}: {{\"value\": {v:?}, \"unit\": {unit:?}}}"
            ));
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        text.push_str(&format!(
            "{:<36} {frac:>16.6} ratio ({} of {} operations)\n",
            "failed_frac", self.failed, self.attempted
        ));
        text.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        ));
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_parse_back() {
        for arch in Architecture::all() {
            assert_eq!(Architecture::parse(&spelling(arch)), Ok(arch));
        }
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer();
        assert!(names.len() <= 128);
        for (i, (n, _)) in names.iter().enumerate() {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(names[..i].iter().all(|(m, _)| m != n), "duplicate {n}");
        }
    }

    #[test]
    fn render_ends_with_the_json_result() {
        let mut o = Outcome::default();
        o.attempt(Ok(()));
        o.values.set("setup_s", 0.25);
        let out = o.render(false);
        let v = serde_json::parse(out.lines().last().unwrap()).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(1));
        assert_eq!(v["failed"].as_u64(), Some(0));
        let metrics = v["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.25));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
    }
}
