//! Simulated quantities and per-scheme set-up probes shared by the
//! workloads. Simulated values are deterministic per seed.

use chameleon::{Architecture, ScaledParams, System, SystemReport};

use crate::measure::Spans;
use crate::metrics::{spelling, Outcome, Values};

fn counter(report: &SystemReport, name: &str) -> f64 {
    report.metrics.counters.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Records the simulated cpu, cache, core, DRAM and simkit metrics of
/// one report (each workload passes its Chameleon-Opt report).
pub fn record_sim(v: &mut Values, r: &SystemReport) {
    v.set("cpu.ipc", r.run.geomean_ipc());
    for level in ["l1", "l2", "l3"] {
        let hits = counter(r, &format!("cache.{level}.hits"));
        let misses = counter(r, &format!("cache.{level}.misses"));
        v.set(
            format!("cache.{level}.hit_rate"),
            ratio(hits, hits + misses),
        );
    }
    v.set("cache.l3.misses", counter(r, "cache.l3.misses"));
    v.set("core.demand", counter(r, "hma.demand_accesses"));
    v.set("core.stacked_hit_rate", r.stacked_hit_rate);
    v.set("core.swaps", r.swaps as f64);
    v.set("core.fills", counter(r, "hma.fills"));
    v.set("core.writebacks", counter(r, "hma.writebacks"));
    v.set("core.isa_allocs", r.isa_allocs as f64);
    v.set("core.isa_frees", r.isa_frees as f64);
    v.set("core.cache_fraction", r.mode.cache_fraction());
    v.set("core.amat", r.amat);
    for dev in ["stacked", "offchip"] {
        let hits = counter(r, &format!("dram.{dev}.row_hits"));
        let all = hits
            + counter(r, &format!("dram.{dev}.row_closed"))
            + counter(r, &format!("dram.{dev}.row_conflicts"));
        v.set(format!("dram.{dev}.row_hit_rate"), ratio(hits, all));
        v.set(
            format!("dram.{dev}.bytes"),
            counter(r, &format!("dram.{dev}.bytes_transferred")),
        );
    }
    v.set("simkit.epochs", r.metrics.epochs.len() as f64);
}

/// Records the OS counters summed over every report a workload produced.
pub fn record_os(v: &mut Values, reports: &[SystemReport]) {
    for name in [
        "os.minor_faults",
        "os.major_faults",
        "os.allocs",
        "os.frees",
        "os.migrations",
        "os.hint_promotions",
    ] {
        v.set(name, reports.iter().map(|r| counter(r, name)).sum::<f64>());
    }
}

/// Times `System::new` and `spawn_rate_workload` + `prefault_all` for
/// every registered scheme on `params` running `app` (what each sweep
/// cell pays before its first reference), plus Chameleon-Opt's prefault
/// cost per page. A failed call counts as a failed operation.
pub fn probe_setup(
    params: &ScaledParams,
    app: &str,
    seed: u64,
    out: &mut Outcome,
    spans: &mut Spans,
) {
    for (i, arch) in Architecture::all().into_iter().enumerate() {
        let id = 1_000 + i as u64;
        let name = spelling(arch);
        let probe = spans.begin(id, &format!("setup-probe {name}"), None);
        let (mut sys, build_s) = spans.time(id, "System::new", probe.slot(), || {
            System::new(arch, params)
        });
        let open = spans.begin(id, "spawn+prefault_all", probe.slot());
        let result = sys
            .spawn_rate_workload(app, params.instructions_per_core, seed)
            .and_then(|_| sys.prefault_all().map_err(|e| e.to_string()));
        let prefault_s = spans.end(open);
        spans.end(probe);
        out.values.set(format!("core.build_s.{name}"), build_s);
        out.values.set(format!("os.prefault_s.{name}"), prefault_s);
        if arch == Architecture::ChameleonOpt {
            let os = sys.os().stats();
            let pages = os.minor_faults.value() + os.major_faults.value();
            out.values.set(
                "os.prefault_ns_per_page",
                prefault_s * 1e9 / pages.max(1) as f64,
            );
        }
        out.attempt(result.map_err(|e| format!("set-up probe {name}: {e}")));
    }
}
