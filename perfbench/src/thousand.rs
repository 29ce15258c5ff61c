//! `thousand`: the 1,000-job scenario preset on tiny parameters under
//! the preset schemes through `run_grid` at up to `available_parallelism`
//! workers. The only workload with process churn: spawn/exit pairs,
//! ISA-Alloc/Free on every admission and exit, core rebinding, and
//! guidance and AutoNUMA migrations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use chameleon::{Architecture, ScaledParams};
use chameleon_scenarios::{
    generate_jobs, run_grid, run_scenario, JobCell, ScenarioReport, ScenarioSpec,
};

use crate::measure::{cpu_seconds, fast_quarter, median, peak_rss_mib, Spans};
use crate::metrics::{scenario_schemes, spelling, Outcome};
use crate::sim::{probe_setup, record_os, record_sim};
use crate::{panic_message, workers, MIN_REPS};

/// The scenario preset.
pub const PRESET: &str = "thousand";

/// Set-up: the preset and the arrival schedule its reports must follow.
fn set_up(seed: u64) -> Result<(ScenarioSpec, Vec<JobCell>), String> {
    let spec = ScenarioSpec::by_name(PRESET)?;
    let cells = generate_jobs(&spec, seed);
    Ok((spec, cells))
}

/// Checks a report against the schedule: every job ran once, in id
/// order, as generated, and finished after it arrived and was scheduled.
fn check_report(r: &ScenarioReport, cells: &[JobCell]) -> Result<(), String> {
    if r.jobs.len() != cells.len() {
        return Err(format!("{} jobs reported of {}", r.jobs.len(), cells.len()));
    }
    for (j, c) in r.jobs.iter().zip(cells) {
        let same =
            j.id == c.id && j.tenant == c.tenant && j.class == c.class && j.arrival == c.arrival;
        if !same
            || j.first_scheduled < j.arrival
            || j.finish <= j.first_scheduled
            || j.busy_cycles == 0
        {
            return Err(format!("job {} does not follow the schedule", c.id));
        }
    }
    if r.latency.completed + r.batch.completed != cells.len() as u64 {
        return Err("class tallies miss jobs".to_owned());
    }
    let counter = |n: &str| r.system.metrics.counters.get(n).copied().unwrap_or(0);
    if counter("os.allocs") == 0 || counter("os.frees") == 0 {
        return Err("no allocation/free churn".to_owned());
    }
    let chameleon = r.arch == Architecture::ChameleonOpt.label();
    if chameleon && (r.system.isa_allocs == 0 || r.system.isa_frees == 0) {
        return Err("no ISA-Alloc/ISA-Free churn".to_owned());
    }
    Ok(())
}

fn json(reports: &[ScenarioReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| serde_json::to_string(r).unwrap_or_default())
        .collect()
}

fn grid(
    spec: &ScenarioSpec,
    params: &ScaledParams,
    seed: u64,
) -> Result<Vec<ScenarioReport>, String> {
    let archs = scenario_schemes();
    let w = workers().min(archs.len());
    catch_unwind(AssertUnwindSafe(|| run_grid(&archs, params, spec, seed, w)))
        .map_err(|p| panic_message(p.as_ref()))
}

/// The reports' JSON if every report follows the schedule.
fn checked(
    g: Result<Vec<ScenarioReport>, String>,
    cells: &[JobCell],
) -> Result<Vec<String>, String> {
    let g = g?;
    g.iter()
        .try_for_each(|r| check_report(r, cells).map_err(|e| format!("{}: {e}", r.arch)))?;
    Ok(json(&g))
}

/// Counts one attempt per scenario run of `got` against `reference`.
fn attempt_runs(
    out: &mut Outcome,
    what: &str,
    got: &Result<Vec<String>, String>,
    reference: &[String],
) {
    for (i, arch) in scenario_schemes().into_iter().enumerate() {
        let r = match got {
            Err(e) => Err(format!("{what} {}: {e}", spelling(arch))),
            Ok(g) if g.get(i) != reference.get(i) => {
                Err(format!("{what} {}: report differs", spelling(arch)))
            }
            Ok(_) => Ok(()),
        };
        out.attempt(r);
    }
}

/// Runs the workload: untraced, grids until `seconds` pass (at least
/// [`MIN_REPS`]), each byte-identical to the first; traced, a per-scheme
/// set-up probe, a serial timed `run_scenario` per scheme, then one grid
/// compared with the serial reports.
pub fn run(seed: u64, seconds: f64, traced: bool, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let params = ScaledParams::tiny();
    if traced {
        match set_up(seed) {
            Ok((spec, cells)) => run_traced(&spec, &cells, &params, seed, &mut out, spans),
            Err(e) => out.attempt(Err(e)),
        }
        return out;
    }
    let (mut setup, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut refs, mut first_rss) = (0.0, 0.0);
    let mut reference: Option<Vec<String>> = None;
    let start = Instant::now();
    let mut id = 0;
    while wall.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        // A set-up before every grid, so its samples see the same host
        // phases as the grids'.
        let (made, t) = spans.time(id, "set-up", None, || set_up(seed));
        setup.push(t);
        let (spec, cells) = match made {
            Ok(m) => m,
            Err(e) => {
                out.attempt(Err(e));
                break;
            }
        };
        let cpu0 = cpu_seconds();
        let (g, s) = spans.time(id, "run_grid", None, || grid(&spec, &params, seed));
        cpu.push(cpu_seconds() - cpu0);
        wall.push(s);
        if let Ok(g) = &g {
            refs = g.iter().map(|r| r.system.run.total_mem_ops() as f64).sum();
        }
        if first_rss == 0.0 {
            first_rss = peak_rss_mib();
        }
        let got = checked(g, &cells);
        let reference = reference.get_or_insert_with(|| got.clone().unwrap_or_default());
        attempt_runs(&mut out, "grid", &got, reference);
        id += 1;
    }
    let runs = scenario_schemes().len() as f64;
    let v = &mut out.values;
    v.set("maccess_per_s", refs / fast_quarter(&wall) / 1e6);
    v.set("cells_per_s", runs / fast_quarter(&wall));
    v.set("setup_s", fast_quarter(&setup));
    v.set("cpu_s", fast_quarter(&cpu));
    v.set("peak_rss_mb", first_rss);
    out
}

fn run_traced(
    spec: &ScenarioSpec,
    cells: &[JobCell],
    params: &ScaledParams,
    seed: u64,
    out: &mut Outcome,
    spans: &mut Spans,
) {
    probe_setup(params, "mcf", seed, out, spans);
    let mut serial = Vec::new();
    for (i, arch) in scenario_schemes().into_iter().enumerate() {
        let name = spelling(arch);
        let (r, s) = spans.time(i as u64, &format!("run_scenario {name}"), None, || {
            catch_unwind(AssertUnwindSafe(|| run_scenario(arch, params, spec, seed)))
                .map_err(|p| panic_message(p.as_ref()))
        });
        out.values.set(format!("scenarios.run_s.{name}"), s);
        match r.and_then(|report| check_report(&report, cells).map(|()| report)) {
            Ok(report) => {
                let v = &mut out.values;
                v.set(
                    format!("scenarios.lat_p99.{name}"),
                    report.latency.p99_slowdown,
                );
                v.set(
                    format!("scenarios.batch_p99.{name}"),
                    report.batch.p99_slowdown,
                );
                v.set(
                    format!("scenarios.pressure_cycles.{name}"),
                    report.pressure_cycles as f64,
                );
                out.attempt(Ok(()));
                serial.push(report);
            }
            Err(e) => out.attempt(Err(format!("serial {name}: {e}"))),
        }
    }
    let reference = json(&serial);
    let (g, _) = spans.time(100, "run_grid", None, || grid(spec, params, seed));
    attempt_runs(out, "grid", &checked(g, cells), &reference);

    let v = &mut out.values;
    if let Some(opt) = serial.first() {
        record_sim(v, &opt.system);
        v.set("workloads.mem_ops", opt.system.run.total_mem_ops() as f64);
    }
    let systems: Vec<_> = serial.iter().map(|r| r.system.clone()).collect();
    record_os(v, &systems);
    let kib: Vec<f64> = reference.iter().map(|s| s.len() as f64 / 1024.0).collect();
    v.set("simkit.report_kb", median(&kib));
}
