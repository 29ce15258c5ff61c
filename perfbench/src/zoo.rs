//! `zoo-sweep`: every registered scheme x mcf at the quick run scale
//! through the sweep engine at `available_parallelism` workers into a
//! fresh store, then the same grid resumed from that store.
//!
//! Cells warm their caches with the paper protocol inside `Job::run`, so
//! a cell's own set-up sits inside the grid's wall time; the traced run
//! splits it out per scheme.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use chameleon::{Architecture, ScaledParams, SystemReport};
use chameleon_sweep::{Job, RunScale, Store, SweepEngine, SweepOutcome};

use crate::measure::{cpu_seconds, fast_quarter, median, peak_rss_mib, Spans};
use crate::metrics::{spelling, Outcome};
use crate::sim::{probe_setup, record_os, record_sim};
use crate::{panic_message, workers};

/// Fewest fresh grids a run times: one grid is one CH-Flex cell long
/// (about 20 s here), so a run's median needs more than one.
pub const MIN_GRIDS: usize = 2;

/// Set-ups timed before each grid: one set-up is well under a
/// millisecond, so `setup_s` needs many samples.
pub const SETUP_REPS: usize = 25;

/// The application every cell runs.
pub const APP: &str = "mcf";

/// Laptop machine at the quick run scale.
pub fn params() -> ScaledParams {
    let mut p = ScaledParams::laptop();
    p.instructions_per_core = RunScale::Quick.instructions();
    p
}

/// One job per registered scheme, in `Architecture::all()` order.
pub fn jobs(seed: u64) -> Vec<Job> {
    let p = params();
    Architecture::all()
        .into_iter()
        .map(|a| Job::new(a, APP, &p, seed))
        .collect()
}

/// Set-up: a fresh store at `root` and the job list with its keys.
fn set_up(root: &Path, seed: u64) -> io::Result<(Store, Vec<Job>)> {
    if root.exists() {
        std::fs::remove_dir_all(root)?;
    }
    let store = Store::open(root)?;
    let jobs = jobs(seed);
    if jobs.iter().any(|j| store.path_for(j.key()).exists()) {
        return Err(io::Error::other("fresh store already holds a cell"));
    }
    Ok((store, jobs))
}

fn engine(store: &Store) -> SweepEngine {
    SweepEngine::new()
        .with_workers(workers())
        .with_store(store.clone())
        .quiet()
}

fn json(r: &SystemReport) -> String {
    serde_json::to_string(r).unwrap_or_default()
}

/// Counts one attempt per cell: the cell failed if the grid failed, or
/// its report differs from `reference`'s.
fn attempt_cells(
    out: &mut Outcome,
    what: &str,
    jobs: &[Job],
    grid: &Result<SweepOutcome, String>,
    reference: &[String],
) {
    for (i, job) in jobs.iter().enumerate() {
        let r = match grid {
            Err(e) => Err(format!("{what} {}: {e}", job.label())),
            Ok(o) if reference.get(i) != Some(&json(&o.reports[i])) => {
                Err(format!("{what} {}: report differs", job.label()))
            }
            Ok(_) => Ok(()),
        };
        out.attempt(r);
    }
}

/// Runs the grid and checks that exactly `cached` cells came from the
/// store and the rest were simulated.
fn run_grid(store: &Store, jobs: &[Job], cached: usize) -> Result<SweepOutcome, String> {
    let o = catch_unwind(AssertUnwindSafe(|| engine(store).run(jobs)))
        .map_err(|p| panic_message(p.as_ref()))?
        .map_err(|e| e.to_string())?;
    if o.cached != cached || o.ran != jobs.len() - cached {
        return Err(format!(
            "{} cells from the store and {} simulated, expected {cached} from the store",
            o.cached, o.ran
        ));
    }
    Ok(o)
}

/// Runs the workload: untraced, fresh grids (at least [`MIN_GRIDS`]) until
/// `seconds` pass, each resumed once; traced, a per-scheme set-up probe,
/// a serial `Job::run` of every cell with a timed `Store::save` /
/// `Store::load`, then one grid and its resume.
///
/// # Errors
///
/// Returns an I/O error if the scratch store cannot be made or removed.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
    spans: &mut Spans,
) -> io::Result<Outcome> {
    let root = out_dir.join(format!("store-{}", std::process::id()));
    let result = if traced {
        run_traced(seed, &root, spans)
    } else {
        run_untraced(seed, seconds, &root, spans)
    };
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }
    result
}

fn run_untraced(seed: u64, seconds: f64, root: &Path, spans: &mut Spans) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let mut refs = 0.0;
    let start = Instant::now();
    let mut id = 0;
    while wall.len() < MIN_GRIDS || start.elapsed().as_secs_f64() < seconds {
        let mut timed_set_up = || {
            let (made, s) = spans.time(id, "set-up", None, || set_up(root, seed));
            setup.push(s);
            made
        };
        let mut made = timed_set_up()?;
        for _ in 1..SETUP_REPS {
            made = timed_set_up()?;
        }
        let (store, jobs) = made;
        let cpu0 = cpu_seconds();
        let (fresh, s) = spans.time(id, "SweepEngine::run fresh", None, || {
            run_grid(&store, &jobs, 0)
        });
        cpu.push(cpu_seconds() - cpu0);
        wall.push(s);
        let reference: Vec<String> = match &fresh {
            Ok(o) => {
                refs = o.reports.iter().map(|r| r.run.total_mem_ops() as f64).sum();
                o.reports.iter().map(json).collect()
            }
            Err(_) => Vec::new(),
        };
        attempt_cells(&mut out, "fresh", &jobs, &fresh, &reference);
        let (resumed, _) = spans.time(id, "SweepEngine::run resume", None, || {
            run_grid(&store, &jobs, jobs.len())
        });
        attempt_cells(&mut out, "resumed", &jobs, &resumed, &reference);
        id += 1;
    }
    let cells = jobs(seed).len() as f64;
    let v = &mut out.values;
    v.set("maccess_per_s", refs / fast_quarter(&wall) / 1e6);
    v.set("cells_per_s", cells / fast_quarter(&wall));
    v.set("setup_s", fast_quarter(&setup));
    v.set("cpu_s", fast_quarter(&cpu));
    // Peak over every grid: which cell overlaps CH-Flex's peak on the
    // other worker varies from grid to grid.
    v.set("peak_rss_mb", peak_rss_mib());
    Ok(out)
}

fn run_traced(seed: u64, root: &Path, spans: &mut Spans) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    probe_setup(&params(), APP, seed, &mut out, spans);

    // Serial pass: each cell alone, then its store round trip.
    let serial_root: PathBuf = root.with_extension("serial");
    let (store, jobs) = set_up(&serial_root, seed)?;
    let mut serial: Vec<String> = Vec::new();
    let mut reports: Vec<SystemReport> = Vec::new();
    let (mut busy, mut save_ms, mut load_ms) = (0.0, Vec::new(), Vec::new());
    for (i, job) in jobs.iter().enumerate() {
        let id = i as u64;
        let name = spelling(job.arch);
        let (r, s) = spans.time(id, &format!("Job::run {name}"), None, || {
            catch_unwind(AssertUnwindSafe(|| job.run()))
                .unwrap_or_else(|p| Err(panic_message(p.as_ref())))
        });
        busy += s;
        out.values.set(format!("sweep.cell_s.{name}"), s);
        let r = r.and_then(|report| {
            let (saved, s) = spans.time(id, "Store::save", None, || store.save(job, &report));
            saved.map_err(|e| e.to_string())?;
            save_ms.push(s * 1e3);
            let (loaded, s) = spans.time(id, "Store::load", None, || store.load(job));
            load_ms.push(s * 1e3);
            match loaded {
                Some(l) if json(&l) == json(&report) => Ok(report),
                _ => Err("store round trip changed the report".to_owned()),
            }
        });
        out.attempt(
            r.as_ref()
                .map(|_| ())
                .map_err(|e| format!("serial {}: {e}", job.label())),
        );
        serial.push(r.as_ref().map(json).unwrap_or_default());
        if let Ok(report) = r {
            reports.push(report);
        }
    }
    std::fs::remove_dir_all(&serial_root)?;

    let (store, jobs) = set_up(root, seed)?;
    let (fresh, wall) = spans.time(100, "SweepEngine::run fresh", None, || {
        run_grid(&store, &jobs, 0)
    });
    attempt_cells(&mut out, "grid", &jobs, &fresh, &serial);
    let (resumed, resume_s) = spans.time(100, "SweepEngine::run resume", None, || {
        run_grid(&store, &jobs, jobs.len())
    });
    attempt_cells(&mut out, "resumed", &jobs, &resumed, &serial);

    let v = &mut out.values;
    v.set("sweep.worker_busy_frac", busy / (workers() as f64 * wall));
    v.set("sweep.store_save_ms", median(&save_ms));
    v.set("sweep.store_load_ms", median(&load_ms));
    v.set("sweep.resume_cells_per_s", jobs.len() as f64 / resume_s);
    if let Some(opt) = reports
        .iter()
        .find(|r| r.arch == Architecture::ChameleonOpt.label())
    {
        record_sim(v, opt);
        v.set("workloads.mem_ops", opt.run.total_mem_ops() as f64);
    }
    record_os(v, &reports);
    let kib: Vec<f64> = serial.iter().map(|s| s.len() as f64 / 1024.0).collect();
    v.set("simkit.report_kb", median(&kib));
    Ok(out)
}
