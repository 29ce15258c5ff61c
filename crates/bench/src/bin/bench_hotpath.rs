//! Hot-path throughput rig: host nanoseconds per simulated memory
//! reference, per architecture, on a fixed workload — plus a same-run
//! ratio gate that catches hot-path regressions on any host.
//!
//! Every simulated reference walks `Core::step` → `System::access` →
//! translation → the SRAM hierarchy → `HmaPolicy::access`; this runner
//! measures how fast that walk goes on the host, independent of what it
//! simulates. A cell is `System::new` + `spawn_rate_workload` +
//! `prefault_all` (untimed), then `MultiCore::run` + `System::finalize`
//! (timed), on a fixed workload: mcf, base seed 1, tiny-scale
//! capacities. A table cell reports the fastest of `--reps` repetitions,
//! because host interference only ever slows a run down.
//!
//! The table's absolute numbers describe the host that measured them;
//! they are a record, not a gate. The gate compares two cells of one
//! process instead: Chameleon-Opt against flat-small, run in
//! [`GATE_PAIRS`] interleaved pairs, reduced to the median of the
//! per-pair ns/access ratios. Host speed largely cancels out of that
//! ratio, while a slowdown on the Chameleon-Opt spine (translation, the
//! L3 walk, the SRRT policy, the stacked DRAM model) moves it. `--check`
//! fails when the fresh median exceeds the committed ratio by more than
//! [`RATIO_TOLERANCE`].
//!
//! Usage: `bench_hotpath [--instr N] [--reps N] [--out PATH]`
//!        `bench_hotpath --check PATH`
//!   --instr N    instructions per core for each table cell
//!                (default 2,000,000)
//!   --reps N     repetitions per table cell; the fastest is reported
//!                (default 3)
//!   --out PATH   output JSON path (default BENCH_hotpath.json)
//!   --check PATH measure the gate ratio at the budget committed in
//!                PATH and fail (exit 1) if it exceeds the committed
//!                ratio by more than 10%; writes nothing
//! Malformed arguments print the usage and exit 2.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use chameleon::cpu::{MemorySystem, MultiCore};
use chameleon::{Architecture, ScaledParams, System};
use serde::{Deserialize, Serialize};

/// The committed report's shape version; `--check` and the bench-crate
/// schema test both pin it.
const HOTPATH_SCHEMA_VERSION: u32 = 4;

/// The fixed workload every cell runs.
const APP: &str = "mcf";

/// Base stream seed of every cell.
const SEED: u64 = 1;

/// Architectures of the table.
const ARCHS: [Architecture; 5] = [
    Architecture::Pom,
    Architecture::Chameleon,
    Architecture::ChameleonOpt,
    Architecture::Alloy,
    Architecture::FlatSmall,
];

/// Instructions per core of each gate cell when a report is written.
const GATE_INSTR: u64 = 250_000;

/// Interleaved (Chameleon-Opt, flat-small) pairs per gate measurement.
/// Odd, so the median is one measured pair. Many short pairs rather
/// than a few long ones: a burst of host interference then spoils a few
/// pairs, which the median ignores.
const GATE_PAIRS: usize = 101;

/// Fraction by which a fresh gate ratio may exceed the committed one.
const RATIO_TOLERANCE: f64 = 0.10;

const USAGE: &str = "usage: bench_hotpath [--instr N] [--reps N] [--out PATH]
       bench_hotpath --check PATH
  --instr N     instructions per core for each table cell (default 2000000)
  --reps N      repetitions per table cell; the fastest is reported (default 3)
  --out PATH    output JSON path (default BENCH_hotpath.json)
  --check PATH  fail (exit 1) if the Chameleon-Opt / flat-small ns/access
                ratio exceeds the one committed in PATH by more than 10%";

/// One architecture's hot-path throughput measurement.
#[derive(Debug, Serialize, Deserialize)]
struct HotpathCell {
    /// Architecture label (paper legend spelling).
    arch: String,
    /// Workload name.
    app: String,
    /// Simulated memory references the measured run issued.
    accesses: u64,
    /// Instructions retired across cores.
    instructions: u64,
    /// Wall-clock nanoseconds for the measured run.
    elapsed_ns: u64,
    /// Host throughput: simulated references per wall-clock second.
    accesses_per_sec: f64,
    /// Host cost: wall-clock nanoseconds per simulated reference.
    ns_per_access: f64,
}

/// One gate measurement: the Chameleon-Opt cell's ns/access over the
/// flat-small cell's, per interleaved pair.
#[derive(Debug, Serialize, Deserialize)]
struct RatioGate {
    /// Numerator architecture label.
    numerator: String,
    /// Denominator architecture label.
    denominator: String,
    /// Instructions per core of every gate cell.
    instructions_per_core: u64,
    /// Per-pair ns/access ratios, in measurement order.
    pair_ratios: Vec<f64>,
    /// Median of `pair_ratios`: what `--check` compares.
    ratio: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct HotpathReport {
    /// Report shape version. v4: scalar cells plus the ratio gate.
    schema_version: u32,
    /// Instructions per core each table cell ran.
    instructions_per_core: u64,
    /// Fixed workload every cell runs.
    app: String,
    /// Repetitions per table cell (the fastest is reported).
    reps: u32,
    /// Per-architecture measurements.
    cells: Vec<HotpathCell>,
    /// The committed gate ratio.
    gate: RatioGate,
}

/// The memory system a timed cell's references go through: the bare
/// [`System`], or an adapter wrapping it.
trait CellMemory: MemorySystem {
    /// The wrapped system; spawn, prefault and finalize call it directly.
    fn system(&mut self) -> &mut System;
}

impl CellMemory for System {
    fn system(&mut self) -> &mut System {
        self
    }
}

fn cell_params(instructions_per_core: u64) -> ScaledParams {
    let mut params = ScaledParams::tiny();
    params.instructions_per_core = instructions_per_core;
    params
}

/// Runs the fixed workload through `mem` and times its measured phase.
fn run_cell<M: CellMemory>(mut mem: M, params: &ScaledParams) -> HotpathCell {
    let sys = mem.system();
    let streams = sys
        .spawn_rate_workload(APP, params.instructions_per_core, SEED)
        .expect("mcf is a Table II app");
    sys.prefault_all().expect("prefault");
    sys.reset_measurement();
    let started = Instant::now();
    let run = MultiCore::new(params.cores, params.core).run(streams, &mut mem);
    let report = mem.system().finalize(run);
    let elapsed = started.elapsed();
    let accesses = report.run.total_mem_ops();
    let elapsed_ns = elapsed.as_nanos() as u64;
    HotpathCell {
        arch: report.arch,
        app: report.workload,
        accesses,
        instructions: report.run.total_instructions(),
        elapsed_ns,
        accesses_per_sec: accesses as f64 / elapsed.as_secs_f64().max(1e-12),
        ns_per_access: elapsed_ns as f64 / accesses.max(1) as f64,
    }
}

/// Best of `reps` runs of one architecture's cell.
fn best_cell(arch: Architecture, params: &ScaledParams, reps: u32) -> HotpathCell {
    (0..reps)
        .map(|_| run_cell(System::new(arch, params), params))
        .min_by_key(|c| c.elapsed_ns)
        .expect("at least one repetition")
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Measures the gate: `pairs` interleaved Chameleon-Opt and flat-small
/// cells in this process. The Chameleon-Opt side runs through
/// `wrap(system)`, so a caller can put an adapter in its path.
fn gate_ratio<M: CellMemory>(
    wrap: impl Fn(System) -> M,
    instructions_per_core: u64,
    pairs: usize,
) -> RatioGate {
    let params = cell_params(instructions_per_core);
    let opt = || {
        let sys = System::new(Architecture::ChameleonOpt, &params);
        run_cell(wrap(sys), &params).ns_per_access
    };
    let flat = || run_cell(System::new(Architecture::FlatSmall, &params), &params).ns_per_access;
    let pair_ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            // Alternate which side goes first, so a drift in host speed
            // within a pair favours neither.
            if i % 2 == 0 {
                let o = opt();
                o / flat()
            } else {
                let f = flat();
                opt() / f
            }
        })
        .collect();
    RatioGate {
        numerator: Architecture::ChameleonOpt.label(),
        denominator: Architecture::FlatSmall.label(),
        instructions_per_core,
        ratio: median(&pair_ratios),
        pair_ratios,
    }
}

fn load_report(path: &str) -> Result<HotpathReport, String> {
    let data = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let report: HotpathReport =
        serde_json::from_str(&data).map_err(|e| format!("parse {path}: {e}"))?;
    if report.schema_version != HOTPATH_SCHEMA_VERSION {
        return Err(format!(
            "{path}: schema_version {} (expected {HOTPATH_SCHEMA_VERSION}); \
             regenerate with `cargo run --release -p chameleon-bench --bin bench_hotpath`",
            report.schema_version
        ));
    }
    Ok(report)
}

/// The gate: measures the ratio fresh over `pairs` pairs, with the
/// Chameleon-Opt side going through `wrap`, and compares it with the
/// committed one.
fn check_gate<M: CellMemory>(
    committed: &RatioGate,
    wrap: impl Fn(System) -> M,
    pairs: usize,
) -> Result<(), String> {
    let fresh = gate_ratio(wrap, committed.instructions_per_core, pairs);
    let limit = committed.ratio * (1.0 + RATIO_TOLERANCE);
    let (lo, hi) = fresh
        .pair_ratios
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
            (lo.min(r), hi.max(r))
        });
    println!(
        "[check] {} / {} ns/access: median {:.4} of {} pairs (spread {lo:.4}..{hi:.4}) \
         vs committed {:.4}, limit {limit:.4}",
        fresh.numerator,
        fresh.denominator,
        fresh.ratio,
        fresh.pair_ratios.len(),
        committed.ratio
    );
    if fresh.ratio > limit {
        return Err(format!(
            "hot-path regression: ratio {:.4} exceeds committed {:.4} by more than {:.0}%",
            fresh.ratio,
            committed.ratio,
            RATIO_TOLERANCE * 100.0
        ));
    }
    Ok(())
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    instructions_per_core: u64,
    reps: u32,
    out: String,
    check: Option<String>,
}

/// A positive integer flag value.
fn positive<T: FromStr + Default + PartialEq>(
    flag: &str,
    value: Option<String>,
) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} takes a value"))?;
    match v.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        Ok(_) => Err(format!("{flag} must be at least 1")),
        Err(_) => Err(format!("{flag} takes a positive integer, got {v:?}")),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        instructions_per_core: 2_000_000,
        reps: 3,
        out: "BENCH_hotpath.json".to_owned(),
        check: None,
    };
    let mut table_flags = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instr" => parsed.instructions_per_core = positive(&arg, args.next())?,
            "--reps" => parsed.reps = positive(&arg, args.next())?,
            "--out" => parsed.out = args.next().ok_or("--out takes a path")?,
            "--check" => parsed.check = Some(args.next().ok_or("--check takes a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        table_flags |= arg != "--check";
    }
    if parsed.check.is_some() && table_flags {
        return Err("--check takes no other flag: its budget is the committed one".to_owned());
    }
    Ok(parsed)
}

fn write_report(args: &Args) -> Result<(), String> {
    let params = cell_params(args.instructions_per_core);
    println!(
        "[hotpath] {} instr/core, fixed workload {APP}, {} architectures, best of {}",
        args.instructions_per_core,
        ARCHS.len(),
        args.reps
    );
    let cells: Vec<HotpathCell> = ARCHS
        .iter()
        .map(|&arch| {
            let cell = best_cell(arch, &params, args.reps);
            println!(
                "  {:<38} {:>7.1} ns/access  ({} accesses)",
                cell.arch, cell.ns_per_access, cell.accesses
            );
            cell
        })
        .collect();
    let gate = gate_ratio(std::convert::identity, GATE_INSTR, GATE_PAIRS);
    println!(
        "  gate: {} / {} = {:.4} (median of {} pairs at {} instr/core)",
        gate.numerator, gate.denominator, gate.ratio, GATE_PAIRS, GATE_INSTR
    );
    let report = HotpathReport {
        schema_version: HOTPATH_SCHEMA_VERSION,
        instructions_per_core: args.instructions_per_core,
        app: APP.to_owned(),
        reps: args.reps,
        cells,
        gate,
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&args.out, json).map_err(|e| format!("write {}: {e}", args.out))?;
    println!("[saved {}]", args.out);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_hotpath: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.check {
        Some(path) => {
            load_report(path).and_then(|r| check_gate(&r.gate, std::convert::identity, GATE_PAIRS))
        }
        None => write_report(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("[hotpath] FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon::cpu::Reply;

    /// Gate cells and pairs in the test: few and small, so the debug
    /// build finishes fast.
    const TEST_INSTR: u64 = 50_000;
    const TEST_PAIRS: usize = 61;

    /// The slowdown the gate must catch.
    const INJECTED: f64 = 0.15;

    fn busy(iters: u64) {
        let mut x = 0u64;
        for i in 0..iters {
            x = std::hint::black_box(x.wrapping_add(i));
        }
    }

    /// Busy-loop iterations per host nanosecond: the fastest of three
    /// timed runs of the loop, since interference only slows it. The
    /// clock is read around whole runs, never per access.
    fn busy_rate() -> f64 {
        const CALIBRATION: u64 = 20_000_000;
        (0..3)
            .map(|_| {
                let started = Instant::now();
                busy(CALIBRATION);
                CALIBRATION as f64 / (started.elapsed().as_nanos() as f64).max(1.0)
            })
            .fold(0.0, f64::max)
    }

    /// Accesses between two busy-loops. A loop of a few ns on every
    /// access overlaps with the simulator's own cache misses on an
    /// out-of-order core, so its cost depends on the build and the host;
    /// one loop of several hundred ns every `PERIOD` accesses costs what
    /// the calibration says, and adds the same host time per access on
    /// average.
    const PERIOD: u32 = 64;

    /// Adds a calibrated busy-loop to the wrapped system's accesses.
    struct Slowed {
        sys: System,
        iters: u64,
        countdown: u32,
    }

    impl Slowed {
        fn new(sys: System, iters: u64) -> Self {
            Self {
                sys,
                iters,
                countdown: PERIOD,
            }
        }
    }

    impl MemorySystem for Slowed {
        fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> Reply {
            let reply = self.sys.access(core, addr, write, now);
            self.countdown -= 1;
            if self.countdown == 0 {
                self.countdown = PERIOD;
                busy(self.iters);
            }
            reply
        }
    }

    impl CellMemory for Slowed {
        fn system(&mut self) -> &mut System {
            &mut self.sys
        }
    }

    /// Median over interleaved pairs of the Chameleon-Opt cell's
    /// ns/access with `iters` busy iterations every [`PERIOD`] accesses
    /// over its ns/access without, minus one.
    fn slowdown(iters: u64, params: &ScaledParams) -> f64 {
        let pairs: Vec<f64> = (0..TEST_PAIRS)
            .map(|_| {
                let bare = System::new(Architecture::ChameleonOpt, params);
                let bare = run_cell(bare, params).ns_per_access;
                let sys = System::new(Architecture::ChameleonOpt, params);
                run_cell(Slowed::new(sys, iters), params).ns_per_access / bare
            })
            .collect();
        median(&pairs) - 1.0
    }

    /// Busy iterations per loop that add [`INJECTED`] of the
    /// Chameleon-Opt cell's host time per access: a first estimate from
    /// the loop's own rate, scaled once by the slowdown that estimate
    /// measures, because the loop also costs the simulator some of its
    /// cache contents and so slows it by more than its own run time.
    fn calibrate(params: &ScaledParams) -> u64 {
        let bare: Vec<f64> = (0..15)
            .map(|_| {
                let sys = System::new(Architecture::ChameleonOpt, params);
                run_cell(sys, params).ns_per_access
            })
            .collect();
        let estimate = (INJECTED * median(&bare) * f64::from(PERIOD) * busy_rate()).max(1.0);
        let measured = slowdown(estimate as u64, params).max(0.01);
        (estimate * INJECTED / measured).round() as u64
    }

    #[test]
    fn gate_passes_the_unchanged_spine_and_fails_a_15_percent_slowdown() {
        let params = cell_params(TEST_INSTR);
        let committed = gate_ratio(std::convert::identity, TEST_INSTR, TEST_PAIRS);
        let iters = calibrate(&params);
        let injected = slowdown(iters, &params);
        eprintln!(
            "{iters} busy iterations every {PERIOD} accesses slow Chameleon-Opt by {:.1}%",
            injected * 100.0
        );

        check_gate(&committed, std::convert::identity, TEST_PAIRS)
            .expect("the unchanged spine must pass its own gate");
        let slowed = check_gate(&committed, |sys| Slowed::new(sys, iters), TEST_PAIRS);
        assert!(
            slowed.is_err(),
            "a {:.1}% Chameleon-Opt slowdown must fail the gate",
            injected * 100.0
        );
    }
}
