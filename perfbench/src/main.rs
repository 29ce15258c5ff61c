//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name with its unit, and
//! ends with a one-line JSON result. Untraced runs report the end-to-end
//! metrics, traced runs the per-layer ones. Spans of a traced run are
//! written to `out/` beside this package's manifest.

use std::path::PathBuf;
use std::process::ExitCode;

use chameleon_perfbench::measure::Spans;
use chameleon_perfbench::{spine, thousand, zoo, WORKLOADS};

/// The seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut spans = Spans::new(args.trace);
    let outcome = match args.workload.as_str() {
        "opt-mcf" => spine::run(
            &spine::Cell::opt("mcf", spine::MCF_INSTRUCTIONS),
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        ),
        "opt-minighost" => spine::run(
            &spine::Cell::opt("miniGhost", spine::MINIGHOST_INSTRUCTIONS),
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        ),
        "zoo-sweep" => match zoo::run(args.seed, args.seconds, args.trace, &out_dir, &mut spans) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: zoo-sweep: {e}");
                return ExitCode::FAILURE;
            }
        },
        "thousand" => thousand::run(args.seed, args.seconds, args.trace, &mut spans),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for why in &outcome.failures {
        eprintln!("perfbench: failed: {why}");
    }
    if args.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = spans.write_json(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.render(args.trace));
    ExitCode::SUCCESS
}
