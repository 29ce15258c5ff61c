//! End-to-end and per-layer host-time benchmark of the chameleon
//! simulator. Every layer is timed from outside, around calls into the
//! simulator's public API; nothing inside the program is instrumented.
//!
//! See `README.md` for the workloads, the metrics and what each should
//! move.

pub mod measure;
pub mod metrics;
pub mod sim;
pub mod spine;
pub mod thousand;
pub mod zoo;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["opt-mcf", "opt-minighost", "zoo-sweep", "thousand"];

/// Fewest timed repetitions a run makes, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;

/// Worker threads for grids: the host's available parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The message of a caught panic.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_owned()
    }
}
