//! Attribution self-test: a fixed busy-wait injected into the memory
//! adapter on memory-level replies only must show up in
//! `system.access_ns.mem` and leave `system.access_ns.l1` and
//! `workloads.decode_ns` within their own spread.

use chameleon::{Architecture, ScaledParams};
use chameleon_perfbench::measure::{median, Spans};
use chameleon_perfbench::spine::{repetition, Cell};

const INJECT_NS: u64 = 2_000;
const PAIRS: u64 = 7;

fn cell() -> Cell {
    let mut params = ScaledParams::tiny();
    params.instructions_per_core = 200_000;
    Cell {
        arch: Architecture::ChameleonOpt,
        app: "mcf",
        params,
        instructions: 200_000,
    }
}

/// (l1 ns, mem ns, decode ns) of one traced repetition.
fn traced(inject: u64, id: u64) -> ([f64; 3], String) {
    let mut spans = Spans::new(true);
    let rep = repetition::<true>(&cell(), 7, inject, &mut spans, id).expect("repetition runs");
    rep.check.clone().expect("reconciles");
    let a = rep.access.mean_ns();
    ([a[0], a[3], rep.decode.mean_ns()], rep.json)
}

#[test]
fn injected_memory_delay_is_attributed_to_the_memory_level_only() {
    let (mut base, mut inj) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    for i in 0..PAIRS {
        // Alternate so both sides see the same host phases.
        let (b, jb) = traced(0, 2 * i);
        let (x, jx) = traced(INJECT_NS, 2 * i + 1);
        base.push(b);
        inj.push(x);
        reports.push(jb);
        reports.push(jx);
    }
    assert!(
        reports.iter().all(|r| *r == reports[0]),
        "injection must not change the simulated report"
    );
    let col = |v: &[[f64; 3]], k: usize| v.iter().map(|r| r[k]).collect::<Vec<_>>();
    // Memory: moved by the injected amount. The busy-wait is a loop
    // calibrated once, and the host's speed drifts by up to 2x, so the
    // wait itself is only known to within that factor.
    let moved = median(&col(&inj, 1)) - median(&col(&base, 1));
    assert!(
        moved > 0.4 * INJECT_NS as f64 && moved < 2.5 * INJECT_NS as f64,
        "mem moved {moved} ns for {INJECT_NS} ns injected"
    );
    // L1 and decode: the injected median stays inside the baseline's
    // range widened by that range (and by at least 5 ns of timer noise).
    for (k, name) in [(0, "system.access_ns.l1"), (2, "workloads.decode_ns")] {
        let b = col(&base, k);
        let lo = b.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = b.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let slack = (hi - lo).max(5.0);
        let m = median(&col(&inj, k));
        assert!(
            m >= lo - slack && m <= hi + slack,
            "{name} moved: injected median {m} outside baseline [{lo}, {hi}] +- {slack}"
        );
    }
}
