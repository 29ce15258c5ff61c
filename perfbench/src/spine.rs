//! The per-reference spine: one rate-mode cell driven through
//! `MultiCore::run` with the benchmark's own stream and memory adapters.
//!
//! A repetition is `System::new` + `spawn_rate_workload` +
//! `prefault_all` (set-up), then `MultiCore::run` + `System::finalize`
//! (the measured phase). The simulated caches start empty after the
//! prefault. Traced, the adapters time 1 in [`SAMPLE_PERIOD`] calls and
//! bucket each access by the level its reply shows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use chameleon::cpu::{InstructionStream, MemorySystem, MultiCore, Op, Reply};
use chameleon::{Architecture, ScaledParams, System, SystemReport};

use crate::measure::{cpu_seconds, fast_quarter, median, peak_rss_mib, spin_ns, Spans};
use crate::metrics::Outcome;
use crate::sim::{probe_setup, record_os, record_sim};
use crate::{panic_message, MIN_REPS};

/// One in this many `next_op` / `access` calls is timed when traced. A
/// prime, so the sample never locks onto the driver's 32-op quantum.
pub const SAMPLE_PERIOD: u32 = 61;

/// An empty timed interval longer than this was interrupted; its sample
/// is dropped.
const INTERRUPTED_NS: f64 = 1_000.0;

/// Measured-phase budget per core of `opt-mcf`.
pub const MCF_INSTRUCTIONS: u64 = 750_000;

/// Measured-phase budget per core of `opt-minighost`.
pub const MINIGHOST_INSTRUCTIONS: u64 = 6_000_000;

/// Service levels, in bucket order.
pub const LEVELS: [&str; 4] = ["l1", "l2", "l3", "mem"];

/// One spine cell: scheme, application, machine and budget.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scheme simulated.
    pub arch: Architecture,
    /// Table II application, one copy per core.
    pub app: &'static str,
    /// Machine parameters.
    pub params: ScaledParams,
    /// Instructions per core in the measured phase.
    pub instructions: u64,
}

impl Cell {
    /// Chameleon-Opt at laptop scale (12 cores) running `app`.
    pub fn opt(app: &'static str, instructions: u64) -> Self {
        let mut params = ScaledParams::laptop();
        params.instructions_per_core = instructions;
        Self {
            arch: Architecture::ChameleonOpt,
            app,
            params,
            instructions,
        }
    }
}

/// Decode-side tallies of one stream adapter.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeStats {
    /// `next_op` calls that returned an op.
    pub ops: u64,
    /// Of those, loads and stores.
    pub mem_ops: u64,
    /// Timed calls.
    pub samples: u64,
    /// Wall ns summed over the timed calls, net of the timer.
    pub sampled_ns: f64,
    /// The timer's own cost summed over the timed calls.
    pub timer_ns: f64,
}

impl DecodeStats {
    fn add(&mut self, o: &DecodeStats) {
        self.ops += o.ops;
        self.mem_ops += o.mem_ops;
        self.samples += o.samples;
        self.sampled_ns += o.sampled_ns;
        self.timer_ns += o.timer_ns;
    }
}

/// One timed call. The timer's cost is measured in place, right before
/// the call, by an empty interval, and netted out of the call's time.
struct Sample {
    t0: Instant,
    t1: Instant,
}

impl Sample {
    #[inline]
    fn start() -> Self {
        let t0 = Instant::now();
        let t1 = Instant::now();
        Self { t0, t1 }
    }

    /// The call's ns net of the timer, and the timer's ns; `None` when
    /// an interrupt landed inside the empty interval, which would
    /// otherwise subtract the interrupt from the call.
    #[inline]
    fn finish(self) -> Option<(f64, f64)> {
        let t2 = Instant::now();
        let timer = (self.t1 - self.t0).as_nanos() as f64;
        (timer < INTERRUPTED_NS).then(|| ((t2 - self.t1).as_nanos() as f64 - timer, timer))
    }
}

/// Wraps one core's instruction stream. Untraced (`TRACE = false`) it
/// forwards and compiles to the bare call.
pub struct Stream<'a, S, const TRACE: bool> {
    inner: S,
    stats: &'a mut DecodeStats,
    countdown: u32,
}

impl<'a, S, const TRACE: bool> Stream<'a, S, TRACE> {
    /// Wraps `inner`, tallying into `stats`.
    pub fn new(inner: S, stats: &'a mut DecodeStats) -> Self {
        Self {
            inner,
            stats,
            countdown: SAMPLE_PERIOD,
        }
    }
}

impl<S: InstructionStream, const TRACE: bool> InstructionStream for Stream<'_, S, TRACE> {
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        if !TRACE {
            return self.inner.next_op();
        }
        self.countdown -= 1;
        let op = if self.countdown == 0 {
            self.countdown = SAMPLE_PERIOD;
            let sample = Sample::start();
            let op = self.inner.next_op();
            if let Some((net, timer)) = sample.finish() {
                self.stats.sampled_ns += net;
                self.stats.timer_ns += timer;
                self.stats.samples += 1;
            }
            op
        } else {
            self.inner.next_op()
        };
        if let Some(op) = op {
            self.stats.ops += 1;
            if !matches!(op, Op::Compute(_)) {
                self.stats.mem_ops += 1;
            }
        }
        op
    }
}

/// Access tallies of the memory adapter, by service level.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessStats {
    /// Every access, by level.
    pub refs: [u64; 4],
    /// Timed accesses, by level.
    pub samples: [u64; 4],
    /// Wall ns summed over the timed accesses, net of the timer, by level.
    pub sampled_ns: [f64; 4],
    /// The timer's own cost summed over every timed access.
    pub timer_ns: f64,
}

impl AccessStats {
    fn add(&mut self, o: &AccessStats) {
        for l in 0..4 {
            self.refs[l] += o.refs[l];
            self.samples[l] += o.samples[l];
            self.sampled_ns[l] += o.sampled_ns[l];
        }
        self.timer_ns += o.timer_ns;
    }
}

/// Wraps the system as the cores' memory. Traced, it buckets every
/// access by the latency its reply shows (L1, L1+L2, L1+L2+L3, more)
/// and times 1 in [`SAMPLE_PERIOD`].
pub struct Memory<'a, const TRACE: bool> {
    sys: &'a mut System,
    /// Reply latency of an L1, L2 and L3 hit.
    sram: [u64; 3],
    stats: AccessStats,
    countdown: u32,
    /// Busy-wait added to every memory-level access (the attribution
    /// self-test's fault injection; 0 otherwise).
    inject_mem_ns: u64,
}

impl<'a, const TRACE: bool> Memory<'a, TRACE> {
    /// Wraps `sys`, whose SRAM latencies come from `params`.
    pub fn new(sys: &'a mut System, params: &ScaledParams, inject_mem_ns: u64) -> Self {
        let l1 = u64::from(params.l1.latency);
        let l2 = l1 + u64::from(params.l2.latency);
        let l3 = l2 + u64::from(params.l3.latency);
        Self {
            sys,
            sram: [l1, l2, l3],
            stats: AccessStats::default(),
            countdown: SAMPLE_PERIOD,
            inject_mem_ns,
        }
    }

    #[inline]
    fn level(&self, reply: &Reply) -> usize {
        self.sram
            .iter()
            .position(|&l| l == reply.latency)
            .unwrap_or(3)
    }
}

impl<const TRACE: bool> MemorySystem for Memory<'_, TRACE> {
    #[inline]
    fn access(&mut self, core: usize, addr: u64, write: bool, now: u64) -> Reply {
        if !TRACE {
            return self.sys.access(core, addr, write, now);
        }
        self.countdown -= 1;
        let sampled = self.countdown == 0;
        if sampled {
            self.countdown = SAMPLE_PERIOD;
        }
        let sample = sampled.then(Sample::start);
        let reply = self.sys.access(core, addr, write, now);
        let level = self.level(&reply);
        if level == 3 && self.inject_mem_ns > 0 {
            spin_ns(self.inject_mem_ns);
        }
        if let Some((net, timer)) = sample.and_then(Sample::finish) {
            self.stats.sampled_ns[level] += net;
            self.stats.timer_ns += timer;
            self.stats.samples[level] += 1;
        }
        self.stats.refs[level] += 1;
        reply
    }
}

/// What one repetition measured and produced.
#[derive(Debug)]
pub struct Rep {
    /// `System::new` seconds.
    pub build_s: f64,
    /// `spawn_rate_workload` + `prefault_all` seconds.
    pub prefault_s: f64,
    /// `MultiCore::run` seconds.
    pub run_s: f64,
    /// `System::finalize` seconds.
    pub finalize_s: f64,
    /// Process CPU seconds over run + finalize.
    pub cpu_s: f64,
    /// The report and its JSON.
    pub report: SystemReport,
    /// `serde_json` of the report (byte-compared across repetitions).
    pub json: String,
    /// Decode tallies summed over cores (zero untraced).
    pub decode: DecodeStats,
    /// Access tallies (zero untraced).
    pub access: AccessStats,
    /// Failed output checks.
    pub check: Result<(), String>,
}

impl Rep {
    /// Set-up seconds: build + spawn + prefault.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.prefault_s
    }

    /// The measured phase: run + finalize.
    pub fn measured_s(&self) -> f64 {
        self.run_s + self.finalize_s
    }
}

/// Runs one repetition of `cell` with stream seed `seed`.
///
/// # Errors
///
/// Returns the message of a failed public call (unknown application,
/// prefault error).
pub fn repetition<const TRACE: bool>(
    cell: &Cell,
    seed: u64,
    inject_mem_ns: u64,
    spans: &mut Spans,
    id: u64,
) -> Result<Rep, String> {
    let rep = spans.begin(id, "repetition", None);
    let parent = rep.slot();
    let (mut sys, build_s) = spans.time(id, "System::new", parent, || {
        System::new(cell.arch, &cell.params)
    });
    let (streams, prefault_s) = {
        let open = spans.begin(id, "spawn+prefault_all", parent);
        let streams = sys.spawn_rate_workload(cell.app, cell.instructions, seed)?;
        sys.prefault_all().map_err(|e| e.to_string())?;
        (streams, spans.end(open))
    };

    let cores = cell.params.cores;
    let mut decode = vec![DecodeStats::default(); cores];
    let cpu0 = cpu_seconds();
    let (run, access, run_s) = {
        let wrapped: Vec<Stream<'_, _, TRACE>> = streams
            .into_iter()
            .zip(decode.iter_mut())
            .map(|(s, st)| Stream::new(s, st))
            .collect();
        let mut mem = Memory::<TRACE>::new(&mut sys, &cell.params, inject_mem_ns);
        let mut mc = MultiCore::new(cores, cell.params.core);
        let (run, run_s) = spans.time(id, "MultiCore::run", parent, || mc.run(wrapped, &mut mem));
        (run, mem.stats, run_s)
    };
    let (report, finalize_s) = spans.time(id, "System::finalize", parent, || sys.finalize(run));
    let cpu_s = cpu_seconds() - cpu0;
    spans.end(rep);

    let mut dsum = DecodeStats::default();
    decode.iter().for_each(|d| dsum.add(d));
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    let counts = hierarchy_counts(&sys);
    let check = check_hierarchy(&counts, &report).and_then(|()| {
        if TRACE {
            reconcile(&counts, &report, &dsum, &access)
        } else {
            Ok(())
        }
    });
    Ok(Rep {
        build_s,
        prefault_s,
        run_s,
        finalize_s,
        cpu_s,
        report,
        json,
        decode: dsum,
        access,
        check,
    })
}

fn counter(report: &SystemReport, name: &str) -> u64 {
    report.metrics.counters.get(name).copied().unwrap_or(0)
}

/// `(hits, misses)` of the L1s, the L2s (summed over cores) and the L3,
/// read from `System::hierarchy()`.
fn hierarchy_counts(sys: &System) -> [(u64, u64); 3] {
    let h = sys.hierarchy();
    let pair =
        |c: &chameleon::cache::SetAssocCache| (c.stats().hits.value(), c.stats().misses.value());
    let sum = |level: &dyn Fn(usize) -> (u64, u64)| {
        (0..h.cores())
            .map(level)
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    };
    [
        sum(&|c| pair(h.l1(c))),
        sum(&|c| pair(h.l2(c))),
        pair(h.l3()),
    ]
}

/// Checks that hold for every run: the report's published cache counters
/// equal `System::hierarchy()`'s, every memory reference reached the L1
/// once, and every demand access the policy saw was an L3 miss.
fn check_hierarchy(counts: &[(u64, u64); 3], report: &SystemReport) -> Result<(), String> {
    for (name, held) in ["l1", "l2", "l3"].iter().zip(counts) {
        let published = (
            counter(report, &format!("cache.{name}.hits")),
            counter(report, &format!("cache.{name}.misses")),
        );
        if published != *held {
            return Err(format!(
                "cache.{name} published {published:?} but the hierarchy holds {held:?}"
            ));
        }
    }
    let [(l1_hits, l1_misses), _, (_, l3_misses)] = *counts;
    let mem_ops = report.run.total_mem_ops();
    if l1_hits + l1_misses != mem_ops {
        return Err(format!(
            "L1 saw {} references but the cores issued {mem_ops}",
            l1_hits + l1_misses
        ));
    }
    let demand = counter(report, "hma.demand_accesses");
    if demand == 0 || demand > l3_misses {
        return Err(format!(
            "hma.demand_accesses {demand} is not within (0, L3 misses {l3_misses}]"
        ));
    }
    Ok(())
}

/// Reconciles the adapters' exact counts with the simulator's counters:
/// the L1 and memory buckets match exactly; the L2 and L3 buckets are
/// bounded by their caches' hits, which also count the dirty victims the
/// level above writes into them.
fn reconcile(
    counts: &[(u64, u64); 3],
    report: &SystemReport,
    decode: &DecodeStats,
    access: &AccessStats,
) -> Result<(), String> {
    let [(l1_hits, l1_misses), (l2_hits, _), (l3_hits, _)] = *counts;
    let [r1, r2, r3, rm] = access.refs;
    let demand = counter(report, "hma.demand_accesses");
    let total = r1 + r2 + r3 + rm;
    let checks = [
        (decode.mem_ops == total, "decoded loads+stores == accesses"),
        (
            total == report.run.total_mem_ops(),
            "accesses == cores' mem_ops",
        ),
        (r1 == l1_hits, "refs.l1 == L1 hits"),
        (r2 + r3 + rm == l1_misses, "refs.l2+l3+mem == L1 misses"),
        (rm == demand, "refs.mem == hma.demand_accesses"),
        (r2 <= l2_hits, "refs.l2 <= L2 hits"),
        (r3 <= l3_hits, "refs.l3 <= L3 hits"),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        None => Ok(()),
        Some((_, what)) => Err(format!(
            "reconciliation failed: {what} (refs {:?}, decoded mem ops {}, hierarchy {counts:?}, \
             demand {demand})",
            access.refs, decode.mem_ops
        )),
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl AccessStats {
    /// Sampled mean ns per access, by level.
    pub fn mean_ns(&self) -> [f64; 4] {
        std::array::from_fn(|l| mean(self.sampled_ns[l], self.samples[l]))
    }
}

impl DecodeStats {
    /// Sampled mean ns per `next_op`.
    pub fn mean_ns(&self) -> f64 {
        mean(self.sampled_ns, self.samples)
    }
}

/// Mean ns of the timer itself over every sample taken.
pub fn timer_ns(decode: &DecodeStats, access: &AccessStats) -> f64 {
    mean(
        decode.timer_ns + access.timer_ns,
        decode.samples + access.samples.iter().sum::<u64>(),
    )
}

/// Sums the tallies of traced repetitions.
fn totals(reps: &[&Rep]) -> (DecodeStats, AccessStats) {
    let mut d = DecodeStats::default();
    let mut a = AccessStats::default();
    for r in reps {
        d.add(&r.decode);
        a.add(&r.access);
    }
    (d, a)
}

/// Median of `f` over `reps`.
fn median_of(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Runs the spine workload for `seconds`: repetitions until the time is
/// spent (at least [`MIN_REPS`]), every report byte-identical to the
/// first. Traced, untraced and traced repetitions alternate so the
/// overhead is measured on the same host phase, and every scheme's
/// set-up is probed once.
pub fn run(cell: &Cell, seed: u64, seconds: f64, traced: bool, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    let mut first: Option<String> = None;
    // Peak RSS of one repetition: later ones reuse freed heap, and how
    // far the allocator's footprint creeps depends on how many fit.
    let mut first_rss = 0.0;
    let start = Instant::now();
    let min_reps = if traced { 2 * MIN_REPS } else { MIN_REPS } as u64;
    let mut id = 0;
    while id < min_reps || start.elapsed().as_secs_f64() < seconds {
        let trace_this = traced && id % 2 == 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if trace_this {
                repetition::<true>(cell, seed, 0, spans, id)
            } else {
                repetition::<false>(cell, seed, 0, spans, id)
            }
        }))
        .unwrap_or_else(|p| Err(panic_message(p.as_ref())));
        id += 1;
        let rep = match result {
            Ok(rep) => rep,
            Err(why) => {
                out.attempt(Err(why));
                continue;
            }
        };
        eprintln!(
            "rep {id}{}: setup {:.4} s, measured {:.4} s, {:.3} Mref/s",
            if trace_this { " (traced)" } else { "" },
            rep.setup_s(),
            rep.measured_s(),
            rep.report.run.total_mem_ops() as f64 / rep.measured_s() / 1e6
        );
        let same = first.get_or_insert_with(|| rep.json.clone()) == &rep.json;
        out.attempt(rep.check.clone().and_then(|()| {
            if same {
                Ok(())
            } else {
                Err(format!("repetition {id} report differs from the first"))
            }
        }));
        if trace_this {
            traced_reps.push(rep);
        } else {
            untraced.push(rep);
        }
        if first_rss == 0.0 {
            first_rss = peak_rss_mib();
        }
    }
    let u: Vec<&Rep> = untraced.iter().collect();
    if !traced {
        let fast = |f: fn(&Rep) -> f64| fast_quarter(&u.iter().map(|r| f(r)).collect::<Vec<_>>());
        let refs = u
            .first()
            .map_or(0.0, |r| r.report.run.total_mem_ops() as f64);
        let v = &mut out.values;
        v.set("maccess_per_s", refs / fast(Rep::measured_s) / 1e6);
        v.set("cells_per_s", 1.0 / fast(|r| r.setup_s() + r.measured_s()));
        v.set("setup_s", fast(Rep::setup_s));
        v.set("cpu_s", fast(|r| r.cpu_s));
        v.set("peak_rss_mb", first_rss);
        return out;
    }
    let t: Vec<&Rep> = traced_reps.iter().collect();
    let (decode, access) = totals(&t);
    let reps = t.len().max(1) as f64;
    let per_rep = |x: u64| x as f64 / reps;
    let dns = decode.mean_ns();
    let ans = access.mean_ns();
    let mem_ops = per_rep(decode.mem_ops);
    let v = &mut out.values;
    v.set("workloads.decode_ns", dns);
    v.set("workloads.ops", per_rep(decode.ops));
    v.set("workloads.mem_ops", mem_ops);
    // Self time: the traced run spans minus the children the samples
    // account for (decode per op, access per reference by level) and
    // minus the timer's own reads, about two per sample outside the
    // netted intervals.
    let run_ns: f64 = t.iter().map(|r| r.run_s * 1e9).sum();
    let children =
        dns * decode.ops as f64 + (0..4).map(|l| ans[l] * access.refs[l] as f64).sum::<f64>();
    let timer = 2.0 * (decode.timer_ns + access.timer_ns);
    v.set(
        "cpu.self_ns",
        (run_ns - children - timer) / (decode.mem_ops as f64).max(1.0),
    );
    for (l, name) in LEVELS.iter().enumerate() {
        v.set(format!("system.access_ns.{name}"), ans[l]);
        v.set(format!("system.refs.{name}"), per_rep(access.refs[l]));
    }
    if let Some(rep) = t.first() {
        record_sim(v, &rep.report);
        record_os(v, std::slice::from_ref(&rep.report));
        v.set("simkit.report_kb", rep.json.len() as f64 / 1024.0);
    }
    v.set("simkit.finalize_ms", median_of(&t, |r| r.finalize_s) * 1e3);
    // Each traced repetition against the untraced one run just before
    // it, so both sides of a pair share the host's phase.
    let ratios: Vec<f64> = u
        .iter()
        .zip(&t)
        .map(|(u, t)| t.run_s / u.run_s - 1.0)
        .collect();
    v.set("trace.overhead_frac", median(&ratios));
    v.set("trace.timer_ns", timer_ns(&decode, &access));
    probe_setup(&cell.params, cell.app, seed, &mut out, spans);
    out
}
