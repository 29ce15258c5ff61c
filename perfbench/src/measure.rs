//! Host-side measurement: wall and process CPU time, peak resident set,
//! order statistics, and the in-memory span recorder.

use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 for every architecture's user-space ABI.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU seconds (user + system, every thread including exited
/// ones) from `/proc/self/stat`. Resolution is one tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces; fields are
    // counted from the state field (field 3) after its closing paren.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| {
        fields
            .get(n - 3)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field(14) + field(15)) as f64 / TICKS_PER_S
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The median of `xs` (the mean of the middle pair for even lengths);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of the smallest quarter of `xs` (at least one value); 0 for
/// an empty slice.
///
/// The per-run statistic of every host time: contention on this kind of
/// shared host comes in phases lasting seconds that slow everything up
/// to 2x, so a run's median moves with the phases it happens to catch,
/// while its fastest quarter repeats from run to run.
pub fn fast_quarter(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(4);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Busy-waits about `ns` nanoseconds with a calibrated arithmetic loop.
/// It reads no clock and issues no `spin_loop` hint: polling the clock
/// keeps the timer's code warm and so biases the samples taken after the
/// wait, and under a hypervisor a run of PAUSE instructions can trigger a
/// pause-loop exit.
pub fn spin_ns(ns: u64) {
    static ITERS_PER_NS: OnceLock<f64> = OnceLock::new();
    let rate = *ITERS_PER_NS.get_or_init(|| {
        const CALIBRATION: u64 = 20_000_000;
        let t0 = Instant::now();
        busy(CALIBRATION);
        CALIBRATION as f64 / (t0.elapsed().as_nanos() as f64).max(1.0)
    });
    busy((ns as f64 * rate) as u64);
}

fn busy(iters: u64) {
    let mut x = 0u64;
    for i in 0..iters {
        x = std::hint::black_box(x.wrapping_add(i));
    }
}

/// One timed interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Repetition (or cell) the span belongs to; spans of one
    /// repetition share it.
    pub id: u64,
    /// The call timed, e.g. `System::new`.
    pub name: String,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// An open span: its start and, when recording, its slot.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

impl Open {
    /// The slot of the span, for use as a parent.
    pub fn slot(&self) -> Option<usize> {
        self.slot
    }
}

/// Times calls; when enabled also keeps every span in memory until
/// [`Spans::write_json`]. Disabled, it only times (the untraced runs).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled` keeps spans, otherwise it only times.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span named `name` in repetition `id` under `parent`.
    pub fn begin(&mut self, id: u64, name: &str, parent: Option<usize>) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                id,
                name: name.to_owned(),
                parent,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        Open { start, slot }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = (now - self.origin).as_nanos() as u64;
        }
        (now - open.start).as_secs_f64()
    }

    /// Times `f` as one span and returns its result with the seconds.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(id, name, parent);
        let out = f();
        (out, self.end(open))
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as a JSON array to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"slot\": {i}, \"id\": {}, \"name\": {:?}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fast_quarter_averages_the_smallest_quarter() {
        assert_eq!(fast_quarter(&[5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0]), 1.5);
        assert_eq!(fast_quarter(&[4.0, 2.0]), 2.0);
        assert_eq!(fast_quarter(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_only_record_when_enabled() {
        let mut on = Spans::new(true);
        let outer = on.begin(7, "outer", None);
        let (_, inner_s) = on.time(7, "inner", outer.slot(), || spin_ns(1_000));
        let outer_s = on.end(outer);
        assert!(outer_s >= inner_s && inner_s > 0.0);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);

        let mut off = Spans::new(false);
        let (_, s) = off.time(0, "x", None, || spin_ns(1_000));
        assert!(s > 0.0);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn proc_readings_are_positive() {
        spin_ns(20_000_000);
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
