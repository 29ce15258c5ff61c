//! Precomputed decode tables for the generators' hot paths.
//!
//! The address synthesisers ([`crate::AppStream`], [`crate::ZipfStream`],
//! [`crate::LoopStream`]) historically decided every memory op with
//! floating-point arithmetic: Bernoulli draws compared a converted f64
//! against a probability, and Zipf ranks inverted a power-law CDF with
//! two `powf` calls per draw. This module precomputes that work into
//! integer tables: a [`Bernoulli`] gate once per stream, a [`ZipfTable`]
//! once per `(lines, skew)`, shared by every stream of that shape
//! ([`crate::ZipfStream::with_table`]):
//!
//! * [`Bernoulli`] — the probability collapses to a 53-bit integer
//!   threshold ([`DeterministicRng::chance_threshold`]), so each draw is
//!   one RNG step and one integer compare. Exact by construction: the
//!   threshold counts precisely the accepting draws of the legacy
//!   float compare.
//! * [`ZipfTable`] — the first [`ZipfTable::HEAD_RANKS`] ranks (which
//!   absorb most of the u-measure at realistic skews) get exact draw
//!   boundaries, found by bracketed bisection *of the legacy formula
//!   itself*, so a head draw is a guide-table index plus a short scan —
//!   no `powf`. Tail draws fall back to the unchanged legacy formula.
//!
//! Every table replays the legacy decoder *draw-for-draw*: same RNG
//! consumption, same outputs. The streams keep the legacy path alive
//! behind a switch, and differential proptests
//! (`tests/decode_differential.rs`) assert address-for-address equality.

use chameleon_simkit::rng::DeterministicRng;

/// Draws per unit interval: the RNG's f64 helpers use the high 53 bits
/// of one raw draw, so `[0, 1)` has exactly `2^53` representable draws.
const FULL: u64 = 1 << 53;

/// An integer-threshold Bernoulli gate: the table form of
/// [`DeterministicRng::chance`]. One RNG step per draw, identical accept
/// set (see [`DeterministicRng::chance_threshold`] for the exactness
/// argument).
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    threshold: u64,
}

impl Bernoulli {
    /// Precomputes the gate for probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Self {
        Self {
            threshold: DeterministicRng::chance_threshold(p),
        }
    }

    /// `true` with the configured probability; draw-for-draw identical
    /// to `rng.chance(p)`.
    // lint: hot-path
    #[inline]
    pub fn draw(&self, rng: &mut DeterministicRng) -> bool {
        rng.chance_with(self.threshold)
    }
}

/// The Table-II op-mix decode table for one application: every per-op
/// Bernoulli decision [`crate::AppStream`] makes (population selection
/// and store/load kind), precomputed as integer-threshold gates. Built
/// by [`crate::AppSpec::op_gates`].
#[derive(Debug, Clone, Copy)]
pub struct OpMixGates {
    /// Streaming-vs-hot population gate (`stream_fraction`).
    pub stream: Bernoulli,
    /// Medium-working-set share within the streaming population
    /// (`medium_share`).
    pub medium: Bernoulli,
    /// Store-vs-load gate (`write_fraction`).
    pub write: Bernoulli,
}

/// Exact decode table for [`crate::ZipfStream`]'s bounded power-law rank
/// draw.
///
/// The legacy draw maps one RNG step `m ∈ [0, 2^53)` through
/// `u = min(m·2⁻⁵³, 1−10⁻¹²)` and the inverse CDF
/// `x(u) = ((nᵉ−1)·u + 1)^(1/e)` (or `n^u` at `s ≈ 1`), then truncates
/// and clamps to a rank. Every step of that pipeline is monotone
/// non-decreasing in `m` (correctly-rounded multiply/add, `pow`, integer
/// truncation), so each rank owns one contiguous interval of draws and
/// the map is fully described by its interval boundaries.
///
/// The table stores the boundaries of the first [`Self::HEAD_RANKS`]
/// ranks. Each boundary is found by bisecting the *legacy* rank function
/// over `m` — the table is exact by construction, not by re-deriving the
/// math — bracketed around an analytic first guess so the build costs a
/// handful of `powf` calls per rank. A coarse guide array (buckets of
/// `2^42` draws) turns a head decode into one guide load plus a short
/// boundary scan. Draws past the last head boundary take the legacy
/// formula unchanged.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    lines: u64,
    /// The skew the table was built for, verbatim.
    skew: f64,
    /// Whether the legacy `s ≈ 1` branch applies (same predicate).
    skew_is_one: bool,
    n: f64,
    /// `1 − skew` (general branch only).
    e: f64,
    inv_e: f64,
    /// `n^e − 1`, the legacy formula's per-draw constant.
    c: f64,
    /// `bounds[r]` = smallest draw `m` whose rank exceeds `r`.
    bounds: Vec<u64>,
    /// `bounds.last()`: draws below this decode from the table alone.
    head_limit: u64,
    /// `guide[m >> GUIDE_SHIFT]` = first candidate rank for `m`.
    guide: Vec<u32>,
}

impl ZipfTable {
    /// Ranks with precomputed boundaries. 4096 head ranks absorb ~75% of
    /// the u-measure at the default skew 0.99 over a 4 MiB footprint,
    /// and build in well under a millisecond.
    pub const HEAD_RANKS: usize = 4096;

    /// Guide bucket width (`2^42` draws ⇒ at most 2049 buckets).
    const GUIDE_SHIFT: u32 = 42;

    /// Builds the table for a footprint of `lines` lines and skew `skew`
    /// — the exact parameters the legacy draw uses.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or `skew` is negative.
    pub fn new(lines: u64, skew: f64) -> Self {
        assert!(lines > 0, "zipf table requires a non-empty footprint");
        assert!(skew >= 0.0, "zipf skew must be non-negative");
        let n = lines as f64;
        let skew_is_one = (skew - 1.0).abs() < 1e-9;
        let e = 1.0 - skew;
        let mut t = Self {
            lines,
            skew,
            skew_is_one,
            n,
            e,
            inv_e: 1.0 / e,
            c: n.powf(e) - 1.0,
            bounds: Vec::new(),
            head_limit: 0,
            guide: Vec::new(),
        };
        let head = Self::HEAD_RANKS.min(lines as usize);
        t.bounds.reserve(head);
        let mut prev = 0u64;
        for r in 0..head as u64 {
            let b = t.boundary(r, prev);
            t.bounds.push(b);
            prev = b;
            if b == FULL {
                // Every draw already decodes from the table; further
                // ranks are unreachable.
                break;
            }
        }
        t.head_limit = *t.bounds.last().unwrap_or(&0);
        // Guide: for each bucket, the rank of the bucket's first draw.
        let buckets = (t.head_limit >> Self::GUIDE_SHIFT) as usize + 1;
        t.guide.reserve(buckets);
        let mut r = 0usize;
        for b in 0..buckets as u64 {
            let m = b << Self::GUIDE_SHIFT;
            while r < t.bounds.len() && t.bounds[r] <= m {
                r += 1;
            }
            t.guide.push(r as u32);
        }
        t
    }

    /// Footprint in lines the table was built for.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Skew exponent the table was built for.
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// The legacy rank pipeline for draw `m` — bit-identical to
    /// [`crate::ZipfStream`]'s float path (`n^e` is a constant, so
    /// caching it as [`Self::c`] reproduces the per-draw value exactly).
    fn rank_of_m(&self, m: u64) -> u64 {
        let u = ((m as f64) * (1.0 / FULL as f64)).clamp(0.0, 1.0 - 1e-12);
        let x = if self.skew_is_one {
            self.n.powf(u)
        } else {
            (self.c * u + 1.0).powf(self.inv_e)
        };
        (x as u64).clamp(1, self.lines) - 1
    }

    /// Smallest `m >= lo` with `rank_of_m(m) > r`, or [`FULL`] if none:
    /// an analytic guess, a doubling bracket, then bisection — every
    /// probe evaluates the legacy formula, so the result is exact.
    fn boundary(&self, r: u64, lo_hint: u64) -> u64 {
        if self.rank_of_m(FULL - 1) <= r {
            return FULL;
        }
        // Analytic inverse of `x(u) = r + 2` (the truncation threshold
        // where the rank first exceeds `r`), as a starting guess.
        let x = (r + 2) as f64;
        let u_guess = if self.skew_is_one {
            x.ln() / self.n.ln()
        } else {
            (x.powf(self.e) - 1.0) / self.c
        };
        let m0 = if u_guess.is_finite() && u_guess > 0.0 {
            ((u_guess * FULL as f64) as u64).min(FULL - 1).max(lo_hint)
        } else {
            lo_hint
        };
        // Bracket [lo, hi) with rank(lo) <= r < rank(hi); rank(0) = 0.
        let (mut lo, mut hi);
        let mut step = 1u64;
        if self.rank_of_m(m0) > r {
            hi = m0;
            loop {
                let cand = hi.saturating_sub(step).max(lo_hint);
                if self.rank_of_m(cand) <= r {
                    lo = cand;
                    break;
                }
                if cand == lo_hint {
                    // The hint itself exceeds r (possible only for
                    // hint 0, where rank(0) = 0 <= r; unreachable
                    // otherwise because bounds are built in rank order).
                    lo = cand;
                    break;
                }
                step <<= 1;
            }
        } else {
            lo = m0;
            loop {
                let cand = lo.checked_add(step).map_or(FULL - 1, |c| c.min(FULL - 1));
                if self.rank_of_m(cand) > r {
                    hi = cand;
                    break;
                }
                lo = cand;
                step <<= 1;
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.rank_of_m(mid) > r {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Decodes one raw RNG draw (`rng.raw()`) to a rank, draw-for-draw
    /// identical to the legacy float pipeline.
    // lint: hot-path
    #[inline]
    pub fn rank(&self, raw: u64) -> u64 {
        let m = raw >> 11;
        if m < self.head_limit {
            let mut r = self.guide[(m >> Self::GUIDE_SHIFT) as usize] as usize;
            // `m < head_limit = bounds[last]` bounds the scan.
            while self.bounds[r] <= m {
                r += 1;
            }
            r as u64
        } else {
            self.rank_of_m(m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_replays_chance() {
        for p in [0.0, 0.25706, 0.3, 0.8367, 1.0] {
            let gate = Bernoulli::new(p);
            let mut a = DeterministicRng::seed(77);
            let mut b = DeterministicRng::seed(77);
            for _ in 0..20_000 {
                assert_eq!(gate.draw(&mut a), b.chance(p), "p={p}");
            }
        }
    }

    #[test]
    fn boundaries_are_strictly_increasing_until_full() {
        for skew in [0.0, 0.5, 0.99, 1.0, 1.2] {
            let t = ZipfTable::new(64 << 10, skew);
            for w in t.bounds.windows(2) {
                assert!(w[0] < w[1], "skew {skew}: bounds must increase");
            }
            assert_eq!(t.head_limit, *t.bounds.last().unwrap());
        }
    }

    #[test]
    fn table_rank_matches_legacy_at_boundaries_and_random_draws() {
        for skew in [0.0, 0.7, 0.99, 1.0, 1.3] {
            let t = ZipfTable::new(64 << 10, skew);
            // Exactly at, just below, and just above every head boundary.
            for &b in &t.bounds {
                for m in [b.saturating_sub(1), b, (b + 1).min(FULL - 1)] {
                    assert_eq!(t.rank(m << 11), t.rank_of_m(m), "skew {skew} draw {m}");
                }
            }
            // Random draws across the whole range.
            let mut rng = DeterministicRng::seed(5);
            for _ in 0..50_000 {
                let raw = rng.raw();
                assert_eq!(t.rank(raw), t.rank_of_m(raw >> 11), "skew {skew}");
            }
        }
    }

    #[test]
    fn tiny_footprint_covers_every_rank_in_table() {
        // lines < HEAD_RANKS: the table covers the whole draw space and
        // the fallback is never needed.
        let t = ZipfTable::new(64, 0.99);
        assert_eq!(t.head_limit, FULL);
        let mut rng = DeterministicRng::seed(6);
        for _ in 0..20_000 {
            let raw = rng.raw();
            let r = t.rank(raw);
            assert!(r < 64);
            assert_eq!(r, t.rank_of_m(raw >> 11));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_lines_rejected() {
        ZipfTable::new(0, 1.0);
    }
}
