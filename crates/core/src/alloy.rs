//! The latency-optimised Alloy Cache baseline (Qureshi & Loh, MICRO'12).

use chameleon_os::isa::IsaHook;
use chameleon_simkit::Cycle;

use chameleon_dram::MemOp;

use crate::policy::{HmaPolicy, ModeDistribution};
use crate::{HmaConfig, HmaDevices, HmaStats};

/// One TAD's metadata. The set index is implied by the TAD's position,
/// so only the hardware tag `line / sets` is stored: 4 bytes per set.
#[derive(Debug, Clone, Copy, Default)]
struct Tad {
    tag: u16,
    valid: bool,
    dirty: bool,
}

/// A direct-mapped DRAM cache with 64-byte TAD (tag-and-data) units: one
/// stacked-DRAM access returns tag and data together, so a hit costs a
/// single stacked access and a miss adds one off-chip access.
///
/// The stacked DRAM is **not** OS-visible (the OS runs with
/// `Visibility::OffchipOnly`), which is exactly the capacity loss the
/// paper's Figure 18 charges this design with.
///
/// # Example
///
/// ```
/// use chameleon_core::{AlloyPolicy, HmaConfig, policy::HmaPolicy};
///
/// let cfg = HmaConfig::scaled_laptop();
/// let off_base = cfg.stacked.capacity.bytes();
/// let mut alloy = AlloyPolicy::new(cfg);
/// let miss = alloy.access(off_base, false, 0);
/// let hit = alloy.access(off_base, false, 1_000_000);
/// assert!(hit < miss);
/// ```
#[derive(Debug)]
pub struct AlloyPolicy {
    cfg: HmaConfig,
    devices: HmaDevices,
    tags: Vec<Tad>,
    stacked_base: u64,
    stats: HmaStats,
}

impl AlloyPolicy {
    /// Builds the Alloy cache over the configured stacked device.
    ///
    /// # Panics
    ///
    /// Panics if the off-chip:stacked capacity ratio exceeds 2^16, the
    /// most a 16-bit tag can tell apart.
    pub fn new(cfg: HmaConfig) -> Self {
        let stacked = cfg.stacked.capacity.bytes();
        assert!(
            cfg.offchip.capacity.bytes().div_ceil(stacked) <= 1 << u16::BITS,
            "off-chip:stacked ratio must fit a 16-bit tag"
        );
        let sets = (stacked / 64) as usize;
        Self {
            devices: HmaDevices::new(&cfg),
            tags: vec![Tad::default(); sets],
            stacked_base: cfg.stacked.capacity.bytes(),
            stats: HmaStats::default(),
            cfg,
        }
    }

    /// Number of direct-mapped sets.
    pub fn sets(&self) -> usize {
        self.tags.len()
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.tags.len() as u64) as usize
    }

    fn tag_of(&self, line: u64) -> u16 {
        // INVARIANT: `new` bounds the off-chip:stacked ratio by 2^16, so
        // the tag of any off-chip line fits 16 bits.
        (line / self.tags.len() as u64) as u16
    }

    /// The line cached in `set` under `tag` (inverse of `tag_of`/`set_of`).
    fn line_of(&self, tag: u16, set: usize) -> u64 {
        u64::from(tag) * self.tags.len() as u64 + set as u64
    }
}

impl IsaHook for AlloyPolicy {
    // The Alloy cache is software-transparent: OS allocation activity is
    // invisible to it.
    fn isa_alloc(&mut self, _addr: u64, _len: u64, _now: u64) {}
    fn isa_free(&mut self, _addr: u64, _len: u64, _now: u64) {}
}

impl HmaPolicy for AlloyPolicy {
    fn access(&mut self, paddr: u64, write: bool, now: Cycle) -> Cycle {
        assert!(
            paddr >= self.stacked_base,
            "Alloy receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.stats.demand_accesses.inc();
        let rel = paddr - self.stacked_base;
        let line = rel / 64;
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        let op = if write { MemOp::Write } else { MemOp::Read };

        // One TAD access reads tag+data from the stacked device; on a
        // predicted miss the off-chip access is dispatched in parallel
        // (Alloy's memory access predictor — the latency-optimised part
        // of the design).
        let probe = self
            .devices
            .stacked
            .access(set as u64 * 64, 64, MemOp::Read, now);
        let entry = self.tags[set];
        let latency = if entry.valid && entry.tag == tag {
            // Hit: data arrived with the tag.
            if write {
                self.tags[set].dirty = true;
                // The dirty data is written in place.
                self.devices
                    .stacked
                    .access(set as u64 * 64, 64, MemOp::Write, probe.done);
            }
            self.stats.stacked_hits.inc();
            probe.latency
        } else {
            // Miss: fetch from off-chip (dispatched in parallel with the
            // probe), fill the set, write back the dirty victim as bulk.
            if entry.valid && entry.dirty {
                let victim_addr = self.line_of(entry.tag, set) * 64;
                self.devices
                    .offchip
                    .bulk(victim_addr, 64, MemOp::Write, now);
                self.stats.writebacks.inc();
            }
            let mem = self.devices.offchip.access(rel, 64, op, now);
            self.devices
                .stacked
                .bulk(set as u64 * 64, 64, MemOp::Write, now);
            self.tags[set] = Tad {
                tag,
                valid: true,
                dirty: write,
            };
            self.stats.fills.inc();
            mem.latency.max(probe.latency)
        };
        self.stats.access_latency.record(latency as f64);
        latency
    }

    fn writeback(&mut self, paddr: u64, now: Cycle) {
        assert!(
            paddr >= self.stacked_base,
            "Alloy receives only off-chip OS addresses, got {paddr:#x}"
        );
        self.stats.llc_writebacks.inc();
        let rel = paddr - self.stacked_base;
        let line = rel / 64;
        let set = self.set_of(line);
        let entry = self.tags[set];
        if entry.valid && entry.tag == self.tag_of(line) {
            // Write the cached copy in place (it becomes dirty).
            self.tags[set].dirty = true;
            self.devices
                .stacked
                .access(set as u64 * 64, 64, MemOp::Write, now);
        } else {
            // No allocate-on-writeback: drain straight to off-chip.
            self.devices.offchip.access(rel, 64, MemOp::Write, now);
        }
    }

    fn stats(&self) -> &HmaStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = HmaStats::default();
        self.devices.stacked.reset_stats();
        self.devices.offchip.reset_stats();
    }

    fn settle(&mut self) {
        self.devices = HmaDevices::new(&self.cfg);
    }

    fn name(&self) -> &str {
        "Alloy-Cache"
    }

    fn devices(&self) -> &HmaDevices {
        &self.devices
    }

    fn mode_distribution(&self) -> ModeDistribution {
        // The whole stacked device is a cache.
        ModeDistribution {
            cache_groups: self.tags.len() as u64,
            pom_groups: 0,
        }
    }

    fn stacked_residency(&self) -> (u64, u64) {
        let resident = self.tags.iter().filter(|t| t.valid).count() as u64 * 64;
        (resident, self.cfg.stacked.capacity.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_simkit::mem::ByteSize;

    fn cfg() -> HmaConfig {
        let mut c = HmaConfig::scaled_laptop();
        c.stacked.capacity = ByteSize::mib(2);
        c.offchip.capacity = ByteSize::mib(10);
        c
    }

    fn off(paddr: u64) -> u64 {
        (2 << 20) + paddr
    }

    #[test]
    fn fill_then_hit() {
        let mut a = AlloyPolicy::new(cfg());
        a.access(off(0), false, 0);
        assert_eq!(a.stats().stacked_hits.value(), 0);
        a.access(off(0), false, 10_000_000);
        assert_eq!(a.stats().stacked_hits.value(), 1);
        assert_eq!(a.stats().fills.value(), 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut a = AlloyPolicy::new(cfg());
        let stride = a.sets() as u64 * 64;
        a.access(off(0), true, 0); // dirty
        a.access(off(stride), false, 10_000_000); // conflicts, evicts dirty
        assert_eq!(a.stats().writebacks.value(), 1);
        a.access(off(0), false, 20_000_000);
        assert_eq!(a.stats().stacked_hits.value(), 0, "line 0 was evicted");
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut a = AlloyPolicy::new(cfg());
        let stride = a.sets() as u64 * 64;
        a.access(off(0), false, 0);
        a.access(off(stride), false, 10_000_000);
        assert_eq!(a.stats().writebacks.value(), 0);
    }

    #[test]
    fn hit_rate_reported() {
        let mut a = AlloyPolicy::new(cfg());
        for i in 0..4u64 {
            a.access(off(i * 64), false, i * 10_000_000);
        }
        for i in 0..4u64 {
            a.access(off(i * 64), false, (i + 10) * 10_000_000);
        }
        assert!((a.stats().stacked_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tad_is_at_most_4_bytes() {
        assert!(std::mem::size_of::<Tad>() <= 4);
    }

    /// A narrow config: 64 KiB stacked (1024 sets) under `ratio`× off-chip.
    fn narrow(ratio: u64) -> HmaConfig {
        let mut c = HmaConfig::scaled_laptop();
        c.stacked.capacity = ByteSize::kib(64);
        c.offchip.capacity = ByteSize::kib(64 * ratio);
        c
    }

    #[test]
    fn tag_and_set_round_trip_every_line() {
        for ratio in [3, 5, 7] {
            let a = AlloyPolicy::new(narrow(ratio));
            let sets = a.sets() as u64;
            assert_eq!(sets, 1024);
            for line in 0..ratio * sets {
                let (tag, set) = (a.tag_of(line), a.set_of(line));
                assert!(u64::from(tag) < ratio, "1:{ratio} line {line}");
                assert_eq!(a.line_of(tag, set), line, "1:{ratio} line {line}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "16-bit tag")]
    fn ratio_past_u16_tags_rejected() {
        let mut c = HmaConfig::scaled_laptop();
        c.stacked.capacity = ByteSize::kib(1);
        c.offchip.capacity = ByteSize::kib((1 << 16) + 1);
        AlloyPolicy::new(c);
    }

    #[test]
    #[should_panic(expected = "off-chip OS addresses")]
    fn stacked_address_rejected() {
        AlloyPolicy::new(cfg()).access(0, false, 0);
    }
}
