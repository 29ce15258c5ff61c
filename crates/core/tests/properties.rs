//! Property-based tests for the Chameleon remapping architectures.
//!
//! These drive random interleavings of `ISA-Alloc`, `ISA-Free` and demand
//! accesses through the policies and check the structural invariants the
//! paper's hardware relies on.

use chameleon_core::{
    encoding, policy::HmaPolicy, ChameleonPolicy, FootprintPredictor, HashRing, HmaConfig, Mode,
    PomPolicy, SegmentGeometry, SrrtEntry, UnisonPolicy,
};
use chameleon_os::isa::IsaHook;
use chameleon_simkit::mem::ByteSize;
use proptest::prelude::*;

const SEG: u64 = 2048;

fn cfg() -> HmaConfig {
    let mut c = HmaConfig::scaled_laptop();
    c.stacked.capacity = ByteSize::mib(2);
    c.offchip.capacity = ByteSize::mib(10);
    c
}

fn geometry() -> SegmentGeometry {
    SegmentGeometry::new(ByteSize::mib(2), ByteSize::mib(10), ByteSize::kib(2))
}

#[derive(Debug, Clone)]
enum OpKind {
    Alloc { group: u64, slot: u8 },
    Free { group: u64, slot: u8 },
    Access { group: u64, slot: u8, write: bool },
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    (0u64..64, 0u8..6, 0u8..3, any::<bool>()).prop_map(|(group, slot, kind, write)| match kind {
        0 => OpKind::Alloc { group, slot },
        1 => OpKind::Free { group, slot },
        _ => OpKind::Access { group, slot, write },
    })
}

/// Drives a policy with a random op sequence, keeping a software model of
/// which segments are allocated so accesses only target live segments
/// (like a real OS).
fn drive(policy: &mut ChameleonPolicy, ops: &[OpKind]) {
    let geo = geometry();
    let mut allocated = std::collections::HashSet::new();
    let mut now = 0u64;
    for op in ops {
        now += 5_000_000;
        match *op {
            OpKind::Alloc { group, slot } => {
                if allocated.insert((group, slot)) {
                    policy.isa_alloc(geo.slot_addr(group, slot), SEG, now);
                }
            }
            OpKind::Free { group, slot } => {
                if allocated.remove(&(group, slot)) {
                    policy.isa_free(geo.slot_addr(group, slot), SEG, now);
                }
            }
            OpKind::Access { group, slot, write } => {
                if allocated.contains(&(group, slot)) {
                    policy.access(geo.slot_addr(group, slot) + 64, write, now);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SRRT remains a permutation and the mode bit tracks the ABV for
    /// basic Chameleon: a group is in cache mode iff its stacked-range
    /// segment is free.
    #[test]
    fn basic_chameleon_invariants(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut p = ChameleonPolicy::new_basic(cfg());
        drive(&mut p, &ops);
        for g in 0..64u64 {
            let e = p.srrt().entry(g);
            prop_assert!(e.check_permutation(), "group {g} remap corrupted");
            let cache = e.mode() == Mode::Cache;
            prop_assert_eq!(
                cache,
                !e.is_allocated(0),
                "group {} mode/ABV mismatch", g
            );
            if cache {
                // Invariant C: the stacked physical slot is backed by the
                // free stacked-range segment.
                prop_assert_eq!(e.physical_of(0), 0);
                // Anything cached must be a live off-chip segment.
                if let Some(c) = e.cached() {
                    prop_assert!(e.is_allocated(c));
                    prop_assert_ne!(c, 0);
                }
            }
        }
    }

    /// Chameleon-Opt: a group is in cache mode iff it has at least one
    /// free segment, and in cache mode the stacked physical slot is
    /// always backed by a free segment.
    #[test]
    fn opt_chameleon_invariants(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut p = ChameleonPolicy::new_opt(cfg());
        drive(&mut p, &ops);
        for g in 0..64u64 {
            let e = p.srrt().entry(g);
            prop_assert!(e.check_permutation(), "group {g} remap corrupted");
            let cache = e.mode() == Mode::Cache;
            prop_assert_eq!(cache, !e.all_allocated(), "group {} mode census", g);
            if cache {
                let backing = e.logical_in(0);
                prop_assert!(
                    !e.is_allocated(backing),
                    "group {} stacked slot backed by live segment {}",
                    g,
                    backing
                );
                if let Some(c) = e.cached() {
                    prop_assert!(e.is_allocated(c));
                }
            }
        }
    }

    /// PoM ignores ISA traffic entirely: any alloc/free sequence leaves
    /// every group in PoM mode with an intact permutation.
    #[test]
    fn pom_is_free_space_agnostic(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let mut p = PomPolicy::new(cfg());
        let geo = geometry();
        let mut now = 0;
        for op in &ops {
            now += 5_000_000;
            match *op {
                OpKind::Alloc { group, slot } => p.isa_alloc(geo.slot_addr(group, slot), SEG, now),
                OpKind::Free { group, slot } => p.isa_free(geo.slot_addr(group, slot), SEG, now),
                OpKind::Access { group, slot, write } => {
                    p.access(geo.slot_addr(group, slot), write, now);
                }
            }
        }
        prop_assert_eq!(p.mode_distribution().cache_groups, 0);
        for g in 0..64u64 {
            prop_assert!(p.srrt().entry(g).check_permutation());
        }
    }

    /// Accesses always return a positive, bounded latency, and the
    /// stacked hit counters never exceed total accesses.
    #[test]
    fn latency_and_counter_sanity(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut p = ChameleonPolicy::new_opt(cfg());
        let geo = geometry();
        let mut allocated = std::collections::HashSet::new();
        let mut now = 0u64;
        for op in &ops {
            now += 5_000_000;
            match *op {
                OpKind::Alloc { group, slot } => {
                    if allocated.insert((group, slot)) {
                        p.isa_alloc(geo.slot_addr(group, slot), SEG, now);
                    }
                }
                OpKind::Free { group, slot } => {
                    if allocated.remove(&(group, slot)) {
                        p.isa_free(geo.slot_addr(group, slot), SEG, now);
                    }
                }
                OpKind::Access { group, slot, write } => {
                    if allocated.contains(&(group, slot)) {
                        let lat = p.access(geo.slot_addr(group, slot), write, now);
                        prop_assert!(lat > 0);
                        prop_assert!(lat < 1_000_000, "latency {lat} absurd");
                    }
                }
            }
        }
        let s = p.stats();
        prop_assert!(
            s.stacked_hits.value() + s.buffer_hits.value() + s.stale_accesses.value()
                <= s.demand_accesses.value()
        );
        prop_assert!(s.stacked_hit_rate() <= 1.0);
    }
}

proptest! {
    /// The maintained inverse permutation stays consistent with the
    /// forward remap through arbitrary `swap_homes` sequences:
    /// `logical_in` (one array read) always agrees with a linear scan of
    /// `physical_of`, and the two maps are mutual inverses.
    #[test]
    fn srrt_inverse_tracks_forward_permutation(
        swaps in prop::collection::vec((0u8..8, 0u8..8), 0..64),
        slots in prop::sample::select(vec![1u8, 4, 6, 8]),
    ) {
        let mut e = SrrtEntry::new(slots);
        for (a, b) in swaps {
            e.swap_homes(a % slots, b % slots);
            prop_assert!(e.check_permutation());
        }
        for l in 0..slots {
            prop_assert_eq!(e.logical_in(e.physical_of(l)), l);
        }
        for p in 0..slots {
            let scan = (0..slots).find(|&l| e.physical_of(l) == p).unwrap();
            prop_assert_eq!(e.logical_in(p), scan);
            prop_assert_eq!(e.physical_of(e.logical_in(p)), p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The footprint predictor is bounded (never empty, never beyond the
    /// page) and recalls exactly what was recorded: after `record(page,
    /// touched)` the prediction for `page` is `touched ∩ full` — or the
    /// full page when the recorded footprint was empty, since predicting
    /// nothing would make every future access a sector miss.
    #[test]
    fn footprint_predictor_is_bounded_and_recalls(
        records in prop::collection::vec((0u64..4096, any::<u64>()), 1..100),
        probes in prop::collection::vec(0u64..4096, 1..50),
        lines in prop::sample::select(vec![1u32, 8, 32, 64]),
    ) {
        let mut p = FootprintPredictor::new(lines);
        let full = p.full_mask();
        for &(page, touched) in &records {
            p.record(page, touched);
            let got = p.predict(page);
            let expect = if touched & full == 0 { full } else { touched & full };
            prop_assert_eq!(got, expect);
        }
        for &page in &probes {
            let got = p.predict(page);
            prop_assert!(got != 0, "prediction must never be empty");
            prop_assert_eq!(got & !full, 0, "prediction must stay within the page");
        }
    }

    /// Unison under arbitrary traffic: every access is exactly one of
    /// {stacked hit, sector fetch, page fill}, the per-frame bitvec
    /// ordering `dirty ⊆ touched ⊆ fetched` holds, and fetched-line
    /// residency never exceeds the stacked capacity.
    #[test]
    fn unison_invariants_hold_under_random_traffic(
        refs in prop::collection::vec((0u64..5120, 0u64..32, any::<bool>()), 1..300),
    ) {
        let mut u = UnisonPolicy::new(cfg());
        let mut now = 0u64;
        for &(page, line, write) in &refs {
            now += 5_000_000;
            let addr = (2 << 20) + page * 2048 + line * 64;
            let lat = u.access(addr, write, now);
            prop_assert!(lat > 0);
        }
        prop_assert!(u.check_invariants(), "frame bitvec ordering violated");
        let (resident, capacity) = u.stacked_residency();
        prop_assert!(resident <= capacity);
        let s = u.stats();
        prop_assert_eq!(s.demand_accesses.value(), refs.len() as u64);
        prop_assert_eq!(
            s.stacked_hits.value() + s.sector_fetches.value() + s.fills.value(),
            s.demand_accesses.value(),
            "each access must be exactly one of hit/sector-fetch/fill"
        );
    }

    /// Consistent hashing's defining property: removing a frame moves
    /// only the keys that frame owned — every key owned by a surviving
    /// frame keeps its assignment — and adding the frame back restores
    /// the original assignment exactly.
    #[test]
    fn ring_resize_moves_only_the_affected_keys(
        frames in prop::collection::vec(0u32..64, 2..32),
        victim_sel in any::<u16>(),
        keys in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let mut ring = HashRing::new();
        for &f in &frames {
            ring.add(f); // idempotent on duplicates
        }
        let victim = frames[victim_sel as usize % frames.len()];
        let before: Vec<u32> = keys.iter().map(|&k| ring.lookup(k).unwrap()).collect();
        ring.remove(victim);
        let survivors_exist = frames.iter().any(|&f| f != victim);
        for (&k, &owner) in keys.iter().zip(&before) {
            match ring.lookup(k) {
                Some(after) => {
                    prop_assert_ne!(after, victim, "removed frame still owns key {}", k);
                    if owner != victim {
                        prop_assert_eq!(
                            after, owner,
                            "key {} moved although its owner survived", k
                        );
                    }
                }
                None => prop_assert!(!survivors_exist),
            }
        }
        ring.add(victim);
        for (&k, &owner) in keys.iter().zip(&before) {
            prop_assert_eq!(ring.lookup(k).unwrap(), owner, "re-adding must restore key {}", k);
        }
    }
}

/// A reference ring: points are inserted sorted per added frame and
/// deleted with `retain` per removed frame. Its hashing is restated here
/// (SplitMix64, 8 points per frame) so the comparison does not lean on
/// the code under test.
#[derive(Default)]
struct OracleRing {
    points: Vec<(u64, u32)>,
}

impl OracleRing {
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn add(&mut self, frame: u32) {
        if self.points.iter().any(|&(_, f)| f == frame) {
            return;
        }
        for replica in 0..8u32 {
            let entry = (
                Self::mix((u64::from(frame) << 32) | u64::from(replica)),
                frame,
            );
            let pos = self.points.partition_point(|&p| p < entry);
            self.points.insert(pos, entry);
        }
    }

    fn remove(&mut self, frame: u32) {
        self.points.retain(|&(_, f)| f != frame);
    }

    fn lookup(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = Self::mix(key);
        let pos = self.points.partition_point(|&(p, _)| p < h);
        Some(self.points[pos % self.points.len()].1)
    }
}

proptest! {
    /// The one-sort, dead-marking ring assigns every key exactly as the
    /// sorted-insert/`retain` ring does, through arbitrary resizes —
    /// frames inside and outside the initial `0..n`, duplicates, and all
    /// the way down to an empty ring.
    #[test]
    fn ring_matches_the_sorted_insert_oracle(
        n in 0u32..24,
        steps in prop::collection::vec((any::<bool>(), 0u32..40), 0..60),
        keys in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let mut ring = HashRing::with_frames(n);
        let mut oracle = OracleRing::default();
        for f in 0..n {
            oracle.add(f);
        }
        // Drain everything at the end so the empty ring is always reached.
        let drain = (0..40).map(|f| (false, f));
        for (i, (add, frame)) in steps.into_iter().chain(drain).enumerate() {
            if add {
                ring.add(frame);
                oracle.add(frame);
            } else {
                ring.remove(frame);
                oracle.remove(frame);
            }
            prop_assert_eq!(ring.len(), oracle.points.len(), "step {}", i);
            prop_assert_eq!(ring.is_empty(), oracle.points.is_empty(), "step {}", i);
            for &k in &keys {
                prop_assert_eq!(ring.lookup(k), oracle.lookup(k), "step {} key {}", i, k);
            }
        }
        prop_assert!(ring.is_empty());
    }
}

proptest! {
    /// The hardware bit encoding of an SRRT entry roundtrips losslessly
    /// for every reachable (permutation, ABV, mode, counter) combination.
    #[test]
    fn srrt_encoding_roundtrips(
        swaps in prop::collection::vec((0u8..6, 0u8..6), 0..12),
        abv_bits in 0u8..64,
        cache_mode in any::<bool>(),
        counter in any::<u16>(),
        slots in prop::sample::select(vec![4u8, 6, 8]),
        has_cached in any::<bool>(),
        cached_id in any::<u8>(),
        dirty in any::<bool>(),
    ) {
        let mut e = SrrtEntry::new(slots);
        for (a, b) in swaps {
            e.swap_homes(a % slots, b % slots);
        }
        for l in 0..slots {
            e.set_allocated(l, abv_bits & (1 << (l % 6)) != 0);
        }
        let mode = if cache_mode { Mode::Cache } else { Mode::Pom };
        e.set_mode(mode);
        let cached = has_cached.then_some(cached_id % slots);
        e.set_cached(cached);
        if dirty {
            e.mark_dirty();
        }
        e.set_counter(counter);
        // Slot count, mode, dirty and the cached id share packed storage:
        // each must read back exactly what was written.
        prop_assert_eq!(e.slots(), slots);
        prop_assert_eq!(e.mode(), mode);
        prop_assert_eq!(e.cached(), cached);
        prop_assert_eq!(e.is_dirty(), dirty);
        let packed = encoding::pack(&e);
        prop_assert_eq!(packed.width as u32, encoding::entry_bits(slots));
        let back = encoding::unpack(&packed, slots);
        for l in 0..slots {
            prop_assert_eq!(back.physical_of(l), e.physical_of(l));
            prop_assert_eq!(back.is_allocated(l), e.is_allocated(l));
        }
        prop_assert_eq!(back.mode(), e.mode());
        prop_assert_eq!(back.is_dirty(), e.is_dirty());
        prop_assert_eq!(back.cached().is_some(), e.is_dirty(), "a dirty bit implies a cached copy");
        prop_assert_eq!(back.slots(), slots);
        prop_assert_eq!(back.counter(), e.counter());
        prop_assert!(back.check_permutation());
    }
}
