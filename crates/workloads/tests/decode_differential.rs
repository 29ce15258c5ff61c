//! Differential tests for the table-driven decoders: every generator
//! carries a `set_table_decode(false)` switch that routes its per-op
//! draws through the legacy float pipeline, and these tests prove the
//! two decoders emit the *identical* op sequence — same addresses, same
//! load/store split, same compute gaps — for arbitrary configurations.
//!
//! This is the contract that makes the decode tables a pure perf
//! optimisation: the precomputed integer thresholds ([`Bernoulli`]) and
//! the Zipf head-boundary table replay the float draws bit for bit, so
//! a `SystemReport` produced on the fast path is the report, not an
//! approximation of it. A [`ZipfTable`] is immutable once built, so
//! streams sharing one through [`ZipfStream::with_table`] emit exactly
//! what streams with private tables do.

use std::sync::Arc;

use chameleon_cpu::{InstructionStream, Op};
use chameleon_simkit::mem::ByteSize;
use chameleon_workloads::{
    AppSpec, AppStream, LoopConfig, LoopStream, ZipfConfig, ZipfStream, ZipfTable,
};
use proptest::prelude::*;

/// Drains a stream into its full op sequence.
fn ops(mut s: impl InstructionStream) -> Vec<Op> {
    std::iter::from_fn(|| s.next_op()).collect()
}

/// Skews that exercise every branch of the Zipf decode: uniform,
/// moderate, the `|s - 1| < 1e-9` log branch (exactly and from both
/// sides), YCSB-style 0.99, and strongly concentrated.
fn any_skew() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.5),
        Just(0.99),
        Just(1.0),
        Just(1.0 - 5e-10),
        Just(1.0 + 5e-10),
        Just(1.2),
        Just(1.8),
        (1u32..200).prop_map(|m| m as f64 / 100.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zipf: the head-boundary table plus integer write gate replays the
    /// legacy float CDF inversion address-for-address.
    #[test]
    fn zipf_table_decode_matches_legacy(
        skew in any_skew(),
        pages in 1u64..48,
        budget in 500u64..12_000,
        seed in any::<u64>(),
    ) {
        let cfg = ZipfConfig {
            footprint: ByteSize::kib(4 * pages),
            skew,
            mem_per_kilo: 500,
            write_fraction: 0.3,
        };
        let table = ops(ZipfStream::new(&cfg, budget, seed));
        let mut legacy_stream = ZipfStream::new(&cfg, budget, seed);
        legacy_stream.set_table_decode(false);
        let legacy = ops(legacy_stream);
        prop_assert_eq!(table, legacy);
    }

    /// Shared tables: several streams built over one `Arc<ZipfTable>`
    /// and drained interleaved, in uneven bursts, each emit exactly the
    /// op sequence of a stream that built its own table.
    #[test]
    fn shared_zipf_table_matches_private_tables(
        skew in any_skew(),
        footprint in 4096u64..200_000,
        jobs in prop::collection::vec((any::<u64>(), 1u64..6_000), 2..6),
        bursts in prop::collection::vec(1usize..64, 1..16),
    ) {
        let cfg = ZipfConfig {
            footprint: ByteSize::bytes_exact(footprint),
            skew,
            mem_per_kilo: 500,
            write_fraction: 0.3,
        };
        let table = Arc::new(ZipfTable::new(cfg.lines(), skew));
        let mut streams: Vec<ZipfStream> = jobs
            .iter()
            .map(|&(seed, budget)| ZipfStream::with_table(&cfg, Arc::clone(&table), budget, seed))
            .collect();
        let mut shared: Vec<Vec<Op>> = vec![Vec::new(); streams.len()];
        let mut done = vec![false; streams.len()];
        for turn in 0.. {
            if done.iter().all(|&d| d) {
                break;
            }
            let i = turn % streams.len();
            for _ in 0..bursts[turn % bursts.len()] {
                match streams[i].next_op() {
                    Some(op) => shared[i].push(op),
                    None => {
                        done[i] = true;
                        break;
                    }
                }
            }
        }
        for (i, &(seed, budget)) in jobs.iter().enumerate() {
            prop_assert_eq!(&shared[i], &ops(ZipfStream::new(&cfg, budget, seed)));
        }
    }

    /// Loop/scan: the conditional-subtract wrap plus integer write gate
    /// replays the legacy modulo + float chance path.
    #[test]
    fn loop_table_decode_matches_legacy(
        pages in 1u64..64,
        stride in 1u32..512,
        wf_pct in 0u32..101,
        budget in 500u64..12_000,
        seed in any::<u64>(),
    ) {
        let cfg = LoopConfig {
            footprint: ByteSize::kib(4 * pages),
            stride_lines: stride,
            mem_per_kilo: 500,
            write_fraction: wf_pct as f64 / 100.0,
        };
        let table = ops(LoopStream::new(&cfg, budget, seed));
        let mut legacy_stream = LoopStream::new(&cfg, budget, seed);
        legacy_stream.set_table_decode(false);
        let legacy = ops(legacy_stream);
        prop_assert_eq!(table, legacy);
    }

    /// Table II app streams: the three precomputed op-mix gates replay
    /// the legacy float Bernoulli draws for every registered app.
    #[test]
    fn app_table_decode_matches_legacy(
        app in prop::sample::select(AppSpec::table2()),
        budget in 500u64..12_000,
        seed in any::<u64>(),
    ) {
        let spec = app.scaled(64);
        let table = ops(AppStream::new(&spec, budget, seed));
        let mut legacy_stream = AppStream::new(&spec, budget, seed);
        legacy_stream.set_table_decode(false);
        let legacy = ops(legacy_stream);
        prop_assert_eq!(table, legacy);
    }
}

/// A long fixed-seed Zipf run at the classic 0.99 skew: the proptest
/// cases above keep budgets short for breadth; this one pushes a single
/// configuration deep enough (~100k draws) to cross every head-table
/// bucket boundary many times.
#[test]
fn zipf_deep_run_matches_legacy() {
    let cfg = ZipfConfig {
        footprint: ByteSize::mib(4),
        skew: 0.99,
        mem_per_kilo: 1000,
        write_fraction: 0.3,
    };
    let table = ops(ZipfStream::new(&cfg, 100_000, 42));
    let mut legacy_stream = ZipfStream::new(&cfg, 100_000, 42);
    legacy_stream.set_table_decode(false);
    let legacy = ops(legacy_stream);
    assert_eq!(table, legacy);
}
