//! Property tests for the [`fetch_bench::BatchDriver`].
//!
//! Two properties back the harness-wide determinism guarantee:
//!
//! 1. **Parallel ≡ serial.** For random corpora (random synth configs),
//!    random worker counts, and random tool subsets, the parallel run's
//!    merged output equals the single-worker reference — per-binary
//!    `DetectionResult`s included. This is the schedule-independence
//!    half: stride sharding plus index-ordered merge plus
//!    binary-fingerprinted engine reuse leave no room for the shard
//!    layout to show through.
//! 2. **Panics surface, scopes join.** A panicking item in any shard is
//!    returned as a [`fetch_bench::BatchError`] naming that item, the
//!    remaining workers stop at their next item, and the thread scope
//!    joins — no deadlock, no poisoned output.

use fetch_bench::BatchDriver;
use fetch_core::DetectionResult;
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use fetch_tools::{run_tool, Tool};
use proptest::prelude::*;

/// A random small corpus: seeds and sizes vary, synthesis is
/// deterministic per config.
fn arb_corpus() -> impl Strategy<Value = Vec<SynthConfig>> {
    proptest::collection::vec((any::<u64>(), 10usize..40, 0.0f64..0.12, 0usize..6), 3..9).prop_map(
        |entries| {
            entries
                .into_iter()
                .map(|(seed, n_funcs, split, asm)| {
                    let mut cfg = SynthConfig::small(seed);
                    cfg.n_funcs = n_funcs;
                    cfg.rates = FeatureRates {
                        split_cold: split,
                        asm_funcs: asm,
                        ..FeatureRates::default()
                    };
                    cfg
                })
                .collect()
        },
    )
}

/// A non-empty random subset of the nine tool models, chosen by index so
/// shrinking stays meaningful.
fn tool_subset(picks: &[u8]) -> Vec<Tool> {
    let mut tools: Vec<Tool> = picks
        .iter()
        .map(|&p| Tool::ALL[p as usize % Tool::ALL.len()])
        .collect();
    tools.dedup();
    tools
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpus x random shard size x random tool subset: the
    /// parallel merge is identical to the serial reference.
    #[test]
    fn parallel_equals_serial(
        corpus in arb_corpus(),
        jobs in 1usize..10,
        picks in proptest::collection::vec(any::<u8>(), 1..5),
    ) {
        let cases: Vec<_> = corpus.iter().map(synthesize).collect();
        let tools = tool_subset(&picks);
        let sweep = |driver: &BatchDriver| -> Vec<Vec<Option<DetectionResult>>> {
            driver.run(&cases, |engine, case| {
                tools
                    .iter()
                    .map(|&tool| run_tool(tool, &case.binary, engine))
                    .collect()
            })
        };
        let serial = sweep(&BatchDriver::serial());
        let parallel = sweep(&BatchDriver::new(jobs));
        prop_assert_eq!(
            &parallel, &serial,
            "jobs {} tools {:?} diverged", jobs, tools
        );
    }

    /// A panic in one shard surfaces as a `BatchError` for that item —
    /// for every worker count, without deadlocking the scope (the test
    /// completing at all is the no-deadlock half).
    #[test]
    fn shard_panic_surfaces_as_error(
        len in 1usize..40,
        panic_at_raw in any::<u64>(),
        jobs in 1usize..10,
    ) {
        let panic_at = (panic_at_raw as usize) % len;
        let items: Vec<usize> = (0..len).collect();
        let err = BatchDriver::new(jobs)
            .try_run(&items, |_engine, &i| {
                if i == panic_at {
                    panic!("shard panic on item {i}");
                }
                i * 2
            })
            .expect_err("the panicking item must fail the run");
        prop_assert_eq!(err.case_index, panic_at);
        prop_assert!(
            err.message.contains(&format!("item {panic_at}")),
            "unexpected payload: {}", err.message
        );

        // The same corpus without the panic still works afterwards: the
        // driver is stateless across runs.
        let ok = BatchDriver::new(jobs).run(&items, |_engine, &i| i * 2);
        prop_assert_eq!(ok, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }
}
