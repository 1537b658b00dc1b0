//! Observational equivalence of the incremental detection substrate.
//!
//! [`DetectionState::new`] runs every recursion through the persistent
//! [`fetch_disasm::RecEngine`] (decode cache, seed-delta extension,
//! skipped fixpoint re-walks); [`DetectionState::new_reference`] re-runs
//! each recursion from scratch. For random corpora and random stacks
//! drawn from every [`LayerSpec`] in [`KNOWN_LAYERS`] the two must produce
//! byte-identical [`DetectionResult`]s — starts, provenance, and layer
//! order.

use fetch_core::{DetectionResult, DetectionState, LayerSpec, Pipeline, KNOWN_LAYERS};
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        any::<u64>(),
        20usize..90,
        0.0f64..0.15,
        0usize..12,
        0.0f64..0.2,
        0usize..2,
    )
        .prop_map(|(seed, n_funcs, split, asm, data, mislabeled)| {
            let mut cfg = SynthConfig::small(seed);
            cfg.n_funcs = n_funcs;
            cfg.rates = FeatureRates {
                split_cold: split,
                asm_funcs: asm,
                data_in_text: data,
                mislabeled_fdes: mislabeled,
                ..FeatureRates::default()
            };
            cfg
        })
}

/// Maps random picks onto [`KNOWN_LAYERS`] — every `LayerSpec` the
/// parser accepts — so a random `Vec<u8>` becomes a stack.
fn stack(picks: &[u8]) -> Vec<LayerSpec> {
    picks
        .iter()
        .map(|&p| KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1)
        .collect()
}

fn run_layers(mut state: DetectionState<'_>, specs: &[LayerSpec]) -> DetectionResult {
    for spec in specs {
        spec.apply(&mut state);
    }
    // The CFI side-table is a pure function of the binary, memoized on
    // the state: however many repair layers ran, at most one miss, and
    // every further lookup must hit the cache.
    let repairs = specs
        .iter()
        .filter(|&&s| s == LayerSpec::CallFrameRepair)
        .count() as u64;
    let (hits, misses) = state.frame_table_stats();
    assert!(misses <= 1, "frame table evaluated {misses} times");
    assert_eq!(
        hits + misses,
        repairs,
        "every repair consults the frame table exactly once"
    );
    state.into_result()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random stacks over random corpora: incremental == from-scratch.
    #[test]
    fn incremental_equals_reference(
        cfg in arb_config(),
        picks in proptest::collection::vec(any::<u8>(), 1..7),
    ) {
        let case = synthesize(&cfg);
        let specs = stack(&picks);
        let incremental = run_layers(DetectionState::new(&case.binary), &specs);
        let reference = run_layers(DetectionState::new_reference(&case.binary), &specs);
        prop_assert_eq!(&incremental, &reference, "stack {} diverged", Pipeline::new(specs));
    }

    /// The paper's optimal pipeline, which exercises the seed-extension
    /// path (Xref) and the repair re-run path, in one stack.
    #[test]
    fn fetch_pipeline_equals_reference(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let stack = Pipeline::fetch();
        let incremental = run_layers(DetectionState::new(&case.binary), stack.specs());
        let reference = run_layers(DetectionState::new_reference(&case.binary), stack.specs());
        prop_assert_eq!(&incremental, &reference);
    }

    /// One engine shared across two different tool models (random layer
    /// stacks) on the same binary — and then carried onto a *different*
    /// binary — must match fresh engines throughout. This is the
    /// soundness guard for the cross-tool decode-cache sharing the batch
    /// driver performs: cached decodes, seed deltas, and fixpoint state
    /// must never leak between stacks, and the engine's binary
    /// fingerprint must fully reset it between binaries.
    #[test]
    fn shared_engine_equals_fresh_engines(
        cfg_a in arb_config(),
        cfg_b in arb_config(),
        picks_a in proptest::collection::vec(any::<u8>(), 1..6),
        picks_b in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let case_a = synthesize(&cfg_a);
        let case_b = synthesize(&cfg_b);
        let stack_a = Pipeline::new(stack(&picks_a));
        let stack_b = Pipeline::new(stack(&picks_b));

        let mut engine = fetch_disasm::RecEngine::new();
        let shared_a = stack_a.run_with_engine(&case_a.binary, &mut engine);
        let shared_b = stack_b.run_with_engine(&case_a.binary, &mut engine);
        let shared_cross = stack_a.run_with_engine(&case_b.binary, &mut engine);

        prop_assert_eq!(&shared_a, &stack_a.run(&case_a.binary),
            "stack A leaked state from a fresh engine run");
        prop_assert_eq!(&shared_b, &stack_b.run(&case_a.binary),
            "stack B diverged after sharing stack A's engine");
        prop_assert_eq!(&shared_cross, &stack_a.run(&case_b.binary),
            "engine carried state across binaries");
    }
}
