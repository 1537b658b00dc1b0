//! Property tests on the FETCH detector: the paper's safety claims must
//! hold for arbitrary corpora, not just the calibrated seeds.

use fetch_core::{Fetch, Pipeline};
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        any::<u64>(),
        25usize..70,
        0.0f64..0.15,
        0.0f64..0.12,
        0usize..12,
    )
        .prop_map(|(seed, n_funcs, split, rbp, asm)| {
            let mut cfg = SynthConfig::small(seed);
            cfg.n_funcs = n_funcs;
            cfg.rates = FeatureRates {
                split_cold: split,
                rbp_frame: rbp,
                asm_funcs: asm,
                mislabeled_fdes: if asm > 4 { 1 } else { 0 },
                ..FeatureRates::default()
            };
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline safety claims, for arbitrary feature mixes:
    /// no unexplained false positives, no harmful false negatives.
    #[test]
    fn fetch_is_safe_on_arbitrary_corpora(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let result = Fetch::new().detect(&case.binary);
        let truth = case.truth.starts();
        let parts = case.truth.part_starts();
        let found = result.start_set();

        // Every false positive is a residual FDE part start (cold part of
        // an incomplete-CFI function) — never an invented address.
        for fp in found.difference(&truth) {
            prop_assert!(parts.contains(fp), "unexplained FP {fp:#x}");
        }

        // Every miss is harmless: tail-only or unreachable.
        for m in truth.difference(&found) {
            let f = case.truth.function_at(*m).unwrap();
            prop_assert!(
                matches!(
                    f.reach,
                    fetch_binary::Reach::TailCalled { .. } | fetch_binary::Reach::Unreachable
                ),
                "harmful miss {} ({:?})",
                f.name,
                f.reach
            );
        }
    }

    /// The repair layer is monotone on accuracy: it never *adds* false
    /// positives relative to the unrepaired pipeline.
    #[test]
    fn repair_never_adds_false_positives(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let truth = case.truth.starts();
        let without = Fetch { skip_repair: true, ..Fetch::new() }.detect(&case.binary);
        let with = Fetch::new().detect(&case.binary);
        let fp_without: Vec<u64> =
            without.start_set().difference(&truth).copied().collect();
        let fp_with: Vec<u64> = with.start_set().difference(&truth).copied().collect();
        for fp in &fp_with {
            prop_assert!(
                fp_without.contains(fp),
                "repair introduced new FP {fp:#x}"
            );
        }
        prop_assert!(fp_with.len() <= fp_without.len());
    }

    /// FDE + safe recursion never yields starts outside the FDE part set
    /// (plus deliberate mislabels): the §IV-C "no false positives" claim.
    #[test]
    fn fde_rec_adds_no_false_positives(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let r = Pipeline::parse("FDE+Rec").unwrap().run(&case.binary);
        let parts = case.truth.part_starts();
        for s in r.start_set() {
            let mislabel = case.truth.is_start(s + 1);
            prop_assert!(
                parts.contains(&s) || mislabel,
                "invented start {s:#x}"
            );
        }
    }
}
