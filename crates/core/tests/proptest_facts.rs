//! Property tests for [`BinaryFacts`] shared across threads: the serving
//! daemon's flight leader runs the pipeline over a request's facts while
//! a side thread builds the frame table and the image digest from the
//! same facts. Whichever thread reaches a fact first, and whether the
//! side thread runs at all, the result and the digest must equal the
//! fresh [`Pipeline::run`] and [`ImageDigest::compute`], and every fact
//! must be computed at most once across both threads.

use fetch_binary::{Binary, Section, SectionKind};
use fetch_core::{
    BinaryFacts, DetectionResult, DetectionState, ImageDigest, LayerSpec, Pipeline, KNOWN_LAYERS,
};
use fetch_disasm::RecEngine;
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (any::<u64>(), 15usize..60, 0.0f64..0.15, 0usize..8).prop_map(|(seed, n_funcs, split, asm)| {
        let mut cfg = SynthConfig::small(seed);
        cfg.n_funcs = n_funcs;
        cfg.rates = FeatureRates {
            split_cold: split,
            asm_funcs: asm,
            ..FeatureRates::default()
        };
        cfg
    })
}

/// The paper's pipeline, or 1–5 random layers with a `TcallFix` among
/// them (the layer that reads the frame table).
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    prop_oneof![
        Just(Pipeline::fetch()),
        proptest::collection::vec(any::<u8>(), 0..5).prop_map(|picks| {
            let mut specs: Vec<LayerSpec> = picks
                .iter()
                .map(|&p| KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1)
                .collect();
            let at = picks.first().map_or(0, |&p| p as usize % (specs.len() + 1));
            specs.insert(at, LayerSpec::CallFrameRepair);
            Pipeline::new(specs)
        }),
    ]
}

/// When the side thread does its work relative to the pipeline.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// Frame table and digest done before the pipeline starts.
    Ahead,
    /// Started together with the pipeline, on another thread.
    Beside,
    /// Done after the pipeline finished.
    Behind,
    /// Never runs: the leader computes the digest itself.
    Absent,
}

const SIDES: [Side; 4] = [Side::Ahead, Side::Beside, Side::Behind, Side::Absent];

/// The side thread's share: frame table first, digest second.
fn side_work(binary: &Binary, facts: &BinaryFacts) -> ImageDigest {
    facts.frame_table(binary);
    ImageDigest::compute_with_facts(None, binary, facts, 7)
}

/// The leader's pipeline run over shared facts.
fn lead(pipeline: &Pipeline, binary: &Binary, facts: &Arc<BinaryFacts>) -> DetectionResult {
    let mut state = DetectionState::with_facts(binary, RecEngine::new(), Arc::clone(facts));
    pipeline.apply(&mut state);
    state.into_result()
}

/// Runs leader and side in the given order over one `BinaryFacts`.
fn run_shared(
    pipeline: &Pipeline,
    binary: &Binary,
    side: Side,
) -> (DetectionResult, ImageDigest, Arc<BinaryFacts>) {
    let facts = Arc::new(BinaryFacts::new());
    let (result, digest) = match side {
        Side::Ahead => {
            let digest = side_work(binary, &facts);
            (lead(pipeline, binary, &facts), digest)
        }
        Side::Beside => std::thread::scope(|scope| {
            let ahead = scope.spawn(|| side_work(binary, &facts));
            let result = lead(pipeline, binary, &facts);
            (result, ahead.join().expect("side thread"))
        }),
        Side::Behind => {
            let result = lead(pipeline, binary, &facts);
            (result, side_work(binary, &facts))
        }
        Side::Absent => {
            let result = lead(pipeline, binary, &facts);
            let digest = ImageDigest::compute_with_facts(None, binary, &facts, 7);
            (result, digest)
        }
    };
    (result, digest, facts)
}

fn check_all_sides(pipeline: &Pipeline, binary: &Binary) {
    let cold = pipeline.run(binary);
    let fresh = ImageDigest::compute(binary, 7);
    for side in SIDES {
        let (result, digest, facts) = run_shared(pipeline, binary, side);
        assert_eq!(result, cold, "{side:?}: result must equal a fresh run");
        assert_eq!(digest, fresh, "{side:?}: digest must equal a fresh digest");
        let work = facts.work();
        assert_eq!(work.eh_parses, 1, "{side:?}: one .eh_frame parse: {work:?}");
        // Only `TcallFix` and the side thread read the frame table; one
        // build serves both.
        let read =
            !matches!(side, Side::Absent) || pipeline.specs().contains(&LayerSpec::CallFrameRepair);
        assert_eq!(
            work.frame_table_builds,
            u64::from(read),
            "{side:?}: frame table builds across both threads: {work:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Side thread ahead, beside, behind or absent: the same answer and
    /// digest as fresh runs, each fact computed once across threads.
    #[test]
    fn shared_facts_match_fresh_runs_wherever_the_side_thread_runs(
        cfg in arb_config(),
        pipeline in arb_pipeline(),
    ) {
        let case = synthesize(&cfg);
        check_all_sides(&pipeline, &case.binary);
        check_all_sides(&pipeline, &case.binary.stripped());
    }
}

/// A malformed `.eh_frame` is a fact too: parsed once, memoized as
/// absent, and shared as such (no FDE seeds, no frame table, one gap
/// bucket in the digest).
#[test]
fn a_malformed_eh_frame_is_parsed_once_and_shared_as_absent() {
    let case = synthesize(&SynthConfig::small(63));
    let mut garbage = case.binary.clone();
    let eh = garbage
        .sections
        .iter_mut()
        .find(|s| s.kind == SectionKind::EhFrame)
        .expect("synth binaries carry .eh_frame");
    *eh = Section::new(eh.kind, eh.addr, vec![0xff; eh.bytes.len()]);
    assert!(garbage.eh_frame().is_err(), "the garbage must not parse");
    for side in SIDES {
        let (result, digest, facts) = run_shared(&Pipeline::fetch(), &garbage, side);
        assert_eq!(result, Pipeline::fetch().run(&garbage), "{side:?}");
        assert_eq!(digest, ImageDigest::compute(&garbage, 7), "{side:?}");
        assert!(facts.frame_table(&garbage).is_none());
        assert_eq!(facts.work().eh_parses, 1, "{side:?}");
    }
}
