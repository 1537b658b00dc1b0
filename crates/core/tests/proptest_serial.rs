//! Property tests for the persistence wire format
//! ([`fetch_core::serialize_result_with_digest`] /
//! [`fetch_core::deserialize_result_full`]): the encoding is the
//! result's content alone, so two runs of one pipeline over one image
//! encode to the same bytes however warm the engine was;
//! serialize→deserialize is the identity on that content and leaves the
//! instrumentation zero; and corrupted or truncated encodings are always
//! *rejected*, never misread into a plausible result.

use fetch_core::{
    deserialize_result_full, serialize_result_with_digest, DetectionResult, LayerSpec, Pipeline,
    SerialError, KNOWN_LAYERS,
};
use fetch_disasm::RecEngine;
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (any::<u64>(), 10usize..50, 0.0f64..0.15, 0usize..6).prop_map(|(seed, n_funcs, split, asm)| {
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

/// A random pipeline over the full vocabulary (duplicates allowed —
/// `Pipeline::new` is the permissive constructor, and persistence must
/// handle anything the executor can produce).
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    proptest::collection::vec(any::<u8>(), 1..6).prop_map(|picks| {
        let specs: Vec<LayerSpec> = picks
            .iter()
            .map(|&p| KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1)
            .collect();
        Pipeline::new(specs)
    })
}

/// Whether every instrumentation field of `r`'s trace is zero.
fn uninstrumented(r: &DetectionResult) -> bool {
    r.trace.iter().all(|t| {
        (
            t.wall_nanos,
            t.decode_hits,
            t.decode_misses,
            t.bytes_scanned,
            t.candidates_checked,
        ) == (0, 0, 0, 0, 0)
    })
}

fn encode(result: &DetectionResult) -> Vec<u8> {
    serialize_result_with_digest(result, None).expect("known-layer results serialize")
}

fn decode(bytes: &[u8]) -> Result<DetectionResult, SerialError> {
    deserialize_result_full(bytes).map(|(result, _)| result)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same input, same bytes: a cold run and a second run on the same,
    /// now warm, engine (other walls, other decode counters) encode
    /// identically.
    #[test]
    fn same_input_encodes_to_same_bytes(cfg in arb_config(), pipeline in arb_pipeline()) {
        let case = synthesize(&cfg);
        let mut engine = RecEngine::new();
        let cold = pipeline.run_with_engine(&case.binary, &mut engine);
        let warm = pipeline.run_with_engine(&case.binary, &mut engine);
        prop_assert_eq!(encode(&cold), encode(&warm), "pipeline {}", pipeline.id());
    }

    /// Round trip: deserialize(serialize(r)) == r with zero
    /// instrumentation, and re-serialization is byte-identical.
    #[test]
    fn round_trip_is_identity(cfg in arb_config(), pipeline in arb_pipeline()) {
        let case = synthesize(&cfg);
        let result = pipeline.run(&case.binary);
        let bytes = encode(&result);
        let back = decode(&bytes).expect("own encoding loads");
        prop_assert_eq!(&back, &result, "pipeline {}", pipeline.id());
        prop_assert!(uninstrumented(&back), "a loaded trace is not instrumentation");
        prop_assert_eq!(encode(&back), bytes);
    }

    /// Any single-byte corruption and any strict truncation must be
    /// rejected with an error — never silently decoded.
    #[test]
    fn corruption_and_truncation_are_rejected(
        cfg in arb_config(),
        pipeline in arb_pipeline(),
        flip_pos in any::<u16>(),
        flip_bit in 0u32..8,
        cut in any::<u16>(),
    ) {
        let case = synthesize(&cfg);
        let result = pipeline.run(&case.binary);
        let bytes = encode(&result);

        let mut flipped = bytes.clone();
        let pos = flip_pos as usize % flipped.len();
        flipped[pos] ^= 1 << flip_bit;
        prop_assert!(
            decode(&flipped).is_err(),
            "bit flip at {pos} was not detected"
        );

        let len = cut as usize % bytes.len(); // strictly shorter
        prop_assert!(
            decode(&bytes[..len]).is_err(),
            "truncation to {len} bytes was not detected"
        );
    }
}
