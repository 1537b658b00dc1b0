//! Property tests for the serving-layer [`AnalysisCache`]: a cache hit
//! is observationally identical to a cold run.
//!
//! Random corpora × random pipelines × random query interleavings, all
//! funneled through one shared cache and one shared engine (the
//! production shape: a worker's engine is warm with arbitrary prior
//! state, the cache is shared by everyone). Each query runs the daemon's
//! answer sequence (`AnalysisService::lookup_warm`): a counted lookup
//! keyed by [`image_fingerprint`], then on a miss the computed result
//! inserted. Every answer must equal a cold, cache-free, fresh-engine
//! run of the same `(binary, pipeline)` — and the cache's bookkeeping
//! (hit/miss counts, entry count) must add up exactly.

use fetch_binary::{write_elf, Binary, ElfImage};
use fetch_core::{
    bytes_fingerprint, image_fingerprint, AnalysisCache, CacheCapacity, DetectionResult, LayerSpec,
    Pipeline, KNOWN_LAYERS,
};
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The cache key of `binary`: [`image_fingerprint`] of its ELF.
fn fp_of(binary: &Binary) -> u64 {
    image_fingerprint(&ElfImage::parse(write_elf(binary)).unwrap())
}

/// A counted lookup, then on a miss `run`'s result inserted.
fn serve(
    cache: &AnalysisCache,
    fp: u64,
    id: &str,
    run: impl FnOnce() -> DetectionResult,
) -> Arc<DetectionResult> {
    cache
        .lookup(fp, id)
        .unwrap_or_else(|| cache.insert_with_digest(fp, id, Arc::new(run()), None))
}

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

/// A random pipeline: 1–4 layers drawn from the full vocabulary.
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    proptest::collection::vec(any::<u8>(), 1..5).prop_map(|picks| {
        let specs: Vec<LayerSpec> = picks
            .iter()
            .map(|&p| KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1)
            .collect();
        Pipeline::new(specs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The serving guarantee: for any interleaving of (binary, pipeline)
    /// queries against one shared cache and one shared warm engine,
    /// every answer equals the cold cache-free run.
    #[test]
    fn cache_hits_equal_cold_runs(
        cfgs in proptest::collection::vec(arb_config(), 2..4),
        pipelines in proptest::collection::vec(arb_pipeline(), 2..4),
        queries in proptest::collection::vec((any::<u8>(), any::<u8>()), 4..14),
    ) {
        let cases: Vec<_> = cfgs.iter().map(synthesize).collect();
        let fps: Vec<u64> = cases.iter().map(|c| fp_of(&c.binary)).collect();
        let cache = AnalysisCache::new();
        let mut engine = fetch_disasm::RecEngine::new();

        let mut distinct: BTreeSet<(u64, String)> = BTreeSet::new();
        for (bi, pi) in &queries {
            let bi = *bi as usize % cases.len();
            let case = &cases[bi];
            let pipeline = &pipelines[*pi as usize % pipelines.len()];
            let fp = fps[bi];
            distinct.insert((fp, pipeline.id()));

            let served = serve(&cache, fp, &pipeline.id(), || {
                pipeline.run_with_engine(&case.binary, &mut engine)
            });
            let cold = pipeline.run(&case.binary);
            prop_assert_eq!(
                &*served, &cold,
                "query (bin {}, pipeline {}) diverged through the cache",
                case.binary.name, pipeline.id()
            );
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, queries.len() as u64);
        prop_assert_eq!(stats.misses as usize, distinct.len());
        prop_assert_eq!(stats.entries, distinct.len());
        prop_assert_eq!(cache.len(), distinct.len());
    }

    /// The bounded-cache guarantee: under any entry/byte capacity and
    /// any query interleaving, every answer still equals the cold
    /// cache-free run, residency never exceeds either bound, and the
    /// books balance exactly (hits + misses = queries;
    /// insert attempts = misses; live entries = misses − evictions).
    #[test]
    fn bounded_cache_serves_cold_equal_results_within_capacity(
        cfgs in proptest::collection::vec(arb_config(), 2..4),
        pipelines in proptest::collection::vec(arb_pipeline(), 2..4),
        queries in proptest::collection::vec((any::<u8>(), any::<u8>()), 6..18),
        max_entries in 1usize..5,
        byte_bound in (any::<bool>(), 1usize..6),
    ) {
        // The shim has no `proptest::option::of`; derive Option here.
        let byte_divisor = byte_bound.0.then_some(byte_bound.1);
        let cases: Vec<_> = cfgs.iter().map(synthesize).collect();
        let fps: Vec<u64> = cases.iter().map(|c| fp_of(&c.binary)).collect();

        // Cold reference results, computed once, cache-free.
        let mut colds: Vec<Vec<_>> = Vec::new();
        for case in &cases {
            colds.push(pipelines.iter().map(|p| p.run(&case.binary)).collect());
        }

        // An optional byte bound scaled from a real result size, so it
        // actually bites for some draws and not others.
        let max_bytes = byte_divisor.map(|d| colds[0][0].approx_bytes() * 2 / d);
        let capacity = CacheCapacity { max_entries: Some(max_entries), max_bytes };
        let cache = AnalysisCache::with_capacity(capacity);
        let mut engine = fetch_disasm::RecEngine::new();

        for (bi, pi) in &queries {
            let (bi, pi) = (*bi as usize % cases.len(), *pi as usize % pipelines.len());
            let case = &cases[bi];
            let pipeline = &pipelines[pi];
            let served = serve(&cache, fps[bi], &pipeline.id(), || {
                pipeline.run_with_engine(&case.binary, &mut engine)
            });
            prop_assert_eq!(
                &*served, &colds[bi][pi],
                "bounded cache diverged from cold on (bin {}, pipeline {})",
                bi, pipeline.id()
            );

            let stats = cache.stats();
            prop_assert!(
                stats.entries <= max_entries,
                "entry capacity exceeded: {} > {max_entries}", stats.entries
            );
            if let Some(max_bytes) = max_bytes {
                prop_assert!(
                    stats.bytes <= max_bytes,
                    "byte capacity exceeded: {} > {max_bytes}", stats.bytes
                );
            }
            prop_assert_eq!(cache.len(), stats.entries);
        }

        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, queries.len() as u64);
        prop_assert_eq!(
            stats.entries as u64,
            stats.misses - stats.evictions,
            "every miss inserted exactly once; every eviction removed exactly once"
        );
    }

    /// Image-path serving: a cache keyed by [`image_fingerprint`]
    /// equals the uncached image path, and repeated queries are all
    /// hits handing back the same entry.
    #[test]
    fn cached_image_detection_equals_cold(cfg in arb_config(), repeats in 1usize..4) {
        let case = synthesize(&cfg);
        let image = ElfImage::parse(write_elf(&case.binary)).unwrap();
        let pipeline = fetch_core::Pipeline::fetch();
        let id = pipeline.id();
        let fp = image_fingerprint(&image);
        let cache = AnalysisCache::new();
        let mut engine = fetch_disasm::RecEngine::new();
        let mut cached = || {
            serve(&cache, fp, &id, || {
                pipeline.run_with_engine(&image.to_binary(), &mut engine)
            })
        };

        let first = cached();
        let cold = pipeline.run(&image.to_binary());
        prop_assert_eq!(&*first, &cold, "cached image path diverged");
        for _ in 0..repeats {
            let again = cached();
            prop_assert!(
                Arc::ptr_eq(&first, &again),
                "repeat query must be served from the cache"
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, repeats as u64);
    }

    /// The key a request gets before any parse is the key of its parsed
    /// image: the daemon fingerprints raw bytes, everything else keys by
    /// [`image_fingerprint`].
    #[test]
    fn image_fingerprint_is_the_raw_bytes_fingerprint(cfg in arb_config()) {
        let bytes = write_elf(&synthesize(&cfg).binary);
        let image = ElfImage::parse(bytes.clone()).unwrap();
        prop_assert_eq!(image_fingerprint(&image), bytes_fingerprint(&bytes));
    }
}
