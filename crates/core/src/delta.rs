//! Delta re-analysis: answer a re-submitted (patched) binary from its
//! predecessor's result wherever the [`ImageDigest`] diff proves that
//! sound, and run the pipeline cold otherwise.
//!
//! The ladder ([`run_delta`]):
//!
//! 1. **Unchanged** — the digests are content-identical: the old result
//!    is the answer verbatim. No decode, no pipeline.
//! 2. **Section reuse** — the diff is [`DigestDiff::LocalText`], every
//!    text bucket is *semantically* equal (only delta-masked `mov`
//!    immediates moved), and the pipeline is [`Pipeline::delta_safe`]:
//!    the old result is still the answer verbatim, because no
//!    delta-safe layer can observe a masked immediate.
//! 3. **Recompute** — the diff is local but tier 2's conditions fail
//!    (real code changed, or the pipeline contains a byte-scanning
//!    layer): no verbatim tier can prove the old answer, so the
//!    pipeline runs cold.
//! 4. **Cold** — the diff is [`DigestDiff::NonLocal`] (or there is no
//!    previous digest at all): the pipeline runs cold, exactly as if
//!    the binary had never been seen.
//!
//! Tiers 3 and 4 run the same code; they stay distinct labels so
//! telemetry can tell the two fallback reasons apart. Every tier returns
//! a result byte-identical to a cold run of the same pipeline on the new
//! binary — tiers 3–4 because they *are* cold runs; tiers 1–2 by the
//! digest soundness argument above, pinned by the differential suite in
//! `tests/proptest_delta.rs`.

use crate::cache::{diff_digests, DigestDiff, ImageDigest};
use crate::pipeline::Pipeline;
use crate::state::DetectionResult;
use fetch_binary::Binary;
use fetch_disasm::RecEngine;
use std::sync::Arc;

/// Which tier of the delta ladder produced a [`DeltaOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaClass {
    /// Tier 1: digests content-identical; old result returned verbatim.
    Unchanged,
    /// Tier 2: local, semantically-equal text change under a delta-safe
    /// pipeline; old result returned verbatim.
    SectionReuse,
    /// Tier 3: local change that no verbatim tier can prove; ran cold.
    Recompute,
    /// Tier 4: non-local change or no previous digest; ran cold.
    Cold,
}

impl DeltaClass {
    /// Stable lowercase token for telemetry (`stats.delta` naming).
    pub fn token(&self) -> &'static str {
        match self {
            DeltaClass::Unchanged => "unchanged",
            DeltaClass::SectionReuse => "section_reuse",
            DeltaClass::Recompute => "recompute",
            DeltaClass::Cold => "cold",
        }
    }

    /// Whether the old result was returned verbatim (tiers 1–2) — the
    /// serving layer's `delta_hits` counter counts exactly these.
    pub fn is_hit(&self) -> bool {
        matches!(self, DeltaClass::Unchanged | DeltaClass::SectionReuse)
    }
}

/// The product of [`run_delta`]: the (cold-identical) result plus how it
/// was obtained.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The detection result for the *new* binary. Byte-identical to a
    /// cold run of the same pipeline; on tiers 1–2 it is the previous
    /// result's `Arc`, untouched.
    pub result: Arc<DetectionResult>,
    /// The ladder tier that produced it.
    pub class: DeltaClass,
    /// Text buckets whose raw bytes were unchanged between the two
    /// versions — the reuse the digest diff *proved*, whichever tier
    /// ran. Zero on tier 4.
    pub sections_reused: usize,
}

/// Runs the delta ladder for `pipeline` over `new_binary`, given the
/// previous version's result and (optionally) its digest.
///
/// `new_digest` must be [`ImageDigest::compute`]d from `new_binary`;
/// the caller keeps it to persist alongside the returned result (so the
/// *next* version can delta against this one). A `None` `prev_digest`
/// — a result stored before digests existed — drops straight to tier 4.
///
/// The engine is only consulted on tiers 3–4, which run the pipeline
/// through it with [`Pipeline::run_with_engine`].
pub fn run_delta(
    pipeline: &Pipeline,
    prev_result: &Arc<DetectionResult>,
    prev_digest: Option<&ImageDigest>,
    new_binary: &Binary,
    new_digest: &ImageDigest,
    engine: &mut RecEngine,
) -> DeltaOutcome {
    let (class, sections_reused) = delta_tier(pipeline, prev_digest, new_digest);
    let result = if class.is_hit() {
        Arc::clone(prev_result)
    } else {
        Arc::new(pipeline.run_with_engine(new_binary, engine))
    };
    DeltaOutcome {
        result,
        class,
        sections_reused,
    }
}

/// The ladder's decision alone: which tier answers the new version, and
/// how many text buckets the digest diff proved unchanged
/// ([`DeltaOutcome::sections_reused`]). On a hit tier
/// ([`DeltaClass::is_hit`]) the previous result is the answer verbatim;
/// on tiers 3–4 the caller runs the pipeline cold — [`run_delta`] with
/// a fresh state, or a caller that shares [`crate::BinaryFacts`] with
/// another thread through [`crate::DetectionState::with_facts`].
pub fn delta_tier(
    pipeline: &Pipeline,
    prev_digest: Option<&ImageDigest>,
    new_digest: &ImageDigest,
) -> (DeltaClass, usize) {
    let Some(old) = prev_digest else {
        return (DeltaClass::Cold, 0);
    };
    match diff_digests(old, new_digest) {
        DigestDiff::Identical { buckets } => (DeltaClass::Unchanged, buckets),
        DigestDiff::LocalText { sem_equal, reused } if sem_equal && pipeline.delta_safe() => {
            (DeltaClass::SectionReuse, reused)
        }
        DigestDiff::LocalText { reused, .. } => (DeltaClass::Recompute, reused),
        DigestDiff::NonLocal { .. } => (DeltaClass::Cold, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::image_fingerprint;
    use fetch_binary::{write_elf, ElfImage};
    use fetch_synth::{synthesize, SynthConfig};

    fn digest_of(binary: &Binary) -> ImageDigest {
        let image = ElfImage::parse(write_elf(binary)).unwrap();
        ImageDigest::compute(binary, image_fingerprint(&image))
    }

    #[test]
    fn identical_resubmission_is_tier_one() {
        let case = synthesize(&SynthConfig::small(41));
        let pipeline = Pipeline::fetch();
        let digest = digest_of(&case.binary);
        let cold = Arc::new(pipeline.run(&case.binary));

        let mut engine = RecEngine::new();
        let out = run_delta(
            &pipeline,
            &cold,
            Some(&digest),
            &case.binary,
            &digest,
            &mut engine,
        );
        assert_eq!(out.class, DeltaClass::Unchanged);
        assert!(out.class.is_hit());
        assert!(Arc::ptr_eq(&out.result, &cold));
        assert_eq!(out.sections_reused, digest.text_bucket_count());
    }

    #[test]
    fn missing_digest_is_tier_four_and_cold_identical() {
        let case = synthesize(&SynthConfig::small(42));
        let pipeline = Pipeline::fetch();
        let digest = digest_of(&case.binary);
        let cold = Arc::new(pipeline.run(&case.binary));

        let mut engine = RecEngine::new();
        let out = run_delta(&pipeline, &cold, None, &case.binary, &digest, &mut engine);
        assert_eq!(out.class, DeltaClass::Cold);
        assert!(!out.class.is_hit());
        assert_eq!(out.sections_reused, 0);
        assert_eq!(*out.result, *cold);
    }
}
