//! The FETCH detector: the paper's optimal strategy combination.
//!
//! `FDE → safe recursion → function-pointer detection → call-frame
//! repair` (Figure 5c's best stack, evaluated against eight tools in
//! Table III).

use crate::algorithm1::RepairReport;
use crate::cache::{content_fingerprint, image_fingerprint, AnalysisCache, ImageDigest};
use crate::delta::{run_delta, DeltaOutcome};
use crate::pipeline::{LayerSpec, Pipeline};
use crate::state::{DetectionResult, DetectionState};
use fetch_binary::{Binary, ElfImage};
use fetch_disasm::{ErrorCallPolicy, RecEngine};
use std::sync::Arc;

/// The FETCH pipeline (Function dETection with exCeption Handling).
///
/// # Examples
///
/// ```
/// use fetch_core::Fetch;
/// use fetch_synth::{synthesize, SynthConfig};
///
/// let case = synthesize(&SynthConfig::small(9));
/// let result = Fetch::new().detect(&case.binary);
/// // High coverage: nearly every true start is found.
/// let truth = case.truth.starts();
/// let found = result.start_set();
/// let covered = truth.intersection(&found).count();
/// assert!(covered * 100 >= truth.len() * 95);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fetch {
    /// Skip the §IV-E pointer scan (ablation knob).
    pub skip_pointer_scan: bool,
    /// Skip Algorithm 1 (ablation knob).
    pub skip_repair: bool,
    /// Worker threads for the intra-binary sharded recursive walk
    /// (`0` or `1` = serial). An execution knob, not an analysis input:
    /// results are byte-identical at every setting, and the pipeline id
    /// does not include it (see [`RecEngine::set_intra_jobs`]).
    pub intra_jobs: usize,
}

impl Fetch {
    /// A detector with the paper's full pipeline enabled.
    pub fn new() -> Fetch {
        Fetch::default()
    }

    /// The declarative [`Pipeline`] this configuration runs —
    /// [`Pipeline::fetch`] with the ablation knobs applied. Every
    /// `detect*` entry point executes exactly this pipeline.
    pub fn pipeline(&self) -> Pipeline {
        let mut specs = vec![
            LayerSpec::FdeSeeds,
            LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero),
        ];
        if !self.skip_pointer_scan {
            specs.push(LayerSpec::PointerScan);
        }
        if !self.skip_repair {
            specs.push(LayerSpec::CallFrameRepair);
        }
        Pipeline::new(specs)
    }

    /// [`Pipeline::id`] of [`Fetch::pipeline`], precomputed per knob
    /// combination so the cached entry points' warm-hit path allocates
    /// nothing (pinned to `pipeline().id()` by a unit test).
    fn pipeline_id(&self) -> &'static str {
        match (self.skip_pointer_scan, self.skip_repair) {
            (false, false) => "FDE+Rec+Xref+TcallFix",
            (true, false) => "FDE+Rec+TcallFix",
            (false, true) => "FDE+Rec+Xref",
            (true, true) => "FDE+Rec",
        }
    }

    /// Runs detection on `binary`.
    pub fn detect(&self, binary: &Binary) -> DetectionResult {
        self.detect_with_engine(binary, &mut RecEngine::new())
    }

    /// Runs detection through a caller-owned [`RecEngine`], reusing its
    /// decode cache when the engine has already seen `binary` (see
    /// [`DetectionState::with_engine`]). Result-identical to
    /// [`Fetch::detect`].
    pub fn detect_with_engine(&self, binary: &Binary, engine: &mut RecEngine) -> DetectionResult {
        engine.set_intra_jobs(self.intra_jobs);
        self.pipeline().run_with_engine(binary, engine)
    }

    /// Runs detection directly on a parsed ELF image through a
    /// caller-owned [`RecEngine`] — the zero-copy entry point: the
    /// materialized sections are windows of the image's shared buffer
    /// ([`ElfImage::to_binary`]), so no section body is copied to
    /// analyse it. Result-identical to [`Fetch::detect`] on the
    /// equivalent owned [`Binary`]. Repeated runs over one image should
    /// call [`ElfImage::to_binary`] once and use
    /// [`Fetch::detect_with_engine`] to avoid re-materializing the
    /// section and symbol vectors per call — or go through
    /// [`Fetch::detect_image_cached`] and pay for the analysis once.
    pub fn detect_image(&self, image: &ElfImage, engine: &mut RecEngine) -> DetectionResult {
        self.detect_with_engine(&image.to_binary(), engine)
    }

    /// [`Fetch::detect_image`] through a serving-layer [`AnalysisCache`]:
    /// an image already analyzed under this configuration's pipeline id
    /// is answered by a fingerprint hash and a map lookup — the image is
    /// not even materialized into a [`Binary`]. Cache hits are
    /// observationally identical to cold runs (property-tested).
    pub fn detect_image_cached(
        &self,
        image: &ElfImage,
        engine: &mut RecEngine,
        cache: &AnalysisCache,
    ) -> Arc<DetectionResult> {
        cache.get_or_compute(image_fingerprint(image), self.pipeline_id(), || {
            engine.set_intra_jobs(self.intra_jobs);
            self.pipeline().run_with_engine(&image.to_binary(), engine)
        })
    }

    /// [`Fetch::detect_with_engine`] through a serving-layer
    /// [`AnalysisCache`], keyed by the binary's content fingerprint
    /// (display name excluded — renamed binaries still hit).
    pub fn detect_cached(
        &self,
        binary: &Binary,
        engine: &mut RecEngine,
        cache: &AnalysisCache,
    ) -> Arc<DetectionResult> {
        cache.get_or_compute(content_fingerprint(binary), self.pipeline_id(), || {
            engine.set_intra_jobs(self.intra_jobs);
            self.pipeline().run_with_engine(binary, engine)
        })
    }

    /// Re-analyzes a *new version* of a previously-analyzed image
    /// through the delta ladder ([`crate::run_delta`]): verbatim reuse
    /// when the [`ImageDigest`] diff proves it sound, window-rewarmed
    /// recompute for local patches, plain cold otherwise. The outcome's
    /// result is byte-identical to [`Fetch::detect_image`] on `image`;
    /// the returned digest describes `image` and should be persisted so
    /// the *next* version can delta against this one. It is derived from
    /// `prev_digest` through [`ImageDigest::compute_from`], so only the
    /// buckets the patch touched are swept.
    pub fn detect_delta(
        &self,
        prev_result: &Arc<DetectionResult>,
        prev_digest: Option<&ImageDigest>,
        image: &ElfImage,
        engine: &mut RecEngine,
    ) -> (DeltaOutcome, ImageDigest) {
        engine.set_intra_jobs(self.intra_jobs);
        let binary = image.to_binary();
        let digest = ImageDigest::compute_from(prev_digest, &binary, image_fingerprint(image));
        let out = run_delta(
            &self.pipeline(),
            prev_result,
            prev_digest,
            &binary,
            &digest,
            engine,
        );
        (out, digest)
    }

    /// Runs detection, also returning the call-frame repair report.
    pub fn detect_with_report(&self, binary: &Binary) -> (DetectionResult, RepairReport) {
        self.detect_with_report_engine(binary, &mut RecEngine::new())
    }

    /// [`Fetch::detect_with_report`] through a caller-owned
    /// [`RecEngine`], so asking for the repair report no longer forces a
    /// cold decode cache. The repair layer deposits its report on the
    /// state as it executes; no duplicate sequencing path exists for the
    /// report case.
    pub fn detect_with_report_engine(
        &self,
        binary: &Binary,
        engine: &mut RecEngine,
    ) -> (DetectionResult, RepairReport) {
        engine.set_intra_jobs(self.intra_jobs);
        let mut state = DetectionState::with_engine(binary, std::mem::take(engine));
        self.pipeline().apply(&mut state);
        let report = state.take_repair_report().unwrap_or_default();
        let (result, used) = state.into_result_with_engine();
        *engine = used;
        (result, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_binary::Reach;
    use fetch_synth::{synthesize, SynthConfig};

    #[test]
    fn static_pipeline_ids_match_the_declarative_ones() {
        // The warm-hit fast path uses precomputed ids; they must never
        // drift from what the pipeline actually serializes to.
        for skip_pointer_scan in [false, true] {
            for skip_repair in [false, true] {
                let f = Fetch {
                    skip_pointer_scan,
                    skip_repair,
                    ..Fetch::new()
                };
                assert_eq!(f.pipeline_id(), f.pipeline().id());
            }
        }
    }

    #[test]
    fn fetch_end_to_end_shape() {
        // The paper's headline: near-full coverage, near-full accuracy.
        let mut cfg = SynthConfig::small(81);
        cfg.n_funcs = 200;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = 8;
        cfg.rates.mislabeled_fdes = 1;
        let case = synthesize(&cfg);
        let result = Fetch::new().detect(&case.binary);

        let truth = case.truth.starts();
        let found = result.start_set();

        // False negatives: only harmless classes (single-caller
        // tail-only and unreachable functions).
        for missed in truth.difference(&found) {
            let f = case.truth.function_at(*missed).unwrap();
            assert!(
                matches!(
                    f.reach,
                    Reach::TailCalled { callers: 1 } | Reach::Unreachable
                ),
                "harmful miss: {} at {missed:#x} ({:?})",
                f.name,
                f.reach
            );
        }

        // False positives: the overwhelming majority of FDE cold-part
        // starts are repaired; remaining FPs must be cold parts of
        // frame-pointer functions (incomplete CFI).
        let part_starts = case.truth.part_starts();
        for fp in found.difference(&truth) {
            assert!(
                part_starts.contains(fp),
                "unexplained false positive {fp:#x}"
            );
        }
    }

    #[test]
    fn intra_jobs_is_invisible_in_results() {
        // The sharded walk is an execution strategy, not an analysis
        // input: every worker count produces the serial result.
        let mut cfg = SynthConfig::small(84);
        cfg.n_funcs = 120;
        cfg.rates.split_cold = 0.1;
        cfg.rates.mislabeled_fdes = 1;
        let case = synthesize(&cfg);
        let serial = Fetch::new().detect(&case.binary);
        for jobs in [2, 3, 7] {
            let sharded = Fetch {
                intra_jobs: jobs,
                ..Fetch::new()
            }
            .detect(&case.binary);
            assert_eq!(sharded, serial, "intra_jobs={jobs} drifted");
        }
    }

    #[test]
    fn detect_image_matches_owned_binary() {
        use fetch_binary::{write_elf, ElfImage};
        let case = synthesize(&SynthConfig::small(83));
        let image = ElfImage::parse(write_elf(&case.binary)).unwrap();
        assert_eq!(image.load_stats().section_bytes_copied, 0);
        let mut engine = RecEngine::new();
        let via_image = Fetch::new().detect_image(&image, &mut engine);
        let via_binary = Fetch::new().detect(&case.binary);
        assert_eq!(via_image, via_binary);
    }

    #[test]
    fn ablations_change_results() {
        let mut cfg = SynthConfig::small(82);
        cfg.n_funcs = 150;
        cfg.rates.split_cold = 0.12;
        let case = synthesize(&cfg);
        let full = Fetch::new().detect(&case.binary);
        let no_repair = Fetch {
            skip_repair: true,
            ..Fetch::new()
        }
        .detect(&case.binary);
        let truth = case.truth.starts();
        let fp = |r: &crate::state::DetectionResult| r.start_set().difference(&truth).count();
        assert!(
            fp(&no_repair) > fp(&full),
            "repair reduces false positives ({} > {})",
            fp(&no_repair),
            fp(&full)
        );
    }
}
