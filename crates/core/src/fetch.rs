//! The FETCH detector: the paper's optimal strategy combination.
//!
//! `FDE → safe recursion → function-pointer detection → call-frame
//! repair` (Figure 5c's best stack, evaluated against eight tools in
//! Table III).

use crate::algorithm1::RepairReport;
use crate::pipeline::{LayerSpec, Pipeline};
use crate::state::{DetectionResult, DetectionState};
use fetch_binary::Binary;
use fetch_disasm::ErrorCallPolicy;

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
}

impl Fetch {
    /// A detector with the paper's full pipeline enabled.
    pub fn new() -> Fetch {
        Fetch::default()
    }

    /// The declarative [`Pipeline`] this configuration runs —
    /// [`Pipeline::fetch`] with the ablation knobs applied. Both
    /// `detect*` methods execute exactly this pipeline; callers with a
    /// shared engine, a cache or a predecessor version run it through
    /// [`Pipeline::run_with_engine`], [`crate::AnalysisCache`] or
    /// [`crate::run_delta`].
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

    /// Runs detection on `binary`.
    pub fn detect(&self, binary: &Binary) -> DetectionResult {
        self.pipeline().run(binary)
    }

    /// Runs detection, also returning the call-frame repair report. The
    /// repair layer deposits its report on the state as it executes; no
    /// duplicate sequencing path exists for the report case.
    pub fn detect_with_report(&self, binary: &Binary) -> (DetectionResult, RepairReport) {
        let mut state = DetectionState::new(binary);
        self.pipeline().apply(&mut state);
        let report = state.take_repair_report().unwrap_or_default();
        (state.into_result(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_binary::Reach;
    use fetch_synth::{synthesize, SynthConfig};

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
    fn image_backed_binary_detects_like_owned_binary() {
        use fetch_binary::{write_elf, ElfImage};
        let case = synthesize(&SynthConfig::small(83));
        let image = ElfImage::parse(write_elf(&case.binary)).unwrap();
        assert_eq!(image.load_stats().section_bytes_copied, 0);
        let via_image = Fetch::new().detect(&image.to_binary());
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
