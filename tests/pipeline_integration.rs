//! Workspace-level integration tests: the full pipeline over multiple
//! corpus configurations, exercising every crate together.

use fetch::binary::{write_elf, ElfImage, FuncKind, Reach, TestCase};
use fetch::core::Pipeline;
use fetch::disasm::RecEngine;
use fetch::metrics::{evaluate, Aggregate};
use fetch::synth::{synthesize, FeatureRates, SynthConfig};
use fetch::tools::{run_tool, Tool};

fn rich_case(seed: u64) -> TestCase {
    let mut cfg = SynthConfig::small(seed);
    cfg.n_funcs = 120;
    cfg.rates = FeatureRates {
        split_cold: 0.10,
        asm_funcs: 12,
        mislabeled_fdes: 1,
        bad_thunks: 2,
        data_in_text: 0.10,
        ..FeatureRates::default()
    };
    synthesize(&cfg)
}

#[test]
fn fetch_on_rich_corpora_meets_paper_shape() {
    let mut agg = Aggregate::new();
    for seed in [11u64, 22, 33, 44, 55] {
        let case = rich_case(seed);
        let result = Pipeline::fetch().run(&case.binary);
        let e = evaluate(&result.start_set(), &case);
        // Near-full recall and precision on every binary.
        assert!(e.recall() > 0.93, "seed {seed}: recall {:.3}", e.recall());
        assert!(
            e.precision() > 0.95,
            "seed {seed}: precision {:.3}",
            e.precision()
        );
        agg.add(&e);
    }
    assert_eq!(agg.binaries, 5);
    assert!(agg.coverage_pct() > 95.0);
}

#[test]
fn misses_are_only_harmless_classes() {
    for seed in [66u64, 77] {
        let case = rich_case(seed);
        let result = Pipeline::fetch().run(&case.binary);
        let truth = case.truth.starts();
        let found = result.start_set();
        for missed in truth.difference(&found) {
            let f = case
                .truth
                .function_at(*missed)
                .expect("truth covers misses");
            // Tail-only functions (missing them is inlining-equivalent,
            // §V-C) and unreachable assembly are the harmless classes.
            assert!(
                matches!(f.reach, Reach::TailCalled { .. } | Reach::Unreachable),
                "seed {seed}: harmful miss {} ({:?}, {:?})",
                f.name,
                f.reach,
                f.kind
            );
        }
    }
}

#[test]
fn false_positives_are_only_residual_cold_parts() {
    for seed in [88u64, 99] {
        let case = rich_case(seed);
        let result = Pipeline::fetch().run(&case.binary);
        let truth = case.truth.starts();
        let parts = case.truth.part_starts();
        for fp in result.start_set().difference(&truth) {
            // Every false positive is a known FDE part start (cold part
            // of a frame-pointer function whose CFI is incomplete).
            assert!(parts.contains(fp), "seed {seed}: unexplained FP {fp:#x}");
        }
    }
}

#[test]
fn detection_is_deterministic() {
    let case = rich_case(123);
    let a = Pipeline::fetch().run(&case.binary);
    let b = Pipeline::fetch().run(&case.binary);
    assert_eq!(a, b);
}

#[test]
fn detection_survives_elf_round_trip() {
    // Write the binary to a real ELF image, load it back, and verify the
    // detector sees the same world, with every section a window of one
    // shared resident buffer.
    let case = rich_case(321);
    let image = ElfImage::parse(write_elf(&case.binary)).expect("own ELF parses");
    let viewed = image.to_binary();
    for pair in viewed.sections.windows(2) {
        assert!(pair[0].shares_image(&pair[1]), "one backing buffer");
    }
    let direct = Pipeline::fetch().run(&case.binary);
    let via_image = Pipeline::fetch().run(&viewed);
    assert_eq!(direct.start_set(), via_image.start_set());
    assert_eq!(direct, via_image);
}

#[test]
fn stripping_symbols_barely_affects_fetch() {
    // FETCH is FDE-driven: removing the symbol table must not change
    // detection except through the error()-name knowledge.
    let case = rich_case(456);
    let full = Pipeline::fetch().run(&case.binary);
    let stripped = Pipeline::fetch().run(&case.binary.stripped());
    let d1 = full.start_set();
    let d2 = stripped.start_set();
    let sym_only: Vec<_> = d1.symmetric_difference(&d2).collect();
    assert!(
        sym_only.len() <= 4,
        "stripping changed {} starts: {sym_only:x?}",
        sym_only.len()
    );
}

#[test]
fn safe_recursion_never_invents_starts() {
    // The §IV-C guarantee: FDE + safe recursion adds no false positives
    // beyond what the FDEs themselves introduce.
    for seed in [1u64, 2, 3, 4] {
        let case = rich_case(seed);
        let r = Pipeline::parse("FDE+Rec").unwrap().run(&case.binary);
        let parts = case.truth.part_starts();
        let mislabel_ok: std::collections::BTreeSet<u64> = parts.iter().map(|s| s - 1).collect();
        for s in r.start_set() {
            assert!(
                parts.contains(&s) || mislabel_ok.contains(&s),
                "seed {seed}: invented start {s:#x}"
            );
        }
    }
}

#[test]
fn every_tool_is_deterministic_and_total() {
    let case = rich_case(777);
    for tool in Tool::ALL {
        let a = run_tool(tool, &case.binary, &mut RecEngine::new());
        let b = run_tool(tool, &case.binary, &mut RecEngine::new());
        assert_eq!(a.is_some(), b.is_some(), "{tool} determinism");
        if let (Some(a), Some(b)) = (a, b) {
            assert_eq!(a.start_set(), b.start_set(), "{tool} determinism");
        }
    }
}

#[test]
fn assembly_functions_drive_the_fde_gap() {
    // §IV-B: the FDE coverage gap is (almost) entirely assembly.
    let case = rich_case(888);
    let r = Pipeline::parse("FDE").unwrap().run(&case.binary);
    let found = r.start_set();
    let truth = case.truth.starts();
    for missed in truth.difference(&found) {
        let f = case.truth.function_at(*missed).unwrap();
        assert!(
            f.kind == FuncKind::Assembly || f.kind == FuncKind::ClangCallTerminate,
            "non-assembly FDE miss: {} ({:?})",
            f.name,
            f.kind
        );
    }
}
