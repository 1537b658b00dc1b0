//! Differential golden suite: the declarative pipeline subsystem is
//! byte-identical to the pre-refactor hand-assembled stacks.
//!
//! Before the `Pipeline` subsystem, every Table III tool model was an
//! imperative call over a hardcoded slice of layer objects, and the FETCH
//! detector sequenced its four layers by hand. Once the nine stacks became data
//! (and their [`Pipeline::id`] strings pinned each stack's
//! composition), a differential against those literal stacks had done
//! its job. What remains is its output: a golden snapshot of every
//! tool's canonical projection over the determinism corpus, recorded
//! while the literal stacks still existed and were proven equal, and
//! checked here with shared and fresh engines.

use fetch_bench::{dataset2, BenchOpts};
use fetch_core::{CallFrameRepair, DetectionResult, DetectionState, LayerSpec, Pipeline, Tool};
use fetch_disasm::{ErrorCallPolicy, RecEngine};
use fetch_synth::corpus::CorpusScale;
use fetch_tools::run_tool;

/// The same corpus shape the batch-determinism suite sweeps.
fn determinism_corpus() -> Vec<fetch_binary::TestCase> {
    let opts = BenchOpts {
        scale: CorpusScale {
            bin_divisor: 48,
            func_scale: 0.25,
        },
        ..BenchOpts::default()
    };
    dataset2(&opts)
}

/// The fully deterministic projection of a result: starts with
/// provenance, layer order, and each trace entry's
/// `(name, added, removed, starts_after)`.
fn canonical(r: &DetectionResult) -> String {
    let deltas: Vec<_> = r
        .trace
        .iter()
        .map(|t| (t.name, &t.added, &t.removed, t.starts_after))
        .collect();
    format!("{:?} | {:?} | {:?}", r.starts, r.layer_names(), deltas)
}

/// Strict canonical comparison: `==` (starts, layers, deterministic
/// trace deltas) plus the rendered [`canonical`] projection, so a
/// `PartialEq` bug could not silently weaken the suite.
fn assert_identical(a: &DetectionResult, b: &DetectionResult, what: &str) {
    assert_eq!(a, b, "{what}: results diverged");
    assert_eq!(
        canonical(a),
        canonical(b),
        "{what}: canonical form diverged"
    );
}

/// FNV-1a (64-bit) over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a of one line per corpus binary: the [`canonical`] projection,
/// or `rejected` where the tool model refuses the binary.
fn snapshot(results: impl Iterator<Item = Option<DetectionResult>>) -> u64 {
    results.fold(0xcbf2_9ce4_8422_2325, |h, r| {
        let line = r.as_ref().map_or_else(|| "rejected".to_string(), canonical);
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    })
}

/// Each tool's [`snapshot`] over the determinism corpus, recorded from
/// the literal pre-refactor stacks (which matched `Pipeline::for_tool`
/// byte for byte when they were deleted).
const GOLDEN: [(Tool, u64); 9] = [
    (Tool::Dyninst, 0x25a0_35ed_5a7e_c121),
    (Tool::Bap, 0x7977_a0dd_a02a_837d),
    (Tool::Radare2, 0xdf06_32a8_9b7c_c979),
    (Tool::Nucleus, 0x6ecf_7e00_e00c_62f7),
    (Tool::IdaPro, 0xe60e_3cfc_9490_4412),
    (Tool::BinaryNinja, 0x85ad_5141_1f9a_b9ea),
    (Tool::Ghidra, 0xbb1f_1eb3_924c_7c7f),
    (Tool::Angr, 0x0695_3731_e79c_3c33),
    (Tool::Fetch, 0xa0e4_7850_d573_4752),
];

#[test]
fn for_tool_pipelines_match_pre_refactor_stacks() {
    let cases = determinism_corpus();
    assert_eq!(cases.len(), 45, "the golden snapshot covers 45 binaries");
    for (tool, golden) in GOLDEN {
        // One engine carried across the whole corpus per tool — the
        // production configuration of the batch driver — and a fresh
        // engine per binary.
        let mut engine = RecEngine::new();
        let shared = snapshot(cases.iter().map(|c| run_tool(tool, &c.binary, &mut engine)));
        let fresh = snapshot(
            cases
                .iter()
                .map(|c| run_tool(tool, &c.binary, &mut RecEngine::new())),
        );
        assert_eq!(
            shared, golden,
            "{tool} (shared engine) drifted from the golden snapshot"
        );
        assert_eq!(
            fresh, golden,
            "{tool} (fresh engines) drifted from the golden snapshot"
        );
    }
}

#[test]
fn fetch_entry_points_match_pre_refactor_sequence() {
    // `Pipeline::fetch()` and its ablation specs (which drop layers, not
    // reorder them) must each equal the old hand-sequenced pipeline, on
    // a fresh engine and on one threaded through every run.
    let cases = determinism_corpus();
    let case = &cases[cases.len() / 2];
    let mut engine = RecEngine::new();
    for (skip_scan, skip_repair) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut legacy_layers = vec![
            LayerSpec::FdeSeeds,
            LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero),
        ];
        let mut id = String::from("FDE+Rec");
        if !skip_scan {
            legacy_layers.push(LayerSpec::PointerScan);
            id.push_str("+Xref");
        }
        if !skip_repair {
            legacy_layers.push(LayerSpec::CallFrameRepair);
            id.push_str("+TcallFix");
        }
        let legacy = Pipeline::new(legacy_layers).run_with_engine(&case.binary, &mut engine);
        let spec = Pipeline::parse(&id).unwrap();
        assert_identical(&spec.run(&case.binary), &legacy, &format!("{id} run"));
        assert_identical(
            &spec.run_with_engine(&case.binary, &mut engine),
            &legacy,
            &format!("{id} run_with_engine"),
        );
    }
    let fetch = Pipeline::fetch().run(&case.binary);
    assert_eq!(fetch.layer_names(), ["FDE", "Rec", "Xref", "TcallFix"]);

    // The repair report, from Algorithm 1 run by hand on an
    // `FDE+Rec+Xref` state: its removals are exactly the starts the
    // repair removed, which are the pipeline's TcallFix trace's.
    let mut state = DetectionState::new(&case.binary);
    Pipeline::parse("FDE+Rec+Xref").unwrap().apply(&mut state);
    let before = state.starts().clone();
    let report = CallFrameRepair::default().repair(&mut state);
    let removed: Vec<u64> = before
        .keys()
        .filter(|a| !state.starts().contains_key(a))
        .copied()
        .collect();
    let mut reported: Vec<u64> = report
        .merged
        .iter()
        .map(|(removed, _)| *removed)
        .chain(report.bad_fdes_removed.iter().copied())
        .collect();
    reported.sort_unstable();
    assert!(
        !reported.is_empty(),
        "the repair merged or removed something"
    );
    assert_eq!(reported, removed, "report/state removal mismatch");
    let tcall_trace = fetch.trace.last().expect("repair ran");
    assert_eq!(tcall_trace.name, "TcallFix");
    let traced: Vec<u64> = tcall_trace.removed.iter().map(|(a, _)| *a).collect();
    assert_eq!(reported, traced, "report/trace removal mismatch");
}
