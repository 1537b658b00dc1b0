//! Differential soundness of delta re-analysis: every tier of
//! [`run_delta`] must be **byte-identical** to a cold run of the same
//! pipeline on the new binary.
//!
//! Tiers 3–4 are full pipeline runs; the load-bearing claims here are
//! the *verbatim-reuse* tiers:
//!
//! * tier 1 (*unchanged*): an identical resubmission returns the old
//!   result untouched, under **any** pipeline;
//! * tier 2 (*section reuse*): a semantically-masked text patch
//!   ([`PatchKind::Neutral`]) returns the old result untouched, under
//!   any [`Pipeline::delta_safe`] pipeline — i.e. the
//!   [`fetch_core::LayerSpec::delta_safe`] whitelist really is
//!   invariant under immediate masking.
//!
//! The suite drives random corpora × random patches (all three
//! [`PatchKind`]s) × random pipelines drawn from [`KNOWN_LAYERS`]
//! (including non-delta-safe, byte-scanning layers, which must demote
//! tier 2 to a recompute), with the engine both cold and pre-warmed on
//! the *old* version (the pooled-engine shape the serving layer uses:
//! tiers 3–4 must not read the old version's decodes).
//!
//! It also pins the incremental digest: [`ImageDigest::compute_from`]
//! along random version chains, each step derived from the previous
//! step's incremental digest, must equal a full [`ImageDigest::compute`]
//! field for field — plus targeted cases for each byte dependency the
//! reuse rules rest on.

use fetch_binary::{write_elf, Binary, ElfImage, Section, SectionKind, TestCase};
use fetch_core::{image_fingerprint, run_delta, DeltaClass, ImageDigest, Pipeline, KNOWN_LAYERS};
use fetch_disasm::RecEngine;
use fetch_synth::{
    patch_function, synthesize, FeatureRates, FunctionPatch, PatchKind, SynthConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

fn digest_of(binary: &Binary) -> ImageDigest {
    let image = ElfImage::parse(write_elf(binary)).unwrap();
    ImageDigest::compute(binary, image_fingerprint(&image))
}

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (any::<u64>(), 20usize..70, 0.0f64..0.12, 0usize..8).prop_map(|(seed, n_funcs, split, asm)| {
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

/// A random layer stack over the full spec registry — including the
/// byte-scanning layers the incremental suite's pool omits, because
/// *their* misclassification as delta-safe is exactly what this suite
/// exists to catch.
fn pipeline_from(picks: &[u8]) -> Pipeline {
    Pipeline::new(
        picks
            .iter()
            .map(|&p| KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1)
            .collect(),
    )
}

/// First verifiable patch of `kind` within a few seeds of `seed`; many
/// corpora have no eligible site for a given kind (no spare padding, no
/// rewritable immediate), and skipping those quietly keeps the case
/// budget honest instead of discarding whole proptest cases.
fn find_patch(case: &fetch_binary::TestCase, seed: u64, kind: PatchKind) -> Option<FunctionPatch> {
    (0..6).find_map(|i| patch_function(case, seed.wrapping_add(i), kind))
}

/// The core differential: `run_delta` from (old result, old digest) to
/// the patched binary must match a from-scratch cold run, and must land
/// on the tier the patch kind was designed to provoke.
fn check_patch(old: &Binary, patch: &FunctionPatch, pipeline: &Pipeline, warm_engine: bool) {
    let old_digest = digest_of(old);
    let mut engine = RecEngine::new();
    let prev = Arc::new(if warm_engine {
        // Leave the engine keyed warm to the *old* version, as a pooled
        // serving engine would be — tiers 3–4 must not misread it.
        pipeline.run_with_engine(old, &mut engine)
    } else {
        pipeline.run(old)
    });
    let new_digest = digest_of(&patch.binary);
    let out = run_delta(
        pipeline,
        &prev,
        Some(&old_digest),
        &patch.binary,
        &new_digest,
        &mut engine,
    );
    let cold = pipeline.run(&patch.binary);
    prop_assert_eq!(
        &*out.result,
        &cold,
        "delta ({:?}, warm={}) diverged from cold under {:?} for {}",
        out.class,
        warm_engine,
        patch.kind,
        pipeline.id()
    );
    let expected = match patch.kind {
        PatchKind::Neutral if pipeline.delta_safe() => DeltaClass::SectionReuse,
        PatchKind::Neutral | PatchKind::Behavioral => DeltaClass::Recompute,
        PatchKind::Resize => DeltaClass::Cold,
    };
    prop_assert_eq!(
        out.class,
        expected,
        "patch {:?} under {} (delta_safe={})",
        patch.kind,
        pipeline.id(),
        pipeline.delta_safe()
    );
    if out.class.is_hit() {
        prop_assert!(Arc::ptr_eq(&out.result, &prev), "hit must be verbatim");
        prop_assert!(out.sections_reused > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpora × all three patch kinds × random pipelines:
    /// delta == cold, on the designed tier, cold- and warm-engine.
    #[test]
    fn delta_equals_cold_for_random_patches(
        cfg in arb_config(),
        patch_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 1..5),
    ) {
        let case = synthesize(&cfg);
        let pipeline = pipeline_from(&picks);
        for kind in [PatchKind::Neutral, PatchKind::Behavioral, PatchKind::Resize] {
            let Some(patch) = find_patch(&case, patch_seed, kind) else {
                continue;
            };
            let warm = patch_seed % 2 == 0;
            check_patch(&case.binary, &patch, &pipeline, warm);
        }
    }

    /// An identical resubmission is tier 1 under *any* pipeline: the
    /// old `Arc` comes back untouched and every text bucket is reused.
    #[test]
    fn identical_resubmission_is_verbatim_under_any_pipeline(
        cfg in arb_config(),
        picks in proptest::collection::vec(any::<u8>(), 1..5),
    ) {
        let case = synthesize(&cfg);
        let pipeline = pipeline_from(&picks);
        let digest = digest_of(&case.binary);
        let prev = Arc::new(pipeline.run(&case.binary));
        let mut engine = RecEngine::new();
        let out = run_delta(&pipeline, &prev, Some(&digest), &case.binary, &digest, &mut engine);
        prop_assert_eq!(out.class, DeltaClass::Unchanged);
        prop_assert!(Arc::ptr_eq(&out.result, &prev));
        prop_assert_eq!(out.sections_reused, digest.text_bucket_count());
    }

    /// A predecessor without a digest (`prev_digest: None`) drops to
    /// tier 4 and still matches cold — the path a serving layer takes
    /// when the predecessor's digest is not attached yet (a coalesced
    /// leader publishes its result before computing the digest).
    #[test]
    fn missing_digest_falls_cold_and_matches(
        cfg in arb_config(),
        patch_seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u8>(), 1..4),
    ) {
        let case = synthesize(&cfg);
        let Some(patch) = find_patch(&case, patch_seed, PatchKind::Neutral) else {
            return;
        };
        let pipeline = pipeline_from(&picks);
        let prev = Arc::new(pipeline.run(&case.binary));
        let new_digest = digest_of(&patch.binary);
        let mut engine = RecEngine::new();
        let out = run_delta(&pipeline, &prev, None, &patch.binary, &new_digest, &mut engine);
        prop_assert_eq!(out.class, DeltaClass::Cold);
        prop_assert_eq!(out.sections_reused, 0);
        prop_assert_eq!(&*out.result, &pipeline.run(&patch.binary));
    }
}

/// A version chain through [`run_delta`] with one shared (pooled)
/// engine: v0 → neutral v1 → back to v0 → behavioral v2 → resized v3.
/// Each hop derives its digest from the previous hop's through
/// [`ImageDigest::compute_from`], as the serving layer's `reanalyze`
/// path does. Each hop's answer must equal a fresh-engine cold
/// [`Pipeline::fetch`] run of that version, and each hop's digest is what the
/// next hop deltas against.
#[test]
fn fetch_delta_chain_matches_cold_at_every_version() {
    let case = synthesize(&SynthConfig::small(11));
    let v1 = patch_function(&case, 7, PatchKind::Neutral).expect("neutral site");
    let v2 = patch_function(&case, 9, PatchKind::Behavioral).expect("behavioral site");
    let v3 = (0..32)
        .find_map(|s| patch_function(&case, s, PatchKind::Resize))
        .expect("resize site");

    let pipeline = Pipeline::fetch();
    let image_of = |b: &Binary| ElfImage::parse(write_elf(b)).unwrap();
    let cold_of = |b: &Binary| pipeline.run(&image_of(b).to_binary());

    let mut engine = RecEngine::new();
    let v0_image = image_of(&case.binary);
    let mut prev = Arc::new(pipeline.run_with_engine(&v0_image.to_binary(), &mut engine));
    let mut prev_digest = ImageDigest::compute(&case.binary, image_fingerprint(&v0_image));

    let hops = [
        (&v1.binary, DeltaClass::SectionReuse),
        (&case.binary, DeltaClass::SectionReuse),
        (&v2.binary, DeltaClass::Recompute),
        (&v3.binary, DeltaClass::Cold),
    ];
    for (version, expected) in hops {
        let image = image_of(version);
        let binary = image.to_binary();
        let digest =
            ImageDigest::compute_from(Some(&prev_digest), &binary, image_fingerprint(&image));
        let out = run_delta(
            &pipeline,
            &prev,
            Some(&prev_digest),
            &binary,
            &digest,
            &mut engine,
        );
        assert_eq!(out.class, expected, "wrong tier at {version:p}");
        assert_eq!(
            *out.result,
            cold_of(version),
            "hop {expected:?} diverged from cold"
        );
        prev = out.result;
        prev_digest = digest;
    }
}

/// Field-for-field digest equality, naming the first field that differs.
fn assert_same_digest(incremental: &ImageDigest, full: &ImageDigest, what: &str) {
    assert_eq!(incremental.image, full.image, "{what}: image");
    assert_eq!(incremental.entry, full.entry, "{what}: entry");
    assert_eq!(incremental.symbols, full.symbols, "{what}: symbols");
    assert_eq!(incremental.text_hash, full.text_hash, "{what}: text_hash");
    assert_eq!(
        incremental.sections.len(),
        full.sections.len(),
        "{what}: section count"
    );
    for (i, (a, b)) in incremental.sections.iter().zip(&full.sections).enumerate() {
        assert_eq!(
            (a.kind, a.addr, a.len, a.raw),
            (b.kind, b.addr, b.len, b.raw),
            "{what}: section {i}"
        );
        assert_eq!(
            a.buckets.len(),
            b.buckets.len(),
            "{what}: section {i} bucket count"
        );
        for (j, (x, y)) in a.buckets.iter().zip(&b.buckets).enumerate() {
            assert_eq!(x, y, "{what}: section {i} bucket {j}");
        }
    }
    assert_eq!(incremental, full, "{what}");
}

/// `compute_from(prev, binary)` against `compute(binary)`; returns the
/// incremental digest, the `prev` of the next step in a chain.
fn check_incremental(prev: &ImageDigest, binary: &Binary, what: &str) -> ImageDigest {
    let incremental = ImageDigest::compute_from(Some(prev), binary, 0);
    assert_same_digest(&incremental, &ImageDigest::compute(binary, 0), what);
    incremental
}

fn with_section(binary: &Binary, kind: SectionKind, f: impl FnOnce(&Section) -> Section) -> Binary {
    let mut out = binary.clone();
    let s = out
        .sections
        .iter_mut()
        .find(|s| s.kind == kind)
        .expect("section present");
    *s = f(s);
    out
}

fn with_text_bytes(binary: &Binary, f: impl FnOnce(&mut Vec<u8>)) -> Binary {
    with_section(binary, SectionKind::Text, |s| {
        let mut bytes = s.bytes.to_vec();
        f(&mut bytes);
        Section::new(s.kind, s.addr, bytes)
    })
}

fn text_buckets(d: &ImageDigest) -> &[fetch_core::BucketDigest] {
    &d.sections
        .iter()
        .find(|s| s.kind == SectionKind::Text)
        .expect("text section")
        .buckets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random corpora × version chains cycling through all three patch
    /// kinds: every step's incremental digest, derived from the previous
    /// step's incremental digest, equals the full digest.
    #[test]
    fn compute_from_equals_compute_along_version_chains(
        cfg in arb_config(),
        seeds in proptest::collection::vec(any::<u64>(), 3..6),
        first_kind in 0usize..3,
    ) {
        const KINDS: [PatchKind; 3] = [PatchKind::Neutral, PatchKind::Behavioral, PatchKind::Resize];
        let mut case = synthesize(&cfg);
        let mut digest = ImageDigest::compute(&case.binary, 0);
        for (step, &seed) in seeds.iter().enumerate() {
            // Fall through to the next kind when a corpus has no site
            // for this one, so every step patches something.
            let Some(patch) = (0..3)
                .map(|k| KINDS[(first_kind + step + k) % 3])
                .find_map(|kind| find_patch(&case, seed, kind))
            else {
                continue;
            };
            let what = format!("step {step} ({:?})", patch.kind);
            digest = check_incremental(&digest, &patch.binary, &what);
            case = TestCase {
                binary: patch.binary,
                truth: patch.truth,
            };
        }
        // An identical resubmission reuses everything and still matches.
        check_incremental(&digest, &case.binary, "resubmission");
    }
}

/// A change confined to the `MAX_INST_LEN − 1` bytes after a covered
/// bucket: the bucket's own bytes are unchanged, but an instruction
/// straddling its end reads the changed byte, so its `sem` moves and
/// must not be copied.
#[test]
fn compute_from_resweeps_a_bucket_whose_straddle_reads_a_change() {
    let case = synthesize(&SynthConfig::small(61));
    let base = ImageDigest::compute(&case.binary, 0);
    let text_addr = case.binary.text().addr;
    let text_len = case.binary.text().bytes.len() as u64;
    let mut checked = 0;
    for b in text_buckets(&base).iter().filter(|b| b.covered) {
        if b.end + 4 > text_addr + text_len {
            continue;
        }
        // v1: the bucket's last byte opens `mov eax, imm32`, whose four
        // immediate bytes lie past the bucket end. v2: one of those
        // bytes changes — outside the bucket, inside its sweep's reach.
        let last = (b.end - 1 - text_addr) as usize;
        let v1 = with_text_bytes(&case.binary, |t| t[last] = 0xb8);
        let v2 = with_text_bytes(&v1, |t| t[last + 2] ^= 0x5a);
        let d1 = ImageDigest::compute(&v1, 0);
        let d2 = ImageDigest::compute(&v2, 0);
        let (x, y) = (text_buckets(&d1), text_buckets(&d2));
        let i = x
            .iter()
            .position(|x| x.start == b.start)
            .expect("same geometry");
        if x[i].raw != y[i].raw || x[i].sem == y[i].sem {
            continue; // the sweep did not land on the opcode byte
        }
        let d1 = check_incremental(&base, &v1, "straddle opened");
        check_incremental(&d1, &v2, "byte after the bucket changed");
        checked += 1;
        if checked == 4 {
            break;
        }
    }
    assert!(checked > 0, "no bucket whose sweep straddles its end");
}

/// A non-text section moved so its span now covers a `mov` immediate:
/// the immediate is no longer maskable, so `sem` moves although no
/// `.text` byte did.
#[test]
fn compute_from_follows_a_non_text_span_change() {
    let case = synthesize(&SynthConfig::small(62));
    let base = ImageDigest::compute(&case.binary, 0);
    let text = case.binary.text();
    let imm = (0..text.bytes.len() as u64)
        .filter_map(|off| fetch_x64::decode(&text.bytes[off as usize..], text.addr + off).ok())
        .find_map(|inst| match inst.op {
            fetch_x64::Op::MovRI(_, reg, imm) if reg != fetch_x64::Reg::Rdi && imm > 0 => {
                Some(imm as u64)
            }
            _ => None,
        })
        .expect("a maskable mov immediate");
    let moved = with_section(&case.binary, SectionKind::Data, |s| {
        Section::new(s.kind, imm, s.bytes.clone())
    });
    let d = ImageDigest::compute(&moved, 0);
    assert_ne!(
        text_buckets(&base)
            .iter()
            .map(|b| b.sem)
            .collect::<Vec<_>>(),
        text_buckets(&d).iter().map(|b| b.sem).collect::<Vec<_>>(),
        "the moved span must unmask an immediate"
    );
    let d = check_incremental(&base, &moved, "span moved");
    check_incremental(&d, &case.binary, "span moved back");
}

/// `.eh_frame` bytes changed, `.text` did not: a resized FDE moves the
/// bucket geometry, which must be re-derived rather than copied.
#[test]
fn compute_from_follows_an_eh_frame_change_with_unchanged_text() {
    let case = synthesize(&SynthConfig::small(11));
    let resized = (0..32)
        .find_map(|s| patch_function(&case, s, PatchKind::Resize))
        .expect("resize site");
    let new_eh = resized
        .binary
        .section(SectionKind::EhFrame)
        .expect("eh_frame")
        .bytes
        .clone();
    let only_eh = with_section(&case.binary, SectionKind::EhFrame, |s| {
        Section::new(s.kind, s.addr, new_eh)
    });
    let base = ImageDigest::compute(&case.binary, 0);
    let geometry = |d: &ImageDigest| {
        text_buckets(d)
            .iter()
            .map(|b| (b.start, b.end, b.covered))
            .collect::<Vec<_>>()
    };
    assert_ne!(
        geometry(&base),
        geometry(&ImageDigest::compute(&only_eh, 0)),
        "the resized FDE must move a bucket boundary"
    );
    let d = check_incremental(&base, &only_eh, "FDE resized");
    check_incremental(&d, &case.binary, "FDE restored");
}

/// An unparsable `.eh_frame` leaves `.text` one gap bucket; chaining
/// into and out of it, and from an unrelated binary's digest, matches.
#[test]
fn compute_from_handles_unparsable_eh_frame_and_foreign_prev() {
    let case = synthesize(&SynthConfig::small(63));
    let garbage = with_section(&case.binary, SectionKind::EhFrame, |s| {
        Section::new(s.kind, s.addr, vec![0xff; s.bytes.len()])
    });
    assert!(garbage.eh_frame().is_err(), "the garbage must not parse");
    let base = ImageDigest::compute(&case.binary, 0);
    let d = check_incremental(&base, &garbage, "eh_frame broken");
    assert_eq!(text_buckets(&d).len(), 1, "no FDE ranges: one gap bucket");
    let d = check_incremental(&d, &garbage, "broken resubmitted");
    check_incremental(&d, &case.binary, "eh_frame repaired");

    let other = synthesize(&SynthConfig::small(64));
    check_incremental(
        &ImageDigest::compute(&other.binary, 0),
        &case.binary,
        "foreign predecessor",
    );
}
