//! Mutated store files: a store entry on disk faces torn writes, media
//! bit rot and files from other format versions, so every mutation of a
//! valid entry must load back exactly or be rejected — never misread,
//! never a panic — and the open sweep must quarantine exactly the files
//! `load_full` rejects.
//!
//! Inputs are a valid entry (with or without its image digest) for a
//! random small corpus and pipeline, mutated by a truncation at any
//! length, a single-bit flip anywhere (header included), the store or
//! blob version field set to any `u16`, the pipeline-id length field
//! set past the end of the file, or an appended trailing byte.

use fetch_core::{
    serialize_result_with_digest, DetectionResult, ImageDigest, Pipeline, KNOWN_LAYERS,
};
use fetch_serve::store::{ResultStore, QUARANTINE_DIR, STORE_EXT};
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

/// Offset of the pipeline-id length field in a store file (after the
/// magic, the store version and the fingerprint).
const ID_LEN_AT: usize = 4 + 2 + 8;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (any::<u64>(), 10usize..40, 0.0f64..0.15).prop_map(|(seed, n_funcs, split)| {
        let mut cfg = SynthConfig::small(seed);
        cfg.n_funcs = n_funcs;
        cfg.rates = FeatureRates {
            split_cold: split,
            ..FeatureRates::default()
        };
        cfg
    })
}

fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    vec(any::<u8>(), 1..5).prop_map(|picks| {
        Pipeline::new(
            picks
                .iter()
                .map(|&p| KNOWN_LAYERS[p as usize % KNOWN_LAYERS.len()].1)
                .collect(),
        )
    })
}

/// One way a store file goes bad.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only a strict prefix (length taken modulo the file length).
    Truncate(usize),
    /// Flip one bit of one byte: the position is taken modulo the file
    /// length, or with `true` modulo the store header plus the blob's
    /// magic and version (a few dozen bytes a uniform flip rarely hits).
    FlipBit(usize, u32, bool),
    /// Overwrite the store header's version field.
    StoreVersion(u16),
    /// Overwrite the embedded result blob's version field.
    BlobVersion(u16),
    /// Set the pipeline-id length `1 + extra` bytes past the end.
    IdLenPastEnd(u8),
    /// Append one trailing byte.
    Append(u8),
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let id_len = u16::from_le_bytes([bytes[ID_LEN_AT], bytes[ID_LEN_AT + 1]]) as usize;
        let blob_version_at = ID_LEN_AT + 2 + id_len + 4;
        match *self {
            Mutation::Truncate(n) => bytes.truncate(n % bytes.len()),
            Mutation::FlipBit(at, bit, in_header) => {
                let span = if in_header {
                    blob_version_at + 2
                } else {
                    bytes.len()
                };
                bytes[at % span] ^= 1 << bit;
            }
            Mutation::StoreVersion(v) => bytes[4..6].copy_from_slice(&v.to_le_bytes()),
            Mutation::BlobVersion(v) => {
                bytes[blob_version_at..blob_version_at + 2].copy_from_slice(&v.to_le_bytes())
            }
            Mutation::IdLenPastEnd(extra) => {
                let past = bytes.len() - (ID_LEN_AT + 2) + 1 + extra as usize;
                let past = u16::try_from(past).expect("small-corpus entries fit a u16 id length");
                bytes[ID_LEN_AT..ID_LEN_AT + 2].copy_from_slice(&past.to_le_bytes());
            }
            Mutation::Append(b) => bytes.push(b),
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<usize>().prop_map(Mutation::Truncate),
        (any::<usize>(), 0u32..8, any::<bool>())
            .prop_map(|(at, bit, in_header)| Mutation::FlipBit(at, bit, in_header)),
        any::<u16>().prop_map(Mutation::StoreVersion),
        any::<u16>().prop_map(Mutation::BlobVersion),
        any::<u8>().prop_map(Mutation::IdLenPastEnd),
        any::<u8>().prop_map(Mutation::Append),
    ]
}

/// Content equality: `==`, and the same persisted encoding.
fn identical(a: &DetectionResult, b: &DetectionResult) -> bool {
    let encode = |r| serialize_result_with_digest(r, None).expect("known-layer results serialize");
    a == b && encode(a) == encode(b)
}

/// The one entry file of a store holding a single key.
fn entry_path(dir: &Path) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some(STORE_EXT))
        .expect("one saved entry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each mutation of a valid entry loads back as exactly the saved
    /// `(result, digest)` or is a `StoreError`; a reopened store's sweep
    /// quarantines the file exactly when `load_full` rejected it.
    #[test]
    fn mutated_entries_load_exactly_or_are_quarantined(
        cfg in arb_config(),
        pipeline in arb_pipeline(),
        with_digest: bool,
        mutations in vec(arb_mutation(), 1..8),
    ) {
        let dir = std::env::temp_dir().join(format!("fetch-serve-proptest-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let case = synthesize(&cfg);
        let result = pipeline.run(&case.binary);
        let fp = cfg.seed;
        let id = pipeline.id();
        let digest = with_digest.then(|| ImageDigest::compute(&case.binary, fp));
        let store = ResultStore::open(&dir).unwrap();
        store.save_with_digest(fp, &id, &result, digest.as_ref()).unwrap();
        let path = entry_path(&dir);
        let original = fs::read(&path).unwrap();

        for mutation in &mutations {
            let mut bytes = original.clone();
            mutation.apply(&mut bytes);
            fs::write(&path, &bytes).unwrap();
            let rejected = match store.load_full(fp, &id) {
                Err(_) => true,
                Ok(Some((back, back_digest))) => {
                    prop_assert!(identical(&back, &result), "{:?} misread the result", mutation);
                    prop_assert_eq!(&back_digest, &digest, "{:?} misread the digest", mutation);
                    false
                }
                Ok(None) => panic!("{mutation:?}: the entry file exists"),
            };
            let reopened = ResultStore::open(&dir).unwrap();
            prop_assert_eq!(
                reopened.lifecycle().quarantined,
                u64::from(rejected),
                "{:?}: the sweep disagrees with load_full", mutation
            );
            prop_assert_eq!(path.exists(), !rejected);
            let _ = fs::remove_dir_all(dir.join(QUARANTINE_DIR));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
