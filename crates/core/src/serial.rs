//! Versioned, deterministic serialization of [`DetectionResult`]s —
//! the persistence format of the serving layer.
//!
//! A long-lived analysis daemon (`fetch-serve`) wants to answer warm
//! after a restart, which means a [`DetectionResult`] — including its
//! full [`LayerTrace`] telemetry — must survive the process. This module
//! is the wire format: a compact little-endian binary encoding with a
//! magic + version header and a trailing FNV-1a checksum, written and
//! read by [`serialize_result`] / [`deserialize_result`].
//!
//! Design points:
//!
//! * **Deterministic.** The same result always encodes to the same
//!   bytes (maps iterate in key order, every field has one encoding),
//!   so persisted entries can be compared, deduplicated, and diffed
//!   byte-wise across processes.
//! * **Total round-trip.** `deserialize(serialize(r)) == r` including
//!   the timing/decode fields `PartialEq` ignores — persistence keeps
//!   the telemetry, not just the answer (property-tested in
//!   `tests/proptest_serial.rs`).
//! * **Versioned and checksummed.** A file from a future format version
//!   is rejected by number, not misparsed; a truncated or bit-flipped
//!   payload fails the checksum instead of decoding to a plausible-but
//!   -wrong result.
//! * **Closed vocabulary.** Layer names are interned back to the
//!   `&'static str` table of [`crate::KNOWN_LAYERS`] display names; a
//!   result carrying an out-of-vocabulary layer name (built by hand)
//!   is rejected at *serialization* time (`UnknownLayerName`) rather
//!   than producing bytes no reader can load.

use crate::cache::{BucketDigest, ImageDigest, SectionDigest};
use crate::pipeline::KNOWN_LAYERS;
use crate::state::{DetectionResult, LayerTrace, Provenance};
use fetch_binary::SectionKind;
use std::hash::Hasher as _;

/// Magic bytes opening every serialized [`DetectionResult`].
pub const RESULT_MAGIC: [u8; 4] = *b"FRES";
/// Current format version. v4 keeps the v3 layout; it marks digests
/// whose bucket `sem` hashes are structural (the typed instruction, not
/// its `Debug` text). v3 added the pointer-scan work counters
/// (`bytes_scanned`, `candidates_checked`) to each trace entry; v2
/// appended an optional [`ImageDigest`] after the trace. Readers accept
/// [`RESULT_VERSION_V3`], [`RESULT_VERSION_V2`] and [`RESULT_VERSION_V1`]
/// encodings too: their results decode (pre-v3 traces with zeroed scan
/// counters), their digests read as `None` — an old-scheme `sem` must
/// never be diffed against, or copied next to, a structural one — and
/// the entry heals on its next write. Versions beyond
/// [`RESULT_VERSION`] are rejected.
pub const RESULT_VERSION: u16 = 4;
/// The last format version with `Debug`-text digests, still accepted on
/// read (digest dropped).
pub const RESULT_VERSION_V3: u16 = 3;
/// The pre-scan-counter format version, still accepted on read.
pub const RESULT_VERSION_V2: u16 = 2;
/// The pre-digest format version, still accepted on read.
pub const RESULT_VERSION_V1: u16 = 1;

/// Domain tag of the trailing checksum (separates it from the
/// fingerprint domains of [`crate::content_fingerprint`]).
const DOMAIN_SERIAL: u64 = 0x7365_7269_616c_3176; // "serial1v"

/// A malformed or unreadable serialized [`DetectionResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// The buffer ended before the encoding did.
    Truncated,
    /// The leading magic bytes were not [`RESULT_MAGIC`].
    BadMagic,
    /// The format version is not [`RESULT_VERSION`].
    UnsupportedVersion(u16),
    /// The trailing checksum did not match the payload.
    ChecksumMismatch,
    /// A provenance tag byte named no [`Provenance`] variant.
    UnknownProvenance(u8),
    /// A layer name is outside the [`crate::KNOWN_LAYERS`] vocabulary.
    UnknownLayerName(String),
    /// A structural invariant failed (named), e.g. unsorted starts or
    /// trailing garbage.
    Corrupt(&'static str),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::Truncated => write!(f, "truncated result encoding"),
            SerialError::BadMagic => write!(f, "bad magic (not a serialized DetectionResult)"),
            SerialError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported result format version {v} (expected <= {RESULT_VERSION})"
                )
            }
            SerialError::ChecksumMismatch => write!(f, "checksum mismatch (corrupted payload)"),
            SerialError::UnknownProvenance(tag) => write!(f, "unknown provenance tag {tag:#x}"),
            SerialError::UnknownLayerName(name) => {
                write!(
                    f,
                    "layer name {name:?} is not in the known-layer vocabulary"
                )
            }
            SerialError::Corrupt(what) => write!(f, "corrupt result encoding: {what}"),
        }
    }
}

impl std::error::Error for SerialError {}

/// Stable wire tag of a [`Provenance`] variant. Exhaustive on purpose:
/// adding a variant forces choosing its tag here (tags are append-only
/// — never renumber a shipped one).
fn provenance_tag(p: Provenance) -> u8 {
    match p {
        Provenance::Fde => 0,
        Provenance::Symbol => 1,
        Provenance::CallTarget => 2,
        Provenance::PointerScan => 3,
        Provenance::TailCallFix => 4,
        Provenance::Prologue => 5,
        Provenance::TailHeuristic => 6,
        Provenance::LinearScan => 7,
        Provenance::Thunk => 8,
        Provenance::Alignment => 9,
    }
}

fn provenance_from_tag(tag: u8) -> Result<Provenance, SerialError> {
    Ok(match tag {
        0 => Provenance::Fde,
        1 => Provenance::Symbol,
        2 => Provenance::CallTarget,
        3 => Provenance::PointerScan,
        4 => Provenance::TailCallFix,
        5 => Provenance::Prologue,
        6 => Provenance::TailHeuristic,
        7 => Provenance::LinearScan,
        8 => Provenance::Thunk,
        9 => Provenance::Alignment,
        other => return Err(SerialError::UnknownProvenance(other)),
    })
}

/// Interns a parsed layer name back to the `&'static str` the executor
/// records — the display names of the [`KNOWN_LAYERS`] vocabulary.
/// `None` for out-of-vocabulary names.
pub fn intern_layer_name(name: &str) -> Option<&'static str> {
    KNOWN_LAYERS
        .iter()
        .map(|(_, spec)| spec.name())
        .find(|known| *known == name)
}

fn checksum(payload: &[u8]) -> u64 {
    let mut h = crate::cache::Fnv::new(DOMAIN_SERIAL);
    h.bytes(payload);
    h.finish()
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn count(&mut self, n: usize) {
        self.u32(n.try_into().expect("count fits u32"));
    }
    fn str(&mut self, s: &str) {
        let len: u16 = s.len().try_into().expect("name fits u16");
        self.u16(len);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn delta(&mut self, delta: &[(u64, Provenance)]) {
        self.count(delta.len());
        for &(addr, prov) in delta {
            self.u64(addr);
            self.u8(provenance_tag(prov));
        }
    }
}

/// Stable wire tag of a [`SectionKind`]. Append-only, like provenance
/// tags.
fn section_kind_tag(kind: SectionKind) -> u8 {
    match kind {
        SectionKind::Text => 0,
        SectionKind::Rodata => 1,
        SectionKind::Data => 2,
        SectionKind::EhFrame => 3,
    }
}

fn section_kind_from_tag(tag: u8) -> Result<SectionKind, SerialError> {
    Ok(match tag {
        0 => SectionKind::Text,
        1 => SectionKind::Rodata,
        2 => SectionKind::Data,
        3 => SectionKind::EhFrame,
        _ => return Err(SerialError::Corrupt("unknown section kind tag")),
    })
}

/// Encodes `result` into the versioned, checksummed wire format
/// (without a digest — see [`serialize_result_with_digest`]).
///
/// # Errors
///
/// [`SerialError::UnknownLayerName`] when the result carries a layer
/// name outside [`KNOWN_LAYERS`] — such bytes
/// could never be interned back, so they are refused up front.
pub fn serialize_result(result: &DetectionResult) -> Result<Vec<u8>, SerialError> {
    serialize_result_with_digest(result, None)
}

/// Encodes `result` plus the optional [`ImageDigest`] it was computed
/// against. The digest rides in the same checksummed payload (format
/// version [`RESULT_VERSION`]), so a persisted entry carries everything
/// version-delta analysis needs to diff a future image against it.
pub fn serialize_result_with_digest(
    result: &DetectionResult,
    digest: Option<&ImageDigest>,
) -> Result<Vec<u8>, SerialError> {
    encode(result, digest, RESULT_VERSION)
}

/// Encodes `result` in an *older* accepted format `version` — no
/// per-trace scan counters before v3, and no digest slot at all in
/// [`RESULT_VERSION_V1`] (`digest` is dropped there). This exists for
/// compatibility testing and migration tooling: it produces exactly the
/// blobs old stores hold, so readers can be exercised against them
/// without keeping binary fixtures around.
///
/// # Errors
///
/// [`SerialError::UnsupportedVersion`] when `version` is not an older
/// accepted version, and [`SerialError::UnknownLayerName`] under the
/// same conditions as [`serialize_result`].
pub fn serialize_result_legacy(
    result: &DetectionResult,
    digest: Option<&ImageDigest>,
    version: u16,
) -> Result<Vec<u8>, SerialError> {
    if !(RESULT_VERSION_V1..RESULT_VERSION).contains(&version) {
        return Err(SerialError::UnsupportedVersion(version));
    }
    encode(result, digest, version)
}

fn encode(
    result: &DetectionResult,
    digest: Option<&ImageDigest>,
    version: u16,
) -> Result<Vec<u8>, SerialError> {
    for name in result
        .layers
        .iter()
        .chain(result.trace.iter().map(|t| &t.name))
    {
        if intern_layer_name(name).is_none() {
            return Err(SerialError::UnknownLayerName((*name).to_string()));
        }
    }
    let mut w = Writer(Vec::with_capacity(64 + result.starts.len() * 9));
    w.0.extend_from_slice(&RESULT_MAGIC);
    w.u16(version);
    w.count(result.starts.len());
    for (&addr, &prov) in &result.starts {
        w.u64(addr);
        w.u8(provenance_tag(prov));
    }
    w.count(result.layers.len());
    for name in &result.layers {
        w.str(name);
    }
    w.count(result.trace.len());
    for t in &result.trace {
        w.str(t.name);
        w.u64(t.wall_nanos);
        w.delta(&t.added);
        w.delta(&t.removed);
        w.u64(t.starts_after as u64);
        w.u64(t.decode_hits);
        w.u64(t.decode_misses);
        if version >= RESULT_VERSION_V3 {
            w.u64(t.bytes_scanned);
            w.u64(t.candidates_checked);
        }
    }
    match digest {
        _ if version < RESULT_VERSION_V2 => {}
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u64(d.image);
            w.u64(d.entry);
            w.u64(d.symbols);
            w.u64(d.text_hash);
            w.count(d.sections.len());
            for s in &d.sections {
                w.u8(section_kind_tag(s.kind));
                w.u64(s.addr);
                w.u64(s.len);
                w.u64(s.raw);
                w.count(s.buckets.len());
                for b in &s.buckets {
                    w.u64(b.start);
                    w.u64(b.end);
                    w.u8(b.covered as u8);
                    w.u64(b.raw);
                    w.u64(b.sem);
                }
            }
        }
    }
    let sum = checksum(&w.0);
    w.u64(sum);
    Ok(w.0)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SerialError> {
        let end = self.pos.checked_add(n).ok_or(SerialError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SerialError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, SerialError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SerialError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32, SerialError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, SerialError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// Reads a count and sanity-bounds it against the bytes remaining
    /// (each element occupies at least `min_elem` bytes), so a corrupt
    /// count cannot drive a huge allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize, SerialError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.bytes.len() - self.pos {
            return Err(SerialError::Truncated);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<&'a str, SerialError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| SerialError::Corrupt("non-UTF-8 name"))
    }
    fn layer_name(&mut self) -> Result<&'static str, SerialError> {
        let name = self.str()?;
        intern_layer_name(name).ok_or_else(|| SerialError::UnknownLayerName(name.to_string()))
    }
    fn delta(&mut self) -> Result<Vec<(u64, Provenance)>, SerialError> {
        let n = self.count(9)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = self.u64()?;
            let prov = provenance_from_tag(self.u8()?)?;
            if let Some(&(prev, _)) = out.last() {
                if prev >= addr {
                    return Err(SerialError::Corrupt("delta not strictly ascending"));
                }
            }
            out.push((addr, prov));
        }
        Ok(out)
    }
}

/// Decodes a [`DetectionResult`] previously encoded by
/// [`serialize_result`], verifying magic, version, checksum, and every
/// structural invariant (strictly ascending address lists, in-vocabulary
/// layer names, no trailing bytes). Accepts the current and every older
/// format; any attached digest is dropped — use
/// [`deserialize_result_full`] to keep it.
pub fn deserialize_result(bytes: &[u8]) -> Result<DetectionResult, SerialError> {
    deserialize_result_full(bytes).map(|(result, _)| result)
}

/// Decodes a [`DetectionResult`] together with the [`ImageDigest`] it
/// was persisted with. Encodings older than [`RESULT_VERSION`] decode
/// with `digest = None` — a serving layer recomputes and re-persists the
/// digest on its next write (store healing).
pub fn deserialize_result_full(
    bytes: &[u8],
) -> Result<(DetectionResult, Option<ImageDigest>), SerialError> {
    // Header + checksum are the minimum plausible encoding.
    if bytes.len() < RESULT_MAGIC.len() + 2 + 8 {
        return Err(SerialError::Truncated);
    }
    let (payload, sum_bytes) = bytes.split_at(bytes.len() - 8);
    if payload[..4] != RESULT_MAGIC {
        return Err(SerialError::BadMagic);
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().expect("2"));
    if !(RESULT_VERSION_V1..=RESULT_VERSION).contains(&version) {
        return Err(SerialError::UnsupportedVersion(version));
    }
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().expect("8"));
    if checksum(payload) != stored_sum {
        return Err(SerialError::ChecksumMismatch);
    }

    let mut r = Reader {
        bytes: payload,
        pos: 6,
    };
    let n_starts = r.count(9)?;
    let mut starts = std::collections::BTreeMap::new();
    let mut prev: Option<u64> = None;
    for _ in 0..n_starts {
        let addr = r.u64()?;
        let prov = provenance_from_tag(r.u8()?)?;
        if prev.is_some_and(|p| p >= addr) {
            return Err(SerialError::Corrupt("starts not strictly ascending"));
        }
        prev = Some(addr);
        starts.insert(addr, prov);
    }
    let n_layers = r.count(2)?;
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        layers.push(r.layer_name()?);
    }
    let n_trace = r.count(2)?;
    let mut trace = Vec::with_capacity(n_trace);
    for _ in 0..n_trace {
        let name = r.layer_name()?;
        let wall_nanos = r.u64()?;
        let added = r.delta()?;
        let removed = r.delta()?;
        let starts_after = r.u64()? as usize;
        let decode_hits = r.u64()?;
        let decode_misses = r.u64()?;
        // Pre-v3 traces predate the scan counters: decode as zero.
        let (bytes_scanned, candidates_checked) = if version >= RESULT_VERSION_V3 {
            (r.u64()?, r.u64()?)
        } else {
            (0, 0)
        };
        trace.push(LayerTrace {
            name,
            wall_nanos,
            added,
            removed,
            starts_after,
            decode_hits,
            decode_misses,
            bytes_scanned,
            candidates_checked,
        });
    }
    let digest = if version >= RESULT_VERSION_V2 {
        match r.u8()? {
            0 => None,
            1 => Some(read_digest(&mut r)?),
            _ => return Err(SerialError::Corrupt("bad digest presence byte")),
        }
    } else {
        None
    };
    if r.pos != payload.len() {
        return Err(SerialError::Corrupt("trailing bytes after encoding"));
    }
    // An older digest is validated above but dropped: its `sem` hashes
    // use another scheme.
    let digest = digest.filter(|_| version == RESULT_VERSION);
    Ok((
        DetectionResult {
            starts,
            layers,
            trace,
        },
        digest,
    ))
}

fn read_digest(r: &mut Reader<'_>) -> Result<ImageDigest, SerialError> {
    let image = r.u64()?;
    let entry = r.u64()?;
    let symbols = r.u64()?;
    let text_hash = r.u64()?;
    // kind + addr + len + raw + bucket count.
    let n_sections = r.count(1 + 8 + 8 + 8 + 4)?;
    let mut sections = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let kind = section_kind_from_tag(r.u8()?)?;
        let addr = r.u64()?;
        let len = r.u64()?;
        let raw = r.u64()?;
        // start + end + covered + raw + sem.
        let n_buckets = r.count(8 + 8 + 1 + 8 + 8)?;
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut prev_end: Option<u64> = None;
        for _ in 0..n_buckets {
            let start = r.u64()?;
            let end = r.u64()?;
            let covered = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SerialError::Corrupt("bad bucket covered byte")),
            };
            if start >= end || prev_end.is_some_and(|p| p > start) {
                return Err(SerialError::Corrupt("buckets not ascending"));
            }
            prev_end = Some(end);
            let raw = r.u64()?;
            let sem = r.u64()?;
            buckets.push(BucketDigest {
                start,
                end,
                covered,
                raw,
                sem,
            });
        }
        sections.push(SectionDigest {
            kind,
            addr,
            len,
            raw,
            buckets,
        });
    }
    Ok(ImageDigest {
        image,
        entry,
        symbols,
        text_hash,
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use fetch_synth::{synthesize, SynthConfig};

    fn trace_fields_equal(a: &DetectionResult, b: &DetectionResult) -> bool {
        // PartialEq ignores timing/decode/scan fields by design;
        // persistence must keep them, so compare every field explicitly.
        a == b
            && a.trace.len() == b.trace.len()
            && a.trace.iter().zip(&b.trace).all(|(x, y)| {
                x.wall_nanos == y.wall_nanos
                    && x.decode_hits == y.decode_hits
                    && x.decode_misses == y.decode_misses
                    && x.bytes_scanned == y.bytes_scanned
                    && x.candidates_checked == y.candidates_checked
            })
    }

    fn encode_legacy(result: &DetectionResult, version: u16) -> Vec<u8> {
        serialize_result_legacy(result, None, version).unwrap()
    }

    #[test]
    fn legacy_encoder_rejects_non_legacy_versions() {
        let case = synthesize(&SynthConfig::small(46));
        let result = Pipeline::parse("FDE+Rec").unwrap().run(&case.binary);
        for bad in [0, RESULT_VERSION, RESULT_VERSION + 1] {
            assert_eq!(
                serialize_result_legacy(&result, None, bad),
                Err(SerialError::UnsupportedVersion(bad))
            );
        }
    }

    #[test]
    fn v1_and_v2_blobs_still_deserialize_with_zeroed_scan_counters() {
        let case = synthesize(&SynthConfig::small(45));
        let result = Pipeline::fetch().run(&case.binary);
        assert!(
            result.trace.iter().any(|t| t.bytes_scanned > 0),
            "the fetch pipeline's Xref layer scans data bytes"
        );
        for version in [RESULT_VERSION_V1, RESULT_VERSION_V2] {
            let old = encode_legacy(&result, version);
            let (back, digest) = deserialize_result_full(&old).unwrap();
            assert_eq!(back, result, "deterministic fields survive v{version}");
            assert!(digest.is_none());
            for (x, y) in back.trace.iter().zip(&result.trace) {
                assert_eq!(x.wall_nanos, y.wall_nanos);
                assert_eq!(x.decode_hits, y.decode_hits);
                assert_eq!(x.decode_misses, y.decode_misses);
                assert_eq!(x.bytes_scanned, 0, "pre-v3 traces have no counters");
                assert_eq!(x.candidates_checked, 0);
            }
        }
    }

    #[test]
    fn round_trip_is_identity_including_timing() {
        let case = synthesize(&SynthConfig::small(41));
        let result = Pipeline::fetch().run(&case.binary);
        let bytes = serialize_result(&result).unwrap();
        let back = deserialize_result(&bytes).unwrap();
        assert!(trace_fields_equal(&result, &back));
        assert_eq!(
            serialize_result(&back).unwrap(),
            bytes,
            "encoding must be deterministic"
        );
    }

    #[test]
    fn digest_round_trips_and_v1_reads_as_digestless() {
        let case = synthesize(&SynthConfig::small(44));
        let result = Pipeline::fetch().run(&case.binary);
        let digest =
            crate::ImageDigest::compute(&case.binary, crate::content_fingerprint(&case.binary));
        let bytes = serialize_result_with_digest(&result, Some(&digest)).unwrap();
        let (back, d) = deserialize_result_full(&bytes).unwrap();
        assert!(trace_fields_equal(&result, &back));
        assert_eq!(d.as_ref(), Some(&digest));

        // A digest-less current-version encoding reads back as None.
        let plain = serialize_result(&result).unwrap();
        let (_, none) = deserialize_result_full(&plain).unwrap();
        assert!(none.is_none());

        // A v1 (pre-digest, pre-scan-counter) blob must still
        // deserialize, with no digest.
        let v1 = encode_legacy(&result, RESULT_VERSION_V1);
        let (old, od) = deserialize_result_full(&v1).unwrap();
        assert_eq!(old, result);
        assert!(od.is_none());
        assert_eq!(deserialize_result(&v1).unwrap(), result);
    }

    #[test]
    fn v2_and_v3_digests_read_back_as_digestless() {
        let case = synthesize(&SynthConfig::small(47));
        let result = Pipeline::fetch().run(&case.binary);
        let digest =
            crate::ImageDigest::compute(&case.binary, crate::content_fingerprint(&case.binary));
        for version in [RESULT_VERSION_V2, RESULT_VERSION_V3] {
            let old = serialize_result_legacy(&result, Some(&digest), version).unwrap();
            assert_ne!(
                old,
                encode_legacy(&result, version),
                "the v{version} blob carries the digest"
            );
            let (back, d) = deserialize_result_full(&old).unwrap();
            assert_eq!(back, result, "the v{version} result is kept");
            assert!(d.is_none(), "a v{version} digest uses the old sem scheme");
        }
        // v3 is v4's layout: only the version number tells them apart.
        let v3 = serialize_result_legacy(&result, Some(&digest), RESULT_VERSION_V3).unwrap();
        let v4 = serialize_result_with_digest(&result, Some(&digest)).unwrap();
        assert_eq!(v3[6..v3.len() - 8], v4[6..v4.len() - 8]);
        let (back, _) = deserialize_result_full(&v3).unwrap();
        assert!(trace_fields_equal(&back, &result), "v3 keeps scan counters");
    }

    #[test]
    fn provenance_tags_round_trip() {
        for tag in 0u8..=9 {
            let p = provenance_from_tag(tag).unwrap();
            assert_eq!(provenance_tag(p), tag);
        }
        assert_eq!(
            provenance_from_tag(10),
            Err(SerialError::UnknownProvenance(10))
        );
    }

    #[test]
    fn header_and_checksum_are_enforced() {
        let case = synthesize(&SynthConfig::small(42));
        let result = Pipeline::parse("FDE+Rec").unwrap().run(&case.binary);
        let bytes = serialize_result(&result).unwrap();

        assert_eq!(deserialize_result(&[]), Err(SerialError::Truncated));
        assert_eq!(
            deserialize_result(&bytes[..bytes.len() - 1]),
            Err(SerialError::ChecksumMismatch),
            "truncation breaks the checksum"
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(deserialize_result(&bad_magic), Err(SerialError::BadMagic));
        let mut bad_version = bytes.clone();
        bad_version[4] = 0x7f;
        // Version is checked before the checksum would even matter —
        // recompute a valid checksum to prove it.
        let n = bad_version.len() - 8;
        let sum = checksum(&bad_version[..n]).to_le_bytes();
        bad_version[n..].copy_from_slice(&sum);
        assert_eq!(
            deserialize_result(&bad_version),
            Err(SerialError::UnsupportedVersion(0x7f))
        );
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(
            deserialize_result(&flipped),
            Err(SerialError::ChecksumMismatch)
        );
    }

    #[test]
    fn layer_vocabulary_is_closed() {
        // Every executor-recorded name is in the vocabulary; a result
        // carrying any other name (built by hand) cannot be serialized.
        let case = synthesize(&SynthConfig::small(43));
        let mut result = Pipeline::parse("FDE").unwrap().run(&case.binary);
        assert!(serialize_result(&result).is_ok());
        result.layers.push("Custom");
        result.trace.push(LayerTrace {
            name: "Custom",
            ..result.trace[0].clone()
        });
        assert_eq!(
            serialize_result(&result),
            Err(SerialError::UnknownLayerName("Custom".into()))
        );
        assert_eq!(intern_layer_name("Rec"), Some("Rec"));
        assert_eq!(intern_layer_name("rec"), None, "names are exact");
    }
}
