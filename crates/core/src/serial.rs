//! Versioned, deterministic serialization of [`DetectionResult`]s —
//! the persistence format of the serving layer.
//!
//! A long-lived analysis daemon (`fetch-serve`) wants to answer warm
//! after a restart, which means a [`DetectionResult`]'s content — its
//! starts and, per layer, the [`LayerTrace`] name and start delta —
//! must survive the process. This module is the wire format: a compact
//! little-endian binary encoding with a magic + version header and a
//! trailing FNV-1a checksum, written and read by
//! [`serialize_result_with_digest`] / [`deserialize_result_full`].
//!
//! Design points:
//!
//! * **Deterministic.** The same content always encodes to the same
//!   bytes (maps iterate in key order, every field has one encoding,
//!   and no timing or work counter is written), so two analyses of one
//!   image persist byte-identical entries that can be compared,
//!   deduplicated, and diffed across processes.
//! * **Content round-trip.** `deserialize(serialize(r)) == r`, and the
//!   decoded result re-encodes to the same bytes. The trace's
//!   instrumentation (wall time, decode and pointer-scan counters)
//!   describes one run, so it is not persisted and reads zero after a
//!   load (property-tested in `tests/proptest_serial.rs`).
//! * **One version, checksummed.** Only [`RESULT_VERSION`] is read; a
//!   blob of any other version is rejected by number, not misparsed,
//!   and a truncated or bit-flipped payload fails the checksum instead
//!   of decoding to a plausible-but-wrong result.
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
/// The one format version written and read: the starts, then per
/// layer its name, start delta and start count after it ran (no
/// instrumentation), then an optional [`ImageDigest`] whose bucket
/// `sem` hashes are structural (the typed instruction, not its `Debug`
/// text).
///
/// Any change to the encoding, to the `sem` scheme or to the image
/// fingerprint ([`crate::bytes_fingerprint`], the store's key and the
/// digest's `image` field) bumps this number.
/// Blobs of every other version are [`SerialError::UnsupportedVersion`]:
/// a store's open sweep quarantines them and the results are recomputed
/// on demand — never migrated.
pub const RESULT_VERSION: u16 = 6;

/// Domain tag of the trailing checksum (separates it from the
/// fingerprint domains of [`crate::image_fingerprint`]).
const DOMAIN_SERIAL: u64 = 0x7365_7269_616c_3176; // "serial1v"

/// A malformed or unreadable serialized [`DetectionResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// The buffer ended before the encoding did.
    Truncated,
    /// The leading magic bytes were not [`RESULT_MAGIC`].
    BadMagic,
    /// The format version is not [`RESULT_VERSION`] — an older or newer
    /// encoding, which is never migrated.
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
                    "unsupported result format version {v} (expected {RESULT_VERSION})"
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
pub(crate) fn intern_layer_name(name: &str) -> Option<&'static str> {
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

/// Encodes `result` plus the optional [`ImageDigest`] it was computed
/// against into the versioned, checksummed wire format. The digest
/// rides in the same checksummed payload, so a persisted entry carries
/// everything version-delta analysis needs to diff a future image
/// against it.
///
/// # Errors
///
/// [`SerialError::UnknownLayerName`] when the result carries a layer
/// name outside [`KNOWN_LAYERS`] — such bytes could never be interned
/// back, so none are returned.
pub fn serialize_result_with_digest(
    result: &DetectionResult,
    digest: Option<&ImageDigest>,
) -> Result<Vec<u8>, SerialError> {
    let mut w = Writer(Vec::with_capacity(64 + result.starts.len() * 9));
    w.0.extend_from_slice(&RESULT_MAGIC);
    w.u16(RESULT_VERSION);
    w.count(result.starts.len());
    for (&addr, &prov) in &result.starts {
        w.u64(addr);
        w.u8(provenance_tag(prov));
    }
    w.count(result.trace.len());
    for t in &result.trace {
        if intern_layer_name(t.name).is_none() {
            return Err(SerialError::UnknownLayerName(t.name.to_string()));
        }
        w.str(t.name);
        w.delta(&t.added);
        w.delta(&t.removed);
        w.u64(t.starts_after as u64);
    }
    match digest {
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

/// Decodes a [`DetectionResult`] together with the [`ImageDigest`] it
/// was persisted with (if any), as encoded by
/// [`serialize_result_with_digest`]. Verifies magic, version, checksum,
/// and every structural invariant (strictly ascending address lists,
/// in-vocabulary layer names, no trailing bytes).
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
    if version != RESULT_VERSION {
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
    // name length + two delta counts + starts_after.
    let n_trace = r.count(2 + 4 + 4 + 8)?;
    let mut trace = Vec::with_capacity(n_trace);
    for _ in 0..n_trace {
        trace.push(LayerTrace {
            name: r.layer_name()?,
            added: r.delta()?,
            removed: r.delta()?,
            starts_after: r.u64()? as usize,
            ..LayerTrace::default()
        });
    }
    let digest = match r.u8()? {
        0 => None,
        1 => Some(read_digest(&mut r)?),
        _ => return Err(SerialError::Corrupt("bad digest presence byte")),
    };
    if r.pos != payload.len() {
        return Err(SerialError::Corrupt("trailing bytes after encoding"));
    }
    Ok((DetectionResult { starts, trace }, digest))
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

    #[test]
    fn round_trip_keeps_content_and_drops_instrumentation() {
        let case = synthesize(&SynthConfig::small(41));
        let result = Pipeline::fetch().run(&case.binary);
        assert!(!uninstrumented(&result), "a fresh run is instrumented");
        let bytes = serialize_result_with_digest(&result, None).unwrap();
        let (back, _) = deserialize_result_full(&bytes).unwrap();
        assert_eq!(back, result);
        assert!(uninstrumented(&back));
        assert_eq!(
            serialize_result_with_digest(&back, None).unwrap(),
            bytes,
            "encoding must be deterministic"
        );
    }

    #[test]
    fn digest_round_trips_and_absent_digest_reads_as_none() {
        let case = synthesize(&SynthConfig::small(44));
        let result = Pipeline::fetch().run(&case.binary);
        let digest = crate::ImageDigest::compute(&case.binary, 0x5eed);
        let bytes = serialize_result_with_digest(&result, Some(&digest)).unwrap();
        let (back, d) = deserialize_result_full(&bytes).unwrap();
        assert_eq!(back, result);
        assert_eq!(d.as_ref(), Some(&digest));

        // A digest-less current-version encoding reads back as None.
        let plain = serialize_result_with_digest(&result, None).unwrap();
        let (_, none) = deserialize_result_full(&plain).unwrap();
        assert!(none.is_none());
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
        let bytes = serialize_result_with_digest(&result, None).unwrap();
        let decode = |b: &[u8]| deserialize_result_full(b).map(|(r, _)| r);

        assert_eq!(decode(&[]), Err(SerialError::Truncated));
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(SerialError::ChecksumMismatch),
            "truncation breaks the checksum"
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(decode(&bad_magic), Err(SerialError::BadMagic));
        // Only the current version is read — every older one included.
        // The version is checked before the checksum would even matter:
        // recompute a valid checksum to prove it.
        let others = (0..RESULT_VERSION).chain([RESULT_VERSION + 1, 0x7f]);
        for version in others {
            let mut bad_version = bytes.clone();
            bad_version[4..6].copy_from_slice(&u16::to_le_bytes(version));
            let n = bad_version.len() - 8;
            let sum = checksum(&bad_version[..n]).to_le_bytes();
            bad_version[n..].copy_from_slice(&sum);
            assert_eq!(
                decode(&bad_version),
                Err(SerialError::UnsupportedVersion(version))
            );
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(decode(&flipped), Err(SerialError::ChecksumMismatch));
    }

    #[test]
    fn layer_vocabulary_is_closed() {
        // Every executor-recorded name is in the vocabulary; a result
        // carrying any other name (built by hand) cannot be serialized.
        let case = synthesize(&SynthConfig::small(43));
        let mut result = Pipeline::parse("FDE").unwrap().run(&case.binary);
        assert!(serialize_result_with_digest(&result, None).is_ok());
        result.trace.push(LayerTrace {
            name: "Custom",
            ..result.trace[0].clone()
        });
        assert_eq!(
            serialize_result_with_digest(&result, None),
            Err(SerialError::UnknownLayerName("Custom".into()))
        );
        assert_eq!(intern_layer_name("Rec"), Some("Rec"));
        assert_eq!(intern_layer_name("rec"), None, "names are exact");
    }
}
