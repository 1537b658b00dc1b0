//! The serving-layer result cache: memoized [`DetectionResult`]s keyed
//! by `(image fingerprint, pipeline id)`, with optional capacity bounds
//! and size-aware LRU eviction.
//!
//! A production detection service answers the same query — the same
//! binary under the same pipeline — over and over. [`AnalysisCache`]
//! makes the repeat a lookup: results are stored as
//! `Arc<DetectionResult>` behind an internal mutex, so one cache is
//! shared by every worker of the `fetch-serve` daemon and every cached
//! entry is handed out without copying. The daemon's answer path is its
//! one client: [`AnalysisCache::lookup`], then on a miss
//! [`AnalysisCache::insert_with_digest`] when a pending save or the
//! daemon's store holds the result, else [`AnalysisCache::join_flight`]
//! and a cold compute.
//!
//! Keys are [`bytes_fingerprint`]s of the raw ELF image (what
//! [`image_fingerprint`] returns for a parsed one), so a lookup needs no
//! parse, plus the pipeline's stable [`crate::Pipeline::id`].
//!
//! ## Capacity and eviction
//!
//! A long-lived daemon cannot let the cache grow with the traffic, so
//! an [`AnalysisCache`] can be bounded ([`AnalysisCache::with_capacity`])
//! by entry count, by approximate resident bytes (each entry's
//! [`DetectionResult::approx_bytes`] plus, when it carries one, its
//! [`ImageDigest::approx_bytes`]), or both ([`CacheCapacity`]).
//! Whenever an insert pushes the cache over either bound, the
//! least-recently-used entries are evicted until it fits again (a single
//! entry larger than the byte bound is evicted immediately — the cache
//! never exceeds its capacity). Evictions only ever drop memoized
//! state, never answers: a later query for an evicted key recomputes and
//! gets the identical result (property-tested in
//! `tests/proptest_pipeline_cache.rs`). [`CacheStats`] reports the
//! eviction count and the live entry/byte footprint alongside
//! hits/misses.

use crate::facts::BinaryFacts;
use crate::state::DetectionResult;
use fetch_binary::{Binary, Section, SectionKind};
use fetch_ehframe::EhFrame;
use fetch_x64::{decode, Op, Reg, MAX_INST_LEN};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Domain tag mixed into [`bytes_fingerprint`] keys.
const DOMAIN_IMAGE: u64 = 0x696d_6167_6562_7566; // "imagebuf"
/// Domain tag of per-section / per-bucket raw fingerprints.
const DOMAIN_SECTION: u64 = 0x7365_6374_6275_6631; // "sectbuf1"
/// Domain tag of the immediate-masked semantic bucket sweep.
const DOMAIN_SEM: u64 = 0x7365_6d73_7765_6570; // "semsweep"
/// Domain tag of the symbol-table digest.
const DOMAIN_SYMBOLS: u64 = 0x7379_6d74_6162_6c31; // "symtabl1"
/// Stands in for a masked `mov reg, imm` in the semantic sweep; far
/// above any enum discriminant a derived `Op` hash opens with.
const MASKED_MOV: u64 = 0x6d61_736b_6d6f_7631; // "maskmov1"
/// Bytes past a bucket's end its semantic sweep can read: an instruction
/// decoded at the bucket's last byte is at most [`MAX_INST_LEN`] long.
const SEM_LOOKAHEAD: u64 = MAX_INST_LEN as u64 - 1;

pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new(domain: u64) -> Fnv {
        Fnv(FNV_OFFSET ^ domain)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        // Length first, so concatenated fields cannot alias.
        self.u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.0 ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }
}

/// Every integer write is one FNV step, so hashing a typed value through
/// its derived `Hash` (the [`Op`] of each swept instruction) costs a few
/// multiplies rather than a formatted string.
impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.u64(v.into());
    }

    fn write_u16(&mut self, v: u16) {
        self.u64(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.u64(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.u64(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

/// 64-bit fingerprint of raw image bytes — the one cache and store key,
/// computed before any parse, so a warm lookup never materializes the
/// ELF.
///
/// Four independent FNV-1a lanes run over interleaved 8-byte words
/// (lane *i* takes words *i*, *i* + 4, …, and is seeded by the image
/// domain and *i*), so the four multiply chains overlap instead of
/// waiting on each other. The lanes, the length and the tail bytes
/// past the last whole 32-byte block then fold through one more FNV
/// chain. Every step is a bijection of the lane state, so two buffers
/// of one length that differ in a single byte always hash apart.
pub fn bytes_fingerprint(bytes: &[u8]) -> u64 {
    let mut lanes: [Fnv; 4] = std::array::from_fn(|i| {
        let mut lane = Fnv::new(DOMAIN_IMAGE);
        lane.u64(i as u64);
        lane
    });
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            lane.u64(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
    }
    let mut h = Fnv::new(DOMAIN_IMAGE);
    h.u64(bytes.len() as u64);
    for lane in &lanes {
        h.u64(lane.0);
    }
    for &b in blocks.remainder() {
        h.u64(b.into());
    }
    h.0
}

/// [`bytes_fingerprint`] of the buffer `image` was parsed from.
pub fn image_fingerprint(image: &fetch_binary::ElfImage) -> u64 {
    bytes_fingerprint(image.bytes())
}

/// One FDE-range bucket of the `.text` section in an [`ImageDigest`]:
/// a half-open `[start, end)` address range carrying both an exact
/// content fingerprint and a semantic (immediate-masked) one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketDigest {
    /// First address of the bucket.
    pub start: u64,
    /// One past the last address of the bucket.
    pub end: u64,
    /// Whether the bucket is FDE-covered (`false`: a gap between FDE
    /// ranges — padding, data-in-text, or FDE-less code).
    pub covered: bool,
    /// Exact FNV-1a fingerprint of the bucket's bytes.
    pub raw: u64,
    /// Fingerprint of the bucket's *linear-sweep decode projection*
    /// with delta-maskable `mov reg, imm` immediates canonicalized
    /// (see the module docs of [`ImageDigest`]). Equals `raw` hashing
    /// for gap buckets: bytes without FDE structure get no semantic
    /// slack.
    pub sem: u64,
}

/// One section's record in an [`ImageDigest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionDigest {
    /// Section kind.
    pub kind: SectionKind,
    /// Section base address.
    pub addr: u64,
    /// Section length in bytes.
    pub len: u64,
    /// Exact FNV-1a fingerprint of the section's bytes.
    pub raw: u64,
    /// FDE-range buckets partitioning the section (non-empty only for
    /// `.text`; buckets tile `[addr, addr + len)` exactly).
    pub buckets: Vec<BucketDigest>,
}

/// Structured identity of a binary image: the whole-image fingerprint
/// plus per-section, FDE-range-bucketed sub-fingerprints — the unit of
/// version-delta analysis ([`crate::run_delta`]).
///
/// Where [`image_fingerprint`] answers "is this the exact image I
/// analysed before?", an `ImageDigest` answers the CI/CD question: "the
/// image changed — *where*, and does the change matter?". `.text` is
/// partitioned into buckets along the binary's own FDE ranges (the
/// paper's stable region structure), each carrying an exact `raw`
/// fingerprint and a `sem` fingerprint of its linear-sweep decode
/// projection in which `mov reg, imm` immediates are masked when they
/// provably cannot influence detection (the register is not `rdi` — the
/// `error`-status slice reads `edi` — and the value does not fall in
/// any section's address span, so it can never be an address any xref,
/// pointer-scan, or jump-table consumer resolves). Two versions whose
/// buckets are geometry-identical and `sem`-equal yield identical
/// detection results under any delta-safe pipeline
/// ([`crate::Pipeline::delta_safe`]).
///
/// Byte dependency of `sem`, exactly: a covered `[start, end)` bucket's
/// `sem` reads the section bytes in `[start, end + MAX_INST_LEN − 1)`
/// (the sweep decodes only from inside the bucket, and no instruction is
/// longer than [`fetch_x64::MAX_INST_LEN`]) plus every section's
/// `[addr, addr + len)` span (the address-likeness test of the masking
/// rule), and nothing else. That one dependency is two rules. It is the
/// straddle rule: an instruction crossing `end` is hashed by its raw
/// bytes, unmasked, so the following bytes it covers stay exact. And it
/// is the reuse rule of [`ImageDigest::compute_from`]: a predecessor's
/// `sem` is copied when the section spans are unchanged and no
/// raw-changed bucket overlaps the range. Gap buckets hash raw outright.
///
/// Known residual risk, deliberately accepted: the sweep projects each
/// bucket at its own phase, while a real walk may enter bytes at another
/// phase. Only the differential property suite
/// (`fetch-core/tests/proptest_delta.rs`) enforces that tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageDigest {
    /// Whole-image fingerprint of the bytes the digest was computed
    /// from ([`image_fingerprint`]) — the cache key the digest travels
    /// with. Carried, never recomputed from the digest's inputs.
    pub image: u64,
    /// Entry point address.
    pub entry: u64,
    /// Fingerprint of the symbol table (names, addresses, sizes).
    pub symbols: u64,
    /// [`fetch_disasm::text_content_hash`] of the `.text` bytes — the
    /// hash a [`fetch_disasm::RecEngine`] fingerprints its decode cache
    /// with.
    pub text_hash: u64,
    /// Per-section records, in image section order.
    pub sections: Vec<SectionDigest>,
}

impl ImageDigest {
    /// Computes the digest of `binary`. `image` is the whole-image
    /// fingerprint the caller keys its caches with ([`image_fingerprint`]
    /// of the image `binary` was loaded from); it is carried, not
    /// recomputed.
    pub fn compute(binary: &Binary, image: u64) -> ImageDigest {
        ImageDigest::compute_from(None, binary, image)
    }

    /// [`ImageDigest::compute`] given the digest of a predecessor
    /// version: returns exactly what `compute(binary, image)` returns,
    /// but skips the work `prev` already proves done.
    ///
    /// - **Bucket geometry** reads only the section shapes and the
    ///   `.eh_frame` bytes. When every section's `(kind, addr, len)` and
    ///   every `.eh_frame` section's raw hash match `prev`, the `.text`
    ///   partition is copied instead of re-parsing `.eh_frame`.
    /// - **A covered bucket's `sem`** is copied from `prev` when the
    ///   geometry was reused and no bucket whose raw hash moved overlaps
    ///   the bytes that `sem` reads (see [`ImageDigest`]); every other
    ///   bucket is swept.
    ///
    /// Raw hashes are always recomputed; they are what proves the reuse.
    /// A `prev` whose buckets do not tile their section (a digest no
    /// `compute` produced) is ignored.
    pub fn compute_from(prev: Option<&ImageDigest>, binary: &Binary, image: u64) -> ImageDigest {
        ImageDigest::compute_with_facts(prev, binary, &BinaryFacts::new(), image)
    }

    /// [`ImageDigest::compute_from`] taking the FDE partition from
    /// `facts` (which must describe `binary`): a caller that also runs
    /// the pipeline over the same [`BinaryFacts`] parses `.eh_frame`
    /// once for both. Returns exactly what `compute(binary, image)`
    /// returns.
    pub fn compute_with_facts(
        prev: Option<&ImageDigest>,
        binary: &Binary,
        facts: &BinaryFacts,
        image: u64,
    ) -> ImageDigest {
        let mut symbols = Fnv::new(DOMAIN_SYMBOLS);
        symbols.u64(binary.symbols.len() as u64);
        for sym in &binary.symbols {
            symbols.bytes(sym.name.as_bytes());
            symbols.u64(sym.addr);
            symbols.u64(sym.size);
        }
        let mut sections: Vec<SectionDigest> = binary
            .sections
            .iter()
            .map(|s| SectionDigest {
                kind: s.kind,
                addr: s.addr,
                len: s.bytes.len() as u64,
                raw: raw_hash(&s.bytes),
                buckets: Vec::new(),
            })
            .collect();
        let prev = prev.filter(|p| same_geometry(p, &sections));
        let spans: Vec<(u64, u64)> = binary.sections.iter().map(|s| (s.addr, s.end())).collect();
        for (i, s) in binary.sections.iter().enumerate() {
            if s.kind == SectionKind::Text {
                let prev_buckets = prev.map(|p| p.sections[i].buckets.as_slice());
                sections[i].buckets = text_buckets(binary, facts, s, &spans, prev_buckets);
            }
        }
        ImageDigest {
            image,
            entry: binary.entry,
            symbols: symbols.finish(),
            text_hash: fetch_disasm::text_content_hash(&binary.text().bytes),
            sections,
        }
    }

    /// Whether the two digests describe analysis-identical content:
    /// every field *except* the whole-image fingerprint agrees. (Two
    /// images can differ in bytes detection never reads — header
    /// padding — and still be content-identical.)
    pub fn content_identical(&self, other: &ImageDigest) -> bool {
        self.entry == other.entry
            && self.symbols == other.symbols
            && self.text_hash == other.text_hash
            && self.sections == other.sections
    }

    /// Number of `.text` buckets.
    pub fn text_bucket_count(&self) -> usize {
        self.sections.iter().map(|s| s.buckets.len()).sum::<usize>()
    }

    /// Approximate resident heap footprint of the digest, in bytes —
    /// what a cache entry holding it pays on top of its result's
    /// [`DetectionResult::approx_bytes`]. Deterministic for a given
    /// digest and dominated by the `.text` buckets.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ImageDigest>()
            + self.sections.len() * std::mem::size_of::<SectionDigest>()
            + self.text_bucket_count() * std::mem::size_of::<BucketDigest>()
    }
}

/// Classification of the change between two [`ImageDigest`]s — the
/// input to the delta ladder of [`crate::run_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigestDiff {
    /// Analysis-relevant content is identical (the raw images may still
    /// differ, e.g. in header bytes detection never reads).
    Identical {
        /// Total `.text` buckets, all reused.
        buckets: usize,
    },
    /// Only `.text` content changed, and the bucket geometry (FDE
    /// ranges, section shape) is identical — the change is *local*.
    LocalText {
        /// Whether every bucket's *semantic* fingerprint is unchanged —
        /// when true, a delta-safe pipeline's result provably cannot
        /// move.
        sem_equal: bool,
        /// Buckets whose raw bytes did not change.
        reused: usize,
    },
    /// The diff is non-local (section added/removed/resized/moved,
    /// `.eh_frame` or another non-text section changed, symbols or
    /// entry changed): only a cold compute is sound.
    NonLocal {
        /// Human-readable reason, for telemetry.
        reason: &'static str,
    },
}

/// Diffs two digests into the delta classification. Symmetric in
/// structure but directed in meaning: `old` is the version a stored
/// result exists for, `new` is the version to answer.
pub fn diff_digests(old: &ImageDigest, new: &ImageDigest) -> DigestDiff {
    if old.content_identical(new) {
        return DigestDiff::Identical {
            buckets: new.text_bucket_count(),
        };
    }
    if old.entry != new.entry {
        return DigestDiff::NonLocal {
            reason: "entry point changed",
        };
    }
    if old.symbols != new.symbols {
        return DigestDiff::NonLocal {
            reason: "symbol table changed",
        };
    }
    if old.sections.len() != new.sections.len() {
        return DigestDiff::NonLocal {
            reason: "section added or removed",
        };
    }
    let mut changed = false;
    let mut sem_equal = true;
    let mut reused = 0usize;
    for (o, n) in old.sections.iter().zip(&new.sections) {
        if o.kind != n.kind || o.addr != n.addr || o.len != n.len {
            return DigestDiff::NonLocal {
                reason: "section shape changed",
            };
        }
        if o.kind != SectionKind::Text {
            if o.raw != n.raw {
                return DigestDiff::NonLocal {
                    reason: "non-text section content changed",
                };
            }
            continue;
        }
        if o.buckets.len() != n.buckets.len() {
            return DigestDiff::NonLocal {
                reason: "text bucket geometry changed",
            };
        }
        for (ob, nb) in o.buckets.iter().zip(&n.buckets) {
            if ob.start != nb.start || ob.end != nb.end || ob.covered != nb.covered {
                return DigestDiff::NonLocal {
                    reason: "text bucket geometry changed",
                };
            }
            if ob.raw == nb.raw {
                reused += 1;
            }
            changed |= ob.raw != nb.raw || ob.sem != nb.sem;
            sem_equal &= ob.sem == nb.sem;
        }
    }
    if !changed {
        // Sections compare equal bucket-by-bucket yet the digests are
        // not content-identical — can only be a per-section raw drift
        // the buckets missed, which the tiling makes impossible; treat
        // defensively as non-local.
        return DigestDiff::NonLocal {
            reason: "digest mismatch outside text buckets",
        };
    }
    DigestDiff::LocalText { sem_equal, reused }
}

fn raw_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new(DOMAIN_SECTION);
    h.bytes(bytes);
    h.finish()
}

/// Whether `prev`'s bucket geometry still describes sections of the
/// given shape: same section list, same `.eh_frame` bytes, and `prev`'s
/// buckets tile each `.text` section exactly.
fn same_geometry(prev: &ImageDigest, sections: &[SectionDigest]) -> bool {
    prev.sections.len() == sections.len()
        && prev.sections.iter().zip(sections).all(|(p, n)| {
            p.kind == n.kind
                && p.addr == n.addr
                && p.len == n.len
                && (n.kind != SectionKind::EhFrame || p.raw == n.raw)
                && (n.kind != SectionKind::Text || tiles(&p.buckets, n.addr, n.len))
        })
}

fn tiles(buckets: &[BucketDigest], addr: u64, len: u64) -> bool {
    let mut pos = addr;
    for b in buckets {
        if b.start != pos || b.end <= b.start {
            return false;
        }
        pos = b.end;
    }
    Some(pos) == addr.checked_add(len)
}

/// Digests `.text` bucket by bucket. Without `prev`, the buckets are the
/// binary's (merged, clamped) FDE `[pc_begin, pc_end)` ranges as covered
/// buckets and the bytes between them as gap buckets — together tiling
/// the section exactly. With `prev` (geometry already checked by
/// [`same_geometry`]), its partition is kept and each covered bucket's
/// `sem` is reused unless a raw-changed bucket starts before its sweep's
/// reach, `end + SEM_LOOKAHEAD`.
fn text_buckets(
    binary: &Binary,
    facts: &BinaryFacts,
    text: &Section,
    spans: &[(u64, u64)],
    prev: Option<&[BucketDigest]>,
) -> Vec<BucketDigest> {
    // Both hashes of every bucket are (re)computed or reused below.
    let mut buckets = match prev {
        Some(prev) => prev.to_vec(),
        None => fde_partition(facts.eh_frame(binary).as_deref(), text),
    };
    for b in &mut buckets {
        b.raw = raw_hash(&text.bytes[(b.start - text.addr) as usize..(b.end - text.addr) as usize]);
    }
    // Walk backwards so the nearest raw-changed bucket at or after each
    // one is known when its `sem` is decided.
    let mut next_change = u64::MAX;
    for (i, b) in buckets.iter_mut().enumerate().rev() {
        let old = prev.map(|p| p[i]);
        if old.is_none_or(|o| o.raw != b.raw) {
            next_change = b.start;
        }
        b.sem = match old {
            // Gap bytes have no FDE structure to reason from: exact or
            // nothing.
            _ if !b.covered => b.raw,
            Some(o) if next_change >= b.end.saturating_add(SEM_LOOKAHEAD) => o.sem,
            _ => sem_fingerprint(text, spans, b.start, b.end),
        };
    }
    buckets
}

/// The FDE-range partition of `.text` (no FDEs when `.eh_frame` is
/// malformed), hashes left zero.
fn fde_partition(eh: Option<&EhFrame>, text: &Section) -> Vec<BucketDigest> {
    let text_end = text.end();
    let mut ranges: Vec<(u64, u64)> = eh
        .into_iter()
        .flat_map(|eh| eh.fdes())
        .map(|fde| (fde.pc_begin.max(text.addr), fde.pc_end().min(text_end)))
        .filter(|(s, e)| s < e)
        .collect();
    ranges.sort_unstable();
    // Merge overlapping (not merely adjacent) ranges so the partition
    // is well defined; adjacent FDEs stay separate buckets — that is
    // the granularity a one-function patch reuses.
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (s, e) in ranges {
        match merged.last_mut() {
            Some((_, le)) if s < *le => *le = (*le).max(e),
            _ => merged.push((s, e)),
        }
    }
    let bucket = |start, end, covered| BucketDigest {
        start,
        end,
        covered,
        raw: 0,
        sem: 0,
    };
    let mut buckets = Vec::with_capacity(merged.len() * 2 + 1);
    let mut pos = text.addr;
    for (s, e) in merged {
        if pos < s {
            buckets.push(bucket(pos, s, false));
        }
        buckets.push(bucket(s, e, true));
        pos = e;
    }
    if pos < text_end {
        buckets.push(bucket(pos, text_end, false));
    }
    buckets
}

/// Whether a `mov reg, imm` immediate could be an address some layer
/// resolves: any positive value inside a section span. (Non-positive
/// values are never emitted by `Inst::const_operands`, and the sole
/// value-sensitive non-address consumer — the `error`-status slice —
/// reads `edi` only, which the masking rule excludes by register.)
fn imm_is_address_like(spans: &[(u64, u64)], imm: i32) -> bool {
    imm > 0
        && spans
            .iter()
            .any(|&(lo, hi)| (lo..hi).contains(&(imm as u64)))
}

/// The immediate-masked linear-sweep projection of a covered bucket:
/// hash each decoded instruction's offset, length, and typed operation,
/// with delta-maskable `MovRI` immediates dropped (a tag plus width and
/// register stand in). Undecodable bytes hash as (offset, raw byte) and
/// advance one byte; an instruction straddling the bucket end hashes its
/// raw bytes unmasked (see the byte-dependency note on [`ImageDigest`]).
fn sem_fingerprint(text: &Section, spans: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut h = Fnv::new(DOMAIN_SEM);
    let mut pos = start;
    while pos < end {
        let off = (pos - text.addr) as usize;
        match decode(&text.bytes[off..], pos) {
            Ok(inst) if inst.end() > end => {
                let hi = (inst.end().min(text.end()) - text.addr) as usize;
                h.u64(0x5354_5244); // "STRD": straddling marker
                h.u64(pos - start);
                h.bytes(&text.bytes[off..hi]);
                pos = inst.end();
            }
            Ok(inst) => {
                h.u64(pos - start);
                h.u64(inst.len as u64);
                match inst.op {
                    Op::MovRI(w, reg, imm)
                        if reg != Reg::Rdi && !imm_is_address_like(spans, imm) =>
                    {
                        h.u64(MASKED_MOV);
                        w.hash(&mut h);
                        reg.hash(&mut h);
                    }
                    op => op.hash(&mut h),
                }
                pos = inst.end();
            }
            Err(_) => {
                h.u64(0x4241_4442); // "BADB": undecodable-byte marker
                h.u64(pos - start);
                h.u64(text.bytes[off] as u64);
                pos += 1;
            }
        }
    }
    h.finish()
}

/// Capacity bounds of an [`AnalysisCache`]. The default is unbounded.
/// A serving daemon bounds one or both axes ([`CacheCapacity::entries`],
/// [`CacheCapacity::bytes`]); exceeding either triggers LRU eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCapacity {
    /// Maximum resident entries (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Maximum approximate resident bytes (results plus their digests,
    /// see [`CacheStats::bytes`]; `None` = unbounded).
    pub max_bytes: Option<usize>,
}

impl CacheCapacity {
    /// No bounds: nothing is ever evicted.
    pub const UNBOUNDED: CacheCapacity = CacheCapacity {
        max_entries: None,
        max_bytes: None,
    };

    /// Bound by entry count only.
    pub fn entries(max_entries: usize) -> CacheCapacity {
        CacheCapacity {
            max_entries: Some(max_entries),
            ..CacheCapacity::UNBOUNDED
        }
    }

    /// Bound by approximate resident bytes only.
    pub fn bytes(max_bytes: usize) -> CacheCapacity {
        CacheCapacity {
            max_bytes: Some(max_bytes),
            ..CacheCapacity::UNBOUNDED
        }
    }

    /// Whether `entries`/`bytes` exceed either bound.
    fn over(&self, entries: usize, bytes: usize) -> bool {
        self.max_entries.is_some_and(|m| entries > m) || self.max_bytes.is_some_and(|m| bytes > m)
    }
}

/// Lookup/insert/eviction counters and the live footprint of an
/// [`AnalysisCache`] (counters are monotone snapshots; `entries`/`bytes`
/// are the current residency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Waiters served by another caller's in-flight compute
    /// ([`AnalysisCache::join_flight`]): lookups that would have been
    /// redundant cold computes without coalescing.
    pub coalesced: u64,
    /// Resident entries at snapshot time.
    pub entries: usize,
    /// Approximate resident bytes at snapshot time: over the entries,
    /// [`DetectionResult::approx_bytes`] plus the
    /// [`ImageDigest::approx_bytes`] of each digest held.
    pub bytes: usize,
}

impl CacheStats {
    /// Hits over total lookups, in `[0, 1]` (0 when nothing was looked
    /// up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident result plus its accounting.
#[derive(Debug)]
struct Entry {
    result: Arc<DetectionResult>,
    /// The image digest the result was computed against, when known —
    /// the anchor of version-delta lookups. `None` for results inserted
    /// without one (a flight completed without one, a store entry saved
    /// without one).
    digest: Option<Arc<ImageDigest>>,
    /// [`DetectionResult::approx_bytes`] plus the digest's
    /// [`ImageDigest::approx_bytes`], computed once at insert.
    bytes: usize,
    /// Recency tick; key into [`Inner::recency`].
    tick: u64,
}

/// The map state behind the mutex.
#[derive(Debug, Default)]
struct Inner {
    /// Two-level map: fingerprint, then pipeline id. The split lets a
    /// lookup borrow the caller's `&str` instead of materializing an
    /// owned tuple key.
    map: HashMap<u64, HashMap<String, Entry>>,
    /// LRU index: recency tick → key. The first (smallest-tick) entry
    /// is the eviction victim; ticks are unique by construction.
    recency: BTreeMap<u64, (u64, String)>,
    /// Live entry count (mirrors the map; O(1) for stats).
    entries: usize,
    /// Live approximate byte footprint.
    bytes: usize,
    /// Next recency tick to hand out.
    next_tick: u64,
}

impl Inner {
    /// Moves `(fingerprint, pipeline_id)` to the most-recent position,
    /// returning its result and digest.
    fn touch(
        &mut self,
        fingerprint: u64,
        pipeline_id: &str,
    ) -> Option<(Arc<DetectionResult>, Option<Arc<ImageDigest>>)> {
        let fresh = self.next_tick;
        let entry = self.map.get_mut(&fingerprint)?.get_mut(pipeline_id)?;
        let old = std::mem::replace(&mut entry.tick, fresh);
        let result = Arc::clone(&entry.result);
        let digest = entry.digest.clone();
        self.next_tick += 1;
        let key = self.recency.remove(&old).expect("tick indexed");
        self.recency.insert(fresh, key);
        Some((result, digest))
    }
}

/// The fingerprint-keyed result cache: `(image fingerprint, pipeline
/// id) → Arc<DetectionResult>`, optionally bounded with size-aware LRU
/// eviction ([`CacheCapacity`]).
///
/// Thread-safe behind `&self` (internal mutex, atomic counters), so one
/// instance serves every worker of the daemon. Detection is
/// deterministic — two workers racing to fill the same key compute
/// identical results, the first insert wins, and both receive the
/// winning `Arc` — so a warm hit is observationally identical to a cold
/// run, and an *eviction* is observationally identical to never having
/// cached (both properties are property-tested in `fetch-core`).
///
/// # Examples
///
/// ```
/// use fetch_binary::{write_elf, ElfImage};
/// use fetch_core::{image_fingerprint, AnalysisCache, CacheCapacity, Pipeline};
/// use fetch_synth::{synthesize, SynthConfig};
/// use std::sync::Arc;
///
/// let case = synthesize(&SynthConfig::small(3));
/// let image = ElfImage::parse(write_elf(&case.binary)).unwrap();
/// let cache = AnalysisCache::with_capacity(CacheCapacity::entries(64));
/// let (fp, id) = (image_fingerprint(&image), Pipeline::fetch().id());
/// // A miss: the caller computes and inserts.
/// assert!(cache.lookup(fp, &id).is_none());
/// let run = Pipeline::fetch().run(&image.to_binary());
/// let cold = cache.insert_with_digest(fp, &id, Arc::new(run), None);
/// let warm = cache.lookup(fp, &id).expect("warm hit");
/// assert!(Arc::ptr_eq(&cold, &warm));
/// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
/// assert_eq!(cache.stats().bytes, cold.approx_bytes());
/// ```
#[derive(Debug, Default)]
pub struct AnalysisCache {
    inner: Mutex<Inner>,
    capacity: CacheCapacity,
    flights: Mutex<HashMap<(u64, String), Arc<FlightSlot>>>,
    // `Arc`-backed so a host (the serve daemon) can register the very
    // same atomics into a `fetch_obs::Registry` — the `stats` counters
    // and a metrics exposition then reconcile by construction.
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
    coalesced: Arc<AtomicU64>,
}

/// One in-flight compute: waiters block on `ready` until the leader
/// publishes an outcome (`Some(result)` on completion, `None` when the
/// leader aborted and someone else must take over).
#[derive(Debug, Default)]
struct FlightSlot {
    outcome: Mutex<Option<Option<Arc<DetectionResult>>>>,
    ready: Condvar,
}

/// The caller's role in a coalesced compute ([`AnalysisCache::join_flight`]).
#[derive(Debug)]
pub enum Flight<'a> {
    /// The key was already cached — no compute needed.
    Hit(Arc<DetectionResult>),
    /// This caller is the leader: it must run the compute and then
    /// [`FlightGuard::complete`] (dropping the guard without completing
    /// aborts the flight and wakes the waiters empty-handed).
    Leader(FlightGuard<'a>),
    /// This caller waited on another caller's in-flight compute.
    /// `None` means the leader aborted — rejoin to take over.
    Waited(Option<Arc<DetectionResult>>),
}

/// Leadership of one in-flight compute. Obtained from
/// [`AnalysisCache::join_flight`]; resolve it with
/// [`FlightGuard::complete`]. If the guard is dropped instead (the
/// leader's compute failed or panicked), the flight is aborted: waiters
/// wake with `None` and the next joiner becomes the new leader — an
/// abort can stall waiters only until the drop, never forever.
#[derive(Debug)]
pub struct FlightGuard<'a> {
    cache: &'a AnalysisCache,
    key: (u64, String),
    slot: Arc<FlightSlot>,
    done: bool,
}

impl FlightGuard<'_> {
    /// Publishes `result` to every waiter and inserts it into the cache
    /// (returning the resident `Arc`, exactly like
    /// [`AnalysisCache::insert_with_digest`]). Waiters receive the published `Arc`
    /// directly, so they are correct even if capacity bounds evict the
    /// entry immediately.
    ///
    /// `digest` is the image's [`ImageDigest`], when the leader has it:
    /// the result and its digest become visible together, so a
    /// version-delta lookup never finds the result without the digest
    /// it could diff against.
    pub fn complete(
        mut self,
        result: Arc<DetectionResult>,
        digest: Option<Arc<ImageDigest>>,
    ) -> Arc<DetectionResult> {
        let stored = self
            .cache
            .insert_with_digest(self.key.0, &self.key.1, result, digest);
        self.publish(Some(Arc::clone(&stored)));
        stored
    }

    fn publish(&mut self, outcome: Option<Arc<DetectionResult>>) {
        if self.done {
            return;
        }
        self.done = true;
        self.cache
            .flights
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.key);
        *self.slot.outcome.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        self.slot.ready.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.publish(None);
    }
}

impl AnalysisCache {
    /// An empty, unbounded cache (nothing is ever evicted).
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// An empty cache bounded by `capacity`: inserts that push the
    /// cache over either bound evict least-recently-used entries until
    /// it fits (see the module docs on capacity and eviction).
    pub fn with_capacity(capacity: CacheCapacity) -> AnalysisCache {
        AnalysisCache {
            capacity,
            ..AnalysisCache::default()
        }
    }

    /// Looks up `(fingerprint, pipeline_id)`, counting the outcome and
    /// marking the entry most-recently-used on a hit.
    pub fn lookup(&self, fingerprint: u64, pipeline_id: &str) -> Option<Arc<DetectionResult>> {
        self.lookup_with_digest(fingerprint, pipeline_id)
            .map(|(result, _)| result)
    }

    /// Inserts a result for `(fingerprint, pipeline_id)` without
    /// consulting the hit/miss counters — the daemon's path for a result
    /// a pending save or its store holds. `digest` is the
    /// [`ImageDigest`] the result was computed against, when known, so
    /// later version-delta lookups ([`AnalysisCache::lookup_with_digest`])
    /// can diff against it. If the key is already resident the existing
    /// entry, digest included, wins (results are deterministic, so both
    /// are identical) and is returned; either way the returned `Arc` is
    /// what the cache now serves — unless capacity bounds evicted it on
    /// arrival, which is still a correct (merely cold) cache.
    pub fn insert_with_digest(
        &self,
        fingerprint: u64,
        pipeline_id: &str,
        result: Arc<DetectionResult>,
        digest: Option<Arc<ImageDigest>>,
    ) -> Arc<DetectionResult> {
        let mut inner = self.lock();
        if let Some((existing, _)) = inner.touch(fingerprint, pipeline_id) {
            return existing;
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        let bytes = result.approx_bytes() + digest.as_ref().map_or(0, |d| d.approx_bytes());
        inner
            .recency
            .insert(tick, (fingerprint, pipeline_id.to_string()));
        inner.map.entry(fingerprint).or_default().insert(
            pipeline_id.to_string(),
            Entry {
                result: Arc::clone(&result),
                digest,
                bytes,
                tick,
            },
        );
        inner.entries += 1;
        inner.bytes += bytes;
        self.evict_over_capacity(&mut inner);
        result
    }

    /// Looks up `(fingerprint, pipeline_id)` returning the result
    /// together with the [`ImageDigest`] it was computed against (when
    /// one was recorded). Counts and touches exactly like
    /// [`AnalysisCache::lookup`].
    pub fn lookup_with_digest(
        &self,
        fingerprint: u64,
        pipeline_id: &str,
    ) -> Option<(Arc<DetectionResult>, Option<Arc<ImageDigest>>)> {
        let hit = self.lock().touch(fingerprint, pipeline_id);
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Joins the single-flight compute for `(fingerprint, pipeline_id)`
    /// — the request-coalescing hook of the serving layer. Exactly one
    /// concurrent caller per uncached key becomes [`Flight::Leader`]
    /// (and must [`FlightGuard::complete`] with the computed result);
    /// every other concurrent caller blocks and receives the leader's
    /// published `Arc` as [`Flight::Waited`] — N simultaneous requests
    /// for one uncached key run exactly one compute.
    ///
    /// The cache is re-checked after the flight table is locked, so a
    /// leader completing between the caller's earlier [`lookup`] miss
    /// and this call is observed as [`Flight::Hit`]. Neither that
    /// re-check nor a wait touches the hit/miss counters (the caller's
    /// own `lookup` already counted); successful waits are counted in
    /// [`CacheStats::coalesced`].
    ///
    /// [`lookup`]: AnalysisCache::lookup
    pub fn join_flight(&self, fingerprint: u64, pipeline_id: &str) -> Flight<'_> {
        let mut flights = self.flights.lock().unwrap_or_else(|p| p.into_inner());
        // Lock order is flights → inner; insert/complete only ever hold
        // one of the two at a time, so the order cannot deadlock.
        if let Some((hit, _)) = self.lock().touch(fingerprint, pipeline_id) {
            return Flight::Hit(hit);
        }
        let key = (fingerprint, pipeline_id.to_string());
        if let Some(slot) = flights.get(&key) {
            let slot = Arc::clone(slot);
            drop(flights);
            let mut outcome = slot.outcome.lock().unwrap_or_else(|p| p.into_inner());
            while outcome.is_none() {
                outcome = slot.ready.wait(outcome).unwrap_or_else(|p| p.into_inner());
            }
            let got = outcome.clone().expect("loop exits on Some");
            if got.is_some() {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            return Flight::Waited(got);
        }
        let slot = Arc::new(FlightSlot::default());
        flights.insert(key.clone(), Arc::clone(&slot));
        Flight::Leader(FlightGuard {
            cache: self,
            key,
            slot,
            done: false,
        })
    }

    /// Evicts least-recently-used entries until the cache fits its
    /// capacity again. The newest entry holds the highest tick, so it
    /// is evicted last — but *is* evicted when it alone exceeds the
    /// byte bound (the cache never exceeds capacity).
    fn evict_over_capacity(&self, inner: &mut Inner) {
        while inner.entries > 0 && self.capacity.over(inner.entries, inner.bytes) {
            let (&tick, _) = inner.recency.iter().next().expect("entries > 0");
            let (fingerprint, pipeline_id) = inner.recency.remove(&tick).expect("present");
            let by_pipeline = inner.map.get_mut(&fingerprint).expect("indexed");
            let entry = by_pipeline.remove(&pipeline_id).expect("indexed");
            if by_pipeline.is_empty() {
                inner.map.remove(&fingerprint);
            }
            inner.entries -= 1;
            inner.bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the lookup/eviction counters and the live
    /// entry/byte footprint.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.lock();
            (inner.entries, inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Registers the cache's lookup counters into an observability
    /// registry under `{prefix}_hits_total`, `{prefix}_misses_total`,
    /// `{prefix}_evictions_total`, and `{prefix}_coalesced_total`.
    ///
    /// The registry is handed the *same* atomics that back
    /// [`AnalysisCache::stats`], so a metrics exposition and the stats
    /// snapshot can never drift apart — there is one counter, read from
    /// two places, not two counters kept in sync.
    pub fn register_metrics(&self, registry: &fetch_obs::Registry, prefix: &str) {
        registry.register_counter(&format!("{prefix}_hits_total"), Arc::clone(&self.hits));
        registry.register_counter(&format!("{prefix}_misses_total"), Arc::clone(&self.misses));
        registry.register_counter(
            &format!("{prefix}_evictions_total"),
            Arc::clone(&self.evictions),
        );
        registry.register_counter(
            &format!("{prefix}_coalesced_total"),
            Arc::clone(&self.coalesced),
        );
    }

    /// Entries are only ever inserted whole, so the map is consistent
    /// even if a panicking worker poisoned the mutex — recover instead
    /// of propagating, so the other workers keep their cache.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use fetch_binary::{write_elf, ElfImage};
    use fetch_synth::{synthesize, SynthConfig};

    /// The cache key of `binary`: [`image_fingerprint`] of its ELF.
    fn fp_of(binary: &Binary) -> u64 {
        image_fingerprint(&ElfImage::parse(write_elf(binary)).unwrap())
    }

    /// The daemon's answer sequence (`AnalysisService::lookup_warm`): a
    /// counted lookup, then on a miss the computed result inserted.
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

    /// `sem` hashes are persisted, so their scheme — the sweep plus the
    /// derived `Hash` of the typed `Op` — must not drift silently.
    #[test]
    fn structural_sem_hash_is_pinned_and_masks_only_data_immediates() {
        let spans = [(0x1000, 0x1100)];
        let sem = |mov: [u8; 5]| {
            // push rbp; mov rbp, rsp; <mov>; pop rbp; ret
            let mut bytes = vec![0x55, 0x48, 0x89, 0xe5];
            bytes.extend_from_slice(&mov);
            bytes.extend_from_slice(&[0x5d, 0xc3]);
            let end = 0x1000 + bytes.len() as u64;
            sem_fingerprint(
                &Section::new(SectionKind::Text, 0x1000, bytes),
                &spans,
                0x1000,
                end,
            )
        };
        let eax_42 = sem([0xb8, 42, 0, 0, 0]);
        assert_eq!(
            eax_42, PINNED_SEM,
            "the sem hash scheme changed: bump serial::RESULT_VERSION, so a store's \
             open sweep quarantines entries digested under the old scheme and they \
             are recomputed on demand"
        );
        assert_eq!(eax_42, sem([0xb8, 43, 0, 0, 0]), "data immediate masked");
        assert_ne!(
            sem([0xbf, 42, 0, 0, 0]),
            sem([0xbf, 43, 0, 0, 0]),
            "rdi immediates stay exact"
        );
        assert_ne!(
            sem([0xb8, 0x10, 0x10, 0, 0]),
            sem([0xb8, 0x11, 0x10, 0, 0]),
            "address-like immediates stay exact"
        );
    }

    const PINNED_SEM: u64 = 0xa1a2_6511_c492_cfec;

    /// The image fingerprint is the cache key, the store key and a reply
    /// field, so its scheme must not drift silently either.
    #[test]
    fn image_fingerprint_is_pinned() {
        // Three whole 32-byte blocks and a 4-byte tail.
        let bytes: Vec<u8> = (0u8..100).collect();
        assert_eq!(
            bytes_fingerprint(&bytes),
            PINNED_IMAGE,
            "the image fingerprint scheme changed: bump serial::RESULT_VERSION, so a \
             store's open sweep quarantines entries keyed under the old scheme and they \
             are recomputed on demand"
        );
    }

    const PINNED_IMAGE: u64 = 0x4305_e049_cead_3505;

    /// Every lane, every tail size: a single flipped bit (the top bit of
    /// a byte included, the one FNV spreads least) or a byte more or
    /// less always moves the fingerprint.
    #[test]
    fn one_byte_or_one_length_apart_hashes_apart() {
        for len in 0..=72usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let fp = bytes_fingerprint(&bytes);
            for pos in 0..len {
                for mask in [0x01u8, 0x80] {
                    let mut flipped = bytes.clone();
                    flipped[pos] ^= mask;
                    assert_ne!(bytes_fingerprint(&flipped), fp, "len {len}, byte {pos}");
                }
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(bytes_fingerprint(&longer), fp, "len {len} vs {}", len + 1);
        }
    }

    #[test]
    fn cache_is_keyed_by_pipeline_id_too() {
        let case = synthesize(&SynthConfig::small(23));
        let cache = AnalysisCache::new();
        let fp = fp_of(&case.binary);
        let fde = Pipeline::parse("FDE").unwrap();
        let fde_rec = Pipeline::parse("FDE+Rec").unwrap();
        let a = serve(&cache, fp, &fde.id(), || fde.run(&case.binary));
        let b = serve(&cache, fp, &fde_rec.id(), || fde_rec.run(&case.binary));
        assert_ne!(a.layer_names(), b.layer_names());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().bytes, a.approx_bytes() + b.approx_bytes());
    }

    #[test]
    fn entry_capacity_evicts_least_recently_used() {
        let cases: Vec<_> = (31u64..35)
            .map(|s| synthesize(&SynthConfig::small(s)))
            .collect();
        let pipeline = Pipeline::parse("FDE").unwrap();
        let id = pipeline.id();
        let cache = AnalysisCache::with_capacity(CacheCapacity::entries(2));
        let fps: Vec<u64> = cases.iter().map(|c| fp_of(&c.binary)).collect();

        serve(&cache, fps[0], &id, || pipeline.run(&cases[0].binary));
        serve(&cache, fps[1], &id, || pipeline.run(&cases[1].binary));
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.lookup(fps[0], &id).is_some());
        serve(&cache, fps[2], &id, || pipeline.run(&cases[2].binary));

        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup(fps[0], &id).is_some(),
            "recently used survives"
        );
        assert!(cache.lookup(fps[1], &id).is_none(), "LRU victim evicted");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn byte_capacity_never_exceeded_even_by_one_entry() {
        let case = synthesize(&SynthConfig::small(36));
        let pipeline = Pipeline::fetch();
        let cold = pipeline.run(&case.binary);
        // A bound smaller than any single result: nothing is admitted,
        // every lookup recomputes, answers stay correct.
        let cache = AnalysisCache::with_capacity(CacheCapacity::bytes(cold.approx_bytes() / 2));
        let fp = fp_of(&case.binary);
        for _ in 0..3 {
            let served = serve(&cache, fp, &pipeline.id(), || pipeline.run(&case.binary));
            assert_eq!(*served, cold);
            let stats = cache.stats();
            assert_eq!(stats.entries, 0, "oversized entry must not be admitted");
            assert_eq!(stats.bytes, 0);
        }
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn byte_capacity_counts_the_digests_entries_hold() {
        let pipeline = Pipeline::fetch();
        let entries: Vec<_> = (41u64..45)
            .map(|s| {
                let case = synthesize(&SynthConfig::small(s));
                let fp = fp_of(&case.binary);
                let result = Arc::new(pipeline.run(&case.binary));
                let digest = Arc::new(ImageDigest::compute(&case.binary, fp));
                (fp, result, digest)
            })
            .collect();
        let entry_bytes = |(_, r, d): &(u64, Arc<DetectionResult>, Arc<ImageDigest>)| {
            r.approx_bytes() + d.approx_bytes()
        };
        // Exactly the first two entries' bytes: the later inserts evict.
        let bound = entry_bytes(&entries[0]) + entry_bytes(&entries[1]);
        let cache = AnalysisCache::with_capacity(CacheCapacity::bytes(bound));
        for (fp, result, digest) in &entries {
            cache.insert_with_digest(
                *fp,
                &pipeline.id(),
                Arc::clone(result),
                Some(Arc::clone(digest)),
            );
            let stats = cache.stats();
            assert!(
                stats.bytes <= bound,
                "{} B resident over a {bound} B bound",
                stats.bytes
            );
        }
        let resident: usize = entries
            .iter()
            .filter(|(fp, _, _)| cache.lookup(*fp, &pipeline.id()).is_some())
            .map(entry_bytes)
            .sum();
        let stats = cache.stats();
        assert!(
            stats.evictions > 0,
            "four entries do not fit a two-entry bound"
        );
        assert_eq!(
            stats.bytes, resident,
            "the footprint is results plus digests"
        );
    }

    #[test]
    fn concurrent_flights_run_exactly_one_compute() {
        use std::sync::atomic::AtomicUsize;
        let case = synthesize(&SynthConfig::small(38));
        let pipeline = Pipeline::fetch();
        let fp = fp_of(&case.binary);
        let id = pipeline.id();
        let cache = AnalysisCache::new();
        let computes = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<Arc<DetectionResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        // The serving layer's shape: one counted lookup,
                        // then the flight until someone resolves it.
                        if let Some(hit) = cache.lookup(fp, &id) {
                            return hit;
                        }
                        loop {
                            match cache.join_flight(fp, &id) {
                                Flight::Hit(r) | Flight::Waited(Some(r)) => return r,
                                Flight::Leader(guard) => {
                                    computes.fetch_add(1, Ordering::SeqCst);
                                    return guard
                                        .complete(Arc::new(pipeline.run(&case.binary)), None);
                                }
                                Flight::Waited(None) => continue,
                            }
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "coalescing must collapse concurrent computes to one"
        );
        for r in &results {
            assert!(Arc::ptr_eq(r, &results[0]), "all callers share one Arc");
        }
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            8,
            "one counted lookup per caller"
        );
        assert!(
            stats.coalesced < 8,
            "at most 7 callers can wait on the one leader"
        );
    }

    #[test]
    fn aborted_flight_hands_leadership_over() {
        let case = synthesize(&SynthConfig::small(39));
        let pipeline = Pipeline::parse("FDE").unwrap();
        let fp = fp_of(&case.binary);
        let id = pipeline.id();
        let cache = AnalysisCache::new();
        let guard = match cache.join_flight(fp, &id) {
            Flight::Leader(g) => g,
            other => panic!("first joiner must lead, got {other:?}"),
        };
        drop(guard); // leader aborts without completing
        match cache.join_flight(fp, &id) {
            Flight::Leader(g) => {
                let done = g.complete(Arc::new(pipeline.run(&case.binary)), None);
                assert!(!done.starts.is_empty());
            }
            other => panic!("next joiner must inherit leadership, got {other:?}"),
        }
        assert!(
            matches!(cache.join_flight(fp, &id), Flight::Hit(_)),
            "completed flight must be a cache hit"
        );
    }

    #[test]
    fn insert_is_idempotent_and_first_writer_wins() {
        let case = synthesize(&SynthConfig::small(37));
        let pipeline = Pipeline::parse("FDE").unwrap();
        let fp = fp_of(&case.binary);
        let cache = AnalysisCache::new();
        let insert = || {
            let result = Arc::new(pipeline.run(&case.binary));
            cache.insert_with_digest(fp, &pipeline.id(), result, None)
        };
        let (first, second) = (insert(), insert());
        assert!(Arc::ptr_eq(&first, &second), "first insert wins");
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0), "insert skips counters");
    }
}
