//! Binary-pure facts: what detection and the image digest read from the
//! immutable binary alone, computed at most once per binary and
//! shareable across threads ([`BinaryFacts`]).

use fetch_binary::Binary;
use fetch_ehframe::{stack_heights, EhFrame, HeightTable};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The CFI side-table of a binary: every FDE's stack-height table (where
/// the CFIs are complete), the set of FDE-covered starts, and the sorted
/// coverage ranges. A pure function of the immutable binary, so
/// [`BinaryFacts`] computes it at most once — call-frame repair used to
/// re-evaluate every CFI program on every invocation.
#[derive(Debug, Clone, Default)]
pub struct FrameTable {
    /// Complete stack-height tables keyed by FDE `PC Begin`.
    pub heights: BTreeMap<u64, HeightTable>,
    /// Every FDE `PC Begin` in the binary.
    pub has_fde: BTreeSet<u64>,
    /// Sorted `(pc_begin, pc_end)` coverage ranges of every FDE.
    pub ranges: Vec<(u64, u64)>,
}

impl FrameTable {
    /// Evaluates an already-parsed `.eh_frame`.
    fn from_eh(eh: &EhFrame) -> FrameTable {
        let mut table = FrameTable::default();
        for (cie, fde) in eh.fdes_with_cie() {
            table.has_fde.insert(fde.pc_begin);
            table.ranges.push((fde.pc_begin, fde.pc_end()));
            if let Ok(Some(h)) = stack_heights(cie, fde) {
                table.heights.insert(fde.pc_begin, h);
            }
        }
        table.ranges.sort_unstable();
        table
    }
}

/// How often a [`BinaryFacts`] computed its facts — at most once each,
/// by construction; the counts let tests and `perf_snapshot` check that
/// every consumer of a request shared one instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactsWork {
    /// `.eh_frame` parses.
    pub eh_parses: u64,
    /// [`FrameTable`] builds.
    pub frame_table_builds: u64,
}

/// The data-pointer super-set with the data-section bytes its sweep
/// covered.
type DataPointers = (Arc<BTreeMap<u64, Vec<u64>>>, u64);

/// The binary-pure facts of one binary — the parsed `.eh_frame`, the
/// CFI side-table ([`FrameTable`]) and the §IV-E data-pointer super-set
/// — each computed at most once and shared by every thread holding the
/// `Arc`.
///
/// There is one [`OnceLock`] per fact: whoever asks first computes it,
/// and a concurrent asker blocks until it is ready. A
/// [`crate::DetectionState`] reads its facts through one, and
/// [`crate::ImageDigest::compute_with_facts`] takes its FDE partition
/// from the same one, so a cold request that runs the pipeline and
/// digests the image parses `.eh_frame` once. The serving daemon hands
/// the same `Arc<BinaryFacts>` to a side thread that builds the frame
/// table and the digest while the pipeline runs; which thread gets to a
/// fact first changes who pays for it, never its value.
///
/// Every call on one `BinaryFacts` must pass the same binary: the facts
/// memoize the first binary they are asked about. `None` facts record a
/// malformed `.eh_frame`; that outcome is memoized too.
#[derive(Debug, Default)]
pub struct BinaryFacts {
    eh: OnceLock<Option<Arc<EhFrame>>>,
    frame_table: OnceLock<Option<Arc<FrameTable>>>,
    data_ptrs: OnceLock<DataPointers>,
    eh_parses: AtomicU64,
    frame_table_builds: AtomicU64,
}

impl BinaryFacts {
    /// Facts with nothing computed yet.
    pub fn new() -> BinaryFacts {
        BinaryFacts::default()
    }

    /// The parsed `.eh_frame` (`None`: the section is malformed).
    pub fn eh_frame(&self, binary: &Binary) -> Option<Arc<EhFrame>> {
        self.eh
            .get_or_init(|| {
                self.eh_parses.fetch_add(1, Ordering::Relaxed);
                binary.eh_frame().ok().map(Arc::new)
            })
            .clone()
    }

    /// The CFI side-table (`None`: the `.eh_frame` is malformed).
    pub fn frame_table(&self, binary: &Binary) -> Option<Arc<FrameTable>> {
        self.frame_table_counted(binary).0
    }

    /// [`BinaryFacts::frame_table`], also saying whether this call built
    /// it (a [`crate::DetectionState`] counts its own hits and misses).
    pub(crate) fn frame_table_counted(&self, binary: &Binary) -> (Option<Arc<FrameTable>>, bool) {
        let mut built = false;
        let table = self.frame_table.get_or_init(|| {
            built = true;
            self.frame_table_builds.fetch_add(1, Ordering::Relaxed);
            self.eh_frame(binary)
                .map(|eh| Arc::new(FrameTable::from_eh(&eh)))
        });
        (table.clone(), built)
    }

    /// The data-section pointer super-set (§IV-E) and the bytes its
    /// sweep covered.
    pub(crate) fn data_pointers(&self, binary: &Binary) -> DataPointers {
        self.data_ptrs
            .get_or_init(|| {
                let (ptrs, bytes) = crate::pointer_scan::collect_data_pointers_counted(binary);
                (Arc::new(ptrs), bytes)
            })
            .clone()
    }

    /// The computations so far.
    pub fn work(&self) -> FactsWork {
        FactsWork {
            eh_parses: self.eh_parses.load(Ordering::Relaxed),
            frame_table_builds: self.frame_table_builds.load(Ordering::Relaxed),
        }
    }
}
