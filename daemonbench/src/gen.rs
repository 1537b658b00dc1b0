//! Workload inputs. Everything the daemon receives is derived from the
//! workload seed alone, so one seed always gives a byte-identical request
//! stream (the tests at the bottom pin this).

use fetch_binary::{write_elf, ElfImage, TestCase};
use fetch_core::{image_fingerprint, Pipeline};
use fetch_serve::protocol::{AnalyzeInput, Request};
use fetch_synth::{patch_function, synthesize, PatchKind, SynthConfig};
use std::path::Path;
use std::time::Duration;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A stream of never-seen binaries, inline bytes, one persistent
    /// connection: the paper's workload.
    ColdScan,
    /// Zipf-skewed repeats of an analyzed working set, by path, one
    /// connection per request from two clients: a shared service.
    WarmRepeat,
    /// `reanalyze` along version chains, one persistent connection: CI/CD
    /// rebuild traffic through the delta ladder.
    RebuildChain,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdScan,
        Workload::WarmRepeat,
        Workload::RebuildChain,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdScan => "cold_scan",
            Workload::WarmRepeat => "warm_repeat",
            Workload::RebuildChain => "rebuild_chain",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: small and well mixed. The benchmark needs reproducible
/// streams, not cryptographic quality.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent seed for one item of one stream of the workload seed.
fn derive(seed: u64, stream: u64, item: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let a = rng.next_u64() ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
    Rng::new(a ^ item.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// The `i`-th binary size of a stream spread evenly in log space over
/// `[lo, hi]` functions: a golden-ratio sequence, so any run of
/// consecutive binaries covers the range almost uniformly. The schedule
/// is part of the workload, not of the seed: every seed sees the same
/// sizes, so latency percentiles and memory move with the code, not with
/// the sizes a seed happened to draw. The seed decides what each binary
/// holds.
pub fn spread_size(i: usize, (lo, hi): (usize, usize)) -> usize {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let u = (0.5 + PHI * i as f64).fract();
    (lo as f64 * (hi as f64 / lo as f64).powf(u)).round() as usize
}

/// Synthesizes a binary with `perf_snapshot`'s feature rates: more
/// split-cold parts (FDE errors), assembly functions and error calls
/// than the default corpus.
pub fn synth_case(seed: u64, n_funcs: usize, name: String) -> TestCase {
    let mut cfg = SynthConfig::small(seed);
    cfg.name = name;
    cfg.n_funcs = n_funcs;
    cfg.rates.split_cold = 0.08;
    cfg.rates.asm_funcs = n_funcs / 20;
    cfg.rates.error_calls = 0.10;
    synthesize(&cfg)
}

/// An `analyze` request line carrying the image inline.
pub fn analyze_bytes_line(elf: Vec<u8>) -> String {
    Request::Analyze {
        input: AnalyzeInput::Bytes(elf),
        pipeline: Pipeline::fetch(),
    }
    .to_line()
}

/// An `analyze` request line naming a file, as `fetch-serve client
/// --analyze` sends it.
pub fn analyze_path_line(path: &Path) -> String {
    Request::Analyze {
        input: AnalyzeInput::Path(path.to_path_buf()),
        pipeline: Pipeline::fetch(),
    }
    .to_line()
}

/// Size bands of the input summary and of the `rec.ips_*` metrics.
pub const SMALL_BELOW: usize = 150;
/// Binaries with at least this many functions form the large band.
pub const LARGE_FROM: usize = 1500;

// ---------------------------------------------------------------------
// cold_scan
// ---------------------------------------------------------------------

/// Function counts of the cold_scan stream.
pub const COLD_SIZES: (usize, usize) = (60, 3000);
/// Functions synthesized per timed second. A 2-vCPU host analyzes about
/// 40k functions/s cold; the margin covers faster builds, and a build
/// that drains the pool anyway just ends its timed phase early. The pool
/// is held in memory (about 80 MiB per 10 s), which bounds the margin.
pub const COLD_FUNCS_PER_SEC: usize = 60_000;

/// Function count of the `i`-th cold_scan binary.
pub fn cold_size(i: usize) -> usize {
    spread_size(i, COLD_SIZES)
}

/// The `i`-th binary of the cold_scan stream.
pub fn cold_case(seed: u64, i: usize) -> TestCase {
    synth_case(derive(seed, 1, i as u64), cold_size(i), format!("cold-{i}"))
}

/// How many cold_scan binaries a timed phase of `seconds` gets.
pub fn cold_count(seconds: f64) -> usize {
    let budget = (COLD_FUNCS_PER_SEC as f64 * seconds) as usize;
    let mut funcs = 0;
    let mut n = 0;
    while funcs < budget {
        funcs += cold_size(n);
        n += 1;
    }
    n
}

// ---------------------------------------------------------------------
// warm_repeat
// ---------------------------------------------------------------------

/// Binaries in the warm_repeat working set.
pub const WARM_SET: usize = 48;
/// The daemon's `--cache-capacity` on warm_repeat: a quarter of the
/// working set, so Zipf traffic mixes cache hits, store hits and
/// evictions.
pub const WARM_CACHE: usize = WARM_SET / 4;
/// Function counts of the working set.
pub const WARM_SIZES: (usize, usize) = (60, 1500);
/// Requests drawn per timed second: far above the ~100 requests/s the
/// per-connection pattern gets today, so a faster accept loop still finds
/// requests waiting.
pub const WARM_DRAWS_PER_SEC: usize = 20_000;

/// Upper end of a warm_repeat client's think time between requests.
/// Back-to-back clients phase-lock to the daemon's idle accept poll and
/// settle, run by run, into one of two throughput modes; a think time
/// drawn uniformly over one poll interval spreads arrivals evenly over
/// the poll cycle, as independent users would.
pub const WARM_THINK: Duration = Duration::from_millis(20);

/// The think time after the `k`-th warm_repeat request.
pub fn think_time(seed: u64, k: usize) -> Duration {
    WARM_THINK.mul_f64(Rng::new(derive(seed, 6, k as u64)).unit())
}

/// Function count of the `i`-th binary of the working set.
pub fn warm_size(i: usize) -> usize {
    spread_size(i, WARM_SIZES)
}

/// The `i`-th binary of the working set.
pub fn warm_case(seed: u64, i: usize) -> TestCase {
    synth_case(derive(seed, 2, i as u64), warm_size(i), format!("warm-{i}"))
}

/// Working-set indices drawn Zipf(s = 1) over popularity ranks; which
/// binary holds which rank is a seeded permutation.
pub fn zipf_stream(seed: u64, len: usize) -> Vec<u32> {
    let mut rng = Rng::new(derive(seed, 4, 0));
    let mut by_rank: Vec<u32> = (0..WARM_SET as u32).collect();
    for i in (1..by_rank.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        by_rank.swap(i, j);
    }
    let mut cdf = Vec::with_capacity(WARM_SET);
    let mut total = 0.0;
    for rank in 0..WARM_SET {
        total += 1.0 / (rank + 1) as f64;
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.unit() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(WARM_SET - 1);
            by_rank[rank]
        })
        .collect()
}

// ---------------------------------------------------------------------
// rebuild_chain
// ---------------------------------------------------------------------

/// Version chains, advanced round-robin. The slowest few percent of
/// requests come from the largest chains; with many chains the p95 is
/// set by several binaries rather than by what one seed put in one.
pub const CHAINS: usize = 48;
/// Function counts of the chain bases: medium to large binaries.
pub const CHAIN_SIZES: (usize, usize) = (250, 1200);
/// Functions of versions generated per timed second (the mix averages
/// about 60k functions/s on a 2-vCPU host).
pub const CHAIN_FUNCS_PER_SEC: usize = 120_000;
/// The fixed patch mix, cycled along each chain (each chain starts at
/// its own offset): a third of the versions each land on the
/// section-reuse, recompute and cold tiers. With reuse in the minority
/// the latency median sits inside the pipeline-running cluster rather
/// than on the gap between the two.
pub const PATCH_CYCLE: [PatchKind; 3] =
    [PatchKind::Neutral, PatchKind::Behavioral, PatchKind::Resize];

/// One new version: the previous version of its chain plus one patch,
/// stored as the bytes that changed.
pub struct Version {
    /// The chain it extends.
    pub chain: usize,
    /// The patch applied.
    pub kind: PatchKind,
    /// Fingerprint of the previous version (the `prev_fingerprint` sent).
    pub prev_fp: u64,
    /// `(offset, new byte)` of every ELF byte that differs from the
    /// previous version (patches never change the image size).
    diff: Vec<(u32, u8)>,
}

/// Chain bases plus the generated versions, in request order.
pub struct Chains {
    /// Base versions (analyzed during setup); also the ground truth of
    /// every version of the chain, since patches never move an entry.
    pub bases: Vec<TestCase>,
    /// Base ELF images.
    pub base_elfs: Vec<Vec<u8>>,
    /// Function count of each chain.
    pub sizes: Vec<usize>,
    /// Versions in request order: request `k` extends chain `k % CHAINS`.
    pub versions: Vec<Version>,
}

impl Chains {
    /// Generates the bases and enough versions for `seconds` of traffic.
    pub fn generate(seed: u64, seconds: f64) -> Chains {
        let sizes: Vec<usize> = (0..CHAINS).map(|c| spread_size(c, CHAIN_SIZES)).collect();
        let bases: Vec<TestCase> = (0..CHAINS)
            .map(|c| synth_case(derive(seed, 3, c as u64), sizes[c], format!("chain-{c}")))
            .collect();
        let base_elfs: Vec<Vec<u8>> = bases.iter().map(|b| write_elf(&b.binary)).collect();
        let mut cur = bases.clone();
        let mut cur_elf = base_elfs.clone();
        let mut cur_fp: Vec<u64> = base_elfs.iter().map(|e| fingerprint(e)).collect();
        let budget = (CHAIN_FUNCS_PER_SEC as f64 * seconds) as usize;
        let mut versions = Vec::new();
        let mut funcs = 0;
        while funcs < budget {
            let k = versions.len();
            let (c, step) = (k % CHAINS, k / CHAINS);
            let kind = PATCH_CYCLE[(step + c) % PATCH_CYCLE.len()];
            let patch = (0..8)
                .find_map(|t| patch_function(&cur[c], derive(seed, 5, (k * 8 + t) as u64), kind))
                .unwrap_or_else(|| panic!("chain {c} step {step}: no {kind:?} patch site"));
            let elf = write_elf(&patch.binary);
            assert_eq!(elf.len(), cur_elf[c].len(), "a patch keeps the image size");
            let diff = elf
                .iter()
                .zip(&cur_elf[c])
                .enumerate()
                .filter(|(_, (new, old))| new != old)
                .map(|(at, (new, _))| (at as u32, *new))
                .collect();
            let fp = fingerprint(&elf);
            versions.push(Version {
                chain: c,
                kind,
                prev_fp: cur_fp[c],
                diff,
            });
            cur[c] = TestCase {
                binary: patch.binary,
                truth: patch.truth,
            };
            cur_elf[c] = elf;
            cur_fp[c] = fp;
            funcs += sizes[c];
        }
        for (c, case) in cur.iter().enumerate() {
            assert_eq!(
                case.truth.starts(),
                bases[c].truth.starts(),
                "patches never move a function entry"
            );
        }
        Chains {
            bases,
            base_elfs,
            sizes,
            versions,
        }
    }

    /// Replays the versions from the bases, in request order.
    pub fn cursor(&self) -> ChainCursor<'_> {
        ChainCursor {
            chains: self,
            elfs: self.base_elfs.clone(),
            next: 0,
        }
    }

    /// How many versions of each patch kind the first `n` requests carry,
    /// in [`PatchKind`] order: (neutral, behavioral, resize).
    pub fn kind_counts(&self, n: usize) -> [usize; 3] {
        let mut counts = [0; 3];
        for v in &self.versions[..n.min(self.versions.len())] {
            counts[kind_index(v.kind)] += 1;
        }
        counts
    }
}

/// Index of a patch kind in [`Chains::kind_counts`].
fn kind_index(kind: PatchKind) -> usize {
    match kind {
        PatchKind::Neutral => 0,
        PatchKind::Behavioral => 1,
        PatchKind::Resize => 2,
    }
}

/// Walks the version stream, rebuilding each version's image.
pub struct ChainCursor<'a> {
    chains: &'a Chains,
    elfs: Vec<Vec<u8>>,
    next: usize,
}

impl ChainCursor<'_> {
    /// The next version and its ELF image, or `None` at the end.
    pub fn next_version(&mut self) -> Option<(&Version, &[u8])> {
        let version = self.chains.versions.get(self.next)?;
        self.next += 1;
        let elf = &mut self.elfs[version.chain];
        for &(at, byte) in &version.diff {
            elf[at as usize] = byte;
        }
        Some((version, elf))
    }
}

/// The `reanalyze` request line of one version.
pub fn reanalyze_line(version: &Version, elf: &[u8]) -> String {
    Request::Reanalyze {
        prev_fingerprint: version.prev_fp,
        input: AnalyzeInput::Bytes(elf.to_vec()),
        pipeline: Pipeline::fetch(),
    }
    .to_line()
}

/// The daemon's content fingerprint of an ELF image.
pub fn fingerprint(elf: &[u8]) -> u64 {
    image_fingerprint(&ElfImage::parse(elf.to_vec()).expect("synthesized ELF parses"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_lines(seed: u64, n: usize) -> Vec<String> {
        (0..n)
            .map(|i| analyze_bytes_line(write_elf(&cold_case(seed, i).binary)))
            .collect()
    }

    fn chain_lines(seed: u64) -> Vec<String> {
        let chains = Chains::generate(seed, 0.5);
        let mut cursor = chains.cursor();
        let mut lines = Vec::new();
        while let Some((version, elf)) = cursor.next_version() {
            lines.push(reanalyze_line(version, elf));
        }
        lines
    }

    #[test]
    fn one_seed_gives_a_byte_identical_request_stream() {
        assert_eq!(cold_lines(7, 4), cold_lines(7, 4));
        assert_eq!(zipf_stream(7, 500), zipf_stream(7, 500));
        let warm = |seed| write_elf(&warm_case(seed, 3).binary);
        assert_eq!(warm(7), warm(7));
        let chain = chain_lines(7);
        assert!(chain.len() > CHAINS, "every chain gets a version");
        assert_eq!(chain, chain_lines(7));
    }

    #[test]
    fn another_seed_gives_another_stream() {
        assert_ne!(cold_lines(7, 2), cold_lines(8, 2));
        assert_ne!(zipf_stream(7, 500), zipf_stream(8, 500));
        assert_ne!(chain_lines(7), chain_lines(8));
    }

    #[test]
    fn sizes_cover_the_range_evenly_in_log_space() {
        let sizes: Vec<usize> = (0..200).map(cold_size).collect();
        assert!(sizes
            .iter()
            .all(|&n| (COLD_SIZES.0..=COLD_SIZES.1).contains(&n)));
        let small = sizes.iter().filter(|&&n| n < 410).count();
        // log-midpoint of [60, 3000] is ~424: about half fall below it.
        assert!(
            (85..=115).contains(&small),
            "{small} of 200 below the log-midpoint"
        );
    }

    #[test]
    fn zipf_stream_is_skewed_toward_few_binaries() {
        let stream = zipf_stream(3, 10_000);
        let mut counts = [0usize; WARM_SET];
        for &i in &stream {
            counts[i as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = counts[..WARM_CACHE].iter().sum();
        assert!(top > 6_000, "the top quarter draws {top} of 10000");
        assert!(counts[WARM_SET - 1] > 0, "every binary is drawn");
    }

    #[test]
    fn chains_follow_the_patch_cycle() {
        let chains = Chains::generate(5, 0.2);
        let [neutral, behavioral, resize] = chains.kind_counts(usize::MAX);
        assert_eq!(neutral + behavioral + resize, chains.versions.len());
        assert!(neutral > 0 && behavioral > 0 && resize > 0);
        let mut last: Vec<u64> = chains.base_elfs.iter().map(|e| fingerprint(e)).collect();
        let mut cursor = chains.cursor();
        while let Some((version, elf)) = cursor.next_version() {
            assert_eq!(version.prev_fp, last[version.chain], "chains link up");
            last[version.chain] = fingerprint(elf);
        }
    }
}
