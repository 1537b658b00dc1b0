//! # fetch-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper. Each `src/bin/*` binary reproduces one artifact (see DESIGN.md
//! §3 for the experiment index); this library holds the shared corpus
//! plumbing, the parallel [`BatchDriver`] every harness schedules its
//! corpus sweep on, paper reference numbers, and output helpers.
//!
//! All binaries accept:
//!
//! * `--paper` — full-scale corpus (1,352 binaries, full function counts);
//! * `--scale <N>` — keep one of every `N` binaries (default 8);
//! * `--funcs <F>` — function-count multiplier (default 0.35);
//! * `--jobs <N>` — batch-driver workers (default: available
//!   parallelism);
//! * `--pipeline <spec>` — a custom strategy stack as a `+`-separated
//!   layer list (`FDE+Rec+Xref`; see [`fetch_core::KNOWN_LAYERS`]),
//!   consumed by the `pipeline_run` harness for ad-hoc ablations.
//!   Unknown layer names are rejected with the full known-layer list.
//! * `--cache-capacity <N>` — entry bound of the serving
//!   [`fetch_core::AnalysisCache`] (LRU eviction past it), consumed by
//!   the serving harnesses (`serve_load`, `perf_snapshot`). Default:
//!   unbounded.
//!
//! Any other argument is an error naming it, unless the harness declares
//! it as one of its own flags (`fig5 --panel`, `serve_load --rounds` and
//! `--metrics-out`; see [`opts_from`]).
//!
//! **Determinism guarantee:** every harness output is byte-identical for
//! every `--jobs` value. The [`BatchDriver`] shards deterministically and
//! merges per-binary results in corpus index order, per-binary work is
//! pure, and the per-worker decode-cache reuse is observationally
//! invisible (enforced by `tests/batch_determinism.rs`,
//! `crates/bench/tests/proptest_batch.rs`, and the shared-engine property
//! test in `fetch-core`). `--jobs 1` is the serial reference; CI diffs a
//! parallel run against it on every push.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;

pub use batch::{BatchDriver, BatchError};

use fetch_binary::{write_elf, ElfImage, TestCase};
use fetch_synth::corpus::{
    dataset1_configs, dataset2_configs, synthesize_all, CorpusScale, WildProfile,
};

/// Harness options parsed from the command line.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Corpus scaling.
    pub scale: CorpusScale,
    /// Batch-driver worker count (`--jobs`; defaults to the machine's
    /// available parallelism).
    pub jobs: usize,
    /// A custom strategy stack (`--pipeline FDE+Rec+Xref`), parsed
    /// through [`fetch_core::Pipeline::parse`]. `None` when the harness
    /// should run its default stacks; the `pipeline_run` bin consumes
    /// it for ad-hoc ablations.
    pub pipeline: Option<fetch_core::Pipeline>,
    /// Entry bound of the serving cache (`--cache-capacity N`; `None` =
    /// unbounded), consumed by the serving harnesses.
    pub cache_capacity: Option<usize>,
    /// `(flag, value)` of every harness-local flag given, in
    /// command-line order (see [`opts_from`] and [`BenchOpts::local`]).
    pub local_flags: Vec<(String, String)>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            scale: CorpusScale {
                bin_divisor: 8,
                func_scale: 0.35,
            },
            jobs: default_jobs(),
            pipeline: None,
            cache_capacity: None,
            local_flags: Vec::new(),
        }
    }
}

impl BenchOpts {
    /// The last value given for the harness-local `flag`.
    pub fn local(&self, flag: &str) -> Option<&str> {
        self.local_flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }
}

/// The machine's available parallelism (1 when undetectable).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The largest accepted `--funcs` multiplier. The paper's full scale is
/// 1.0; anything past this bound would ask synthesis for billions of
/// functions (and `inf` would saturate the downstream `as usize` cast),
/// so it is a flag typo, not a workload.
pub const MAX_FUNC_SCALE: f64 = 1000.0;

/// Parses harness options from an argument slice (`args[0]` is the
/// program name). `local` names the harness's own flags, each taking one
/// value; their values land in [`BenchOpts::local_flags`]. Any other
/// argument the shared flags do not cover is rejected with an error
/// naming it, so a typo (`--job 4`) never runs silently with defaults.
/// Non-positive `--scale`, `--funcs`, or `--jobs` values are rejected
/// too — a zero scale would divide the corpus by zero downstream, a zero
/// worker count would deadlock a fixed-shard driver — as are non-finite
/// or implausibly large (> [`MAX_FUNC_SCALE`]) `--funcs` multipliers.
pub fn opts_from(args: &[String], local: &[&str]) -> Result<BenchOpts, String> {
    fn positive<T: std::str::FromStr + PartialOrd + Default>(
        flag: &str,
        value: Option<&String>,
        what: &str,
    ) -> Result<T, String> {
        let raw = value.ok_or_else(|| format!("{flag} takes {what}, got nothing"))?;
        let parsed: T = raw
            .parse()
            .map_err(|_| format!("{flag} takes {what}, got {raw:?}"))?;
        // partial_cmp so NaN (incomparable) is rejected along with <= 0.
        if parsed.partial_cmp(&T::default()) != Some(std::cmp::Ordering::Greater) {
            return Err(format!("{flag} takes {what}, got {raw:?}"));
        }
        Ok(parsed)
    }

    let mut opts = BenchOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--paper" => opts.scale = CorpusScale::paper(),
            "--scale" => {
                i += 1;
                opts.scale.bin_divisor = positive("--scale", args.get(i), "a positive integer")?;
            }
            "--funcs" => {
                i += 1;
                let what = "a positive number (at most 1000)";
                let scale: f64 = positive("--funcs", args.get(i), what)?;
                if !scale.is_finite() || scale > MAX_FUNC_SCALE {
                    return Err(format!("--funcs takes {what}, got {:?}", args[i]));
                }
                opts.scale.func_scale = scale;
            }
            "--jobs" => {
                i += 1;
                opts.jobs = positive("--jobs", args.get(i), "a positive integer")?;
            }
            "--cache-capacity" => {
                i += 1;
                opts.cache_capacity = Some(positive(
                    "--cache-capacity",
                    args.get(i),
                    "a positive integer",
                )?);
            }
            "--pipeline" => {
                i += 1;
                let spec = args.get(i).ok_or_else(|| {
                    "--pipeline takes a +-separated layer list (e.g. FDE+Rec+Xref), got nothing"
                        .to_string()
                })?;
                let pipeline =
                    fetch_core::Pipeline::parse(spec).map_err(|e| format!("--pipeline: {e}"))?;
                opts.pipeline = Some(pipeline);
            }
            flag if local.contains(&flag) => {
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("{flag} takes a value, got nothing"))?;
                opts.local_flags.push((flag.to_string(), value.clone()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Parses harness options from `std::env::args` (see [`opts_from`]),
/// exiting with a usage error on invalid or unknown arguments.
pub fn opts_from_args(local: &[&str]) -> BenchOpts {
    let args: Vec<String> = std::env::args().collect();
    opts_from(&args, local).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Re-materializes a synthesized case behind one shared ELF image: the
/// binary is serialized with [`write_elf`], parsed back through the
/// zero-copy [`ElfImage`] loader, and rebuilt as a [`fetch_binary::Binary`]
/// whose sections are all windows of that single resident buffer.
///
/// This is the ground-truth loader of the view-based pipeline: ELF
/// cannot carry build metadata or the display name, so both are restored
/// from the synthesized case alongside its [`fetch_binary::GroundTruth`].
/// Section contents, symbols, and the entry point round-trip exactly
/// (debug-asserted), so every harness output is byte-identical to the
/// owned path while the corpus keeps one copy of each image in memory —
/// shared, not duplicated, across [`BatchDriver`] workers.
pub fn case_through_elf(case: TestCase) -> TestCase {
    let image = ElfImage::parse(write_elf(&case.binary)).expect("write_elf output parses");
    debug_assert_eq!(image.load_stats().section_bytes_copied, 0);
    let mut binary = image.to_binary();
    binary.name = case.binary.name;
    binary.info = case.binary.info;
    debug_assert_eq!(binary.sections, case.binary.sections);
    debug_assert_eq!(binary.symbols, case.binary.symbols);
    debug_assert_eq!(binary.entry, case.binary.entry);
    TestCase {
        binary,
        truth: case.truth,
    }
}

/// Materializes Dataset 2 (the self-built corpus of Table II), loaded
/// through the zero-copy ELF view path (see [`case_through_elf`]).
pub fn dataset2(opts: &BenchOpts) -> Vec<TestCase> {
    let configs = dataset2_configs(&opts.scale);
    synthesize_all(&configs)
        .into_iter()
        .map(case_through_elf)
        .collect()
}

/// Materializes Dataset 1 (the wild corpus of Table I), loaded through
/// the zero-copy ELF view path (see [`case_through_elf`]).
pub fn dataset1(opts: &BenchOpts) -> Vec<(&'static WildProfile, TestCase)> {
    dataset1_configs(&opts.scale)
        .into_iter()
        .map(|(w, cfg)| (w, case_through_elf(fetch_synth::synthesize(&cfg))))
        .collect()
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Prints a "paper reports vs. we measure" comparison line.
pub fn compare_line(what: &str, paper: &str, measured: &str) {
    println!("  {what:<44} paper: {paper:>12}   measured: {measured:>12}");
}

/// Reference numbers from the paper, for side-by-side printing.
pub mod paper {
    /// §IV-B: ground-truth function starts in Dataset 2.
    pub const GT_FUNCS: u64 = 1_105_278;
    /// §IV-B: starts covered by FDEs alone.
    pub const FDE_COVERED: u64 = 1_103_832;
    /// §IV-B: binaries where FDEs miss at least one start.
    pub const FDE_MISS_BINARIES: u64 = 33;
    /// §IV-B: assembly functions among the FDE misses.
    pub const FDE_MISSES_ASSEMBLY: u64 = 1_330;
    /// §IV-B: total FDE misses.
    pub const FDE_MISSES: u64 = 1_446;
    /// §IV-E: starts added by pointer detection.
    pub const XREF_ADDED: u64 = 154;
    /// §IV-E: remaining misses after FDE+Rec+Xref.
    pub const XREF_REMAINING: u64 = 414;
    /// §IV-E: unreachable assembly among the remaining misses.
    pub const XREF_REMAINING_UNREACHABLE: u64 = 160;
    /// §IV-E: tail-call-only functions among the remaining misses.
    pub const XREF_REMAINING_TAILONLY: u64 = 254;
    /// §V-A: FDE-introduced false positives.
    pub const FDE_FPS: u64 = 34_772;
    /// §V-A: binaries with FDE false positives.
    pub const FDE_FP_BINARIES: u64 = 488;
    /// §V-A: FDE false positives from non-contiguous functions.
    pub const FDE_FPS_NONCONTIG: u64 = 34_769;
    /// §V-A: hand-written mislabeled FDEs.
    pub const FDE_FPS_HANDWRITTEN: u64 = 3;
    /// §V-A: ROP gadgets at FDE false starts.
    pub const ROP_GADGETS: u64 = 99_932;
    /// §V-C: false positives remaining after Algorithm 1.
    pub const FPS_AFTER_FIX: u64 = 2_659;
    /// §V-C: full-accuracy binaries before Algorithm 1.
    pub const FULL_ACCURACY_BEFORE: u64 = 864;
    /// §V-C: full-accuracy binaries after Algorithm 1.
    pub const FULL_ACCURACY_AFTER: u64 = 1_222;
    /// §V-C: new false negatives introduced by merging.
    pub const FIX_NEW_FNS: u64 = 161;
    /// Figure 5a reference series (GHIDRA stacks):
    /// (label, full coverage, full accuracy) of 1,352 binaries.
    pub const FIG5A: [(&str, u64, u64); 5] = [
        ("FDE", 1319, 864),
        ("FDE+Rec+CFR", 1274, 810),
        ("FDE+Rec", 1346, 830),
        ("FDE+Rec+Fsig", 1346, 830),
        ("FDE+Rec+Tcall", 1346, 830),
    ];
    /// Figure 5b reference series (ANGR stacks) of 1,343 binaries.
    pub const FIG5B: [(&str, u64, u64); 6] = [
        ("FDE", 1310, 864),
        ("FDE+Rec+Fmerg", 1303, 845),
        ("FDE+Rec", 1337, 845),
        ("FDE+Rec+Fsig", 1337, 13),
        ("FDE+Rec+Scan", 1337, 0),
        ("FDE+Rec+Tcall", 1337, 697),
    ];
    /// Figure 5c reference series (optimal stacks) of 1,352 binaries.
    pub const FIG5C: [(&str, u64, u64); 4] = [
        ("FDE", 1319, 864),
        ("FDE+Rec", 1346, 864),
        ("FDE+Rec+Xref", 1346, 864),
        ("FDE+Rec+Xref+Tcall", 1334, 1222),
    ];
    /// Table III averages: (tool, FP thousands, FN thousands).
    pub const TABLE3_AVG: [(&str, f64, f64); 9] = [
        ("DYNINST", 11.29, 84.88),
        ("BAP", 132.48, 90.65),
        ("RADARE2", 3.63, 95.71),
        ("NUCLEUS", 21.92, 20.58),
        ("IDA PRO", 1.81, 36.17),
        ("BINARY NINJA", 40.07, 10.32),
        ("GHIDRA", 34.37, 5.23),
        ("ANGR", 52.73, 0.19),
        ("FETCH", 0.67, 0.11),
    ];
    /// Table IV averages: (analysis, full precision, full recall,
    /// jump-site precision, jump-site recall).
    pub const TABLE4_AVG: [(&str, f64, f64, f64, f64); 2] = [
        ("ANGR", 94.07, 97.71, 98.72, 96.40),
        ("DYNINST", 94.81, 98.27, 98.67, 99.35),
    ];
    /// Table V: average seconds per binary.
    pub const TABLE5: [(&str, f64); 9] = [
        ("DYNINST", 2.8),
        ("BAP", 114.2),
        ("RADARE2", 34.9),
        ("NUCLEUS", 3.1),
        ("GHIDRA", 40.4),
        ("ANGR", 78.5),
        ("IDA PRO", 10.3),
        ("BINARY NINJA", 20.4),
        ("FETCH", 3.3),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_with(extra: &[&str], local: &[&str]) -> Result<BenchOpts, String> {
        let mut args = vec!["bench".to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        opts_from(&args, local)
    }

    fn parse(extra: &[&str]) -> Result<BenchOpts, String> {
        parse_with(extra, &[])
    }

    #[test]
    fn defaults_parse_from_empty_args() {
        let opts = parse(&[]).expect("defaults are valid");
        assert_eq!(opts.scale.bin_divisor, 8);
        assert!((opts.scale.func_scale - 0.35).abs() < 1e-9);
        assert!(opts.jobs >= 1);
    }

    #[test]
    fn flags_override_defaults() {
        let opts = parse(&["--scale", "3", "--funcs", "0.5", "--jobs", "7"]).unwrap();
        assert_eq!(opts.scale.bin_divisor, 3);
        assert!((opts.scale.func_scale - 0.5).abs() < 1e-9);
        assert_eq!(opts.jobs, 7);
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        // A removed flag, a typo, and a stray value are each named.
        for (bad, named) in [
            (vec!["--intra-jobs", "4"], "\"--intra-jobs\""),
            (vec!["--job", "4"], "\"--job\""),
            (vec!["--jobs", "2", "4"], "\"4\""),
            (vec!["4"], "\"4\""),
        ] {
            let err = parse(&bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains(named), "{err}");
        }
    }

    #[test]
    fn cache_capacity_parses_and_rejects_non_positive() {
        assert_eq!(parse(&[]).unwrap().cache_capacity, None);
        let opts = parse(&["--cache-capacity", "64"]).unwrap();
        assert_eq!(opts.cache_capacity, Some(64));
        for bad in [
            vec!["--cache-capacity", "0"],
            vec!["--cache-capacity", "-4"],
            vec!["--cache-capacity", "many"],
            vec!["--cache-capacity"],
        ] {
            let err = parse(&bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("--cache-capacity"), "{err}");
        }
    }

    #[test]
    fn paper_flag_selects_full_scale() {
        let opts = parse(&["--paper"]).unwrap();
        assert_eq!(opts.scale.bin_divisor, CorpusScale::paper().bin_divisor);
    }

    #[test]
    fn non_positive_values_are_rejected() {
        // --scale 0 used to parse and divide the corpus by zero later.
        for bad in [
            vec!["--scale", "0"],
            vec!["--scale", "-2"],
            vec!["--scale", "x"],
            vec!["--funcs", "0"],
            vec!["--funcs", "-0.5"],
            vec!["--funcs", "NaN"],
            vec!["--funcs", "inf"],
            vec!["--funcs", "1e30"],
            vec!["--jobs", "0"],
            vec!["--jobs", "-1"],
            vec!["--scale"],
        ] {
            let err = parse(&bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains(bad[0]), "{err}");
        }
    }

    #[test]
    fn declared_harness_flags_are_accepted() {
        // A harness-local flag passes only where the harness declares
        // it, and its value is handed back.
        let err = parse(&["--panel", "b", "--jobs", "2"]).expect_err("undeclared");
        assert!(err.contains("\"--panel\""), "{err}");
        let opts = parse_with(&["--panel", "b", "--jobs", "2"], &["--panel"]).unwrap();
        assert_eq!(opts.jobs, 2);
        assert_eq!(opts.local("--panel"), Some("b"));
        assert_eq!(opts.local("--rounds"), None);
        let err = parse_with(&["--panel"], &["--panel"]).expect_err("missing value");
        assert!(err.contains("--panel takes a value"), "{err}");
    }

    #[test]
    fn pipeline_flag_parses_layer_lists() {
        let opts = parse(&["--pipeline", "FDE+Rec+Xref"]).unwrap();
        let p = opts.pipeline.expect("pipeline set");
        assert_eq!(p.id(), "FDE+Rec+Xref");
        // Case-insensitive, like the underlying parser.
        let opts = parse(&["--pipeline", "fde+tcallfix"]).unwrap();
        assert_eq!(opts.pipeline.unwrap().id(), "FDE+TcallFix");
        assert!(parse(&[]).unwrap().pipeline.is_none());
    }

    #[test]
    fn pipeline_flag_rejects_unknown_layers_helpfully() {
        let err = parse(&["--pipeline", "FDE+Bogus"]).expect_err("unknown layer");
        assert!(err.contains("--pipeline"), "{err}");
        assert!(err.contains("\"Bogus\""), "{err}");
        // The error teaches the vocabulary: every known token is listed.
        for (token, _) in fetch_core::KNOWN_LAYERS {
            assert!(err.contains(token), "error must list {token}: {err}");
        }
        let err = parse(&["--pipeline", "+"]).expect_err("empty list");
        assert!(err.contains("empty pipeline"), "{err}");
        let err = parse(&["--pipeline"]).expect_err("missing value");
        assert!(err.contains("got nothing"), "{err}");
    }
}
