//! Machine-readable performance snapshot of the full FETCH pipeline.
//!
//! Runs the declarative [`Pipeline::fetch`] stack over three fixed
//! synthetic corpora (small / medium / large) and writes
//! `BENCH_pipeline.json` with wall time per stage (straight from the
//! executor's [`fetch_core::LayerTrace`]s — the same instrumentation
//! every harness gets for free), decoded-instructions-per-second
//! throughput, and the peak start count — so the performance trajectory
//! is tracked, commit-over-commit, from the PR that introduced the dense
//! instruction store and the incremental recursion engine onward.
//!
//! Eight further groups:
//!
//! * `scaling` — the full pipeline over the large corpus once more: its
//!   per-layer walls, the large total asserted under the 10 ms budget,
//!   and the small/medium/large `insts_per_sec` curve with its flatness
//!   ratio (min/max), asserted ≥ 0.40. The floor is machine-tolerant:
//!   on a single-core host the small corpus is cache-resident while the
//!   large one is not, so the curve bends at the L2 cliff no matter how
//!   the work is scheduled.
//!
//! * `layer_breakdown` — the per-layer trace of the large corpus run:
//!   wall time, starts added/removed, and decode work per layer; beside
//!   it, `rec_work`, the recursion engine's work counters over the same
//!   run (asserted: one full walk) and, published only, over one run on
//!   the same binary stripped (`rec_work.stripped`, where no `error`
//!   symbol is left to slice at), and `derived_work`, the state's
//!   whole-binary index builds and the classifier's status slices
//!   (asserted: one extents build, no full xref index build), and
//!   `facts_work`, the `.eh_frame` parses and frame-table builds of the
//!   run plus the image digest over the same
//!   [`fetch_core::BinaryFacts`] (asserted: one parse).
//! * `rec_probe` — the yardstick of the `Rec` layer on the same large
//!   binary: a linear sweep of `.text` ([`sweep_tolerant`]) and a
//!   recursive walk from the FDE seeds ([`recursive_disassemble`], default
//!   [`RecOptions`]), each in ns per instruction it yields (best over the
//!   reps), with both instruction counts and the walk/sweep ratio.
//!   Published, not asserted.
//! * `elf_load` — the one ELF loader, [`ElfImage::parse`] plus
//!   [`ElfImage::to_binary`], on the stripped large binary (the loaded
//!   sections are asserted byte-identical to the synthesized ones and
//!   windows of one shared buffer).
//! * `serve` — the `fetch-serve` daemon core driven over the corpus
//!   image: cold submit vs bounded-cache hit vs post-restart persistent
//!   store hit (cache-hit ≥ 10× cold asserted; one ELF parse and one
//!   `.eh_frame` parse per cold submit and no ELF parse on a cache or
//!   store hit asserted; the store answer is asserted `==` the cold
//!   result), `cache_hit_symbols_us`: a cache hit on the same binary with
//!   its symbols kept (the shape of daemonbench's warm_repeat; published
//!   only), `cold_vs_bare`: the median over the reps of the cold
//!   submit over the bare pipeline on the same binary, the two run back
//!   to back in each rep (asserted ≤ 1.1; the best of each is published
//!   beside it), plus the `concurrency` subgroup —
//!   warm p50/p95 latency vs client count against one shared service,
//!   and the coalescing guarantee (8 concurrent submits of one uncached
//!   image → exactly 1 cold compute, asserted, every reply identical),
//!   plus `reply_render_us`: the p50 of rendering the large-corpus
//!   analyze reply to its protocol line (`Reply::to_line_with`), and
//!   the footprint of one cache entry, published only:
//!   `cache_entry_bytes` (the cache's bytes after the warm service's one
//!   cold submit, result plus digest) beside `result_bytes` (that
//!   result's `approx_bytes`).
//! * `delta` — versioned re-analysis on the large corpus binary: a
//!   one-function neutral patch answered through
//!   [`fetch_core::run_delta`]'s section-reuse tier vs a cold run
//!   (delta p50 ≥ 8× faster than cold p50 asserted, result
//!   byte-identity asserted), plus the recompute tier on a behavioral
//!   patch, and the patched version's digest computed in full vs
//!   through [`ImageDigest::compute_from`] the predecessor's (asserted
//!   equal).
//! * `obs` — the observability layer's own cost: the large corpus
//!   analyzed through the fully instrumented serve answer path
//!   (counters, latency histograms, layer-wall recording all
//!   live), with the instrumented per-layer total asserted under the
//!   same 10 ms budget as the `scaling` group and the overhead vs the
//!   bare pipeline published as the median of per-rep paired
//!   differences (bare and instrumented run back to back in each rep);
//!   plus the micro-costs of one histogram observation and of one full
//!   registry snapshot + text exposition.
//! * `batch_serial` / `batch_parallel` — the [`BatchDriver`] sweeping
//!   the default Dataset 2 corpus, one worker vs all of them. The two
//!   produce byte-identical results — the snapshot asserts it — so the
//!   speedup column is a pure scheduling win.
//!
//! Usage: `cargo run --release -p fetch-bench --bin perf_snapshot`
//! (pass `--out <path>` to redirect; pass `--reps <n>` for more timing
//! repetitions — the recorded value per stage is the minimum; pass
//! `--jobs <n>` to pin the parallel sweep's worker count, default: the
//! machine's available parallelism). Any other argument, a flag without
//! its value, or a bad value exits with status 2 and a message naming
//! it.

use fetch_bench::{dataset2, default_jobs, BatchDriver, BenchOpts};
use fetch_binary::{write_elf, ElfImage};
use fetch_core::{
    image_fingerprint, run_delta, BinaryFacts, DeltaClass, DerivedWorkStats, DetectionState,
    ImageDigest, LayerTrace, Pipeline,
};
use fetch_disasm::{recursive_disassemble, sweep_tolerant, RecEngine, RecOptions, RecWorkStats};
use fetch_synth::{patch_function, synthesize, PatchKind, SynthConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct PipelineRun {
    trace: Vec<LayerTrace>,
    work: RecWorkStats,
    derived: DerivedWorkStats,
    /// The run's binary-pure facts, for a digest that shares them.
    facts: Arc<BinaryFacts>,
    insts: usize,
    detected: usize,
    peak_starts: usize,
}

fn run_once(bin: &fetch_binary::Binary) -> PipelineRun {
    let mut st = DetectionState::new(bin);
    Pipeline::fetch().apply(&mut st);
    let insts = st.rec().disasm.len();
    let detected = st.starts().len();
    let peak_starts = st
        .trace
        .iter()
        .map(|t| t.starts_after)
        .max()
        .unwrap_or(0)
        .max(detected);
    PipelineRun {
        trace: std::mem::take(&mut st.trace),
        work: st.engine_work_stats(),
        derived: st.derived_work_stats(),
        facts: Arc::clone(st.facts()),
        insts,
        detected,
        peak_starts,
    }
}

/// The asserted floor of the `insts_per_sec` curve's min/max ratio.
const FLATNESS_FLOOR: f64 = 0.40;

fn total_us(run: &PipelineRun) -> f64 {
    run.trace.iter().map(|t| t.wall_us()).sum()
}

/// The harness's options (see the module docs for each flag).
#[derive(Debug)]
struct SnapshotArgs {
    out_path: String,
    reps: usize,
    jobs: usize,
}

/// Parses the harness's arguments (`args[0]` is the program name). An
/// unknown argument, a flag without its value, and a bad value are each
/// an error naming it, as in [`fetch_bench::opts_from`].
fn parse_args(args: &[String]) -> Result<SnapshotArgs, String> {
    fn positive(flag: &str, raw: Option<&String>) -> Result<usize, String> {
        let raw = raw.ok_or_else(|| format!("{flag} takes a positive integer, got nothing"))?;
        raw.parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("{flag} takes a positive integer, got {raw:?}"))
    }

    let mut parsed = SnapshotArgs {
        out_path: "BENCH_pipeline.json".to_string(),
        reps: 5,
        jobs: default_jobs(),
    };
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--out" => {
                parsed.out_path = rest
                    .next()
                    .ok_or("--out takes a path, got nothing")?
                    .clone()
            }
            "--reps" => parsed.reps = positive(flag, rest.next())?,
            "--jobs" => parsed.jobs = positive(flag, rest.next())?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let SnapshotArgs {
        out_path,
        reps,
        jobs,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let corpora: [(&str, u64, usize); 3] = [
        ("small", 9001, 60),
        ("medium", 9002, 250),
        ("large", 9003, 900),
    ];

    let mut large_best: Option<PipelineRun> = None;
    let mut large_binary = None;
    let mut ips_curve: Vec<(&str, f64)> = Vec::new();
    let mut json =
        String::from("{\n  \"schema\": \"fetch-perf-snapshot/v12\",\n  \"corpora\": [\n");
    for (ci, (name, seed, n_funcs)) in corpora.iter().enumerate() {
        let mut cfg = SynthConfig::small(*seed);
        cfg.n_funcs = *n_funcs;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = n_funcs / 20;
        cfg.rates.error_calls = 0.10;
        let case = synthesize(&cfg);

        // Minimum total over `reps` repetitions; the per-stage walls are
        // the winning run's trace.
        let mut best: Option<PipelineRun> = None;
        for _ in 0..reps {
            let run = run_once(&case.binary);
            if best.as_ref().is_none_or(|b| total_us(&run) < total_us(b)) {
                best = Some(run);
            }
        }
        let s = best.expect("reps >= 1");
        let stage = |ix: usize| s.trace[ix].wall_us();
        let total = total_us(&s);
        let insts_per_sec = s.insts as f64 / ((stage(1) + stage(2)).max(1.0) / 1e6);

        let _ = write!(
            json,
            "    {{\n      \"name\": \"{name}\",\n      \"functions\": {n_funcs},\n      \
             \"decoded_insts\": {},\n      \"detected_starts\": {},\n      \
             \"peak_starts\": {},\n      \"stage_wall_us\": {{\n        \
             \"fde\": {:.1},\n        \"rec\": {:.1},\n        \"xref\": {:.1},\n        \
             \"repair\": {:.1},\n        \"total\": {:.1}\n      }},\n      \
             \"insts_per_sec\": {:.0}\n    }}{}\n",
            s.insts,
            s.detected,
            s.peak_starts,
            stage(0),
            stage(1),
            stage(2),
            stage(3),
            total,
            insts_per_sec,
            if ci + 1 < corpora.len() { "," } else { "" },
        );
        println!(
            "{name:>6}: {n_funcs} funcs, {} insts, total {:.1} µs ({:.2} M insts/s)",
            s.insts,
            total,
            insts_per_sec / 1e6
        );
        ips_curve.push((name, insts_per_sec));
        if *name == "large" {
            // A cold request digests the image it analyzed: over the
            // run's own facts, the digest reuses its `.eh_frame` parse.
            ImageDigest::compute_with_facts(None, &case.binary, &s.facts, 0);
            large_best = Some(s);
            large_binary = Some(case.binary);
        }
    }
    json.push_str("  ],\n");

    // Layer-breakdown group: the large corpus run's per-layer trace —
    // what each layer of the optimal stack costs and contributes. This
    // is the executor's own instrumentation, not bespoke staging code.
    {
        let s = large_best.as_ref().expect("large corpus ran");
        json.push_str("  \"layer_breakdown\": [\n");
        for (ti, t) in s.trace.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{ \"layer\": \"{}\", \"wall_us\": {:.1}, \"starts_added\": {}, \
                 \"starts_removed\": {}, \"starts_after\": {}, \"decode_misses\": {}, \
                 \"decode_hits\": {}, \"bytes_scanned\": {}, \"candidates_checked\": {} }}{}",
                t.name,
                t.wall_us(),
                t.added.len(),
                t.removed.len(),
                t.starts_after,
                t.decode_misses,
                t.decode_hits,
                t.bytes_scanned,
                t.candidates_checked,
                if ti + 1 < s.trace.len() { "," } else { "" },
            );
            println!(
                "  layer {:>8}: {:>9.1} µs, +{} -{} starts, {} fresh decodes",
                t.name,
                t.wall_us(),
                t.added.len(),
                t.removed.len(),
                t.decode_misses
            );
        }
        json.push_str("  ],\n");
        // The recursion engine's work over the same run. Host-independent:
        // a cold run walks the binary once; every later recursion extends
        // or prunes that walk in place. Beside it, one run on the same
        // binary stripped, published only.
        let w = s.work;
        let stripped = run_once(&large_binary.as_ref().expect("large corpus ran").stripped()).work;
        let fields = |w: &RecWorkStats| {
            format!(
                "\"full_walks\": {}, \"extension_walks\": {}, \"pruned_rounds\": {}, \
                 \"fallback_walks\": {}, \"classify_rounds\": {}, \
                 \"functions_classified\": {}, \"cap_hits\": {}",
                w.full_walks,
                w.extension_walks,
                w.pruned_rounds,
                w.fallback_walks,
                w.classify_rounds,
                w.functions_classified,
                w.cap_hits,
            )
        };
        let _ = writeln!(
            json,
            "  \"rec_work\": {{ {}, \"stripped\": {{ {} }} }},",
            fields(&w),
            fields(&stripped),
        );
        for (label, w) in [("", &w), (" (stripped)", &stripped)] {
            println!(
                "  rec work{label}: {} full walks, {} extensions, {} pruned rounds, \
                 {} fallbacks, {} classify rounds ({} functions), {} cap hits",
                w.full_walks,
                w.extension_walks,
                w.pruned_rounds,
                w.fallback_walks,
                w.classify_rounds,
                w.functions_classified,
                w.cap_hits,
            );
        }
        assert_eq!(
            w.full_walks, 1,
            "a cold large-corpus run must walk the binary exactly once: {w:?}"
        );
        // Derived work, host-independent too: the run builds function
        // extents once (for `TcallFix`) and never the full reference
        // index; classification slices only at `error` calls.
        let d = s.derived;
        let _ = writeln!(
            json,
            "  \"derived_work\": {{ \"extents_builds\": {}, \"xref_index_builds\": {}, \
             \"status_slices\": {} }},",
            d.extents_builds, d.xref_index_builds, w.status_slices,
        );
        println!(
            "  derived work: {} extents builds, {} full xref index builds, {} status slices",
            d.extents_builds, d.xref_index_builds, w.status_slices,
        );
        assert_eq!(
            (d.extents_builds, d.xref_index_builds),
            (1, 0),
            "a cold large-corpus run must build extents once and no full xref index: {d:?}"
        );
        // Binary-pure facts: FDE seeding, `TcallFix`'s frame table and
        // the digest share one `.eh_frame` parse.
        let f = s.facts.work();
        let _ = writeln!(
            json,
            "  \"facts_work\": {{ \"eh_frame_parses\": {}, \"frame_table_builds\": {} }},",
            f.eh_parses, f.frame_table_builds,
        );
        println!(
            "  facts work: {} .eh_frame parses, {} frame table builds (pipeline + digest)",
            f.eh_parses, f.frame_table_builds,
        );
        assert_eq!(
            f.eh_parses, 1,
            "a cold large-corpus run and its digest must parse .eh_frame once: {f:?}"
        );
    }

    // Rec probe: the recursive walk beside a plain linear decode of the
    // same `.text`, per instruction each yields — how far `Rec` is from
    // the decode cost it cannot go below. Published, not asserted.
    {
        let bin = large_binary.as_ref().expect("large corpus ran");
        let text = bin.text();
        let seeds: BTreeSet<u64> = bin
            .eh_frame()
            .expect("the large corpus parses")
            .pc_begins()
            .into_iter()
            .collect();
        let opts = RecOptions::default();
        let (mut sweep_ns, mut walk_ns) = (f64::INFINITY, f64::INFINITY);
        let (mut swept, mut walked) = (0, 0);
        for _ in 0..reps {
            let t = Instant::now();
            swept = std::hint::black_box(sweep_tolerant(&text.bytes, text.addr)).len();
            sweep_ns = sweep_ns.min(t.elapsed().as_secs_f64() * 1e9);
            let t = Instant::now();
            walked = std::hint::black_box(recursive_disassemble(bin, &seeds, &opts))
                .disasm
                .len();
            walk_ns = walk_ns.min(t.elapsed().as_secs_f64() * 1e9);
        }
        let sweep_per_inst = sweep_ns / swept.max(1) as f64;
        let walk_per_inst = walk_ns / walked.max(1) as f64;
        let ratio = walk_per_inst / sweep_per_inst.max(1e-9);
        let _ = writeln!(
            json,
            "  \"rec_probe\": {{ \"corpus\": \"large\", \"linear_sweep_insts\": {swept}, \
             \"linear_sweep_ns_per_inst\": {sweep_per_inst:.1}, \"rec_walk_insts\": {walked}, \
             \"rec_walk_ns_per_inst\": {walk_per_inst:.1}, \"ratio\": {ratio:.2} }},"
        );
        println!(
            "  rec probe: linear sweep {sweep_per_inst:.1} ns/inst ({swept} insts), \
             recursive walk {walk_per_inst:.1} ns/inst ({walked} insts), {ratio:.2}x"
        );
    }

    // Scaling group: the same full pipeline over the large corpus once
    // more. The large total must fit the 10 ms budget. The
    // `insts_per_sec` curve (denominator: Rec + Xref, the layers that
    // scale with code size) is published with its flatness ratio; the
    // asserted floor is machine-tolerant because on few-core hosts the
    // small corpus runs L2-resident while the large one does not — a
    // cache cliff no schedule flattens.
    {
        let mut cfg = SynthConfig::small(9003);
        cfg.n_funcs = 900;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = 45;
        cfg.rates.error_calls = 0.10;
        let case = synthesize(&cfg);

        let mut best: Option<PipelineRun> = None;
        for _ in 0..reps {
            let run = run_once(&case.binary);
            if best.as_ref().is_none_or(|b| total_us(&run) < total_us(b)) {
                best = Some(run);
            }
        }
        let run = best.expect("reps >= 1");
        let run_total = total_us(&run);
        // The budget gate is min-over-every-large-run in this process
        // (the corpora loop's best plus this group's): the metric of
        // record is the machine's capability, and single runs on a
        // shared host routinely inflate 10-40% in noise phases.
        let best_large_total =
            total_us(large_best.as_ref().expect("large corpus ran")).min(run_total);
        assert!(
            best_large_total < 10_000.0,
            "large corpus must analyze in under 10 ms \
             (best over all runs: {best_large_total:.1} µs)"
        );

        let ips_of = |n: &str| {
            ips_curve
                .iter()
                .find(|(name, _)| *name == n)
                .map(|&(_, v)| v)
                .expect("corpus measured")
        };
        let (ips_s, ips_m, ips_l) = (ips_of("small"), ips_of("medium"), ips_of("large"));
        let flatness = [ips_s, ips_m, ips_l]
            .into_iter()
            .fold(f64::INFINITY, f64::min)
            / [ips_s, ips_m, ips_l].into_iter().fold(0.0, f64::max);
        assert!(
            flatness >= FLATNESS_FLOOR,
            "insts_per_sec curve collapsed: min/max {flatness:.2} < floor {FLATNESS_FLOOR:.2} \
             (small {ips_s:.0}, medium {ips_m:.0}, large {ips_l:.0})"
        );

        let stage = |ix: usize| run.trace[ix].wall_us();
        let _ = write!(
            json,
            "  \"scaling\": {{\n    \"corpus\": \"large\",\n    \
             \"stage_wall_us\": {{ \"fde\": {:.1}, \"rec\": {:.1}, \"xref\": {:.1}, \
             \"repair\": {:.1}, \"total\": {run_total:.1} }},\n    \
             \"budget_us\": 10000.0,\n    \"best_total_us\": {best_large_total:.1},\n    \
             \"insts_per_sec\": {{ \"small\": {ips_s:.0}, \"medium\": {ips_m:.0}, \
             \"large\": {ips_l:.0} }},\n    \
             \"flatness\": {flatness:.3},\n    \"flatness_bound\": {FLATNESS_FLOOR:.2}\n  }},\n",
            stage(0),
            stage(1),
            stage(2),
            stage(3),
        );
        println!(
            " scaling: large total {run_total:.1} µs (best {best_large_total:.1} µs); \
             ips flatness {flatness:.2} (floor {FLATNESS_FLOOR:.2})"
        );
    }

    // ELF-load group: the one loader, `ElfImage::parse` + `to_binary`
    // (sections as windows of one shared buffer). Measured on the
    // stripped large binary — the motivating workload is a huge stripped
    // image whose bodies dominate the file.
    let (large_image, symbols_elf) = {
        let mut cfg = SynthConfig::small(9003);
        cfg.n_funcs = 900;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = 45;
        let case = synthesize(&cfg);
        let stripped = case.binary.stripped();
        let elf = write_elf(&stripped);

        let mut load_us = f64::INFINITY;
        for _ in 0..reps {
            // The clone stands in for ownership transfer of an already
            // resident buffer — keep it out of the timed region.
            let buf = elf.clone();
            let t = Instant::now();
            let image = ElfImage::parse(buf).expect("own ELF parses");
            let loaded = image.to_binary();
            load_us = load_us.min(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                loaded.sections, stripped.sections,
                "the loader must load byte-identical sections"
            );
            assert!(
                loaded.sections.windows(2).all(|p| p[0].shares_image(&p[1])),
                "the loader copied a section body"
            );
        }
        let section_bytes: usize = stripped.sections.iter().map(|s| s.bytes.len()).sum();
        let _ = write!(
            json,
            "  \"elf_load\": {{\n    \"image_bytes\": {},\n    \
             \"section_bytes\": {section_bytes},\n    \
             \"wall_us\": {load_us:.1}\n  }},\n",
            elf.len(),
        );
        println!(
            "  load: {} KiB image — {load_us:.1} µs (sections share the image)",
            elf.len() / 1024,
        );
        (
            ElfImage::parse(elf).expect("own ELF parses"),
            write_elf(&case.binary),
        )
    };

    // Serve group: the fetch-serve daemon core driven in-process over
    // the large corpus image, without the socket hop, so the numbers
    // are scheduling-noise-free. Three latencies: a cold submit (fresh
    // service, fresh store), a bounded-cache hit (same service again),
    // and a persisted-warm hit (new service over the same store
    // directory — the restart shape). The cache-hit bar is the serving
    // acceptance criterion; the store answer must equal the cold run.
    {
        use fetch_serve::protocol::{AnalyzeInput, Reply, Request, ServeSource, StatsCounter};
        use fetch_serve::service::{AnalysisService, ServeConfig};

        let base =
            std::env::temp_dir().join(format!("fetch-serve-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let elf_bytes = large_image.bytes().to_vec();
        let submit_elf = |service: &AnalysisService, elf: &[u8]| {
            let t = Instant::now();
            let reply = service.handle(Request::Analyze {
                input: AnalyzeInput::Bytes(elf.to_vec()),
                pipeline: Pipeline::fetch(),
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            match reply {
                Reply::Analyze(a) => (us, a.source, a.result),
                other => panic!("serve group: unexpected reply {other:?}"),
            }
        };
        let submit = |service: &AnalysisService| submit_elf(service, &elf_bytes);
        let config_for = |dir: &std::path::Path| ServeConfig {
            store_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        };

        // Cold: a fresh service over a fresh store each rep. Its leader
        // parses the ELF once (a warm answer parses nothing) and shares
        // one `.eh_frame` parse between the pipeline and the digest the
        // side worker builds beside it.
        let counter = |service: &AnalysisService, name: &str| {
            service
                .registry()
                .snapshot()
                .entries
                .iter()
                .find(|(metric, _)| metric == name)
                .map(|(_, v)| match v {
                    fetch_obs::MetricValue::Counter(n) => *n,
                    other => panic!("{name} is a counter: {other:?}"),
                })
                .unwrap_or_else(|| panic!("the service exports {name}"))
        };
        let eh_parses = |service: &AnalysisService| counter(service, "fetch_eh_frame_parses_total");
        let elf_parses = |service: &AnalysisService| counter(service, "fetch_elf_parses_total");
        // Each rep also runs the bare pipeline on the same binary, next
        // to the cold submit: both halves of a pair see the same host
        // phase, and `cold_vs_bare` is the median of the per-rep ratios.
        let bare_binary = large_image.to_binary();
        let bare = || total_us(&run_once(&bare_binary));
        let (mut cold_us, mut bare_us) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        let mut cold_result = None;
        let (mut cold_eh_parses, mut cold_elf_parses) = (0, 0);
        for rep in 0..reps {
            // Alternate which half runs first, as the obs group does.
            let bare_first = rep % 2 == 0;
            let bare_rep = if bare_first { bare() } else { 0.0 };
            let dir = base.join(format!("cold-{rep}"));
            let service = AnalysisService::new(&config_for(&dir)).expect("service");
            let (us, source, result) = submit(&service);
            assert_eq!(source, ServeSource::Cold);
            cold_eh_parses = eh_parses(&service);
            assert_eq!(
                cold_eh_parses, 1,
                "a cold submit must parse .eh_frame exactly once"
            );
            cold_elf_parses = elf_parses(&service);
            assert_eq!(
                cold_elf_parses, 1,
                "a cold submit must parse its ELF exactly once"
            );
            // Dropping the service drains its store save, so a bare half
            // that runs second does not share the host with it.
            drop(service);
            let bare_rep = if bare_first { bare_rep } else { bare() };
            cold_us = cold_us.min(us);
            bare_us = bare_us.min(bare_rep);
            ratios.push(us / bare_rep.max(1e-9));
            cold_result = Some(result);
        }
        let cold_result = cold_result.expect("reps >= 1");
        // The frame table and digest run beside the pipeline and the
        // save lands after the reply, so the service adds little on top
        // of the pipeline.
        ratios.sort_by(f64::total_cmp);
        let cold_vs_bare = ratios[ratios.len() / 2];
        assert!(
            cold_vs_bare <= 1.1,
            "a large cold submit must take at most 1.1x the bare pipeline on the same binary \
             (median of {reps} paired ratios {cold_vs_bare:.2}x; best cold {cold_us:.1} µs, \
             best bare {bare_us:.1} µs)"
        );

        // Cache hit: one service, second submit.
        let warm_dir = base.join("warm");
        let warm_service = AnalysisService::new(&config_for(&warm_dir)).expect("service");
        let (_, source, result) = submit(&warm_service);
        assert_eq!(source, ServeSource::Cold);
        // One entry's footprint: the cache's bytes after the one cold
        // submit (result plus digest) beside the result's own.
        let cache_entry_bytes = warm_service.stats().cache.bytes;
        let result_bytes = result.approx_bytes();
        let mut cache_us = f64::INFINITY;
        for _ in 0..reps.max(3) {
            let (us, source, result) = submit(&warm_service);
            assert_eq!(source, ServeSource::CacheHit);
            assert_eq!(*result, *cold_result);
            cache_us = cache_us.min(us);
        }
        assert_eq!(
            elf_parses(&warm_service),
            1,
            "a cache hit must not parse the ELF"
        );

        // Cache hit on the same large binary with its symbols kept, the
        // shape daemonbench's warm_repeat sends: a parse would read every
        // symbol name, so this is where fingerprint-first pays.
        let symbols_service = AnalysisService::new(&ServeConfig::default()).expect("service");
        let (_, source, symbols_result) = submit_elf(&symbols_service, &symbols_elf);
        assert_eq!(source, ServeSource::Cold);
        let mut cache_symbols_us = f64::INFINITY;
        for _ in 0..reps.max(3) {
            let (us, source, result) = submit_elf(&symbols_service, &symbols_elf);
            assert_eq!(source, ServeSource::CacheHit);
            assert!(Arc::ptr_eq(&result, &symbols_result));
            cache_symbols_us = cache_symbols_us.min(us);
        }
        assert_eq!(
            elf_parses(&symbols_service),
            1,
            "a cache hit must not parse the ELF"
        );
        drop(symbols_service);

        let cache_speedup = cold_us / cache_us.max(1e-9);
        assert!(
            cache_speedup >= 10.0,
            "a daemon cache hit must be >= 10x faster than a cold submit \
             (cold {cold_us:.1} µs, hit {cache_us:.1} µs, {cache_speedup:.1}x)"
        );

        // Concurrency subgroup: warm p50/p95 vs client count against
        // one shared service (the worker-pool shape, minus the socket
        // hop), plus the coalescing guarantee — N concurrent submits of
        // one uncached image cost exactly one cold compute and every
        // reply is the identical result.
        let percentile = |sorted: &[f64], p: f64| -> f64 {
            sorted[((sorted.len() - 1) as f64 * p).round() as usize]
        };
        let sweep_reqs = 16usize;
        let mut sweep_json = String::new();
        for (ci, clients) in [1usize, 2, 4, 8].into_iter().enumerate() {
            let mut latencies: Vec<f64> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..clients)
                    .map(|_| {
                        scope.spawn(|| {
                            (0..sweep_reqs)
                                .map(|_| {
                                    let (us, source, result) = submit(&warm_service);
                                    assert_eq!(source, ServeSource::CacheHit);
                                    assert_eq!(*result, *cold_result);
                                    us
                                })
                                .collect::<Vec<f64>>()
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .flat_map(|t| t.join().expect("sweep client"))
                    .collect()
            });
            latencies.sort_by(|a, b| a.total_cmp(b));
            let (p50, p95) = (percentile(&latencies, 0.50), percentile(&latencies, 0.95));
            let _ = write!(
                sweep_json,
                "{}\n        {{ \"clients\": {clients}, \"requests\": {}, \
                 \"p50_us\": {p50:.1}, \"p95_us\": {p95:.1} }}",
                if ci > 0 { "," } else { "" },
                latencies.len(),
            );
            println!(" serve: {clients:>2} clients warm — p50 {p50:.1} µs, p95 {p95:.1} µs");
        }

        let coalesce_clients = 8usize;
        let coalesce_dir = base.join("coalesce");
        let coalesce_service = AnalysisService::new(&config_for(&coalesce_dir)).expect("service");
        let barrier = std::sync::Barrier::new(coalesce_clients);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..coalesce_clients)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let (_, _, result) = submit(&coalesce_service);
                        result
                    })
                })
                .collect();
            for t in threads {
                let result = t.join().expect("coalesce client");
                assert_eq!(
                    *result, *cold_result,
                    "a coalesced reply must be byte-identical to the cold answer"
                );
            }
        });
        let coalesce_stats = coalesce_service.stats();
        let coalesce_cold = coalesce_stats.counter(StatsCounter::Cold);
        let coalesce_coalesced = coalesce_stats.counter(StatsCounter::Coalesced);
        assert_eq!(
            coalesce_cold, 1,
            "{coalesce_clients} concurrent submits of one uncached image \
             must cost exactly one cold compute (got {})",
            coalesce_cold
        );

        // Reply render: the large-corpus analyze reply streamed to its
        // protocol line, the last step before the socket write.
        let reply = warm_service.handle(Request::Analyze {
            input: AnalyzeInput::Bytes(elf_bytes.clone()),
            pipeline: Pipeline::fetch(),
        });
        let Reply::Analyze(analyzed) = &reply else {
            panic!("serve group: unexpected reply {reply:?}");
        };
        let mut render_us: Vec<f64> = (0..reps.max(31) as u64)
            .map(|req_id| {
                let t = Instant::now();
                let line = std::hint::black_box(&reply).to_line_with(req_id);
                let us = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(line);
                us
            })
            .collect();
        render_us.sort_by(|a, b| a.total_cmp(b));
        let reply_render_us = percentile(&render_us, 0.50);
        let line = reply.to_line_with(0);
        assert_eq!(
            fetch_serve::json::Json::parse(&line)
                .expect("the rendered reply parses")
                .get("result"),
            Some(&fetch_serve::protocol::result_json(&analyzed.result)),
            "the streamed reply must carry the tree form's result"
        );

        // Persisted-warm: a restarted service (fresh cache, same store)
        // each rep — every submit is a store hit. The warm service is
        // dropped first, which drains its pending saves, so the store
        // holds the entry by construction.
        drop(warm_service);
        let mut store_us = f64::INFINITY;
        for _ in 0..reps.max(3) {
            let restarted = AnalysisService::new(&config_for(&warm_dir)).expect("service");
            let (us, source, result) = submit(&restarted);
            assert_eq!(source, ServeSource::StoreHit, "restart must answer warm");
            assert_eq!(
                elf_parses(&restarted),
                0,
                "a store hit must not parse the ELF"
            );
            assert_eq!(
                *result, *cold_result,
                "the persisted answer must equal the cold run"
            );
            store_us = store_us.min(us);
        }
        let store_speedup = cold_us / store_us.max(1e-9);

        let _ = write!(
            json,
            "  \"serve\": {{\n    \"image_bytes\": {},\n    \
             \"cold_submit_us\": {cold_us:.1},\n    \
             \"cold_vs_bare\": {cold_vs_bare:.2},\n    \
             \"bare_pipeline_us\": {bare_us:.1},\n    \
             \"cold_eh_frame_parses\": {cold_eh_parses},\n    \
             \"cold_elf_parses\": {cold_elf_parses},\n    \
             \"reply_render_us\": {reply_render_us:.1},\n    \
             \"cache_hit_us\": {cache_us:.1},\n    \
             \"cache_hit_symbols_us\": {cache_symbols_us:.1},\n    \
             \"store_hit_us\": {store_us:.1},\n    \
             \"cache_hit_speedup\": {cache_speedup:.1},\n    \
             \"cache_entry_bytes\": {cache_entry_bytes},\n    \
             \"result_bytes\": {result_bytes},\n    \
             \"store_hit_speedup\": {store_speedup:.1},\n    \
             \"concurrency\": {{\n      \"sweep\": [{sweep_json}\n      ],\n      \
             \"coalesce\": {{ \"clients\": {coalesce_clients}, \"cold_computes\": {}, \
             \"coalesced\": {} }}\n    }}\n  }},\n",
            elf_bytes.len(),
            coalesce_cold,
            coalesce_coalesced,
        );
        println!(
            " serve: cold {cold_us:.1} µs, bare {bare_us:.1} µs (paired median {cold_vs_bare:.2}x, \
             {cold_eh_parses} .eh_frame parse), \
             cache hit {cache_us:.1} µs ({cache_speedup:.0}x; \
             {cache_symbols_us:.1} µs with symbols), \
             store hit {store_us:.1} µs ({store_speedup:.0}x); coalesce@{coalesce_clients}: \
             {} cold, {} coalesced; reply render {reply_render_us:.1} µs",
            coalesce_cold, coalesce_coalesced,
        );
        // Dropping the last service drains its pending store saves.
        drop(coalesce_service);
        let _ = std::fs::remove_dir_all(&base);
    }

    // Delta group: versioned re-analysis on the large corpus binary.
    // The CI/CD workload — the same binary rebuilt with one function
    // changed — answered through the delta ladder instead of a cold
    // compute. A neutral one-function patch (a rewritten data constant)
    // must land on the section-reuse tier: the digest diff proves the
    // old result still correct, so the answer is an incremental digest,
    // a diff and an `Arc` clone. The ≥ 8× p50 bar and the byte-identity
    // assert are the
    // acceptance criteria of delta re-analysis; a behavioral patch's
    // recompute tier (a local change no verbatim tier can prove, so a
    // full cold re-run) rides along as the informative middle rung.
    {
        let mut cfg = SynthConfig::small(9003);
        cfg.n_funcs = 900;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = 45;
        let case = synthesize(&cfg);
        let neutral = (0..64)
            .find_map(|s| patch_function(&case, s, PatchKind::Neutral))
            .expect("large corpus offers a neutral patch site");
        let behavioral = (0..64)
            .find_map(|s| patch_function(&case, s, PatchKind::Behavioral))
            .expect("large corpus offers a behavioral patch site");

        let pipeline = Pipeline::fetch();
        let image_of =
            |b: &fetch_binary::Binary| ElfImage::parse(write_elf(b)).expect("own ELF parses");
        let old_image = image_of(&case.binary);
        let prev = std::sync::Arc::new(pipeline.run(&old_image.to_binary()));
        let prev_digest =
            ImageDigest::compute(&old_image.to_binary(), image_fingerprint(&old_image));
        // The `reanalyze` path minus the transport: materialize, derive
        // the digest from the predecessor's, run the ladder.
        let delta = |image: &ElfImage, engine: &mut RecEngine| {
            let binary = image.to_binary();
            let digest =
                ImageDigest::compute_from(Some(&prev_digest), &binary, image_fingerprint(image));
            run_delta(
                &pipeline,
                &prev,
                Some(&prev_digest),
                &binary,
                &digest,
                engine,
            )
        };

        let percentile = |sorted: &[f64], p: f64| -> f64 {
            sorted[((sorted.len() - 1) as f64 * p).round() as usize]
        };
        let delta_reps = reps.max(5);

        // Cold p50 on the patched image: what the service pays today
        // for any rebuild, however small the diff.
        let neutral_image = image_of(&neutral.binary);
        let mut cold_lat = Vec::with_capacity(delta_reps);
        let mut cold_result = None;
        for _ in 0..delta_reps {
            let mut engine = RecEngine::new();
            let t = Instant::now();
            let r = pipeline.run_with_engine(&neutral_image.to_binary(), &mut engine);
            cold_lat.push(t.elapsed().as_secs_f64() * 1e6);
            cold_result = Some(r);
        }
        let cold_result = cold_result.expect("reps >= 1");

        // Delta p50 on the same patched image, from the old version's
        // (result, digest) — the `reanalyze` path minus the transport.
        let mut engine = RecEngine::new();
        let mut delta_lat = Vec::with_capacity(delta_reps);
        let mut sections_reused = 0usize;
        for _ in 0..delta_reps {
            let t = Instant::now();
            let out = delta(&neutral_image, &mut engine);
            delta_lat.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                out.class,
                DeltaClass::SectionReuse,
                "a neutral one-function patch must hit the section-reuse tier"
            );
            assert_eq!(
                *out.result, cold_result,
                "the delta answer must be byte-identical to the cold run"
            );
            sections_reused = out.sections_reused;
        }

        // The recompute tier on a behavioral patch (a constant becomes
        // a code address): a full cold re-run. Informative — no bar;
        // correctness stays asserted.
        let behavioral_image = image_of(&behavioral.binary);
        let behavioral_cold = pipeline.run(&behavioral_image.to_binary());
        let mut recompute_lat = Vec::with_capacity(delta_reps);
        for _ in 0..delta_reps {
            // Re-warm the engine to the *old* version each rep, as a
            // pooled serving engine would be.
            let _ = pipeline.run_with_engine(&old_image.to_binary(), &mut engine);
            let t = Instant::now();
            let out = delta(&behavioral_image, &mut engine);
            recompute_lat.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(out.class, DeltaClass::Recompute);
            assert_eq!(*out.result, behavioral_cold, "recompute diverged from cold");
        }

        // The patched version's digest, in full vs from the
        // predecessor's: the part of the section-reuse tier that is not
        // a diff.
        let neutral_binary = neutral_image.to_binary();
        let neutral_fp = image_fingerprint(&neutral_image);
        let mut full_lat = Vec::with_capacity(delta_reps);
        let mut incremental_lat = Vec::with_capacity(delta_reps);
        for _ in 0..delta_reps {
            let t = Instant::now();
            let full = ImageDigest::compute(&neutral_binary, neutral_fp);
            full_lat.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let incremental =
                ImageDigest::compute_from(Some(&prev_digest), &neutral_binary, neutral_fp);
            incremental_lat.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(incremental, full, "compute_from must equal compute");
        }

        for lat in [
            &mut cold_lat,
            &mut delta_lat,
            &mut recompute_lat,
            &mut full_lat,
            &mut incremental_lat,
        ] {
            lat.sort_by(|a, b| a.total_cmp(b));
        }
        let cold_p50 = percentile(&cold_lat, 0.50);
        let delta_p50 = percentile(&delta_lat, 0.50);
        let recompute_p50 = percentile(&recompute_lat, 0.50);
        let digest_full_p50 = percentile(&full_lat, 0.50);
        let digest_incremental_p50 = percentile(&incremental_lat, 0.50);
        let speedup = cold_p50 / delta_p50.max(1e-9);
        assert!(
            speedup >= 8.0,
            "delta re-analysis of a one-function patch must be >= 8x faster than cold \
             (cold p50 {cold_p50:.1} µs, delta p50 {delta_p50:.1} µs, {speedup:.1}x)"
        );

        let _ = write!(
            json,
            "  \"delta\": {{\n    \"functions\": {},\n    \
             \"patch\": \"one-function neutral (rewritten data constant)\",\n    \
             \"cold_p50_us\": {cold_p50:.1},\n    \"delta_p50_us\": {delta_p50:.1},\n    \
             \"delta_speedup\": {speedup:.1},\n    \"class\": \"{}\",\n    \
             \"sections_reused\": {sections_reused},\n    \
             \"recompute_p50_us\": {recompute_p50:.1},\n    \
             \"digest_full_p50_us\": {digest_full_p50:.1},\n    \
             \"digest_incremental_p50_us\": {digest_incremental_p50:.1}\n  }},\n",
            cfg.n_funcs,
            DeltaClass::SectionReuse.token(),
        );
        println!(
            " delta: cold p50 {cold_p50:.1} µs, section-reuse p50 {delta_p50:.1} µs \
             ({speedup:.0}x, {sections_reused} buckets reused), recompute p50 \
             {recompute_p50:.1} µs; digest p50 full {digest_full_p50:.1} µs, \
             incremental {digest_incremental_p50:.1} µs"
        );
    }

    // Obs group: what the observability layer costs. The large corpus
    // is analyzed through the fully instrumented serve answer path —
    // fresh service per rep, so every rep is a cold compute through
    // registry-backed counters, per-source latency histograms, and
    // layer-wall recording. The instrumented per-layer total (read
    // back *from* the layer-wall histograms — the instrumentation
    // measuring itself) must still fit the scaling group's 10 ms budget.
    // Each rep also runs the bare pipeline the way the service's leader
    // does (frame table and digest on a second thread), next to the
    // instrumented one: both halves of a pair see the same host phase,
    // and the published overhead is the median of the per-pair
    // differences, not a difference of best-ofs taken at different
    // moments. It is published, not asserted (on a shared host it is
    // noise-dominated). Micro-costs are measured directly: one histogram
    // observation and one full snapshot + Prometheus-style text
    // exposition.
    {
        use fetch_obs::{Histogram, MetricValue};
        use fetch_serve::protocol::{AnalyzeInput, Reply, Request};
        use fetch_serve::service::{AnalysisService, ServeConfig};

        let mut cfg = SynthConfig::small(9003);
        cfg.n_funcs = 900;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = 45;
        cfg.rates.error_calls = 0.10;
        let case = synthesize(&cfg);
        let elf = write_elf(&case.binary);

        // Sum of the layer-wall histogram sums = the instrumented
        // pipeline's per-layer total for this service's one cold run.
        let layer_total = |service: &AnalysisService| -> f64 {
            service
                .registry()
                .snapshot()
                .entries
                .iter()
                .filter(|(name, _)| name.starts_with("fetch_layer_wall_us{"))
                .map(|(_, v)| match v {
                    MetricValue::Histogram(h) => h.sum as f64,
                    _ => 0.0,
                })
                .sum()
        };
        // The bare pipeline over facts whose frame table and digest a
        // second thread builds meanwhile, as the service's side worker
        // does; its per-layer total.
        let bare_beside = || -> f64 {
            let facts = std::sync::Arc::new(BinaryFacts::new());
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    facts.frame_table(&case.binary);
                    ImageDigest::compute_with_facts(None, &case.binary, &facts, 0);
                });
                let mut st = DetectionState::with_facts(
                    &case.binary,
                    RecEngine::new(),
                    std::sync::Arc::clone(&facts),
                );
                Pipeline::fetch().apply(&mut st);
                st.trace.iter().map(LayerTrace::wall_us).sum()
            })
        };
        let mut instrumented_best = f64::INFINITY;
        let (mut bare_us, mut overhead_us) = (Vec::new(), Vec::new());
        let mut last_service = None;
        for rep in 0..reps {
            // Alternate which half of the pair runs first, so neither
            // always inherits the other's cache and allocator state.
            let bare_first = rep % 2 == 0;
            let bare = if bare_first { bare_beside() } else { 0.0 };
            let service = AnalysisService::new(&ServeConfig::default()).expect("obs service");
            let reply = service.handle(Request::Analyze {
                input: AnalyzeInput::Bytes(elf.clone()),
                pipeline: Pipeline::fetch(),
            });
            assert!(
                matches!(reply, Reply::Analyze(_)),
                "obs group cold analyze failed: {reply:?}"
            );
            let bare = if bare_first { bare } else { bare_beside() };
            let instrumented = layer_total(&service);
            instrumented_best = instrumented_best.min(instrumented);
            bare_us.push(bare);
            overhead_us.push(instrumented - bare);
            last_service = Some(service);
        }
        assert!(
            instrumented_best < 10_000.0,
            "the instrumented pipeline must stay under the 10 ms budget \
             (best over {reps} reps: {instrumented_best:.1} µs)"
        );
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (bare_median, overhead_median) = (median(&mut bare_us), median(&mut overhead_us));
        let overhead_pct = 100.0 * overhead_median / bare_median.max(1e-9);

        // Micro-cost: one histogram observation (the span drop path).
        let hist = std::sync::Arc::new(Histogram::new());
        const RECORDS: u64 = 1_000_000;
        let t = Instant::now();
        for i in 0..RECORDS {
            hist.record(i & 0xffff);
        }
        let record_ns = t.elapsed().as_secs_f64() * 1e9 / RECORDS as f64;
        assert_eq!(hist.count(), RECORDS);

        // Micro-cost: a full snapshot + text exposition of the real
        // post-analyze registry (every metric the daemon exports).
        let service = last_service.expect("reps >= 1");
        let snap = service.registry().snapshot();
        let series = snap.entries.len();
        const EXPOSITIONS: usize = 100;
        let t = Instant::now();
        let mut rendered = 0usize;
        for _ in 0..EXPOSITIONS {
            let snap = service.registry().snapshot();
            rendered = fetch_obs::render_text(&snap).len();
        }
        let exposition_us = t.elapsed().as_secs_f64() * 1e6 / EXPOSITIONS as f64;

        let _ = write!(
            json,
            "  \"obs\": {{\n    \"corpus\": \"large\",\n    \
             \"instrumented_pipeline_us\": {instrumented_best:.1},\n    \
             \"paired_reps\": {reps},\n    \
             \"bare_median_us\": {bare_median:.1},\n    \
             \"overhead_median_us\": {overhead_median:.1},\n    \
             \"overhead_pct\": {overhead_pct:.1},\n    \"budget_us\": 10000.0,\n    \
             \"record_ns\": {record_ns:.1},\n    \"exposition_us\": {exposition_us:.1},\n    \
             \"metric_series\": {series},\n    \"exposition_bytes\": {rendered}\n  }},\n",
        );
        println!(
            "   obs: instrumented large total {instrumented_best:.1} µs (best); \
             median of {reps} paired differences {overhead_median:+.1} µs \
             ({overhead_pct:+.1}% of bare {bare_median:.1} µs), record {record_ns:.1} ns, \
             exposition of {series} series {exposition_us:.1} µs"
        );
    }

    // Batch-driver groups: the default corpus, full pipeline per binary,
    // one worker vs all of them. Minimum wall time over `reps` sweeps.
    let opts = BenchOpts::default();
    let cases = dataset2(&opts);
    let sweep = |driver: &BatchDriver| {
        let mut best = f64::INFINITY;
        let mut results = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            results = driver.run(&cases, |engine, case| {
                Pipeline::fetch().run_with_engine(&case.binary, engine)
            });
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        (best, results)
    };
    let (serial_ms, serial_results) = sweep(&BatchDriver::serial());
    let (parallel_ms, parallel_results) = sweep(&BatchDriver::new(jobs));
    // The full per-binary results (starts, provenance, layer order), not
    // a summary — the byte-identity the crate docs promise.
    assert_eq!(
        serial_results, parallel_results,
        "batch determinism violated: serial and parallel sweeps disagree"
    );
    let serial_starts: usize = serial_results.iter().map(|r| r.starts.len()).sum();
    let speedup = serial_ms / parallel_ms.max(1e-9);
    let _ = write!(
        json,
        "  \"batch\": {{\n    \"corpus_binaries\": {},\n    \
         \"detected_starts\": {serial_starts},\n    \
         \"batch_serial\": {{ \"jobs\": 1, \"wall_ms\": {serial_ms:.1} }},\n    \
         \"batch_parallel\": {{ \"jobs\": {jobs}, \"wall_ms\": {parallel_ms:.1} }},\n    \
         \"speedup\": {speedup:.2}\n  }}\n}}\n",
        cases.len(),
    );
    println!(
        " batch: {} binaries, serial {serial_ms:.1} ms, parallel ({jobs} jobs) \
         {parallel_ms:.1} ms — {speedup:.2}x",
        cases.len(),
    );

    std::fs::write(&out_path, json).expect("write snapshot");
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(extra: &[&str]) -> Result<SnapshotArgs, String> {
        let args: Vec<String> = ["perf_snapshot"]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect();
        parse_args(&args)
    }

    #[test]
    fn flags_parse_over_the_defaults() {
        let args = parse(&["--out", "x.json", "--reps", "9", "--jobs", "3"]).unwrap();
        assert_eq!(
            (args.out_path.as_str(), args.reps, args.jobs),
            ("x.json", 9, 3)
        );
    }

    #[test]
    fn typos_trailing_flags_and_bad_values_are_rejected_by_name() {
        for (bad, named) in [
            (&["--rep", "9"][..], "\"--rep\""),
            (&["9"], "\"9\""),
            (&["--reps", "9", "--reps"], "--reps takes"),
            (&["--out"], "--out takes"),
            (&["--reps", "0"], "--reps takes"),
            (&["--jobs", "x"], "--jobs takes"),
            (&["--cache-capacity", "7"], "\"--cache-capacity\""),
            (&["--flatness-floor", "0.5"], "\"--flatness-floor\""),
        ] {
            let err = parse(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains(named), "{bad:?}: {err}");
        }
    }
}
