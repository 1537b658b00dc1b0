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
//! Seven further groups:
//!
//! * `scaling` — the full pipeline over the large corpus once more: its
//!   per-layer walls, the large total asserted under the 10 ms budget,
//!   and the small/medium/large `insts_per_sec` curve with its flatness
//!   ratio (min/max). The flatness floor is machine-tolerant (see
//!   `--flatness-floor`): on a single-core host the small corpus is
//!   cache-resident while the large one is not, so the curve bends at
//!   the L2 cliff no matter how the work is scheduled.
//!
//! * `layer_breakdown` — the per-layer trace of the large corpus run:
//!   wall time, starts added/removed, and decode work per layer.
//! * `cache` — the serving layer: a cold `detect_image_cached` miss vs
//!   a warm hit on the same image (the snapshot asserts the hit is
//!   ≥ 10× faster), the hit rate of a two-round corpus sweep through
//!   one shared [`AnalysisCache`] (with eviction count and entry/byte
//!   footprint), and a capacity-bounded sweep demonstrating LRU
//!   eviction under pressure.
//! * `serve` — the `fetch-serve` daemon core driven over the corpus
//!   image: cold submit vs bounded-cache hit vs post-restart persistent
//!   store hit (cache-hit ≥ 10× cold asserted; the store answer is
//!   asserted `==` the cold result), plus the `concurrency` subgroup —
//!   warm p50/p95 latency vs client count against one shared service,
//!   and the coalescing guarantee (8 concurrent submits of one uncached
//!   image → exactly 1 cold compute, asserted, every reply identical),
//!   plus `reply_render_us`: the p50 of rendering the large-corpus
//!   analyze reply to its protocol line (`Reply::to_line_with`).
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
//!   (counters, latency histograms, spans, layer-wall recording all
//!   live), with the instrumented per-layer total asserted under the
//!   same 10 ms budget as the `scaling` group and the overhead vs the
//!   bare pipeline published; plus the micro-costs of one histogram
//!   observation and of one full registry snapshot + text exposition.
//! * `batch_serial` / `batch_parallel` — the [`BatchDriver`] sweeping
//!   the default Dataset 2 corpus, one worker vs all of them. The two
//!   produce byte-identical results — the snapshot asserts it — so the
//!   speedup column is a pure scheduling win.
//!
//! Usage: `cargo run --release -p fetch-bench --bin perf_snapshot`
//! (pass `--out <path>` to redirect; pass `--reps <n>` for more timing
//! repetitions — the recorded value per stage is the minimum; pass
//! `--jobs <n>` to pin the parallel sweep's worker count, default: the
//! machine's available parallelism; pass `--cache-capacity <n>` to pin
//! the bounded sweep's entry capacity, default: half the corpus; pass
//! `--flatness-floor <r>` to pin the asserted `insts_per_sec`
//! flatness ratio, default 0.40).

use fetch_bench::{dataset2, default_jobs, BatchDriver, BenchOpts};
use fetch_binary::{read_elf, write_elf, ElfImage, ElfView};
use fetch_core::{
    image_fingerprint, AnalysisCache, DeltaClass, DetectionState, Fetch, ImageDigest, LayerTrace,
    Pipeline,
};
use fetch_disasm::RecEngine;
use fetch_synth::{patch_function, synthesize, PatchKind, SynthConfig};
use std::fmt::Write as _;
use std::time::Instant;

struct PipelineRun {
    trace: Vec<LayerTrace>,
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
        insts,
        detected,
        peak_starts,
    }
}

fn total_us(run: &PipelineRun) -> f64 {
    run.trace.iter().map(|t| t.wall_us()).sum()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut reps = 5usize;
    let mut jobs = default_jobs();
    let mut cache_capacity: Option<usize> = None;
    let mut flatness_floor = 0.40f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--reps" => {
                i += 1;
                reps = args[i].parse().expect("--reps takes an integer");
            }
            "--jobs" => {
                i += 1;
                jobs = args[i].parse().expect("--jobs takes a positive integer");
                assert!(jobs >= 1, "--jobs takes a positive integer");
            }
            "--cache-capacity" => {
                i += 1;
                let n = args[i]
                    .parse()
                    .expect("--cache-capacity takes a positive integer");
                assert!(n >= 1, "--cache-capacity takes a positive integer");
                cache_capacity = Some(n);
            }
            "--flatness-floor" => {
                i += 1;
                flatness_floor = args[i].parse().expect("--flatness-floor takes a ratio");
                assert!(
                    (0.0..=1.0).contains(&flatness_floor),
                    "--flatness-floor takes a ratio in [0, 1]"
                );
            }
            _ => {}
        }
        i += 1;
    }

    let corpora: [(&str, u64, usize); 3] = [
        ("small", 9001, 60),
        ("medium", 9002, 250),
        ("large", 9003, 900),
    ];

    let mut large_best: Option<PipelineRun> = None;
    let mut ips_curve: Vec<(&str, f64)> = Vec::new();
    let mut json = String::from("{\n  \"schema\": \"fetch-perf-snapshot/v5\",\n  \"corpora\": [\n");
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
            large_best = Some(s);
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
            flatness >= flatness_floor,
            "insts_per_sec curve collapsed: min/max {flatness:.2} < floor {flatness_floor:.2} \
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
             \"flatness\": {flatness:.3},\n    \"flatness_floor\": {flatness_floor:.2}\n  }},\n",
            stage(0),
            stage(1),
            stage(2),
            stage(3),
        );
        println!(
            " scaling: large total {run_total:.1} µs (best {best_large_total:.1} µs); \
             ips flatness {flatness:.2} (floor {flatness_floor:.2})"
        );
    }

    // ELF-load group: the eager `read_elf` path (every section body
    // copied into its own Vec) vs the zero-copy `ElfImage` view path
    // (sections as windows of one shared buffer). Byte-for-byte
    // identical results; the copies column is measured, not assumed.
    // Measured on the stripped large binary — the motivating workload
    // is a huge stripped image whose bodies dominate the file.
    let large_image = {
        let mut cfg = SynthConfig::small(9003);
        cfg.n_funcs = 900;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = 45;
        let case = synthesize(&cfg);
        let elf = write_elf(&case.binary.stripped());

        // Copy accounting is rep-invariant: compute it once, outside
        // the timing loop.
        let eager_stats = ElfView::parse(&elf).unwrap().to_owned_with_stats().1;
        let view_stats = ElfImage::parse(elf.clone()).unwrap().load_stats();

        let mut eager_us = f64::INFINITY;
        let mut view_us = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let eager = read_elf(&elf).expect("own ELF parses");
            eager_us = eager_us.min(t.elapsed().as_secs_f64() * 1e6);
            // The clone stands in for ownership transfer of an already
            // resident buffer — keep it out of the timed region.
            let buf = elf.clone();
            let t = Instant::now();
            let image = ElfImage::parse(buf).expect("own ELF parses");
            let viewed = image.to_binary();
            view_us = view_us.min(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                eager.sections, viewed.sections,
                "view path must load byte-identical sections"
            );
        }
        assert_eq!(
            view_stats.section_bytes_copied, 0,
            "view path copies bodies"
        );
        let _ = write!(
            json,
            "  \"elf_load\": {{\n    \"image_bytes\": {},\n    \
             \"section_bytes\": {},\n    \
             \"eager_read_elf\": {{ \"wall_us\": {eager_us:.1}, \"section_bytes_copied\": {} }},\n    \
             \"view\": {{ \"wall_us\": {view_us:.1}, \"section_bytes_copied\": {} }}\n  }},\n",
            elf.len(),
            view_stats.section_bytes,
            eager_stats.section_bytes_copied,
            view_stats.section_bytes_copied,
        );
        println!(
            "  load: {} KiB image — eager {eager_us:.1} µs ({} B copied), \
             view {view_us:.1} µs (0 B copied)",
            elf.len() / 1024,
            eager_stats.section_bytes_copied,
        );
        ElfImage::parse(elf).expect("own ELF parses")
    };

    // Serving-layer cache group: a cold `detect_image_cached` (miss:
    // fingerprint + full pipeline) vs a warm hit (fingerprint + lookup)
    // on the large stripped image, and the hit rate of a two-round
    // corpus sweep through one shared cache. The ≥ 10× bar is the
    // acceptance criterion of the serving layer — fail loudly, not
    // quietly, if memoization ever stops paying.
    {
        let fetch = Fetch::new();
        let mut cold_us = f64::INFINITY;
        for _ in 0..reps {
            let cache = AnalysisCache::new();
            let mut engine = RecEngine::new();
            let t = Instant::now();
            let r = fetch.detect_image_cached(&large_image, &mut engine, &cache);
            cold_us = cold_us.min(t.elapsed().as_secs_f64() * 1e6);
            assert!(!r.is_empty());
        }
        let warm_cache = AnalysisCache::new();
        let mut engine = RecEngine::new();
        let cold_result = fetch.detect_image_cached(&large_image, &mut engine, &warm_cache);
        let mut warm_us = f64::INFINITY;
        for _ in 0..reps.max(3) {
            let t = Instant::now();
            let r = fetch.detect_image_cached(&large_image, &mut engine, &warm_cache);
            warm_us = warm_us.min(t.elapsed().as_secs_f64() * 1e6);
            assert!(
                std::sync::Arc::ptr_eq(&cold_result, &r),
                "hit returns the entry"
            );
        }
        let speedup = cold_us / warm_us.max(1e-9);
        assert!(
            speedup >= 10.0,
            "warm cache hit must be >= 10x faster than a cold run \
             (cold {cold_us:.1} µs, warm {warm_us:.1} µs, {speedup:.1}x)"
        );

        // Corpus hit rate: every binary analyzed twice through one
        // shared cache — round two is all hits, and the merged results
        // of both rounds are identical.
        let opts = BenchOpts::default();
        let cases = dataset2(&opts);
        let corpus_cache = AnalysisCache::new();
        let driver = BatchDriver::new(jobs);
        let sweep = |driver: &BatchDriver| {
            driver.run_with_cache(&cases, &corpus_cache, |engine, cache, case| {
                fetch.detect_cached(&case.binary, engine, cache)
            })
        };
        let round1 = sweep(&driver);
        let round2 = sweep(&driver);
        assert_eq!(round1, round2, "cache hits must reproduce cold results");
        let stats = corpus_cache.stats();
        assert!(stats.hits >= cases.len() as u64, "round two must hit");
        assert_eq!(stats.evictions, 0, "the unbounded sweep never evicts");

        // Capacity-bounded sweep: the same two rounds through an LRU
        // cache too small for the corpus. Results must stay identical
        // (eviction only ever drops memoized state); the eviction
        // counter and the bounded footprint are the published evidence.
        let capacity = cache_capacity.unwrap_or_else(|| (cases.len() / 2).max(1));
        let bounded_cache =
            fetch_core::AnalysisCache::with_capacity(fetch_core::CacheCapacity::entries(capacity));
        let bounded_sweep = |driver: &BatchDriver| {
            driver.run_with_cache(&cases, &bounded_cache, |engine, cache, case| {
                fetch.detect_cached(&case.binary, engine, cache)
            })
        };
        let bounded1 = bounded_sweep(&driver);
        let bounded2 = bounded_sweep(&driver);
        assert_eq!(bounded1, round1, "a bounded cache must not change answers");
        assert_eq!(bounded2, round1, "eviction must not change answers");
        let bounded = bounded_cache.stats();
        assert!(bounded.entries <= capacity, "capacity must bound residency");
        if capacity < cases.len() {
            assert!(bounded.evictions > 0, "an undersized cache must evict");
        }

        let _ = write!(
            json,
            "  \"cache\": {{\n    \"cold_wall_us\": {cold_us:.1},\n    \
             \"warm_hit_wall_us\": {warm_us:.1},\n    \"hit_speedup\": {speedup:.1},\n    \
             \"corpus_sweep\": {{ \"binaries\": {}, \"rounds\": 2, \"lookups\": {}, \
             \"hits\": {}, \"hit_rate\": {:.3}, \"evictions\": {}, \"entries\": {}, \
             \"bytes\": {} }},\n    \
             \"bounded_sweep\": {{ \"capacity_entries\": {capacity}, \"lookups\": {}, \
             \"hits\": {}, \"hit_rate\": {:.3}, \"evictions\": {}, \"entries\": {}, \
             \"bytes\": {} }}\n  }},\n",
            cases.len(),
            stats.hits + stats.misses,
            stats.hits,
            stats.hit_rate(),
            stats.evictions,
            stats.entries,
            stats.bytes,
            bounded.hits + bounded.misses,
            bounded.hits,
            bounded.hit_rate(),
            bounded.evictions,
            bounded.entries,
            bounded.bytes,
        );
        println!(
            " cache: cold {cold_us:.1} µs, warm hit {warm_us:.1} µs ({speedup:.0}x); \
             corpus sweep hit rate {:.1}% ({} B resident); bounded@{capacity}: \
             {} evictions, hit rate {:.1}%",
            100.0 * stats.hit_rate(),
            stats.bytes,
            bounded.evictions,
            100.0 * bounded.hit_rate(),
        );
    }

    // Serve group: the fetch-serve daemon core driven in-process over
    // the large corpus image — the load-generator shape of the
    // `serve_load` harness, minus the socket hop, so the numbers are
    // scheduling-noise-free. Three latencies: a cold submit (fresh
    // service, fresh store), a bounded-cache hit (same service again),
    // and a persisted-warm hit (new service over the same store
    // directory — the restart shape). The cache-hit bar is the serving
    // acceptance criterion; the store answer must equal the cold run.
    {
        use fetch_serve::protocol::{AnalyzeInput, Reply, Request, ServeSource};
        use fetch_serve::service::{AnalysisService, ServeConfig};

        let base =
            std::env::temp_dir().join(format!("fetch-serve-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let elf_bytes = large_image.view().image().to_vec();
        let submit = |service: &AnalysisService| {
            let t = Instant::now();
            let reply = service.handle(Request::Analyze {
                input: AnalyzeInput::Bytes(elf_bytes.clone()),
                pipeline: Pipeline::fetch(),
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            match reply {
                Reply::Analyze(a) => (us, a.source, a.result),
                other => panic!("serve group: unexpected reply {other:?}"),
            }
        };
        let config_for = |dir: &std::path::Path| ServeConfig {
            store_dir: Some(dir.to_path_buf()),
            cache_capacity: fetch_core::CacheCapacity::entries(cache_capacity.unwrap_or(1024)),
            ..ServeConfig::default()
        };

        // Cold: a fresh service over a fresh store each rep.
        let mut cold_us = f64::INFINITY;
        let mut cold_result = None;
        for rep in 0..reps {
            let dir = base.join(format!("cold-{rep}"));
            let service = AnalysisService::new(&config_for(&dir)).expect("service");
            let (us, source, result) = submit(&service);
            assert_eq!(source, ServeSource::Cold);
            cold_us = cold_us.min(us);
            cold_result = Some(result);
        }
        let cold_result = cold_result.expect("reps >= 1");

        // Cache hit: one service, second submit.
        let warm_dir = base.join("warm");
        let warm_service = AnalysisService::new(&config_for(&warm_dir)).expect("service");
        let (_, source, _) = submit(&warm_service);
        assert_eq!(source, ServeSource::Cold);
        let mut cache_us = f64::INFINITY;
        for _ in 0..reps.max(3) {
            let (us, source, result) = submit(&warm_service);
            assert_eq!(source, ServeSource::CacheHit);
            assert_eq!(*result, *cold_result);
            cache_us = cache_us.min(us);
        }

        // Persisted-warm: a restarted service (fresh cache, same store)
        // each rep — every submit is a store hit.
        let mut store_us = f64::INFINITY;
        for _ in 0..reps.max(3) {
            let restarted = AnalysisService::new(&config_for(&warm_dir)).expect("service");
            let (us, source, result) = submit(&restarted);
            assert_eq!(source, ServeSource::StoreHit, "restart must answer warm");
            assert_eq!(
                *result, *cold_result,
                "the persisted answer must equal the cold run"
            );
            store_us = store_us.min(us);
        }

        let cache_speedup = cold_us / cache_us.max(1e-9);
        let store_speedup = cold_us / store_us.max(1e-9);
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
        let coalesce_stats = coalesce_service.stats().requests;
        assert_eq!(
            coalesce_stats.cold, 1,
            "{coalesce_clients} concurrent submits of one uncached image \
             must cost exactly one cold compute (got {})",
            coalesce_stats.cold
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

        let _ = write!(
            json,
            "  \"serve\": {{\n    \"image_bytes\": {},\n    \
             \"cold_submit_us\": {cold_us:.1},\n    \
             \"reply_render_us\": {reply_render_us:.1},\n    \
             \"cache_hit_us\": {cache_us:.1},\n    \
             \"store_hit_us\": {store_us:.1},\n    \
             \"cache_hit_speedup\": {cache_speedup:.1},\n    \
             \"store_hit_speedup\": {store_speedup:.1},\n    \
             \"concurrency\": {{\n      \"sweep\": [{sweep_json}\n      ],\n      \
             \"coalesce\": {{ \"clients\": {coalesce_clients}, \"cold_computes\": {}, \
             \"coalesced\": {} }}\n    }}\n  }},\n",
            elf_bytes.len(),
            coalesce_stats.cold,
            coalesce_stats.coalesced,
        );
        println!(
            " serve: cold {cold_us:.1} µs, cache hit {cache_us:.1} µs ({cache_speedup:.0}x), \
             store hit {store_us:.1} µs ({store_speedup:.0}x); coalesce@{coalesce_clients}: \
             {} cold, {} coalesced; reply render {reply_render_us:.1} µs",
            coalesce_stats.cold, coalesce_stats.coalesced,
        );
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
    // recompute tier (window-rewarmed full re-run) rides along as the
    // informative middle rung.
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

        let fetch = Fetch::new();
        let image_of =
            |b: &fetch_binary::Binary| ElfImage::parse(write_elf(b)).expect("own ELF parses");
        let old_image = image_of(&case.binary);
        let prev = std::sync::Arc::new(fetch.detect_image(&old_image, &mut RecEngine::new()));
        let prev_digest =
            ImageDigest::compute(&old_image.to_binary(), image_fingerprint(&old_image));

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
            let r = fetch.detect_image(&neutral_image, &mut engine);
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
            let (out, _digest) =
                fetch.detect_delta(&prev, Some(&prev_digest), &neutral_image, &mut engine);
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
        // a code address): full re-run through a window-rewarmed decode
        // cache. Informative — no bar; correctness stays asserted.
        let behavioral_image = image_of(&behavioral.binary);
        let behavioral_cold = fetch.detect_image(&behavioral_image, &mut RecEngine::new());
        let mut recompute_lat = Vec::with_capacity(delta_reps);
        for _ in 0..delta_reps {
            // Re-warm the engine to the *old* version each rep, as a
            // pooled serving engine would be.
            let _ = fetch.detect_image(&old_image, &mut engine);
            let t = Instant::now();
            let (out, _digest) =
                fetch.detect_delta(&prev, Some(&prev_digest), &behavioral_image, &mut engine);
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
    // measuring itself) must still fit the scaling group's 10 ms budget;
    // the delta vs the bare pipeline is published, not asserted (on a
    // shared host it is noise-dominated). Micro-costs are measured
    // directly: one histogram observation and one full snapshot +
    // Prometheus-style text exposition.
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
        let mut instrumented_best = f64::INFINITY;
        let mut last_service = None;
        for _ in 0..reps {
            let service = AnalysisService::new(&ServeConfig::default()).expect("obs service");
            let reply = service.handle(Request::Analyze {
                input: AnalyzeInput::Bytes(elf.clone()),
                pipeline: Pipeline::fetch(),
            });
            assert!(
                matches!(reply, Reply::Analyze(_)),
                "obs group cold analyze failed: {reply:?}"
            );
            instrumented_best = instrumented_best.min(layer_total(&service));
            last_service = Some(service);
        }
        let bare_best = total_us(large_best.as_ref().expect("large corpus ran"));
        assert!(
            instrumented_best < 10_000.0,
            "the instrumented pipeline must stay under the 10 ms budget \
             (best over {reps} reps: {instrumented_best:.1} µs)"
        );
        let overhead_pct = 100.0 * (instrumented_best - bare_best) / bare_best.max(1e-9);

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
             \"bare_pipeline_us\": {bare_best:.1},\n    \
             \"overhead_pct\": {overhead_pct:.1},\n    \"budget_us\": 10000.0,\n    \
             \"record_ns\": {record_ns:.1},\n    \"exposition_us\": {exposition_us:.1},\n    \
             \"metric_series\": {series},\n    \"exposition_bytes\": {rendered}\n  }},\n",
        );
        println!(
            "   obs: instrumented large total {instrumented_best:.1} µs \
             ({overhead_pct:+.1}% vs bare {bare_best:.1} µs), record {record_ns:.1} ns, \
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
                Fetch::new().detect_with_engine(&case.binary, engine)
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
