//! `daemonbench`: the daemon-level benchmark of `fetch-serve`.
//!
//! ```text
//! daemonbench --daemon PATH --workload (cold_scan|warm_repeat|rebuild_chain|all)
//!             --seed N --seconds S --trace (0|1)
//! ```
//!
//! It drives the shipped `fetch-serve daemon` binary (`--daemon`) over
//! its Unix socket from this one process, checks every reply against a
//! cold `Pipeline::fetch().run` of the same image, cross-checks the
//! workload's shape against the daemon's `stats`, and prints one JSON
//! object as the last line of stdout. With `--trace 0` it holds the
//! end-to-end metrics; with `--trace 1` the per-layer metrics of a
//! traced in-process replay of the same requests. End-to-end timings are
//! reported net of host steal (see `steal.rs`). Lines before it start
//! with `#` and describe the inputs and the run. `README.md` documents
//! the workloads and what each metric should move.
//!
//! Scratch files live under `.bench_work/` in the working directory and
//! are removed at the end; traced runs leave their spans in
//! `.bench_out/`.

mod daemon;
mod drive;
mod gen;
mod stats;
mod steal;
mod trace;

use daemon::{stat, Daemon, ProcSample};
use drive::Phase;
use fetch_binary::{write_elf, ElfImage, TestCase};
use fetch_core::{image_fingerprint, Pipeline};
use fetch_serve::json::Json;
use fetch_serve::protocol::{hex_u64, result_json};
use gen::{Chains, Workload};
use stats::{median, percentile};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `--cache-capacity` on cold_scan and rebuild_chain. The cache is never
/// hit on cold_scan and holds every chain head on rebuild_chain; the
/// bound keeps peak RSS a measure of per-request memory rather than of
/// how many results a timed phase happened to accumulate.
const SERVE_CACHE: usize = 64;
/// Concurrent clients on warm_repeat.
const WARM_CLIENTS: usize = 2;
/// Threads that compute the reference answers after the timed phase: one
/// per vCPU of the 2-vCPU host the numbers are quoted on.
const VERIFY_THREADS: usize = 2;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workloads, mut seed, mut seconds, mut trace, mut daemon) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a positive number of seconds")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        daemon: daemon.ok_or("--daemon is required")?,
    })
}

/// A workload's inputs as generated by set-up.
enum Inputs {
    /// ELF images, sent inline. Held in memory, not on disk, so that no
    /// writeback of them runs during the timed phase.
    Cold(Vec<Vec<u8>>),
    /// The working set, its request lines, and the drawn stream.
    Warm {
        cases: Vec<TestCase>,
        lines: Vec<String>,
        stream: Vec<u32>,
    },
    /// Version chains.
    Chain(Chains),
}

struct Setup {
    inputs: Inputs,
    daemon: Daemon,
    /// Requests sent during set-up (the traced replay repeats them).
    prefill: Vec<String>,
    summary: String,
    at_end: ProcSample,
}

/// One run of one workload.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<trace::Metric>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: daemonbench --daemon PATH --workload NAME|all --seed N --seconds S --trace 0|1");
        exit(2)
    });
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let work = PathBuf::from(".bench_work").join(format!("{}-s{}", w.name(), args.seed));
        let result = run_workload(&args, w, &work);
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(".bench_work");
        match result {
            Ok(outcome) => outcomes.push((w, outcome)),
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                exit(2)
            }
        }
    }
    let prefix = outcomes.len() > 1;
    let mut metrics = String::new();
    for (w, o) in &outcomes {
        for (name, value, unit) in &o.metrics {
            let key = if prefix {
                format!("{}.{name}", w.name())
            } else {
                name.to_string()
            };
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if metrics.is_empty() { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{key}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
    }
    let correct = outcomes.iter().all(|(_, o)| o.correct);
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        outcomes.iter().map(|(_, o)| o.attempted).sum::<usize>(),
        outcomes.iter().map(|(_, o)| o.failed).sum::<usize>(),
    );
    exit(if correct { 0 } else { 1 })
}

fn run_workload(args: &Args, w: Workload, work: &Path) -> Result<Outcome, String> {
    let seconds = if args.trace {
        (args.seconds / 2.0).max(1.0)
    } else {
        args.seconds
    };
    let reps = if args.trace { 1 } else { SETUP_REPS };
    // Wall time of each set-up, and the same net of host steal.
    let (mut setup_raw_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut setup = None;
    for rep in 0..reps {
        if let Some(previous) = setup.take() {
            let Setup { daemon, .. } = previous;
            daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
        let _ = std::fs::remove_dir_all(work);
        let cpu_before = steal::read();
        let t0 = Instant::now();
        setup = Some(set_up(args, w, work, seconds).map_err(|e| format!("set-up {rep}: {e}"))?);
        let wall = t0.elapsed().as_secs_f64();
        setup_raw_s.push(wall);
        setup_s.push(wall * (1.0 - steal::share(&cpu_before, &steal::read())));
    }
    let setup = setup.expect("at least one set-up");
    println!("# {} seed={} {}", w.name(), args.seed, setup.summary);

    let before = setup.daemon.stats().map_err(|e| format!("stats: {e}"))?;
    let cpu_before = setup.daemon.sample().map_err(|e| e.to_string())?;
    let phase = timed(&setup, args.seed, seconds)?;
    let at_end = setup.daemon.sample().map_err(|e| e.to_string())?;
    let after = setup.daemon.stats().map_err(|e| format!("stats: {e}"))?;

    let verdict = verify(&setup, args.seed, &phase);
    let mut problems = cross_check(w, &setup, &before, &after, &phase);
    problems.extend(verdict.first_failure.clone());
    let ok: Vec<f64> = phase
        .samples
        .iter()
        .filter_map(|s| s.latency.map(|l| l.as_secs_f64() * 1e3))
        .collect();
    // warm_repeat mostly waits on the accept poll, which steal does not
    // stretch: its timings are reported as measured.
    let net = match w {
        Workload::WarmRepeat => steal::Net::as_measured(&phase),
        _ => steal::net(&phase),
    };
    let answered = phase.samples.len() - verdict.failed;
    let cpu_ms_per_req = (at_end.cpu_s - cpu_before.cpu_s) * 1e3 / answered.max(1) as f64;
    let kind_line = match &setup.inputs {
        Inputs::Chain(chains) => {
            let [n, b, r] = chains.kind_counts(phase.samples.len());
            format!(" sent_patches neutral/behavioral/resize={n}/{b}/{r}")
        }
        _ => String::new(),
    };
    println!(
        "# timed phase: {:.2} s, {} requests sent, {} failed, {} beyond p95{kind_line}",
        phase.elapsed.as_secs_f64(),
        phase.samples.len(),
        verdict.failed,
        ok.len() - (ok.len() as f64 * 0.95).ceil() as usize,
    );
    println!(
        "# daemon: VmHWM {:.1} MiB after set-up, {:.1} MiB after the timed phase; {:.2} ms CPU per request; \
         store {} entries, {} bytes on disk; stats delta cold={} cache_hits={} store_hits={} delta_hits={} \
         fallback_cold={} digest_mismatch={} evictions={}",
        setup.at_end.peak_rss_mib,
        at_end.peak_rss_mib,
        cpu_ms_per_req,
        stat(&after, "store.entries"),
        stat(&after, "store.disk_bytes"),
        stat(&after, "requests.cold") - stat(&before, "requests.cold"),
        stat(&after, "requests.cache_hits") - stat(&before, "requests.cache_hits"),
        stat(&after, "requests.store_hits") - stat(&before, "requests.store_hits"),
        stat(&after, "delta.delta_hits") - stat(&before, "delta.delta_hits"),
        stat(&after, "delta.fallback_cold") - stat(&before, "delta.fallback_cold"),
        stat(&after, "delta.digest_mismatch") - stat(&before, "delta.digest_mismatch"),
        stat(&after, "cache.evictions") - stat(&before, "cache.evictions"),
    );
    println!(
        "# host steal taken out: {:.1}% of the timed phase; as measured: latency p50 {:.3} ms, \
         p95 {:.3} ms, {:.2} requests/s, set-up {:.3} s",
        net.share * 100.0,
        median(&ok),
        percentile(&ok, 95.0),
        answered as f64 / phase.elapsed.as_secs_f64(),
        median(&setup_raw_s),
    );
    for p in &problems {
        println!("# FAILED CHECK: {p}");
    }
    let mut outcome = Outcome {
        correct: problems.is_empty() && verdict.failed == 0 && !phase.samples.is_empty(),
        attempted: phase.samples.len(),
        failed: verdict.failed,
        metrics: Vec::new(),
    };
    if !args.trace {
        let (tp, fp, fn_) = verdict.score;
        outcome.metrics = vec![
            ("setup_s", median(&setup_s), "s"),
            ("latency_p50_ms", median(&net.latencies_ms), "ms"),
            ("latency_p95_ms", percentile(&net.latencies_ms, 95.0), "ms"),
            (
                "throughput_rps",
                answered as f64 / net.elapsed_s,
                "1/s",
            ),
            ("daemon_peak_rss_mib", at_end.peak_rss_mib, "MiB"),
            (
                "start_precision",
                tp as f64 / (tp + fp).max(1) as f64,
                "ratio",
            ),
            (
                "start_recall",
                tp as f64 / (tp + fn_).max(1) as f64,
                "ratio",
            ),
        ];
        return Ok(outcome);
    }
    if !outcome.correct {
        return Ok(outcome);
    }

    let seed = args.seed;
    let n = phase.samples.len();
    let requests = |emit: &mut dyn FnMut(usize, String)| match &setup.inputs {
        Inputs::Cold(elfs) => {
            for (i, elf) in elfs[..n].iter().enumerate() {
                emit(gen::cold_size(i), gen::analyze_bytes_line(elf.clone()));
            }
        }
        Inputs::Warm { lines, stream, .. } => {
            for s in &phase.samples {
                emit(0, lines[stream[s.index] as usize].clone());
            }
        }
        Inputs::Chain(chains) => {
            let mut cursor = chains.cursor();
            for _ in 0..n {
                let (version, elf) = cursor.next_version().expect("the stream covers the phase");
                emit(
                    chains.sizes[version.chain],
                    gen::reanalyze_line(version, elf),
                );
            }
        }
    };
    let replay = trace::Replay {
        prefill: &setup.prefill,
        requests: &requests,
        expected: &verdict.expected,
        cache_entries: cache_entries(w),
    };
    let facts = trace::SocketFacts {
        latency_p50_ms: median(&ok),
        cpu_ms_per_req,
        store_disk_kib: stat(&after, "store.disk_bytes") as f64 / 1024.0,
    };
    std::fs::create_dir_all(".bench_out").map_err(|e| e.to_string())?;
    let spans = PathBuf::from(".bench_out").join(format!("spans-{}-s{seed}.jsonl", w.name()));
    let (metrics, report) = trace::run(&replay, work, &facts, &spans)?;
    print!("{report}");
    outcome.metrics = metrics;
    Ok(outcome)
}

fn cache_entries(w: Workload) -> usize {
    match w {
        Workload::WarmRepeat => gen::WARM_CACHE,
        _ => SERVE_CACHE,
    }
}

/// Generates the inputs, writes the ELF files, starts the daemon and
/// sends the workload's pre-fill: everything `setup_s` covers.
fn set_up(args: &Args, w: Workload, work: &Path, seconds: f64) -> Result<Setup, String> {
    let io = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(work).map_err(io)?;
    let seed = args.seed;
    let bands = |sizes: &mut dyn Iterator<Item = usize>| {
        let mut b = [0; 3];
        for n in sizes {
            b[usize::from(n >= gen::SMALL_BELOW) + usize::from(n >= gen::LARGE_FROM)] += 1;
        }
        format!(
            "bands(<{}/mid/>={})={}/{}/{}",
            gen::SMALL_BELOW,
            gen::LARGE_FROM,
            b[0],
            b[1],
            b[2]
        )
    };
    let (inputs, prefill, summary) = match w {
        Workload::ColdScan => {
            let count = gen::cold_count(seconds);
            let elfs: Vec<Vec<u8>> = (0..count)
                .map(|i| write_elf(&gen::cold_case(seed, i).binary))
                .collect();
            let summary = format!(
                "binaries={count} functions={}..{} {} total_bytes={}",
                gen::COLD_SIZES.0,
                gen::COLD_SIZES.1,
                bands(&mut (0..count).map(gen::cold_size)),
                elfs.iter().map(Vec::len).sum::<usize>()
            );
            (Inputs::Cold(elfs), Vec::new(), summary)
        }
        Workload::WarmRepeat => {
            let dir = work.join("set");
            std::fs::create_dir_all(&dir).map_err(io)?;
            let cases: Vec<TestCase> = (0..gen::WARM_SET)
                .map(|i| gen::warm_case(seed, i))
                .collect();
            let mut lines = Vec::new();
            let mut bytes = 0;
            for (i, case) in cases.iter().enumerate() {
                let path = dir.join(format!("{i}.elf"));
                let elf = write_elf(&case.binary);
                bytes += elf.len();
                std::fs::write(&path, elf).map_err(io)?;
                lines.push(gen::analyze_path_line(&path));
            }
            let stream =
                gen::zipf_stream(seed, (seconds * gen::WARM_DRAWS_PER_SEC as f64) as usize);
            let summary = format!(
                "binaries={} functions={}..{} {} total_bytes={bytes} cache_capacity={} zipf_s=1 drawn={}",
                gen::WARM_SET,
                gen::WARM_SIZES.0,
                gen::WARM_SIZES.1,
                bands(&mut (0..gen::WARM_SET).map(gen::warm_size)),
                gen::WARM_CACHE,
                stream.len()
            );
            let prefill = lines.clone();
            (
                Inputs::Warm {
                    cases,
                    lines,
                    stream,
                },
                prefill,
                summary,
            )
        }
        Workload::RebuildChain => {
            let chains = Chains::generate(seed, seconds);
            let [n, b, r] = chains.kind_counts(usize::MAX);
            let summary = format!(
                "chains={} functions={}..{} {} base_bytes={} versions={} patches neutral/behavioral/resize={n}/{b}/{r}",
                gen::CHAINS,
                gen::CHAIN_SIZES.0,
                gen::CHAIN_SIZES.1,
                bands(&mut chains.sizes.iter().copied()),
                chains.base_elfs.iter().map(Vec::len).sum::<usize>(),
                chains.versions.len(),
            );
            let prefill = chains
                .base_elfs
                .iter()
                .map(|e| gen::analyze_bytes_line(e.clone()))
                .collect();
            (Inputs::Chain(chains), prefill, summary)
        }
    };
    let daemon = Daemon::spawn(
        &args.daemon,
        &work.join("d.sock"),
        &work.join("store"),
        cache_entries(w),
        &work.join("daemon.log"),
    )
    .map_err(|e| format!("daemon: {e}"))?;
    let mut conn = daemon.connect().map_err(io)?;
    let mut reply = String::new();
    for line in &prefill {
        conn.request(line, &mut reply).map_err(io)?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("pre-fill request failed: {}", reply.trim()));
        }
    }
    let at_end = daemon.sample().map_err(io)?;
    Ok(Setup {
        inputs,
        daemon,
        prefill,
        summary,
        at_end,
    })
}

/// The timed phase over the socket.
fn timed(setup: &Setup, seed: u64, seconds: f64) -> Result<Phase, String> {
    let daemon = &setup.daemon;
    let io = |e: std::io::Error| e.to_string();
    match &setup.inputs {
        Inputs::Cold(elfs) => {
            let mut inputs = elfs.iter().enumerate();
            drive::persistent(daemon, seconds, || {
                inputs
                    .next()
                    .map(|(i, elf)| (i, gen::analyze_bytes_line(elf.clone())))
            })
            .map_err(io)
        }
        Inputs::Warm { lines, stream, .. } => {
            let think = |k| gen::think_time(seed, k);
            Ok(drive::per_connection(
                daemon,
                WARM_CLIENTS,
                seconds,
                lines,
                stream,
                &think,
            ))
        }
        Inputs::Chain(chains) => {
            let mut cursor = chains.cursor();
            let mut k = 0;
            drive::persistent(daemon, seconds, || {
                let (version, elf) = cursor.next_version()?;
                k += 1;
                Some((k - 1, gen::reanalyze_line(version, elf)))
            })
            .map_err(io)
        }
    }
}

/// Correctness of the timed phase's replies.
struct Verdict {
    failed: usize,
    first_failure: Option<String>,
    /// True positives, false positives, false negatives of the replies'
    /// starts against the synthesizer's ground truth.
    score: (usize, usize, usize),
    /// Each request's expected `result`, rendered (empty when failed).
    expected: Vec<String>,
}

/// What one reply must match.
struct Reference<'a> {
    /// The image's content fingerprint.
    fp: u64,
    /// The `result` of a cold `Pipeline::fetch().run`.
    expected: Json,
    /// The reply `source`s the workload allows.
    sources: &'static [&'static str],
    /// The ground truth the reply's starts are scored against.
    case: Cow<'a, TestCase>,
}

/// The fingerprint and cold `result` of an image.
fn cold_reference(elf: Vec<u8>) -> (u64, Json) {
    let image = ElfImage::parse(elf).expect("benchmark inputs are valid ELF");
    let result = Pipeline::fetch().run(&image.to_binary());
    (image_fingerprint(&image), result_json(&result))
}

/// The references of the phase's samples `t`, `t + VERIFY_THREADS`, ….
fn references<'a>(
    inputs: &'a Inputs,
    seed: u64,
    samples: &[drive::Sample],
    t: usize,
) -> Vec<Reference<'a>> {
    let mine = (t..samples.len()).step_by(VERIFY_THREADS);
    match inputs {
        Inputs::Cold(_) => mine
            .map(|k| {
                let case = gen::cold_case(seed, samples[k].index);
                let (fp, expected) = cold_reference(write_elf(&case.binary));
                Reference {
                    fp,
                    expected,
                    sources: &["cold"],
                    case: Cow::Owned(case),
                }
            })
            .collect(),
        Inputs::Warm { cases, stream, .. } => {
            let mut memo: Vec<Option<(u64, Json)>> = vec![None; gen::WARM_SET];
            mine.map(|k| {
                let item = stream[samples[k].index] as usize;
                let (fp, expected) = memo[item]
                    .get_or_insert_with(|| cold_reference(write_elf(&cases[item].binary)))
                    .clone();
                Reference {
                    fp,
                    expected,
                    sources: &["cache", "store"],
                    case: Cow::Borrowed(&cases[item]),
                }
            })
            .collect()
        }
        Inputs::Chain(chains) => {
            // Sample k is version k; every thread replays the whole chain
            // stream (cheap) and computes the references of its share.
            let mut cursor = chains.cursor();
            let mut refs = Vec::new();
            for k in 0..samples.len() {
                let (version, elf) = cursor.next_version().expect("the stream covers the phase");
                if k % VERIFY_THREADS != t {
                    continue;
                }
                let (fp, expected) = cold_reference(elf.to_vec());
                refs.push(Reference {
                    fp,
                    expected,
                    sources: match version.kind {
                        fetch_synth::PatchKind::Neutral => &["delta"],
                        _ => &["cold"],
                    },
                    case: Cow::Borrowed(&chains.bases[version.chain]),
                });
            }
            refs
        }
    }
}

/// Checks every reply against a cold `Pipeline::fetch().run` of the same
/// image (computed here, after the timed phase, on `VERIFY_THREADS`
/// threads while the daemon is idle) and scores its starts.
fn verify(setup: &Setup, seed: u64, phase: &Phase) -> Verdict {
    let mut v = Verdict {
        failed: 0,
        first_failure: None,
        score: (0, 0, 0),
        expected: Vec::new(),
    };
    let samples = &phase.samples;
    let inputs = &setup.inputs;
    let shares: Vec<Vec<Reference>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..VERIFY_THREADS)
            .map(|t| scope.spawn(move || references(inputs, seed, samples, t)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("verify thread panicked"))
            .collect()
    });
    let mut shares: Vec<_> = shares.into_iter().map(Vec::into_iter).collect();
    for (k, sample) in samples.iter().enumerate() {
        let Reference {
            fp,
            expected,
            sources,
            case,
        } = shares[k % VERIFY_THREADS]
            .next()
            .expect("a reference per sample");
        match check_reply(sample, fp, sources, &expected) {
            Ok(starts) => {
                let e = fetch_metrics::evaluate(&starts, &case);
                v.score.0 += e.true_positives;
                v.score.1 += e.false_positives;
                v.score.2 += e.false_negatives;
                v.expected.push(expected.to_string());
            }
            Err(why) => {
                v.failed += 1;
                v.first_failure
                    .get_or_insert_with(|| format!("request {}: {why}", sample.index));
                v.expected.push(String::new());
            }
        }
    }
    v
}

/// Checks one reply; returns the starts it reports.
fn check_reply(
    sample: &drive::Sample,
    fp: u64,
    sources: &[&str],
    expected: &Json,
) -> Result<BTreeSet<u64>, String> {
    if sample.latency.is_none() {
        return Err("transport failure or timeout".into());
    }
    let reply = Json::parse(sample.reply.trim()).map_err(|e| format!("unparsable reply: {e}"))?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error reply: {}", sample.reply.trim()));
    }
    let source = reply.get("source").and_then(Json::as_str).unwrap_or("");
    if !sources.contains(&source) {
        return Err(format!(
            "answered from {source:?}, expected one of {sources:?}"
        ));
    }
    if reply.get("fingerprint").and_then(Json::as_str) != Some(hex_u64(fp).as_str()) {
        return Err("wrong fingerprint".into());
    }
    let result = reply.get("result").ok_or("reply without a result")?;
    if result != expected {
        return Err("result differs from a cold Pipeline::fetch().run".into());
    }
    Ok(result
        .get("starts")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            s.as_arr()?
                .first()?
                .as_str()
                .and_then(fetch_serve::protocol::parse_hex_u64)
        })
        .collect())
}

/// Fails the run when the daemon's own counters say the workload did not
/// do what it claims.
fn cross_check(
    w: Workload,
    setup: &Setup,
    before: &Json,
    after: &Json,
    phase: &Phase,
) -> Vec<String> {
    let d = |path: &str| stat(after, path) - stat(before, path);
    let sent = phase.samples.len() as u64;
    let mut problems = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    expect(
        d("requests.errors") == 0,
        format!("{} error replies", d("requests.errors")),
    );
    match (w, &setup.inputs) {
        (Workload::ColdScan, _) => expect(
            d("requests.cold") == sent,
            format!("cold {} != {sent} requests", d("requests.cold")),
        ),
        (Workload::WarmRepeat, _) => {
            expect(
                d("requests.cold") == 0,
                format!("cold {} != 0", d("requests.cold")),
            );
            expect(d("requests.cache_hits") > 0, "no cache hits".into());
            expect(d("requests.store_hits") > 0, "no store hits".into());
        }
        (Workload::RebuildChain, Inputs::Chain(chains)) => {
            let [n, b, r] = chains.kind_counts(phase.samples.len()).map(|k| k as u64);
            for (counter, want, kind) in [
                ("delta.delta_hits", n, "neutral"),
                ("delta.fallback_cold", b, "behavioral"),
                ("delta.digest_mismatch", r, "resize"),
            ] {
                expect(
                    d(counter) == want,
                    format!("{counter} {} != {want} {kind} patches", d(counter)),
                );
            }
        }
        (Workload::RebuildChain, _) => unreachable!("rebuild_chain inputs are chains"),
    }
    problems
}
