//! The observability reconciliation property: the `metrics` exposition
//! and the `stats` reply are **two reads of the same atomics**, so they
//! must agree *exactly* — under any worker width, any request mix, and
//! any fault plan — and every answer-path request must land in exactly
//! one outcome counter and exactly one `fetch_request_us{source="…"}`
//! histogram:
//!
//! ```text
//! requests_total == cache_hits + store_hits + delta_hits + cold
//!                 + coalesced + errors + shed_busy
//! sum(fetch_request_us{source=*}.count) == requests_total
//! ```
//!
//! A drift here means a path forgot (or double-) counted itself —
//! exactly the bug class ad-hoc mirrored counters breed.

use fetch_binary::write_elf;
use fetch_core::Pipeline;
use fetch_serve::json::Json;
use fetch_serve::protocol::{AnalyzeInput, Reply, Request, STATS_COUNTERS};
use fetch_serve::service::{AnalysisService, ServeConfig};
use fetch_serve::{FaultPlan, StatsCounter};
use fetch_synth::{synthesize, SynthConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// One generated client action.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// `analyze` of corpus binary `idx`.
    Analyze(usize),
    /// `reanalyze` of binary `idx` against whatever fingerprint
    /// `prev_of` hashes to (frequently unknown — the cold tier).
    Reanalyze(usize, usize),
    /// `query` for the fingerprint of binary `idx` (may be unknown).
    Query(usize),
    /// `analyze` of garbage bytes — a structured error.
    BadAnalyze,
    /// A transport-level shed (`note_shed_busy`).
    Shed,
}

/// Corpus seeds: a tiny pool so concurrent ops collide on keys (that is
/// what exercises coalescing and cache/store hits).
const SEEDS: [u64; 3] = [401, 402, 403];

fn corpus() -> Vec<Vec<u8>> {
    SEEDS
        .iter()
        .map(|s| write_elf(&synthesize(&SynthConfig::small(*s)).binary))
        .collect()
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3).prop_map(Op::Analyze),
        ((0usize..3), (0usize..3)).prop_map(|(a, b)| Op::Reanalyze(a, b)),
        (0usize..3).prop_map(Op::Query),
        Just(Op::BadAnalyze),
        Just(Op::Shed),
    ]
}

/// Fault plans the matrix draws from — every site class represented,
/// including the empty plan.
const PLANS: [&str; 6] = [
    "",
    "store.save=io#2",
    "store.load=corrupt#2",
    "service.compute=io#1",
    "store.save=short#1,store.load=io#1",
    "service.compute=stall:5#2,store.save=io#1",
];

fn scratch_dir(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fetch-serve-obsrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads `name` out of the metrics JSON as a plain counter value.
fn metric(json: &Json, name: &str) -> u64 {
    json.get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metric {name:?} missing from exposition: {json}"))
}

/// Sums the `count` field of every `fetch_request_us{…}` histogram.
fn request_histogram_total(json: &Json) -> u64 {
    let Json::Obj(map) = json else {
        panic!("metrics reply is not an object")
    };
    map.iter()
        .filter(|(name, _)| name.starts_with("fetch_request_us{"))
        .map(|(name, v)| {
            v.get("count")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("histogram {name:?} has no count"))
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random request mixes at random worker widths under random fault
    /// plans: `stats` and `metrics` reconcile exactly, the outcome
    /// counters partition `requests_total`, and the per-source latency
    /// histograms account for every request exactly once.
    #[test]
    fn metrics_and_stats_reconcile_exactly(
        ops in proptest::collection::vec(arb_op(), 12..40),
        workers in 1usize..5,
        plan_idx in 0usize..PLANS.len(),
    ) {
        let corpus = corpus();
        let dir = scratch_dir(plan_idx as u64 * 100 + workers as u64);
        let plan = Arc::new(FaultPlan::parse(PLANS[plan_idx]).unwrap());
        let service = AnalysisService::new(&ServeConfig {
            store_dir: Some(dir.join("store")),
            // A tiny cache forces evictions, so store hits happen too.
            cache_capacity: fetch_core::CacheCapacity::entries(2),
            faults: plan,
            ..ServeConfig::default()
        })
        .unwrap();

        // Pre-learn one fingerprint so some queries and reanalyzes hit.
        let known_fp = match service.handle(Request::Analyze {
            input: AnalyzeInput::Bytes(corpus[0].clone()),
            pipeline: Pipeline::fetch(),
        }) {
            Reply::Analyze(a) => a.fingerprint,
            // An armed compute fault may fail the warm-up; any later
            // query for this fingerprint then just counts as an error.
            _ => 0x1234_5678,
        };

        std::thread::scope(|scope| {
            for chunk in ops.chunks(ops.len().div_ceil(workers)) {
                let service = &service;
                let corpus = &corpus;
                scope.spawn(move || {
                    for op in chunk {
                        match op {
                            Op::Analyze(i) => {
                                service.handle(Request::Analyze {
                                    input: AnalyzeInput::Bytes(corpus[*i].clone()),
                                    pipeline: Pipeline::fetch(),
                                });
                            }
                            Op::Reanalyze(i, prev) => {
                                service.handle(Request::Reanalyze {
                                    prev_fingerprint: if *prev == 0 {
                                        known_fp
                                    } else {
                                        *prev as u64
                                    },
                                    input: AnalyzeInput::Bytes(corpus[*i].clone()),
                                    pipeline: Pipeline::fetch(),
                                });
                            }
                            Op::Query(i) => {
                                service.handle(Request::Query {
                                    fingerprint: if *i == 0 { known_fp } else { *i as u64 },
                                    pipeline_id: Pipeline::fetch().id(),
                                });
                            }
                            Op::BadAnalyze => {
                                service.handle(Request::Analyze {
                                    input: AnalyzeInput::Bytes(vec![0u8; 16]),
                                    pipeline: Pipeline::fetch(),
                                });
                            }
                            Op::Shed => service.note_shed_busy(),
                        }
                    }
                });
            }
        });

        let stats = service.stats();
        let c = |counter| stats.counter(counter);

        // The partition identity: every answer-path request lands in
        // exactly one outcome bucket.
        prop_assert_eq!(
            c(StatsCounter::RequestsTotal),
            c(StatsCounter::CacheHits)
                + c(StatsCounter::StoreHits)
                + c(StatsCounter::DeltaHits)
                + c(StatsCounter::Cold)
                + c(StatsCounter::Coalesced)
                + c(StatsCounter::Errors)
                + c(StatsCounter::ShedBusy),
            "outcome counters must partition requests_total: {:?}",
            stats.counters
        );

        // The exposition reads the same atomics — equal by construction,
        // asserted anyway (a mirrored counter would drift here).
        let metrics = match service.handle(Request::Metrics) {
            Reply::Metrics(m) => m.metrics,
            other => panic!("metrics reply: {other:?}"),
        };
        for (spec, &value) in STATS_COUNTERS.iter().zip(&stats.counters) {
            prop_assert_eq!(metric(&metrics, spec.metric), value, "{}", spec.metric);
        }
        prop_assert_eq!(metric(&metrics, "fetch_faults_injected_total"), stats.faults_injected);
        prop_assert_eq!(
            metric(&metrics, "fetch_cache_hits_total"),
            stats.cache.hits,
            "core cache counters are registry-backed too"
        );

        // Latency accounting: one histogram observation per request.
        prop_assert_eq!(
            request_histogram_total(&metrics),
            c(StatsCounter::RequestsTotal),
            "every request must be timed into exactly one source histogram"
        );

        // Dropping the service drains its pending store saves.
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
