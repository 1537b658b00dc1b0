//! Criterion benchmark: cost of each FETCH pipeline stage, of the
//! underlying substrates (decode, eh_frame parse, synthesis), and of the
//! incremental-recursion engine against its from-scratch reference.

use criterion::{criterion_group, criterion_main, Criterion};
use fetch_core::{CallFrameRepair, DetectionState, LayerSpec, Provenance};
use fetch_disasm::{recursive_disassemble, sweep_tolerant, ErrorCallPolicy, RecOptions};
use fetch_synth::{synthesize, SynthConfig};
use std::collections::BTreeSet;
use std::hint::black_box;

const FDE: LayerSpec = LayerSpec::FdeSeeds;
const REC: LayerSpec = LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero);
const XREF: LayerSpec = LayerSpec::PointerScan;

fn pipeline_stages(c: &mut Criterion) {
    let mut cfg = SynthConfig::small(2002);
    cfg.n_funcs = 120;
    cfg.rates.split_cold = 0.08;
    let case = synthesize(&cfg);
    let bin = &case.binary;

    let mut group = c.benchmark_group("pipeline_stages");
    group.sample_size(20);

    group.bench_function("synthesize_binary", |b| {
        b.iter(|| black_box(synthesize(black_box(&cfg))))
    });

    group.bench_function("parse_eh_frame", |b| {
        b.iter(|| black_box(bin.eh_frame().unwrap()))
    });

    group.bench_function("fde_seeds", |b| {
        b.iter(|| {
            let mut st = DetectionState::new(bin);
            FDE.apply(&mut st);
            black_box(st.starts().len())
        })
    });

    group.bench_function("safe_recursion", |b| {
        b.iter(|| {
            let mut st = DetectionState::new(bin);
            FDE.apply(&mut st);
            REC.apply(&mut st);
            black_box(st.rec().disasm.len())
        })
    });

    group.bench_function("pointer_scan", |b| {
        b.iter(|| {
            let mut st = DetectionState::new(bin);
            FDE.apply(&mut st);
            REC.apply(&mut st);
            XREF.apply(&mut st);
            black_box(st.starts().len())
        })
    });

    group.bench_function("call_frame_repair", |b| {
        b.iter(|| {
            let mut st = DetectionState::new(bin);
            FDE.apply(&mut st);
            REC.apply(&mut st);
            XREF.apply(&mut st);
            black_box(CallFrameRepair::default().repair(&mut st).merged.len())
        })
    });

    group.bench_function("linear_sweep_text", |b| {
        let text = bin.text();
        b.iter(|| black_box(sweep_tolerant(&text.bytes, text.addr).len()))
    });

    // Dense-store decode throughput: one full from-scratch recursive
    // walk (engine + cache construction included), no state reuse.
    group.bench_function("dense_recursive_walk", |b| {
        let seeds: BTreeSet<u64> = bin.eh_frame().unwrap().pc_begins().into_iter().collect();
        let opts = RecOptions::default();
        b.iter(|| black_box(recursive_disassemble(bin, &seeds, &opts).disasm.len()))
    });

    group.finish();
}

/// The layer-boundary re-run cost the incremental engine exists for:
/// a state that already ran `FDE + Rec` re-runs recursion after a few
/// new starts appear, incrementally vs from scratch.
fn incremental_rerun(c: &mut Criterion) {
    let mut cfg = SynthConfig::small(2002);
    cfg.n_funcs = 120;
    cfg.rates.split_cold = 0.08;
    let case = synthesize(&cfg);
    let bin = &case.binary;

    let prepared = {
        let mut st = DetectionState::new(bin);
        FDE.apply(&mut st);
        REC.apply(&mut st);
        st
    };
    // A few genuinely new seeds the FDE+Rec state has not explored.
    let extra: Vec<u64> = bin
        .symbols
        .iter()
        .map(|s| s.addr)
        .filter(|a| bin.is_code(*a) && !prepared.starts().contains_key(a))
        .take(3)
        .collect();

    let mut group = c.benchmark_group("incremental_rerun");
    group.sample_size(30);

    group.bench_function("engine", |b| {
        b.iter(|| {
            let mut st = prepared.clone();
            for &a in &extra {
                st.add_start(a, Provenance::Symbol);
            }
            st.run_recursion(true, ErrorCallPolicy::SliceZero);
            black_box(st.rec().disasm.len())
        })
    });

    group.bench_function("from_scratch", |b| {
        let mut reference = DetectionState::new_reference(bin);
        FDE.apply(&mut reference);
        REC.apply(&mut reference);
        b.iter(|| {
            let mut st = reference.clone();
            for &a in &extra {
                st.add_start(a, Provenance::Symbol);
            }
            st.run_recursion(true, ErrorCallPolicy::SliceZero);
            black_box(st.rec().disasm.len())
        })
    });

    group.finish();
}

/// The non-return fixpoint on a corpus rich in `error` calls and
/// noreturn functions (multiple classification rounds), incremental
/// engine vs from-scratch reference.
fn noreturn_fixpoint(c: &mut Criterion) {
    let mut cfg = SynthConfig::small(2003);
    cfg.n_funcs = 150;
    cfg.rates.error_calls = 0.15;
    cfg.rates.noreturn = 0.06;
    let case = synthesize(&cfg);
    let bin = &case.binary;

    let mut group = c.benchmark_group("noreturn_fixpoint");
    group.sample_size(20);

    group.bench_function("engine", |b| {
        b.iter(|| {
            let mut st = DetectionState::new(bin);
            FDE.apply(&mut st);
            REC.apply(&mut st);
            black_box(st.rec().noreturn.len())
        })
    });

    group.bench_function("from_scratch", |b| {
        b.iter(|| {
            let mut st = DetectionState::new_reference(bin);
            FDE.apply(&mut st);
            REC.apply(&mut st);
            black_box(st.rec().noreturn.len())
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    pipeline_stages,
    incremental_rerun,
    noreturn_fixpoint
);
criterion_main!(benches);
