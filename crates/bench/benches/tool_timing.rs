//! Criterion benchmark behind Table V: per-tool analysis time on one
//! representative mid-size binary.

use criterion::{criterion_group, criterion_main, Criterion};
use fetch_disasm::RecEngine;
use fetch_synth::{synthesize, SynthConfig};
use fetch_tools::{run_tool, Tool};
use std::hint::black_box;

fn tool_timing(c: &mut Criterion) {
    let mut cfg = SynthConfig::small(1001);
    cfg.n_funcs = 120;
    cfg.rates.split_cold = 0.06;
    cfg.rates.data_in_text = 0.08;
    let case = synthesize(&cfg);

    let mut group = c.benchmark_group("tool_timing");
    group.sample_size(10);
    for tool in Tool::ALL {
        if run_tool(tool, &case.binary, &mut RecEngine::new()).is_none() {
            continue;
        }
        group.bench_function(tool.name(), |b| {
            b.iter(|| {
                black_box(run_tool(
                    tool,
                    black_box(&case.binary),
                    &mut RecEngine::new(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, tool_timing);
criterion_main!(benches);
