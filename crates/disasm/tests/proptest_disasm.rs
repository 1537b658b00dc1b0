//! Property tests over the disassembly engines: the safety guarantees of
//! §IV-C must hold on arbitrary synthetic corpora.

use fetch_disasm::{
    body_of, code_xrefs, function_extents, recursive_disassemble, sweep_tolerant, RecEngine,
    RecOptions, RecResult,
};
use fetch_synth::{synthesize, FeatureRates, SynthConfig};
use fetch_x64::Flow;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (any::<u64>(), 20usize..70, 0.0f64..0.15, 0usize..12).prop_map(|(seed, n_funcs, split, asm)| {
        let mut cfg = SynthConfig::small(seed);
        cfg.n_funcs = n_funcs;
        cfg.rates = FeatureRates {
            split_cold: split,
            asm_funcs: asm,
            ..FeatureRates::default()
        };
        cfg
    })
}

/// `items` each kept with probability `num / 8`, drawn from `bits`.
fn subset(items: &[u64], mut bits: u64, num: u64) -> BTreeSet<u64> {
    items
        .iter()
        .copied()
        .filter(|_| {
            // xorshift64: a fresh draw per item.
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            bits % 8 < num
        })
        .collect()
}

/// Everything a walk produces, in a comparable form.
fn observe(r: &RecResult) -> (Vec<u64>, Vec<u64>, String, BTreeSet<u64>, BTreeSet<u64>) {
    let mut errors: Vec<u64> = r.disasm.decode_errors.iter().map(|&(a, _)| a).collect();
    errors.sort_unstable();
    (
        r.disasm.iter().map(|i| i.addr).collect(),
        errors,
        format!("{:?}", r.disasm.jump_tables),
        r.functions.clone(),
        r.noreturn.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Growing the seed set engine-side extends the previous walk in
    /// place; a from-scratch run over the union must agree on every
    /// observable. The added seeds include arbitrary decoded addresses,
    /// so they land mid-block as often as on block heads, and `error`
    /// call sites, whose status the walk reads from the code before them.
    #[test]
    fn engine_extension_matches_from_scratch(
        cfg in arb_config(),
        base_bits in any::<u64>(),
        added_bits in any::<u64>(),
    ) {
        let case = synthesize(&cfg);
        let fdes = case.binary.eh_frame().unwrap().pc_begins();
        let opts = RecOptions {
            error_funcs: Arc::new(
                case.binary
                    .symbols
                    .iter()
                    .filter(|s| s.name == "error" || s.name == "error_at_line")
                    .map(|s| s.addr)
                    .collect(),
            ),
            ..RecOptions::default()
        };
        let all: BTreeSet<u64> = fdes.iter().copied().collect();
        let full = recursive_disassemble(&case.binary, &all, &opts);
        let decoded: Vec<u64> = full.disasm.iter().map(|i| i.addr).collect();
        let error_calls: Vec<u64> = full
            .disasm
            .iter()
            .filter(|i| matches!(i.flow(), Flow::Call(t) if opts.error_funcs.contains(&t)))
            .map(|i| i.addr)
            .collect();
        let base = subset(&fdes, base_bits | 1, 4);
        let mut grown = base.clone();
        grown.extend(subset(&fdes, added_bits | 1, 4));
        grown.extend(subset(&decoded, added_bits.rotate_left(17) | 1, 1));
        grown.extend(subset(&error_calls, added_bits.rotate_left(41) | 1, 4));

        let mut engine = RecEngine::new();
        engine.run(&case.binary, &base, &opts);
        let incremental = engine.run(&case.binary, &grown, &opts);
        let scratch = recursive_disassemble(&case.binary, &grown, &opts);
        prop_assert_eq!(observe(&incremental), observe(&scratch));
        prop_assert_eq!(engine.work_stats().full_walks, 1);
    }

    /// Safe recursion never decodes overlapping instructions from the
    /// same seed set, never leaves the text section, and is idempotent.
    #[test]
    fn recursion_is_safe_and_idempotent(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let seeds: BTreeSet<u64> =
            case.binary.eh_frame().unwrap().pc_begins().into_iter().collect();
        let opts = RecOptions::default();
        let a = recursive_disassemble(&case.binary, &seeds, &opts);
        let b = recursive_disassemble(&case.binary, &seeds, &opts);
        prop_assert_eq!(a.functions.clone(), b.functions.clone());
        prop_assert_eq!(a.disasm.len(), b.disasm.len());

        let text = case.binary.text();
        let mut prev_end = 0u64;
        for inst in a.disasm.iter() {
            let addr = inst.addr;
            prop_assert!(text.contains(addr));
            prop_assert!(addr >= prev_end, "overlap at {addr:#x}");
            prev_end = inst.end();
        }
    }

    /// Discovered function starts are exactly seeds + direct-call targets
    /// (tail calls are never followed into new starts).
    #[test]
    fn recursion_only_promotes_call_targets(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let seeds: BTreeSet<u64> =
            case.binary.eh_frame().unwrap().pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        let call_targets: BTreeSet<u64> = r
            .disasm
            .iter()
            .filter_map(|i| match i.flow() {
                fetch_x64::Flow::Call(t) => Some(t),
                _ => None,
            })
            .collect();
        for f in &r.functions {
            prop_assert!(
                seeds.contains(f) || call_targets.contains(f),
                "start {f:#x} is neither seed nor call target"
            );
        }
    }

    /// Function extents cover their entry and stay within decoded code.
    #[test]
    fn extents_are_well_formed(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let seeds: BTreeSet<u64> =
            case.binary.eh_frame().unwrap().pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        let extents = function_extents(&r);
        prop_assert_eq!(extents.len(), r.functions.len());
        for (&f, body) in &extents {
            prop_assert!(body.contains(f));
            for a in &body.insts {
                prop_assert!(r.disasm.contains(*a));
            }
            // body_of is deterministic.
            let again = body_of(f, &r.disasm, &r.functions, &r.noreturn);
            prop_assert_eq!(&again.insts, &body.insts);
        }
    }

    /// Every xref's source instruction exists and references its target.
    #[test]
    fn xrefs_are_grounded(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let seeds: BTreeSet<u64> =
            case.binary.eh_frame().unwrap().pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        let xrefs = code_xrefs(&r.disasm);
        for (target, refs) in xrefs.iter() {
            for x in refs {
                let inst = r.disasm.at(x.from).expect("xref source decoded");
                let mentions = inst.direct_target() == Some(target)
                    || inst.lea_rip_target() == Some(target)
                    || inst.const_operands().contains(&target);
                prop_assert!(mentions, "{inst} does not reference {target:#x}");
            }
        }
    }

    /// Jump tables solved during recursion stay inside the text section
    /// and match the ground-truth function that owns the jump.
    #[test]
    fn jump_tables_are_intra_function(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let seeds: BTreeSet<u64> =
            case.binary.eh_frame().unwrap().pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        for (jmp_addr, jt) in &r.disasm.jump_tables {
            let owner = case.truth.function_at(*jmp_addr);
            prop_assert!(owner.is_some(), "jump table outside any function");
            let owner = owner.unwrap();
            for t in &jt.targets {
                prop_assert!(case.binary.is_code(*t));
                prop_assert!(
                    owner.contains(*t),
                    "case target {t:#x} escapes {}",
                    owner.name
                );
            }
        }
    }

    /// Tolerant linear sweep visits every byte of text at most once and
    /// never panics.
    #[test]
    fn tolerant_sweep_is_total(cfg in arb_config()) {
        let case = synthesize(&cfg);
        let text = case.binary.text();
        let insts = sweep_tolerant(&text.bytes, text.addr);
        let mut prev = 0u64;
        for i in &insts {
            prop_assert!(i.addr >= prev);
            prev = i.end();
        }
    }
}
