//! Table IV: coverage and precision of the ANGR/DYNINST stack-height
//! models against the CFI baseline, over functions with complete CFI.

use fetch_analyses::{model_stack_heights, HeightStyle};
use fetch_bench::{banner, dataset2, opts_from_args, paper, BatchDriver};
use fetch_binary::OptLevel;
use fetch_disasm::{body_of, RecOptions};
use fetch_ehframe::stack_heights;
use fetch_metrics::TextTable;
use fetch_x64::Flow;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Default, Clone, Copy)]
struct Counts {
    // Full view.
    full_reported: usize,
    full_correct: usize,
    full_baseline: usize,
    // Jump-site view.
    jump_reported: usize,
    jump_correct: usize,
    jump_baseline: usize,
}

fn main() {
    let opts = opts_from_args(&[]);
    banner("Table IV — stack-height analyses vs. CFI baseline");
    let cases = dataset2(&opts);

    let styles = [
        (HeightStyle::AngrLike, "ANGR"),
        (HeightStyle::DyninstLike, "DYNINST"),
    ];
    let driver = BatchDriver::from_opts(&opts);
    let per_case: Vec<BTreeMap<(usize, OptLevel), Counts>> = driver.run(&cases, |engine, case| {
        let mut out: BTreeMap<(usize, OptLevel), Counts> = BTreeMap::new();
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let rec = engine.run(&case.binary, &seeds, &RecOptions::default());
        for (cie, fde) in eh.fdes_with_cie() {
            // Only functions whose CFIs give complete heights (§V-C).
            let Ok(Some(baseline)) = stack_heights(cie, fde) else {
                continue;
            };
            if !rec.functions.contains(&fde.pc_begin) {
                continue;
            }
            let body = body_of(fde.pc_begin, &rec.disasm, &rec.functions, &rec.noreturn);
            for (si, (style, _)) in styles.iter().enumerate() {
                let model = model_stack_heights(&body, &rec.disasm, *style);
                let c = out.entry((si, case.binary.info.opt)).or_default();
                for (&addr, v) in &model {
                    let Some(base) = baseline.height_at(addr) else {
                        continue;
                    };
                    let is_jump = rec
                        .disasm
                        .at(addr)
                        .map(|i| matches!(i.flow(), Flow::Jump(_) | Flow::CondJump(_)))
                        .unwrap_or(false);
                    c.full_baseline += 1;
                    if is_jump {
                        c.jump_baseline += 1;
                    }
                    if let Some(h) = v {
                        c.full_reported += 1;
                        if *h == base {
                            c.full_correct += 1;
                        }
                        if is_jump {
                            c.jump_reported += 1;
                            if *h == base {
                                c.jump_correct += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    });

    let mut sums: BTreeMap<(usize, OptLevel), Counts> = BTreeMap::new();
    for m in &per_case {
        for (k, c) in m {
            let e = sums.entry(*k).or_default();
            e.full_reported += c.full_reported;
            e.full_correct += c.full_correct;
            e.full_baseline += c.full_baseline;
            e.jump_reported += c.jump_reported;
            e.jump_correct += c.jump_correct;
            e.jump_baseline += c.jump_baseline;
        }
    }

    let pct = |num: usize, den: usize| 100.0 * num as f64 / den.max(1) as f64;
    let mut table = TextTable::new([
        "OPT",
        "ANGR Full P",
        "ANGR Full R",
        "ANGR Jump P",
        "ANGR Jump R",
        "DYN Full P",
        "DYN Full R",
        "DYN Jump P",
        "DYN Jump R",
    ]);
    for opt in OptLevel::ALL {
        let mut cells = vec![opt.short().to_string()];
        for si in 0..2 {
            let c = sums.get(&(si, opt)).copied().unwrap_or_default();
            cells.push(format!("{:.2}", pct(c.full_correct, c.full_reported)));
            cells.push(format!("{:.2}", pct(c.full_reported, c.full_baseline)));
            cells.push(format!("{:.2}", pct(c.jump_correct, c.jump_reported)));
            cells.push(format!("{:.2}", pct(c.jump_reported, c.jump_baseline)));
        }
        // Reorder into the printed column layout (angr block then dyninst).
        table.row(cells);
    }
    println!("{table}");

    println!("Paper averages:");
    let mut pt = TextTable::new(["Analysis", "Full Pre", "Full Rec", "Jump Pre", "Jump Rec"]);
    for (name, fp_, fr, jp, jr) in paper::TABLE4_AVG {
        pt.row([
            name.to_string(),
            format!("{fp_:.2}"),
            format!("{fr:.2}"),
            format!("{jp:.2}"),
            format!("{jr:.2}"),
        ]);
    }
    println!("{pt}");
    println!(
        "Shape checks: both analyses are imperfect on both axes; jump-site\n\
         precision exceeds full precision; neither reaches the fidelity of\n\
         CFI heights — the basis for Algorithm 1's design choice (§V-B)."
    );
}
