//! Table III: FETCH versus eight existing tools — false positives and
//! false negatives per optimization level.

use fetch_bench::{banner, dataset2, opts_from_args, paper, BatchDriver};
use fetch_binary::OptLevel;
use fetch_metrics::{evaluate, TextTable};
use fetch_tools::{run_tool_with_engine, Tool};
use std::collections::BTreeMap;

fn main() {
    let opts = opts_from_args(&[]);
    banner("Table III — FETCH vs. existing tools (FP/FN per opt level)");
    let cases = dataset2(&opts);
    println!(
        "binaries: {} (scaled corpus; counts are raw, not thousands)\n",
        cases.len()
    );

    // (tool, opt) -> (fp, fn). All nine tool models of one binary run on
    // the same worker, sharing its engine's decode cache.
    let driver = BatchDriver::from_opts(&opts);
    let per_case: Vec<Vec<(Tool, OptLevel, usize, usize)>> = driver.run(&cases, |engine, case| {
        let mut out = Vec::new();
        for tool in Tool::ALL {
            if let Some(r) = run_tool_with_engine(tool, &case.binary, engine) {
                let e = evaluate(&r.start_set(), case);
                out.push((
                    tool,
                    case.binary.info.opt,
                    e.false_positives,
                    e.false_negatives,
                ));
            }
        }
        out
    });

    let mut sums: BTreeMap<(Tool, OptLevel), (usize, usize)> = BTreeMap::new();
    for row in per_case.iter().flatten() {
        let e = sums.entry((row.0, row.1)).or_default();
        e.0 += row.2;
        e.1 += row.3;
    }

    let mut table = TextTable::new({
        let mut h = vec!["OPT".to_string()];
        for t in Tool::ALL {
            h.push(format!("{} FP", short(t)));
            h.push(format!("{} FN", short(t)));
        }
        h
    });
    let mut avgs: BTreeMap<Tool, (usize, usize)> = BTreeMap::new();
    for opt in OptLevel::ALL {
        let mut cells = vec![opt.short().to_string()];
        for tool in Tool::ALL {
            let (fp, fn_) = sums.get(&(tool, opt)).copied().unwrap_or((0, 0));
            let a = avgs.entry(tool).or_default();
            a.0 += fp;
            a.1 += fn_;
            cells.push(fp.to_string());
            cells.push(fn_.to_string());
        }
        table.row(cells);
    }
    let mut cells = vec!["Avg.".to_string()];
    for tool in Tool::ALL {
        let (fp, fn_) = avgs.get(&tool).copied().unwrap_or((0, 0));
        cells.push((fp / 4).to_string());
        cells.push((fn_ / 4).to_string());
    }
    table.row(cells);
    println!("{table}");

    println!("Paper averages (thousands of starts over 1,352 full-size binaries):");
    let mut ptable = TextTable::new(["Tool", "FP #", "FN #"]);
    for (tool, fp, fn_) in paper::TABLE3_AVG {
        ptable.row([tool.to_string(), format!("{fp:.2}"), format!("{fn_:.2}")]);
    }
    println!("{ptable}");
    println!(
        "Shape checks: FETCH best on both axes (except ANGR's near-zero FN,\n\
         bought with the worst-tier FP); BAP noisiest; RADARE2 lowest-FP\n\
         non-FDE tool but highest FN; call-frame tools dominate coverage."
    );
}

fn short(t: Tool) -> &'static str {
    match t {
        Tool::Dyninst => "DYN",
        Tool::Bap => "BAP",
        Tool::Radare2 => "R2",
        Tool::Nucleus => "NUC",
        Tool::IdaPro => "IDA",
        Tool::BinaryNinja => "BN",
        Tool::Ghidra => "GHI",
        Tool::Angr => "ANG",
        Tool::Fetch => "FET",
    }
}
