//! Table II: self-built corpus — per-project EHF presence and FDE ratio
//! versus symbols (the paper reports 99.87% overall).

use fetch_bench::{banner, compare_line, dataset2, opts_from_args, BatchDriver};
use fetch_binary::TestCase;
use fetch_metrics::TextTable;
use fetch_synth::corpus::DATASET2;
use std::collections::BTreeSet;

fn main() {
    let opts = opts_from_args(&[]);
    banner("Table II — self-built programs (Dataset 2): EHF and FDE ratio");
    let cases = dataset2(&opts);

    // Group by project (config names are "<project>/<prog>-<cc>-<opt>").
    let project_of = |case: &TestCase| -> String {
        case.binary
            .name
            .split('/')
            .next()
            .unwrap_or("?")
            .to_string()
    };

    // Per-binary (covered, total) symbol counts, in corpus order.
    let counts: Vec<(usize, usize)> = BatchDriver::from_opts(&opts).run(&cases, |_engine, case| {
        let begins: BTreeSet<u64> = case
            .binary
            .eh_frame()
            .unwrap()
            .pc_begins()
            .into_iter()
            .collect();
        let cov = case
            .binary
            .symbols
            .iter()
            .filter(|s| begins.contains(&s.addr))
            .count();
        (cov, case.binary.symbols.len())
    });

    let mut table = TextTable::new(["Project", "Type", "#Prog/Bins", "EHF", "FDE %", "Lang"]);
    let mut covered = 0usize;
    let mut total = 0usize;
    for proj in DATASET2 {
        let mine: Vec<(&TestCase, &(usize, usize))> = cases
            .iter()
            .zip(&counts)
            .filter(|(c, _)| project_of(c) == proj.name)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let c_cov: usize = mine.iter().map(|(_, (c, _))| c).sum();
        let c_tot: usize = mine.iter().map(|(_, (_, t))| t).sum();
        covered += c_cov;
        total += c_tot;
        table.row([
            proj.name.to_string(),
            proj.ptype.to_string(),
            format!("{}/{}", proj.programs, mine.len()),
            "Y".to_string(),
            format!("{:.2}", 100.0 * c_cov as f64 / c_tot.max(1) as f64),
            format!("{}", proj.lang),
        ]);
    }
    println!("{table}");

    compare_line("total binaries", "1,352", &cases.len().to_string());
    compare_line(
        "overall FDE coverage of symbols (%)",
        "99.87",
        &format!("{:.2}", 100.0 * covered as f64 / total.max(1) as f64),
    );
    compare_line(
        "symbols covered",
        "1,138,601 / 1,140,047",
        &format!("{covered} / {total}"),
    );
}
