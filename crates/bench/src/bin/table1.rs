//! Table I: wild binaries — eh_frame presence and FDE-vs-symbol coverage.
//!
//! The paper finds FDEs cover 99.99% of the symbols across the 11 wild
//! binaries with usable symbols.

use fetch_bench::{banner, compare_line, dataset1, opts_from_args, BatchDriver};
use fetch_metrics::{fde_symbol_coverage, TextTable};

fn main() {
    let opts = opts_from_args(&[]);
    banner("Table I — wild binaries (Dataset 1): EHF presence and FDE coverage");
    let cases = dataset1(&opts);

    struct Row {
        ehf: bool,
        // (coverage %, covered symbols, total symbols) when symbols exist.
        coverage: Option<(f64, usize, usize)>,
    }
    let rows = BatchDriver::from_opts(&opts).run(&cases, |_engine, (_, case)| {
        let coverage = fde_symbol_coverage(case).map(|pct| {
            let begins: std::collections::BTreeSet<u64> = case
                .binary
                .eh_frame()
                .unwrap()
                .pc_begins()
                .into_iter()
                .collect();
            let covered = case
                .binary
                .symbols
                .iter()
                .filter(|s| begins.contains(&s.addr))
                .count();
            (pct, covered, case.binary.symbols.len())
        });
        Row {
            ehf: case.binary.has_eh_frame(),
            coverage,
        }
    });

    let mut table = TextTable::new(["Software", "Open", "EHF", "Sym", "FDE %", "Note"]);
    let mut covered_syms = 0usize;
    let mut total_syms = 0usize;
    for ((w, case), row) in cases.iter().zip(&rows) {
        let (sym, fde_pct) = match row.coverage {
            Some((pct, covered, total)) => {
                covered_syms += covered;
                total_syms += total;
                ("Y".to_string(), format!("{pct:.2}"))
            }
            None => ("-".to_string(), "-".to_string()),
        };
        table.row([
            w.name.to_string(),
            if w.open { "Y" } else { "-" }.to_string(),
            if row.ehf { "Y" } else { "-" }.to_string(),
            sym,
            fde_pct,
            format!(
                "{}-{}; {}",
                case.binary.info.compiler, case.binary.info.opt, w.lang
            ),
        ]);
    }
    println!("{table}");

    let avg = 100.0 * covered_syms as f64 / total_syms.max(1) as f64;
    compare_line(
        "binaries",
        "43 (11 with symbols)",
        &format!(
            "{} ({} with symbols)",
            cases.len(),
            cases.iter().filter(|(w, _)| w.symbols).count()
        ),
    );
    compare_line(
        "avg FDE coverage of symbols (%)",
        "99.99",
        &format!("{avg:.2}"),
    );
    compare_line(
        "symbols covered",
        "101,882 / 101,891",
        &format!("{covered_syms} / {total_syms}"),
    );
}
