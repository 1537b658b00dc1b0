//! # fetch-metrics
//!
//! Ground-truth comparison and paper-style reporting: per-binary
//! false-positive/false-negative counts, full-coverage / full-accuracy
//! tallies (Figure 5's y-axis), per-optimization-level aggregation
//! (Table III's rows), FDE-vs-symbol coverage (Tables I and II), and a
//! small fixed-width table renderer.
//!
//! # Examples
//!
//! ```
//! use fetch_metrics::evaluate;
//! use fetch_core::Fetch;
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let case = synthesize(&SynthConfig::small(2));
//! let result = Fetch::new().detect(&case.binary);
//! let eval = evaluate(&result.start_set(), &case);
//! assert!(eval.true_positives > 0);
//! assert!(eval.recall() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fetch_binary::{OptLevel, TestCase};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Per-binary detection quality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryEval {
    /// Binary name.
    pub name: String,
    /// Optimization level (for Table III grouping).
    pub opt: OptLevel,
    /// Ground-truth function count.
    pub truth_count: usize,
    /// Correctly detected starts.
    pub true_positives: usize,
    /// Detected starts that are not true starts.
    pub false_positives: usize,
    /// True starts not detected.
    pub false_negatives: usize,
}

impl BinaryEval {
    /// All true starts detected.
    pub fn full_coverage(&self) -> bool {
        self.false_negatives == 0
    }

    /// No false starts reported.
    pub fn full_accuracy(&self) -> bool {
        self.false_positives == 0
    }

    /// TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        if self.true_positives + self.false_negatives == 0 {
            return 1.0;
        }
        self.true_positives as f64 / (self.true_positives + self.false_negatives) as f64
    }

    /// TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        if self.true_positives + self.false_positives == 0 {
            return 1.0;
        }
        self.true_positives as f64 / (self.true_positives + self.false_positives) as f64
    }
}

/// Compares a detected start set against the ground truth.
pub fn evaluate(found: &BTreeSet<u64>, case: &TestCase) -> BinaryEval {
    let truth = case.truth.starts();
    let tp = truth.intersection(found).count();
    BinaryEval {
        name: case.binary.name.clone(),
        opt: case.binary.info.opt,
        truth_count: truth.len(),
        true_positives: tp,
        false_positives: found.difference(&truth).count(),
        false_negatives: truth.difference(found).count(),
    }
}

/// The fraction of symbol-named starts covered by FDE `PC Begin`s —
/// the `FDE` column of Tables I and II.
pub fn fde_symbol_coverage(case: &TestCase) -> Option<f64> {
    if !case.binary.has_symbols() {
        return None;
    }
    let begins: BTreeSet<u64> = case
        .binary
        .eh_frame()
        .ok()?
        .pc_begins()
        .into_iter()
        .collect();
    let sym_addrs: BTreeSet<u64> = case.binary.symbols.iter().map(|s| s.addr).collect();
    if sym_addrs.is_empty() {
        return None;
    }
    let covered = sym_addrs.intersection(&begins).count();
    Some(100.0 * covered as f64 / sym_addrs.len() as f64)
}

/// Corpus-level aggregation.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Number of binaries evaluated.
    pub binaries: usize,
    /// Total ground-truth functions.
    pub truth: usize,
    /// Total detected true starts.
    pub true_positives: usize,
    /// Total false positives.
    pub false_positives: usize,
    /// Total false negatives.
    pub false_negatives: usize,
    /// Binaries with zero false negatives.
    pub full_coverage: usize,
    /// Binaries with zero false positives.
    pub full_accuracy: usize,
    /// Binaries with at least one false positive.
    pub with_false_positives: usize,
}

impl Aggregate {
    /// Creates an empty aggregate.
    pub fn new() -> Aggregate {
        Aggregate::default()
    }

    /// Folds one binary's evaluation in.
    pub fn add(&mut self, e: &BinaryEval) {
        self.binaries += 1;
        self.truth += e.truth_count;
        self.true_positives += e.true_positives;
        self.false_positives += e.false_positives;
        self.false_negatives += e.false_negatives;
        if e.full_coverage() {
            self.full_coverage += 1;
        }
        if e.full_accuracy() {
            self.full_accuracy += 1;
        } else {
            self.with_false_positives += 1;
        }
    }

    /// Overall coverage percentage.
    pub fn coverage_pct(&self) -> f64 {
        if self.truth == 0 {
            return 100.0;
        }
        100.0 * self.true_positives as f64 / self.truth as f64
    }
}

impl std::iter::Extend<BinaryEval> for Aggregate {
    fn extend<T: IntoIterator<Item = BinaryEval>>(&mut self, iter: T) {
        for e in iter {
            self.add(&e);
        }
    }
}

/// A minimal fixed-width table renderer for paper-style output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified in order).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders with padded columns and a header rule.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(out, "{cell:<w$}");
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a count as the paper's "thousands" convention (e.g. `12.20`).
pub fn thousands(n: usize) -> String {
    format!("{:.2}", n as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_core::Pipeline;
    use fetch_synth::{synthesize, SynthConfig};

    #[test]
    fn evaluate_counts_are_consistent() {
        let case = synthesize(&SynthConfig::small(12));
        let r = Pipeline::parse("FDE+Rec").unwrap().run(&case.binary);
        let e = evaluate(&r.start_set(), &case);
        assert_eq!(e.true_positives + e.false_negatives, e.truth_count);
        assert!(e.recall() <= 1.0 && e.precision() <= 1.0);
    }

    #[test]
    fn aggregate_folds() {
        let mut agg = Aggregate::new();
        for seed in 0..4 {
            let case = synthesize(&SynthConfig::small(seed));
            let r = Pipeline::parse("FDE").unwrap().run(&case.binary);
            agg.add(&evaluate(&r.start_set(), &case));
        }
        assert_eq!(agg.binaries, 4);
        assert_eq!(agg.full_accuracy + agg.with_false_positives, 4);
        assert!(agg.coverage_pct() > 50.0);
    }

    #[test]
    fn fde_symbol_coverage_near_full() {
        let case = synthesize(&SynthConfig::small(13));
        let cov = fde_symbol_coverage(&case).expect("symbols present");
        // FDEs cover all compiled parts; only asm/cold symbol quirks drop it.
        assert!(cov > 90.0, "coverage {cov}");
        let stripped = TestCase {
            binary: case.binary.stripped(),
            truth: case.truth.clone(),
        };
        assert_eq!(fde_symbol_coverage(&stripped), None);
    }

    #[test]
    fn table_renders_fixed_width() {
        let mut t = TextTable::new(["Tool", "FP #", "FN #"]);
        t.row(["FETCH", "0.67", "0.11"]);
        t.row(["ANGR", "52.73", "0.19"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Tool"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("FETCH"));
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(12200), "12.20");
        assert_eq!(thousands(670), "0.67");
        assert_eq!(thousands(0), "0.00");
    }
}
