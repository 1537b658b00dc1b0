//! # fetch-synth
//!
//! The compiler simulator of the FETCH reproduction: deterministic
//! synthesis of System-V x86-64 binaries with exact ground truth.
//!
//! The paper evaluates on 1,395 real binaries. This crate stands in for
//! that corpus (the artifact index in `fetch_bench::repro` lists what is
//! measured on it): it emits machine code, `.eh_frame`
//! tables mirroring the code's real stack behaviour, symbols, and a
//! [`fetch_binary::GroundTruth`] recording every function, part, FDE and
//! reference class. All phenomena the paper measures are generated
//! natively:
//!
//! * non-contiguous (hot/cold split) functions with one FDE per part;
//! * frame-pointer functions whose CFI stack heights are incomplete;
//! * tail calls, tail-only/pointer-only/unreachable functions;
//! * hand-written assembly without FDEs, and Figure-6b style FDEs whose
//!   `PC Begin` mislabels the start;
//! * jump tables (in `.rodata` or embedded in `.text`), data-in-text,
//!   alignment padding, `noreturn` and `error`-style callees.
//!
//! # Examples
//!
//! ```
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let case = synthesize(&SynthConfig::small(42));
//! assert!(case.binary.has_eh_frame());
//! // FDE PC Begins cover every compiled function's entry.
//! let eh = case.binary.eh_frame()?;
//! let begins = eh.pc_begins();
//! let covered = case.truth.functions.iter()
//!     .filter(|f| f.parts[0].has_fde)
//!     .all(|f| begins.contains(&f.entry()));
//! assert!(covered);
//! # Ok::<(), fetch_ehframe::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
mod config;
pub mod corpus;
mod generate;
mod layout;
mod patch;
pub mod plan;

pub use config::{FeatureRates, SynthConfig};
pub use generate::generate_plan;
pub use layout::{build_cfis, layout, TEXT_BASE};
pub use patch::{patch_function, FunctionPatch, PatchKind};

use fetch_binary::TestCase;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Synthesizes one binary (with ground truth) from a configuration.
///
/// Deterministic: the same configuration always produces the same bytes.
pub fn synthesize(cfg: &SynthConfig) -> TestCase {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let plan = generate_plan(cfg, &mut rng);
    let codes: Vec<_> = plan
        .funcs
        .iter()
        .enumerate()
        .map(|(i, p)| codegen::lower(p, i, &mut rng))
        .collect();
    layout(&plan, &codes, cfg, &mut rng)
}
