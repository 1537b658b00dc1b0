//! # fetch
//!
//! Facade crate of the FETCH reproduction ("Towards Optimal Use of
//! Exception Handling Information for Function Detection", DSN 2021):
//! re-exports every workspace crate under one roof so examples and
//! downstream users need a single dependency.
//!
//! * [`x64`] — instruction decoder/assembler and semantics
//! * [`ehframe`] — `.eh_frame` model, DWARF encoding, CFI evaluation
//! * [`binary`] — loaded-binary container, ELF64 I/O, ground truth
//! * [`synth`] — the synthetic-corpus compiler simulator
//! * [`disasm`] — safe recursive disassembly and linear sweep
//! * [`analyses`] — calling-convention, stack-height and ROP analyses
//! * [`core`] — the FETCH detector and the strategy framework
//! * [`tools`] — models of the eight comparison tools
//! * [`metrics`] — ground-truth scoring and table rendering
//!
//! # Examples
//!
//! ```
//! use fetch::core::Pipeline;
//! use fetch::synth::{synthesize, SynthConfig};
//!
//! let case = synthesize(&SynthConfig::small(1));
//! let result = Pipeline::fetch().run(&case.binary);
//! assert!(!result.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fetch_analyses as analyses;
pub use fetch_binary as binary;
pub use fetch_core as core;
pub use fetch_disasm as disasm;
pub use fetch_ehframe as ehframe;
pub use fetch_metrics as metrics;
pub use fetch_synth as synth;
pub use fetch_tools as tools;
pub use fetch_x64 as x64;
