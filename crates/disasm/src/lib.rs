//! # fetch-disasm
//!
//! Disassembly engines for the FETCH reproduction: the paper's *safe*
//! recursive disassembler (jump tables solved conservatively, indirect
//! calls skipped, tail calls not followed, non-returning functions found
//! by fixpoint with `error`-slicing — §IV-C), plus linear sweep, function
//! extents, and cross-reference collection.
//!
//! # Examples
//!
//! Disassemble a synthesized binary from its FDE starts:
//!
//! ```
//! use std::collections::BTreeSet;
//! use fetch_disasm::{recursive_disassemble, RecOptions};
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let case = synthesize(&SynthConfig::small(7));
//! let seeds: BTreeSet<u64> = case.binary.eh_frame()?.pc_begins().into_iter().collect();
//! let result = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
//! assert!(result.functions.len() >= seeds.len());
//! # Ok::<(), fetch_ehframe::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfg;
mod jumptable;
mod linear;
mod nonreturn;
mod recursive;

pub use cfg::{
    body_of, code_xrefs, code_xrefs_to, function_extents, FunctionBody, Xref, XrefIndex, XrefKind,
};
pub use jumptable::{solve_jump_table, JumpTable};
pub use linear::{sweep, sweep_tolerant, Sweep};
pub use nonreturn::{classify_noreturn, status_arg_is_zero, ErrorCallPolicy, NoreturnClasses};
pub use recursive::{
    call_returns, recursive_disassemble, text_content_hash, Disassembly, RecEngine, RecOptions,
    RecResult, RecWorkStats,
};
