//! # fetch-binary
//!
//! The loaded-binary container and ground-truth model of the FETCH
//! reproduction.
//!
//! A [`Binary`] is what detectors see: sections ([`Section`]), optional
//! [`Symbol`]s, and an entry point. A [`GroundTruth`] is what only the
//! metrics layer sees: the compiler-known mapping from code ranges to
//! source functions, including non-contiguous parts, FDE/symbol presence
//! per part, provenance ([`FuncKind`]) and reachability ([`Reach`])
//! classes. A [`TestCase`] pairs the two.
//!
//! Binaries serialize to real ELF64 images via [`write_elf`] and load
//! back through one loader, [`ElfImage`]: it parses and validates the
//! header and section table but leaves section bodies as windows of the
//! one backing buffer. [`ElfImage::to_binary`] materializes a [`Binary`]
//! whose sections all share that buffer — no body bytes are copied,
//! which [`Section::shares_image`] lets callers check.
//!
//! Malformed images — truncated headers, offsets that overflow or point
//! outside the file, overlapping or duplicated sections — are rejected
//! with a typed [`ElfError`]; no input can cause a panic or an
//! out-of-bounds slice.
//!
//! # Examples
//!
//! ```
//! use fetch_binary::{Binary, BuildInfo, ElfImage, Section, SectionKind, Symbol, write_elf};
//!
//! let bin = Binary {
//!     name: "demo".into(),
//!     info: BuildInfo::gcc_o2(),
//!     sections: vec![Section::new(SectionKind::Text, 0x40_1000, vec![0x55, 0xc3])],
//!     symbols: vec![Symbol { name: "f".into(), addr: 0x40_1000, size: 2 }],
//!     entry: 0x40_1000,
//! };
//! let image = ElfImage::parse(write_elf(&bin))?;
//! let back = image.to_binary(); // zero section-body copies
//! assert_eq!(back.sections, bin.sections);
//! # Ok::<(), fetch_binary::ElfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod elf;
mod meta;
mod section;
mod truth;
mod view;

pub use binary::{Binary, Symbol, TestCase};
pub use elf::{write_elf, ElfError};
pub use meta::{BuildInfo, Compiler, Lang, OptLevel};
pub use section::{Section, SectionBytes, SectionKind};
pub use truth::{FuncKind, FunctionTruth, GroundTruth, Part, Reach};
pub use view::ElfImage;
