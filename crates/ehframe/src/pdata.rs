//! Windows x64 `.pdata` exception data — the §VII-B generality study.
//!
//! The paper's preliminary investigation found that PE binaries carry an
//! FDE-like structure (`RUNTIME_FUNCTION` entries in `.pdata`) covering
//! the starts and boundaries of at least ~70% of functions. This module
//! implements that structure: fixed-size `(BeginAddress, EndAddress,
//! UnwindInfoAddress)` RVA triples, sorted by begin address.
//!
//! `repro generality` emits a `.pdata`-style table for a synthetic
//! binary (covering the subset of functions Windows compilers register —
//! those with stack frames or exception semantics) and measures the
//! coverage a pdata-seeded detector achieves, mirroring the paper's
//! "at least 70% of the functions are covered" observation.

use std::fmt;

/// One `RUNTIME_FUNCTION` entry (image-relative addresses, like the real
/// format; we use full VAs for simplicity since our images are not
/// relocated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeFunction {
    /// Function start address.
    pub begin: u32,
    /// One-past-the-end address.
    pub end: u32,
    /// Address of the unwind information (opaque here).
    pub unwind_info: u32,
}

impl RuntimeFunction {
    /// Whether `addr` falls inside the covered range.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.begin && addr < self.end
    }
}

/// A parsed (or to-be-encoded) `.pdata` section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pdata {
    /// Entries sorted by `begin` (the loader requires this).
    pub entries: Vec<RuntimeFunction>,
}

/// Errors from `.pdata` parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdataError {
    /// The section size is not a multiple of 12 bytes.
    BadSize,
    /// Entries are not sorted by begin address or have empty ranges.
    NotSorted,
}

impl fmt::Display for PdataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdataError::BadSize => write!(f, ".pdata size is not a multiple of 12"),
            PdataError::NotSorted => write!(f, ".pdata entries not sorted or empty"),
        }
    }
}

impl std::error::Error for PdataError {}

impl Pdata {
    /// Creates an empty table.
    pub fn new() -> Pdata {
        Pdata::default()
    }

    /// The function starts recorded by the table — the PE analogue of
    /// [`crate::EhFrame::pc_begins`].
    pub fn begins(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.begin as u64).collect()
    }

    /// Binary-searches the entry covering `addr` (task T1 on Windows).
    pub fn lookup(&self, addr: u32) -> Option<&RuntimeFunction> {
        let ix = self.entries.partition_point(|e| e.begin <= addr);
        let e = &self.entries[..ix];
        e.last().filter(|e| e.contains(addr))
    }

    /// Serializes to the on-disk format: little-endian 12-byte triples.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * 12);
        for e in &self.entries {
            out.extend_from_slice(&e.begin.to_le_bytes());
            out.extend_from_slice(&e.end.to_le_bytes());
            out.extend_from_slice(&e.unwind_info.to_le_bytes());
        }
        out
    }

    /// Parses the on-disk format.
    ///
    /// # Errors
    ///
    /// Returns [`PdataError::BadSize`] when `bytes` is not a whole number
    /// of entries, and [`PdataError::NotSorted`] when the loader's sorted
    /// invariant does not hold.
    pub fn parse(bytes: &[u8]) -> Result<Pdata, PdataError> {
        if !bytes.len().is_multiple_of(12) {
            return Err(PdataError::BadSize);
        }
        let mut entries = Vec::with_capacity(bytes.len() / 12);
        for chunk in bytes.chunks_exact(12) {
            entries.push(RuntimeFunction {
                begin: u32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                end: u32::from_le_bytes(chunk[4..8].try_into().unwrap()),
                unwind_info: u32::from_le_bytes(chunk[8..12].try_into().unwrap()),
            });
        }
        let sorted = entries.windows(2).all(|w| w[0].begin <= w[1].begin)
            && entries.iter().all(|e| e.begin < e.end);
        if !sorted {
            return Err(PdataError::NotSorted);
        }
        Ok(Pdata { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pdata {
        Pdata {
            entries: vec![
                RuntimeFunction {
                    begin: 0x1000,
                    end: 0x1080,
                    unwind_info: 0x5000,
                },
                RuntimeFunction {
                    begin: 0x1080,
                    end: 0x10f0,
                    unwind_info: 0x500c,
                },
                RuntimeFunction {
                    begin: 0x1100,
                    end: 0x1200,
                    unwind_info: 0x5018,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let bytes = p.encode();
        assert_eq!(bytes.len(), 36);
        assert_eq!(Pdata::parse(&bytes).unwrap(), p);
    }

    #[test]
    fn lookup_is_binary_search() {
        let p = sample();
        assert_eq!(p.lookup(0x1000).unwrap().begin, 0x1000);
        assert_eq!(p.lookup(0x107f).unwrap().begin, 0x1000);
        assert_eq!(p.lookup(0x1080).unwrap().begin, 0x1080);
        assert!(p.lookup(0x10f8).is_none()); // gap between entries
        assert!(p.lookup(0x0fff).is_none());
        assert_eq!(p.begins(), vec![0x1000, 0x1080, 0x1100]);
    }

    #[test]
    fn malformed_sections_rejected() {
        assert_eq!(Pdata::parse(&[0u8; 13]), Err(PdataError::BadSize));
        // Unsorted entries.
        let mut p = sample();
        p.entries.swap(0, 2);
        assert_eq!(Pdata::parse(&p.encode()), Err(PdataError::NotSorted));
        // Empty range.
        let bad = Pdata {
            entries: vec![RuntimeFunction {
                begin: 8,
                end: 8,
                unwind_info: 0,
            }],
        };
        assert_eq!(Pdata::parse(&bad.encode()), Err(PdataError::NotSorted));
    }
}
