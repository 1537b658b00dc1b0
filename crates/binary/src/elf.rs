//! Minimal ELF64 writer.
//!
//! Corpus binaries can be serialized to real System-V ELF executables
//! (readable by `readelf`/`objdump`) and loaded back through
//! [`crate::ElfImage`]. Only the features the paper's detectors need are
//! modeled: progbits sections, a function symbol table, and the entry
//! point. Build metadata is not representable in plain ELF, so a loaded
//! image gets a default [`BuildInfo`](crate::BuildInfo).

use crate::binary::Binary;
use crate::section::SectionKind;
use std::fmt;

pub(crate) const EHDR_SIZE: usize = 64;
pub(crate) const SHDR_SIZE: usize = 64;
pub(crate) const SYM_SIZE: usize = 24;

pub(crate) const SHT_PROGBITS: u32 = 1;
pub(crate) const SHT_SYMTAB: u32 = 2;
pub(crate) const SHT_STRTAB: u32 = 3;

const SHF_WRITE: u64 = 1;
const SHF_ALLOC: u64 = 2;
const SHF_EXECINSTR: u64 = 4;

/// Errors from ELF parsing. Malformed input always yields one of these —
/// never a panic, wrap-around, or out-of-bounds slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// Not an ELF64 little-endian file.
    BadMagic,
    /// A header or table points outside the file.
    Truncated,
    /// A section has an unrecognized name (the reader only loads the
    /// four sections the detectors use plus symbol tables).
    BadSectionName(String),
    /// An offset + size computation overflows the address space (the
    /// header or section-table index it came from is recorded).
    RangeOverflow {
        /// Header field offset or section index the overflow came from.
        at: usize,
    },
    /// Two loaded sections claim overlapping file ranges.
    OverlappingSections {
        /// Name of the earlier section.
        a: &'static str,
        /// Name of the later, overlapping section.
        b: &'static str,
    },
    /// The same loadable section name appears twice.
    DuplicateSection(&'static str),
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::BadMagic => write!(f, "not an ELF64 little-endian file"),
            ElfError::Truncated => write!(f, "header or table points outside the file"),
            ElfError::BadSectionName(n) => write!(f, "unrecognized section name {n:?}"),
            ElfError::RangeOverflow { at } => {
                write!(f, "offset + size overflows (from header entry {at})")
            }
            ElfError::OverlappingSections { a, b } => {
                write!(f, "sections {a} and {b} overlap in the file")
            }
            ElfError::DuplicateSection(n) => write!(f, "section {n} appears twice"),
        }
    }
}

impl std::error::Error for ElfError {}

struct StrTab {
    bytes: Vec<u8>,
}

impl StrTab {
    fn new() -> StrTab {
        StrTab { bytes: vec![0] }
    }

    fn add(&mut self, s: &str) -> u32 {
        let off = self.bytes.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        self.bytes.push(0);
        off
    }
}

fn push_u16(v: &mut Vec<u8>, x: u16) {
    v.extend_from_slice(&x.to_le_bytes());
}
fn push_u32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}
fn push_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

/// Serializes `bin` as an ELF64 executable image.
pub fn write_elf(bin: &Binary) -> Vec<u8> {
    let mut shstr = StrTab::new();
    let mut strtab = StrTab::new();

    // Body: section contents placed sequentially after the ELF header.
    let mut body: Vec<u8> = Vec::new();
    // (name_off, type, flags, addr, file_off, size, link, info, entsize)
    type ShdrRow = (u32, u32, u64, u64, usize, usize, u32, u32, u64);
    let mut shdrs: Vec<ShdrRow> = Vec::new();
    shdrs.push((0, 0, 0, 0, 0, 0, 0, 0, 0)); // SHN_UNDEF

    for s in &bin.sections {
        let flags = match s.kind {
            SectionKind::Text => SHF_ALLOC | SHF_EXECINSTR,
            SectionKind::Rodata | SectionKind::EhFrame => SHF_ALLOC,
            SectionKind::Data => SHF_ALLOC | SHF_WRITE,
        };
        let name = shstr.add(s.kind.name());
        let off = EHDR_SIZE + body.len();
        body.extend_from_slice(&s.bytes);
        shdrs.push((
            name,
            SHT_PROGBITS,
            flags,
            s.addr,
            off,
            s.bytes.len(),
            0,
            0,
            0,
        ));
    }

    // Symbol table (one null entry + function symbols).
    let mut symtab: Vec<u8> = vec![0; SYM_SIZE];
    for sym in &bin.symbols {
        let name = strtab.add(&sym.name);
        let shndx = bin
            .sections
            .iter()
            .position(|s| s.contains(sym.addr))
            .map(|i| (i + 1) as u16)
            .unwrap_or(0);
        push_u32(&mut symtab, name);
        symtab.push(0x12); // GLOBAL | FUNC
        symtab.push(0);
        push_u16(&mut symtab, shndx);
        push_u64(&mut symtab, sym.addr);
        push_u64(&mut symtab, sym.size);
    }

    let strtab_ix = (shdrs.len() + 1) as u32;
    if !bin.symbols.is_empty() {
        let name = shstr.add(".symtab");
        let off = EHDR_SIZE + body.len();
        body.extend_from_slice(&symtab);
        shdrs.push((
            name,
            SHT_SYMTAB,
            0,
            0,
            off,
            symtab.len(),
            strtab_ix,
            1, // first global symbol index
            SYM_SIZE as u64,
        ));
        let name = shstr.add(".strtab");
        let off = EHDR_SIZE + body.len();
        body.extend_from_slice(&strtab.bytes);
        shdrs.push((name, SHT_STRTAB, 0, 0, off, strtab.bytes.len(), 0, 0, 0));
    }

    // Section-header string table.
    let shstrtab_name = shstr.add(".shstrtab");
    let shstr_off = EHDR_SIZE + body.len();
    let shstr_bytes = shstr.bytes;
    body.extend_from_slice(&shstr_bytes);
    shdrs.push((
        shstrtab_name,
        SHT_STRTAB,
        0,
        0,
        shstr_off,
        shstr_bytes.len(),
        0,
        0,
        0,
    ));
    let shstrndx = (shdrs.len() - 1) as u16;

    let shoff = EHDR_SIZE + body.len();

    // ELF header.
    let mut out: Vec<u8> = Vec::with_capacity(shoff + shdrs.len() * SHDR_SIZE);
    out.extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0]);
    out.extend_from_slice(&[0; 8]);
    push_u16(&mut out, 2); // ET_EXEC
    push_u16(&mut out, 62); // EM_X86_64
    push_u32(&mut out, 1);
    push_u64(&mut out, bin.entry);
    push_u64(&mut out, 0); // e_phoff
    push_u64(&mut out, shoff as u64);
    push_u32(&mut out, 0); // e_flags
    push_u16(&mut out, EHDR_SIZE as u16);
    push_u16(&mut out, 0); // e_phentsize
    push_u16(&mut out, 0); // e_phnum
    push_u16(&mut out, SHDR_SIZE as u16);
    push_u16(&mut out, shdrs.len() as u16);
    push_u16(&mut out, shstrndx);
    debug_assert_eq!(out.len(), EHDR_SIZE);

    out.extend_from_slice(&body);
    for (name, ty, flags, addr, off, size, link, info, entsize) in shdrs {
        push_u32(&mut out, name);
        push_u32(&mut out, ty);
        push_u64(&mut out, flags);
        push_u64(&mut out, addr);
        push_u64(&mut out, off as u64);
        push_u64(&mut out, size as u64);
        push_u32(&mut out, link);
        push_u32(&mut out, info);
        push_u64(&mut out, 0); // sh_addralign
        push_u64(&mut out, entsize);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::Symbol;
    use crate::meta::BuildInfo;
    use crate::section::Section;
    use crate::view::ElfImage;

    fn load(bytes: &[u8]) -> Result<Binary, ElfError> {
        ElfImage::parse(bytes.to_vec()).map(|image| image.to_binary())
    }

    fn sample() -> Binary {
        Binary {
            name: "t".into(),
            info: BuildInfo::gcc_o2(),
            sections: vec![
                Section::new(SectionKind::Text, 0x40_1000, vec![0x55, 0xc3, 0x90, 0xcc]),
                Section::new(SectionKind::Rodata, 0x40_2000, vec![1, 2, 3]),
                Section::new(SectionKind::Data, 0x40_3000, vec![9; 16]),
                Section::new(SectionKind::EhFrame, 0x40_4000, vec![0, 0, 0, 0]),
            ],
            symbols: vec![
                Symbol {
                    name: "main".into(),
                    addr: 0x40_1000,
                    size: 2,
                },
                Symbol {
                    name: "pad".into(),
                    addr: 0x40_1002,
                    size: 2,
                },
            ],
            entry: 0x40_1000,
        }
    }

    #[test]
    fn roundtrip() {
        let bin = sample();
        let elf = write_elf(&bin);
        let back = load(&elf).unwrap();
        assert_eq!(back.sections, bin.sections);
        assert_eq!(back.symbols, bin.symbols);
        assert_eq!(back.entry, bin.entry);
    }

    #[test]
    fn roundtrip_stripped() {
        let bin = sample().stripped();
        let elf = write_elf(&bin);
        let back = load(&elf).unwrap();
        assert!(back.symbols.is_empty());
        assert_eq!(back.sections, bin.sections);
    }

    #[test]
    fn magic_is_checked() {
        assert_eq!(load(b"not an elf").unwrap_err(), ElfError::BadMagic);
        let mut elf = write_elf(&sample());
        elf[4] = 1; // ELFCLASS32
        assert_eq!(load(&elf).unwrap_err(), ElfError::BadMagic);
    }

    #[test]
    fn header_fields_look_like_x86_64_exec() {
        let elf = write_elf(&sample());
        assert_eq!(u16::from_le_bytes([elf[16], elf[17]]), 2); // ET_EXEC
        assert_eq!(u16::from_le_bytes([elf[18], elf[19]]), 62); // EM_X86_64
    }
}
