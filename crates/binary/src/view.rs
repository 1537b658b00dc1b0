//! The ELF loader: one owned, zero-copy [`ElfImage`].
//!
//! [`ElfImage::parse`] takes ownership of an ELF64 image and validates
//! its header and section table eagerly (every offset bounds- and
//! overflow-checked, overlapping or duplicate sections rejected with a
//! typed [`ElfError`]). Section **bodies** stay as `Range<usize>` windows
//! of the one `Arc`'d buffer: [`ElfImage::to_binary`] materializes a
//! [`Binary`] whose sections all share that buffer — zero body-byte
//! copies, which [`Section::shares_image`] lets callers check — and
//! clones of the image (e.g. one per batch worker) share the same
//! resident bytes.

use crate::binary::{Binary, Symbol};
use crate::elf::{ElfError, EHDR_SIZE, SHDR_SIZE, SHT_PROGBITS, SHT_SYMTAB, SYM_SIZE};
use crate::meta::BuildInfo;
use crate::section::{Section, SectionBytes, SectionKind};
use std::ops::Range;
use std::sync::Arc;

/// The validated layout of an [`ElfImage`]: section windows and
/// symbol-table location, but no section bodies.
#[derive(Debug, Clone)]
struct Layout {
    entry: u64,
    /// `(kind, vaddr, file range)` per recognized progbits section.
    sections: Vec<(SectionKind, u64, Range<usize>)>,
    /// `(symtab file range, strtab file range)` per symbol table, in
    /// section order — symbols accumulate across all of them.
    symtabs: Vec<(Range<usize>, Range<usize>)>,
}

fn read_u16(b: &[u8], off: usize) -> Result<u16, ElfError> {
    Ok(u16::from_le_bytes(
        b.get(off..off + 2)
            .ok_or(ElfError::Truncated)?
            .try_into()
            .unwrap(),
    ))
}
fn read_u32(b: &[u8], off: usize) -> Result<u32, ElfError> {
    Ok(u32::from_le_bytes(
        b.get(off..off + 4)
            .ok_or(ElfError::Truncated)?
            .try_into()
            .unwrap(),
    ))
}
fn read_u64(b: &[u8], off: usize) -> Result<u64, ElfError> {
    Ok(u64::from_le_bytes(
        b.get(off..off + 8)
            .ok_or(ElfError::Truncated)?
            .try_into()
            .unwrap(),
    ))
}

/// A `(file offset, size)` pair checked against the image: overflow and
/// out-of-bounds both yield typed errors instead of a wrapped slice.
fn checked_range(
    off: u64,
    size: u64,
    image_len: usize,
    at: usize,
) -> Result<Range<usize>, ElfError> {
    let start = usize::try_from(off).map_err(|_| ElfError::RangeOverflow { at })?;
    let size = usize::try_from(size).map_err(|_| ElfError::RangeOverflow { at })?;
    let end = start
        .checked_add(size)
        .ok_or(ElfError::RangeOverflow { at })?;
    if end > image_len {
        return Err(ElfError::Truncated);
    }
    Ok(start..end)
}

/// Reads the NUL-terminated name at `off` of the string-table bytes.
fn str_at(strtab: &[u8], off: usize) -> Option<String> {
    let end = strtab.get(off..)?.iter().position(|&b| b == 0)? + off;
    Some(String::from_utf8_lossy(&strtab[off..end]).into_owned())
}

fn parse_layout(bytes: &[u8]) -> Result<Layout, ElfError> {
    if bytes.len() < EHDR_SIZE || &bytes[0..4] != b"\x7fELF" || bytes[4] != 2 || bytes[5] != 1 {
        return Err(ElfError::BadMagic);
    }
    let entry = read_u64(bytes, 24)?;
    let shoff = read_u64(bytes, 40)?;
    let shnum = read_u16(bytes, 60)? as u64;
    let shstrndx = read_u16(bytes, 62)? as usize;

    // The whole section-header table must fit the file; `shoff + i * 64`
    // is computed checked so a huge e_shoff errors instead of wrapping.
    let table = checked_range(shoff, shnum * SHDR_SIZE as u64, bytes.len(), 40)?;

    struct Shdr {
        name: u32,
        ty: u32,
        addr: u64,
        off: u64,
        size: u64,
        link: u32,
    }
    let mut shdrs = Vec::with_capacity(shnum as usize);
    for i in 0..shnum as usize {
        let base = table.start + i * SHDR_SIZE;
        shdrs.push(Shdr {
            name: read_u32(bytes, base)?,
            ty: read_u32(bytes, base + 4)?,
            addr: read_u64(bytes, base + 16)?,
            off: read_u64(bytes, base + 24)?,
            size: read_u64(bytes, base + 32)?,
            link: read_u32(bytes, base + 40)?,
        });
    }
    let shstr = shdrs.get(shstrndx).ok_or(ElfError::Truncated)?;
    let shstr_range = checked_range(shstr.off, shstr.size, bytes.len(), shstrndx)?;
    let shstr_bytes = &bytes[shstr_range];

    let mut sections: Vec<(SectionKind, u64, Range<usize>)> = Vec::new();
    let mut symtabs = Vec::new();
    for (i, sh) in shdrs.iter().enumerate() {
        match sh.ty {
            SHT_PROGBITS => {
                let name = str_at(shstr_bytes, sh.name as usize).unwrap_or_default();
                let kind = match name.as_str() {
                    ".text" => SectionKind::Text,
                    ".rodata" => SectionKind::Rodata,
                    ".data" => SectionKind::Data,
                    ".eh_frame" => SectionKind::EhFrame,
                    other => return Err(ElfError::BadSectionName(other.to_string())),
                };
                if sections.iter().any(|(k, _, _)| *k == kind) {
                    return Err(ElfError::DuplicateSection(kind.name()));
                }
                let range = checked_range(sh.off, sh.size, bytes.len(), i)?;
                sections.push((kind, sh.addr, range));
            }
            SHT_SYMTAB => {
                let str_sh = shdrs.get(sh.link as usize).ok_or(ElfError::Truncated)?;
                let sym_range = checked_range(sh.off, sh.size, bytes.len(), i)?;
                let str_range =
                    checked_range(str_sh.off, str_sh.size, bytes.len(), sh.link as usize)?;
                symtabs.push((sym_range, str_range));
            }
            _ => {}
        }
    }

    // No two loaded sections may claim the same file bytes: an overlap
    // means one body aliases another and the image is structurally
    // malformed (zero-sized sections alias nothing and are exempt).
    let mut spans: Vec<(Range<usize>, SectionKind)> = sections
        .iter()
        .filter(|(_, _, r)| !r.is_empty())
        .map(|(k, _, r)| (r.clone(), *k))
        .collect();
    spans.sort_by_key(|(r, _)| r.start);
    for pair in spans.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.0.start < a.0.end {
            return Err(ElfError::OverlappingSections {
                a: a.1.name(),
                b: b.1.name(),
            });
        }
    }

    Ok(Layout {
        entry,
        sections,
        symtabs,
    })
}

fn parse_symbols(bytes: &[u8], layout: &Layout) -> Vec<Symbol> {
    let mut symbols = Vec::new();
    for (sym_range, str_range) in &layout.symtabs {
        let symtab = &bytes[sym_range.clone()];
        let strtab = &bytes[str_range.clone()];
        let count = symtab.len() / SYM_SIZE;
        for i in 1..count {
            let e = &symtab[i * SYM_SIZE..(i + 1) * SYM_SIZE];
            let name_off = u32::from_le_bytes(e[0..4].try_into().unwrap()) as usize;
            if e[4] & 0xf != 2 {
                continue; // not STT_FUNC
            }
            let addr = u64::from_le_bytes(e[8..16].try_into().unwrap());
            let size = u64::from_le_bytes(e[16..24].try_into().unwrap());
            symbols.push(Symbol {
                name: str_at(strtab, name_off).unwrap_or_default(),
                addr,
                size,
            });
        }
    }
    symbols
}

/// An owned, shareable ELF image: one `Arc`'d backing buffer plus the
/// validated layout.
///
/// Cloning an `ElfImage` (or the [`Binary`] it materializes) shares the
/// same resident bytes, so a batch of workers analysing one binary keeps
/// a single copy of the image in memory.
///
/// # Examples
///
/// ```
/// use fetch_binary::{Binary, BuildInfo, ElfImage, Section, SectionKind, write_elf};
///
/// let bin = Binary {
///     name: "demo".into(),
///     info: BuildInfo::gcc_o2(),
///     sections: vec![
///         Section::new(SectionKind::Text, 0x40_1000, vec![0x55, 0xc3]),
///         Section::new(SectionKind::Data, 0x40_3000, vec![1, 2, 3, 4]),
///     ],
///     symbols: vec![],
///     entry: 0x40_1000,
/// };
/// let image = ElfImage::parse(write_elf(&bin))?;
/// let loaded = image.to_binary();
/// assert_eq!(loaded.sections, bin.sections);
/// // Both sections are windows of one shared buffer: zero body copies.
/// assert!(loaded.sections[0].shares_image(&loaded.sections[1]));
/// # Ok::<(), fetch_binary::ElfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ElfImage {
    buf: Arc<Vec<u8>>,
    layout: Layout,
    symbols: Vec<Symbol>,
}

impl ElfImage {
    /// Takes ownership of `bytes` and validates them as an ELF64 image
    /// (the buffer is moved, not copied).
    ///
    /// # Errors
    ///
    /// A typed [`ElfError`] for every structural problem — truncation,
    /// offset/size overflow, overlapping or duplicated sections,
    /// unrecognized section names. Malformed input never panics and
    /// never produces an out-of-bounds window.
    pub fn parse(bytes: Vec<u8>) -> Result<ElfImage, ElfError> {
        let layout = parse_layout(&bytes)?;
        let symbols = parse_symbols(&bytes, &layout);
        Ok(ElfImage {
            buf: Arc::new(bytes),
            layout,
            symbols,
        })
    }

    /// The whole backing image, as parsed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The program entry point.
    pub fn entry(&self) -> u64 {
        self.layout.entry
    }

    /// The parsed function symbols.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Materializes a [`Binary`] whose sections are windows of this
    /// image's shared buffer — **zero** section-body bytes are copied,
    /// and every produced section keeps the one image buffer alive.
    ///
    /// ELF carries no build metadata, so the result gets a default
    /// [`BuildInfo`] and the name `"elf"`; callers with out-of-band
    /// metadata overwrite both fields.
    pub fn to_binary(&self) -> Binary {
        let sections = self
            .layout
            .sections
            .iter()
            .map(|(kind, addr, range)| Section {
                kind: *kind,
                addr: *addr,
                bytes: SectionBytes::from_shared(Arc::clone(&self.buf), range.clone())
                    .expect("ranges validated at parse time"),
            })
            .collect();
        Binary {
            name: "elf".into(),
            info: BuildInfo::gcc_o2(),
            sections,
            symbols: self.symbols.clone(),
            entry: self.layout.entry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elf::write_elf;

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
    fn view_matches_eager_reader() {
        let bin = sample();
        let bytes = write_elf(&bin);
        let image = ElfImage::parse(bytes.clone()).unwrap();
        assert_eq!(image.entry(), bin.entry);
        assert_eq!(image.bytes(), &bytes[..]);
        assert_eq!(image.symbols(), bin.symbols);
        let loaded = image.to_binary();
        assert_eq!(loaded.sections.len(), 4);
        for s in &bin.sections {
            let v = loaded.section(s.kind).expect("section present");
            assert_eq!(v.addr, s.addr);
            assert_eq!(v.bytes, s.bytes);
        }
    }

    #[test]
    fn image_is_zero_copy_and_shared() {
        let bin = sample();
        let image = ElfImage::parse(write_elf(&bin)).unwrap();
        let loaded = image.to_binary();
        assert_eq!(loaded.sections, bin.sections);
        assert_eq!(loaded.symbols, bin.symbols);
        assert_eq!(loaded.entry, bin.entry);
        for pair in loaded.sections.windows(2) {
            assert!(pair[0].shares_image(&pair[1]), "one backing buffer");
        }
        // A clone of the materialized binary still shares the image.
        let cloned = loaded.clone();
        assert!(cloned.sections[0].shares_image(&loaded.sections[1]));
    }

    #[test]
    fn overlapping_sections_rejected() {
        let bin = sample();
        let mut image = write_elf(&bin);
        let shoff = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
        // Point .rodata (section index 2) at .text's file range.
        let text_off = shoff + SHDR_SIZE + 24;
        let rodata_off = shoff + 2 * SHDR_SIZE + 24;
        let text_at: [u8; 8] = image[text_off..text_off + 8].try_into().unwrap();
        image[rodata_off..rodata_off + 8].copy_from_slice(&text_at);
        match ElfImage::parse(image) {
            Err(ElfError::OverlappingSections { .. }) => {}
            other => panic!("expected overlap error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_section_rejected() {
        let bin = sample();
        let mut image = write_elf(&bin);
        let shoff = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
        // Rename .rodata's header to point at .text's name offset.
        let text_name = image[shoff + SHDR_SIZE..shoff + SHDR_SIZE + 4].to_vec();
        image[shoff + 2 * SHDR_SIZE..shoff + 2 * SHDR_SIZE + 4].copy_from_slice(&text_name);
        match ElfImage::parse(image) {
            Err(ElfError::DuplicateSection(".text")) => {}
            // The two sections also overlap nowhere, so the duplicate
            // check must fire first.
            other => panic!("expected duplicate error, got {other:?}"),
        }
    }

    #[test]
    fn huge_offsets_error_instead_of_wrapping() {
        let bin = sample();
        let base = write_elf(&bin);
        // e_shoff = u64::MAX used to overflow `shoff + i * SHDR_SIZE`.
        let mut image = base.clone();
        image[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ElfImage::parse(image),
            Err(ElfError::RangeOverflow { .. } | ElfError::Truncated)
        ));
        // A section size that overflows its offset.
        let mut image = base;
        let shoff = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
        let size_off = shoff + SHDR_SIZE + 32; // .text sh_size
        image[size_off..size_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ElfImage::parse(image),
            Err(ElfError::RangeOverflow { .. } | ElfError::Truncated)
        ));
    }
}
