//! Zero-copy, lazily sliced ELF views.
//!
//! [`crate::read_elf`] copies every section body into its own `Vec<u8>`,
//! so a large stripped binary is resident twice while it is analysed.
//! This module is the streaming-input substrate that avoids that:
//!
//! * [`ElfView`] — a *borrowed* parse of an ELF64 image. The header and
//!   section table are validated eagerly (every offset bounds- and
//!   overflow-checked, overlapping or duplicate sections rejected with a
//!   typed [`ElfError`]); section **bodies** stay as `Range<usize>`
//!   windows resolved on demand, so looking at `.text` never copies it.
//! * [`ElfImage`] — the owning, shareable form: one `Arc`'d buffer plus
//!   the validated layout. [`ElfImage::to_binary`] materializes a
//!   [`Binary`] whose sections are all windows of that one buffer —
//!   zero body-byte copies, and clones of the image (e.g. one per batch
//!   worker) share the same resident bytes.
//!
//! The eager bridge for callers that need an owned [`Binary`] from a
//! borrowed buffer is [`ElfView::to_owned`]; [`LoadStats`] reports how
//! many body bytes each path copied so the benchmarks can verify the
//! zero-copy claim rather than assume it.

use crate::binary::{Binary, Symbol};
use crate::elf::{ElfError, EHDR_SIZE, SHDR_SIZE, SHT_PROGBITS, SHT_SYMTAB, SYM_SIZE};
use crate::meta::BuildInfo;
use crate::section::{Section, SectionBytes, SectionKind};
use std::ops::Range;
use std::sync::Arc;

/// Copy accounting for one load path, so benchmarks measure the
/// zero-copy claim instead of assuming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Size of the backing image in bytes.
    pub image_bytes: usize,
    /// Total section-body bytes reachable through the loaded sections.
    pub section_bytes: usize,
    /// Section-body bytes that were copied out of the image to build the
    /// result — `0` on the shared-image path, `section_bytes` on the
    /// eager [`ElfView::to_owned`] bridge.
    pub section_bytes_copied: usize,
}

/// The validated layout shared by [`ElfView`] and [`ElfImage`]: section
/// windows and symbol-table location, but no section bodies.
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

/// One section of an [`ElfView`]: kind, virtual address, and the body as
/// a borrowed slice of the image (no copy was made to produce it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionRef<'a> {
    /// Section role.
    pub kind: SectionKind,
    /// Virtual address of the first byte.
    pub addr: u64,
    /// The body, borrowed from the image.
    pub bytes: &'a [u8],
}

/// A borrowed, lazily sliced parse of an ELF64 image.
///
/// Construction validates the header and section table (see the crate
/// docs); section bodies are *not* touched until asked for, and are
/// handed out as borrows of the backing buffer.
///
/// # Examples
///
/// ```
/// use fetch_binary::{Binary, BuildInfo, ElfView, Section, SectionKind, write_elf};
///
/// let bin = Binary {
///     name: "demo".into(),
///     info: BuildInfo::gcc_o2(),
///     sections: vec![Section::new(SectionKind::Text, 0x40_1000, vec![0x55, 0xc3])],
///     symbols: vec![],
///     entry: 0x40_1000,
/// };
/// let image = write_elf(&bin);
/// let view = ElfView::parse(&image)?;
/// let text = view.section(SectionKind::Text).expect("has text");
/// assert_eq!(text.addr, 0x40_1000);
/// assert_eq!(text.bytes, &[0x55, 0xc3]); // borrowed from `image`, not copied
/// # Ok::<(), fetch_binary::ElfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ElfView<'a> {
    data: &'a [u8],
    layout: Layout,
}

impl<'a> ElfView<'a> {
    /// Parses and validates the image's header and section table.
    ///
    /// # Errors
    ///
    /// A typed [`ElfError`] for every structural problem — truncation,
    /// offset/size overflow, overlapping or duplicated sections,
    /// unrecognized section names. Malformed input never panics and
    /// never produces an out-of-bounds window.
    pub fn parse(data: &'a [u8]) -> Result<ElfView<'a>, ElfError> {
        let layout = parse_layout(data)?;
        Ok(ElfView { data, layout })
    }

    /// The raw image this view borrows.
    pub fn image(&self) -> &'a [u8] {
        self.data
    }

    /// The program entry point.
    pub fn entry(&self) -> u64 {
        self.layout.entry
    }

    /// Iterates over the recognized sections without copying bodies.
    pub fn sections(&self) -> impl Iterator<Item = SectionRef<'a>> + '_ {
        let data = self.data;
        self.layout
            .sections
            .iter()
            .map(move |(kind, addr, range)| SectionRef {
                kind: *kind,
                addr: *addr,
                bytes: &data[range.clone()],
            })
    }

    /// The section of the given kind, body borrowed on demand.
    pub fn section(&self, kind: SectionKind) -> Option<SectionRef<'a>> {
        self.sections().find(|s| s.kind == kind)
    }

    /// Parses the function symbols (names are the only allocation).
    pub fn symbols(&self) -> Vec<Symbol> {
        parse_symbols(self.data, &self.layout)
    }

    /// The eager bridge: an owned [`Binary`] whose sections each copy
    /// their body out of the image — for callers that cannot keep the
    /// backing buffer alive. Prefer [`ElfImage::to_binary`] (zero-copy)
    /// when the buffer is owned.
    pub fn to_owned(&self) -> Binary {
        self.to_owned_with_stats().0
    }

    /// [`ElfView::to_owned`], also reporting how many body bytes were
    /// copied (always every section byte on this path).
    pub fn to_owned_with_stats(&self) -> (Binary, LoadStats) {
        let sections: Vec<Section> = self
            .sections()
            .map(|s| Section::new(s.kind, s.addr, s.bytes.to_vec()))
            .collect();
        let copied = sections.iter().map(|s| s.bytes.len()).sum();
        let binary = Binary {
            name: "elf".into(),
            info: BuildInfo::gcc_o2(),
            sections,
            symbols: self.symbols(),
            entry: self.layout.entry,
        };
        let stats = LoadStats {
            image_bytes: self.data.len(),
            section_bytes: copied,
            section_bytes_copied: copied,
        };
        (binary, stats)
    }
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
/// assert_eq!(image.load_stats().section_bytes_copied, 0);
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
    /// As [`ElfView::parse`].
    pub fn parse(bytes: Vec<u8>) -> Result<ElfImage, ElfError> {
        let layout = parse_layout(&bytes)?;
        let symbols = parse_symbols(&bytes, &layout);
        Ok(ElfImage {
            buf: Arc::new(bytes),
            layout,
            symbols,
        })
    }

    /// A borrowed view over the resident image.
    pub fn view(&self) -> ElfView<'_> {
        ElfView {
            data: &self.buf,
            layout: self.layout.clone(),
        }
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
    /// ELF carries no build metadata, so like [`crate::read_elf`] the
    /// result gets a default [`BuildInfo`] and the name `"elf"`; callers
    /// with out-of-band metadata overwrite both fields.
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

    /// Copy accounting for the shared-image path ([`ElfImage::to_binary`]):
    /// `section_bytes_copied` is zero by construction.
    pub fn load_stats(&self) -> LoadStats {
        LoadStats {
            image_bytes: self.buf.len(),
            section_bytes: self.layout.sections.iter().map(|(_, _, r)| r.len()).sum(),
            section_bytes_copied: 0,
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
        let image = write_elf(&bin);
        let view = ElfView::parse(&image).unwrap();
        assert_eq!(view.entry(), bin.entry);
        assert_eq!(view.sections().count(), 4);
        for s in &bin.sections {
            let v = view.section(s.kind).expect("section present");
            assert_eq!(v.addr, s.addr);
            assert_eq!(v.bytes, &s.bytes[..]);
        }
        assert_eq!(view.symbols(), bin.symbols);
        let (owned, stats) = view.to_owned_with_stats();
        assert_eq!(owned.sections, bin.sections);
        assert_eq!(stats.section_bytes_copied, stats.section_bytes);
        assert_eq!(stats.image_bytes, image.len());
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
        let stats = image.load_stats();
        assert_eq!(stats.section_bytes_copied, 0);
        assert_eq!(
            stats.section_bytes,
            bin.sections.iter().map(|s| s.bytes.len()).sum::<usize>()
        );
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
        match ElfView::parse(&image) {
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
        match ElfView::parse(&image) {
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
            ElfView::parse(&image),
            Err(ElfError::RangeOverflow { .. } | ElfError::Truncated)
        ));
        // A section size that overflows its offset.
        let mut image = base;
        let shoff = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
        let size_off = shoff + SHDR_SIZE + 32; // .text sh_size
        image[size_off..size_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ElfView::parse(&image),
            Err(ElfError::RangeOverflow { .. } | ElfError::Truncated)
        ));
    }
}
