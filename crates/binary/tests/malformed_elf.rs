//! Malformed-ELF hardening suite: every structurally broken image must
//! come back as a typed [`ElfError`] — never a panic, arithmetic wrap,
//! or out-of-bounds slice — through the one loader, [`ElfImage`], and
//! the [`fetch_binary::Binary`] it materializes.
//!
//! The table-driven half pins down one regression per hardening rule;
//! the property-based half fuzzes random mutations and truncations of a
//! valid image, which is exactly the input family that used to reach
//! the unchecked `shoff + i * SHDR_SIZE` / `off + size` arithmetic.

use fetch_binary::{
    write_elf, Binary, BuildInfo, ElfError, ElfImage, Section, SectionKind, Symbol,
};
use proptest::prelude::*;

fn sample() -> Binary {
    Binary {
        name: "t".into(),
        info: BuildInfo::gcc_o2(),
        sections: vec![
            Section::new(SectionKind::Text, 0x40_1000, (0..64u8).collect::<Vec<u8>>()),
            Section::new(SectionKind::Rodata, 0x40_2000, vec![1, 2, 3, 4, 5]),
            Section::new(SectionKind::Data, 0x40_3000, vec![9; 24]),
            Section::new(SectionKind::EhFrame, 0x40_4000, vec![0, 0, 0, 0]),
        ],
        symbols: vec![
            Symbol {
                name: "main".into(),
                addr: 0x40_1000,
                size: 32,
            },
            Symbol {
                name: "helper".into(),
                addr: 0x40_1020,
                size: 16,
            },
        ],
        entry: 0x40_1000,
    }
}

/// Parses through the loader and, on success, materializes the binary
/// and touches every section body, the symbols and the entry point.
/// Reaching the return at all means nothing panicked.
fn parse_everywhere(bytes: &[u8]) -> Result<(), ElfError> {
    ElfImage::parse(bytes.to_vec()).map(|i| {
        let binary = i.to_binary();
        let _ = binary.sections.iter().map(|s| s.bytes.len()).sum::<usize>();
        let _ = (i.symbols().len(), i.entry(), i.bytes().len());
    })
}

fn shoff_of(image: &[u8]) -> usize {
    u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize
}

const SHDR_SIZE: usize = 64;

#[test]
fn truncated_headers_error_at_every_prefix() {
    let image = write_elf(&sample());
    for len in 0..image.len() {
        let err = parse_everywhere(&image[..len]);
        assert!(err.is_err(), "prefix of {len} bytes must not parse");
    }
    assert!(parse_everywhere(&image).is_ok());
}

#[test]
fn section_table_offset_overflow_is_typed() {
    // e_shoff near u64::MAX made `shoff + i * SHDR_SIZE` wrap (release)
    // or panic (debug) in the old reader.
    for shoff in [u64::MAX, u64::MAX - 63, 1u64 << 62] {
        let mut image = write_elf(&sample());
        image[40..48].copy_from_slice(&shoff.to_le_bytes());
        assert!(matches!(
            parse_everywhere(&image),
            Err(ElfError::RangeOverflow { .. } | ElfError::Truncated)
        ));
    }
}

#[test]
fn section_body_out_of_bounds_is_typed() {
    let base = write_elf(&sample());
    let shoff = shoff_of(&base);
    // Section 1 (.text): push sh_offset past the file, then make
    // sh_offset + sh_size overflow.
    let off_field = shoff + SHDR_SIZE + 24;
    let size_field = shoff + SHDR_SIZE + 32;

    let mut image = base.clone();
    image[off_field..off_field + 8].copy_from_slice(&(base.len() as u64 + 1).to_le_bytes());
    assert_eq!(parse_everywhere(&image), Err(ElfError::Truncated));

    let mut image = base.clone();
    image[off_field..off_field + 8].copy_from_slice(&(u64::MAX - 16).to_le_bytes());
    image[size_field..size_field + 8].copy_from_slice(&64u64.to_le_bytes());
    assert!(matches!(
        parse_everywhere(&image),
        Err(ElfError::RangeOverflow { .. })
    ));

    // The symbol string table gets the same treatment (index 6 after
    // 4 progbits + symtab).
    let str_off_field = shoff + 6 * SHDR_SIZE + 24;
    let mut image = base.clone();
    image[str_off_field..str_off_field + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        parse_everywhere(&image),
        Err(ElfError::RangeOverflow { .. } | ElfError::Truncated)
    ));
}

#[test]
fn overlapping_sections_are_typed() {
    let base = write_elf(&sample());
    let shoff = shoff_of(&base);
    // Shift .rodata's file offset back into .text's range.
    let text_off = u64::from_le_bytes(base[shoff + SHDR_SIZE + 24..][..8].try_into().unwrap());
    let rodata_off_field = shoff + 2 * SHDR_SIZE + 24;
    let mut image = base;
    image[rodata_off_field..rodata_off_field + 8].copy_from_slice(&(text_off + 8).to_le_bytes());
    assert_eq!(
        parse_everywhere(&image),
        Err(ElfError::OverlappingSections {
            a: ".text",
            b: ".rodata"
        })
    );
}

#[test]
fn duplicate_and_unknown_section_names_are_typed() {
    let base = write_elf(&sample());
    let shoff = shoff_of(&base);
    // Point .rodata's sh_name at .text's name: duplicate.
    let text_name = base[shoff + SHDR_SIZE..shoff + SHDR_SIZE + 4].to_vec();
    let mut image = base.clone();
    image[shoff + 2 * SHDR_SIZE..shoff + 2 * SHDR_SIZE + 4].copy_from_slice(&text_name);
    assert_eq!(
        parse_everywhere(&image),
        Err(ElfError::DuplicateSection(".text"))
    );
    // Corrupt a name byte: unknown section name.
    let mut image = base.clone();
    let shstr_off = {
        let shstrndx = u16::from_le_bytes(base[62..64].try_into().unwrap()) as usize;
        u64::from_le_bytes(
            base[shoff + shstrndx * SHDR_SIZE + 24..][..8]
                .try_into()
                .unwrap(),
        ) as usize
    };
    image[shstr_off + 1] = b'x'; // ".text" -> "xtext" (offset 1 is the first name byte)
    assert!(matches!(
        parse_everywhere(&image),
        Err(ElfError::BadSectionName(_))
    ));
}

#[test]
fn bogus_shstrndx_is_typed() {
    let mut image = write_elf(&sample());
    image[62..64].copy_from_slice(&u16::MAX.to_le_bytes());
    assert_eq!(parse_everywhere(&image), Err(ElfError::Truncated));
}

#[test]
fn wrong_class_and_endianness_are_bad_magic() {
    let base = write_elf(&sample());
    for (at, val) in [(4usize, 1u8), (5, 2), (0, 0x7e)] {
        let mut image = base.clone();
        image[at] = val;
        assert_eq!(parse_everywhere(&image), Err(ElfError::BadMagic));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary byte mutations of a valid image parse to Ok or a typed
    /// error — never a panic (a panic fails the test).
    #[test]
    fn random_mutations_never_panic(
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..12),
    ) {
        let mut image = write_elf(&sample());
        for (pos, val) in &edits {
            let at = *pos as usize % image.len();
            image[at] = *val;
        }
        let _ = parse_everywhere(&image);
    }

    /// Random truncations (optionally after mutations) never panic.
    #[test]
    fn random_truncations_never_panic(
        cut in any::<u16>(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
    ) {
        let mut image = write_elf(&sample());
        for (pos, val) in &edits {
            let at = *pos as usize % image.len();
            image[at] = *val;
        }
        let keep = cut as usize % (image.len() + 1);
        image.truncate(keep);
        let _ = parse_everywhere(&image);
    }

    /// Valid images round-trip with identical sections, symbols and
    /// entry — and every section is a window of the one image buffer.
    #[test]
    fn valid_images_roundtrip_all_paths(
        n_syms in 0usize..6,
        text_len in 1usize..512,
        entry in any::<u64>(),
    ) {
        let mut bin = sample();
        bin.entry = entry;
        bin.sections[0] =
            Section::new(SectionKind::Text, 0x40_1000, vec![0x90u8; text_len]);
        bin.symbols = (0..n_syms)
            .map(|i| Symbol {
                name: format!("f{i}"),
                addr: 0x40_1000 + i as u64 * 8,
                size: 8,
            })
            .collect();
        let image = ElfImage::parse(write_elf(&bin)).unwrap();
        let viewed = image.to_binary();
        prop_assert_eq!(&viewed.sections, &bin.sections);
        prop_assert_eq!(&viewed.symbols, &bin.symbols);
        prop_assert_eq!(viewed.entry, bin.entry);
        for pair in viewed.sections.windows(2) {
            prop_assert!(pair[0].shares_image(&pair[1]));
        }
    }
}
