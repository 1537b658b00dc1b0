//! Final layout: place hot parts, cold parts, tables and blobs; patch all
//! references; emit `.eh_frame`, symbols, and the ground truth.

use crate::codegen::{FuncCode, StackEvent};
use crate::config::SynthConfig;
use crate::plan::{FdePolicy, ProgramPlan, TargetRef};
use fetch_binary::{
    Binary, FunctionTruth, GroundTruth, Part, Section, SectionKind, Symbol, TestCase,
};
use fetch_ehframe::{encode_eh_frame, CfiInst, Cie, EhFrame, Fde};
use fetch_x64::{nop_bytes, Reg};
use rand::rngs::StdRng;
use rand::Rng;

/// Base virtual address of `.text` (conventional for non-PIE executables).
pub const TEXT_BASE: u64 = 0x40_1000;

/// Builds the CFI program for a part from its stack-event trace.
///
/// Frameless functions produce a `DW_CFA_def_cfa_offset` at every height
/// change (complete heights); `mov rbp, rsp` switches the CFA base to
/// `rbp`, after which height changes are no longer recorded — exactly the
/// incomplete class the paper's Algorithm 1 skips (§V-B).
pub fn build_cfis(events: &[(usize, StackEvent)]) -> Vec<CfiInst> {
    let mut out = Vec::new();
    let mut cfa_off: i64 = 8;
    let mut last_loc = 0usize;
    let mut rbp_based = false;
    for &(off, ev) in events {
        let mut emits: Vec<CfiInst> = Vec::new();
        match ev {
            StackEvent::Push(r) => {
                cfa_off += 8;
                if !rbp_based {
                    emits.push(CfiInst::DefCfaOffset {
                        offset: cfa_off as u64,
                    });
                }
                if r.is_callee_saved() {
                    emits.push(CfiInst::Offset {
                        reg: r,
                        factored: (cfa_off / 8) as u64,
                    });
                }
            }
            StackEvent::Pop(_) => {
                cfa_off -= 8;
                if !rbp_based {
                    emits.push(CfiInst::DefCfaOffset {
                        offset: cfa_off as u64,
                    });
                }
            }
            StackEvent::SubRsp(n) => {
                cfa_off += n as i64;
                if !rbp_based {
                    emits.push(CfiInst::DefCfaOffset {
                        offset: cfa_off as u64,
                    });
                }
            }
            StackEvent::AddRsp(n) => {
                cfa_off -= n as i64;
                if !rbp_based {
                    emits.push(CfiInst::DefCfaOffset {
                        offset: cfa_off as u64,
                    });
                }
            }
            StackEvent::SetRbp => {
                rbp_based = true;
                emits.push(CfiInst::DefCfaRegister { reg: Reg::Rbp });
            }
            StackEvent::Leave => {
                rbp_based = false;
                cfa_off = 8;
                emits.push(CfiInst::DefCfa {
                    reg: Reg::Rsp,
                    offset: 8,
                });
            }
        }
        if !emits.is_empty() {
            let delta = (off - last_loc) as u64;
            if delta > 0 {
                out.push(CfiInst::AdvanceLoc { delta });
                last_loc = off;
            }
            out.append(&mut emits);
        }
    }
    out
}

#[derive(Clone)]
struct PlacedPart {
    addr: u64,
    len: u64,
}

/// Lays a lowered program out into a [`TestCase`].
pub fn layout(
    plan: &ProgramPlan,
    codes: &[FuncCode],
    cfg: &SynthConfig,
    rng: &mut StdRng,
) -> TestCase {
    assert_eq!(plan.funcs.len(), codes.len());
    let n = codes.len();
    let align = cfg.rates.align.max(1);

    // ---------- pass 1: place hot parts, text blobs, in-text tables ----------
    let mut text: Vec<u8> = Vec::new();
    let mut hot: Vec<PlacedPart> = Vec::with_capacity(n);
    // (func, jt index) -> table address; filled during placement.
    let mut jt_addr: Vec<Vec<u64>> = vec![Vec::new(); n];
    // Jump tables assigned to .rodata wait for its base address.
    let mut rodata_tables: Vec<(usize, usize, usize)> = Vec::new(); // (func, jt, rodata_off)
    let mut rodata: Vec<u8> = Vec::new();

    let pad_to = |text: &mut Vec<u8>, align: u64, fill_int3: bool| {
        while !(TEXT_BASE + text.len() as u64).is_multiple_of(align) {
            if fill_int3 {
                text.push(0xcc);
            } else {
                let need = (align - (TEXT_BASE + text.len() as u64) % align) as usize;
                let take = need.min(9);
                text.extend_from_slice(nop_bytes(take as u8).expect("1..=9"));
            }
        }
    };

    for (i, code) in codes.iter().enumerate() {
        // Mislabeled FDEs point one byte before the start; guarantee the
        // preceding byte is an int3 so the bogus block is visibly invalid.
        let int3_pad = plan.funcs[i].fde == FdePolicy::Mislabeled;
        pad_to(&mut text, align, int3_pad);
        if int3_pad && (TEXT_BASE + text.len() as u64).is_multiple_of(align) && text.is_empty() {
            text.push(0xcc); // never place a mislabeled function first
        }
        if int3_pad && !text.is_empty() && *text.last().unwrap() != 0xcc {
            *text.last_mut().unwrap() = 0xcc;
        }
        let addr = TEXT_BASE + text.len() as u64;
        text.extend_from_slice(&code.hot.bytes);
        hot.push(PlacedPart {
            addr,
            len: code.hot.bytes.len() as u64,
        });

        // Jump tables: in text right after the function, or deferred to
        // .rodata, decided per table.
        for (k, jt) in code.hot.jump_tables.iter().enumerate() {
            let in_text = rng.gen_bool(cfg.rates.data_in_text.min(1.0));
            if in_text {
                let taddr = TEXT_BASE + text.len() as u64;
                for &case_off in &jt.case_offsets {
                    let target = addr + case_off as u64;
                    let rel = (target as i64 - taddr as i64) as i32;
                    text.extend_from_slice(&rel.to_le_bytes());
                }
                jt_addr[i].push(taddr);
            } else {
                rodata_tables.push((i, k, rodata.len()));
                jt_addr[i].push(0); // patched once rodata base is known
                rodata.extend_from_slice(&vec![0u8; jt.case_offsets.len() * 4]);
            }
        }

        // Text blob after this function?
        for blob in plan.text_blobs.iter().filter(|b| b.after_func == i) {
            text.extend_from_slice(&blob.bytes);
        }
    }

    // ---------- pass 2: cold zone ----------
    let mut cold: Vec<Option<PlacedPart>> = vec![None; n];
    pad_to(&mut text, align, false);
    for (i, code) in codes.iter().enumerate() {
        if let Some(c) = &code.cold {
            pad_to(&mut text, 8, false);
            let addr = TEXT_BASE + text.len() as u64;
            text.extend_from_slice(&c.bytes);
            cold[i] = Some(PlacedPart {
                addr,
                len: c.bytes.len() as u64,
            });
            assert!(
                c.jump_tables.is_empty(),
                "cold parts carry no jump tables in the generator"
            );
        }
    }

    // ---------- section base addresses ----------
    let page = 0x1000u64;
    let rodata_base = (TEXT_BASE + text.len() as u64 + page) / page * page;
    // Rodata blobs follow the deferred jump tables.
    let mut rodata_blob_addr: Vec<u64> = Vec::new();
    {
        // Patch deferred tables now that the base is known.
        for &(f, k, off) in &rodata_tables {
            jt_addr[f][k] = rodata_base + off as u64;
        }
        // Add string-ish blobs referenced by TakeAddress/RodataBlob.
        for _ in 0..8 {
            rodata_blob_addr.push(rodata_base + rodata.len() as u64);
            let len = rng.gen_range(8..64);
            for _ in 0..len {
                rodata.push(rng.gen_range(0x20..0x7f));
            }
            rodata.push(0);
        }
    }
    let data_base = (rodata_base + rodata.len() as u64 + page) / page * page;

    // ---------- .data: pointer tables ----------
    let mut data: Vec<u8> = Vec::new();
    let mut data_obj_addr: Vec<u64> = Vec::new();
    for table in &plan.pointer_tables {
        data_obj_addr.push(data_base + data.len() as u64);
        for &f in table {
            data.extend_from_slice(&hot[f].addr.to_le_bytes());
        }
        // Interleave non-pointer payload so the scan must validate.
        for _ in 0..rng.gen_range(1..4) {
            data.extend_from_slice(&rng.gen_range(0u64..0x10000).to_le_bytes());
        }
    }
    if data.is_empty() {
        data.extend_from_slice(&0u64.to_le_bytes());
    }

    // ---------- pass 3: patch fixups ----------
    let resolve = |t: TargetRef, func: usize| -> u64 {
        match t {
            TargetRef::Func(i) => hot[i].addr,
            TargetRef::Cold(i) => cold[i].as_ref().expect("cold part exists").addr,
            TargetRef::Mid { func, anchor } => {
                hot[func].addr + codes[func].hot.anchors[anchor] as u64
            }
            TargetRef::JumpTable(k) => jt_addr[func][k],
            TargetRef::RodataBlob(k) => rodata_blob_addr[k % rodata_blob_addr.len()],
            TargetRef::DataObject(k) => data_obj_addr[k % data_obj_addr.len().max(1)],
        }
    };
    for (i, code) in codes.iter().enumerate() {
        let parts: [(Option<&PlacedPart>, Option<&crate::codegen::PartCode>); 2] = [
            (Some(&hot[i]), Some(&code.hot)),
            (cold[i].as_ref(), code.cold.as_ref()),
        ];
        for (placed, part) in parts.into_iter() {
            let (Some(placed), Some(part)) = (placed, part) else {
                continue;
            };
            for fix in &part.fixups {
                let target_addr = resolve(fix.target, i);
                let field_off = (placed.addr - TEXT_BASE) as usize + fix.pos;
                // Every fixup kind is a rel32 field.
                let field_addr = TEXT_BASE + field_off as u64;
                let rel = target_addr.wrapping_sub(field_addr + 4) as i64;
                let rel = i32::try_from(rel).expect("layout stays within ±2GiB");
                text[field_off..field_off + 4].copy_from_slice(&rel.to_le_bytes());
            }
        }
    }
    // Fill deferred .rodata jump tables (entries relative to table base).
    for &(f, k, off) in &rodata_tables {
        let taddr = rodata_base + off as u64;
        for (ci, &case_off) in codes[f].hot.jump_tables[k].case_offsets.iter().enumerate() {
            let target = hot[f].addr + case_off as u64;
            let rel = (target as i64 - taddr as i64) as i32;
            rodata[off + ci * 4..off + ci * 4 + 4].copy_from_slice(&rel.to_le_bytes());
        }
    }

    // ---------- pass 4: eh_frame ----------
    let mut eh = EhFrame::new();
    let mut current: Vec<Fde> = Vec::new();
    let group_size = 16 + (cfg.seed as usize % 9);
    for (i, code) in codes.iter().enumerate() {
        match plan.funcs[i].fde {
            FdePolicy::Accurate => {
                current.push(Fde {
                    pc_begin: hot[i].addr,
                    pc_range: hot[i].len,
                    cfis: build_cfis(&code.hot.events),
                });
                if let Some(c) = &cold[i] {
                    let h = codes[i].cold_entry_height as u64;
                    let cfis = if plan.funcs[i].frame.cfi_heights_complete() {
                        vec![CfiInst::DefCfaOffset { offset: h + 8 }]
                    } else {
                        vec![CfiInst::DefCfa {
                            reg: Reg::Rbp,
                            offset: 16,
                        }]
                    };
                    current.push(Fde {
                        pc_begin: c.addr,
                        pc_range: c.len,
                        cfis,
                    });
                }
            }
            FdePolicy::None => {}
            FdePolicy::Mislabeled => {
                // Figure 6b: PC Begin one byte before the true start, with
                // expression-based register rules.
                current.push(Fde {
                    pc_begin: hot[i].addr - 1,
                    pc_range: hot[i].len + 1,
                    cfis: vec![
                        CfiInst::Expression {
                            reg: Reg::R8,
                            expr: vec![0x77, 40],
                        },
                        CfiInst::Expression {
                            reg: Reg::R9,
                            expr: vec![0x77, 48],
                        },
                    ],
                });
            }
        }
        if current.len() >= group_size {
            eh.groups
                .push((Cie::default(), std::mem::take(&mut current)));
        }
    }
    if !current.is_empty() {
        eh.groups.push((Cie::default(), current));
    }
    let eh_base = (data_base + data.len() as u64 + page) / page * page;
    let eh_bytes = encode_eh_frame(&eh, eh_base)
        .expect("synthesized layouts stay within the ±2GiB pcrel window");

    // ---------- pass 5: symbols + ground truth ----------
    let mut symbols = Vec::new();
    let mut functions = Vec::new();
    for (i, p) in plan.funcs.iter().enumerate() {
        let mut parts = vec![Part {
            start: hot[i].addr,
            len: hot[i].len,
            has_fde: p.fde != FdePolicy::None,
            has_symbol: p.symbol,
        }];
        if p.symbol {
            symbols.push(Symbol {
                name: p.name.clone(),
                addr: hot[i].addr,
                size: hot[i].len,
            });
        }
        if let Some(c) = &cold[i] {
            parts.push(Part {
                start: c.addr,
                len: c.len,
                has_fde: p.fde == FdePolicy::Accurate,
                has_symbol: p.symbol,
            });
            if p.symbol {
                symbols.push(Symbol {
                    name: format!("{}.cold", p.name),
                    addr: c.addr,
                    size: c.len,
                });
            }
        }
        functions.push(FunctionTruth {
            name: p.name.clone(),
            kind: p.kind,
            reach: p.reach,
            parts,
        });
    }

    let binary = Binary {
        name: cfg.name.clone(),
        info: cfg.info.clone(),
        sections: vec![
            Section::new(SectionKind::Text, TEXT_BASE, text),
            Section::new(SectionKind::Rodata, rodata_base, rodata),
            Section::new(SectionKind::Data, data_base, data),
            Section::new(SectionKind::EhFrame, eh_base, eh_bytes),
        ],
        symbols: if cfg.symbols { symbols } else { Vec::new() },
        entry: hot[0].addr,
    };

    TestCase {
        binary,
        truth: GroundTruth { functions },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_ehframe::stack_heights;

    #[test]
    fn build_cfis_matches_figure_4b_shape() {
        // push rbp(1) .. push rbx(13) .. sub rsp,8(24) .. add(53) pop(54) pop(55)
        let events = vec![
            (1, StackEvent::Push(Reg::Rbp)),
            (13, StackEvent::Push(Reg::Rbx)),
            (24, StackEvent::SubRsp(8)),
            (53, StackEvent::AddRsp(8)),
            (54, StackEvent::Pop(Reg::Rbx)),
            (55, StackEvent::Pop(Reg::Rbp)),
        ];
        let cfis = build_cfis(&events);
        assert_eq!(
            cfis,
            vec![
                CfiInst::AdvanceLoc { delta: 1 },
                CfiInst::DefCfaOffset { offset: 16 },
                CfiInst::Offset {
                    reg: Reg::Rbp,
                    factored: 2
                },
                CfiInst::AdvanceLoc { delta: 12 },
                CfiInst::DefCfaOffset { offset: 24 },
                CfiInst::Offset {
                    reg: Reg::Rbx,
                    factored: 3
                },
                CfiInst::AdvanceLoc { delta: 11 },
                CfiInst::DefCfaOffset { offset: 32 },
                CfiInst::AdvanceLoc { delta: 29 },
                CfiInst::DefCfaOffset { offset: 24 },
                CfiInst::AdvanceLoc { delta: 1 },
                CfiInst::DefCfaOffset { offset: 16 },
                CfiInst::AdvanceLoc { delta: 1 },
                CfiInst::DefCfaOffset { offset: 8 },
            ]
        );
    }

    #[test]
    fn rbp_frame_cfis_are_incomplete() {
        let events = vec![
            (1, StackEvent::Push(Reg::Rbp)),
            (4, StackEvent::SetRbp),
            (8, StackEvent::SubRsp(32)),
            (40, StackEvent::Leave),
        ];
        let cfis = build_cfis(&events);
        let fde = Fde {
            pc_begin: 0x1000,
            pc_range: 0x40,
            cfis,
        };
        let cie = Cie::default();
        assert_eq!(stack_heights(&cie, &fde).unwrap(), None);
    }

    #[test]
    fn frameless_cfis_are_complete() {
        let events = vec![
            (2, StackEvent::Push(Reg::Rbx)),
            (6, StackEvent::SubRsp(24)),
            (30, StackEvent::AddRsp(24)),
            (31, StackEvent::Pop(Reg::Rbx)),
        ];
        let fde = Fde {
            pc_begin: 0x1000,
            pc_range: 0x40,
            cfis: build_cfis(&events),
        };
        let h = stack_heights(&Cie::default(), &fde)
            .unwrap()
            .expect("complete");
        assert_eq!(h.height_at(0x1000), Some(0));
        assert_eq!(h.height_at(0x1002), Some(8));
        assert_eq!(h.height_at(0x1006), Some(32));
        assert_eq!(h.height_at(0x1000 + 31), Some(0));
    }
}
