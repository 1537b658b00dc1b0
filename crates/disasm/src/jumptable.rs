//! Jump-table recognition and solving.
//!
//! Implements the DYNINST-style pattern analysis the paper adopts for its
//! "safe" recursive disassembly (§IV-C): only indirect jumps that match the
//! bounds-checked table idiom are resolved; every other indirect jump is
//! left unfollowed, so recursion never guesses.

use fetch_binary::Binary;
use fetch_x64::{AluOp, Cc, Inst, Mem, Op, Reg, Rm, Width};

/// How many instructions before the jump the solver reads. It keeps the
/// nearest match of each piece, so a chain that grows backward can turn
/// "unsolved" into "solved" but never change a solved answer; a chain
/// already this long is final.
pub(crate) const JT_WINDOW: usize = 12;

/// A solved jump table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JumpTable {
    /// Address of the indirect jump.
    pub jmp_addr: u64,
    /// Address of the table data (in `.rodata` or embedded in `.text`).
    pub table_addr: u64,
    /// Resolved case targets (absolute, all within `.text`).
    pub targets: Vec<u64>,
}

/// Attempts to solve the indirect jump `jmp` (the last instruction of
/// `block`) against the classic GCC/LLVM idiom:
///
/// ```text
/// cmp  idx, N-1
/// ja   default
/// lea  base, [rip + table]
/// movsxd r, dword [base + idx*4]
/// add  r, base
/// jmp  r
/// ```
///
/// Returns `None` unless every piece is found and all `N` entries resolve
/// to addresses inside `.text` — the conservative stance of §IV-C.
pub fn solve_jump_table(block: &[Inst], jmp: &Inst, bin: &Binary) -> Option<JumpTable> {
    let jump_reg = match jmp.op {
        Op::JmpInd(Rm::Reg(r)) => r,
        _ => return None,
    };

    // Walk backwards over the block looking for the pieces.
    let mut add_base: Option<Reg> = None;
    let mut index_reg: Option<Reg> = None;
    let mut table_addr: Option<u64> = None;
    let mut bound: Option<u64> = None;
    let mut saw_ja = false;

    for inst in block.iter().rev().skip(1).take(JT_WINDOW) {
        match inst.op {
            // add r, base — completes the target computation.
            Op::AluRR(AluOp::Add, Width::W64, d, s) if d == jump_reg && add_base.is_none() => {
                add_base = Some(s);
            }
            // movsxd r, [base + idx*4]
            Op::Movsxd(
                d,
                Rm::Mem(Mem {
                    base: Some(b),
                    index: Some((ix, 4)),
                    disp: 0,
                    ..
                }),
            ) if d == jump_reg && Some(b) == add_base && index_reg.is_none() => {
                index_reg = Some(ix);
            }
            // lea base, [rip + table]
            Op::Lea(d, m) if Some(d) == add_base && m.rip_relative && table_addr.is_none() => {
                table_addr = m.rip_target(inst.end());
            }
            // ja default — the unsigned bound guard.
            Op::Jcc { cc: Cc::A, .. } => saw_ja = true,
            // cmp idx, N-1 (the index may have been copied through another
            // register, so accept a cmp on any register once `ja` is seen).
            Op::AluRI(AluOp::Cmp, _, _, n) if saw_ja && bound.is_none() && n >= 0 => {
                bound = Some(n as u64 + 1);
            }
            _ => {}
        }
    }

    let (table_addr, bound) = (table_addr?, bound?);
    index_reg?;
    if bound == 0 || bound > 4096 {
        return None;
    }

    // Read the table: `bound` i32 entries relative to the table base.
    let mut targets = Vec::with_capacity(bound as usize);
    for i in 0..bound {
        let entry = bin.read_i32(table_addr + i * 4)?;
        let target = table_addr.wrapping_add(entry as i64 as u64);
        if !bin.is_code(target) {
            return None; // a non-code target falsifies the pattern
        }
        targets.push(target);
    }
    Some(JumpTable {
        jmp_addr: jmp.addr,
        table_addr,
        targets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_binary::{BuildInfo, Section, SectionKind};
    use fetch_x64::{decode, Asm};

    /// Builds a binary containing exactly the idiom and checks the solver.
    #[test]
    fn solves_the_classic_idiom() {
        let text_base = 0x40_1000u64;
        let mut asm = Asm::new();
        // mov eax, edi
        asm.push(Op::MovRR(Width::W32, Reg::Rax, Reg::Rdi));
        // cmp rax, 3 (4 cases)
        asm.push(Op::AluRI(AluOp::Cmp, Width::W64, Reg::Rax, 3));
        let default = asm.new_label();
        asm.jcc(Cc::A, default);
        // lea r11, [rip + table] — patched manually below.
        asm.lea_rip_ext(Reg::R11, 0);
        asm.push(Op::Movsxd(
            Reg::Rax,
            Rm::Mem(Mem::base_index(Reg::R11, Reg::Rax, 4, 0)),
        ));
        asm.push(Op::AluRR(AluOp::Add, Width::W64, Reg::Rax, Reg::R11));
        asm.push(Op::JmpInd(Rm::Reg(Reg::Rax)));
        // Case bodies: 4 × (nop; ret).
        let mut case_offsets = Vec::new();
        for _ in 0..4 {
            case_offsets.push(asm.here());
            asm.push(Op::Nop(1));
            asm.push(Op::Ret);
        }
        asm.bind(default);
        asm.push(Op::Ret);
        let mut out = asm.finalize().unwrap();

        // Table placed in .rodata.
        let rodata_base = 0x40_2000u64;
        let mut rodata = Vec::new();
        for &off in &case_offsets {
            let target = text_base + off as u64;
            rodata.extend_from_slice(&((target as i64 - rodata_base as i64) as i32).to_le_bytes());
        }
        // Patch the lea to point at the table.
        let fix = out.fixups[0];
        out.patch_rel32(fix.pos, text_base, rodata_base);

        let bin = Binary {
            name: "jt".into(),
            info: BuildInfo::gcc_o2(),
            sections: vec![
                Section::new(SectionKind::Text, text_base, out.bytes.clone()),
                Section::new(SectionKind::Rodata, rodata_base, rodata),
            ],
            symbols: vec![],
            entry: text_base,
        };

        // Decode the block up to the indirect jump.
        let mut block = Vec::new();
        let mut addr = text_base;
        let text = bin.text();
        loop {
            let inst = decode(text.slice_from(addr).unwrap(), addr).unwrap();
            let is_jmp = matches!(inst.op, Op::JmpInd(_));
            addr = inst.end();
            block.push(inst);
            if is_jmp {
                break;
            }
        }
        let jmp = *block.last().unwrap();
        let jt = solve_jump_table(&block, &jmp, &bin).expect("idiom recognized");
        assert_eq!(jt.table_addr, rodata_base);
        assert_eq!(jt.targets.len(), 4);
        for (t, &off) in jt.targets.iter().zip(&case_offsets) {
            assert_eq!(*t, text_base + off as u64);
        }
    }

    #[test]
    fn rejects_plain_indirect_jumps() {
        let bin = Binary {
            name: "x".into(),
            info: BuildInfo::gcc_o2(),
            sections: vec![Section::new(SectionKind::Text, 0x1000, vec![0xff, 0xe0])],
            symbols: vec![],
            entry: 0x1000,
        };
        let jmp = decode(&[0xff, 0xe0], 0x1000).unwrap();
        assert_eq!(solve_jump_table(&[jmp], &jmp, &bin), None);
    }
}
