//! x86-64 instruction encoding and a small label-aware assembler.
//!
//! [`encode`] lowers a single [`Op`] at a known address. [`Asm`] builds
//! whole function bodies with forward labels and external fixups, which the
//! synthetic compiler patches after final code layout.

use crate::inst::{Cc, ExtLoad, Op, Rm, Width};
use crate::reg::Reg;
use std::fmt;

/// Errors produced while encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A rel8/rel32 branch target does not fit the displacement field.
    BranchOutOfRange {
        /// Instruction address.
        at: u64,
        /// Desired target address.
        target: u64,
    },
    /// An internal label was referenced but never bound.
    UnboundLabel(usize),
    /// The operand combination has no encoding in the supported subset.
    Unencodable,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::BranchOutOfRange { at, target } => {
                write!(
                    f,
                    "branch at {at:#x} to {target:#x} out of displacement range"
                )
            }
            EncodeError::UnboundLabel(ix) => write!(f, "label {ix} was never bound"),
            EncodeError::Unencodable => write!(f, "operand combination has no supported encoding"),
        }
    }
}

impl std::error::Error for EncodeError {}

fn rex_byte(w: bool, r: bool, x: bool, b: bool) -> Option<u8> {
    if w || r || x || b {
        Some(0x40 | (w as u8) << 3 | (r as u8) << 2 | (x as u8) << 1 | b as u8)
    } else {
        None
    }
}

/// Emits REX (if needed), opcode bytes, and a ModRM/SIB/disp sequence for
/// `regfield` (a register number or opcode extension) against `rm`.
fn emit_modrm(out: &mut Vec<u8>, w: bool, opcode: &[u8], regfield: u8, rm: &Rm) {
    let (rex_r, reg3) = (regfield >= 8, regfield & 7);
    match rm {
        Rm::Reg(r) => {
            if let Some(rex) = rex_byte(w, rex_r, false, r.needs_rex()) {
                out.push(rex);
            }
            out.extend_from_slice(opcode);
            out.push(0b11 << 6 | reg3 << 3 | r.low3());
        }
        Rm::Mem(m) => {
            // Work out mod/rm/SIB/displacement first to know REX.X/REX.B.
            let mut rex_x = false;
            let mut rex_b = false;
            let mut sib: Option<u8> = None;
            let (md, rm_low, disp_bytes): (u8, u8, DispKind) = if m.rip_relative {
                (0, 0b101, DispKind::D32(m.disp))
            } else {
                match (m.base, m.index) {
                    (None, None) => {
                        // Absolute disp32 via SIB with no base.
                        sib = Some((0b100 << 3) | 0b101);
                        (0, 0b100, DispKind::D32(m.disp))
                    }
                    (None, Some((idx, scale))) => {
                        rex_x = idx.needs_rex();
                        sib = Some(scale_bits(scale) << 6 | idx.low3() << 3 | 0b101);
                        (0, 0b100, DispKind::D32(m.disp))
                    }
                    (Some(base), index) => {
                        rex_b = base.needs_rex();
                        let needs_sib = base.low3() == 0b100 || index.is_some();
                        let (md, disp) = disp_kind(m.disp, base);
                        let rm_low = if needs_sib {
                            let (idx3, scale) = match index {
                                Some((idx, scale)) => {
                                    rex_x = idx.needs_rex();
                                    (idx.low3(), scale)
                                }
                                None => (0b100, 1),
                            };
                            sib = Some(scale_bits(scale) << 6 | idx3 << 3 | base.low3());
                            0b100
                        } else {
                            base.low3()
                        };
                        (md, rm_low, disp)
                    }
                }
            };
            if let Some(rex) = rex_byte(w, rex_r, rex_x, rex_b) {
                out.push(rex);
            }
            out.extend_from_slice(opcode);
            out.push(md << 6 | reg3 << 3 | rm_low);
            if let Some(s) = sib {
                out.push(s);
            }
            match disp_bytes {
                DispKind::None => {}
                DispKind::D8(d) => out.push(d as u8),
                DispKind::D32(d) => out.extend_from_slice(&d.to_le_bytes()),
            }
        }
    }
}

enum DispKind {
    None,
    D8(i8),
    D32(i32),
}

fn scale_bits(scale: u8) -> u8 {
    match scale {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => panic!("invalid scale {scale}"),
    }
}

/// Chooses the smallest displacement encoding, honouring the rbp/r13
/// quirk (mod 00 with those bases means rip-relative/disp32).
fn disp_kind(disp: i32, base: Reg) -> (u8, DispKind) {
    let base_needs_disp = base.low3() == 0b101; // rbp or r13
    if disp == 0 && !base_needs_disp {
        (0, DispKind::None)
    } else if let Ok(d8) = i8::try_from(disp) {
        (1, DispKind::D8(d8))
    } else {
        (2, DispKind::D32(disp))
    }
}

fn wbit(w: Width) -> bool {
    w == Width::W64
}

/// Encodes `op` as it would appear at virtual address `addr`, appending the
/// bytes to `out`.
///
/// # Errors
///
/// Returns [`EncodeError::BranchOutOfRange`] when a direct branch target
/// cannot be reached with the chosen (short/near) displacement size, and
/// [`EncodeError::Unencodable`] for operand shapes outside the subset.
///
/// # Examples
///
/// ```
/// use fetch_x64::{encode, decode, Op, Reg};
/// let mut out = Vec::new();
/// encode(&Op::Push(Reg::Rbp), 0xb0, &mut out)?;
/// assert_eq!(out, [0x55]);
/// assert_eq!(decode(&out, 0xb0)?.op, Op::Push(Reg::Rbp));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn encode(op: &Op, addr: u64, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    match op {
        Op::Push(r) => {
            if let Some(rex) = rex_byte(false, false, false, r.needs_rex()) {
                out.push(rex);
            }
            out.push(0x50 + r.low3());
        }
        Op::Pop(r) => {
            if let Some(rex) = rex_byte(false, false, false, r.needs_rex()) {
                out.push(rex);
            }
            out.push(0x58 + r.low3());
        }
        Op::MovRR(w, d, s) => emit_modrm(out, wbit(*w), &[0x89], s.number(), &Rm::Reg(*d)),
        Op::MovRI(w, d, imm) => match w {
            Width::W64 => {
                emit_modrm(out, true, &[0xc7], 0, &Rm::Reg(*d));
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Width::W32 => {
                if let Some(rex) = rex_byte(false, false, false, d.needs_rex()) {
                    out.push(rex);
                }
                out.push(0xb8 + d.low3());
                out.extend_from_slice(&imm.to_le_bytes());
            }
        },
        Op::MovAbs(d, imm) => {
            out.push(rex_byte(true, false, false, d.needs_rex()).expect("REX.W always present"));
            out.push(0xb8 + d.low3());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Op::MovRM(w, d, m) => emit_modrm(out, wbit(*w), &[0x8b], d.number(), &Rm::Mem(*m)),
        Op::MovMR(w, m, s) => emit_modrm(out, wbit(*w), &[0x89], s.number(), &Rm::Mem(*m)),
        Op::MovMI(w, m, imm) => {
            emit_modrm(out, wbit(*w), &[0xc7], 0, &Rm::Mem(*m));
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Op::Lea(d, m) => emit_modrm(out, true, &[0x8d], d.number(), &Rm::Mem(*m)),
        Op::AluRR(alu, w, d, s) => {
            emit_modrm(out, wbit(*w), &[alu.mr_opcode()], s.number(), &Rm::Reg(*d))
        }
        Op::AluRI(alu, w, d, imm) => {
            let (opc, short) = if i8::try_from(*imm).is_ok() {
                (0x83u8, true)
            } else {
                (0x81u8, false)
            };
            emit_modrm(out, wbit(*w), &[opc], alu.modrm_ext(), &Rm::Reg(*d));
            if short {
                out.push(*imm as u8);
            } else {
                out.extend_from_slice(&imm.to_le_bytes());
            }
        }
        Op::AluRM(alu, w, d, m) => {
            emit_modrm(out, wbit(*w), &[alu.rm_opcode()], d.number(), &Rm::Mem(*m))
        }
        Op::TestRR(w, a, b) => emit_modrm(out, wbit(*w), &[0x85], b.number(), &Rm::Reg(*a)),
        Op::IMul(w, d, s) => emit_modrm(out, wbit(*w), &[0x0f, 0xaf], d.number(), &Rm::Reg(*s)),
        Op::Shift(sh, w, r, imm) => {
            emit_modrm(out, wbit(*w), &[0xc1], sh.modrm_ext(), &Rm::Reg(*r));
            out.push(*imm);
        }
        Op::Movsxd(d, rm) => emit_modrm(out, true, &[0x63], d.number(), rm),
        Op::MovExt(ExtLoad { sign, src_bits }, d, rm) => {
            let opc2 = match (sign, src_bits) {
                (false, 8) => 0xb6,
                (false, 16) => 0xb7,
                (true, 8) => 0xbe,
                (true, 16) => 0xbf,
                _ => return Err(EncodeError::Unencodable),
            };
            emit_modrm(out, true, &[0x0f, opc2], d.number(), rm);
        }
        Op::Inc(w, r) => emit_modrm(out, wbit(*w), &[0xff], 0, &Rm::Reg(*r)),
        Op::Dec(w, r) => emit_modrm(out, wbit(*w), &[0xff], 1, &Rm::Reg(*r)),
        Op::Call(target) => {
            out.push(0xe8);
            let rel = rel32(addr, out.len() as u64 + 4, *target).ok_or(
                EncodeError::BranchOutOfRange {
                    at: addr,
                    target: *target,
                },
            )?;
            out.extend_from_slice(&rel.to_le_bytes());
        }
        Op::CallInd(rm) => emit_modrm(out, false, &[0xff], 2, rm),
        Op::Jmp { target, short } => {
            if *short {
                out.push(0xeb);
                let rel = rel8(addr, out.len() as u64 + 1, *target).ok_or(
                    EncodeError::BranchOutOfRange {
                        at: addr,
                        target: *target,
                    },
                )?;
                out.push(rel as u8);
            } else {
                out.push(0xe9);
                let rel = rel32(addr, out.len() as u64 + 4, *target).ok_or(
                    EncodeError::BranchOutOfRange {
                        at: addr,
                        target: *target,
                    },
                )?;
                out.extend_from_slice(&rel.to_le_bytes());
            }
        }
        Op::JmpInd(rm) => emit_modrm(out, false, &[0xff], 4, rm),
        Op::Jcc { cc, target, short } => {
            if *short {
                out.push(0x70 + cc.code());
                let rel = rel8(addr, out.len() as u64 + 1, *target).ok_or(
                    EncodeError::BranchOutOfRange {
                        at: addr,
                        target: *target,
                    },
                )?;
                out.push(rel as u8);
            } else {
                out.push(0x0f);
                out.push(0x80 + cc.code());
                let rel = rel32(addr, out.len() as u64 + 4, *target).ok_or(
                    EncodeError::BranchOutOfRange {
                        at: addr,
                        target: *target,
                    },
                )?;
                out.extend_from_slice(&rel.to_le_bytes());
            }
        }
        Op::Ret => out.push(0xc3),
        Op::Leave => out.push(0xc9),
        Op::Nop(len) => out.extend_from_slice(nop_bytes(*len)?),
        Op::Int3 => out.push(0xcc),
        Op::Ud2 => out.extend_from_slice(&[0x0f, 0x0b]),
        Op::Hlt => out.push(0xf4),
        Op::Syscall => out.extend_from_slice(&[0x0f, 0x05]),
        Op::Endbr64 => out.extend_from_slice(&[0xf3, 0x0f, 0x1e, 0xfa]),
        Op::Cdqe => out.extend_from_slice(&[0x48, 0x98]),
        Op::Cqo => out.extend_from_slice(&[0x48, 0x99]),
    }
    Ok(())
}

fn rel32(inst_addr: u64, len_after_field: u64, target: u64) -> Option<i32> {
    let next = inst_addr.wrapping_add(len_after_field);
    let rel = target.wrapping_sub(next) as i64;
    i32::try_from(rel).ok()
}

fn rel8(inst_addr: u64, len_after_field: u64, target: u64) -> Option<i8> {
    let next = inst_addr.wrapping_add(len_after_field);
    let rel = target.wrapping_sub(next) as i64;
    i8::try_from(rel).ok()
}

/// Canonical multi-byte nop encodings, as emitted by GNU as.
pub fn nop_bytes(len: u8) -> Result<&'static [u8], EncodeError> {
    Ok(match len {
        1 => &[0x90],
        2 => &[0x66, 0x90],
        3 => &[0x0f, 0x1f, 0x00],
        4 => &[0x0f, 0x1f, 0x40, 0x00],
        5 => &[0x0f, 0x1f, 0x44, 0x00, 0x00],
        6 => &[0x66, 0x0f, 0x1f, 0x44, 0x00, 0x00],
        7 => &[0x0f, 0x1f, 0x80, 0x00, 0x00, 0x00, 0x00],
        8 => &[0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00],
        9 => &[0x66, 0x0f, 0x1f, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00],
        _ => return Err(EncodeError::Unencodable),
    })
}

/// An internal label inside one [`Asm`] buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// The kind of patch an external fixup requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixupKind {
    /// A 4-byte field holding `target - (field_addr + 4)`.
    Rel32,
    /// A 4-byte field holding `target - (field_addr + 4)` used by a
    /// rip-relative memory operand (identical patch math to `Rel32`,
    /// distinguished for diagnostics).
    RipDisp32,
}

/// A reference to a symbol outside the current [`Asm`] buffer, to be patched
/// after layout. `target` is an opaque id whose meaning the caller defines
/// (the synthetic compiler uses function and data-object ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtFixup {
    /// Byte offset of the patch field within the emitted buffer.
    pub pos: usize,
    /// Patch semantics.
    pub kind: FixupKind,
    /// Opaque target id.
    pub target: u32,
}

/// Finished assembler output: raw bytes plus outstanding external fixups.
#[derive(Debug, Clone, Default)]
pub struct AsmOut {
    /// Encoded machine code.
    pub bytes: Vec<u8>,
    /// External references to patch after layout.
    pub fixups: Vec<ExtFixup>,
}

impl AsmOut {
    /// Patches a [`FixupKind::Rel32`]/[`FixupKind::RipDisp32`] field given
    /// the final address of this buffer and of the target.
    ///
    /// # Panics
    ///
    /// Panics if the displacement does not fit in 32 bits (the synthetic
    /// layouts stay far below 2 GiB).
    pub fn patch_rel32(&mut self, fixup_pos: usize, self_addr: u64, target_addr: u64) {
        let field_addr = self_addr + fixup_pos as u64;
        let rel = target_addr.wrapping_sub(field_addr + 4) as i64;
        let rel = i32::try_from(rel).expect("rel32 fixup in range");
        self.bytes[fixup_pos..fixup_pos + 4].copy_from_slice(&rel.to_le_bytes());
    }
}

/// A small assembler: append [`Op`]s, bind labels, reference external
/// symbols, then [`Asm::finalize`].
///
/// Internal branches always use near (rel32) forms so that label distances
/// never overflow. Addresses inside the buffer are offsets from zero; the
/// caller relocates via [`ExtFixup`]s, which is sound because every
/// *internal* reference is position-relative.
///
/// # Examples
///
/// ```
/// use fetch_x64::{Asm, Op, Reg};
/// let mut asm = Asm::new();
/// let done = asm.new_label();
/// asm.push(Op::Push(Reg::Rbp));
/// asm.jmp(done);
/// asm.push(Op::Ud2);
/// asm.bind(done);
/// asm.push(Op::Ret);
/// let out = asm.finalize()?;
/// assert!(!out.bytes.is_empty());
/// # Ok::<(), fetch_x64::EncodeError>(())
/// ```
#[derive(Debug, Default)]
pub struct Asm {
    bytes: Vec<u8>,
    labels: Vec<Option<usize>>,
    // (field offset, label) — field holds rel32 relative to field+4.
    pending: Vec<(usize, Label)>,
    fixups: Vec<ExtFixup>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current offset (future address relative to buffer start).
    pub fn here(&self) -> usize {
        self.bytes.len()
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.bytes.len());
    }

    /// Appends a non-branching instruction.
    ///
    /// Direct-branch `Op`s with absolute targets are rejected here — use
    /// [`Asm::jmp`]/[`Asm::jcc`] or the `_ext` variants
    /// so targets stay relocatable.
    ///
    /// # Panics
    ///
    /// Panics on `Op::Call`/`Op::Jmp`/`Op::Jcc` or an unencodable operand
    /// shape: within the generator these are programming errors.
    pub fn push(&mut self, op: Op) {
        assert!(
            !matches!(op, Op::Call(_) | Op::Jmp { .. } | Op::Jcc { .. }),
            "use label-based emitters for direct branches"
        );
        encode(&op, self.bytes.len() as u64, &mut self.bytes).expect("encodable op");
    }

    /// Emits `jmp label` (near form).
    pub fn jmp(&mut self, label: Label) {
        self.bytes.push(0xe9);
        self.pending.push((self.bytes.len(), label));
        self.bytes.extend_from_slice(&[0; 4]);
    }

    /// Emits `jcc label` (near form).
    pub fn jcc(&mut self, cc: Cc, label: Label) {
        self.bytes.push(0x0f);
        self.bytes.push(0x80 + cc.code());
        self.pending.push((self.bytes.len(), label));
        self.bytes.extend_from_slice(&[0; 4]);
    }

    /// Emits `call rel32` to the external symbol `target`.
    pub fn call_ext(&mut self, target: u32) {
        self.bytes.push(0xe8);
        self.fixups.push(ExtFixup {
            pos: self.bytes.len(),
            kind: FixupKind::Rel32,
            target,
        });
        self.bytes.extend_from_slice(&[0; 4]);
    }

    /// Emits `jmp rel32` to the external symbol `target` (tail call or
    /// non-contiguous-part transfer).
    pub fn jmp_ext(&mut self, target: u32) {
        self.bytes.push(0xe9);
        self.fixups.push(ExtFixup {
            pos: self.bytes.len(),
            kind: FixupKind::Rel32,
            target,
        });
        self.bytes.extend_from_slice(&[0; 4]);
    }

    /// Emits `jcc rel32` to the external symbol `target`.
    pub fn jcc_ext(&mut self, cc: Cc, target: u32) {
        self.bytes.push(0x0f);
        self.bytes.push(0x80 + cc.code());
        self.fixups.push(ExtFixup {
            pos: self.bytes.len(),
            kind: FixupKind::Rel32,
            target,
        });
        self.bytes.extend_from_slice(&[0; 4]);
    }

    /// Emits `lea reg, [rip + ext]` referencing external symbol `target`.
    pub fn lea_rip_ext(&mut self, reg: Reg, target: u32) {
        let rex = rex_byte(true, reg.needs_rex(), false, false).expect("REX.W set");
        self.bytes.push(rex);
        self.bytes.push(0x8d);
        self.bytes.push(reg.low3() << 3 | 0b101); // mod 00, rm 101 = rip
        self.fixups.push(ExtFixup {
            pos: self.bytes.len(),
            kind: FixupKind::RipDisp32,
            target,
        });
        self.bytes.extend_from_slice(&[0; 4]);
    }

    /// Appends raw bytes (data-in-text, padding, hand-crafted encodings).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Resolves internal labels and returns the bytes plus external fixups.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::UnboundLabel`] if any referenced label was
    /// never bound.
    pub fn finalize(self) -> Result<AsmOut, EncodeError> {
        let Asm {
            mut bytes,
            labels,
            pending,
            fixups,
        } = self;
        for (pos, label) in pending {
            let target = labels[label.0].ok_or(EncodeError::UnboundLabel(label.0))?;
            let rel = target as i64 - (pos as i64 + 4);
            let rel = i32::try_from(rel).expect("intra-function branch fits rel32");
            bytes[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        Ok(AsmOut { bytes, fixups })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::inst::{AluOp, Mem, ShiftOp};

    fn roundtrip(op: Op) {
        let mut bytes = Vec::new();
        encode(&op, 0x40_0000, &mut bytes).expect("encodes");
        let inst = decode(&bytes, 0x40_0000).expect("decodes");
        assert_eq!(inst.op, op, "bytes {bytes:x?}");
        assert_eq!(inst.len as usize, bytes.len());
    }

    #[test]
    fn roundtrip_core_ops() {
        use Width::*;
        for r in Reg::ALL {
            roundtrip(Op::Push(r));
            roundtrip(Op::Pop(r));
        }
        roundtrip(Op::MovRR(W64, Reg::Rbp, Reg::Rsp));
        roundtrip(Op::MovRR(W32, Reg::Rax, Reg::R9));
        roundtrip(Op::MovRI(W64, Reg::Rax, -1));
        roundtrip(Op::MovRI(W32, Reg::Rsi, 0x4437e0));
        roundtrip(Op::MovAbs(Reg::R10, 0xdead_beef_dead_beef));
        roundtrip(Op::MovRM(W64, Reg::Rdi, Mem::base(Reg::Rbx)));
        roundtrip(Op::MovRM(W64, Reg::Rax, Mem::base_disp(Reg::Rbp, -8)));
        roundtrip(Op::MovRM(W64, Reg::Rax, Mem::base_disp(Reg::Rsp, 0x10)));
        roundtrip(Op::MovRM(W64, Reg::Rcx, Mem::base_disp(Reg::R13, 0)));
        roundtrip(Op::MovRM(W64, Reg::Rcx, Mem::base_disp(Reg::R12, 4)));
        roundtrip(Op::MovMR(W64, Mem::base(Reg::Rdi), Reg::Rax));
        roundtrip(Op::MovMI(W32, Mem::base_disp(Reg::Rsp, 8), 42));
        roundtrip(Op::Lea(Reg::Rbp, Mem::base_disp(Reg::Rdi, 0x50)));
        roundtrip(Op::Lea(Reg::Rax, Mem::rip(0x36d8b8)));
        roundtrip(Op::Lea(Reg::R11, Mem::rip(-0x1234)));
        roundtrip(Op::AluRR(AluOp::Sub, W64, Reg::Rbx, Reg::Rax));
        roundtrip(Op::AluRI(AluOp::Sub, W64, Reg::Rsp, 8));
        roundtrip(Op::AluRI(AluOp::Add, W64, Reg::Rsp, 0x128));
        roundtrip(Op::AluRI(AluOp::Cmp, W64, Reg::Rax, 100));
        roundtrip(Op::AluRM(
            AluOp::Add,
            W64,
            Reg::Rax,
            Mem::base_disp(Reg::Rbp, -16),
        ));
        roundtrip(Op::AluRR(AluOp::Xor, W32, Reg::Rdi, Reg::Rdi));
        roundtrip(Op::TestRR(W64, Reg::Rax, Reg::Rax));
        roundtrip(Op::IMul(W64, Reg::Rax, Reg::Rbx));
        roundtrip(Op::Shift(ShiftOp::Shl, W64, Reg::Rax, 3));
        roundtrip(Op::Shift(ShiftOp::Sar, W64, Reg::Rdx, 63));
        roundtrip(Op::Movsxd(
            Reg::Rax,
            Rm::Mem(Mem::base_index(Reg::R11, Reg::Rax, 4, 0)),
        ));
        roundtrip(Op::MovExt(
            ExtLoad {
                sign: false,
                src_bits: 8,
            },
            Reg::Rax,
            Rm::Reg(Reg::Rcx),
        ));
        roundtrip(Op::MovExt(
            ExtLoad {
                sign: true,
                src_bits: 16,
            },
            Reg::Rdx,
            Rm::Mem(Mem::base(Reg::Rsi)),
        ));
        roundtrip(Op::Inc(W64, Reg::Rcx));
        roundtrip(Op::Dec(W64, Reg::R15));
        roundtrip(Op::CallInd(Rm::Reg(Reg::Rax)));
        roundtrip(Op::CallInd(Rm::Mem(Mem::base_index(
            Reg::Rdi,
            Reg::Rcx,
            8,
            0x20,
        ))));
        roundtrip(Op::JmpInd(Rm::Reg(Reg::R11)));
        roundtrip(Op::Ret);
        roundtrip(Op::Leave);
        roundtrip(Op::Int3);
        roundtrip(Op::Ud2);
        roundtrip(Op::Hlt);
        roundtrip(Op::Syscall);
        roundtrip(Op::Endbr64);
        roundtrip(Op::Cdqe);
        roundtrip(Op::Cqo);
        for len in 1..=9u8 {
            roundtrip(Op::Nop(len));
        }
    }

    #[test]
    fn roundtrip_branches() {
        roundtrip(Op::Call(0x40_1234));
        roundtrip(Op::Jmp {
            target: 0x3f_f000,
            short: false,
        });
        roundtrip(Op::Jmp {
            target: 0x40_0012,
            short: true,
        });
        for cc in Cc::ALL {
            roundtrip(Op::Jcc {
                cc,
                target: 0x40_0040,
                short: true,
            });
            roundtrip(Op::Jcc {
                cc,
                target: 0x41_0000,
                short: false,
            });
        }
    }

    #[test]
    fn short_branch_out_of_range() {
        let mut out = Vec::new();
        let err = encode(
            &Op::Jmp {
                target: 0x50_0000,
                short: true,
            },
            0x40_0000,
            &mut out,
        );
        assert!(matches!(err, Err(EncodeError::BranchOutOfRange { .. })));
    }

    #[test]
    fn asm_labels_and_fixups() {
        let mut asm = Asm::new();
        let loop_top = asm.new_label();
        asm.push(Op::AluRR(AluOp::Xor, Width::W32, Reg::Rax, Reg::Rax));
        asm.bind(loop_top);
        asm.push(Op::Inc(Width::W64, Reg::Rax));
        asm.push(Op::AluRI(AluOp::Cmp, Width::W64, Reg::Rax, 10));
        asm.jcc(Cc::Ne, loop_top);
        asm.call_ext(77);
        asm.push(Op::Ret);
        let out = asm.finalize().unwrap();
        assert_eq!(out.fixups.len(), 1);
        assert_eq!(out.fixups[0].target, 77);

        // Decode the stream placed at 0x1000 and check the loop branch.
        let mut addr = 0x1000u64;
        let mut off = 0usize;
        let mut insts = Vec::new();
        while off < out.bytes.len() {
            let i = decode(&out.bytes[off..], addr).unwrap();
            off += i.len as usize;
            addr += i.len as u64;
            insts.push(i);
        }
        // xor(2) at 0x1000; inc(3) at 0x1002 = loop_top
        let jcc = insts
            .iter()
            .find(|i| matches!(i.op, Op::Jcc { .. }))
            .unwrap();
        assert_eq!(jcc.direct_target(), Some(0x1002));
    }

    #[test]
    fn asm_patching_rel32() {
        let mut asm = Asm::new();
        asm.call_ext(5);
        asm.push(Op::Ret);
        let mut out = asm.finalize().unwrap();
        let fix = out.fixups[0];
        // Buffer placed at 0x40_0000, target function at 0x40_2000.
        out.patch_rel32(fix.pos, 0x40_0000, 0x40_2000);
        let inst = decode(&out.bytes, 0x40_0000).unwrap();
        assert_eq!(inst.op, Op::Call(0x40_2000));
    }

    #[test]
    fn asm_lea_rip_ext_patches() {
        let mut asm = Asm::new();
        asm.lea_rip_ext(Reg::R11, 9);
        let mut out = asm.finalize().unwrap();
        let fix = out.fixups[0];
        assert_eq!(fix.kind, FixupKind::RipDisp32);
        out.patch_rel32(fix.pos, 0x40_0000, 0x48_0000);
        let inst = decode(&out.bytes, 0x40_0000).unwrap();
        assert_eq!(inst.lea_rip_target(), Some(0x48_0000));
    }

    #[test]
    fn unbound_label_errors() {
        let mut asm = Asm::new();
        let l = asm.new_label();
        asm.jmp(l);
        assert!(matches!(asm.finalize(), Err(EncodeError::UnboundLabel(_))));
    }
}
