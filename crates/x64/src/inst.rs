//! The decoded instruction model and its control-/stack-flow semantics.

use crate::reg::Reg;
use std::fmt;

/// Operand width for instructions that exist in 32- and 64-bit forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 32-bit operation (zero-extends the destination register).
    W32,
    /// 64-bit operation (REX.W).
    W64,
}

/// A memory operand: `[base + index*scale + disp]` or `[rip + disp]`.
///
/// # Examples
///
/// ```
/// use fetch_x64::{Mem, Reg};
/// let m = Mem::base_disp(Reg::Rbp, -8);
/// assert_eq!(m.to_string(), "[rbp-0x8]");
/// let r = Mem::rip(0x36d8b8);
/// assert_eq!(r.to_string(), "[rip+0x36d8b8]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mem {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4 or 8), if any. The index register
    /// can never be `rsp`.
    pub index: Option<(Reg, u8)>,
    /// Signed displacement.
    pub disp: i32,
    /// When set, the operand is `[rip + disp]` and `base`/`index` are unused.
    pub rip_relative: bool,
}

impl Mem {
    /// `[base]`
    pub fn base(base: Reg) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            disp: 0,
            rip_relative: false,
        }
    }

    /// `[base + disp]`
    pub fn base_disp(base: Reg, disp: i32) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            disp,
            rip_relative: false,
        }
    }

    /// `[base + index*scale + disp]`
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8, or if `index` is `rsp`
    /// (unencodable as an index register).
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i32) -> Mem {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "invalid scale {scale}");
        assert!(index != Reg::Rsp, "rsp cannot be an index register");
        Mem {
            base: Some(base),
            index: Some((index, scale)),
            disp,
            rip_relative: false,
        }
    }

    /// `[rip + disp]` — position-independent data access.
    pub fn rip(disp: i32) -> Mem {
        Mem {
            base: None,
            index: None,
            disp,
            rip_relative: true,
        }
    }

    /// `[disp32]` — absolute (SIB, no base) addressing.
    pub fn abs(disp: i32) -> Mem {
        Mem {
            base: None,
            index: None,
            disp,
            rip_relative: false,
        }
    }

    /// The absolute address referenced by a rip-relative operand, given the
    /// address of the *next* instruction. Returns `None` for non-rip operands.
    pub fn rip_target(&self, next_addr: u64) -> Option<u64> {
        if self.rip_relative {
            Some(next_addr.wrapping_add(self.disp as i64 as u64))
        } else {
            None
        }
    }

    /// Registers read when computing the effective address.
    pub fn regs_used(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index.map(|(r, _)| r))
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if self.rip_relative {
            write!(f, "rip")?;
            wrote = true;
        } else {
            if let Some(b) = self.base {
                write!(f, "{b}")?;
                wrote = true;
            }
            if let Some((i, s)) = self.index {
                if wrote {
                    write!(f, "+")?;
                }
                write!(f, "{i}*{s}")?;
                wrote = true;
            }
        }
        if self.disp != 0 || !wrote {
            if self.disp < 0 {
                write!(f, "-{:#x}", -(self.disp as i64))?;
            } else {
                if wrote {
                    write!(f, "+")?;
                }
                write!(f, "{:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// A register-or-memory operand (the ModRM `r/m` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rm {
    /// Direct register.
    Reg(Reg),
    /// Memory operand.
    Mem(Mem),
}

impl Rm {
    /// Registers read to evaluate this operand *as a source*.
    pub fn regs_used(&self) -> Vec<Reg> {
        match self {
            Rm::Reg(r) => vec![*r],
            Rm::Mem(m) => m.regs_used().collect(),
        }
    }
}

impl fmt::Display for Rm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rm::Reg(r) => write!(f, "{r}"),
            Rm::Mem(m) => write!(f, "{m}"),
        }
    }
}

impl From<Reg> for Rm {
    fn from(r: Reg) -> Rm {
        Rm::Reg(r)
    }
}

impl From<Mem> for Rm {
    fn from(m: Mem) -> Rm {
        Rm::Mem(m)
    }
}

/// Binary ALU operations sharing the classic `op r/m,r` / `op r,imm` forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Integer addition.
    Add,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// Integer subtraction.
    Sub,
    /// Bitwise exclusive or.
    Xor,
    /// Compare (subtraction that only sets flags).
    Cmp,
}

impl AluOp {
    /// The `/digit` extension used by the `0x81`/`0x83` immediate forms.
    pub fn modrm_ext(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Or => 1,
            AluOp::And => 4,
            AluOp::Sub => 5,
            AluOp::Xor => 6,
            AluOp::Cmp => 7,
        }
    }

    /// Inverse of [`AluOp::modrm_ext`].
    pub fn from_modrm_ext(ext: u8) -> Option<AluOp> {
        Some(match ext {
            0 => AluOp::Add,
            1 => AluOp::Or,
            4 => AluOp::And,
            5 => AluOp::Sub,
            6 => AluOp::Xor,
            7 => AluOp::Cmp,
            _ => return None,
        })
    }

    /// The `op r/m, r` opcode byte (e.g. `0x01` for `add`).
    pub fn mr_opcode(self) -> u8 {
        match self {
            AluOp::Add => 0x01,
            AluOp::Or => 0x09,
            AluOp::And => 0x21,
            AluOp::Sub => 0x29,
            AluOp::Xor => 0x31,
            AluOp::Cmp => 0x39,
        }
    }

    /// The `op r, r/m` opcode byte (e.g. `0x03` for `add`).
    pub fn rm_opcode(self) -> u8 {
        self.mr_opcode() + 2
    }

    /// The Intel-syntax mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Sub => "sub",
            AluOp::Xor => "xor",
            AluOp::Cmp => "cmp",
        }
    }

    /// Whether the operation writes its destination (`cmp` does not).
    pub fn writes_dst(self) -> bool {
        !matches!(self, AluOp::Cmp)
    }
}

/// Shift operations in the `0xC1 /n` immediate-count family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

impl ShiftOp {
    /// The `/digit` extension in the `0xC1` encoding.
    pub fn modrm_ext(self) -> u8 {
        match self {
            ShiftOp::Shl => 4,
            ShiftOp::Shr => 5,
            ShiftOp::Sar => 7,
        }
    }

    /// Inverse of [`ShiftOp::modrm_ext`].
    pub fn from_modrm_ext(ext: u8) -> Option<ShiftOp> {
        Some(match ext {
            4 => ShiftOp::Shl,
            5 => ShiftOp::Shr,
            7 => ShiftOp::Sar,
            _ => return None,
        })
    }

    /// The Intel-syntax mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "shl",
            ShiftOp::Shr => "shr",
            ShiftOp::Sar => "sar",
        }
    }
}

/// Condition codes for `jcc`, in hardware encoding order (0x0–0xF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // mnemonic condition codes are self-describing
pub enum Cc {
    O = 0x0,
    No = 0x1,
    B = 0x2,
    Ae = 0x3,
    E = 0x4,
    Ne = 0x5,
    Be = 0x6,
    A = 0x7,
    S = 0x8,
    Ns = 0x9,
    P = 0xa,
    Np = 0xb,
    L = 0xc,
    Ge = 0xd,
    Le = 0xe,
    G = 0xf,
}

impl Cc {
    /// All sixteen condition codes in encoding order.
    pub const ALL: [Cc; 16] = [
        Cc::O,
        Cc::No,
        Cc::B,
        Cc::Ae,
        Cc::E,
        Cc::Ne,
        Cc::Be,
        Cc::A,
        Cc::S,
        Cc::Ns,
        Cc::P,
        Cc::Np,
        Cc::L,
        Cc::Ge,
        Cc::Le,
        Cc::G,
    ];

    /// The 4-bit hardware encoding.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Looks a condition up by its 4-bit encoding.
    pub fn from_code(c: u8) -> Option<Cc> {
        Cc::ALL.get(c as usize).copied()
    }

    /// The `jcc` mnemonic (e.g. `"jne"`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cc::O => "jo",
            Cc::No => "jno",
            Cc::B => "jb",
            Cc::Ae => "jae",
            Cc::E => "je",
            Cc::Ne => "jne",
            Cc::Be => "jbe",
            Cc::A => "ja",
            Cc::S => "js",
            Cc::Ns => "jns",
            Cc::P => "jp",
            Cc::Np => "jnp",
            Cc::L => "jl",
            Cc::Ge => "jge",
            Cc::Le => "jle",
            Cc::G => "jg",
        }
    }
}

/// Sub-64-bit extension loads (`movzx`/`movsx` from 8- or 16-bit sources).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtLoad {
    /// True for sign extension (`movsx`), false for zero extension (`movzx`).
    pub sign: bool,
    /// Source width in bits: 8 or 16.
    pub src_bits: u8,
}

/// A decoded x86-64 operation.
///
/// The supported subset covers everything emitted by the synthetic compiler
/// (`fetch-synth`) plus the instructions the paper's analyses reason about:
/// prologue/epilogue stack traffic, the full direct/indirect control-flow
/// family, jump-table idioms, and padding encodings. Branch targets are held
/// as resolved absolute virtual addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `push r64`
    Push(Reg),
    /// `pop r64`
    Pop(Reg),
    /// `mov dst, src` between registers.
    MovRR(Width, Reg, Reg),
    /// `mov r, imm32` (sign-extended in the 64-bit form).
    MovRI(Width, Reg, i32),
    /// `movabs r64, imm64`
    MovAbs(Reg, u64),
    /// `mov r, [mem]` load.
    MovRM(Width, Reg, Mem),
    /// `mov [mem], r` store.
    MovMR(Width, Mem, Reg),
    /// `mov [mem], imm32` store of an immediate.
    MovMI(Width, Mem, i32),
    /// `lea r64, [mem]`
    Lea(Reg, Mem),
    /// ALU operation, register-register: `op dst, src`.
    AluRR(AluOp, Width, Reg, Reg),
    /// ALU operation with immediate: `op r, imm`.
    AluRI(AluOp, Width, Reg, i32),
    /// ALU load-operate: `op r, [mem]`.
    AluRM(AluOp, Width, Reg, Mem),
    /// `test r/m, r`
    TestRR(Width, Reg, Reg),
    /// `imul dst, src` (two-operand form).
    IMul(Width, Reg, Reg),
    /// `shl/shr/sar r, imm8`
    Shift(ShiftOp, Width, Reg, u8),
    /// `movsxd r64, r/m32` — the jump-table load.
    Movsxd(Reg, Rm),
    /// `movzx`/`movsx` from an 8/16-bit source.
    MovExt(ExtLoad, Reg, Rm),
    /// `inc r`
    Inc(Width, Reg),
    /// `dec r`
    Dec(Width, Reg),
    /// `call rel32` with resolved absolute target.
    Call(u64),
    /// `call r/m64`
    CallInd(Rm),
    /// `jmp rel8/rel32` with resolved absolute target.
    Jmp {
        /// Absolute branch target.
        target: u64,
        /// Whether the rel8 (short) encoding is used.
        short: bool,
    },
    /// `jmp r/m64`
    JmpInd(Rm),
    /// `jcc rel8/rel32` with resolved absolute target.
    Jcc {
        /// Condition code.
        cc: Cc,
        /// Absolute branch target.
        target: u64,
        /// Whether the rel8 (short) encoding is used.
        short: bool,
    },
    /// `ret`
    Ret,
    /// `leave` (`mov rsp, rbp; pop rbp`)
    Leave,
    /// `nop` of a given encoded length (1–9 bytes, canonical encodings).
    Nop(u8),
    /// `int3` padding / trap.
    Int3,
    /// `ud2` — guaranteed-invalid instruction used after `noreturn` calls.
    Ud2,
    /// `hlt`
    Hlt,
    /// `syscall`
    Syscall,
    /// `endbr64` — CET landing pad, a common modern function-start marker.
    Endbr64,
    /// `cdqe` (sign-extend eax into rax).
    Cdqe,
    /// `cqo` (sign-extend rax into rdx:rax) — precedes `idiv`.
    Cqo,
}

/// How control flow leaves an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// Execution continues at the next instruction.
    Fallthrough,
    /// Direct call: control transfers and (usually) returns to fallthrough.
    Call(u64),
    /// Indirect call through a register or memory.
    IndirectCall,
    /// Unconditional direct jump.
    Jump(u64),
    /// Indirect jump (jump table or tail call through register).
    IndirectJump,
    /// Conditional direct jump: either `target` or fallthrough.
    CondJump(u64),
    /// Function return.
    Ret,
    /// Execution cannot proceed (`ud2`, `hlt`).
    Halt,
    /// Trap/padding byte (`int3`): not part of normal control flow.
    Trap,
}

/// A decoded instruction: an [`Op`] plus its location and encoded length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Virtual address of the first byte.
    pub addr: u64,
    /// Encoded length in bytes.
    pub len: u8,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// Address of the next sequential instruction.
    #[inline]
    pub fn end(&self) -> u64 {
        self.addr + self.len as u64
    }

    /// The control-flow effect of this instruction.
    pub fn flow(&self) -> Flow {
        match self.op {
            Op::Call(t) => Flow::Call(t),
            Op::CallInd(_) => Flow::IndirectCall,
            Op::Jmp { target, .. } => Flow::Jump(target),
            Op::JmpInd(_) => Flow::IndirectJump,
            Op::Jcc { target, .. } => Flow::CondJump(target),
            Op::Ret => Flow::Ret,
            Op::Ud2 | Op::Hlt => Flow::Halt,
            Op::Int3 => Flow::Trap,
            _ => Flow::Fallthrough,
        }
    }

    /// Whether the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        !matches!(
            self.flow(),
            Flow::Fallthrough | Flow::Call(_) | Flow::IndirectCall
        )
    }

    /// The direct branch or call target, if any.
    pub fn direct_target(&self) -> Option<u64> {
        match self.op {
            Op::Call(t) | Op::Jmp { target: t, .. } | Op::Jcc { target: t, .. } => Some(t),
            _ => None,
        }
    }

    /// The effect on `rsp`, in bytes, when statically known.
    ///
    /// `push` is -8, `pop` is +8, `sub rsp, n` is `-n`, and so on. Returns
    /// `None` for instructions whose stack effect is not statically evident
    /// from the instruction alone (`leave`, `ret`, calls, and anything that
    /// does not touch `rsp`). Note `None` means "not a simple delta", not
    /// "no effect": [`Inst::clobbers_rsp`] names the non-delta writes.
    pub fn stack_delta(&self) -> Option<i64> {
        match self.op {
            Op::Push(_) => Some(-8),
            Op::Pop(_) => Some(8),
            Op::AluRI(AluOp::Sub, Width::W64, Reg::Rsp, n) => Some(-(n as i64)),
            Op::AluRI(AluOp::Add, Width::W64, Reg::Rsp, n) => Some(n as i64),
            _ => None,
        }
    }

    /// Whether the instruction writes `rsp` in a way that is *not* a simple
    /// delta (e.g. `leave`, `mov rsp, rbp`).
    pub fn clobbers_rsp(&self) -> bool {
        matches!(
            self.op,
            Op::Leave
                | Op::MovRR(_, Reg::Rsp, _)
                | Op::MovRM(_, Reg::Rsp, _)
                | Op::MovAbs(Reg::Rsp, _)
                | Op::MovRI(_, Reg::Rsp, _)
                | Op::Lea(Reg::Rsp, _)
        )
    }

    /// Visits the registers whose *values* the instruction consumes,
    /// in the same order [`Inst::regs_read`] lists them, without
    /// allocating. Dataflow loops (calling-convention validation walks
    /// every instruction of every candidate) should prefer this over
    /// collecting a `Vec` per instruction.
    ///
    /// Following the paper's calling-convention rule (§IV-E), a `push reg`
    /// in a prologue is a register *save*, not a use, so `push` reads
    /// nothing here; use [`Inst::regs_saved`] for saves. Memory operands
    /// contribute their base/index registers.
    pub fn each_reg_read(&self, mut f: impl FnMut(Reg)) {
        let mem_regs = |m: &Mem, f: &mut dyn FnMut(Reg)| {
            for r in m.regs_used() {
                f(r);
            }
        };
        let f = &mut f;
        match &self.op {
            Op::Push(_) | Op::Pop(_) => {}
            Op::MovRR(_, _, s) => f(*s),
            Op::MovRI(..) | Op::MovAbs(..) => {}
            Op::MovRM(_, _, m) => mem_regs(m, f),
            Op::MovMR(_, m, s) => {
                mem_regs(m, f);
                f(*s);
            }
            Op::MovMI(_, m, _) => mem_regs(m, f),
            Op::Lea(_, m) => mem_regs(m, f),
            Op::AluRR(op, _, d, s) => {
                // xor r, r is the idiomatic zeroing: it does not read r.
                if !(*op == AluOp::Xor && d == s) {
                    f(*d);
                    f(*s);
                }
            }
            Op::AluRI(_, _, d, _) => f(*d),
            Op::AluRM(_, _, d, m) => {
                f(*d);
                mem_regs(m, f);
            }
            Op::TestRR(_, a, b) => {
                f(*a);
                f(*b);
            }
            Op::IMul(_, d, s) => {
                f(*d);
                f(*s);
            }
            Op::Shift(_, _, r, _) => f(*r),
            Op::Movsxd(_, rm) | Op::MovExt(_, _, rm) => match rm {
                Rm::Reg(r) => f(*r),
                Rm::Mem(m) => mem_regs(m, f),
            },
            Op::Inc(_, r) | Op::Dec(_, r) => f(*r),
            Op::Call(_) | Op::Jmp { .. } | Op::Jcc { .. } => {}
            Op::CallInd(rm) | Op::JmpInd(rm) => match rm {
                Rm::Reg(r) => f(*r),
                Rm::Mem(m) => mem_regs(m, f),
            },
            Op::Ret => {}
            Op::Leave => f(Reg::Rbp),
            Op::Cdqe | Op::Cqo => f(Reg::Rax),
            Op::Nop(_) | Op::Int3 | Op::Ud2 | Op::Hlt | Op::Syscall | Op::Endbr64 => {}
        }
    }

    /// Registers whose *values* the instruction consumes, collected
    /// from [`Inst::each_reg_read`] (which documents the semantics).
    pub fn regs_read(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.each_reg_read(|r| v.push(r));
        v
    }

    /// Visits the registers the instruction writes, in the same order
    /// [`Inst::regs_written`] lists them, without allocating.
    pub fn each_reg_written(&self, mut f: impl FnMut(Reg)) {
        match &self.op {
            Op::Push(_) => f(Reg::Rsp),
            Op::Pop(r) => {
                f(*r);
                f(Reg::Rsp);
            }
            Op::MovRR(_, d, _)
            | Op::MovRI(_, d, _)
            | Op::MovAbs(d, _)
            | Op::MovRM(_, d, _)
            | Op::Lea(d, _) => f(*d),
            Op::MovMR(..) | Op::MovMI(..) => {}
            Op::AluRR(op, _, d, _) | Op::AluRI(op, _, d, _) | Op::AluRM(op, _, d, _) => {
                if op.writes_dst() {
                    f(*d);
                }
            }
            Op::TestRR(..) => {}
            Op::IMul(_, d, _) => f(*d),
            Op::Shift(_, _, r, _) => f(*r),
            Op::Movsxd(d, _) | Op::MovExt(_, d, _) => f(*d),
            Op::Inc(_, r) | Op::Dec(_, r) => f(*r),
            // A call clobbers all caller-saved registers and defines rax.
            Op::Call(_) | Op::CallInd(_) => {
                for r in [
                    Reg::Rax,
                    Reg::Rcx,
                    Reg::Rdx,
                    Reg::Rsi,
                    Reg::Rdi,
                    Reg::R8,
                    Reg::R9,
                    Reg::R10,
                    Reg::R11,
                ] {
                    f(r);
                }
            }
            Op::Jmp { .. } | Op::JmpInd(_) | Op::Jcc { .. } | Op::Ret => {}
            Op::Leave => {
                f(Reg::Rsp);
                f(Reg::Rbp);
            }
            Op::Cdqe => f(Reg::Rax),
            Op::Cqo => f(Reg::Rdx),
            Op::Syscall => {
                f(Reg::Rax);
                f(Reg::Rcx);
                f(Reg::R11);
            }
            Op::Nop(_) | Op::Int3 | Op::Ud2 | Op::Hlt | Op::Endbr64 => {}
        }
    }

    /// Registers the instruction writes, collected from
    /// [`Inst::each_reg_written`].
    pub fn regs_written(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.each_reg_written(|r| v.push(r));
        v
    }

    /// Callee-register saves: `push reg` reports the pushed register here.
    pub fn regs_saved(&self) -> Option<Reg> {
        match self.op {
            Op::Push(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this is a padding instruction (`nop` family or `int3`),
    /// as used for inter-function alignment.
    pub fn is_padding(&self) -> bool {
        matches!(self.op, Op::Nop(_) | Op::Int3)
    }

    /// Constant operands that could be code pointers (used by the
    /// conservative function-pointer collection of §IV-E).
    pub fn const_operands(&self) -> Vec<u64> {
        self.const_operand().into_iter().collect()
    }

    /// Non-allocating form of [`Self::const_operands`]: the encodings
    /// modeled here carry at most one immediate wide enough to be a
    /// code pointer.
    pub fn const_operand(&self) -> Option<u64> {
        match self.op {
            Op::MovAbs(_, v) => Some(v),
            Op::MovRI(_, _, v) if v > 0 => Some(v as u64),
            Op::MovMI(_, _, v) if v > 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The absolute address loaded by a rip-relative `lea`, if any.
    pub fn lea_rip_target(&self) -> Option<u64> {
        match self.op {
            Op::Lea(_, m) => m.rip_target(self.end()),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rn(w: Width, r: Reg) -> String {
            match w {
                Width::W64 => r.name().to_string(),
                Width::W32 => r.name32().to_string(),
            }
        }
        match &self.op {
            Op::Push(r) => write!(f, "push {r}"),
            Op::Pop(r) => write!(f, "pop {r}"),
            Op::MovRR(w, d, s) => write!(f, "mov {}, {}", rn(*w, *d), rn(*w, *s)),
            Op::MovRI(w, d, i) => write!(f, "mov {}, {:#x}", rn(*w, *d), i),
            Op::MovAbs(d, i) => write!(f, "movabs {d}, {i:#x}"),
            Op::MovRM(w, d, m) => write!(f, "mov {}, {m}", rn(*w, *d)),
            Op::MovMR(w, m, s) => write!(f, "mov {m}, {}", rn(*w, *s)),
            Op::MovMI(w, m, i) => write!(
                f,
                "mov {} {m}, {i:#x}",
                match w {
                    Width::W64 => "qword",
                    Width::W32 => "dword",
                }
            ),
            Op::Lea(d, m) => write!(f, "lea {d}, {m}"),
            Op::AluRR(op, w, d, s) => write!(f, "{} {}, {}", op.mnemonic(), rn(*w, *d), rn(*w, *s)),
            Op::AluRI(op, w, d, i) => write!(f, "{} {}, {:#x}", op.mnemonic(), rn(*w, *d), i),
            Op::AluRM(op, w, d, m) => write!(f, "{} {}, {m}", op.mnemonic(), rn(*w, *d)),
            Op::TestRR(w, a, b) => write!(f, "test {}, {}", rn(*w, *a), rn(*w, *b)),
            Op::IMul(w, d, s) => write!(f, "imul {}, {}", rn(*w, *d), rn(*w, *s)),
            Op::Shift(op, w, r, i) => write!(f, "{} {}, {i}", op.mnemonic(), rn(*w, *r)),
            Op::Movsxd(d, rm) => write!(f, "movsxd {d}, {rm}"),
            Op::MovExt(e, d, rm) => {
                write!(f, "{} {d}, {rm}", if e.sign { "movsx" } else { "movzx" })
            }
            Op::Inc(w, r) => write!(f, "inc {}", rn(*w, *r)),
            Op::Dec(w, r) => write!(f, "dec {}", rn(*w, *r)),
            Op::Call(t) => write!(f, "call {t:#x}"),
            Op::CallInd(rm) => write!(f, "call {rm}"),
            Op::Jmp { target, .. } => write!(f, "jmp {target:#x}"),
            Op::JmpInd(rm) => write!(f, "jmp {rm}"),
            Op::Jcc { cc, target, .. } => write!(f, "{} {target:#x}", cc.mnemonic()),
            Op::Ret => write!(f, "ret"),
            Op::Leave => write!(f, "leave"),
            Op::Nop(_) => write!(f, "nop"),
            Op::Int3 => write!(f, "int3"),
            Op::Ud2 => write!(f, "ud2"),
            Op::Hlt => write!(f, "hlt"),
            Op::Syscall => write!(f, "syscall"),
            Op::Endbr64 => write!(f, "endbr64"),
            Op::Cdqe => write!(f, "cdqe"),
            Op::Cqo => write!(f, "cqo"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(op: Op) -> Inst {
        Inst {
            addr: 0x1000,
            len: 3,
            op,
        }
    }

    #[test]
    fn stack_deltas() {
        assert_eq!(at(Op::Push(Reg::Rbp)).stack_delta(), Some(-8));
        assert_eq!(at(Op::Pop(Reg::Rbx)).stack_delta(), Some(8));
        assert_eq!(
            at(Op::AluRI(AluOp::Sub, Width::W64, Reg::Rsp, 0x28)).stack_delta(),
            Some(-0x28)
        );
        assert_eq!(
            at(Op::AluRI(AluOp::Add, Width::W64, Reg::Rsp, 8)).stack_delta(),
            Some(8)
        );
        assert_eq!(at(Op::Leave).stack_delta(), None);
        assert!(at(Op::Leave).clobbers_rsp());
        assert_eq!(
            at(Op::AluRI(AluOp::Sub, Width::W64, Reg::Rax, 8)).stack_delta(),
            None
        );
    }

    #[test]
    fn flow_classification() {
        assert_eq!(at(Op::Call(0x2000)).flow(), Flow::Call(0x2000));
        assert_eq!(
            at(Op::Jmp {
                target: 0x2000,
                short: false
            })
            .flow(),
            Flow::Jump(0x2000)
        );
        assert_eq!(
            at(Op::Jcc {
                cc: Cc::Ne,
                target: 0x2000,
                short: true
            })
            .flow(),
            Flow::CondJump(0x2000)
        );
        assert_eq!(at(Op::Ret).flow(), Flow::Ret);
        assert_eq!(at(Op::Ud2).flow(), Flow::Halt);
        assert_eq!(at(Op::Int3).flow(), Flow::Trap);
        assert!(at(Op::Ret).is_terminator());
        assert!(!at(Op::Call(0)).is_terminator());
    }

    #[test]
    fn xor_zeroing_reads_nothing() {
        let i = at(Op::AluRR(AluOp::Xor, Width::W32, Reg::Rdi, Reg::Rdi));
        assert!(i.regs_read().is_empty());
        assert_eq!(i.regs_written(), vec![Reg::Rdi]);
        let j = at(Op::AluRR(AluOp::Xor, Width::W64, Reg::Rax, Reg::Rbx));
        assert_eq!(j.regs_read(), vec![Reg::Rax, Reg::Rbx]);
    }

    #[test]
    fn push_is_a_save_not_a_use() {
        let i = at(Op::Push(Reg::Rbp));
        assert!(i.regs_read().is_empty());
        assert_eq!(i.regs_saved(), Some(Reg::Rbp));
        assert_eq!(i.regs_written(), vec![Reg::Rsp]);
    }

    #[test]
    fn rip_lea_resolves_target() {
        let i = Inst {
            addr: 0xb1,
            len: 7,
            op: Op::Lea(Reg::Rax, Mem::rip(0x36d8b8)),
        };
        // Matches Figure 4a line 3: lea rax,[rip+0x36d8b8] at address b1.
        assert_eq!(i.lea_rip_target(), Some(0xb1 + 7 + 0x36d8b8));
    }

    #[test]
    fn display_formats() {
        assert_eq!(at(Op::Push(Reg::Rbp)).to_string(), "push rbp");
        assert_eq!(
            at(Op::AluRI(AluOp::Sub, Width::W64, Reg::Rsp, 8)).to_string(),
            "sub rsp, 0x8"
        );
        assert_eq!(
            Inst {
                addr: 0,
                len: 4,
                op: Op::MovRM(Width::W64, Reg::Rdi, Mem::base(Reg::Rbx))
            }
            .to_string(),
            "mov rdi, [rbx]"
        );
        assert_eq!(Mem::base_disp(Reg::Rbp, -16).to_string(), "[rbp-0x10]");
        assert_eq!(
            Mem::base_index(Reg::R11, Reg::Rax, 4, 0).to_string(),
            "[r11+rax*4]"
        );
    }

    #[test]
    fn call_clobbers_caller_saved() {
        let w = at(Op::Call(0)).regs_written();
        assert!(w.contains(&Reg::Rax) && w.contains(&Reg::R11));
        assert!(!w.contains(&Reg::Rbx) && !w.contains(&Reg::R12));
    }
}
