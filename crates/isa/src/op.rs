//! Opcodes, comparison operators, execution classes, and their functional
//! (value-level) semantics.
//!
//! The simulator executes kernels *functionally* — register values are real
//! `u32` words (floats are IEEE-754 bit patterns) and branches depend on
//! computed values. This is what lets loop trip counts and branch paths be
//! data-dependent, which in turn is what makes the paper's *compiler-based
//! profiling* inaccurate on Category-2 workloads (Fig. 4).

use std::fmt;

use crate::grid::WARP_SIZE;

/// Integer/float comparison operator used by `SETP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned greater-or-equal.
    Uge,
}

impl CmpOp {
    /// Evaluates the comparison on two 32-bit words.
    ///
    /// Signed variants reinterpret the words as `i32`.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => sa < sb,
            CmpOp::Le => sa <= sb,
            CmpOp::Gt => sa > sb,
            CmpOp::Ge => sa >= sb,
            CmpOp::Ult => a < b,
            CmpOp::Uge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Ult => "ult",
            CmpOp::Uge => "uge",
        };
        f.write_str(s)
    }
}

/// The execution-resource class of an instruction, used by the simulator to
/// pick a pipeline and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Integer ALU ops (adds, shifts, logic, compares, moves).
    IntAlu,
    /// Single-precision floating-point ops on the FP units.
    Fp,
    /// Special-function-unit ops (reciprocal, sqrt, log, exp).
    Sfu,
    /// Global/shared memory loads and stores (LSU).
    Mem,
    /// Control flow (branches, exit, barrier).
    Control,
}

/// Instruction opcode.
///
/// The set is deliberately small — just enough to express the synthetic
/// reproductions of the Rodinia/Parboil kernels — but every opcode has full
/// functional semantics via [`Opcode::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Copy `src0` to `dst` (also used for immediate and special-reg moves).
    Mov,
    /// 32-bit wrapping integer add.
    IAdd,
    /// 32-bit wrapping integer subtract.
    ISub,
    /// 32-bit wrapping integer multiply (low half).
    IMul,
    /// Integer multiply-add: `dst = src0 * src1 + src2` (wrapping).
    IMad,
    /// Signed minimum.
    IMin,
    /// Signed maximum.
    IMax,
    /// Bitwise and.
    IAnd,
    /// Bitwise or.
    IOr,
    /// Bitwise xor.
    IXor,
    /// Logical shift left by `src1 & 31`.
    IShl,
    /// Logical shift right by `src1 & 31`.
    IShr,
    /// IEEE-754 single-precision add.
    FAdd,
    /// IEEE-754 single-precision multiply.
    FMul,
    /// Fused multiply-add `dst = src0 * src1 + src2`.
    FFma,
    /// Reciprocal approximation (SFU).
    FRcp,
    /// Square root approximation (SFU).
    FSqrt,
    /// Base-2 logarithm approximation (SFU).
    FLog2,
    /// Base-2 exponential approximation (SFU).
    FExp2,
    /// Set predicate from comparison of `src0` and `src1`.
    Setp(CmpOp),
    /// Select: `dst = pred ? src0 : src1` (predicate is the guard source).
    Selp,
    /// Load from global memory: `dst = mem[src0 + imm]`.
    Ldg,
    /// Store to global memory: `mem[src0 + imm] = src1`.
    Stg,
    /// Load from CTA-shared memory.
    Lds,
    /// Store to CTA-shared memory.
    Sts,
    /// Warp shuffle: `dst = value of src0 in lane (src1 & 31)`.
    Shfl,
    /// Branch to `target` (possibly predicated, possibly divergent).
    Bra,
    /// CTA-wide barrier.
    Bar,
    /// Terminate the thread.
    Exit,
    /// No operation (consumes an issue slot only).
    Nop,
}

impl Opcode {
    /// Returns the execution-resource class of the opcode.
    pub fn exec_class(self) -> ExecClass {
        use Opcode::*;
        match self {
            Mov | IAdd | ISub | IMul | IMad | IMin | IMax | IAnd | IOr | IXor | IShl | IShr
            | Setp(_) | Selp | Shfl | Nop => ExecClass::IntAlu,
            FAdd | FMul | FFma => ExecClass::Fp,
            FRcp | FSqrt | FLog2 | FExp2 => ExecClass::Sfu,
            Ldg | Stg | Lds | Sts => ExecClass::Mem,
            Bra | Bar | Exit => ExecClass::Control,
        }
    }

    /// Returns `true` for memory loads (`Ldg`, `Lds`).
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Ldg | Opcode::Lds)
    }

    /// Returns `true` for memory stores (`Stg`, `Sts`).
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Stg | Opcode::Sts)
    }

    /// Returns `true` for global-memory accesses.
    pub fn is_global_mem(self) -> bool {
        matches!(self, Opcode::Ldg | Opcode::Stg)
    }

    /// Returns `true` if this opcode can change control flow.
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Bra)
    }

    /// Evaluates a pure (non-memory, non-control) opcode on up to three
    /// 32-bit operands.
    ///
    /// Floating-point opcodes reinterpret the words as IEEE-754 `f32` bit
    /// patterns. `Setp` returns `1` for true and `0` for false.
    ///
    /// # Panics
    ///
    /// Panics if called on a memory, control, or `Shfl` opcode — those need
    /// machine state beyond the operand values and are executed by the
    /// simulator directly.
    #[inline(always)]
    pub fn eval(self, srcs: [u32; 3]) -> u32 {
        use Opcode::*;
        let [a, b, c] = srcs;
        let (fa, fb, fc) = (f32::from_bits(a), f32::from_bits(b), f32::from_bits(c));
        match self {
            Mov => a,
            IAdd => a.wrapping_add(b),
            ISub => a.wrapping_sub(b),
            IMul => a.wrapping_mul(b),
            IMad => a.wrapping_mul(b).wrapping_add(c),
            IMin => ((a as i32).min(b as i32)) as u32,
            IMax => ((a as i32).max(b as i32)) as u32,
            IAnd => a & b,
            IOr => a | b,
            IXor => a ^ b,
            IShl => a.wrapping_shl(b & 31),
            IShr => a.wrapping_shr(b & 31),
            FAdd => (fa + fb).to_bits(),
            FMul => (fa * fb).to_bits(),
            FFma => fa.mul_add(fb, fc).to_bits(),
            FRcp => (1.0 / fa).to_bits(),
            FSqrt => fa.sqrt().to_bits(),
            FLog2 => fa.log2().to_bits(),
            FExp2 => fa.exp2().to_bits(),
            Setp(op) => u32::from(op.eval(a, b)),
            // The guard value is passed as the third operand by the executor.
            Selp => {
                if c != 0 {
                    a
                } else {
                    b
                }
            }
            Shfl | Ldg | Stg | Lds | Sts | Bra | Bar | Exit | Nop => {
                panic!("Opcode::eval called on non-pure opcode {self:?}")
            }
        }
    }

    /// [`Opcode::eval`] across a warp: lane `l` of the result is
    /// `self.eval([a[l], b[l], c[l]])` for every lane, whatever the lane's
    /// exec mask (pure opcodes have no side effects, so the caller writes
    /// back only the lanes that execute).
    ///
    /// The semantics live in `eval` alone: each arm below runs `eval` on a
    /// constant opcode, so once inlined the per-opcode dispatch folds away
    /// and the loop over the row is that opcode's arithmetic.
    ///
    /// # Panics
    ///
    /// Panics on the opcodes [`Opcode::eval`] rejects.
    #[inline]
    pub fn eval_row(self, srcs: [&[u32; WARP_SIZE]; 3]) -> [u32; WARP_SIZE] {
        use Opcode::*;
        match self {
            Mov => lanes(Mov, srcs),
            IAdd => lanes(IAdd, srcs),
            ISub => lanes(ISub, srcs),
            IMul => lanes(IMul, srcs),
            IMad => lanes(IMad, srcs),
            IMin => lanes(IMin, srcs),
            IMax => lanes(IMax, srcs),
            IAnd => lanes(IAnd, srcs),
            IOr => lanes(IOr, srcs),
            IXor => lanes(IXor, srcs),
            IShl => lanes(IShl, srcs),
            IShr => lanes(IShr, srcs),
            FAdd => lanes(FAdd, srcs),
            FMul => lanes(FMul, srcs),
            FFma => lanes(FFma, srcs),
            FRcp => lanes(FRcp, srcs),
            FSqrt => lanes(FSqrt, srcs),
            FLog2 => lanes(FLog2, srcs),
            FExp2 => lanes(FExp2, srcs),
            Setp(cmp) => match cmp {
                CmpOp::Eq => lanes(Setp(CmpOp::Eq), srcs),
                CmpOp::Ne => lanes(Setp(CmpOp::Ne), srcs),
                CmpOp::Lt => lanes(Setp(CmpOp::Lt), srcs),
                CmpOp::Le => lanes(Setp(CmpOp::Le), srcs),
                CmpOp::Gt => lanes(Setp(CmpOp::Gt), srcs),
                CmpOp::Ge => lanes(Setp(CmpOp::Ge), srcs),
                CmpOp::Ult => lanes(Setp(CmpOp::Ult), srcs),
                CmpOp::Uge => lanes(Setp(CmpOp::Uge), srcs),
            },
            Selp => lanes(Selp, srcs),
            Shfl | Ldg | Stg | Lds | Sts | Bra | Bar | Exit | Nop => lanes(self, srcs),
        }
    }
}

/// `op.eval` on every lane of the rows `srcs`.
#[inline(always)]
fn lanes(op: Opcode, srcs: [&[u32; WARP_SIZE]; 3]) -> [u32; WARP_SIZE] {
    let [a, b, c] = srcs;
    let mut out = [0; WARP_SIZE];
    for (l, o) in out.iter_mut().enumerate() {
        *o = op.eval([a[l], b[l], c[l]]);
    }
    out
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        match self {
            Setp(c) => write!(f, "setp.{c}"),
            other => {
                let s = match other {
                    Mov => "mov",
                    IAdd => "iadd",
                    ISub => "isub",
                    IMul => "imul",
                    IMad => "imad",
                    IMin => "imin",
                    IMax => "imax",
                    IAnd => "and",
                    IOr => "or",
                    IXor => "xor",
                    IShl => "shl",
                    IShr => "shr",
                    FAdd => "fadd",
                    FMul => "fmul",
                    FFma => "ffma",
                    FRcp => "frcp",
                    FSqrt => "fsqrt",
                    FLog2 => "flog2",
                    FExp2 => "fexp2",
                    Selp => "selp",
                    Ldg => "ld.global",
                    Stg => "st.global",
                    Lds => "ld.shared",
                    Sts => "st.shared",
                    Shfl => "shfl",
                    Bra => "bra",
                    Bar => "bar.sync",
                    Exit => "exit",
                    Nop => "nop",
                    Setp(_) => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn integer_ops_wrap() {
        assert_eq!(Opcode::IAdd.eval([u32::MAX, 1, 0]), 0);
        assert_eq!(Opcode::ISub.eval([0, 1, 0]), u32::MAX);
        assert_eq!(Opcode::IMul.eval([0x8000_0000, 2, 0]), 0);
    }

    #[test]
    fn imad_combines_mul_and_add() {
        assert_eq!(Opcode::IMad.eval([3, 4, 5]), 17);
    }

    #[test]
    fn min_max_are_signed() {
        let neg1 = -1i32 as u32;
        assert_eq!(Opcode::IMin.eval([neg1, 1, 0]), neg1);
        assert_eq!(Opcode::IMax.eval([neg1, 1, 0]), 1);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(Opcode::IShl.eval([1, 33, 0]), 2);
        assert_eq!(Opcode::IShr.eval([4, 33, 0]), 2);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let a = 1.5f32.to_bits();
        let b = 2.25f32.to_bits();
        assert_eq!(f32::from_bits(Opcode::FAdd.eval([a, b, 0])), 3.75);
        assert_eq!(f32::from_bits(Opcode::FMul.eval([a, b, 0])), 3.375);
        let fma = Opcode::FFma.eval([a, b, 1.0f32.to_bits()]);
        assert_eq!(f32::from_bits(fma), 1.5f32.mul_add(2.25, 1.0));
    }

    #[test]
    fn sfu_ops() {
        let x = 4.0f32.to_bits();
        assert_eq!(f32::from_bits(Opcode::FSqrt.eval([x, 0, 0])), 2.0);
        assert_eq!(f32::from_bits(Opcode::FRcp.eval([x, 0, 0])), 0.25);
        assert_eq!(f32::from_bits(Opcode::FLog2.eval([x, 0, 0])), 2.0);
        assert_eq!(
            f32::from_bits(Opcode::FExp2.eval([2.0f32.to_bits(), 0, 0])),
            4.0
        );
    }

    #[test]
    fn setp_signed_vs_unsigned() {
        let neg1 = -1i32 as u32;
        assert_eq!(Opcode::Setp(CmpOp::Lt).eval([neg1, 0, 0]), 1);
        assert_eq!(Opcode::Setp(CmpOp::Ult).eval([neg1, 0, 0]), 0);
        assert_eq!(Opcode::Setp(CmpOp::Uge).eval([neg1, 0, 0]), 1);
    }

    #[test]
    fn selp_picks_by_guard() {
        assert_eq!(Opcode::Selp.eval([10, 20, 1]), 10);
        assert_eq!(Opcode::Selp.eval([10, 20, 0]), 20);
    }

    #[test]
    fn cmp_op_eval_all_variants() {
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Ne.eval(5, 6));
        assert!(CmpOp::Le.eval(5, 5));
        assert!(CmpOp::Gt.eval(6, 5));
        assert!(CmpOp::Ge.eval(5, 5));
    }

    #[test]
    fn exec_classes() {
        assert_eq!(Opcode::IAdd.exec_class(), ExecClass::IntAlu);
        assert_eq!(Opcode::FFma.exec_class(), ExecClass::Fp);
        assert_eq!(Opcode::FSqrt.exec_class(), ExecClass::Sfu);
        assert_eq!(Opcode::Ldg.exec_class(), ExecClass::Mem);
        assert_eq!(Opcode::Bra.exec_class(), ExecClass::Control);
    }

    #[test]
    fn memory_predicates() {
        assert!(Opcode::Ldg.is_load());
        assert!(Opcode::Lds.is_load());
        assert!(Opcode::Stg.is_store());
        assert!(Opcode::Ldg.is_global_mem());
        assert!(!Opcode::Lds.is_global_mem());
        assert!(Opcode::Bra.is_branch());
        assert!(!Opcode::Exit.is_branch());
    }

    #[test]
    #[should_panic(expected = "non-pure opcode")]
    fn eval_rejects_memory_ops() {
        Opcode::Ldg.eval([0, 0, 0]);
    }

    /// Every opcode [`Opcode::eval`] accepts.
    fn pure_opcodes() -> Vec<Opcode> {
        use Opcode::*;
        let mut ops = vec![
            Mov, IAdd, ISub, IMul, IMad, IMin, IMax, IAnd, IOr, IXor, IShl, IShr, FAdd, FMul, FFma,
            FRcp, FSqrt, FLog2, FExp2, Selp,
        ];
        ops.extend(
            [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Ult,
                CmpOp::Uge,
            ]
            .map(Setp),
        );
        ops
    }

    /// Words at the edges of the integer and float semantics.
    const EDGE_WORDS: [u32; 20] = [
        0,
        1,
        u32::MAX,    // -1
        0x8000_0000, // i32::MIN, -0.0
        0x7FFF_FFFF, // i32::MAX, a NaN
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x7FC0_0000, // quiet NaN
        0x7F80_0001, // signalling NaN
        0xFFC0_1234, // negative NaN with a payload
        0x0000_0001, // smallest subnormal
        0x807F_FFFF, // largest negative subnormal
        0x0080_0000, // smallest normal
        0x3F80_0000, // 1.0
        0xBF80_0000, // -1.0
        31,
        32, // shift counts of 32 and above
        33,
        63,
        0xFFFF_FFE0, // shift count 0 after masking
    ];

    fn word() -> impl Strategy<Value = u32> {
        (0u8..2, any::<u32>(), 0..EDGE_WORDS.len()).prop_map(|(kind, random, i)| {
            if kind == 0 {
                EDGE_WORDS[i]
            } else {
                random
            }
        })
    }

    fn row() -> impl Strategy<Value = [u32; WARP_SIZE]> {
        proptest::collection::vec(word(), WARP_SIZE..WARP_SIZE + 1)
            .prop_map(|v| v.try_into().expect("WARP_SIZE words"))
    }

    proptest::proptest! {
        #[test]
        fn eval_row_matches_per_lane_eval(a in row(), b in row(), c in row()) {
            for op in pure_opcodes() {
                let got = op.eval_row([&a, &b, &c]);
                for lane in 0..WARP_SIZE {
                    let want = op.eval([a[lane], b[lane], c[lane]]);
                    proptest::prop_assert_eq!(got[lane], want, "{} in lane {}", op, lane);
                }
            }
        }
    }

    #[test]
    fn eval_row_covers_the_signed_extremes() {
        let (min, neg1) = (i32::MIN as u32, -1i32 as u32);
        let a = [min; WARP_SIZE];
        let b = [neg1; WARP_SIZE];
        let c = [0; WARP_SIZE];
        assert_eq!(Opcode::IMin.eval_row([&a, &b, &c]), [min; WARP_SIZE]);
        assert_eq!(Opcode::IMax.eval_row([&a, &b, &c]), [neg1; WARP_SIZE]);
    }

    #[test]
    #[should_panic(expected = "non-pure opcode")]
    fn eval_row_rejects_memory_ops() {
        let z = [0; WARP_SIZE];
        Opcode::Lds.eval_row([&z, &z, &z]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Opcode::Setp(CmpOp::Lt).to_string(), "setp.lt");
        assert_eq!(Opcode::Ldg.to_string(), "ld.global");
        assert_eq!(Opcode::Bar.to_string(), "bar.sync");
    }
}
