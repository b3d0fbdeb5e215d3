//! Per-warp scoreboard: tracks registers and predicates with in-flight
//! writes so dependent instructions stall at issue.

use prf_isa::{Instruction, PredReg, Reg, MAX_ARCH_REGS, NUM_PRED_REGS};

/// The scoreboard-relevant operands of one instruction, as masks:
/// computed once per pc when a kernel is loaded, so the issue-time hazard
/// test is two ANDs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hazard {
    /// Registers read or written.
    pub regs: u64,
    /// Predicates written or read as guard.
    pub preds: u8,
    /// The instruction reads or writes a register, so it needs an operand
    /// collector unit to issue.
    pub needs_collector: bool,
}

impl Hazard {
    /// The hazard masks of `instr`.
    pub fn of(instr: &Instruction) -> Self {
        let mut regs = 0u64;
        for r in instr.reg_reads().chain(instr.reg_write()) {
            regs |= 1u64 << r.index();
        }
        let mut preds = 0u8;
        if let prf_isa::Dst::Pred(p) = instr.dst {
            preds |= 1u8 << p.index();
        }
        if let Some(g) = &instr.guard {
            preds |= 1u8 << g.pred.index();
        }
        Hazard {
            regs,
            preds,
            needs_collector: instr.num_reg_src_operands() > 0 || instr.reg_write().is_some(),
        }
    }
}

/// Scoreboard for one warp.
///
/// A bit per architected register and predicate. An instruction may issue
/// only when none of its sources or destinations collide with a pending
/// write (RAW and WAW hazards; WAR is safe because operands are captured by
/// the operand collector at issue order).
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    reg_pending: u64,
    pred_pending: u8,
}

impl Scoreboard {
    /// New, empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if an instruction with hazard masks `h` collides with a
    /// pending write.
    pub fn blocks(&self, h: &Hazard) -> bool {
        self.reg_pending & h.regs != 0 || self.pred_pending & h.preds != 0
    }

    /// Reserves the instruction's destinations at issue.
    pub fn reserve(&mut self, instr: &Instruction) {
        if let Some(r) = instr.reg_write() {
            self.reg_pending |= 1u64 << r.index();
        }
        if let prf_isa::Dst::Pred(p) = instr.dst {
            self.pred_pending |= 1u8 << p.index();
        }
    }

    /// Releases a register at writeback.
    pub fn release_reg(&mut self, reg: Reg) {
        debug_assert!(reg.index() < MAX_ARCH_REGS);
        self.reg_pending &= !(1u64 << reg.index());
    }

    /// Releases a predicate at writeback.
    pub fn release_pred(&mut self, pred: PredReg) {
        debug_assert!(pred.index() < NUM_PRED_REGS);
        self.pred_pending &= !(1u8 << pred.index());
    }

    /// True when no writes are outstanding.
    pub fn is_clear(&self) -> bool {
        self.reg_pending == 0 && self.pred_pending == 0
    }

    /// Number of pending register + predicate writes (audit diagnostics).
    pub fn pending_count(&self) -> u32 {
        self.reg_pending.count_ones() + self.pred_pending.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_isa::{CmpOp, Dst, Opcode, Operand, PredGuard};

    fn iadd(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(Opcode::IAdd)
            .with_dst(Dst::Reg(Reg(dst)))
            .with_srcs(&[Operand::Reg(Reg(a)), Operand::Reg(Reg(b))])
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        let producer = iadd(1, 2, 3);
        sb.reserve(&producer);
        let consumer = iadd(4, 1, 5);
        assert!(sb.blocks(&Hazard::of(&consumer)));
        sb.release_reg(Reg(1));
        assert!(!sb.blocks(&Hazard::of(&consumer)));
        assert!(sb.is_clear());
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        sb.reserve(&iadd(1, 2, 3));
        let second_writer = iadd(1, 6, 7);
        assert!(sb.blocks(&Hazard::of(&second_writer)));
    }

    #[test]
    fn independent_instruction_not_blocked() {
        let mut sb = Scoreboard::new();
        sb.reserve(&iadd(1, 2, 3));
        assert!(!sb.blocks(&Hazard::of(&iadd(4, 5, 6))));
    }

    #[test]
    fn predicate_hazards() {
        let mut sb = Scoreboard::new();
        let setp = Instruction::new(Opcode::Setp(CmpOp::Lt))
            .with_dst(Dst::Pred(PredReg(0)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Imm(10)]);
        sb.reserve(&setp);
        // A guarded branch on P0 must wait.
        let bra = Instruction::new(Opcode::Bra)
            .with_guard(PredGuard {
                pred: PredReg(0),
                expected: true,
            })
            .with_target(0);
        assert!(sb.blocks(&Hazard::of(&bra)));
        // A branch on P1 is free.
        let bra2 = Instruction::new(Opcode::Bra)
            .with_guard(PredGuard {
                pred: PredReg(1),
                expected: true,
            })
            .with_target(0);
        assert!(!sb.blocks(&Hazard::of(&bra2)));
        sb.release_pred(PredReg(0));
        assert!(!sb.blocks(&Hazard::of(&bra)));
        assert!(sb.is_clear());
    }

    #[test]
    fn setp_waw_blocks() {
        let mut sb = Scoreboard::new();
        let setp = Instruction::new(Opcode::Setp(CmpOp::Lt))
            .with_dst(Dst::Pred(PredReg(2)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Imm(1)]);
        sb.reserve(&setp);
        assert!(sb.blocks(&Hazard::of(&setp)));
    }
}
