//! Functional execution of one warp instruction across its active lanes.
//!
//! The simulator is *functional-first*: architectural state (registers,
//! predicates, memories, the SIMT stack) is updated at issue time, while
//! timing (operand collection, bank conflicts, execution and memory
//! latencies) is modelled separately. The scoreboard guarantees that the
//! timing model never issues an instruction whose inputs are still in
//! flight, so the functional-first shortcut cannot produce value anomalies
//! visible to the timing model.
//!
//! Execution is register-major, matching [`WarpContext`]'s layout: each
//! source operand is gathered once per instruction as a row of
//! [`WARP_SIZE`] values and a guard is one mask operation on the
//! predicate's lane mask. ALU opcodes then compute a whole result row with
//! [`Opcode::eval_row`] and write it back under the exec mask, `Setp` is
//! one predicate-mask update and `Selp` a row select. Memory opcodes walk
//! the set bits of the exec mask in ascending lane order, so global and
//! shared stores keep lane order.
//!
//! A shared-memory access whose exec mask is empty (its guard fails in
//! every lane) is not marked `shared_access`, so the timing model sends it
//! down the global LSU/L1 path; this quirk is kept because the committed
//! baselines depend on it.

use prf_isa::{Dst, Instruction, Opcode, Operand, ReconvergenceTable, SpecialReg, WARP_SIZE};

use crate::mem::{GmemView, SharedMemory};
use crate::warp::WarpContext;

/// Geometry facts the executor needs to evaluate special registers.
#[derive(Debug, Clone, Copy)]
pub struct ExecEnv {
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// Number of CTAs in the grid.
    pub num_ctas: u32,
}

/// The side effects of executing one instruction, as relevant to timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Word addresses touched per active lane (for coalescing), if the
    /// instruction was a global memory access.
    pub global_addrs: Vec<u32>,
    /// True if the instruction was a shared-memory access.
    pub shared_access: bool,
    /// True if the warp hit a barrier and is now blocked.
    pub hit_barrier: bool,
    /// Lanes that exited.
    pub exited_mask: u32,
    /// Lanes active when the instruction executed.
    pub active_lanes: u32,
    /// The instruction was a branch, and whether it diverged.
    pub branch: Option<bool>,
}

impl ExecOutcome {
    fn none() -> Self {
        ExecOutcome {
            global_addrs: Vec::new(),
            shared_access: false,
            hit_barrier: false,
            exited_mask: 0,
            active_lanes: 0,
            branch: None,
        }
    }

    /// An empty outcome reusing `addrs` as the address buffer — the SM's
    /// issue path recycles retired instructions' buffers through a pool so
    /// steady-state execution performs no per-instruction allocation.
    pub fn with_buffer(mut addrs: Vec<u32>) -> Self {
        addrs.clear();
        ExecOutcome {
            global_addrs: addrs,
            ..Self::none()
        }
    }
}

impl Default for ExecOutcome {
    fn default() -> Self {
        Self::none()
    }
}

/// Value of special register `s` in `lane`.
fn special(warp: &WarpContext, env: &ExecEnv, lane: usize, s: SpecialReg) -> u32 {
    let tid = warp.warp_in_cta * WARP_SIZE as u32 + lane as u32;
    match s {
        SpecialReg::TidX => tid,
        SpecialReg::CtaIdX => warp.cta.0,
        SpecialReg::NTidX => env.threads_per_cta,
        SpecialReg::NCtaIdX => env.num_ctas,
        SpecialReg::LaneId => lane as u32,
        SpecialReg::WarpId => warp.warp_in_cta,
        SpecialReg::GlobalTid => warp.cta.0 * env.threads_per_cta + tid,
    }
}

/// Indices of the set bits of `mask`, ascending: the lanes of a lane
/// mask, or the slots of a warp-slot mask.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// One source operand across the warp: a register row is copied whole,
/// special registers are evaluated only in the lanes of `mask`, and an
/// absent operand reads as zero.
fn gather(warp: &WarpContext, env: &ExecEnv, op: Option<Operand>, mask: u32) -> [u32; WARP_SIZE] {
    match op {
        None => [0; WARP_SIZE],
        Some(Operand::Reg(r)) => warp.regs[r.index()],
        Some(Operand::Imm(v)) => [v; WARP_SIZE],
        Some(Operand::Special(s)) => {
            let mut row = [0; WARP_SIZE];
            for lane in bits(mask.into()) {
                row[lane] = special(warp, env, lane, s);
            }
            row
        }
    }
}

/// Executes the instruction at the warp's current pc, updating the warp's
/// architectural state, the SIMT stack, and the memories.
///
/// Returns the [`ExecOutcome`] the timing model needs. The caller must have
/// fetched `instr` from the warp's current pc.
///
/// # Panics
///
/// Panics if the warp has already exited.
pub fn execute_warp_instruction(
    warp: &mut WarpContext,
    instr: &Instruction,
    rt: &ReconvergenceTable,
    env: &ExecEnv,
    global: &mut GmemView<'_>,
    shared: &mut SharedMemory,
) -> ExecOutcome {
    let mut outcome = ExecOutcome::none();
    execute_warp_instruction_into(warp, instr, rt, env, global, shared, &mut outcome);
    outcome
}

/// [`execute_warp_instruction`] writing into a caller-provided outcome
/// (typically built with [`ExecOutcome::with_buffer`] from a recycled
/// address buffer, keeping the issue path allocation-free).
#[allow(clippy::missing_panics_doc)] // same contract as the wrapper above
pub fn execute_warp_instruction_into(
    warp: &mut WarpContext,
    instr: &Instruction,
    rt: &ReconvergenceTable,
    env: &ExecEnv,
    global: &mut GmemView<'_>,
    shared: &mut SharedMemory,
    outcome: &mut ExecOutcome,
) {
    let pc = warp.stack.pc().expect("executing an exited warp");
    let active = warp.stack.active_mask();
    outcome.active_lanes = active.count_ones();

    // Lanes where the guard holds.
    let guard_mask = match &instr.guard {
        None => active,
        Some(g) => {
            let p = warp.preds[g.pred.index()];
            active & if g.expected { p } else { !p }
        }
    };

    match instr.opcode {
        Opcode::Bra => {
            let target = instr.target.expect("validated branch has a target");
            let not_taken = active & !guard_mask;
            outcome.branch = Some(guard_mask != 0 && not_taken != 0);
            warp.stack.branch(pc, target, guard_mask, rt);
            return;
        }
        Opcode::Exit => {
            // Exit applies to guarded lanes; unguarded exit retires all
            // active lanes.
            outcome.exited_mask = guard_mask;
            let survivors = active & !guard_mask;
            if survivors != 0 {
                // Guarded exit with survivors: survivors fall through.
                warp.stack.exit_lanes(guard_mask);
                if warp.stack.pc() == Some(pc) {
                    warp.stack.advance(pc + 1);
                }
            } else {
                warp.stack.exit_lanes(guard_mask);
            }
            return;
        }
        Opcode::Bar => {
            outcome.hit_barrier = true;
            warp.stack.advance(pc + 1);
            return;
        }
        _ => {}
    }

    // Selp's guard is a value selector, not an execution mask: it runs in
    // every active lane and picks src0/src1 by the predicate value.
    let exec_mask = if instr.opcode == Opcode::Selp {
        active
    } else {
        guard_mask
    };

    // Operands are gathered once, before any lane writes its result, so a
    // destination that is also a source (and Shfl's cross-lane reads) sees
    // the values from before the instruction. Register results are
    // computed for the whole row and written back under the exec mask;
    // memory accesses run lane by lane in ascending lane order.
    let [src0, src1, src2] = instr.srcs;
    let a = gather(warp, env, src0, exec_mask);
    let b = gather(warp, env, src1, exec_mask);
    let mut row = [0u32; WARP_SIZE];
    let writes_row = match instr.opcode {
        Opcode::Ldg => {
            for lane in bits(exec_mask.into()) {
                let addr = a[lane].wrapping_add(instr.mem_offset);
                outcome.global_addrs.push(addr);
                row[lane] = global.read(addr);
            }
            true
        }
        Opcode::Stg => {
            for lane in bits(exec_mask.into()) {
                let addr = a[lane].wrapping_add(instr.mem_offset);
                outcome.global_addrs.push(addr);
                global.write(addr, b[lane]);
            }
            false
        }
        Opcode::Lds => {
            outcome.shared_access = exec_mask != 0;
            for lane in bits(exec_mask.into()) {
                row[lane] = shared.read(a[lane].wrapping_add(instr.mem_offset));
            }
            true
        }
        Opcode::Sts => {
            outcome.shared_access = exec_mask != 0;
            for lane in bits(exec_mask.into()) {
                shared.write(a[lane].wrapping_add(instr.mem_offset), b[lane]);
            }
            false
        }
        Opcode::Shfl => {
            for (lane, v) in row.iter_mut().enumerate() {
                *v = a[(b[lane] & 31) as usize];
            }
            true
        }
        Opcode::Selp => {
            // The guard is the selector: src0 in the lanes where the
            // predicate holds, src1 elsewhere (Selp's third operand is the
            // selector bit).
            debug_assert!(instr.guard.is_some(), "selp carries its predicate as guard");
            let selector = std::array::from_fn(|lane| (guard_mask >> lane) & 1);
            row = Opcode::Selp.eval_row([&a, &b, &selector]);
            true
        }
        Opcode::Setp(cmp) => {
            if let Dst::Pred(p) = instr.dst {
                let holds = Opcode::Setp(cmp).eval_row([&a, &b, &[0; WARP_SIZE]]);
                let holds = (0..WARP_SIZE).fold(0u32, |m, lane| m | holds[lane] << lane);
                let pred = &mut warp.preds[p.index()];
                *pred = (*pred & !exec_mask) | (holds & exec_mask);
            }
            false
        }
        Opcode::Nop => false,
        op => {
            let c = gather(warp, env, src2, exec_mask);
            row = op.eval_row([&a, &b, &c]);
            true
        }
    };
    if let (true, Dst::Reg(r)) = (writes_row, instr.dst) {
        let dst = &mut warp.regs[r.index()];
        for (lane, d) in dst.iter_mut().enumerate() {
            if exec_mask >> lane & 1 != 0 {
                *d = row[lane];
            }
        }
    }

    warp.stack.advance(pc + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::GlobalMemory;
    use prf_isa::{CmpOp, CtaId, KernelBuilder, PredReg, Reg};

    /// Executes one instruction with serial (commit-immediately) memory
    /// semantics, as the SM's per-cycle commit produces.
    fn exec_step(
        warp: &mut WarpContext,
        instr: &Instruction,
        rt: &ReconvergenceTable,
        e: &ExecEnv,
        global: &mut GlobalMemory,
        shared: &mut SharedMemory,
    ) -> ExecOutcome {
        let mut log = Vec::new();
        let out = {
            let mut view = GmemView::new(global, &mut log);
            execute_warp_instruction(warp, instr, rt, e, &mut view, shared)
        };
        for (a, v) in log {
            global.write(a, v);
        }
        out
    }

    fn env() -> ExecEnv {
        ExecEnv {
            threads_per_cta: 64,
            num_ctas: 4,
        }
    }

    fn fresh_warp(regs: usize) -> WarpContext {
        WarpContext::new(0, 0, CtaId(1), 1, u32::MAX, regs, 0)
    }

    fn run_to_completion(
        kernel: &prf_isa::Kernel,
        warp: &mut WarpContext,
        global: &mut GlobalMemory,
    ) {
        let rt = ReconvergenceTable::compute(kernel);
        let mut shared = SharedMemory::new(1024);
        let e = env();
        let mut steps = 0;
        while let Some(pc) = warp.stack.pc() {
            let instr = kernel.fetch(pc).clone();
            exec_step(warp, &instr, &rt, &e, global, &mut shared);
            steps += 1;
            assert!(steps < 100_000, "kernel did not terminate");
        }
    }

    #[test]
    fn special_registers_resolve_per_lane() {
        let mut kb = KernelBuilder::new("tid");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_special(Reg(1), SpecialReg::GlobalTid);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(2);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        // warp_in_cta = 1: tid = 32 + lane.
        assert_eq!(w.reg(0, Reg(0)), 32);
        assert_eq!(w.reg(5, Reg(0)), 37);
        // cta 1, 64 thr/cta: gtid = 64 + tid.
        assert_eq!(w.reg(5, Reg(1)), 64 + 37);
    }

    #[test]
    fn arithmetic_updates_registers() {
        let mut kb = KernelBuilder::new("a");
        kb.mov_imm(Reg(0), 6);
        kb.mov_imm(Reg(1), 7);
        kb.imul(Reg(2), Reg(0), Reg(1));
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(3);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        for lane in 0..WARP_SIZE {
            assert_eq!(w.reg(lane, Reg(2)), 42);
        }
    }

    #[test]
    fn global_load_store_roundtrip() {
        let mut kb = KernelBuilder::new("m");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_imm(Reg(1), 1000);
        kb.iadd(Reg(1), Reg(1), Reg(0)); // addr = 1000 + tid
        kb.mov_imm(Reg(2), 5);
        kb.stg(Reg(1), Reg(2), 0);
        kb.ldg(Reg(3), Reg(1), 0);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(4);
        let mut g = GlobalMemory::new(4096);
        run_to_completion(&k, &mut w, &mut g);
        assert_eq!(g.read(1032), 5); // tid 32 is lane 0 of warp 1
        assert_eq!(w.reg(0, Reg(3)), 5);
    }

    #[test]
    fn divergent_branch_executes_both_paths() {
        // if (tid < 40) R1 = 1 else R1 = 2  — lanes 0..7 of warp 1 take it.
        let mut kb = KernelBuilder::new("div");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 40);
        let else_ = kb.new_label();
        let join = kb.new_label();
        kb.bra_if(PredReg(0), false, else_);
        kb.mov_imm(Reg(1), 1);
        kb.bra(join);
        kb.place_label(else_);
        kb.mov_imm(Reg(1), 2);
        kb.place_label(join);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(2); // tids 32..63
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        for lane in 0..8 {
            assert_eq!(w.reg(lane, Reg(1)), 1, "lane {lane} (tid<40) takes then");
        }
        for lane in 8..WARP_SIZE {
            assert_eq!(w.reg(lane, Reg(1)), 2, "lane {lane} takes else");
        }
    }

    #[test]
    fn data_dependent_loop_trip_counts() {
        // R0 = tid & 3; loop until R1 >= R0: per-lane trip counts differ.
        let mut kb = KernelBuilder::new("loop");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.iand_imm(Reg(0), Reg(0), 3);
        kb.mov_imm(Reg(1), 0);
        kb.mov_imm(Reg(2), 0);
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd_imm(Reg(2), Reg(2), 10); // work
        kb.iadd_imm(Reg(1), Reg(1), 1);
        kb.setp(PredReg(0), CmpOp::Lt, Reg(1), Reg(0));
        kb.bra_if(PredReg(0), true, top);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(3);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        // Lane 0: R0=0 -> one iteration (do-while), R2=10.
        assert_eq!(w.reg(0, Reg(2)), 10);
        // Lane 3: R0=3 -> three iterations, R2=30.
        assert_eq!(w.reg(3, Reg(2)), 30);
        // Lane 7 (7&3=3): 30 as well.
        assert_eq!(w.reg(7, Reg(2)), 30);
    }

    #[test]
    fn shfl_broadcasts_lane_value() {
        let mut kb = KernelBuilder::new("sh");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.mov_imm(Reg(1), 3); // read from lane 3
        kb.shfl(Reg(2), Reg(0), Reg(1));
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(3);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        for lane in 0..WARP_SIZE {
            assert_eq!(w.reg(lane, Reg(2)), 3);
        }
    }

    #[test]
    fn selp_selects_per_lane_without_squashing() {
        let mut kb = KernelBuilder::new("sel");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.mov_imm(Reg(1), 100);
        kb.mov_imm(Reg(2), 200);
        kb.setp_imm(PredReg(1), CmpOp::Lt, Reg(0), 16);
        kb.selp(Reg(3), Reg(1), Reg(2), PredReg(1));
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(4);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        assert_eq!(w.reg(0, Reg(3)), 100);
        assert_eq!(w.reg(20, Reg(3)), 200);
    }

    #[test]
    fn guarded_exit_retires_some_lanes() {
        let mut kb = KernelBuilder::new("gx");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.setp_imm(PredReg(0), CmpOp::Ge, Reg(0), 16);
        kb.guard(PredReg(0), true);
        kb.exit(); // upper half leaves
        kb.mov_imm(Reg(1), 9);
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        let mut w = fresh_warp(2);
        let mut g = GlobalMemory::new(1024);
        let mut s = SharedMemory::new(64);
        let e = env();
        // Step the first three instructions.
        for _ in 0..3 {
            let pc = w.stack.pc().unwrap();
            let i = k.fetch(pc).clone();
            exec_step(&mut w, &i, &rt, &e, &mut g, &mut s);
        }
        assert_eq!(w.stack.active_mask(), 0x0000_FFFF);
        // Finish.
        while let Some(pc) = w.stack.pc() {
            let i = k.fetch(pc).clone();
            exec_step(&mut w, &i, &rt, &e, &mut g, &mut s);
        }
        assert_eq!(w.reg(0, Reg(1)), 9);
        assert_eq!(w.reg(31, Reg(1)), 0, "exited lane never ran the mov");
    }

    #[test]
    fn barrier_blocks_and_advances_pc() {
        let mut kb = KernelBuilder::new("b");
        kb.bar();
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        let mut w = fresh_warp(1);
        let mut g = GlobalMemory::new(1024);
        let mut s = SharedMemory::new(64);
        let out = exec_step(&mut w, &k.fetch(0).clone(), &rt, &env(), &mut g, &mut s);
        assert!(out.hit_barrier);
        assert_eq!(w.stack.pc(), Some(1));
    }

    #[test]
    fn partial_warp_respects_initial_mask() {
        // sad-like CTA with 61 threads: warp 1 has 29 lanes.
        let mut kb = KernelBuilder::new("p");
        kb.mov_imm(Reg(0), 1);
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        let mask = (1u32 << 29) - 1;
        let mut w = WarpContext::new(1, 0, CtaId(0), 1, mask, 1, 0);
        let mut g = GlobalMemory::new(1024);
        let mut s = SharedMemory::new(64);
        exec_step(&mut w, &k.fetch(0).clone(), &rt, &env(), &mut g, &mut s);
        assert_eq!(w.reg(0, Reg(0)), 1);
        assert_eq!(w.reg(29, Reg(0)), 0, "inactive lane untouched");
        assert_eq!(w.reg(31, Reg(0)), 0);
    }
}
