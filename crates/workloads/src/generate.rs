//! Seeded random well-formed-kernel generation for the differential
//! fuzzing harness (`prf-fuzz`).
//!
//! A [`RandomKernelGenerator`] builds kernels that are *well-formed by
//! construction* — they pass [`prf_isa::KernelValidator`], terminate, and
//! are data-race-free — while still exercising the simulator broadly:
//! divergent branches with IPDOM reconvergence, bounded uniform loops,
//! barriers, shared-memory round-trips, warp shuffles, and the whole
//! integer ALU. Three discipline rules make every case a valid
//! differential-testing oracle:
//!
//! 1. **Termination** — loops count a uniform register up to a bounded
//!    trip count, forward branches only skip a few straight-line
//!    instructions, and the kernel ends in an unguarded `Exit`.
//! 2. **Race freedom** — each thread loads only its own input slot
//!    (`mem[gtid]`), writes only its own output slot
//!    (`mem[OUT_BASE + gtid]`), and touches only its own shared-memory
//!    word, so no thread ever observes another thread's global write.
//! 3. **Uniform barriers** — `bar` is emitted only in top-level uniform
//!    control flow, never inside a divergent region, so every warp of a
//!    CTA reaches it.
//!
//! Together these rules mean the per-thread execution trace is a pure
//! function of the kernel and the input image: every scheduler, RF model,
//! and `sm_threads` setting must produce the same instruction count and
//! the same final memory — which is exactly what `prf-fuzz` asserts.
//!
//! Generation is a pure function of `(seed, index)`: the same pair always
//! yields the same kernel, grid, and memory image, so a failing case
//! reported by CI can be replayed locally from just those two numbers.

use prf_isa::{CmpOp, GridConfig, Kernel, KernelBuilder, PredReg, Reg, SpecialReg};

/// First word of the per-thread output region. Inputs live at address 0;
/// a generated grid has at most [`MAX_THREADS`] threads, so the two
/// regions never overlap.
pub const OUT_BASE: u32 = 0x1000;

/// Upper bound on total threads in a generated grid (4 CTAs × 256).
pub const MAX_THREADS: u32 = 1024;

/// Global-memory words a generated case can touch: input slots at
/// `[0, MAX_THREADS)`, output slots at `[OUT_BASE, OUT_BASE + MAX_THREADS)`.
pub const MEM_WORDS: usize = 1 << 13;

/// A generated differential-testing case: a kernel, its launch geometry,
/// and the input image its loads read from.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The well-formed kernel.
    pub kernel: Kernel,
    /// Launch geometry (fits [`MAX_THREADS`]).
    pub grid: GridConfig,
    /// `(base_word_address, words)` blocks to load before launch.
    pub mem_init: Vec<(u32, Vec<u32>)>,
}

impl FuzzCase {
    /// Total threads across the grid.
    pub fn total_threads(&self) -> u32 {
        self.grid.num_ctas * self.grid.threads_per_cta
    }
}

/// A deterministic source of test kernels, indexed so any case can be
/// regenerated in isolation (for replaying a CI failure, or for sharding
/// a fuzz run across processes).
pub trait KernelGenerator {
    /// Generates case `index`. Must be a pure function of the generator's
    /// own configuration and `index`.
    fn generate(&self, index: u64) -> FuzzCase;
}

/// Splitmix64 — a tiny, high-quality, dependency-free PRNG. Statistical
/// perfection doesn't matter here; determinism and speed do.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, index: u64) -> Self {
        // Decorrelate the two inputs so (seed, index) and (seed+1,
        // index-1) don't produce neighbouring streams.
        Rng(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (modulo bias is irrelevant for fuzzing).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next() % n
    }

    fn word(&mut self) -> u32 {
        self.next() as u32
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The default generator: seeded, uniform over a mix of straight-line
/// ALU blocks, bounded loops, divergent skips, shuffles, shared-memory
/// round-trips, and barriers. See the module docs for the discipline
/// rules that keep every case race-free and terminating.
#[derive(Debug, Clone, Copy)]
pub struct RandomKernelGenerator {
    /// Base seed; combined with the case index per generation.
    pub seed: u64,
}

// Fixed register roles; the rotating scratch pool starts above these.
const R_GTID: Reg = Reg(0); // global thread id (address of the thread's slots)
const R_TID: Reg = Reg(1); // thread id within the CTA (shared-memory slot)
const R_ACC: Reg = Reg(2); // accumulator, stored to the output slot at the end
const R_LOOP: Reg = Reg(3); // uniform loop counter
const POOL_BASE: u8 = 4;

impl RandomKernelGenerator {
    /// A generator over the given base seed.
    pub fn new(seed: u64) -> Self {
        RandomKernelGenerator { seed }
    }

    /// A random register from the scratch pool (plus the accumulator, so
    /// pool values flow into the observable output).
    fn pool_reg(rng: &mut Rng, regs: u8) -> Reg {
        let span = u64::from(regs - POOL_BASE) + 1;
        match rng.below(span) {
            0 => R_ACC,
            k => Reg(POOL_BASE + (k as u8) - 1),
        }
    }

    /// A random *source* register: any pool register or one of the
    /// always-initialised role registers.
    fn src_reg(rng: &mut Rng, regs: u8) -> Reg {
        match rng.below(3) {
            0 => R_GTID,
            1 => R_TID,
            _ => Self::pool_reg(rng, regs),
        }
    }

    /// Emits one random ALU instruction.
    fn alu(kb: &mut KernelBuilder, rng: &mut Rng, regs: u8) {
        let d = Self::pool_reg(rng, regs);
        let a = Self::src_reg(rng, regs);
        let b = Self::src_reg(rng, regs);
        match rng.below(12) {
            0 => kb.iadd(d, a, b),
            1 => kb.isub(d, a, b),
            2 => kb.imul(d, a, b),
            3 => kb.iand(d, a, b),
            4 => kb.ixor(d, a, b),
            5 => kb.imin(d, a, b),
            6 => kb.imax(d, a, b),
            7 => kb.iadd_imm(d, a, rng.word()),
            8 => kb.imul_imm(d, a, rng.word() | 1),
            9 => kb.ishl_imm(d, a, rng.below(31) as u32),
            10 => kb.ishr_imm(d, a, rng.below(31) as u32),
            _ => kb.imad(d, a, b, Self::src_reg(rng, regs)),
        };
    }

    /// Emits one top-level block (see the module docs for the block mix).
    fn block(kb: &mut KernelBuilder, rng: &mut Rng, regs: u8, threads_per_cta: u32) {
        match rng.below(10) {
            // Straight-line ALU burst — the common case.
            0..=3 => {
                for _ in 0..=rng.below(3) {
                    Self::alu(kb, rng, regs);
                }
            }
            // Warp shuffle: intra-warp, lane index masked by the
            // executor, deterministic under any schedule.
            4 => {
                let d = Self::pool_reg(rng, regs);
                let s = Self::pool_reg(rng, regs);
                let lane = Self::src_reg(rng, regs);
                kb.shfl(d, s, lane);
            }
            // Predicated select (the validator's Selp guard rule is
            // satisfied by the builder helper).
            5 => {
                let p = PredReg(rng.below(4) as u8);
                kb.setp_imm(p, CmpOp::Lt, Self::src_reg(rng, regs), rng.word());
                let d = Self::pool_reg(rng, regs);
                kb.selp(d, Self::src_reg(rng, regs), Self::src_reg(rng, regs), p);
            }
            // Bounded uniform loop: the counter is uniform across the
            // CTA, so the back edge never diverges and the trip count is
            // a hard bound.
            6 => {
                let trip = 1 + rng.below(4) as u32;
                kb.mov_imm(R_LOOP, 0);
                let top = kb.new_label();
                kb.place_label(top);
                for _ in 0..=rng.below(2) {
                    Self::alu(kb, rng, regs);
                }
                kb.iadd_imm(R_LOOP, R_LOOP, 1);
                kb.setp_imm(PredReg(0), CmpOp::Lt, R_LOOP, trip);
                kb.bra_if(PredReg(0), true, top);
            }
            // Divergent forward skip: lanes with tid < k run the body,
            // the rest jump to the reconvergence point. No barrier and
            // no back edge inside, so IPDOM reconvergence is the only
            // machinery it exercises.
            7 => {
                let k = 1 + rng.below(u64::from(threads_per_cta)) as u32;
                let p = PredReg(1 + rng.below(3) as u8);
                kb.setp_imm(p, CmpOp::Lt, R_TID, k);
                let skip = kb.new_label();
                kb.bra_if(p, false, skip);
                for _ in 0..=rng.below(2) {
                    Self::alu(kb, rng, regs);
                }
                kb.place_label(skip);
            }
            // Shared-memory round-trip through the thread's own slot.
            8 => {
                let v = Self::pool_reg(rng, regs);
                kb.sts(R_TID, v, 0);
                kb.lds(Self::pool_reg(rng, regs), R_TID, 0);
            }
            // Barrier in uniform top-level flow.
            _ => {
                kb.bar();
            }
        }
    }
}

impl KernelGenerator for RandomKernelGenerator {
    fn generate(&self, index: u64) -> FuzzCase {
        let mut rng = Rng::new(self.seed, index);
        // Highest register index used: roles + a 2..=10-wide scratch pool.
        let regs = POOL_BASE + 1 + rng.below(9) as u8;
        let threads_per_cta = [32, 64, 96, 128, 192, 256][rng.below(6) as usize];
        let num_ctas = 1 + rng.below(4) as u32;
        let total_threads = num_ctas * threads_per_cta;

        let mut kb = KernelBuilder::new(format!("fuzz_{}_{index}", self.seed));
        kb.mov_special(R_GTID, SpecialReg::GlobalTid);
        kb.mov_special(R_TID, SpecialReg::TidX);
        // Seed the accumulator from the thread's own input slot and the
        // pool from compile-time constants.
        kb.ldg(R_ACC, R_GTID, 0);
        for r in POOL_BASE..=regs {
            kb.mov_imm(Reg(r), rng.word());
        }
        for _ in 0..(2 + rng.below(7)) {
            Self::block(&mut kb, &mut rng, regs, threads_per_cta);
        }
        // Fold a couple of pool registers into the accumulator so block
        // effects are observable in the output image.
        kb.ixor(R_ACC, R_ACC, Self::pool_reg(&mut rng, regs));
        kb.iadd(R_ACC, R_ACC, Self::pool_reg(&mut rng, regs));
        if rng.chance(30) {
            kb.bar();
        }
        kb.stg(R_GTID, R_ACC, OUT_BASE);
        kb.exit();
        let kernel = kb
            .build()
            .expect("generated kernels are well-formed by construction");

        let input: Vec<u32> = (0..total_threads).map(|_| rng.word()).collect();
        FuzzCase {
            kernel,
            grid: GridConfig::new(num_ctas, threads_per_cta),
            mem_init: vec![(0, input)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_isa::{encode_kernel, KernelValidator};

    #[test]
    fn generation_is_deterministic() {
        let g = RandomKernelGenerator::new(42);
        for index in 0..20 {
            let a = g.generate(index);
            let b = g.generate(index);
            assert_eq!(encode_kernel(&a.kernel), encode_kernel(&b.kernel));
            assert_eq!(a.grid, b.grid);
            assert_eq!(a.mem_init, b.mem_init);
        }
    }

    #[test]
    fn generated_kernels_validate_clean() {
        let g = RandomKernelGenerator::new(7);
        let v = KernelValidator::new();
        for index in 0..200 {
            let case = g.generate(index);
            assert_eq!(
                v.validate(&case.kernel),
                Ok(()),
                "case {index}: {:?}",
                case.kernel
            );
            assert!(case.total_threads() <= MAX_THREADS);
            assert!(case.mem_init[0].1.len() as u32 == case.total_threads());
        }
    }

    #[test]
    fn different_indices_differ() {
        let g = RandomKernelGenerator::new(1);
        let a = encode_kernel(&g.generate(0).kernel);
        let b = encode_kernel(&g.generate(1).kernel);
        assert_ne!(a, b, "consecutive cases should not collide");
    }

    #[test]
    fn memory_regions_do_not_overlap() {
        const {
            assert!(OUT_BASE >= MAX_THREADS);
            assert!((OUT_BASE + MAX_THREADS) as usize <= MEM_WORDS);
        }
    }
}
