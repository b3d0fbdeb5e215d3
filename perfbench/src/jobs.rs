//! The benchmark's workloads. Each one turns the workload seed into the
//! job list a figure run hands to `prf_bench::runner`; building that list
//! is the set-up the benchmark times.

use std::time::{Duration, Instant};

use prf_bench::fault_config_for;
use prf_bench::runner::Job;
use prf_core::{Launch, PartitionedRfConfig, ProfilingStrategy, RfKind};
use prf_isa::{reallocate, KernelValidator};
use prf_sim::{GpuConfig, SchedulerPolicy};
use prf_workloads::generate::MEM_WORDS;
use prf_workloads::{Category, KernelGenerator, RandomKernelGenerator, Table1Row, Workload};

/// The named workloads, as `--workload` spells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// All 17 Table I kernels under the 7 Fig. 11/12 arms, single SM.
    PaperFigs,
    /// Generated race-free kernels, original and reallocated, under the
    /// NTV fault campaign.
    GeneratedGreener,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 2] = [WorkloadName::PaperFigs, WorkloadName::GeneratedGreener];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::PaperFigs => "paper-figs",
            WorkloadName::GeneratedGreener => "generated-greener",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Host time per layer spent building one job set, plus the register
/// counts the reallocation pass saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// `prf-workloads`: suite construction or kernel generation.
    pub build: Duration,
    /// `prf-isa`: `KernelValidator` on generated and rewritten kernels.
    pub validate: Duration,
    /// `prf-isa`: the register reallocation pass.
    pub realloc: Duration,
    /// `prf-finfet`: the Monte Carlo fault map.
    pub faultmap: Duration,
    /// Σ registers per thread before reallocation.
    pub regs_before: u64,
    /// Σ registers per thread after reallocation.
    pub regs_after: u64,
    /// Kernels the reallocation pass rewrote.
    pub realloc_kernels: u64,
}

/// A ready job list with what the checks need to know about it.
pub struct JobSet {
    /// The jobs, in the order the runner receives them.
    pub jobs: Vec<Job>,
    /// Arm key per job, for `model.<arm>.*` and the paper anchors.
    pub arms: Vec<&'static str>,
    /// Group per job: jobs of one group run the same (kernel, seed), so
    /// they must retire the same number of instructions.
    pub groups: Vec<usize>,
    /// Runner worker threads.
    pub workers: usize,
    /// True when the kernels are race-free, so every job of a group must
    /// also leave identical global memory.
    pub compare_memory: bool,
    /// Generated cases dropped at set-up because reallocation or
    /// validation failed; each counts as a failed job.
    pub setup_failures: u64,
    /// Host time per layer spent building the set.
    pub layers: SetupLayers,
}

/// Every arm key a workload can use, for `model.<arm>.*`.
pub const ARMS: [&str; 8] = [
    "mrf_stv_gto",
    "mrf_stv_tl",
    "adaptive_gto",
    "adaptive_tl",
    "static_gto",
    "compiler_gto",
    "mrf_ntv_gto",
    "realloc_adaptive_gto",
];

/// Generated cases per `generated-greener` set: enough that the job set's
/// total work barely moves from one seed to the next.
const GENERATED_CASES: u64 = 1000;

/// Supply voltage of the `generated-greener` fault campaign (NTV).
const FAULT_VDD: f64 = 0.3;

const TAG_GENERATOR: u64 = 1;
const TAG_FAULTS: u64 = 2;
const TAG_JITTER: u64 = 3;

/// Derives an independent seed from the workload seed (splitmix64 of the
/// seed mixed with a purpose tag and an index).
fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z =
        seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the job set of `workload` for `seed`.
pub fn build(workload: WorkloadName, seed: u64, nproc: usize) -> JobSet {
    match workload {
        WorkloadName::PaperFigs => paper_figs(seed, nproc),
        WorkloadName::GeneratedGreener => generated_greener(seed),
    }
}

fn empty_set(workers: usize, compare_memory: bool) -> JobSet {
    JobSet {
        jobs: Vec::new(),
        arms: Vec::new(),
        groups: Vec::new(),
        workers,
        compare_memory,
        setup_failures: 0,
        layers: SetupLayers::default(),
    }
}

impl JobSet {
    fn push(&mut self, job: Job, arm: &'static str, group: usize) {
        self.jobs.push(job);
        self.arms.push(arm);
        self.groups.push(group);
    }
}

type Arm = (&'static str, SchedulerPolicy, RfKind);

fn hybrid(banks: usize) -> RfKind {
    RfKind::Partitioned(PartitionedRfConfig::paper_default(banks))
}

fn paper_figs(seed: u64, nproc: usize) -> JobSet {
    let mut set = empty_set(nproc.min(2), false);
    let t = Instant::now();
    let suite = prf_workloads::suite();
    set.layers.build = t.elapsed();

    let base = GpuConfig::kepler_single_sm();
    let banks = base.num_rf_banks;
    let gto = SchedulerPolicy::Gto;
    let tl = SchedulerPolicy::TwoLevel {
        active_per_scheduler: 8,
    };
    let compiler = RfKind::Partitioned(PartitionedRfConfig {
        strategy: ProfilingStrategy::Compiler,
        ..PartitionedRfConfig::paper_default(banks)
    });
    let arms: [Arm; 7] = [
        ("mrf_stv_gto", gto, RfKind::MrfStv),
        ("mrf_stv_tl", tl, RfKind::MrfStv),
        ("adaptive_gto", gto, hybrid(banks)),
        ("adaptive_tl", tl, hybrid(banks)),
        (
            "static_gto",
            gto,
            RfKind::Partitioned(PartitionedRfConfig::without_adaptive(banks)),
        ),
        ("compiler_gto", gto, compiler),
        ("mrf_ntv_gto", gto, RfKind::MrfNtv { latency: 3 }),
    ];
    // All arms of one workload share its derived jitter seed.
    for (k, w) in suite.iter().enumerate() {
        let jitter_seed = derive_seed(seed, TAG_JITTER, k as u64);
        for (arm, scheduler, rf) in &arms {
            let gpu = GpuConfig {
                scheduler: *scheduler,
                jitter_seed,
                ..base.clone()
            };
            set.push(Job::new(format!("{}/{arm}", w.name), w, &gpu, rf), arm, k);
        }
    }
    set
}

fn generated_greener(seed: u64) -> JobSet {
    let mut set = empty_set(1, true);
    let t = Instant::now();
    let faults = fault_config_for(derive_seed(seed, TAG_FAULTS, 0), FAULT_VDD);
    set.layers.faultmap = t.elapsed();

    let generator = RandomKernelGenerator::new(derive_seed(seed, TAG_GENERATOR, 0));
    let validator = KernelValidator::new();
    let base = GpuConfig {
        global_mem_words: MEM_WORDS,
        ..GpuConfig::kepler_single_sm()
    };
    let rf = hybrid(base.num_rf_banks);
    for index in 0..GENERATED_CASES {
        let t = Instant::now();
        let case = generator.generate(index);
        set.layers.build += t.elapsed();

        let t = Instant::now();
        let original_ok = validator.validate(&case.kernel).is_ok();
        set.layers.validate += t.elapsed();
        let t = Instant::now();
        let realloc = reallocate(&case.kernel);
        set.layers.realloc += t.elapsed();
        let t = Instant::now();
        let realloc = realloc
            .ok()
            .filter(|r| validator.validate(&r.kernel).is_ok() && r.new_regs <= r.old_regs);
        set.layers.validate += t.elapsed();
        let Some(realloc) = realloc.filter(|_| original_ok) else {
            set.setup_failures += 1;
            continue;
        };
        set.layers.regs_before += u64::from(realloc.old_regs);
        set.layers.regs_after += u64::from(realloc.new_regs);
        set.layers.realloc_kernels += 1;

        let gpu = GpuConfig {
            jitter_seed: derive_seed(seed, TAG_JITTER, index),
            ..base.clone()
        };
        let group = index as usize;
        for (arm, kernel) in [
            ("adaptive_gto", case.kernel.clone()),
            ("realloc_adaptive_gto", realloc.kernel),
        ] {
            let workload = Workload {
                name: "generated",
                category: Category::One,
                table1: Table1Row {
                    regs_per_thread: kernel.regs_per_thread(),
                    threads_per_cta: case.grid.threads_per_cta,
                    pilot_cta_pct: 0.0,
                },
                launches: vec![Launch::new(kernel, case.grid)],
                mem_init: case.mem_init.clone(),
            };
            let job = Job {
                name: format!("gen{index}/{arm}"),
                workload,
                gpu: gpu.clone(),
                rf: rf.clone(),
                faults: Some(faults.clone()),
            };
            set.push(job, arm, group);
        }
    }
    set
}
