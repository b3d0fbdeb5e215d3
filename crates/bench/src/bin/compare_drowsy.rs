//! Related-work comparison — drowsy registers (the paper's ref. \[4\], HPCA 2013) vs the
//! partitioned RF.
//!
//! The paper positions partitioning against power-gating/drowsy
//! approaches: drowsing attacks *leakage only* (registers still burn full
//! dynamic energy per access), while the FRF/SRF split attacks both
//! dynamic and leakage energy. This binary quantifies that argument on
//! the benchmark suite.

use prf_bench::{experiment_gpu, geomean, header, mean, run_cells_reported, Cell};
use prf_core::{DrowsyConfig, LeakageModel, PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Related work: drowsy registers vs the partitioned RF",
        "drowsy saves leakage only; partitioned saves dynamic (54%) + leakage (39%)",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    const SEEDS: u64 = 3;
    let drowsy = RfKind::Drowsy(DrowsyConfig::paper_adjacent(
        gpu.num_rf_banks,
        gpu.max_warps_per_sm,
    ));
    let part = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
    // The whole comparison as one parallel matrix: baseline, drowsy and
    // partitioned per workload, results chunked back per workload below.
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .flat_map(|w| [&RfKind::MrfStv, &drowsy, &part].map(|rf| Cell::new(w, &gpu, rf)))
        .collect();
    let (results, report, mut run_report) = run_cells_reported("compare_drowsy", &cells, SEEDS);

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "drowsy dyn", "part dyn", "drowsy time", "part time"
    );
    let (mut d_dyn, mut p_dyn, mut d_t, mut p_t) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (w, r) in suite.iter().zip(results.chunks(3)) {
        let (base, d, p) = (&r[0], &r[1], &r[2]);
        println!(
            "{:<12} {:>11.1}% {:>11.1}% {:>12.3} {:>12.3}",
            w.name,
            100.0 * d.dynamic_saving(),
            100.0 * p.dynamic_saving(),
            d.normalized_time(base),
            p.normalized_time(base)
        );
        d_dyn.push(d.dynamic_saving());
        p_dyn.push(p.dynamic_saving());
        d_t.push(d.normalized_time(base));
        p_t.push(p.normalized_time(base));
    }
    println!("{:-<64}", "");
    println!(
        "{:<12} {:>11.1}% {:>11.1}% {:>12.3} {:>12.3}",
        "MEAN/GEO",
        100.0 * mean(&d_dyn),
        100.0 * mean(&p_dyn),
        geomean(&d_t),
        geomean(&p_t)
    );
    println!();
    let leak = LeakageModel::from_finfet();
    println!("leakage (per SM):");
    println!(
        "  drowsy (60% drowsy fraction @ 0.25 retention) ~ {:.1} mW  ({:.0}% saving)",
        leak.mrf_stv_mw * (0.4 + 0.6 * 0.25),
        100.0 * (1.0 - (0.4 + 0.6 * 0.25))
    );
    println!(
        "  partitioned FRF+SRF                            = {:.1} mW  ({:.0}% saving)",
        leak.partitioned_mw(),
        100.0 * leak.partitioned_saving()
    );
    println!();
    println!("Drowsy's dynamic saving is ~0 by construction (every access still runs");
    println!("the full STV array); the partitioned RF saves both. This is the paper's");
    println!("§VI argument for partitioning over power-gating/drowsy approaches.");
    println!();
    println!("{}", report.footer());
    run_report.add_metric("mean_drowsy_dynamic_saving", mean(&d_dyn));
    run_report.add_metric("mean_part_dynamic_saving", mean(&p_dyn));
    run_report.add_metric("geomean_drowsy_time", geomean(&d_t));
    run_report.add_metric("geomean_part_time", geomean(&p_t));
    run_report.write();
}
