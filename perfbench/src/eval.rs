//! Checks and figures computed from a pass's results: per-job digests,
//! the correctness checks behind `failed`, the paper-anchor errors and
//! the per-arm model statistics.

use std::collections::BTreeMap;

use prf_bench::digest::DigestBuilder;
use prf_bench::json::Json;
use prf_core::ExperimentResult;
use prf_sim::RfPartition;

use crate::jobs::{JobSet, ARMS};

/// SHA-256 over one job's simulated output: cycles, every `SmStats`
/// counter and the five energies (as IEEE-754 bits).
pub fn result_digest(r: &ExperimentResult) -> String {
    let mut stats = r.stats.clone();
    // `per_warp` is a HashMap, whose Debug order varies between runs.
    let per_warp: BTreeMap<_, _> = std::mem::take(&mut stats.per_warp).into_iter().collect();
    let mut b = DigestBuilder::new();
    b.section("result")
        .field_u64("cycles", r.cycles)
        .field_debug("stats", &stats)
        .field_debug("per_warp", &per_warp);
    for (label, pj) in [
        ("dynamic_energy_pj", r.dynamic_energy_pj),
        ("baseline_dynamic_energy_pj", r.baseline_dynamic_energy_pj),
        ("leakage_energy_pj", r.leakage_energy_pj),
        ("baseline_leakage_energy_pj", r.baseline_leakage_energy_pj),
        ("repair_energy_pj", r.repair_energy_pj),
    ] {
        b.field_u64(label, pj.to_bits());
    }
    b.finish_hex()
}

/// SHA-256 over the per-job digests of a whole set, in job order; a
/// failed job contributes a fixed marker.
pub fn set_digest(job_digests: &[Option<String>]) -> String {
    let mut b = DigestBuilder::new();
    b.section("sim_digest");
    for d in job_digests {
        b.field_str("job", d.as_deref().unwrap_or("failed"));
    }
    b.finish_hex()
}

/// Digest per job (`None` for a failed job).
pub fn digests(results: &[Option<&ExperimentResult>]) -> Vec<Option<String>> {
    results.iter().map(|r| r.map(result_digest)).collect()
}

/// Which jobs of one pass passed the checks: the job returned a result,
/// its audit (when on) found no violation, and it retired as many
/// instructions as the first job of its group.
pub fn check_pass(set: &JobSet, results: &[Option<&ExperimentResult>]) -> Vec<bool> {
    let mut reference: BTreeMap<usize, u64> = BTreeMap::new();
    results
        .iter()
        .zip(&set.groups)
        .map(|(r, group)| {
            let Some(r) = r else { return false };
            let audit_clean = r.audit.as_ref().is_none_or(|a| a.is_clean());
            let retired = *reference.entry(*group).or_insert(r.stats.instructions);
            audit_clean && retired == r.stats.instructions
        })
        .collect()
}

/// Results keyed by arm, then by group.
pub type ArmTable<'a> = BTreeMap<&'static str, BTreeMap<usize, &'a ExperimentResult>>;

/// Arranges one pass's successful results by arm and group.
pub fn arm_table<'a>(set: &JobSet, results: &[Option<&'a ExperimentResult>]) -> ArmTable<'a> {
    let mut table = ArmTable::new();
    for ((arm, group), r) in set.arms.iter().zip(&set.groups).zip(results) {
        if let Some(r) = r {
            table.entry(arm).or_default().insert(*group, r);
        }
    }
    table
}

/// One paper value from `anchors.json`.
pub struct Anchor {
    /// Stable identifier, e.g. `fig12.gto_overhead`.
    pub id: String,
    /// The end-to-end metric it feeds.
    pub metric: String,
    /// The paper's value, in percent.
    pub paper_pct: f64,
    /// True when the paper gives an upper bound ("less than 2%").
    pub upper_bound: bool,
    /// `calibrated` or `held_out`.
    pub provenance: String,
}

/// The anchors shipped with the benchmark.
pub fn anchors() -> Vec<Anchor> {
    let doc = Json::parse(include_str!("../anchors.json")).expect("anchors.json is valid JSON");
    let text = |a: &Json, key: &str| -> String {
        a.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("anchors.json: anchor without `{key}`"))
            .to_string()
    };
    doc.get("anchors")
        .and_then(Json::as_arr)
        .expect("anchors.json has an `anchors` list")
        .iter()
        .map(|a| Anchor {
            id: text(a, "id"),
            metric: text(a, "metric"),
            paper_pct: a
                .get("paper_pct")
                .and_then(Json::as_f64)
                .expect("anchors.json: anchor without `paper_pct`"),
            upper_bound: text(a, "kind") == "upper_bound",
            provenance: text(a, "provenance"),
        })
        .collect()
}

fn mean(xs: impl Iterator<Item = f64>) -> Option<f64> {
    let (n, sum) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    (n > 0).then(|| sum / n as f64)
}

/// Geomean over the groups both arms ran of `arm` cycles / `base` cycles.
fn normalized(table: &ArmTable, arm: &str, base: &str) -> Option<f64> {
    let (arm, base) = (table.get(arm)?, table.get(base)?);
    let logs = arm.iter().filter_map(|(g, r)| {
        let b = base.get(g)?;
        Some((r.cycles as f64 / b.cycles.max(1) as f64).ln())
    });
    mean(logs).map(f64::exp)
}

/// The anchor's measured value in percent, or `None` when the workload
/// does not run the arms it needs.
pub fn measure(anchor: &Anchor, table: &ArmTable) -> Option<f64> {
    let saving = |arm: &str, f: fn(&ExperimentResult) -> f64| {
        mean(table.get(arm)?.values().map(|r| 100.0 * f(r)))
    };
    let overhead = |arm: &str, base: &str| normalized(table, arm, base).map(|x| 100.0 * (x - 1.0));
    match anchor.id.as_str() {
        "fig11.adaptive_dynamic_saving" => saving("adaptive_gto", ExperimentResult::dynamic_saving),
        "fig11.mrf_ntv_dynamic_saving" => saving("mrf_ntv_gto", ExperimentResult::dynamic_saving),
        "fig11.leakage_saving" => saving("adaptive_gto", ExperimentResult::leakage_saving),
        "fig12.gto_overhead" => overhead("adaptive_gto", "mrf_stv_gto"),
        "fig12.tl_overhead" => overhead("adaptive_tl", "mrf_stv_tl"),
        "fig12.mrf_ntv_overhead" => overhead("mrf_ntv_gto", "mrf_stv_gto"),
        "fig12.compiler_vs_hybrid" => {
            let compiler = normalized(table, "compiler_gto", "mrf_stv_gto")?;
            let hybrid = normalized(table, "adaptive_gto", "mrf_stv_gto")?;
            Some(100.0 * (compiler / hybrid - 1.0))
        }
        other => panic!("anchors.json: no measurement for anchor `{other}`"),
    }
}

/// Error of a measured value against its anchor, in percentage points.
pub fn error_pts(anchor: &Anchor, measured: f64) -> f64 {
    let diff = measured - anchor.paper_pct;
    if anchor.upper_bound {
        diff.max(0.0)
    } else {
        diff.abs()
    }
}

/// Named metric values with their units, in print order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// `model.<arm>.*` statistics (deterministic `SmStats` sums per arm) and
/// `model.partitioned.frf_frac`, for every arm in [`ARMS`]; arms the
/// workload does not run read 0.
pub fn model_metrics(table: &ArmTable) -> Metrics {
    let mut out = Metrics::new();
    for arm in ARMS {
        let results: Vec<&ExperimentResult> = table
            .get(arm)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        let sum = |f: fn(&ExperimentResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>();
        let cycles = sum(|r| r.cycles);
        let ipc = if cycles == 0 {
            0.0
        } else {
            sum(|r| r.stats.instructions) as f64 / cycles as f64
        };
        out.push((format!("model.{arm}.ipc"), ipc, "instr/cycle"));
        for (stat, count) in [
            ("stall_collector", sum(|r| r.stats.stall_collector)),
            ("stall_mem", sum(|r| r.stats.stall_mem)),
            ("bank_conflict_waits", sum(|r| r.stats.bank_conflict_waits)),
        ] {
            out.push((format!("model.{arm}.{stat}"), count as f64, "count"));
        }
    }
    let (frf, total) = table
        .get("adaptive_gto")
        .map(|m| {
            m.values().fold((0, 0), |(f, t), r| {
                let pa = &r.stats.partition_accesses;
                (
                    f + pa.accesses(RfPartition::FrfHigh) + pa.accesses(RfPartition::FrfLow),
                    t + pa.total(),
                )
            })
        })
        .unwrap_or((0, 0));
    let frf_frac = if total == 0 {
        0.0
    } else {
        frf as f64 / total as f64
    };
    out.push(("model.partitioned.frf_frac".to_string(), frf_frac, "frac"));
    out
}
