//! Integrity and fault-injection tests for the on-disk result cache, run
//! through the matrix runner: cache entries with any single flipped byte
//! are quarantined — never parsed into a served result — and a quarantined
//! slot repopulates bit-identically; a full disk degrades stores to
//! recompute-and-count; a power cut mid-store leaves only a `.tmp` corpse
//! that the next open sweeps.
//!
//! The vendored proptest subset has no byte-string strategy, so flip
//! positions are drawn as `u64`s and reduced modulo the entry length.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use prf_bench::cache::ResultCache;
use prf_bench::digest::job_digest;
use prf_bench::json::Json;
use prf_bench::runner::{run_matrix_resilient_configured, Job, MatrixOutcome, RetryPolicy};
use prf_bench::vfs::{FaultPlan, FaultyVfs, Vfs};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::GpuConfig;
use proptest::prelude::*;

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "prf_cache_integrity_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An audited BFS job on the partitioned RF with jitter seed `seed`.
fn bfs_job(seed: u64) -> Job {
    let gpu = GpuConfig {
        jitter_seed: seed,
        audit: true,
        ..GpuConfig::kepler_single_sm()
    };
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
    Job::new(
        format!("BFS/partitioned/seed{seed}"),
        &prf_workloads::suite::bfs(),
        &gpu,
        &rf,
    )
}

/// Runs `jobs` serially against `cache`.
fn run(jobs: &[Job], cache: &ResultCache) -> MatrixOutcome {
    run_matrix_resilient_configured(jobs, RetryPolicy::none(), 1, None, Some(cache))
}

/// Runs the reference job exactly once and returns `(digest, entry
/// bytes)` of the cache entry it produces. Every flip case perturbs a
/// copy of these bytes instead of re-simulating.
fn reference_entry() -> &'static (String, Vec<u8>) {
    static ENTRY: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let dir = unique_dir("reference");
        let cache = ResultCache::at(&dir);
        let job = bfs_job(0);
        let digest = job_digest(&job);
        let outcome = run(std::slice::from_ref(&job), &cache);
        assert!(
            outcome.reports[0].result.is_some(),
            "reference job must run"
        );
        let bytes = std::fs::read(dir.join(format!("{digest}.json"))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (digest, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single flipped byte — header, body, separator, or checksum
    /// footer — quarantines the entry. It is never served, never
    /// deleted, and never panics the reader.
    #[test]
    fn any_single_byte_flip_is_quarantined_not_served(pos in any::<u64>(), mask in any::<u64>()) {
        let (digest, entry) = reference_entry();
        let mut flipped = entry.clone();
        let pos = (pos % flipped.len() as u64) as usize;
        let mask = 1 + (mask % 255) as u8; // nonzero: the byte really changes
        flipped[pos] ^= mask;

        let dir = unique_dir("flip");
        std::fs::create_dir_all(&dir).unwrap();
        let entry_path = dir.join(format!("{digest}.json"));
        std::fs::write(&entry_path, &flipped).unwrap();
        let cache = ResultCache::at(&dir);

        prop_assert!(
            cache.load(digest, &bfs_job(0)).is_none(),
            "flipped byte {pos} (mask {mask:#04x}) must not be served"
        );
        prop_assert_eq!(cache.quarantined(), 1);
        let jailed = cache.quarantine_dir().join(format!("{digest}.json"));
        prop_assert!(jailed.exists(), "quarantined, not deleted");
        prop_assert_eq!(std::fs::read(&jailed).unwrap(), flipped);
        prop_assert!(!entry_path.exists(), "the corrupt entry leaves the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Strips the wall-clock provenance fields (`elapsed_ns`, phase
/// timings) from a cache entry's body. Everything left — digest,
/// cycles, energy, audit, telemetry — is deterministic and must
/// repopulate bit-identically.
fn deterministic_body(entry: &[u8]) -> Json {
    fn mask(doc: Json) -> Json {
        match doc {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| {
                        if k == "elapsed_ns" || k == "phases" {
                            (k, Json::Null)
                        } else {
                            (k, mask(v))
                        }
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(mask).collect()),
            other => other,
        }
    }
    let text = std::str::from_utf8(entry).unwrap();
    let body = text.split('\n').next().unwrap();
    mask(Json::parse(body).unwrap())
}

/// Quarantine plus re-run repopulates a bit-identical entry: the
/// corrupt bytes go to `corrupt/`, the slot is a plain miss, and the
/// deterministic simulator rebuilds exactly the original payload (only
/// the wall-clock provenance fields may differ).
#[test]
fn quarantine_and_rerun_repopulates_a_byte_identical_entry() {
    let (digest, entry) = reference_entry();
    let mut flipped = entry.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;

    let dir = unique_dir("repopulate");
    std::fs::create_dir_all(&dir).unwrap();
    let entry_path = dir.join(format!("{digest}.json"));
    std::fs::write(&entry_path, &flipped).unwrap();
    let cache = ResultCache::at(&dir);
    let job = bfs_job(0);
    assert!(cache.load(digest, &job).is_none());
    assert_eq!(cache.quarantined(), 1);

    // Re-run through the matrix runner: miss, simulate, store.
    let outcome = run(std::slice::from_ref(&job), &cache);
    assert_eq!(outcome.reports[0].cached, Some(false), "must be a miss");
    let repopulated = std::fs::read(&entry_path).unwrap();
    assert_eq!(
        deterministic_body(&repopulated).to_json(),
        deterministic_body(entry).to_json(),
        "repopulated entry is bit-identical up to wall-clock provenance"
    );
    // And the repopulated entry passes integrity: a warm load serves it.
    assert!(cache.load(digest, &job).is_some());
    // And the quarantined corpse is still there for forensics.
    assert!(cache
        .quarantine_dir()
        .join(format!("{digest}.json"))
        .exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_enospc_degrades_to_recompute_and_is_counted() {
    let dir = unique_dir("enospc");
    let faulty = Arc::new(FaultyVfs::new());
    let cache = ResultCache::open(&dir, faulty.clone() as Arc<dyn Vfs>).unwrap();
    faulty.set_plan(FaultPlan {
        fail_writes: true,
        ..FaultPlan::default()
    });

    let jobs: Vec<_> = (0..2).map(bfs_job).collect();
    let outcome = run(&jobs, &cache);
    for report in &outcome.reports {
        assert!(
            report.result.is_some(),
            "a full disk must not fail the job: {:?}",
            report.outcome
        );
    }
    assert_eq!(cache.write_errors(), 2, "every failed store is counted");
    assert_eq!(cache.quarantined(), 0);

    // A failed directory fsync after the publish also counts, but the
    // renamed entry is already in place for this boot.
    faulty.set_plan(FaultPlan {
        fail_sync_dir: true,
        ..FaultPlan::default()
    });
    let synced = run(&jobs[..1], &cache);
    assert_eq!(synced.reports[0].cached, Some(false));
    assert_eq!(cache.write_errors(), 3);

    // Healed disk: the same jobs store and then hit.
    faulty.revive();
    let again = run(&jobs, &cache);
    assert_eq!(again.reports[0].cached, Some(true));
    assert_eq!(again.reports[1].cached, Some(false));
    let warm = run(&jobs, &cache);
    assert!(warm.reports.iter().all(|r| r.cached == Some(true)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_cut_mid_store_leaves_only_a_tmp_corpse_that_open_sweeps() {
    let dir = unique_dir("powercut");
    let faulty = Arc::new(FaultyVfs::new());
    let cache = ResultCache::open(&dir, faulty.clone() as Arc<dyn Vfs>).unwrap();
    let job = bfs_job(4);

    // Power dies on the very next mutating operation: the entry's .tmp
    // write lands half its bytes and the rename never happens.
    faulty.set_plan(FaultPlan {
        power_cut_after_ops: Some(0),
        ..FaultPlan::default()
    });
    let outcome = run(std::slice::from_ref(&job), &cache);
    assert!(
        outcome.reports[0].result.is_some(),
        "the job itself succeeds"
    );
    assert_eq!(cache.write_errors(), 1);
    let tmp_corpses = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .count();
    assert_eq!(tmp_corpses, 1, "the torn tmp file is the only residue");

    // "Reboot": a fresh open over the real filesystem sweeps the corpse
    // and the entry is a plain miss that repopulates cleanly.
    let rebooted = ResultCache::at(&dir);
    assert_eq!(rebooted.swept_tmp(), 1);
    let outcome = run(std::slice::from_ref(&job), &rebooted);
    assert_eq!(outcome.reports[0].cached, Some(false));
    assert_eq!(rebooted.quarantined(), 0, "a swept tmp is not a quarantine");
    let warm = run(std::slice::from_ref(&job), &rebooted);
    assert_eq!(warm.reports[0].cached, Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_jobs_are_never_stored() {
    let dir = unique_dir("failed");
    let cache = ResultCache::at(&dir);
    let mut job = bfs_job(0);
    job.gpu.max_cycles = 1;
    let outcome = run(std::slice::from_ref(&job), &cache);
    assert!(outcome.reports[0].result.is_none(), "the job must fail");
    assert_eq!(outcome.reports[0].cached, Some(false));
    assert!(
        cache.load(&job_digest(&job), &job).is_none(),
        "a failed job leaves no entry"
    );
    assert_eq!(cache.write_errors(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
