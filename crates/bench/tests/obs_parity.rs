//! Observability must be a pure exporter: toggling `SAS_OBS` or the
//! worker count can never change a simulation result.
//!
//! These tests run real experiment scenarios with observability off
//! and on, at 1 and 4 worker threads, and require bit-identical
//! aggregates (including the comms counters, i.e. `CommsStats`) and
//! identical structured records — metrics, stats blocks, and drained
//! explanation sequences — across thread counts. They live in their
//! own integration binary because the obs override is process-global:
//! sharing a binary with unrelated tests would race the toggle.

use sas_bench::experiments::{f5_scenario, f8_scenario, F8Arm, RunTrace};
use simkernel::obs::{self, Json};
use simkernel::{Aggregate, MetricSet, Replications, RunReport, SeedTree};
use std::sync::Mutex;

const REPS: u32 = 3;

/// Serialises tests that flip the process-global obs override.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_bitwise_equal(a: &Aggregate, b: &Aggregate, what: &str) {
    assert_eq!(a, b, "{what}: aggregates differ");
    for (name, _) in a.iter() {
        assert_eq!(
            a.mean(name).to_bits(),
            b.mean(name).to_bits(),
            "{what}: mean({name}) diverged"
        );
    }
}

/// Renders every replicate's records to JSONL text — the
/// determinism-relevant projection of the observations.
fn rendered_records(report: &RunReport) -> Vec<Vec<String>> {
    report
        .records()
        .iter()
        .map(|replicate| replicate.iter().map(Json::render).collect())
        .collect()
}

/// Runs `scenario` with obs off and on, each at 1 and 4 threads, and
/// checks the full parity contract.
fn check_obs_parity<F>(base_seed: u64, scenario: F, what: &str)
where
    F: Fn(SeedTree) -> MetricSet + Sync,
{
    let reps = Replications::new(base_seed, REPS);
    obs::set_override(Some(false));
    let off1 = reps.run_par_threads(1, &scenario);
    let off4 = reps.run_par_threads(4, &scenario);
    obs::set_override(Some(true));
    let on1 = reps.run_par_threads(1, &scenario);
    let on4 = reps.run_par_threads(4, &scenario);
    obs::set_override(None);

    // The metric aggregates — including the comms_* counters, which
    // are the CommsStats of every protocol endpoint — are bitwise
    // identical whether or not observation happened, at any width.
    for (other, label) in [(&off4, "off/4"), (&on1, "on/1"), (&on4, "on/4")] {
        assert_bitwise_equal(&off1, other, &format!("{what}: off/1 vs {label}"));
    }

    // Observation itself is deterministic: the structured records
    // (metrics, stats blocks, drained explanation sequences) agree
    // exactly between sequential and parallel runs.
    assert_eq!(on1, on4, "{what}: reports diverged across thread counts");
    assert_eq!(
        rendered_records(&on1),
        rendered_records(&on4),
        "{what}: rendered records diverged across thread counts"
    );
    assert_eq!(on1.records().len(), REPS as usize);
    assert!(
        on1.records().iter().all(|r| !r.is_empty()),
        "{what}: every replicate should have emitted a record"
    );
    assert!(
        off1.records().iter().all(Vec::is_empty),
        "{what}: obs off must not collect records"
    );
}

#[test]
fn f5_scenario_obs_parity() {
    let _guard = obs_lock();
    check_obs_parity(
        0xF5,
        |seeds| f5_scenario(&camnet::HandoverStrategy::self_aware_default(), seeds, 800),
        "obs/f5",
    );
}

#[test]
fn f8_scenario_obs_parity() {
    let _guard = obs_lock();
    // Lossy + partitioned arm: exercises the reliable comms protocol
    // on all three comms-bearing substrates, so the comms_* counters
    // and exported explanation logs are non-trivial.
    let arm = F8Arm {
        loss: 0.2,
        partition: 100,
        naive: false,
    };
    check_obs_parity(0xF8, |seeds| f8_scenario(arm, seeds, 400), "obs/f8");
}

#[test]
fn exported_run_trace_parses_and_carries_replicate_events() {
    let _guard = obs_lock();
    obs::set_override(Some(true));
    let reps = Replications::new(0xF5, REPS);
    let report = reps.run_par_threads(4, |seeds| {
        f5_scenario(&camnet::HandoverStrategy::Broadcast, seeds, 800)
    });
    obs::set_override(None);

    // Stay inside the workspace target directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/obs-test-bench");
    let labels = vec!["broadcast".to_string()];
    let reports = vec![report];
    let path = RunTrace {
        experiment: "f5-test",
        seed: 0xF5,
        replicates: REPS,
        steps: 800,
        config: "obs_parity integration test",
        arms: &labels,
        reports: &reports,
    }
    .export_in(&root)
    .expect("export failed");

    let text = std::fs::read_to_string(&path).expect("artifact unreadable");
    let lines: Vec<Json> = text
        .lines()
        .map(|l| obs::parse(l).expect("invalid JSON line"))
        .collect();
    // 1 provenance + 1 arm + REPS replicate lines.
    assert_eq!(lines.len(), 2 + REPS as usize);
    let prov = &lines[0];
    assert_eq!(
        prov.get("record").and_then(Json::as_str),
        Some("provenance")
    );
    for key in [
        "experiment",
        "seed",
        "replicates",
        "sas_threads",
        "config_digest",
        "versions",
    ] {
        assert!(prov.get(key).is_some(), "provenance missing {key}");
    }
    let arm = &lines[1];
    assert_eq!(arm.get("record").and_then(Json::as_str), Some("arm"));
    assert!(arm.get("aggregate").is_some() && arm.get("profile").is_some());
    for line in &lines[2..] {
        assert_eq!(line.get("record").and_then(Json::as_str), Some("replicate"));
        let events = line.get("events").and_then(Json::as_arr).expect("events");
        assert!(!events.is_empty(), "replicate carries emitted records");
        let metrics = events[0].get("metrics").expect("scenario metrics record");
        assert!(metrics.get("quality").is_some());
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn f9_scenario_obs_parity() {
    use sas_bench::experiments::{f9_scenario, F9Arm};
    let _guard = obs_lock();
    // The composed city emits the full structured record (metrics +
    // per-link comms maps + explanations); none of it may feed back
    // into the simulation at any thread count.
    check_obs_parity(
        0xF9,
        |seeds| f9_scenario(F9Arm::Supervised, seeds, 400),
        "f9/supervised",
    );
}

#[test]
fn traced_city_profiles_the_router_supervision_step() {
    use sas_bench::experiments::{f9_scenario, F9Arm};
    let _guard = obs_lock();
    let run = || obs::with_sink(|| f9_scenario(F9Arm::Supervised, SeedTree::new(1), 200));
    obs::set_override(Some(true));
    let (traced, on) = run();
    obs::set_override(Some(false));
    let (untraced, off) = run();
    obs::set_override(None);

    // The supervisor's per-tick checkpoint of the router is a phase of
    // its own, not part of the unattributed remainder.
    let supervise = on.profile.phase("city:supervise");
    assert!(
        supervise.is_some_and(|p| p.stats.count() == 200 && p.stats.sum() > 0.0),
        "a traced run_city must profile city:supervise once per tick"
    );
    assert!(off.profile.phase("city:supervise").is_none());
    assert!(off.profile.is_empty(), "an untraced run records no phases");
    assert_eq!(traced, untraced, "the span must not perturb the run");
}
