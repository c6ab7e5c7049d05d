//! F12 — discrete-event substrate scale. See EXPERIMENTS.md.

use super::{Experiment, Output, RunTrace};
use simkernel::runner::RunReport;
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};
use std::fmt::Write as _;

/// Root seed of the F12 replication tree.
const F12_SEED: u64 = 0xF12;

/// Scale floors the full-mode F12 gate enforces: the tentpole claim
/// is a ≥10k-camera network and a ≥1M-request cloud trace, simulated
/// whole.
pub const F12_MIN_CAMERAS: u64 = 10_000;
/// Minimum arrived requests for the full-mode cloud arm.
pub const F12_MIN_REQUESTS: f64 = 1_000_000.0;
/// Minimum wall-clock-per-entity-tick improvement of sparse\@full over
/// dense\@reduced the full-mode gate demands, per substrate.
pub const F12_MIN_SPEEDUP: f64 = 10.0;

/// One measured F12 arm: a (substrate, drive, scale) cell with its
/// wall clock normalised per *potential* entity-tick — `entities ×
/// steps`, the work a dense loop must do regardless of activity. The
/// sparse arms also report how many entity visits actually happened,
/// which is the point: cost tracks activity, not population.
#[derive(Debug, Clone)]
struct DesMeasurement {
    /// `"camnet"` or `"cloud"`.
    substrate: &'static str,
    /// `"dense@reduced"`, `"sparse@reduced"` or `"sparse@full"`.
    arm: &'static str,
    /// Entity count (cameras / nodes) at this scale.
    entities: u64,
    /// Simulated horizon in ticks.
    steps: u64,
    /// `entities × steps` — the dense-equivalent workload.
    potential_entity_ticks: u64,
    /// Entity visits the drive mode actually performed.
    visits: f64,
    /// Requests arrived (cloud substrate; 0 for camnet).
    requests: f64,
    /// Wall-clock seconds for the measurement run (1 replicate, 1
    /// worker).
    wall_secs: f64,
    /// `wall_secs × 1e9 / potential_entity_ticks`.
    ns_per_entity_tick: f64,
}

/// The F12 scale matrix. Dense arms run only at *reduced* scale — at
/// full scale the dense camnet loop alone is ~5×10¹⁰ distance tests —
/// and the per-entity-tick comparison leans on the dense loop's cost
/// being linear in the population: per tick it does O(objects) work
/// per camera and O(1) work per node, both independent of how many
/// other entities exist, so ns-per-entity-tick measured at reduced
/// scale transfers to full scale (the extrapolation EXPERIMENTS.md
/// documents).
struct F12Scales {
    cam_side_full: usize,
    cam_side_reduced: usize,
    cam_objects: usize,
    cam_steps_full: u64,
    cam_steps_reduced: u64,
    cloud_nodes_full: usize,
    cloud_nodes_reduced: usize,
    cloud_steps_full: u64,
    cloud_steps_reduced: u64,
    cloud_rate: f64,
}

impl F12Scales {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                cam_side_full: 12,
                cam_side_reduced: 8,
                cam_objects: 32,
                cam_steps_full: 300,
                cam_steps_reduced: 120,
                cloud_nodes_full: 512,
                cloud_nodes_reduced: 128,
                cloud_steps_full: 4_000,
                cloud_steps_reduced: 1_000,
                cloud_rate: 4.0,
            }
        } else {
            Self {
                // 141² = 19 881 cameras — ~2× the 10k floor. The
                // woken-camera count per tick depends on objects ×
                // coverage, not on the grid size, so the sparse
                // advantage grows with the population.
                cam_side_full: 141,
                cam_side_reduced: 20,
                cam_objects: 256,
                cam_steps_full: 2_000,
                cam_steps_reduced: 250,
                cloud_nodes_full: 32_768,
                cloud_nodes_reduced: 1_024,
                cloud_steps_full: 150_000,
                cloud_steps_reduced: 20_000,
                cloud_rate: 8.0,
            }
        }
    }
}

/// The F12 camnet fault campaign: a handful of camera failures and
/// recoveries so the at-scale run exercises the scheduler's fault
/// class, scaled to the grid.
fn f12_camnet_faults(side: usize, steps: u64) -> workloads::faults::FaultPlan {
    let n = side * side;
    let mut plan = workloads::faults::FaultPlan::none();
    for k in 0..4usize {
        let cam = (k * n) / 4 + side / 2;
        plan = plan
            .and(workloads::FaultEvent::camera_fail(Tick(steps / 4), cam))
            .and(workloads::FaultEvent::camera_recover(
                Tick(steps * 3 / 4),
                cam,
            ));
    }
    plan
}

/// The F12 cloud fault campaign: one mid-run rack outage over an
/// eighth of the fleet.
fn f12_cloud_faults(nodes: usize, steps: u64) -> workloads::faults::FaultPlan {
    workloads::faults::FaultPlan::none().and(workloads::FaultEvent::zone_outage(
        Tick(steps / 3),
        nodes / 4,
        (nodes / 8).max(1),
        steps / 4,
    ))
}

fn f12_camnet_cfg(
    scales: &F12Scales,
    full: bool,
    drive: simkernel::DriveMode,
) -> camnet::DesCamnetConfig {
    let side = if full {
        scales.cam_side_full
    } else {
        scales.cam_side_reduced
    };
    let steps = if full {
        scales.cam_steps_full
    } else {
        scales.cam_steps_reduced
    };
    let mut cfg = camnet::DesCamnetConfig::at_scale(side, scales.cam_objects, steps);
    cfg.faults = f12_camnet_faults(side, steps);
    cfg.drive = drive;
    cfg
}

fn f12_cloud_cfg(
    scales: &F12Scales,
    full: bool,
    drive: simkernel::DriveMode,
) -> cloudsim::DesCloudConfig {
    let nodes = if full {
        scales.cloud_nodes_full
    } else {
        scales.cloud_nodes_reduced
    };
    let steps = if full {
        scales.cloud_steps_full
    } else {
        scales.cloud_steps_reduced
    };
    let mut cfg = cloudsim::DesCloudConfig::at_scale(nodes, steps, scales.cloud_rate);
    // Trace-scale churn: at 150k ticks the `at_scale` default flips
    // every node ~270 times (2·steps / (1/p_off + 1/p_on)), which is
    // availability chaos, not volunteer churn. A node here flips ~55
    // times per full trace.
    // Applied at both scales so dense@reduced and sparse arms model
    // the same fleet.
    cfg.churn_off = 2e-4;
    cfg.churn_on = 2e-3;
    cfg.faults = f12_cloud_faults(nodes, steps);
    cfg.drive = drive;
    cfg
}

/// One F12 camnet replicate, flattened: world metrics plus the
/// activation counters (deterministic, so they ride report equality).
#[must_use]
pub fn f12_camnet_scenario(cfg: &camnet::DesCamnetConfig, seeds: &SeedTree) -> MetricSet {
    let r = camnet::run_des_camnet(cfg, seeds);
    let mut m = r.metrics;
    m.set("des_visits", r.perf.visits as f64);
    m.set("des_wakes", r.perf.wakes as f64);
    m.set("des_shed", r.perf.shed as f64);
    m
}

/// One F12 cloud replicate, flattened like
/// [`f12_camnet_scenario`].
#[must_use]
pub fn f12_cloud_scenario(cfg: &cloudsim::DesCloudConfig, seeds: &SeedTree) -> MetricSet {
    let r = cloudsim::run_des_cloud(cfg, seeds);
    let mut m = r.metrics;
    m.set("des_visits", r.perf.visits as f64);
    m.set("des_wakes", r.perf.wakes as f64);
    m.set("des_shed", r.perf.shed as f64);
    m
}

/// Runs the six F12 measurement arms (per substrate: dense\@reduced,
/// sparse\@reduced, sparse\@full), one replicate at one worker each —
/// these are wall-clock measurements, so they never time-share. Each
/// arm keeps its [`RunReport`] for the run trace. `progress` receives
/// one line per finished arm.
fn f12_measured_arms(
    smoke: bool,
    progress: &mut impl FnMut(&str),
) -> Vec<(DesMeasurement, RunReport)> {
    let scales = F12Scales::new(smoke);
    let runs = Replications::new(F12_SEED, 1);
    let mut out = Vec::new();
    let arms = [
        ("dense@reduced", false, simkernel::DriveMode::Dense),
        ("sparse@reduced", false, simkernel::DriveMode::Sparse),
        ("sparse@full", true, simkernel::DriveMode::Sparse),
    ];
    for (arm, full, drive) in arms {
        let cfg = f12_camnet_cfg(&scales, full, drive);
        let entities = (cfg.side * cfg.side) as u64;
        let steps = cfg.steps;
        let report = runs.run_par_threads(1, {
            let cfg = cfg.clone();
            move |seeds| f12_camnet_scenario(&cfg, &seeds)
        });
        out.push((
            des_measurement("camnet", arm, entities, steps, &report),
            report,
        ));
        progress(&format!("f12/camnet/{arm}: done"));
    }
    for (arm, full, drive) in arms {
        let cfg = f12_cloud_cfg(&scales, full, drive);
        let entities = cfg.nodes as u64;
        let steps = cfg.steps;
        let report = runs.run_par_threads(1, {
            let cfg = cfg.clone();
            move |seeds| f12_cloud_scenario(&cfg, &seeds)
        });
        out.push((
            des_measurement("cloud", arm, entities, steps, &report),
            report,
        ));
        progress(&format!("f12/cloud/{arm}: done"));
    }
    out
}

fn des_measurement(
    substrate: &'static str,
    arm: &'static str,
    entities: u64,
    steps: u64,
    report: &RunReport,
) -> DesMeasurement {
    let potential = entities * steps;
    let wall = report.wall_secs();
    DesMeasurement {
        substrate,
        arm,
        entities,
        steps,
        potential_entity_ticks: potential,
        visits: report.aggregate().mean("des_visits"),
        requests: report.aggregate().mean("arrived"),
        wall_secs: wall,
        ns_per_entity_tick: wall * 1e9 / potential.max(1) as f64,
    }
}

/// Per-substrate speedup: dense\@reduced ns-per-entity-tick over
/// sparse\@full ns-per-entity-tick. Empty if either arm is missing.
#[must_use]
fn f12_speedups(measurements: &[DesMeasurement]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for substrate in ["camnet", "cloud"] {
        let find = |arm: &str| {
            measurements
                .iter()
                .find(|m| m.substrate == substrate && m.arm == arm)
        };
        if let (Some(dense), Some(sparse)) = (find("dense@reduced"), find("sparse@full")) {
            out.push((
                dense.substrate,
                dense.ns_per_entity_tick / sparse.ns_per_entity_tick.max(f64::MIN_POSITIVE),
            ));
        }
    }
    out
}

/// Everything `run_f12` measured plus its acceptance verdicts.
#[derive(Debug)]
pub struct F12Report {
    /// Per-arm measurement table.
    pub table: Table,
    /// (substrate, dense\@reduced ÷ sparse\@full ns-per-entity-tick).
    pub speedups: Vec<(&'static str, f64)>,
    /// Gate failures (empty == pass): dense-vs-sparse and 1-vs-4-worker
    /// bit-identity always; scale floors and the ≥10× speedup in full
    /// mode only (smoke horizons are too short to time meaningfully).
    pub failures: Vec<String>,
}

/// F12 — discrete-event substrate scale. The tentpole claim: driving
/// the substrates through [`simkernel::SimScheduler`] with sparse
/// activation simulates a ≥10k-camera network and a ≥1M-request cloud
/// trace whole, at wall-clock-per-entity-tick ≥10× better than the
/// dense loops, while staying **bit-identical** to them — same
/// metrics dense vs sparse, same aggregates at 1 and 4 workers.
#[must_use]
pub fn run_f12(smoke: bool, mut progress: impl FnMut(&str)) -> F12Report {
    let scales = F12Scales::new(smoke);
    let mut failures = Vec::new();

    // Bit-identity: dense vs sparse at reduced scale, and 1 vs 4
    // workers on the sparse full-scale arm (the one the scale claim
    // rests on). 3 replicates each.
    let parity_runs = Replications::new(F12_SEED, 3);
    {
        // World metrics only: the activation counters differ between
        // drive modes by design (sparse visits ≪ dense visits), so
        // the dense-vs-sparse contract is over `.metrics` alone.
        let dense_cfg = f12_camnet_cfg(&scales, false, simkernel::DriveMode::Dense);
        let sparse_cfg = f12_camnet_cfg(&scales, false, simkernel::DriveMode::Sparse);
        let dense = parity_runs.run_par_threads(1, move |seeds| {
            camnet::run_des_camnet(&dense_cfg, &seeds).metrics
        });
        let sparse = parity_runs.run_par_threads(1, move |seeds| {
            camnet::run_des_camnet(&sparse_cfg, &seeds).metrics
        });
        if dense != sparse {
            failures.push("camnet: dense and sparse drives disagree at reduced scale".into());
        }
        let full_cfg = f12_camnet_cfg(&scales, true, simkernel::DriveMode::Sparse);
        let t1 = parity_runs.run_par_threads(1, {
            let cfg = full_cfg.clone();
            move |seeds| f12_camnet_scenario(&cfg, &seeds)
        });
        let t4 =
            parity_runs.run_par_threads(4, move |seeds| f12_camnet_scenario(&full_cfg, &seeds));
        if t1 != t4 {
            failures
                .push("camnet: sparse full-scale aggregates differ between 1 and 4 workers".into());
        }
        progress("f12/camnet: parity checks done");
    }
    {
        let dense_cfg = f12_cloud_cfg(&scales, false, simkernel::DriveMode::Dense);
        let sparse_cfg = f12_cloud_cfg(&scales, false, simkernel::DriveMode::Sparse);
        let dense = parity_runs.run_par_threads(1, move |seeds| {
            cloudsim::run_des_cloud(&dense_cfg, &seeds).metrics
        });
        let sparse = parity_runs.run_par_threads(1, move |seeds| {
            cloudsim::run_des_cloud(&sparse_cfg, &seeds).metrics
        });
        if dense != sparse {
            failures.push("cloud: dense and sparse drives disagree at reduced scale".into());
        }
        let full_cfg = f12_cloud_cfg(&scales, true, simkernel::DriveMode::Sparse);
        let t1 = parity_runs.run_par_threads(1, {
            let cfg = full_cfg.clone();
            move |seeds| f12_cloud_scenario(&cfg, &seeds)
        });
        let t4 = parity_runs.run_par_threads(4, move |seeds| f12_cloud_scenario(&full_cfg, &seeds));
        if t1 != t4 {
            failures
                .push("cloud: sparse full-scale aggregates differ between 1 and 4 workers".into());
        }
        progress("f12/cloud: parity checks done");
    }

    // Wall-clock measurements.
    let measured = f12_measured_arms(smoke, &mut progress);
    let measurements: Vec<DesMeasurement> = measured.iter().map(|(m, _)| m.clone()).collect();
    let speedups = f12_speedups(&measurements);

    // Run trace: the six measurement arms' metric aggregates.
    let labels: Vec<String> = measurements
        .iter()
        .map(|m| format!("{}:{}", m.substrate, m.arm))
        .collect();
    let reports: Vec<RunReport> = measured.into_iter().map(|(_, r)| r).collect();
    RunTrace {
        experiment: "f12",
        seed: F12_SEED,
        replicates: 1,
        steps: scales.cam_steps_full.max(scales.cloud_steps_full),
        config: &format!(
            "f12 smoke={smoke} camnet side {}/{} objects {} cloud nodes {}/{} rate {}",
            scales.cam_side_reduced,
            scales.cam_side_full,
            scales.cam_objects,
            scales.cloud_nodes_reduced,
            scales.cloud_nodes_full,
            scales.cloud_rate
        ),
        arms: &labels,
        reports: &reports,
    }
    .export();

    let mut table = Table::new(
        format!(
            "F12: discrete-event substrate scale ({} mode, 1 rep, 1 worker)",
            if smoke { "smoke" } else { "full" }
        ),
        &[
            "arm",
            "entities",
            "ticks",
            "entity-ticks",
            "visits",
            "wall s",
            "ns/entity-tick",
        ],
    );
    for m in &measurements {
        table.row_owned(vec![
            format!("{}:{}", m.substrate, m.arm),
            m.entities.to_string(),
            m.steps.to_string(),
            m.potential_entity_ticks.to_string(),
            format!("{:.0}", m.visits),
            format!("{:.3}", m.wall_secs),
            format!("{:.1}", m.ns_per_entity_tick),
        ]);
    }

    if !smoke {
        let cam_full = measurements
            .iter()
            .find(|m| m.substrate == "camnet" && m.arm == "sparse@full");
        if let Some(m) = cam_full {
            if m.entities < F12_MIN_CAMERAS {
                failures.push(format!(
                    "camnet full scale is {} cameras, below the {F12_MIN_CAMERAS} floor",
                    m.entities
                ));
            }
        }
        let cloud_full = measurements
            .iter()
            .find(|m| m.substrate == "cloud" && m.arm == "sparse@full");
        if let Some(m) = cloud_full {
            if m.requests < F12_MIN_REQUESTS {
                failures.push(format!(
                    "cloud full scale arrived {:.0} requests, below the {F12_MIN_REQUESTS:.0} floor",
                    m.requests
                ));
            }
        }
        for (substrate, speedup) in &speedups {
            if *speedup < F12_MIN_SPEEDUP {
                failures.push(format!(
                    "{substrate}: sparse@full is only {speedup:.1}× dense@reduced per entity-tick (gate {F12_MIN_SPEEDUP}×)"
                ));
            }
        }
    }

    F12Report {
        table,
        speedups,
        failures,
    }
}

/// `sas-bench run f12`; `--smoke` runs the reduced CI scale, which
/// keeps every bit-identity check but skips the wall-clock gates.
pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f12",
    has_smoke: true,
    run: |smoke| {
        let report = run_f12(smoke, |line| eprintln!("  {line}"));
        let mut stdout = format!("{}\n", report.table);
        for (substrate, speedup) in &report.speedups {
            let _ = writeln!(
                stdout,
                "{substrate}: sparse@full runs {speedup:.0}× faster per entity-tick than dense@reduced"
            );
        }
        Output {
            stdout,
            gate: Some(("F12 scale gate", report.failures)),
        }
    },
};

#[cfg(test)]
mod f12_tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_non_timing_gate() {
        // Smoke mode skips the wall-clock gates but keeps every
        // bit-identity check; any parity failure surfaces here.
        let report = run_f12(true, |_| ());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.speedups.len(), 2);
    }

    #[test]
    fn measurements_cover_both_substrates_and_all_arms() {
        let ms: Vec<DesMeasurement> = f12_measured_arms(true, &mut |_| ())
            .into_iter()
            .map(|(m, _)| m)
            .collect();
        assert_eq!(ms.len(), 6);
        for substrate in ["camnet", "cloud"] {
            for arm in ["dense@reduced", "sparse@reduced", "sparse@full"] {
                assert!(
                    ms.iter().any(|m| m.substrate == substrate && m.arm == arm),
                    "missing {substrate}:{arm}"
                );
            }
        }
        // The point of sparse activation: at the full (larger) scale
        // the visit count stays tied to activity, far below the
        // dense-equivalent entity-tick count.
        let sparse_full = ms
            .iter()
            .find(|m| m.substrate == "cloud" && m.arm == "sparse@full")
            .expect("cloud sparse@full");
        assert!(
            sparse_full.visits < sparse_full.potential_entity_ticks as f64 / 10.0,
            "visits {} vs potential {}",
            sparse_full.visits,
            sparse_full.potential_entity_ticks
        );
    }
}
