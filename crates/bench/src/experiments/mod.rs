//! Experiment implementations, one module per experiment (T1–T6,
//! F1–F12, the A1–A3 ablations) plus the helpers they share. See
//! EXPERIMENTS.md for the claim each one tests and the expected shape.

use simkernel::obs;
use simkernel::runner::RunReport;
use simkernel::{MetricSet, SeedTree};
use std::path::{Path, PathBuf};

mod ablations;
mod b1;
mod f1;
mod f10;
mod f11;
mod f12;
mod f2;
mod f3;
mod f4;
mod f5;
mod f6;
mod f7;
mod f8;
mod f9;
mod t1;
mod t2;
mod t3;
mod t4;
mod t5;
mod t6;

pub use ablations::*;
pub use b1::*;
pub use f1::*;
pub use f10::*;
pub use f11::*;
pub use f12::*;
pub use f2::*;
pub use f3::*;
pub use f4::*;
pub use f5::*;
pub use f6::*;
pub use f7::*;
pub use f8::*;
pub use f9::*;
pub use t1::*;
pub use t2::*;
pub use t3::*;
pub use t4::*;
pub use t5::*;
pub use t6::*;

/// One experiment as `sas-bench run` sees it.
#[derive(Debug)]
pub struct Experiment {
    /// Run id (`t1`, `f12`, …), as typed after `sas-bench run`.
    pub id: &'static str,
    /// Whether the experiment has a reduced CI size, selected with
    /// `--smoke`.
    pub has_smoke: bool,
    /// Runs the experiment, at its smoke size when passed `true`.
    pub run: fn(bool) -> Output,
}

/// What one experiment run prints, and how its acceptance gate went.
#[derive(Debug)]
pub struct Output {
    /// The regenerated table or figure, newline-terminated.
    pub stdout: String,
    /// `(gate name, failures)` for the gated experiments (F10–F12);
    /// the gate passed when `failures` is empty.
    pub gate: Option<(&'static str, Vec<String>)>,
}

impl Output {
    /// An ungated experiment's output: `shown` plus a newline.
    pub fn text(shown: impl std::fmt::Display) -> Self {
        Self {
            stdout: format!("{shown}\n"),
            gate: None,
        }
    }
}

/// Every experiment, in EXPERIMENTS.md order; `sas-bench run all` runs
/// them in this order.
pub const EXPERIMENTS: &[Experiment] = &[
    t1::EXPERIMENT,
    t2::EXPERIMENT,
    t3::EXPERIMENT,
    t4::EXPERIMENT,
    t5::EXPERIMENT,
    t6::EXPERIMENT,
    f1::EXPERIMENT,
    f2::EXPERIMENT,
    f3::EXPERIMENT,
    f4::EXPERIMENT,
    f5::EXPERIMENT,
    f6::EXPERIMENT,
    f7::EXPERIMENT,
    f8::EXPERIMENT,
    f9::EXPERIMENT,
    f10::EXPERIMENT,
    f11::EXPERIMENT,
    f12::EXPERIMENT,
    ablations::A1,
    ablations::A2,
    ablations::A3,
    b1::EXPERIMENT,
];

/// Default replication count for table experiments.
pub const REPS: u32 = 5;
/// Default horizon (ticks) for cloud scenarios.
pub const CLOUD_STEPS: u64 = 6_000;

/// Renders a [`MetricSet`] as a flat JSON object.
fn metrics_json(m: &MetricSet) -> obs::Json {
    obs::Json::obj(m.iter().map(|(k, v)| (k.to_string(), obs::Json::from(v))))
}

/// Renders an arm's aggregate as `{metric: {n, mean, ci95, std_dev}}`.
fn aggregate_json(report: &RunReport) -> obs::Json {
    obs::Json::obj(report.iter().map(|(k, s)| {
        (
            k.to_string(),
            obs::Json::obj([
                ("n", obs::Json::from(s.count())),
                ("mean", obs::Json::from(s.mean())),
                ("ci95", obs::Json::from(s.ci95_halfwidth())),
                ("std_dev", obs::Json::from(s.std_dev())),
            ]),
        )
    }))
}

/// One experiment's structured run trace: provenance plus the
/// per-arm [`RunReport`]s a matrix run produced. Exported as JSONL
/// under `<artifact_root>/<experiment>/run.jsonl` (see
/// [`simkernel::obs`] for the artifact-root rules).
///
/// Line schema (one JSON object per line, discriminated by `record`):
///
/// * `provenance` — experiment id, root seed, replicate count,
///   horizon, effective `SAS_THREADS` worker count, FNV-1a digest of
///   the config description, crate versions;
/// * `arm` — one per experiment arm: label, completed/recovered
///   counts, wall-clock seconds, per-metric aggregate statistics and
///   the merged phase-timing profile;
/// * `replicate` — one per replicate of each arm: the structured
///   records the scenario emitted through [`obs::emit`] (metrics,
///   comms/supervision/health stats, drained explanations);
/// * `counterfactual` — one per intervention-class delta a replicate
///   emitted (F10): any scenario-emitted record whose `record` field
///   is `counterfactual` is lifted out of the replicate's event array
///   into a top-level typed record tagged with its arm and replicate
///   index, so trace consumers can scan measured intervention deltas
///   without unnesting.
#[derive(Debug)]
pub struct RunTrace<'a> {
    /// Experiment id — also the artifact subdirectory name.
    pub experiment: &'a str,
    /// Root seed of the [`Replications`](simkernel::Replications) seed tree.
    pub seed: u64,
    /// Replicates per arm.
    pub replicates: u32,
    /// Scenario horizon in ticks.
    pub steps: u64,
    /// Human-readable config description; digested into provenance.
    pub config: &'a str,
    /// Arm labels, parallel to `reports`.
    pub arms: &'a [String],
    /// One report per arm, from a matrix run.
    pub reports: &'a [RunReport],
}

impl RunTrace<'_> {
    /// Writes the trace under the configured artifact root when
    /// observability is enabled; no-op (returning `None`) otherwise.
    /// I/O failures are reported on stderr rather than panicking —
    /// tracing must never take down an experiment run.
    pub fn export(&self) -> Option<PathBuf> {
        if !obs::enabled() {
            return None;
        }
        match self.export_in(&obs::artifact_root()) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("obs: run-trace export for {} failed: {e}", self.experiment);
                None
            }
        }
    }

    /// [`RunTrace::export`] with an explicit artifact root and no
    /// enabled-check (used by tests to write inside `target/`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the trace writer.
    pub fn export_in(&self, root: &Path) -> std::io::Result<PathBuf> {
        let mut w = obs::TraceWriter::create_in(root, self.experiment, "run")?;
        w.line(&obs::Json::obj([
            ("record", obs::Json::str("provenance")),
            ("experiment", obs::Json::str(self.experiment)),
            ("seed", obs::Json::from(self.seed)),
            ("replicates", obs::Json::from(self.replicates)),
            ("steps", obs::Json::from(self.steps)),
            (
                "sas_threads",
                obs::Json::from(simkernel::worker_count(self.replicates as usize) as u64),
            ),
            (
                "config_digest",
                obs::Json::str(obs::config_digest(self.config)),
            ),
            (
                "versions",
                obs::Json::obj([
                    ("sas-bench", obs::Json::str(env!("CARGO_PKG_VERSION"))),
                    ("simkernel", obs::Json::str(simkernel::VERSION)),
                    ("selfaware", obs::Json::str(selfaware::VERSION)),
                ]),
            ),
        ]));
        for (i, (label, report)) in self.arms.iter().zip(self.reports).enumerate() {
            w.line(&obs::Json::obj([
                ("record", obs::Json::str("arm")),
                ("index", obs::Json::from(i as u64)),
                ("label", obs::Json::str(label.clone())),
                ("completed", obs::Json::from(u64::from(report.completed()))),
                (
                    "recovered",
                    obs::Json::from(report.recovered().len() as u64),
                ),
                ("errors", obs::Json::from(report.errors().len() as u64)),
                ("wall_secs", obs::Json::from(report.wall_secs())),
                ("aggregate", aggregate_json(report)),
                ("profile", report.profile().to_json()),
            ]));
            for (k, records) in report.records().iter().enumerate() {
                w.line(&obs::Json::obj([
                    ("record", obs::Json::str("replicate")),
                    ("arm", obs::Json::str(label.clone())),
                    ("index", obs::Json::from(k as u64)),
                    ("events", obs::Json::Arr(records.clone())),
                ]));
                for rec in records {
                    if rec.get("record").and_then(obs::Json::as_str) != Some("counterfactual") {
                        continue;
                    }
                    let mut pairs = vec![
                        ("arm".to_string(), obs::Json::str(label.clone())),
                        ("replicate".to_string(), obs::Json::from(k as u64)),
                    ];
                    if let obs::Json::Obj(body) = rec {
                        pairs.extend(body.iter().cloned());
                    }
                    w.line(&obs::Json::Obj(pairs));
                }
            }
        }
        w.finish()
    }
}

fn run_cloud(strategy: &cloudsim::Strategy, seeds: SeedTree, steps: u64) -> MetricSet {
    let cfg = cloudsim::ScenarioConfig::standard(strategy.clone(), steps, &seeds);
    cloudsim::run_scenario(&cfg, &seeds).metrics
}

fn camnet_strategies() -> Vec<camnet::HandoverStrategy> {
    vec![
        camnet::HandoverStrategy::Broadcast,
        camnet::HandoverStrategy::Smooth { k: 3 },
        camnet::HandoverStrategy::Static { k: 3 },
        camnet::HandoverStrategy::self_aware_default(),
    ]
}
