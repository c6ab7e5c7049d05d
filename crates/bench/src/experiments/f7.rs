//! F7 — controller-model corruption. See EXPERIMENTS.md.

use super::{metrics_json, Experiment, Output, RunTrace, REPS};
use selfaware::models::holt::Holt;
use selfaware::models::{Forecaster, OnlineModel as _};
use simkernel::obs;
use simkernel::table::num_ci;
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};

/// Controller arm for the F7 corruption ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F7Arm {
    /// Reactive: control = last observation. No model to corrupt —
    /// the floor a broken forecaster should fall back to.
    Baseline,
    /// An unsupervised Holt forecaster drives control directly;
    /// corruption flows straight into the control signal.
    Unsupervised,
    /// The same Holt forecaster watchdogged by a
    /// [`Supervisor`](selfaware::supervision::Supervisor):
    /// checkpoint/rollback, reactive fallback, backoff re-promotion.
    Supervised,
}

impl F7Arm {
    /// Short table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            F7Arm::Baseline => "baseline (reactive)",
            F7Arm::Unsupervised => "unsupervised holt",
            F7Arm::Supervised => "supervised holt",
        }
    }
}

/// The fixed F7 corruption plan: NaN poison at `steps/4`, a ×25
/// weight scramble at `steps/2`, and a `steps/10` state freeze at
/// `3*steps/4`, all aimed at controller 0.
#[must_use]
pub fn f7_fault_plan(steps: u64) -> workloads::FaultPlan {
    use workloads::faults::ModelCorruptionKind;
    workloads::FaultPlan::new(vec![
        workloads::FaultEvent::model_corruption(Tick(steps / 4), 0, ModelCorruptionKind::NanPoison),
        workloads::FaultEvent::model_corruption(
            Tick(steps / 2),
            0,
            ModelCorruptionKind::WeightScramble { gain: 25.0 },
        ),
        workloads::FaultEvent::model_corruption(
            Tick(3 * steps / 4),
            0,
            ModelCorruptionKind::StateFreeze {
                duration: steps / 10,
            },
        ),
    ])
}

/// Per-tick regret is capped here so one NaN/exploded forecast costs
/// a bounded (but heavy) penalty instead of destroying the mean.
pub const F7_REGRET_CAP: f64 = 50.0;
/// Ticks after each corruption onset that count as the "corrupted
/// window" for `regret_corrupt`.
pub const F7_WINDOW: u64 = 150;

/// One F7 replicate: a controller tracks a drifting demand signal
/// while `plan` corrupts its forecasting model. Control for tick
/// `t+1` is chosen at the end of tick `t`; regret is
/// `min(|control - truth|, F7_REGRET_CAP)` (non-finite control pays
/// the cap). Metric keys:
///
/// * `mean_regret` — whole-run mean per-tick regret;
/// * `regret_corrupt` — mean regret inside the [`F7_WINDOW`]-tick
///   windows after each corruption onset;
/// * `recovery_ticks` — mean ticks from onset until the 10-tick
///   smoothed regret first returns inside twice the pre-corruption
///   band (censored at the next onset / end of run);
/// * `model_rollbacks` / `model_fallbacks` / `model_repromotions` —
///   supervisor interventions (0 for the other arms);
/// * `explanations` — supervision entries in the
///   [`ExplanationLog`](selfaware::explain::ExplanationLog).
///
/// Public so the parity and property tests can compare sequential and
/// parallel runs of the exact scenario.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn f7_scenario(
    arm: F7Arm,
    plan: &workloads::FaultPlan,
    seeds: SeedTree,
    steps: u64,
) -> MetricSet {
    use selfaware::explain::ExplanationLog;
    use selfaware::supervision::{ControlSource, Evidence, Supervisor};
    use workloads::faults::FaultKind;
    use workloads::signal::{SignalGen, SignalSpec};

    // Drifting demand with regime changes: enough structure that a
    // healthy forecaster beats pure reaction, and mis-forecasts cost.
    let regimes = vec![
        (
            0,
            SignalSpec::Trend {
                start: 20.0,
                slope: 0.02,
            },
        ),
        (
            steps / 3,
            SignalSpec::Oscillation {
                center: 30.0,
                amplitude: 6.0,
                period: 120.0,
            },
        ),
        (2 * steps / 3, SignalSpec::Flat { level: 24.0 }),
    ];
    let mut gen = SignalGen::new(regimes, 0.8, seeds.rng("demand"));

    // The baseline arm never reads the model; the unsupervised arm
    // holds it unwatched.
    let mut model = if arm == F7Arm::Supervised {
        Supervisor::new("f7-demand", Holt::new(0.3, 0.1))
    } else {
        Supervisor::unwatched("f7-demand", Holt::new(0.3, 0.1))
    };
    let mut log = ExplanationLog::new(1024);
    let mut control: Option<f64> = None;
    let mut regret = Vec::with_capacity(steps as usize);
    let mut onsets: Vec<u64> = Vec::new();

    for t in 0..steps {
        let now = Tick(t);
        let sense_span = obs::span("f7:sense");
        let x = gen.sample(now);

        // Corruption strikes before the tick's model update, as in the
        // substrate simulators.
        for ev in plan.events_at(now) {
            if let FaultKind::ModelCorruption { kind, .. } = ev.kind {
                onsets.push(t);
                model.corrupt(kind, now);
            }
        }
        drop(sense_span);
        let _decide_span = obs::span("f7:decide");

        // Score yesterday's control decision against today's truth.
        if let Some(c) = control {
            let r = (c - x).abs();
            regret.push(if r.is_finite() {
                r.min(F7_REGRET_CAP)
            } else {
                F7_REGRET_CAP
            });
        } else {
            regret.push(0.0);
        }

        // Update the model and choose control for the next tick.
        control = Some(if arm == F7Arm::Baseline {
            x
        } else {
            if !model.frozen(now) {
                model.model_mut().observe(x);
            }
            let out = model.model().forecast_h(1).unwrap_or(x);
            model.observe(now, Evidence::forecast(x, out), &mut log);
            if arm == F7Arm::Unsupervised {
                // Honest degradation: whatever the model says, flows.
                out
            } else if model.source() == ControlSource::Model && out.is_finite() {
                out
            } else {
                x // reactive fallback while benched / non-finite
            }
        });
    }

    onsets.sort_unstable();
    onsets.dedup();
    let first_onset = onsets.first().copied().unwrap_or(steps) as usize;
    let pre = &regret[..first_onset.max(1).min(regret.len())];
    let pre_mean = pre.iter().sum::<f64>() / pre.len().max(1) as f64;
    let band = 2.0 * pre_mean + 1.0;
    // Trailing 10-tick mean, clipped at the onset so pre-corruption
    // calm cannot mask the spike.
    let smooth = |i: usize, onset: usize| -> f64 {
        let lo = i.saturating_sub(9).max(onset);
        regret[lo..=i].iter().sum::<f64>() / (i - lo + 1) as f64
    };

    let mut corrupt_sum = 0.0;
    let mut corrupt_n = 0u64;
    let mut recovery_sum = 0.0;
    for (k, &onset) in onsets.iter().enumerate() {
        let end = onsets
            .get(k + 1)
            .copied()
            .unwrap_or(steps)
            .min(regret.len() as u64);
        let window_end = (onset + F7_WINDOW).min(regret.len() as u64);
        for &r in &regret[onset as usize..window_end as usize] {
            corrupt_sum += r;
            corrupt_n += 1;
        }
        let recovered = (onset..end)
            .position(|i| smooth(i as usize, onset as usize) <= band)
            .map_or(end - onset, |d| d as u64);
        recovery_sum += recovered as f64;
    }

    let stats = model.stats();
    let mut m = MetricSet::new();
    m.set(
        "mean_regret",
        regret.iter().sum::<f64>() / regret.len().max(1) as f64,
    );
    m.set("regret_corrupt", corrupt_sum / corrupt_n.max(1) as f64);
    m.set("recovery_ticks", recovery_sum / onsets.len().max(1) as f64);
    m.set("model_rollbacks", f64::from(stats.rollbacks));
    m.set("model_fallbacks", f64::from(stats.fallbacks));
    m.set("model_repromotions", f64::from(stats.repromotions));
    m.set("explanations", log.len() as f64);
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f7")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&m)),
        ("supervision", stats.to_json()),
        ("explanations", log.to_json()),
    ]));
    m
}

/// F7 — controller-corruption ablation: the same corrupted forecaster
/// run bare, and under meta-self-aware supervision, against the
/// reactive floor. Supervision should bound the corrupted-window
/// regret and recover the model instead of riding it into the ground.
#[must_use]
pub fn run_f7(reps: u32, steps: u64) -> Table {
    let arms = [F7Arm::Baseline, F7Arm::Unsupervised, F7Arm::Supervised];
    let mut table = Table::new(
        format!(
            "F7: controller corruption ablation ({steps} ticks, {reps} reps; \
             NaN poison, weight scramble, state freeze)"
        ),
        &[
            "controller",
            "mean regret",
            "corrupted-window regret",
            "recovery ticks",
            "rollbacks",
            "fallbacks",
        ],
    );
    let aggs = Replications::new(0xF7, reps).run_matrix(&arms, |&arm, seeds| {
        f7_scenario(arm, &f7_fault_plan(steps), seeds, steps)
    });
    let labels: Vec<String> = arms.iter().map(|a| a.label().to_string()).collect();
    RunTrace {
        experiment: "f7",
        seed: 0xF7,
        replicates: reps,
        steps,
        config: &format!("f7 arms={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (arm, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            arm.label().to_string(),
            num_ci(agg.mean("mean_regret"), agg.ci95("mean_regret")),
            num_ci(agg.mean("regret_corrupt"), agg.ci95("regret_corrupt")),
            format!("{:.0}", agg.mean("recovery_ticks")),
            format!("{:.1}", agg.mean("model_rollbacks")),
            format!("{:.1}", agg.mean("model_fallbacks")),
        ]);
    }
    table
}

/// Horizon `sas-bench run f7` uses, in ticks.
const STEPS: u64 = 6_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f7",
    has_smoke: false,
    run: |_| Output::text(run_f7(REPS, STEPS)),
};

#[cfg(test)]
mod f7_tests {
    use super::*;

    #[test]
    fn supervised_beats_unsupervised_in_corrupted_windows() {
        let steps = 4000;
        let plan = f7_fault_plan(steps);
        let reps = Replications::new(0xF7, 3);
        let uns = reps.run(|seeds| f7_scenario(F7Arm::Unsupervised, &plan, seeds, steps));
        let sup = reps.run(|seeds| f7_scenario(F7Arm::Supervised, &plan, seeds, steps));
        let u = uns.mean("regret_corrupt");
        let s = sup.mean("regret_corrupt");
        assert!(
            s < u,
            "supervised corrupted-window regret {s} must beat unsupervised {u}"
        );
        assert!(
            sup.mean("model_rollbacks") + sup.mean("model_fallbacks") >= 1.0,
            "supervisor must intervene"
        );
        assert!(
            sup.mean("explanations") >= 1.0,
            "interventions must be logged"
        );
    }

    #[test]
    fn supervised_recovery_is_bounded() {
        let steps = 4000;
        let m = f7_scenario(
            F7Arm::Supervised,
            &f7_fault_plan(steps),
            SeedTree::new(0xF7),
            steps,
        );
        let recovery = m.get("recovery_ticks").unwrap();
        assert!(
            recovery < f64::from(u32::try_from(steps / 4).unwrap()),
            "supervised recovery should stay inside the inter-onset gap: {recovery}"
        );
    }

    #[test]
    fn f7_table_is_reproducible() {
        let a = run_f7(2, 2000);
        let b = run_f7(2, 2000);
        assert_eq!(a.len(), 3);
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}
