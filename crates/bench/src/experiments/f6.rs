//! F6 — sensor-fault quarantine. See EXPERIMENTS.md.

use super::{metrics_json, Experiment, Output, RunTrace, REPS};
use simkernel::obs;
use simkernel::table::{num, num_ci};
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};

/// Number of redundant sensors observing the F6 signal.
pub const F6_SENSORS: usize = 3;

/// The F6 fault plan: a stuck-at, a bias shift, a dropout, a heavy
/// noise burst, and a *mean-reverting* noise burst staggered across
/// the three sensors. The last one is the variance-ratio watchdog's
/// target: it stays centred on the truth (5× the healthy sensor
/// noise, but zero mean), so the residual/outlier test keeps learning
/// it and only the residual-power ratio gives it away.
#[must_use]
pub fn f6_fault_plan(steps: u64) -> workloads::FaultPlan {
    use workloads::{FaultEvent, SensorFaultKind};
    workloads::FaultPlan::new(vec![
        FaultEvent::sensor_fault(
            Tick(steps / 8),
            1,
            SensorFaultKind::Noise { sigma: 1.0 },
            steps / 10,
        ),
        FaultEvent::sensor_fault(Tick(steps / 4), 0, SensorFaultKind::StuckAt, steps / 4),
        FaultEvent::sensor_fault(
            Tick(steps / 2),
            1,
            SensorFaultKind::Bias { offset: 4.0 },
            steps / 6,
        ),
        FaultEvent::sensor_fault(Tick(2 * steps / 3), 2, SensorFaultKind::Dropout, steps / 8),
        FaultEvent::sensor_fault(
            Tick(4 * steps / 5),
            0,
            SensorFaultKind::Noise { sigma: 3.0 },
            steps / 10,
        ),
    ])
}

/// One F6 replicate: three noisy sensors observe an oscillating truth
/// while the [`f6_fault_plan`] corrupts them; the fused estimate is
/// the mean of the readings each arm trusts. Metric keys: `mae`
/// (whole run), `mae_faulty` / `mae_clean` (ticks with/without an
/// active sensor fault), `quarantines`, `restores`, `degraded_ticks`.
///
/// Public so the parity tests can compare sequential and parallel
/// runs of the exact scenario.
#[must_use]
pub fn f6_scenario(guarded: bool, seeds: SeedTree, steps: u64) -> MetricSet {
    use rand::Rng as _;
    use selfaware::explain::ExplanationLog;
    use selfaware::health::SensorHealth;
    use workloads::signal::{SignalGen, SignalSpec};

    let plan = f6_fault_plan(steps);
    let mut gen = SignalGen::new(
        vec![(
            0,
            SignalSpec::Oscillation {
                center: 20.0,
                amplitude: 6.0,
                period: 300.0,
            },
        )],
        0.0,
        seeds.rng("truth"),
    );
    let mut srng = seeds.rng("sensor-noise");
    let mut frng = seeds.rng("fault-noise");
    let mut health = SensorHealth::default();
    let mut log = ExplanationLog::new(1024);
    let keys: Vec<String> = (0..F6_SENSORS).map(|i| format!("s{i}")).collect();
    let mut held = [20.0f64; F6_SENSORS];
    let mut est_prev = 20.0;
    let (mut err, mut err_faulty, mut err_clean) = (0.0f64, 0.0f64, 0.0f64);
    let (mut n_faulty, mut n_clean) = (0u64, 0u64);
    let mut degraded_ticks = 0u64;

    for t in 0..steps {
        let now = Tick(t);
        let sense_span = obs::span("f6:sense");
        let truth = gen.sample(now);
        let mut trusted: Vec<f64> = Vec::with_capacity(F6_SENSORS);
        let mut any_fault = false;
        let mut any_degraded = false;
        for i in 0..F6_SENSORS {
            let clean = truth + 0.2 * (srng.gen::<f64>() * 2.0 - 1.0);
            let fault = plan.sensor_fault_at(i, now);
            let raw = match fault {
                Some(k) => {
                    any_fault = true;
                    k.corrupt(clean, held[i], &mut frng)
                }
                None => {
                    held[i] = clean;
                    Some(clean)
                }
            };
            if guarded {
                // The previous fused estimate anchors the recovery
                // probe: a sensor leaves quarantine by agreeing with
                // the healthy consensus, not with its own stale model.
                let r = health.observe_with_reference(&keys[i], raw, Some(est_prev), now, &mut log);
                any_degraded |= r.degraded;
                if !r.degraded && !r.substituted {
                    trusted.push(r.value);
                }
            } else if let Some(x) = raw {
                trusted.push(x);
            }
        }
        drop(sense_span);
        let _decide_span = obs::span("f6:decide");
        // With every sensor distrusted (or silent), hold the last
        // estimate — the degraded-mode fallback.
        let est = if trusted.is_empty() {
            est_prev
        } else {
            trusted.iter().sum::<f64>() / trusted.len() as f64
        };
        est_prev = est;
        let e = (est - truth).abs();
        err += e;
        if any_fault {
            err_faulty += e;
            n_faulty += 1;
        } else {
            err_clean += e;
            n_clean += 1;
        }
        degraded_ticks += u64::from(any_degraded);
    }

    let mut m = MetricSet::new();
    m.set("mae", err / steps.max(1) as f64);
    m.set("mae_faulty", err_faulty / n_faulty.max(1) as f64);
    m.set("mae_clean", err_clean / n_clean.max(1) as f64);
    m.set("quarantines", health.quarantine_events() as f64);
    m.set("restores", health.restore_events() as f64);
    m.set("degraded_ticks", degraded_ticks as f64);
    // Quarantines attributed to the variance-ratio watchdog rather
    // than the residual/outlier test — the mean-reverting burst in
    // the plan is invisible to the latter.
    let variance_quarantines = log
        .iter()
        .filter(|e| {
            e.action.starts_with("quarantine:")
                && e.factors.iter().any(|f| f.name == "variance_ratio")
        })
        .count();
    m.set("variance_quarantines", variance_quarantines as f64);
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f6")),
        ("guarded", obs::Json::Bool(guarded)),
        ("metrics", metrics_json(&m)),
        ("health", health.stats_json()),
        ("explanations", log.to_json()),
    ]));
    m
}

/// F6 — sensor-fault ablation: the same faulty sensor suite fused
/// with and without the [`SensorHealth`](selfaware::health::SensorHealth)
/// monitor. Self-awareness of one's own instruments should cut the
/// error paid during fault windows without hurting clean operation.
#[must_use]
pub fn run_f6(reps: u32, steps: u64) -> Table {
    let arms = [false, true];
    let mut table = Table::new(
        format!("F6: sensor-fault ablation ({steps} ticks, {reps} reps)"),
        &[
            "fusion",
            "mae",
            "mae (fault windows)",
            "mae (clean)",
            "quarantines",
            "degraded ticks",
        ],
    );
    let aggs = Replications::new(0xF6, reps)
        .run_matrix(&arms, |&guarded, seeds| f6_scenario(guarded, seeds, steps));
    let labels: Vec<String> = arms
        .iter()
        .map(|&g| if g { "health-guarded" } else { "raw mean" }.to_string())
        .collect();
    RunTrace {
        experiment: "f6",
        seed: 0xF6,
        replicates: reps,
        steps,
        config: &format!("f6 arms={labels:?} steps={steps} sensors={F6_SENSORS}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (guarded, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            if *guarded {
                "health-guarded"
            } else {
                "raw mean"
            }
            .to_string(),
            num_ci(agg.mean("mae"), agg.ci95("mae")),
            num_ci(agg.mean("mae_faulty"), agg.ci95("mae_faulty")),
            num(agg.mean("mae_clean")),
            format!("{:.1}", agg.mean("quarantines")),
            format!("{:.0}", agg.mean("degraded_ticks")),
        ]);
    }
    table
}

/// Horizon `sas-bench run f6` uses, in ticks.
const STEPS: u64 = 6_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f6",
    has_smoke: false,
    run: |_| Output::text(run_f6(REPS, STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f6_guarded_beats_raw_in_fault_windows() {
        let a = f6_scenario(false, SeedTree::new(11), 3000);
        let b = f6_scenario(true, SeedTree::new(11), 3000);
        let raw = a.get("mae_faulty").unwrap_or(f64::NAN);
        let guarded = b.get("mae_faulty").unwrap_or(f64::NAN);
        assert!(
            guarded < raw,
            "guarded {guarded} should beat raw {raw} during faults"
        );
        assert!(b.get("quarantines").unwrap_or(0.0) >= 3.0);
        // The mean-reverting burst on sensor 1 is caught by the
        // variance-ratio watchdog specifically, and the quarantine
        // explanation cites it.
        assert!(
            b.get("variance_quarantines").unwrap_or(0.0) >= 1.0,
            "variance-ratio watchdog must fire on the mean-reverting burst"
        );
        assert_eq!(a.get("variance_quarantines"), Some(0.0));
    }

    #[test]
    fn f6_table_renders_both_arms() {
        let t = run_f6(2, 2000);
        assert_eq!(t.len(), 2);
    }
}
