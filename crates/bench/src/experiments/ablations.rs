//! A1–A3 — parameter ablations of the camnet, CPN and model-pool knobs. See EXPERIMENTS.md.

use super::{Experiment, Output, REPS};
use selfaware::meta::ModelPool;
use selfaware::models::ar::ArModel;
use selfaware::models::ewma::Ewma;
use selfaware::models::holt::Holt;
use simkernel::table::{num, num_ci};
use simkernel::{MetricSet, Replications, Table, Tick};

/// A1 (ablation) — the camera network's ask-threshold knob: how the
/// affinity threshold of the self-aware handover strategy trades
/// tracking quality against communication.
#[must_use]
pub fn run_a1(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("A1: camnet self-aware ask-threshold sweep ({steps} ticks, {reps} reps)"),
        &["threshold", "quality", "untracked", "msgs/tick", "utility"],
    );
    let thresholds = [0.1, 0.2, 0.25, 0.35, 0.5];
    let aggs = Replications::new(0xA1, reps).run_matrix(&thresholds, |&threshold, seeds| {
        let strategy = camnet::HandoverStrategy::SelfAware {
            threshold,
            epsilon: 0.05,
        };
        camnet::run_camnet(&camnet::CamnetConfig::standard(strategy, steps), &seeds).metrics
    });
    for (threshold, agg) in thresholds.iter().zip(&aggs) {
        table.row_owned(vec![
            format!("{threshold:.2}"),
            num_ci(agg.mean("track_quality"), agg.ci95("track_quality")),
            num(agg.mean("untracked_ratio")),
            num_ci(agg.mean("messages_per_tick"), agg.ci95("messages_per_tick")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

/// A2 (ablation) — the CPN's smart-packet ratio: how much exploration
/// traffic the network needs to keep re-planning under attack.
#[must_use]
pub fn run_a2(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("A2: cpn smart-packet ratio sweep ({steps} ticks, {reps} reps)"),
        &[
            "smart ratio",
            "delivery",
            "delay pre",
            "delay attack",
            "delay post",
        ],
    );
    let ratios = [0.0, 0.05, 0.1, 0.25, 0.5];
    let aggs = Replications::new(0xA2, reps).run_matrix(&ratios, |&smart_ratio, seeds| {
        let strategy = cpn::RoutingStrategy::Cpn {
            smart_ratio,
            epsilon: 0.1,
        };
        cpn::run_cpn(&cpn::CpnConfig::standard(strategy, steps), &seeds).metrics
    });
    for (smart_ratio, agg) in ratios.iter().zip(&aggs) {
        table.row_owned(vec![
            format!("{smart_ratio:.2}"),
            num_ci(agg.mean("delivery_ratio"), agg.ci95("delivery_ratio")),
            num(agg.mean("delay_pre")),
            num_ci(agg.mean("delay_attack"), agg.ci95("delay_attack")),
            num(agg.mean("delay_post")),
        ]);
    }
    table
}

/// A3 (ablation) — the meta model-pool's switching hysteresis
/// (`patience`): too eager thrashes on noise, too patient lags regime
/// changes.
#[must_use]
pub fn run_a3(reps: u32, steps: u64) -> Table {
    use workloads::signal::{SignalGen, SignalSpec};
    let mut table = Table::new(
        format!("A3: model-pool patience sweep ({steps} ticks, {reps} reps)"),
        &["patience", "mae", "switches"],
    );
    let patiences = [1u32, 4, 8, 32, 128];
    let aggs = Replications::new(0xA3, reps).run_matrix(&patiences, |&patience, seeds| {
        let regimes = vec![
            (0, SignalSpec::Flat { level: 10.0 }),
            (
                steps / 4,
                SignalSpec::Trend {
                    start: 10.0,
                    slope: 0.3,
                },
            ),
            (
                steps / 2,
                SignalSpec::Oscillation {
                    center: 40.0,
                    amplitude: 8.0,
                    period: 40.0,
                },
            ),
            (3 * steps / 4, SignalSpec::Flat { level: 25.0 }),
        ];
        let mut gen = SignalGen::new(regimes, 0.5, seeds.rng("signal"));
        let mut pool = ModelPool::new(0.1, patience);
        pool.add("ewma", Box::new(Ewma::new(0.3)));
        pool.add("holt", Box::new(Holt::new(0.5, 0.3)));
        pool.add("ar", Box::new(ArModel::new(2, 64)));
        let mut err = 0.0;
        let mut n = 0u64;
        for t in 0..steps {
            let x = gen.sample(Tick(t));
            if let Some(p) = pool.forecast() {
                err += (p - x).abs();
                n += 1;
            }
            pool.observe(x);
        }
        let mut m = MetricSet::new();
        m.set("mae", err / n.max(1) as f64);
        m.set("switches", f64::from(pool.switches()));
        m
    });
    for (patience, agg) in patiences.iter().zip(&aggs) {
        table.row_owned(vec![
            patience.to_string(),
            num_ci(agg.mean("mae"), agg.ci95("mae")),
            format!("{:.1}", agg.mean("switches")),
        ]);
    }
    table
}

/// Horizons `sas-bench run a1`, `a2` and `a3` use, in ticks.
const A1_STEPS: u64 = 6_000;
const A2_STEPS: u64 = 3_000;
const A3_STEPS: u64 = 4_000;

pub(super) const A1: Experiment = Experiment {
    id: "a1",
    has_smoke: false,
    run: |_| Output::text(run_a1(REPS, A1_STEPS)),
};
pub(super) const A2: Experiment = Experiment {
    id: "a2",
    has_smoke: false,
    run: |_| Output::text(run_a2(REPS, A2_STEPS)),
};
pub(super) const A3: Experiment = Experiment {
    id: "a3",
    has_smoke: false,
    run: |_| Output::text(run_a3(REPS, A3_STEPS)),
};

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn a1_threshold_monotone_in_messages() {
        let t = run_a1(2, 1500);
        assert_eq!(t.len(), 5);
        // Higher threshold → fewer messages (weak monotone check on
        // the extremes).
        let parse = |s: &str| s.split('±').next().unwrap().parse::<f64>().unwrap();
        let loose = parse(t.cell(0, 3).unwrap());
        let tight = parse(t.cell(4, 3).unwrap());
        assert!(tight < loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn a2_runs() {
        let t = run_a2(2, 1200);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn a3_extremes_are_worse_or_equal() {
        let t = run_a3(3, 2000);
        assert_eq!(t.len(), 5);
        // Eager switching (patience 1) must switch much more often
        // than patient (128).
        let eager: f64 = t.cell(0, 2).unwrap().parse().unwrap();
        let patient: f64 = t.cell(4, 2).unwrap().parse().unwrap();
        assert!(eager > patient, "eager {eager} vs patient {patient}");
    }
}
