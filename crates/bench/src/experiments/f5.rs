//! F5 — camera-network outage recovery. See EXPERIMENTS.md.

use super::{metrics_json, Experiment, Output, RunTrace, REPS};
use simkernel::obs;
use simkernel::table::{num, num_ci};
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};

/// Cameras taken down by the F5 outage: the centre block of the
/// standard 4×4 grid, which carries the most handover traffic.
pub const F5_OUTAGE_CAMERAS: [usize; 4] = [5, 6, 9, 10];

/// The F5 fault plan: the grid-centre cameras fail together at
/// `steps/3` and reboot at `2*steps/3`.
#[must_use]
pub fn f5_fault_plan(steps: u64) -> workloads::FaultPlan {
    let fail = Tick(steps / 3);
    let recover = Tick(2 * steps / 3);
    let mut events = Vec::new();
    for &c in &F5_OUTAGE_CAMERAS {
        events.push(workloads::FaultEvent::camera_fail(fail, c));
        events.push(workloads::FaultEvent::camera_recover(recover, c));
    }
    workloads::FaultPlan::new(events)
}

/// One F5 replicate: the standard camera network hit by the
/// grid-centre outage. Metric keys:
///
/// * `quality` — whole-run mean tracking quality;
/// * `pre_quality` — mean windowed quality before the outage;
/// * `recovery_ticks` — ticks after reboot until windowed quality
///   first returns to 95% of `pre_quality` (censored at end-of-run);
/// * `degradation_area` — integral of quality lost vs `pre_quality`
///   from outage onset onwards (quality-ticks).
///
/// Public so the parity tests can compare sequential and parallel
/// runs of the exact scenario.
#[must_use]
pub fn f5_scenario(strategy: &camnet::HandoverStrategy, seeds: SeedTree, steps: u64) -> MetricSet {
    let fail_at = steps / 3;
    let recover_at = 2 * steps / 3;
    let mut cfg = camnet::CamnetConfig::standard(*strategy, steps);
    cfg.faults = f5_fault_plan(steps);
    let result = camnet::run_camnet(&cfg, &seeds);

    let pts = result.quality.points();
    let window: u64 = 50; // camnet samples quality every 50 ticks
    let pre: Vec<f64> = pts
        .iter()
        .filter(|&&(t, _)| t < fail_at)
        .map(|&(_, q)| q)
        .collect();

    let mut m = MetricSet::new();
    m.set(
        "quality",
        result.metrics.get("track_quality").unwrap_or(0.0),
    );
    // A horizon too short to yield a pre-fault quality sample (camnet
    // samples every 50 ticks, so `steps / 3 <= 50`) has no baseline.
    // Dividing by `pre.len().max(1)` here used to report
    // `pre_quality = 0.0`, which makes the recovery predicate
    // `q >= 0.95 * pre_quality` trivially true (instant "recovery")
    // and zeroes the degradation area. Flag the replicate and omit
    // the derived metrics rather than reporting vacuous zeros.
    if pre.is_empty() {
        m.set("pre_window_empty", 1.0);
    } else {
        let pre_quality = pre.iter().sum::<f64>() / pre.len() as f64;
        let recovery_ticks = pts
            .iter()
            .find(|&&(t, q)| t >= recover_at && q >= 0.95 * pre_quality)
            .map_or(steps.saturating_sub(recover_at), |&(t, _)| t - recover_at);
        let degradation_area: f64 = pts
            .iter()
            .filter(|&&(t, _)| t >= fail_at)
            .map(|&(_, q)| (pre_quality - q).max(0.0) * window as f64)
            .sum();
        m.set("pre_window_empty", 0.0);
        m.set("pre_quality", pre_quality);
        m.set("recovery_ticks", recovery_ticks as f64);
        m.set("degradation_area", degradation_area);
    }
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f5")),
        ("metrics", metrics_json(&m)),
        ("explanations", result.comms_log.to_json()),
    ]));
    m
}

/// F5 — graceful degradation under a camera outage: how fast each
/// handover strategy re-forms coalitions after the grid-centre
/// cameras fail, and how much tracking quality the outage costs.
#[must_use]
pub fn run_f5(reps: u32, steps: u64) -> Table {
    let arms = vec![
        camnet::HandoverStrategy::Broadcast,
        camnet::HandoverStrategy::Static { k: 3 },
        camnet::HandoverStrategy::self_aware_default(),
    ];
    let mut table = Table::new(
        format!("F5: camnet outage recovery ({steps} ticks, 4-camera outage, {reps} reps)"),
        &[
            "strategy",
            "quality",
            "pre-fault",
            "recovery ticks",
            "degradation area",
        ],
    );
    let aggs = Replications::new(0xF5, reps)
        .run_matrix(&arms, |strategy, seeds| f5_scenario(strategy, seeds, steps));
    let labels: Vec<String> = arms.iter().map(camnet::HandoverStrategy::label).collect();
    RunTrace {
        experiment: "f5",
        seed: 0xF5,
        replicates: reps,
        steps,
        config: &format!("f5 arms={labels:?} steps={steps} outage=grid-centre"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (strategy, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            strategy.label(),
            num_ci(agg.mean("quality"), agg.ci95("quality")),
            num(agg.mean("pre_quality")),
            format!("{:.0}", agg.mean("recovery_ticks")),
            num_ci(agg.mean("degradation_area"), agg.ci95("degradation_area")),
        ]);
    }
    table
}

/// Horizon `sas-bench run f5` uses, in ticks.
const STEPS: u64 = 6_000;
/// Horizon and replicates of `sas-bench run f5 --smoke`.
const SMOKE_STEPS: u64 = 900;
const SMOKE_REPS: u32 = 2;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f5",
    has_smoke: true,
    run: |smoke| {
        Output::text(if smoke {
            run_f5(SMOKE_REPS, SMOKE_STEPS)
        } else {
            run_f5(REPS, STEPS)
        })
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f5_reports_recovery_and_degradation() {
        let t = run_f5(2, 1500);
        assert_eq!(t.len(), 3);
        for row in 0..3 {
            let area: f64 = t
                .cell(row, 4)
                .unwrap()
                .split('±')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(area >= 0.0);
        }
    }

    #[test]
    fn f5_scenario_degrades_during_outage() {
        let m = f5_scenario(&camnet::HandoverStrategy::Broadcast, SeedTree::new(7), 1800);
        assert!(m.get("pre_quality").unwrap_or(0.0) > 0.3);
        assert!(m.get("degradation_area").unwrap_or(-1.0) >= 0.0);
    }

    #[test]
    fn f5_empty_pre_window_is_flagged_not_zeroed() {
        // `steps < 3` puts the outage at tick 0, so no quality sample
        // can precede it. The scenario used to divide by
        // `pre.len().max(1)` and report `pre_quality = 0.0`, which
        // makes the recovery predicate `q >= 0.95 * pre_quality`
        // trivially true (`recovery_ticks = 0`) and zeroes the
        // degradation area — silently optimistic nonsense. Now the
        // replicate is flagged and the derived metrics are omitted.
        for steps in [1u64, 2] {
            let m = f5_scenario(
                &camnet::HandoverStrategy::Broadcast,
                SeedTree::new(1),
                steps,
            );
            assert_eq!(m.get("pre_window_empty"), Some(1.0));
            assert_eq!(m.get("pre_quality"), None);
            assert_eq!(m.get("recovery_ticks"), None);
            assert_eq!(m.get("degradation_area"), None);
        }
        // A usable horizon still reports the full metric set.
        let m = f5_scenario(&camnet::HandoverStrategy::Broadcast, SeedTree::new(1), 300);
        assert_eq!(m.get("pre_window_empty"), Some(0.0));
        assert!(m.get("pre_quality").is_some());
        assert!(m.get("recovery_ticks").is_some());
        assert!(m.get("degradation_area").is_some());
    }
}
