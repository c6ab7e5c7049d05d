//! T1 — cloud trade-off management. See EXPERIMENTS.md.

use super::{run_cloud, Experiment, Output, CLOUD_STEPS, REPS};
use selfaware::levels::LevelSet;
use simkernel::table::{num, num_ci};
use simkernel::{Replications, Table};

fn cloud_strategies() -> Vec<cloudsim::Strategy> {
    vec![
        cloudsim::Strategy::Random,
        cloudsim::Strategy::RoundRobin,
        cloudsim::Strategy::LeastLoaded,
        cloudsim::Strategy::SelfAware {
            levels: LevelSet::full(),
        },
    ]
}

/// T1 — self-awareness improves run-time trade-off management
/// (cloud: QoS vs cost under churn and drifting demand).
#[must_use]
pub fn run_t1(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("T1: cloud trade-off management ({steps} ticks, {reps} reps, mean±95CI)"),
        &[
            "strategy",
            "completion",
            "violations",
            "p95 lat",
            "cost",
            "utility",
        ],
    );
    let arms = cloud_strategies();
    let aggs = Replications::new(0x71, reps)
        .run_matrix(&arms, |strategy, seeds| run_cloud(strategy, seeds, steps));
    for (strategy, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            strategy.label(),
            num_ci(agg.mean("completion_ratio"), agg.ci95("completion_ratio")),
            num_ci(agg.mean("violation_rate"), agg.ci95("violation_rate")),
            num(agg.mean("p95_latency")),
            num_ci(agg.mean("cost_ratio"), agg.ci95("cost_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "t1",
    has_smoke: false,
    run: |_| Output::text(run_t1(REPS, CLOUD_STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_small_self_aware_wins() {
        let t = run_t1(2, 1500);
        assert_eq!(t.len(), 4);
        // utility column is last; self-aware row is last.
        let parse = |s: &str| s.split('±').next().unwrap().parse::<f64>().unwrap();
        let sa = parse(t.cell(3, 5).unwrap());
        let random = parse(t.cell(0, 5).unwrap());
        assert!(sa > random, "self-aware {sa} vs random {random}");
    }
}
