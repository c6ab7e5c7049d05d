//! T3 — camera handover strategies. See EXPERIMENTS.md.

use super::{camnet_strategies, Experiment, Output, REPS};
use simkernel::table::{num, num_ci};
use simkernel::{Replications, Table};

/// T3 — camera-network handover: tracking quality vs communication.
#[must_use]
pub fn run_t3(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("T3: camera handover strategies ({steps} ticks, {reps} reps)"),
        &[
            "strategy",
            "quality",
            "untracked",
            "msgs/tick",
            "ask ratio",
            "diversity",
            "utility",
        ],
    );
    let arms = camnet_strategies();
    let aggs = Replications::new(0x73, reps).run_matrix(&arms, |&strategy, seeds| {
        camnet::run_camnet(&camnet::CamnetConfig::standard(strategy, steps), &seeds).metrics
    });
    for (strategy, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            strategy.label(),
            num_ci(agg.mean("track_quality"), agg.ci95("track_quality")),
            num(agg.mean("untracked_ratio")),
            num_ci(agg.mean("messages_per_tick"), agg.ci95("messages_per_tick")),
            num(agg.mean("ask_ratio")),
            num(agg.mean("heterogeneity_final")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

/// Horizon `sas-bench run t3` uses, in ticks.
const STEPS: u64 = 6_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "t3",
    has_smoke: false,
    run: |_| Output::text(run_t3(REPS, STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3_small_runs() {
        let t = run_t3(2, 2000);
        assert_eq!(t.len(), 4);
    }
}
