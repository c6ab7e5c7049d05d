//! T2 — level-of-self-awareness ablation. See EXPERIMENTS.md.

use super::{run_cloud, Experiment, Output, CLOUD_STEPS, REPS};
use selfaware::levels::{Level, LevelSet};
use simkernel::table::num_ci;
use simkernel::{Replications, Table};

/// T2 — ablation over the levels of self-awareness (cloud scenario).
#[must_use]
pub fn run_t2(reps: u32, steps: u64) -> Table {
    let ladder: Vec<(&str, LevelSet)> = vec![
        ("none (pre-self-aware)", LevelSet::new()),
        ("+stimulus", LevelSet::new().with(Level::Stimulus)),
        (
            "+time",
            LevelSet::new().with(Level::Stimulus).with(Level::Time),
        ),
        (
            "+goal",
            LevelSet::new()
                .with(Level::Stimulus)
                .with(Level::Time)
                .with(Level::Goal),
        ),
        ("full (+meta)", LevelSet::full()),
    ];
    let mut table = Table::new(
        format!("T2: level-of-self-awareness ablation ({steps} ticks, {reps} reps)"),
        &["levels", "completion", "violations", "cost", "utility"],
    );
    let aggs = Replications::new(0x72, reps).run_matrix(&ladder, |&(_, levels), seeds| {
        let strategy = cloudsim::Strategy::SelfAware { levels };
        run_cloud(&strategy, seeds, steps)
    });
    for ((name, _), agg) in ladder.iter().zip(&aggs) {
        table.row_owned(vec![
            (*name).to_string(),
            num_ci(agg.mean("completion_ratio"), agg.ci95("completion_ratio")),
            num_ci(agg.mean("violation_rate"), agg.ci95("violation_rate")),
            num_ci(agg.mean("cost_ratio"), agg.ci95("cost_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "t2",
    has_smoke: false,
    run: |_| Output::text(run_t2(REPS, CLOUD_STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t2_small_runs() {
        let t = run_t2(2, 1200);
        assert_eq!(t.len(), 5);
        let parse = |s: &str| s.split('±').next().unwrap().parse::<f64>().unwrap();
        let none = parse(t.cell(0, 4).unwrap());
        let full = parse(t.cell(4, 4).unwrap());
        assert!(full > none, "full stack {full} should beat none {none}");
    }
}
