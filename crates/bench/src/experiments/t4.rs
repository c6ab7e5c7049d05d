//! T4 — heterogeneous multicore scheduling. See EXPERIMENTS.md.

use super::{Experiment, Output, REPS};
use simkernel::table::{num, num_ci};
use simkernel::{Replications, Table};

/// T4 — heterogeneous multicore scheduling: throughput vs energy vs
/// thermal stress under a phase-switching mix.
#[must_use]
pub fn run_t4(reps: u32, steps: u64) -> Table {
    let mut table = Table::new(
        format!("T4: multicore schedulers ({steps} ticks, {reps} reps)"),
        &[
            "scheduler",
            "completion",
            "mean lat",
            "miss rate",
            "energy/task",
            "throttle",
            "utility",
        ],
    );
    let schedulers = [
        multicore::Scheduler::StaticPin,
        multicore::Scheduler::Greedy,
        multicore::Scheduler::SelfAware,
    ];
    let aggs = Replications::new(0x74, reps).run_matrix(&schedulers, |&scheduler, seeds| {
        multicore::run_multicore(
            &multicore::MulticoreConfig::standard(scheduler, steps),
            &seeds,
        )
        .metrics
    });
    for (scheduler, agg) in schedulers.iter().zip(&aggs) {
        table.row_owned(vec![
            scheduler.label().to_string(),
            num_ci(agg.mean("completion_ratio"), agg.ci95("completion_ratio")),
            num(agg.mean("mean_latency")),
            num_ci(
                agg.mean("deadline_miss_rate"),
                agg.ci95("deadline_miss_rate"),
            ),
            num_ci(agg.mean("energy_per_task"), agg.ci95("energy_per_task")),
            num(agg.mean("throttle_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
        ]);
    }
    table
}

/// Horizon `sas-bench run t4` uses, in ticks.
const STEPS: u64 = 3_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "t4",
    has_smoke: false,
    run: |_| Output::text(run_t4(REPS, STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_small_runs() {
        let t = run_t4(2, 1500);
        assert_eq!(t.len(), 3);
    }
}
