//! F4 — dependence on a-priori models. See EXPERIMENTS.md.

use super::{Experiment, Output, REPS};
use selfaware::levels::LevelSet;
use simkernel::series::render_multi;
use simkernel::table::{num, num_ci};
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick, TimeSeries};
use std::fmt::Write as _;

/// F4 — dependence on a-priori models: design-time-ranked dispatch vs
/// self-aware dispatch as the deployed world diverges from the
/// designer's beliefs.
#[must_use]
pub fn run_f4(reps: u32, steps: u64) -> String {
    let mut static_series = TimeSeries::new("static-ranked");
    let mut aware_series = TimeSeries::new("self-aware");
    let divergences = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut out = String::new();
    let mut table = Table::new(
        format!("F4: utility vs design-divergence ({steps} ticks, {reps} reps)"),
        &["divergence", "static-ranked", "self-aware", "gap"],
    );
    let aggs = Replications::new(0xF4, reps).run_matrix(&divergences, |&delta, seeds| {
        // Design-time belief: the spec the designer was given.
        let designed: Vec<cloudsim::NodeSpec> = (0..12)
            .map(|j| {
                let capacity = 1.0 + (j % 4) as f64;
                if j % 3 == 0 {
                    cloudsim::NodeSpec::reliable(capacity)
                } else {
                    cloudsim::NodeSpec::volunteer(capacity)
                }
            })
            .collect();
        // Reality: capacities rotated by a delta-dependent amount —
        // the machines that actually showed up are not the ones in
        // the design document.
        let shift = (delta * 6.0_f64).round() as usize;
        let actual: Vec<cloudsim::NodeSpec> = (0..12).map(|j| designed[(j + shift) % 12]).collect();
        let believed: Vec<f64> = designed.iter().map(|s| s.capacity).collect();

        let run = |strategy: cloudsim::Strategy, seeds: &SeedTree| {
            let mut cfg = cloudsim::ScenarioConfig::standard(strategy, steps, seeds);
            cfg.specs = actual.clone();
            cloudsim::run_scenario(&cfg, seeds).metrics
        };
        let stat = run(
            cloudsim::Strategy::StaticRanked {
                believed_capacity: believed,
            },
            &seeds,
        );
        let aware = run(
            cloudsim::Strategy::SelfAware {
                levels: LevelSet::full(),
            },
            &seeds,
        );
        let mut m = MetricSet::new();
        m.set("static", stat.get("utility").unwrap_or(0.0));
        m.set("aware", aware.get("utility").unwrap_or(0.0));
        m
    });
    for (i, (&delta, agg)) in divergences.iter().zip(&aggs).enumerate() {
        let s = agg.mean("static");
        let a = agg.mean("aware");
        table.row_owned(vec![
            format!("{delta:.2}"),
            num_ci(s, agg.ci95("static")),
            num_ci(a, agg.ci95("aware")),
            num(a - s),
        ]);
        static_series.push(Tick(i as u64), s);
        aware_series.push(Tick(i as u64), a);
    }
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "utility across the divergence sweep:");
    out.push_str(&render_multi(&[&static_series, &aware_series], 5));
    out
}

/// Horizon `sas-bench run f4` uses, in ticks.
const STEPS: u64 = 4_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f4",
    has_smoke: false,
    run: |_| Output::text(run_f4(REPS, STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f4_gap_grows_with_divergence() {
        let s = run_f4(2, 1500);
        assert!(s.contains("divergence"));
        assert!(s.contains("self-aware"));
    }
}
