//! F1 — emergent camera-policy heterogeneity. See EXPERIMENTS.md.

use super::{camnet_strategies, Experiment, Output};
use simkernel::series::render_multi;
use simkernel::{par_map, SeedTree, TimeSeries};
use std::fmt::Write as _;

/// F1 — emergent heterogeneity: policy divergence over time per
/// strategy (single representative seed; the divergence trajectory is
/// the figure).
#[must_use]
pub fn run_f1(steps: u64) -> String {
    let strategies = camnet_strategies();
    let series: Vec<TimeSeries> = par_map(&strategies, |&strategy| {
        camnet::run_camnet(
            &camnet::CamnetConfig::standard(strategy, steps),
            &SeedTree::new(0xF1),
        )
        .heterogeneity
    });
    let refs: Vec<&TimeSeries> = series.iter().collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F1: camera policy divergence over time ({steps} ticks, seed 0xF1)"
    );
    let _ = writeln!(
        out,
        "(broadcast stays homogeneous; smooth/static heterogeneity is designed-in and flat;\n\
         the self-aware network's heterogeneity *emerges* and grows)"
    );
    out.push_str(&render_multi(&refs, 24));
    out
}

/// Horizon `sas-bench run f1` uses, in ticks.
const STEPS: u64 = 6_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f1",
    has_smoke: false,
    run: |_| Output::text(run_f1(STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_renders() {
        let s = run_f1(2000);
        assert!(s.contains("self-aware"));
        assert!(s.contains("broadcast"));
        assert!(s.contains("scale:"));
    }
}
