//! F2 — routing under DoS. See EXPERIMENTS.md.

use super::{Experiment, Output};
use simkernel::series::render_multi;
use simkernel::table::num;
use simkernel::{par_map, SeedTree, Table, TimeSeries};
use std::fmt::Write as _;

/// F2 — routing under DoS: delay time-series and per-phase means.
#[must_use]
pub fn run_f2(steps: u64) -> String {
    let strategies = [
        cpn::RoutingStrategy::StaticShortest,
        cpn::RoutingStrategy::Periodic { period: 50 },
        cpn::RoutingStrategy::cpn_default(),
    ];
    let (from, to) = cpn::CpnConfig::attack_window(steps);
    let mut out = String::new();
    let mut table = Table::new(
        format!("F2: routing under DoS (attack {from}..{to}, {steps} ticks)"),
        &[
            "strategy",
            "delivery",
            "delay pre",
            "delay attack",
            "delay post",
        ],
    );
    let results = par_map(&strategies, |&strategy| {
        cpn::run_cpn(
            &cpn::CpnConfig::standard(strategy, steps),
            &SeedTree::new(0xF2),
        )
    });
    for (strategy, result) in strategies.iter().zip(&results) {
        let m = &result.metrics;
        table.row_owned(vec![
            strategy.label(),
            num(m.get("delivery_ratio").unwrap_or(0.0)),
            num(m.get("delay_pre").unwrap_or(0.0)),
            num(m.get("delay_attack").unwrap_or(0.0)),
            num(m.get("delay_post").unwrap_or(0.0)),
        ]);
    }
    let _ = writeln!(out, "{table}");
    let refs: Vec<&TimeSeries> = results.iter().map(|r| &r.delay).collect();
    out.push_str(&render_multi(&refs, 30));
    out
}

/// Horizon `sas-bench run f2` uses, in ticks.
const STEPS: u64 = 3_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f2",
    has_smoke: false,
    run: |_| Output::text(run_f2(STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_cpn_wins_attack_phase() {
        let s = run_f2(1800);
        assert!(s.contains("cpn"));
        assert!(s.contains("static-shortest"));
    }
}
