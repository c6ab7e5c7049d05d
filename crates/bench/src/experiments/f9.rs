//! F9 — composed smart-city cascade. See EXPERIMENTS.md.

use super::{metrics_json, Experiment, Output, RunTrace, REPS};
use simkernel::obs;
use simkernel::table::num_ci;
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};

/// One arm of F9 — which layers of the composed smart-city stack run
/// self-aware. The cascade campaign is identical across arms (common
/// random numbers), so differences are pure policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F9Arm {
    /// Every layer on: supervised CPN routing, reliable
    /// staleness-aware comms, sensor-health quarantine, degradation
    /// ladder.
    Supervised,
    /// Fire-and-forget command plane, everything else aware.
    NaiveComms,
    /// Periodic-table routing, everything else aware.
    NaiveRouter,
    /// Raw camera readings (no quarantine), everything else aware.
    NaiveCameras,
    /// Every layer naive.
    AllNaive,
}

impl F9Arm {
    /// The five ablation arms in table order.
    #[must_use]
    pub fn all() -> Vec<F9Arm> {
        vec![
            F9Arm::Supervised,
            F9Arm::NaiveComms,
            F9Arm::NaiveRouter,
            F9Arm::NaiveCameras,
            F9Arm::AllNaive,
        ]
    }

    /// The arm's [`compose::CityPolicy`].
    #[must_use]
    pub fn policy(&self) -> compose::CityPolicy {
        match self {
            F9Arm::Supervised => compose::CityPolicy::supervised(),
            F9Arm::NaiveComms => compose::CityPolicy::naive_comms(),
            F9Arm::NaiveRouter => compose::CityPolicy::naive_router(),
            F9Arm::NaiveCameras => compose::CityPolicy::naive_cameras(),
            F9Arm::AllNaive => compose::CityPolicy::all_naive(),
        }
    }

    /// Table label (the policy's label).
    #[must_use]
    pub fn label(&self) -> String {
        self.policy().label()
    }
}

/// The F9 headline campaign: a cascading composite scaled to the
/// horizon. Zone 1's backend goes dark for the middle two fifths of
/// the run (machines 3..6 of the standard 3×3 world), overlapping the
/// flash crowd; a network partition on zone agent 1 heals *inside*
/// the outage (the satellite-2 restore-ordering case); camera 2's
/// quality sensor takes a bias shift; the routing model is scrambled
/// mid-outage; and every command-plane link runs at 10% loss.
#[must_use]
pub fn f9_campaign(seeds: &SeedTree, steps: u64) -> workloads::FaultCampaign {
    use workloads::faults::LinkModel;
    workloads::FaultCampaign::new("cascade", seeds)
        .with_loss(LinkModel::lossy(0.1))
        .zone_outage(Tick(steps * 2 / 5), 3, 3, steps * 2 / 5)
        .net_partition(steps * 2 / 5 + 10, steps / 5, vec![1])
        .fault(workloads::FaultEvent::sensor_fault(
            Tick(steps / 4),
            2,
            workloads::SensorFaultKind::Bias { offset: 0.6 },
            steps / 3,
        ))
        .corruption(
            Tick(steps / 2),
            0,
            workloads::faults::ModelCorruptionKind::WeightScramble { gain: 25.0 },
        )
}

/// One F9 replicate: the composed city under the cascade campaign.
/// Returns [`compose::run_city`]'s metric set unchanged (see its docs
/// for the key glossary). Public so the parity and property tests can
/// re-run the exact scenario.
#[must_use]
pub fn f9_scenario(arm: F9Arm, seeds: SeedTree, steps: u64) -> MetricSet {
    let city_seeds = seeds.child("city");
    let mut cfg = compose::CityConfig::standard(arm.policy(), steps, &city_seeds);
    cfg.campaign = f9_campaign(&city_seeds, steps);
    let r = compose::run_city(&cfg, &city_seeds);
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f9")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&r.metrics)),
        // The per-link expiry / retry-budget-exhaustion maps: which
        // command links died, and how the protocol found out.
        ("comms", r.comms_stats.to_json()),
        ("explanations", r.log.to_json()),
    ]));
    r.metrics
}

/// The loss grid of the F9 CPN breaking-point sweep. F8 established
/// the learned router shrugs off report loss up to 40%; this sweep
/// continues until it breaks.
#[must_use]
pub fn f9_breaking_losses() -> Vec<f64> {
    vec![0.0, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]
}

/// One replicate of the breaking-point sweep: the contested CPN
/// scenario under the *learned* router with report-channel loss.
/// Public for the parity suite.
#[must_use]
pub fn f9_breaking_scenario(loss: f64, seeds: SeedTree, steps: u64) -> MetricSet {
    use workloads::faults::{ChannelPlan, LinkModel};
    let mut cfg = cpn::CpnConfig::contested(cpn::RoutingStrategy::cpn_default(), steps);
    cfg.channel = ChannelPlan::uniform(&seeds, LinkModel::lossy(loss));
    cpn::run_cpn(&cfg, &seeds).metrics
}

/// Runs the breaking-point sweep and returns `(table, breaking_loss)`
/// where `breaking_loss` is the smallest swept report-loss rate at
/// which the learned router's mean delivery ratio falls below 95% of
/// its clean-channel value (`None` if it never does — the router's
/// robustness outlived the sweep).
#[must_use]
pub fn f9_breaking_point(reps: u32, steps: u64) -> (Table, Option<f64>) {
    let losses = f9_breaking_losses();
    let aggs = Replications::new(0xF9B, reps).run_matrix(&losses, |&loss, seeds| {
        f9_breaking_scenario(loss, seeds, steps)
    });
    let clean = aggs[0].mean("delivery_ratio");
    let mut breaking = None;
    let mut table = Table::new(
        format!("F9b: learned-router report-loss sweep ({steps} ticks, {reps} reps)"),
        &["report loss", "delivery", "utility", "vs clean"],
    );
    for (loss, agg) in losses.iter().zip(&aggs) {
        let delivery = agg.mean("delivery_ratio");
        let rel = delivery / clean.max(1e-12);
        if breaking.is_none() && *loss > 0.0 && rel < 0.95 {
            breaking = Some(*loss);
        }
        table.row_owned(vec![
            format!("{:.0}%", loss * 100.0),
            num_ci(delivery, agg.ci95("delivery_ratio")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
            format!("{:.3}", rel),
        ]);
    }
    (table, breaking)
}

/// F9 — the composed smart-city world under the cascading campaign.
/// The claim: the fully supervised, staleness-aware stack degrades
/// gracefully (sheds quality, re-homes the dead zone, throttles
/// admission) where per-layer and all-naive ablations lose service;
/// the headline metric is the utility gap between `supervised` and
/// `all-naive` under the cascade. Also answers F8's open question by
/// reporting the learned router's report-loss breaking point.
#[must_use]
pub fn run_f9(reps: u32, steps: u64) -> Table {
    let arms = F9Arm::all();
    let aggs = Replications::new(0xF9, reps)
        .run_matrix(&arms, |&arm, seeds| f9_scenario(arm, seeds, steps));
    let labels: Vec<String> = arms.iter().map(F9Arm::label).collect();
    RunTrace {
        experiment: "f9",
        seed: 0xF9,
        replicates: reps,
        steps,
        config: &format!("f9 arms={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    let mut table = Table::new(
        format!("F9: composed smart-city cascade ({steps} ticks, {reps} reps, mean±95CI)"),
        &[
            "arm",
            "on-time",
            "service",
            "coverage",
            "track err",
            "utility",
            "rehomed",
            "expired",
        ],
    );
    for (arm, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            arm.label(),
            num_ci(agg.mean("on_time_ratio"), agg.ci95("on_time_ratio")),
            num_ci(agg.mean("service_ratio"), agg.ci95("service_ratio")),
            num_ci(agg.mean("coverage"), agg.ci95("coverage")),
            num_ci(agg.mean("tracking_error"), agg.ci95("tracking_error")),
            num_ci(agg.mean("utility"), agg.ci95("utility")),
            format!("{:.0}", agg.mean("rehomed")),
            format!("{:.0}", agg.mean("comms_expired")),
        ]);
    }
    table
}

/// Horizon `sas-bench run f9` uses, in ticks; `--smoke` uses
/// `SMOKE_STEPS`.
const STEPS: u64 = 3_000;
const SMOKE_STEPS: u64 = 300;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f9",
    has_smoke: true,
    run: |smoke| {
        let steps = if smoke { SMOKE_STEPS } else { STEPS };
        let table = run_f9(REPS, steps);
        let (sweep, breaking) = f9_breaking_point(REPS, steps);
        let verdict = match breaking {
            Some(loss) => format!(
                "breaking point: learned-router delivery drops >5% below clean at {:.0}% report loss",
                loss * 100.0
            ),
            None => "breaking point: not reached — the learned router held within 5% of clean delivery across the whole sweep".to_string(),
        };
        Output::text(format!("{table}\n{sweep}\n{verdict}"))
    },
};

#[cfg(test)]
mod f9_tests {
    use super::*;

    #[test]
    fn supervised_stack_out_degrades_all_naive_under_the_cascade() {
        let steps = 1200;
        let reps = Replications::new(0xF9, 3);
        let sup = reps.run(|seeds| f9_scenario(F9Arm::Supervised, seeds, steps));
        let naive = reps.run(|seeds| f9_scenario(F9Arm::AllNaive, seeds, steps));
        assert!(
            sup.mean("utility") > naive.mean("utility"),
            "supervised utility {} must beat all-naive {}",
            sup.mean("utility"),
            naive.mean("utility")
        );
        assert!(
            sup.mean("rehomed") > 0.0,
            "the ladder's re-home rung must fire under the cascade"
        );
        assert!(
            sup.mean("comms_expired") > 0.0,
            "the dead zone must burn command-plane deliveries"
        );
    }

    #[test]
    fn f9_table_is_reproducible() {
        let a = run_f9(1, 600);
        let b = run_f9(1, 600);
        assert_eq!(a.len(), 5);
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn breaking_point_sweep_is_reproducible_and_monotone_labelled() {
        let (a, pa) = f9_breaking_point(1, 500);
        let (b, pb) = f9_breaking_point(1, 500);
        assert_eq!(format!("{a}"), format!("{b}"));
        assert_eq!(pa, pb);
        assert_eq!(a.len(), f9_breaking_losses().len());
    }
}
