//! F8 — unreliable communications. See EXPERIMENTS.md.

use super::{metrics_json, Experiment, Output, RunTrace, REPS};
use selfaware::levels::{Level, LevelSet};
use simkernel::obs;
use simkernel::table::num_ci;
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};

/// One arm of the F8 unreliable-communications sweep: a per-link loss
/// rate, an optional partition length, and the comms policy under
/// test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F8Arm {
    /// Per-message drop probability applied to every comms link.
    pub loss: f64,
    /// Partition length in ticks (0 = no partition). The partition
    /// cuts a fixed node group per substrate: cameras `[0, 1, 4, 5]`
    /// and the CPN's attacked routers from `steps/3`, and cloud zone
    /// agent 2 across the demand spike.
    pub partition: u64,
    /// Fire-and-forget comms instead of the reliable
    /// staleness-weighted protocol.
    pub naive: bool,
}

impl F8Arm {
    /// Short table label, e.g. `20% loss, part 750, staleness-aware`.
    #[must_use]
    pub fn label(&self) -> String {
        let policy = if self.naive {
            "naive"
        } else {
            "staleness-aware"
        };
        if self.partition > 0 {
            format!(
                "{:.0}% loss, part {}, {policy}",
                self.loss * 100.0,
                self.partition
            )
        } else {
            format!("{:.0}% loss, {policy}", self.loss * 100.0)
        }
    }

    fn policy(&self) -> selfaware::comms::CommsPolicy {
        if self.naive {
            selfaware::comms::CommsPolicy::Naive
        } else {
            selfaware::comms::CommsPolicy::default()
        }
    }
}

/// The F8 cloud configuration: an 18-node pool driven through a
/// 3-zone command plane by a stimulus+time controller, with flat
/// demand and a sustained ×3 spike in the last quarter. Goal-level
/// safety adaptation is deliberately absent: it would partially mask
/// command loss by re-renting reachable zones whenever violations
/// rise, and F8 measures the command plane itself. The optional
/// partition cuts zone agent 2 just before the spike so the
/// controller must re-home its capacity elsewhere — or fail to.
///
/// Public so the parity and property tests can re-run the exact
/// scenario.
#[must_use]
pub fn f8_cloud_cfg(arm: F8Arm, seeds: &SeedTree, steps: u64) -> cloudsim::ScenarioConfig {
    use workloads::faults::{ChannelPlan, LinkModel};
    let mut cfg = cloudsim::ScenarioConfig::standard(
        cloudsim::Strategy::SelfAware {
            levels: LevelSet::new().with(Level::Stimulus).with(Level::Time),
        },
        steps,
        seeds,
    );
    cfg.specs = (0..18)
        .map(|i| {
            let capacity = 1.0 + (i % 4) as f64;
            if i % 3 == 0 {
                cloudsim::NodeSpec::reliable(capacity)
            } else {
                cloudsim::NodeSpec::volunteer(capacity)
            }
        })
        .collect();
    cfg.base_rate = 2.2;
    cfg.amplitude = 0.2;
    cfg.schedule = workloads::Schedule::none()
        .and(workloads::Disturbance::scale(Tick(steps / 2), 1.4))
        .and(workloads::Disturbance::spike(
            Tick(steps * 3 / 4),
            3.0,
            steps / 5,
        ));
    let mut plan = ChannelPlan::uniform(seeds, LinkModel::lossy(arm.loss));
    if arm.partition > 0 {
        plan = plan.with_partition(steps * 3 / 4, arm.partition, vec![2]);
    }
    cfg.channel = plan;
    cfg.comms = arm.policy();
    cfg.command_plane = cloudsim::CommandPlane::Zoned { zones: 3 };
    cfg
}

/// One F8 replicate: the same loss/partition/policy arm applied to
/// all three substrates, each on its own seed subtree. Metric keys:
///
/// * `cam_quality` / `cam_untracked` — camera-network tracking under
///   lossy auction and handover messaging;
/// * `cpn_delivery` / `cpn_utility` — packet delivery when the
///   smart-router control plane is lossy;
/// * `cloud_utility` / `cloud_violations` — autoscaling through the
///   zoned command plane of [`f8_cloud_cfg`];
/// * `comms_sent` / `comms_retries` / `comms_expired` /
///   `comms_partition_hits` — protocol counters summed across the
///   three substrates.
///
/// Public so the parity and property tests can compare sequential and
/// parallel runs of the exact scenario.
#[must_use]
pub fn f8_scenario(arm: F8Arm, seeds: SeedTree, steps: u64) -> MetricSet {
    use workloads::faults::{ChannelPlan, LinkModel};

    let cam_seeds = seeds.child("camnet");
    let mut cam_cfg =
        camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), steps);
    cam_cfg.channel = ChannelPlan::uniform(&cam_seeds, LinkModel::lossy(arm.loss));
    if arm.partition > 0 {
        cam_cfg.channel =
            cam_cfg
                .channel
                .with_partition(steps / 3, arm.partition, vec![0, 1, 4, 5]);
    }
    cam_cfg.comms = arm.policy();
    let cam = camnet::run_camnet(&cam_cfg, &cam_seeds);

    // The packet network runs the periodic table router on the
    // contested (moving-flood) scenario: its only adaptivity is the
    // communicated queue state, so this is the strategy where channel
    // quality is decisive. (The CPN learner adapts from its own
    // packets' measured delays and shrugs off report loss.) The
    // partition silences the flood-ingress routers 7 and 13, whose
    // reports carry the congestion signal.
    let cpn_seeds = seeds.child("cpn");
    let mut cpn_cfg =
        cpn::CpnConfig::contested(cpn::RoutingStrategy::Periodic { period: 50 }, steps);
    cpn_cfg.channel = ChannelPlan::uniform(&cpn_seeds, LinkModel::lossy(arm.loss));
    if arm.partition > 0 {
        let (from, _) = cpn::CpnConfig::attack_window(steps);
        cpn_cfg.channel = cpn_cfg
            .channel
            .with_partition(from.value(), arm.partition, vec![7, 13]);
    }
    cpn_cfg.comms = arm.policy();
    let net = cpn::run_cpn(&cpn_cfg, &cpn_seeds);

    let cloud_seeds = seeds.child("cloud");
    let cloud = cloudsim::run_scenario(&f8_cloud_cfg(arm, &cloud_seeds, steps), &cloud_seeds);

    let mut m = MetricSet::new();
    m.set(
        "cam_quality",
        cam.metrics.get("track_quality").unwrap_or(0.0),
    );
    m.set(
        "cam_untracked",
        cam.metrics.get("untracked_ratio").unwrap_or(1.0),
    );
    m.set(
        "cpn_delivery",
        net.metrics.get("delivery_ratio").unwrap_or(0.0),
    );
    m.set("cpn_utility", net.metrics.get("utility").unwrap_or(0.0));
    m.set("cloud_utility", cloud.metrics.get("utility").unwrap_or(0.0));
    m.set(
        "cloud_violations",
        cloud.metrics.get("violation_rate").unwrap_or(1.0),
    );
    for key in [
        "comms_sent",
        "comms_retries",
        "comms_expired",
        "comms_partition_hits",
    ] {
        m.set(
            key,
            cam.metrics.get(key).unwrap_or(0.0)
                + net.metrics.get(key).unwrap_or(0.0)
                + cloud.metrics.get(key).unwrap_or(0.0),
        );
    }
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f8")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&m)),
        (
            "explanations",
            obs::Json::obj([
                ("camnet", cam.comms_log.to_json()),
                ("cpn", net.comms_log.to_json()),
                ("cloud", cloud.comms_log.to_json()),
            ]),
        ),
    ]));
    m
}

/// The F8 arm grid: a loss sweep at both comms policies, plus two
/// partition lengths riding on 20% loss.
#[must_use]
fn f8_arms() -> Vec<F8Arm> {
    let mut arms = Vec::new();
    for loss in [0.0, 0.1, 0.2, 0.3, 0.4] {
        for naive in [true, false] {
            arms.push(F8Arm {
                loss,
                partition: 0,
                naive,
            });
        }
    }
    for partition in [300, 750] {
        for naive in [true, false] {
            arms.push(F8Arm {
                loss: 0.2,
                partition,
                naive,
            });
        }
    }
    arms
}

/// F8 — collective self-awareness under unreliable communications.
/// Sweeps per-link loss (0–40%) and partition length across all three
/// substrates, comparing naive fire-and-forget messaging against the
/// reliable staleness-weighted protocol. The claim: staleness-aware
/// comms hold near their clean-channel quality where naive messaging
/// collapses, and the recovery work (retries, expiries, partition
/// hits) is visible in the explanation log.
#[must_use]
pub fn run_f8(reps: u32, steps: u64) -> Table {
    let arms = f8_arms();
    let mut table = Table::new(
        format!("F8: unreliable communications ({steps} ticks, {reps} reps, mean±95CI)"),
        &[
            "arm",
            "cam quality",
            "cpn delivery",
            "cloud utility",
            "retries",
            "expired",
            "part hits",
        ],
    );
    let aggs = Replications::new(0xF8, reps)
        .run_matrix(&arms, |&arm, seeds| f8_scenario(arm, seeds, steps));
    let labels: Vec<String> = arms.iter().map(F8Arm::label).collect();
    RunTrace {
        experiment: "f8",
        seed: 0xF8,
        replicates: reps,
        steps,
        config: &format!("f8 arms={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();
    for (arm, agg) in arms.iter().zip(&aggs) {
        table.row_owned(vec![
            arm.label(),
            num_ci(agg.mean("cam_quality"), agg.ci95("cam_quality")),
            num_ci(agg.mean("cpn_delivery"), agg.ci95("cpn_delivery")),
            num_ci(agg.mean("cloud_utility"), agg.ci95("cloud_utility")),
            format!("{:.0}", agg.mean("comms_retries")),
            format!("{:.0}", agg.mean("comms_expired")),
            format!("{:.0}", agg.mean("comms_partition_hits")),
        ]);
    }
    table
}

/// Horizon `sas-bench run f8` uses, in ticks; `--smoke` uses
/// `SMOKE_STEPS`.
const STEPS: u64 = 3_000;
const SMOKE_STEPS: u64 = 600;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f8",
    has_smoke: true,
    run: |smoke| Output::text(run_f8(REPS, if smoke { SMOKE_STEPS } else { STEPS })),
};

#[cfg(test)]
mod f8_tests {
    use super::*;

    #[test]
    fn staleness_aware_holds_where_naive_collapses() {
        let steps = 3000;
        let reps = Replications::new(0xF8, 3);
        let arm = |naive| F8Arm {
            loss: 0.25,
            partition: 750,
            naive,
        };
        let naive = reps.run(|seeds| f8_scenario(arm(true), seeds, steps));
        let aware = reps.run(|seeds| f8_scenario(arm(false), seeds, steps));
        assert!(
            aware.mean("cam_untracked") < naive.mean("cam_untracked"),
            "camnet: aware untracked {} must beat naive {}",
            aware.mean("cam_untracked"),
            naive.mean("cam_untracked")
        );
        assert!(
            aware.mean("cpn_utility") > naive.mean("cpn_utility"),
            "cpn: aware utility {} must beat naive {}",
            aware.mean("cpn_utility"),
            naive.mean("cpn_utility")
        );
        // The cloud signal lives in the spike window only, so
        // per-replicate wins are the robust comparison (churn noise
        // dominates whole-run means at this replication count).
        let mut cloud_wins = 0;
        for k in 0..3 {
            let n = f8_scenario(arm(true), reps.seeds_for(k), steps);
            let a = f8_scenario(arm(false), reps.seeds_for(k), steps);
            if a.get("cloud_utility") > n.get("cloud_utility") {
                cloud_wins += 1;
            }
        }
        assert!(
            cloud_wins >= 2,
            "cloud: aware should out-schedule naive on most replicates ({cloud_wins}/3)"
        );
        assert!(
            aware.mean("comms_retries") > 0.0 && aware.mean("comms_partition_hits") > 0.0,
            "the recovery work must be visible in the counters"
        );
    }

    #[test]
    fn f8_recovery_work_reaches_the_explanation_log() {
        let arm = F8Arm {
            loss: 0.2,
            partition: 300,
            naive: false,
        };
        let seeds = SeedTree::new(0xF8);
        let m = f8_scenario(arm, seeds.child("probe"), 1500);
        assert!(m.get("comms_retries").unwrap() > 0.0);
        assert!(m.get("comms_partition_hits").unwrap() > 0.0);
        let cloud_seeds = seeds.child("probe").child("cloud");
        let r = cloudsim::run_scenario(&f8_cloud_cfg(arm, &cloud_seeds, 1500), &cloud_seeds);
        assert!(
            !r.comms_log.find_by_action("comms:retry").is_empty(),
            "retries must be explained"
        );
    }

    #[test]
    fn f8_table_is_reproducible() {
        let a = run_f8(1, 900);
        let b = run_f8(1, 900);
        assert_eq!(a.len(), 14);
        assert_eq!(format!("{a}"), format!("{b}"));
    }
}
