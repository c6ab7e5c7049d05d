//! Bit-identity pins for the supervised and unsupervised arms of the
//! camnet, cloudsim and multicore substrates under model corruption.
//!
//! Each run injects one `NanPoison`, one `WeightScramble` and one
//! `StateFreeze` into the substrate's learned model. The digest covers
//! the run's whole `MetricSet` (exact bit patterns), so a change to
//! how a substrate holds, corrupts, freezes, checkpoints or rolls back
//! its model fails here even where the qualitative tests still pass.

use cloudsim::{run_scenario, ScenarioConfig, Strategy};
use multicore::{run_multicore, MulticoreConfig, Scheduler};
use selfaware::levels::LevelSet;
use simkernel::rng::SeedTree;
use simkernel::{obs, MetricSet, Tick};
use workloads::faults::{FaultEvent, FaultPlan, ModelCorruptionKind};

fn digest_metrics(m: &MetricSet) -> u64 {
    let mut buf = Vec::new();
    for (name, value) in m.iter() {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    obs::fnv1a64(&buf)
}

/// NaN poison at `steps/4`, a scramble of `gain` at `steps/2` and a
/// `steps/10` freeze at `3·steps/4`, all on controller 0.
fn corruption_plan(steps: u64, gain: f64) -> FaultPlan {
    FaultPlan::none()
        .and(FaultEvent::model_corruption(
            Tick(steps / 4),
            0,
            ModelCorruptionKind::NanPoison,
        ))
        .and(FaultEvent::model_corruption(
            Tick(steps / 2),
            0,
            ModelCorruptionKind::WeightScramble { gain },
        ))
        .and(FaultEvent::model_corruption(
            Tick(3 * steps / 4),
            0,
            ModelCorruptionKind::StateFreeze {
                duration: steps / 10,
            },
        ))
}

fn camnet_metrics(supervise: bool) -> MetricSet {
    let steps = 1600;
    let mut cfg =
        camnet::CamnetConfig::standard(camnet::HandoverStrategy::self_aware_default(), steps);
    cfg.supervise = supervise;
    cfg.faults = corruption_plan(steps, 30.0);
    camnet::run_camnet(&cfg, &SeedTree::new(21)).metrics
}

fn cloud_metrics(strategy: Strategy) -> MetricSet {
    let steps = 1200;
    let seeds = SeedTree::new(11);
    let mut cfg = ScenarioConfig::standard(strategy, steps, &seeds);
    cfg.faults = corruption_plan(steps, 40.0);
    run_scenario(&cfg, &seeds).metrics
}

fn multicore_metrics(scheduler: Scheduler) -> MetricSet {
    let steps = 1200;
    let mut cfg = MulticoreConfig::standard(scheduler, steps);
    cfg.faults = corruption_plan(steps, 25.0);
    run_multicore(&cfg, &SeedTree::new(7)).metrics
}

fn interventions(m: &MetricSet) -> f64 {
    m.get("model_rollbacks").unwrap_or(0.0) + m.get("model_fallbacks").unwrap_or(0.0)
}

#[test]
fn camnet_arms_under_model_corruption_are_pinned() {
    let sup = camnet_metrics(true);
    assert!(interventions(&sup) >= 1.0, "supervisor idle: {sup:?}");
    let bare = camnet_metrics(false);
    assert_eq!(interventions(&bare), 0.0);
    assert_eq!(
        (digest_metrics(&sup), digest_metrics(&bare)),
        (0x7a29_3e80_17c5_0e1b, 0x6f09_fd99_830d_be47),
        "camnet supervised / unsupervised runs drifted"
    );
}

#[test]
fn cloudsim_arms_under_model_corruption_are_pinned() {
    let levels = LevelSet::full();
    let sup = cloud_metrics(Strategy::SupervisedSelfAware { levels });
    assert!(interventions(&sup) >= 1.0, "supervisor idle: {sup:?}");
    let bare = cloud_metrics(Strategy::SelfAware { levels });
    assert_eq!(interventions(&bare), 0.0);
    assert_eq!(
        (digest_metrics(&sup), digest_metrics(&bare)),
        (0xe5e7_033d_3cc8_a1da, 0x2d24_d2aa_4d78_1d2e),
        "cloudsim supervised / unsupervised runs drifted"
    );
}

#[test]
fn multicore_arms_under_model_corruption_are_pinned() {
    let sup = multicore_metrics(Scheduler::SupervisedSelfAware);
    assert!(interventions(&sup) >= 1.0, "supervisor idle: {sup:?}");
    let bare = multicore_metrics(Scheduler::SelfAware);
    assert_eq!(interventions(&bare), 0.0);
    assert_eq!(
        (digest_metrics(&sup), digest_metrics(&bare)),
        (0xefff_0698_7bae_dd1f, 0x17e7_6185_7d67_6035),
        "multicore supervised / unsupervised runs drifted"
    );
}
