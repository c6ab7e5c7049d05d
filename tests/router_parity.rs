//! Bit-identity pins for the supervised CPN router.
//!
//! The supervisor checkpoints the learned router every tick, rolls it
//! back and benches it, so any change to how `cpn::routing::Router`
//! stores its Q-table is exercised end to end by these two runs. Each
//! digest covers the run's whole `MetricSet` (exact bit patterns),
//! its comms counters and the length of its explanation log; the
//! pinned values were recorded from the nested-`Vec` Q-table layout
//! and must not move when the storage changes.

use cpn::routing::RoutingStrategy;
use cpn::sim::{run_cpn, CpnConfig};
use simkernel::rng::SeedTree;
use simkernel::{obs, MetricSet, Tick};
use workloads::faults::{FaultEvent, FaultPlan, ModelCorruptionKind};

fn digest_metrics(buf: &mut Vec<u8>, m: &MetricSet) {
    for (name, value) in m.iter() {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
}

/// Digest of a supervised cascade `run_city` (the F9 campaign).
fn city_digest(steps: u64, seed: u64) -> (u64, MetricSet) {
    let city_seeds = SeedTree::new(seed).child("city");
    let mut cfg =
        compose::CityConfig::standard(compose::CityPolicy::supervised(), steps, &city_seeds);
    cfg.campaign = sas_bench::f9_campaign(&city_seeds, steps);
    let r = compose::run_city(&cfg, &city_seeds);
    let mut buf = Vec::new();
    digest_metrics(&mut buf, &r.metrics);
    let c = &r.comms_stats;
    for v in [
        c.sent,
        c.delivered,
        c.retries,
        c.acked,
        c.expired,
        r.log.len() as u64,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    (obs::fnv1a64(&buf), r.metrics)
}

/// Digest of a supervised `cpn::sim` run whose learned model is
/// NaN-poisoned and later weight-scrambled.
fn cpn_digest(steps: u64, seed: u64) -> (u64, MetricSet) {
    let mut cfg = CpnConfig::standard(RoutingStrategy::supervised_cpn_default(), steps);
    cfg.faults = FaultPlan::none()
        .and(FaultEvent::model_corruption(
            Tick(steps / 4),
            0,
            ModelCorruptionKind::NanPoison,
        ))
        .and(FaultEvent::model_corruption(
            Tick(steps * 5 / 8),
            0,
            ModelCorruptionKind::WeightScramble { gain: 50.0 },
        ));
    let r = run_cpn(&cfg, &SeedTree::new(seed));
    let mut buf = Vec::new();
    digest_metrics(&mut buf, &r.metrics);
    for &(t, v) in r.delay.points() {
        buf.extend_from_slice(&t.to_le_bytes());
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&(r.comms_log.len() as u64).to_le_bytes());
    (obs::fnv1a64(&buf), r.metrics)
}

#[test]
fn supervised_cascade_city_is_pinned() {
    let (digest, metrics) = city_digest(200, 1);
    assert!(metrics.get("serviced").unwrap_or(0.0) > 0.0);
    assert!(
        metrics.get("model_rollbacks").unwrap_or(0.0)
            + metrics.get("model_fallbacks").unwrap_or(0.0)
            >= 1.0,
        "the scramble must trip the router supervisor"
    );
    assert_eq!(
        digest, 0x1d6d_04b2_619f_b875,
        "supervised cascade run_city drifted"
    );
}

#[test]
fn supervised_cpn_under_model_corruption_is_pinned() {
    let (digest, metrics) = cpn_digest(1600, 13);
    let interventions = metrics.get("model_rollbacks").unwrap_or(0.0)
        + metrics.get("model_fallbacks").unwrap_or(0.0);
    assert!(
        interventions >= 1.0,
        "the pin must exercise rollback/fallback: {interventions}"
    );
    assert_eq!(
        digest, 0xe7d6_4cd9_5c04_d232,
        "supervised cpn::sim run drifted"
    );
}
