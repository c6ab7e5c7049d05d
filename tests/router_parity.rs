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
use workloads::FaultCampaign;

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
    let campaign = sas_bench::f9_campaign(&city_seeds, steps);
    city_campaign_digest(steps, &city_seeds, campaign)
}

/// Digest of a supervised `run_city` at `city_seeds` under `campaign`.
fn city_campaign_digest(
    steps: u64,
    city_seeds: &SeedTree,
    campaign: FaultCampaign,
) -> (u64, MetricSet) {
    let mut cfg =
        compose::CityConfig::standard(compose::CityPolicy::supervised(), steps, city_seeds);
    cfg.campaign = campaign;
    let r = compose::run_city(&cfg, city_seeds);
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
    let faults = FaultPlan::none()
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
    cpn_run_digest(
        RoutingStrategy::supervised_cpn_default(),
        faults,
        steps,
        seed,
    )
}

/// Digest of a `cpn::sim` run of `strategy` under `faults`.
fn cpn_run_digest(
    strategy: RoutingStrategy,
    faults: FaultPlan,
    steps: u64,
    seed: u64,
) -> (u64, MetricSet) {
    let mut cfg = CpnConfig::standard(strategy, steps);
    cfg.faults = faults;
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

#[test]
fn supervised_city_reading_its_fallback_table_is_pinned() {
    // The F9 campaign's scramble only rolls the router back; a NaN
    // poison 20 ticks after it is a relapse inside the rollback
    // window, so the supervisor benches the model and packets route
    // on the periodic fallback table, through a gateway link that is
    // cut after one recompute and restored after another.
    let steps = 300;
    let city_seeds = SeedTree::new(1).child("city");
    let campaign = sas_bench::f9_campaign(&city_seeds, steps)
        .corruption(Tick(steps / 2 + 20), 0, ModelCorruptionKind::NanPoison)
        .fault(FaultEvent::link_cut(Tick(180), 13, 19))
        .fault(FaultEvent::link_restore(Tick(240), 13, 19));
    let (digest, metrics) = city_campaign_digest(steps, &city_seeds, campaign);
    assert!(metrics.get("serviced").unwrap_or(0.0) > 0.0);
    assert!(
        metrics.get("model_fallbacks").unwrap_or(0.0) >= 1.0,
        "the relapse must bench the router: {metrics:?}"
    );
    assert_eq!(
        digest, 0x21c0_2c8f_7c1a_dc5e,
        "supervised run_city on its fallback table drifted"
    );
}

#[test]
fn periodic_cpn_with_a_link_cut_between_recomputes_is_pinned() {
    // Period 25: the row-1 link 7-8 goes down at tick 60, between the
    // recomputes at 50 and 75, and comes back at 140, between 125 and
    // 150, so each table is read both before and after the live graph
    // diverged from its snapshot.
    let faults = FaultPlan::none()
        .and(FaultEvent::link_cut(Tick(60), 7, 8))
        .and(FaultEvent::link_restore(Tick(140), 7, 8));
    let (digest, metrics) =
        cpn_run_digest(RoutingStrategy::Periodic { period: 25 }, faults, 400, 5);
    assert!(metrics.get("delivered").unwrap_or(0.0) > 0.0);
    assert_eq!(
        digest, 0xcd6b_7222_2d5a_57d2,
        "periodic cpn::sim run with a mid-period link cut drifted"
    );
}
