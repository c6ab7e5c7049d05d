//! Event-driven volunteer cloud at trace scale (experiment F12).
//!
//! The T1/T2 cluster loop visits every node every tick — churn step,
//! process step — which caps runs at tens of nodes. This module hosts
//! the F12 trace world on [`simkernel::SimScheduler`]. The scheduler
//! wakes a node only when
//!
//! * a zone-outage fault edge falls due (planted up front by
//!   [`workloads::faults::FaultPlan::schedule_wakes`] — fault plans
//!   schedule wake events, they are never polled), or
//! * work arrived or remains queued (a dirty-input wake at dispatch,
//!   a self re-wake at `now + 1` while the queue is non-empty).
//!
//! ## Churn is settled on touch
//!
//! Churn costs no wakes. A node's churn is sampled as a *geometric gap
//! to the next flip* instead of a Bernoulli coin every tick, and the
//! node stores the tick of its next flip. Whenever the node is next
//! needed, `settle` applies every flip due up to that tick:
//!
//! * a dispatch probe or a work visit at tick `t` settles to `t`;
//! * a zone-fault edge at `t` settles to `t − 1` before it applies the
//!   edge, so a fault still precedes a churn flip of the same tick.
//!
//! This is exact. Each node's churn stream is private and drawn only
//! at that node's own flips, so a late settle makes the same draws in
//! the same order. Besides the node's own churn state, a flip reads
//! only its `forced` flag, which changes only at the node's fault
//! edges, each settled first. A flip
//! acts on the rest of the world only by dropping the node's queue,
//! and a node with queued work is visited, and so settled, every tick:
//! its queue is lost at the same tick as under a per-tick sweep. An
//! idle node's flips cost nothing until round-robin dispatch reaches
//! it, which walks nodes in index order.
//!
//! ## Dense-vs-sparse equivalence
//!
//! The legacy dense loop stays selectable via
//! [`simkernel::DriveMode::Dense`]. It settles every node to `t` every
//! tick, right after the fault edges, and visits every node, so it is
//! the per-tick reference for the sparse drive's settle-on-touch.
//! Arrivals come from one tick-major stream in both modes. All
//! aggregates are integer counters until the final division, so
//! simulation metrics are bit-identical across modes; only wall-clock
//! and [`simkernel::ActivationStats`] differ.

use rand::Rng as _;
use simkernel::rng::{Rng, SeedTree};
use simkernel::{ActivationStats, DriveMode, MetricSet, SimScheduler, Tick, WakeDedup};
use std::collections::VecDeque;
use std::fmt::Write as _;
use workloads::faults::{FaultKind, FaultPlan};

/// Priority class for zone-outage fault edges (applied first).
pub const CLASS_FAULT: u8 = 0;
/// Priority class for node work visits (after dispatch).
pub const CLASS_NODE: u8 = 1;

/// Latency histogram width; latencies at or beyond this land in the
/// overflow bucket (they are far past any deadline anyway).
const LATENCY_BUCKETS: usize = 4096;

/// Configuration of an F12-scale request-trace scenario.
#[derive(Debug, Clone)]
pub struct DesCloudConfig {
    /// Node count (16 384 for the headline F12 arm).
    pub nodes: usize,
    /// Per-node capacity is drawn uniformly from this range at setup.
    pub cap_range: (f64, f64),
    /// Probability per tick of an online node going offline
    /// (materialised as geometric gaps, see module docs).
    pub churn_off: f64,
    /// Probability per tick of an offline node coming back.
    pub churn_on: f64,
    /// Mean request arrivals per tick (Poisson).
    pub rate: f64,
    /// Request work is drawn uniformly from this range.
    pub work_range: (f64, f64),
    /// Latency SLA in ticks; completions above it count as violations.
    pub deadline: u64,
    /// Simulation length in ticks (`steps × rate` ≈ trace size).
    pub steps: u64,
    /// Scheduled faults (`ZoneOutage`; other kinds are ignored).
    pub faults: FaultPlan,
    /// Dense (legacy, equivalence baseline) or sparse (DES) driving.
    pub drive: DriveMode,
}

impl DesCloudConfig {
    /// A scenario sized for `nodes` nodes over `steps` ticks at
    /// `rate` requests per tick.
    #[must_use]
    pub fn at_scale(nodes: usize, steps: u64, rate: f64) -> Self {
        Self {
            nodes,
            cap_range: (0.5, 2.5),
            churn_off: 0.001,
            churn_on: 0.01,
            rate,
            work_range: (0.5, 2.0),
            deadline: 30,
            steps,
            faults: FaultPlan::none(),
            drive: DriveMode::Sparse,
        }
    }
}

/// Outputs of an F12 trace run.
#[derive(Debug, Clone)]
pub struct DesCloudResult {
    /// Simulation metrics — bit-identical across [`DriveMode`]s:
    ///
    /// * `arrived` / `completed` / `lost` / `in_flight` — request
    ///   conservation (`arrived = completed + lost + in_flight`);
    /// * `completion_ratio` — `completed / arrived`;
    /// * `violation_rate` — completions past the deadline, over
    ///   completions;
    /// * `mean_latency` / `p95_latency` — queueing + service ticks;
    /// * `utility` — `completion_ratio − violation_rate`.
    pub metrics: MetricSet,
    /// Activation accounting (differs across modes by design).
    pub perf: ActivationStats,
}

struct DesNode {
    cap: f64,
    online: bool,
    forced: bool,
    /// Tick of the next stochastic churn transition, not yet applied
    /// (`u64::MAX` = never, when the corresponding probability is
    /// zero).
    next_churn: u64,
    /// (arrival tick, remaining work) FIFO.
    queue: VecDeque<(u64, f64)>,
    /// Per-node churn RNG stream — drawn only at this node's
    /// transitions, whenever they are settled.
    rng: Rng,
    /// Last tick this node's work visit ran (dedupes the self re-wake
    /// against same-tick dirty-input wakes). `u64::MAX` = never.
    last_visit: u64,
}

/// Ticks until the next success of a Bernoulli(`p`) process, sampled
/// by inverting the geometric CDF — one draw replaces `gap` per-tick
/// coin flips while following the exact same distribution.
#[derive(Clone, Copy)]
struct GeometricGap {
    p: f64,
    /// `ln(1 − p)`, computed once per run rather than per draw.
    ln_q: f64,
}

impl GeometricGap {
    fn new(p: f64) -> Self {
        Self {
            p,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// One gap: `u64::MAX` (never) when `p ≤ 0`, `1` when `p ≥ 1`,
    /// otherwise one draw from `rng`.
    fn sample(self, rng: &mut Rng) -> u64 {
        if self.p <= 0.0 {
            return u64::MAX;
        }
        if self.p >= 1.0 {
            return 1;
        }
        let u: f64 = rng.gen();
        let g = ((1.0 - u).ln() / self.ln_q).floor();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            (g as u64).saturating_add(1)
        }
    }
}

/// The gap samplers of the two churn directions.
#[derive(Clone, Copy)]
struct Churn {
    /// Online → offline, drawn while the node is online.
    off: GeometricGap,
    /// Offline → online, drawn while the node is offline.
    on: GeometricGap,
}

/// Runs an F12 trace scenario (see [`DesCloudResult`] for metric
/// keys).
///
/// # Panics
///
/// Panics if the configuration has no nodes.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_des_cloud(cfg: &DesCloudConfig, seeds: &SeedTree) -> DesCloudResult {
    let n = cfg.nodes;
    assert!(n >= 1, "need at least one node");
    let sparse = cfg.drive == DriveMode::Sparse;

    let mut sched: SimScheduler<usize> = SimScheduler::new();
    let churn = Churn {
        off: GeometricGap::new(cfg.churn_off),
        on: GeometricGap::new(cfg.churn_on),
    };

    // Setup draws happen in a fixed order (caps, then per-node churn
    // streams, then the initial transition gaps) so both drive modes
    // consume identical randomness. One label buffer, sized for any
    // `churn/{usize}`, serves every node's stream.
    let mut cap_rng = seeds.rng("caps");
    let mut label = String::with_capacity(32);
    let mut nodes: Vec<DesNode> = (0..n)
        .map(|i| {
            label.clear();
            let _ = write!(label, "churn/{i}");
            DesNode {
                cap: cap_rng.gen_range(cfg.cap_range.0..cfg.cap_range.1),
                online: true,
                forced: false,
                next_churn: u64::MAX,
                queue: VecDeque::new(),
                rng: seeds.rng(&label),
                last_visit: u64::MAX,
            }
        })
        .collect();
    for node in &mut nodes {
        node.next_churn = churn.off.sample(&mut node.rng);
    }

    // Zone-outage wiring: per-node forced intervals, with the onset
    // and repair edges planted as fault-class wakes in BOTH modes.
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for ev in cfg.faults.events() {
        if let FaultKind::ZoneOutage {
            first,
            count,
            duration,
        } = ev.kind
        {
            for spans in intervals
                .iter_mut()
                .take((first + count).min(n))
                .skip(first)
            {
                spans.push((ev.at.value(), ev.at.value().saturating_add(duration)));
            }
        }
    }
    cfg.faults
        .schedule_wakes(&mut sched, CLASS_FAULT, |ev, keys| {
            if let FaultKind::ZoneOutage { first, count, .. } = ev.kind {
                keys.extend(first..(first + count).min(n));
            }
        });
    let mut dirty = WakeDedup::new(n);

    let mut arr_rng = seeds.rng("arrivals");
    let poisson_floor = (-cfg.rate).exp();
    let mut cursor = 0usize;

    let mut arrived = 0u64;
    let mut completed = 0u64;
    let mut lost = 0u64;
    let mut violations = 0u64;
    let mut latency_sum = 0u64;
    let mut latency_hist = vec![0u64; LATENCY_BUCKETS + 1];
    let mut perf = ActivationStats {
        entity_ticks: n as u64 * cfg.steps,
        ..ActivationStats::default()
    };

    for t in 0..cfg.steps {
        let now = Tick(t);
        sched.advance(now);

        // 1. Fault edges due now, drained before the node-visit class.
        // Churn transitions due at `t` are settled after them.
        while sched
            .peek()
            .is_some_and(|(at, c)| at <= now && c == CLASS_FAULT)
        {
            let Some((_, _, i)) = sched.pop_due(now) else {
                break;
            };
            perf.wakes += 1;
            let node = &mut nodes[i];
            if sparse {
                // Apply the transitions before this tick under the old
                // `forced` flag; those at `t` follow the edge. None is
                // ever due at tick 0, so `saturating_sub` is exact.
                // Dense settled every node to `t − 1` last tick, which
                // keeps it an independent reference for this order.
                lost += settle(node, t.saturating_sub(1), churn);
            }
            let was_forced = node.forced;
            node.forced = intervals[i].iter().any(|&(s, e)| s <= t && t < e);
            if node.forced && node.online {
                node.online = false;
                lost += node.queue.len() as u64;
                node.queue.clear();
            } else if !node.forced && was_forced {
                // Deterministic repair at the outage deadline.
                node.online = true;
            }
        }
        if !sparse {
            // Dense: every node's transitions at `t`, every tick.
            for node in &mut nodes {
                lost += settle(node, t, churn);
            }
        }

        // 2. Arrivals (Poisson, Knuth) and round-robin dispatch to the
        // first online node; an arrival with no online node is lost.
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= arr_rng.gen::<f64>();
            if p <= poisson_floor {
                break;
            }
            k += 1;
        }
        for _ in 0..k {
            arrived += 1;
            let work = arr_rng.gen_range(cfg.work_range.0..cfg.work_range.1);
            let mut target = None;
            for probe in 0..n {
                let i = (cursor + probe) % n;
                lost += settle(&mut nodes[i], t, churn);
                if nodes[i].online {
                    target = Some(i);
                    cursor = (i + 1) % n;
                    break;
                }
            }
            match target {
                Some(i) => {
                    nodes[i].queue.push_back((t, work));
                    if sparse && dirty.mark(i, now) {
                        sched.wake_on_input(CLASS_NODE, i);
                    }
                }
                None => lost += 1,
            }
        }

        // 3. Node work visits. Dense visits every node; sparse drains
        // the node-class wakes (dirty inputs + busy re-wakes, deduped
        // by `last_visit`).
        if sparse {
            while let Some((_, class, i)) = sched.pop_due(now) {
                debug_assert_eq!(class, CLASS_NODE);
                perf.wakes += 1;
                if nodes[i].last_visit == t {
                    continue;
                }
                nodes[i].last_visit = t;
                perf.visits += 1;
                lost += settle(&mut nodes[i], t, churn);
                process_visit(
                    &mut nodes[i],
                    t,
                    cfg.deadline,
                    &mut completed,
                    &mut violations,
                    &mut latency_sum,
                    &mut latency_hist,
                );
                if !nodes[i].queue.is_empty() {
                    sched.wake_at(Tick(t + 1), CLASS_NODE, i);
                }
            }
        } else {
            for node in &mut nodes {
                perf.visits += 1;
                process_visit(
                    node,
                    t,
                    cfg.deadline,
                    &mut completed,
                    &mut violations,
                    &mut latency_sum,
                    &mut latency_hist,
                );
            }
        }
    }
    perf.shed = sched.shed_count();

    let in_flight = arrived - completed - lost;
    let completion_ratio = completed as f64 / arrived.max(1) as f64;
    let violation_rate = violations as f64 / completed.max(1) as f64;
    let p95 = {
        let target = completed - completed / 20; // ceil-free 95th count
        let mut cum = 0u64;
        let mut p95 = 0usize;
        for (l, &c) in latency_hist.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                p95 = l;
                break;
            }
        }
        p95 as f64
    };
    let mut metrics = MetricSet::new();
    metrics.set("arrived", arrived as f64);
    metrics.set("completed", completed as f64);
    metrics.set("lost", lost as f64);
    metrics.set("in_flight", in_flight as f64);
    metrics.set("completion_ratio", completion_ratio);
    metrics.set("violation_rate", violation_rate);
    metrics.set("mean_latency", latency_sum as f64 / completed.max(1) as f64);
    metrics.set("p95_latency", p95);
    metrics.set("utility", completion_ratio - violation_rate);

    DesCloudResult { metrics, perf }
}

/// Applies every churn transition of `node` due at or before tick
/// `upto`, in tick order. Returns the requests lost by going offline.
fn settle(node: &mut DesNode, upto: u64, churn: Churn) -> u64 {
    let mut lost = 0;
    while node.next_churn <= upto {
        lost += flip(node, churn);
    }
    lost
}

/// The churn transition due at `node.next_churn`: toggle (unless a
/// forced outage pins the node), then sample the gap to the next
/// transition from the new state's probability. Exactly one RNG draw
/// per transition. Returns the requests lost by going offline.
fn flip(node: &mut DesNode, churn: Churn) -> u64 {
    let mut lost = 0;
    if !node.forced {
        if node.online {
            node.online = false;
            lost = node.queue.len() as u64;
            node.queue.clear();
        } else {
            node.online = true;
        }
    }
    let gap = if node.online { churn.off } else { churn.on }.sample(&mut node.rng);
    node.next_churn = node.next_churn.saturating_add(gap);
    lost
}

/// One work visit: spend this tick's capacity on the FIFO queue,
/// recording completions against the SLA.
fn process_visit(
    node: &mut DesNode,
    t: u64,
    deadline: u64,
    completed: &mut u64,
    violations: &mut u64,
    latency_sum: &mut u64,
    latency_hist: &mut [u64],
) {
    if !node.online || node.queue.is_empty() {
        return;
    }
    let mut budget = node.cap;
    while budget > 0.0 {
        let Some(&mut (arrived_at, ref mut remaining)) = node.queue.front_mut() else {
            break;
        };
        if *remaining <= budget {
            budget -= *remaining;
            node.queue.pop_front();
            *completed += 1;
            let latency = t.saturating_sub(arrived_at).max(1);
            *latency_sum += latency;
            latency_hist[(latency as usize).min(LATENCY_BUCKETS)] += 1;
            if latency > deadline {
                *violations += 1;
            }
        } else {
            *remaining -= budget;
            budget = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::faults::FaultEvent;

    fn run(cfg: &DesCloudConfig, seed: u64) -> DesCloudResult {
        run_des_cloud(cfg, &SeedTree::new(seed))
    }

    fn churny(nodes: usize, steps: u64, rate: f64) -> DesCloudConfig {
        let mut cfg = DesCloudConfig::at_scale(nodes, steps, rate);
        cfg.churn_off = 0.01;
        cfg.churn_on = 0.05;
        cfg
    }

    #[test]
    fn dense_and_sparse_metrics_are_bit_identical() {
        let mut cfg = churny(64, 600, 3.0);
        cfg.faults = FaultPlan::none().and(FaultEvent::zone_outage(Tick(200), 8, 16, 150));
        for seed in [1, 9] {
            cfg.drive = DriveMode::Dense;
            let dense = run(&cfg, seed);
            cfg.drive = DriveMode::Sparse;
            let sparse = run(&cfg, seed);
            assert_eq!(dense.metrics, sparse.metrics);
            assert!(sparse.perf.visits < dense.perf.visits);
        }
    }

    #[test]
    fn churn_alone_costs_no_wakes() {
        // No arrivals and no faults: churn is the only thing happening,
        // and settle-on-touch must make it cost nothing in sparse mode.
        let mut cfg = DesCloudConfig::at_scale(256, 500, 0.0);
        cfg.churn_off = 0.3;
        cfg.churn_on = 0.3;
        cfg.drive = DriveMode::Dense;
        let dense = run(&cfg, 4);
        cfg.drive = DriveMode::Sparse;
        let sparse = run(&cfg, 4);
        assert_eq!(sparse.perf.wakes, 0);
        assert_eq!(sparse.perf.visits, 0);
        assert_eq!(dense.metrics, sparse.metrics);
    }

    #[test]
    fn outage_edges_coinciding_with_churn_match_dense() {
        // Overlapping outages whose onset and repair edges fall on churn
        // transitions. At 1.0/1.0 every node flips every tick, so every
        // edge coincides with a flip; a fault edge that settled the flip
        // of its own tick before applying itself would diverge from the
        // dense per-tick reference.
        let faults = FaultPlan::none()
            .and(FaultEvent::zone_outage(Tick(50), 0, 24, 100))
            .and(FaultEvent::zone_outage(Tick(101), 8, 24, 80))
            .and(FaultEvent::zone_outage(Tick(150), 16, 16, 40));
        for (off, on) in [(1.0, 1.0), (0.5, 0.5)] {
            let mut cfg = DesCloudConfig::at_scale(48, 400, 3.0);
            cfg.churn_off = off;
            cfg.churn_on = on;
            cfg.faults = faults.clone();
            for seed in [1, 9] {
                cfg.drive = DriveMode::Dense;
                let dense = run(&cfg, seed);
                cfg.drive = DriveMode::Sparse;
                let sparse = run(&cfg, seed);
                assert_eq!(
                    dense.metrics, sparse.metrics,
                    "churn {off}/{on}, seed {seed}"
                );
                assert!(sparse.metrics.get("lost").unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn requests_are_conserved() {
        let r = run(&churny(128, 800, 4.0), 5);
        let m = |k: &str| r.metrics.get(k).unwrap();
        assert_eq!(m("arrived"), m("completed") + m("lost") + m("in_flight"));
        assert!(m("arrived") > 2000.0);
        assert!(m("completion_ratio") > 0.5);
        assert_eq!(r.perf.shed, 0);
    }

    #[test]
    fn sparse_visit_count_scales_with_load_not_nodes() {
        let small = run(&DesCloudConfig::at_scale(256, 400, 2.0), 7);
        let big = run(&DesCloudConfig::at_scale(4096, 400, 2.0), 7);
        // 16× the nodes, same request load: sparse visits must not
        // grow 16×.
        assert!(
            (big.perf.visits as f64) < 4.0 * small.perf.visits as f64,
            "sparse visits must scale with load: {} vs {}",
            big.perf.visits,
            small.perf.visits
        );
        assert_eq!(big.perf.entity_ticks, 16 * small.perf.entity_ticks);
    }

    #[test]
    fn zone_outage_fires_without_being_polled() {
        // Zero arrivals: nothing ever input-wakes a node, so only the
        // planted fault wakes can flip the zone. The outage must still
        // pin the nodes offline for its window in both modes.
        let mut cfg = DesCloudConfig::at_scale(32, 300, 0.0);
        cfg.churn_off = 0.0; // no stochastic churn either
        cfg.faults = FaultPlan::none().and(FaultEvent::zone_outage(Tick(50), 0, 32, 100));
        for drive in [DriveMode::Dense, DriveMode::Sparse] {
            cfg.drive = drive;
            let r = run(&cfg, 3);
            // No requests → no losses, but the run must complete and
            // the fault machinery must not shed or wedge.
            assert_eq!(r.metrics.get("arrived"), Some(0.0));
            assert_eq!(r.perf.shed, 0);
        }
        // Now with traffic: the outage window must cost requests.
        cfg.rate = 4.0;
        cfg.drive = DriveMode::Sparse;
        let faulty = run(&cfg, 3);
        cfg.faults = FaultPlan::none();
        let healthy = run(&cfg, 3);
        assert!(
            faulty.metrics.get("lost").unwrap() > healthy.metrics.get("lost").unwrap(),
            "a full outage must lose requests"
        );
        assert!(
            faulty.metrics.get("completed").unwrap() > 0.0,
            "nodes must come back after the outage"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = churny(96, 500, 3.0);
        let a = run(&cfg, 42);
        let b = run(&cfg, 42);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.perf, b.perf);
    }

    #[test]
    fn geometric_gap_edge_cases() {
        let mut rng = SeedTree::new(1).rng("gap");
        assert_eq!(GeometricGap::new(0.0).sample(&mut rng), u64::MAX);
        assert_eq!(GeometricGap::new(-0.5).sample(&mut rng), u64::MAX);
        assert_eq!(GeometricGap::new(1.0).sample(&mut rng), 1);
        assert_eq!(GeometricGap::new(1.5).sample(&mut rng), 1);
        let half = GeometricGap::new(0.5);
        for _ in 0..100 {
            assert!(half.sample(&mut rng) >= 1);
        }
        // Mean of Geometric(p) is 1/p.
        let tenth = GeometricGap::new(0.1);
        let mean = (0..4000)
            .map(|_| tenth.sample(&mut rng) as f64)
            .sum::<f64>()
            / 4000.0;
        assert!((mean - 10.0).abs() < 1.0, "geometric mean ≈ 1/p: {mean}");
    }
}
