//! Routers: frozen shortest path, periodic re-routing, and CPN
//! reinforcement routing.
//!
//! The CPN router follows the scheme the paper describes (Section III):
//! a small fraction of traffic is *smart packets* that explore; every
//! delivered packet's measured per-hop delays reinforce per-node,
//! per-destination next-hop estimates; dumb packets follow the current
//! best estimates. Drops are punished, so attacked/congested links are
//! unlearned quickly.

use crate::graph::{bfs_next_hops_over, weighted_next_hops_over, Graph};
use rand::Rng as _;
use selfaware::supervision::Corruptible;
use simkernel::rng::Rng;
use simkernel::Tick;
use std::sync::{Arc, OnceLock};

/// Routing strategy selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingStrategy {
    /// Hop-count shortest paths computed once at start-up, never
    /// updated (the design-time baseline).
    StaticShortest,
    /// Queue-aware shortest paths recomputed every `period` ticks
    /// (the "periodic re-OSPF" middle ground).
    Periodic {
        /// Recomputation interval in ticks.
        period: u64,
    },
    /// Cognitive packet routing: reinforcement-learned next hops with
    /// a `smart_ratio` fraction of exploring packets.
    Cpn {
        /// Fraction of packets that explore (smart packets).
        smart_ratio: f64,
        /// Exploration rate of smart packets.
        epsilon: f64,
    },
    /// CPN routing under a meta-self-aware supervisor: the simulator
    /// watchdogs the learned delay estimates and falls back to
    /// periodic table routing while the model is benched (see
    /// `sim::run_cpn`). Routing behaviour while healthy is identical
    /// to [`RoutingStrategy::Cpn`].
    SupervisedCpn {
        /// Fraction of packets that explore (smart packets).
        smart_ratio: f64,
        /// Exploration rate of smart packets.
        epsilon: f64,
    },
}

impl RoutingStrategy {
    /// Canonical CPN configuration for F2.
    #[must_use]
    pub fn cpn_default() -> Self {
        RoutingStrategy::Cpn {
            smart_ratio: 0.1,
            epsilon: 0.1,
        }
    }

    /// Canonical supervised-CPN configuration (same routing knobs as
    /// [`RoutingStrategy::cpn_default`]).
    #[must_use]
    pub fn supervised_cpn_default() -> Self {
        RoutingStrategy::SupervisedCpn {
            smart_ratio: 0.1,
            epsilon: 0.1,
        }
    }

    /// Table label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RoutingStrategy::StaticShortest => "static-shortest".into(),
            RoutingStrategy::Periodic { period } => format!("periodic({period})"),
            RoutingStrategy::Cpn { .. } => "cpn".into(),
            RoutingStrategy::SupervisedCpn { .. } => "supervised-cpn".into(),
        }
    }

    /// Instantiates the runtime router for `graph`. Table routers
    /// snapshot which links are up now and route on hop counts over
    /// that snapshot until their first recompute.
    #[must_use]
    pub fn build(&self, graph: &Graph) -> Router {
        let n = graph.len();
        match *self {
            RoutingStrategy::StaticShortest => Router {
                kind: RouterKind::Table(Table::hop_counts(graph, None)),
            },
            RoutingStrategy::Periodic { period } => {
                assert!(period > 0, "period must be positive");
                Router {
                    kind: RouterKind::Table(Table::hop_counts(graph, Some(period))),
                }
            }
            RoutingStrategy::Cpn {
                smart_ratio,
                epsilon,
            }
            | RoutingStrategy::SupervisedCpn {
                smart_ratio,
                epsilon,
            } => {
                assert!(
                    (0.0..=1.0).contains(&smart_ratio),
                    "smart ratio must be in [0,1]"
                );
                assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
                // Optimistic init from hop counts so cold-start routes
                // are sensible.
                let mut q = QTable::zeroed(graph);
                for dst in 0..n {
                    let hops = hop_distances(graph, dst);
                    for u in 0..n {
                        let row = q.row_mut(u, dst);
                        for (cell, &v) in row.iter_mut().zip(graph.neighbours(u)) {
                            *cell = if hops[v] == usize::MAX {
                                1e6
                            } else {
                                (hops[v] + 1) as f64
                            };
                        }
                    }
                }
                Router {
                    kind: RouterKind::Cpn {
                        q,
                        smart_ratio,
                        epsilon,
                        penalty: vec![0.0; n],
                    },
                }
            }
        }
    }
}

fn hop_distances(graph: &Graph, dst: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; graph.len()];
    let mut q = std::collections::VecDeque::new();
    dist[dst] = 0;
    q.push_back(dst);
    while let Some(u) = q.pop_front() {
        for &v in graph.neighbours(u) {
            if graph.link_down(u, v) {
                continue;
            }
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// A table router's next-hop tables, built lazily.
///
/// A recompute does not route: it only snapshots, per adjacency slot,
/// the neighbour and the cost of the hop from it (infinite while the
/// link is down). `next[dst]` is computed from that snapshot on the
/// first lookup toward `dst` after it was taken, so a recompute costs
/// one pass over the links and only destinations that are actually
/// routed to pay for a shortest-path search. Lookups see the network
/// as it was at the snapshot, exactly as an eagerly built table would.
#[derive(Clone)]
struct Table {
    /// `slots[start[u]..start[u + 1]]` are `u`'s links in adjacency
    /// order, as `(neighbour v, cost of v → u)`.
    start: Vec<usize>,
    slots: Vec<(usize, f64)>,
    /// Whether the costs are queue-aware (Dijkstra) rather than plain
    /// hop counts (breadth-first search, whose tie-breaking differs).
    weighted: bool,
    /// `next[dst][node]`: next hop from `node` toward `dst`.
    next: Vec<OnceLock<Vec<Option<usize>>>>,
    period: Option<u64>,
}

impl Table {
    /// A hop-count table over the links of `graph` that are up now.
    fn hop_counts(graph: &Graph, period: Option<u64>) -> Self {
        let mut table = Self {
            start: Vec::with_capacity(graph.len() + 1),
            slots: Vec::new(),
            weighted: false,
            next: (0..graph.len()).map(|_| OnceLock::new()).collect(),
            period,
        };
        table.snapshot(graph, |_, _| 1.0);
        table
    }

    /// Replaces the snapshot with `graph`'s links at `cost` and drops
    /// every table built from the old one.
    fn snapshot(&mut self, graph: &Graph, cost: impl Fn(usize, usize) -> f64) {
        self.start.clear();
        self.slots.clear();
        for u in 0..graph.len() {
            self.start.push(self.slots.len());
            self.slots.extend(graph.hop_costs(u, &cost));
        }
        self.start.push(self.slots.len());
        for next in &mut self.next {
            next.take();
        }
    }

    fn next_hop(&self, at: usize, dst: usize) -> Option<usize> {
        let n = self.next.len();
        let links = |u: usize| self.slots[self.start[u]..self.start[u + 1]].iter().copied();
        self.next[dst].get_or_init(|| {
            if self.weighted {
                weighted_next_hops_over(n, dst, links)
            } else {
                bfs_next_hops_over(n, dst, links)
            }
        })[at]
    }
}

/// The CPN router's learned delay estimates, one dense table.
///
/// Row `(u, dst)` holds `deg(u)` cells — the estimated remaining delay
/// from `u` to `dst` via each neighbour of `u`, in adjacency order —
/// at `base[u] + dst·deg(u)` of one flat `cells` buffer. The row
/// offsets depend only on the topology, so clones share them and a
/// clone copies just the cells.
#[derive(Clone)]
struct QTable {
    cells: Vec<f64>,
    /// `(base[u], deg(u))` per router.
    rows: Arc<[(usize, usize)]>,
}

impl QTable {
    /// A zero-filled table shaped by `graph`'s adjacency lists.
    fn zeroed(graph: &Graph) -> Self {
        let n = graph.len();
        let mut len = 0;
        let rows: Arc<[(usize, usize)]> = (0..n)
            .map(|u| {
                let deg = graph.neighbours(u).len();
                let base = len;
                len += n * deg;
                (base, deg)
            })
            .collect();
        Self {
            cells: vec![0.0; len],
            rows,
        }
    }

    /// Where row `(u, dst)` sits in `cells`.
    fn range(&self, u: usize, dst: usize) -> std::ops::Range<usize> {
        assert!(dst < self.rows.len(), "destination {dst} out of range");
        let (base, deg) = self.rows[u];
        let start = base + dst * deg;
        start..start + deg
    }

    /// Estimates from `u` toward `dst`, one per neighbour of `u`.
    fn row(&self, u: usize, dst: usize) -> &[f64] {
        &self.cells[self.range(u, dst)]
    }

    fn row_mut(&mut self, u: usize, dst: usize) -> &mut [f64] {
        let range = self.range(u, dst);
        &mut self.cells[range]
    }
}

#[derive(Clone)]
enum RouterKind {
    Table(Table),
    Cpn {
        q: QTable,
        smart_ratio: f64,
        epsilon: f64,
        /// Transient per-router congestion penalty from the latest
        /// control-plane reports (see [`Router::set_congestion`]);
        /// all zeros when the control plane is ideal or absent.
        penalty: Vec<f64>,
    },
}

/// A runtime router, cheap to copy when its supervisor restores or
/// first writes after a checkpoint. A CPN router's learned state is
/// one flat `f64` buffer of `Σ_u n·deg(u)` cells (row `(u, dst)` at
/// `base[u] + dst·deg(u)`, with the offsets shared between clones)
/// plus its `n`-entry congestion penalty, so a clone is two
/// allocations and two copies. A table router clones its link
/// snapshot and whichever next-hop tables it has built so far.
#[derive(Clone)]
pub struct Router {
    kind: RouterKind,
}

/// Penalty delay (ticks) learned for a hop that led to a drop.
pub const DROP_PENALTY: f64 = 200.0;

impl Router {
    /// Decides whether a freshly injected packet is a smart packet.
    pub fn is_smart(&self, rng: &mut Rng) -> bool {
        match &self.kind {
            RouterKind::Table(_) => false,
            RouterKind::Cpn { smart_ratio, .. } => rng.gen::<f64>() < *smart_ratio,
        }
    }

    /// Per-tick maintenance: at each period boundary a periodic
    /// router recomputes from the live link state and queue occupancy
    /// (`queue_len(u, v)`), routing on `1 + queue_len / 4` per hop.
    pub fn maintain<Q: Fn(usize, usize) -> usize>(
        &mut self,
        graph: &Graph,
        now: Tick,
        queue_len: Q,
    ) {
        if let RouterKind::Table(table) = &mut self.kind {
            if table
                .period
                .is_some_and(|p| now.value() > 0 && now.value().is_multiple_of(p))
            {
                table.weighted = true;
                table.snapshot(graph, |u, v| 1.0 + queue_len(u, v) as f64 / 4.0);
            }
        }
    }

    /// Installs the controller's believed per-router congestion as a
    /// *transient* decision-time penalty: a hop into router `v` costs
    /// its learned estimate plus `congestion[v]`. Unlike writing into
    /// the learned table, the penalty vanishes the moment fresher
    /// reports clear it — no re-learning needed when a jam moves or a
    /// partition heals. Table routers ignore this; they recompute
    /// from the same reports in [`Router::maintain`].
    pub fn set_congestion(&mut self, congestion: &[f64]) {
        if let RouterKind::Cpn { penalty, .. } = &mut self.kind {
            penalty.clear();
            penalty.extend_from_slice(congestion);
        }
    }

    /// Chooses the next hop for a packet at `at` heading to `dst`.
    /// `prev` is where the packet just came from (loop damping for
    /// learned routing); `smart` marks exploring packets.
    pub fn next_hop(
        &self,
        graph: &Graph,
        at: usize,
        dst: usize,
        prev: Option<usize>,
        smart: bool,
        rng: &mut Rng,
    ) -> Option<usize> {
        if at == dst {
            return None;
        }
        match &self.kind {
            RouterKind::Table(table) => table.next_hop(at, dst),
            RouterKind::Cpn {
                q,
                epsilon,
                penalty,
                ..
            } => {
                // CPN routers sense link liveness locally: cut edges
                // are never candidates, so packets detour immediately
                // (table routers keep pointing at the dead link until
                // the next recompute — or forever, for StaticShortest).
                let neighbours = graph.neighbours(at);
                let up = neighbours
                    .iter()
                    .filter(|&&v| !graph.link_down(at, v))
                    .count();
                if up == 0 {
                    return None;
                }
                let row = q.row(at, dst);
                if smart && rng.gen::<f64>() < *epsilon {
                    let pick = rng.gen_range(0..up);
                    return neighbours
                        .iter()
                        .copied()
                        .filter(|&v| !graph.link_down(at, v))
                        .nth(pick);
                }
                // Prefer not to bounce straight back unless forced.
                let mut best: Option<(usize, f64)> = None;
                for (k, &v) in neighbours.iter().enumerate() {
                    if graph.link_down(at, v) {
                        continue;
                    }
                    if Some(v) == prev && up > 1 {
                        continue;
                    }
                    // A hop that terminates at `v` never waits in
                    // `v`'s outbound queues, so the congestion
                    // penalty does not apply to it.
                    let est = row[k] + if v == dst { 0.0 } else { penalty[v] };
                    if best.is_none_or(|(_, b)| est < b) {
                        best = Some((v, est));
                    }
                }
                best.map(|(v, _)| v)
            }
        }
    }

    /// Per-hop Q-routing update (Boyan & Littman): when a packet that
    /// entered `u`'s queue at some time arrives at `v` after
    /// `hop_delay` ticks, the estimate for `u → v` toward `dst` is
    /// pulled toward `hop_delay + min_w Q_v(dst, w)`. This propagates
    /// congestion information one hop per packet — fast enough to
    /// route around a forming hot-spot, unlike waiting for end-to-end
    /// delivery feedback.
    pub fn reinforce_hop(&mut self, graph: &Graph, u: usize, v: usize, dst: usize, hop_delay: f64) {
        let RouterKind::Cpn { q, .. } = &mut self.kind else {
            return;
        };
        const ALPHA: f64 = 0.3;
        let downstream = if v == dst {
            0.0
        } else {
            q.row(v, dst)
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .min(DROP_PENALTY)
        };
        if let Some(k) = graph.neighbours(u).iter().position(|&x| x == v) {
            let target = hop_delay.max(1.0) + downstream;
            let cell = &mut q.row_mut(u, dst)[k];
            *cell += ALPHA * (target - *cell);
        }
    }

    /// Reinforces from a delivered packet: `hop_log` holds
    /// `(node, entered_at)` for every node on the path (destination
    /// last).
    pub fn reinforce_delivery(&mut self, graph: &Graph, dst: usize, hop_log: &[(usize, Tick)]) {
        let RouterKind::Cpn { q, .. } = &mut self.kind else {
            return;
        };
        let Some(&(_, arrived)) = hop_log.last() else {
            return;
        };
        const ALPHA: f64 = 0.2;
        for w in hop_log.windows(2) {
            let (u, entered_u) = w[0];
            let (v, _) = w[1];
            let remaining = arrived.value().saturating_sub(entered_u.value()).max(1) as f64;
            if let Some(k) = graph.neighbours(u).iter().position(|&x| x == v) {
                let cell = &mut q.row_mut(u, dst)[k];
                *cell += ALPHA * (remaining - *cell);
            }
        }
    }

    /// Punishes the hop that dropped a packet: the packet was at `u`
    /// heading to `v` toward `dst`.
    pub fn reinforce_drop(&mut self, graph: &Graph, u: usize, v: usize, dst: usize) {
        let RouterKind::Cpn { q, .. } = &mut self.kind else {
            return;
        };
        const ALPHA: f64 = 0.3;
        if let Some(k) = graph.neighbours(u).iter().position(|&x| x == v) {
            let cell = &mut q.row_mut(u, dst)[k];
            *cell += ALPHA * (DROP_PENALTY - *cell);
        }
    }

    /// Current delay estimate from `u` to `dst` via neighbour `v`
    /// (CPN only; `None` otherwise). Exposed for tests.
    #[must_use]
    pub fn estimate(&self, graph: &Graph, u: usize, v: usize, dst: usize) -> Option<f64> {
        match &self.kind {
            RouterKind::Cpn { q, .. } => graph
                .neighbours(u)
                .iter()
                .position(|&x| x == v)
                .map(|k| q.row(u, dst)[k]),
            RouterKind::Table(_) => None,
        }
    }

    /// The model's best-case delay estimate from `src` to `dst`
    /// (minimum over next-hop candidates). NaN-propagating: one
    /// poisoned cell on the route makes the estimate NaN, so a
    /// supervisor watching this signal sees the corruption instead of
    /// a healthy-looking neighbour masking it. `None` for table
    /// routers (they hold no delay model).
    #[must_use]
    pub fn route_estimate(&self, src: usize, dst: usize) -> Option<f64> {
        let RouterKind::Cpn { q, .. } = &self.kind else {
            return None;
        };
        let row = q.row(src, dst);
        if row.is_empty() {
            return None;
        }
        let mut best = f64::INFINITY;
        for &e in row {
            if e.is_nan() {
                return Some(f64::NAN);
            }
            best = best.min(e);
        }
        Some(best)
    }
}

/// `NanPoison` overwrites every learned delay estimate with NaN;
/// `WeightScramble` inflates every cell by `gain` plus a
/// neighbour-index-dependent offset, which both perturbs the relative
/// ordering the routing relies on and blows the estimates away from
/// measured delays. Both are no-ops for table routers.
impl Corruptible for Router {
    fn poison(&mut self) {
        if let RouterKind::Cpn { q, .. } = &mut self.kind {
            q.cells.fill(f64::NAN);
        }
    }

    fn scramble(&mut self, gain: f64) {
        if let RouterKind::Cpn { q, .. } = &mut self.kind {
            let n = q.rows.len();
            for u in 0..n {
                for dst in 0..n {
                    for (k, cell) in q.row_mut(u, dst).iter_mut().enumerate() {
                        *cell = *cell * gain + (k as f64 + 1.0) * gain;
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            RouterKind::Table(Table { period: None, .. }) => "StaticShortest",
            RouterKind::Table(_) => "Periodic",
            RouterKind::Cpn { .. } => "Cpn",
        };
        f.debug_struct("Router").field("kind", &kind).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        simkernel::SeedTree::new(17).rng("route")
    }

    #[test]
    fn static_router_follows_bfs() {
        let g = Graph::grid(3, 3);
        let r = RoutingStrategy::StaticShortest.build(&g);
        let mut rr = rng();
        let mut at = 0;
        let mut prev = None;
        let mut hops = 0;
        while at != 8 {
            let nxt = r.next_hop(&g, at, 8, prev, false, &mut rr).unwrap();
            prev = Some(at);
            at = nxt;
            hops += 1;
            assert!(hops <= 4);
        }
        assert_eq!(hops, 4);
        assert!(r.next_hop(&g, 8, 8, None, false, &mut rr).is_none());
    }

    #[test]
    fn cpn_initialises_to_sensible_routes() {
        let g = Graph::grid(3, 3);
        let r = RoutingStrategy::cpn_default().build(&g);
        let mut rr = rng();
        // Greedy (dumb) packets follow near-shortest paths cold.
        let nxt = r.next_hop(&g, 0, 8, None, false, &mut rr).unwrap();
        assert!(nxt == 1 || nxt == 3);
    }

    #[test]
    fn cpn_learns_to_avoid_punished_link() {
        let g = Graph::grid(3, 3);
        let mut r = RoutingStrategy::Cpn {
            smart_ratio: 0.0,
            epsilon: 0.0,
        }
        .build(&g);
        let mut rr = rng();
        // Punish the 0→1 hop toward 8 until it is unattractive.
        for _ in 0..20 {
            r.reinforce_drop(&g, 0, 1, 8);
        }
        assert_eq!(r.next_hop(&g, 0, 8, None, false, &mut rr), Some(3));
        assert!(r.estimate(&g, 0, 1, 8).unwrap() > 100.0);
    }

    #[test]
    fn cpn_delivery_reinforces_fast_paths() {
        let g = Graph::grid(1, 3); // line: 0-1-2
        let mut r = RoutingStrategy::cpn_default().build(&g);
        // Inflate the estimate with drops, then verify deliveries pull
        // it back toward the measured two-tick delay.
        for _ in 0..10 {
            r.reinforce_drop(&g, 0, 1, 2);
        }
        let inflated = r.estimate(&g, 0, 1, 2).unwrap();
        assert!(inflated > 50.0);
        let log = vec![(0, Tick(0)), (1, Tick(1)), (2, Tick(2))];
        for _ in 0..60 {
            r.reinforce_delivery(&g, 2, &log);
        }
        let after = r.estimate(&g, 0, 1, 2).unwrap();
        assert!((after - 2.0).abs() < 0.2, "estimate {after}");
    }

    #[test]
    fn cpn_avoids_immediate_backtrack() {
        let g = Graph::grid(1, 3);
        let r = RoutingStrategy::Cpn {
            smart_ratio: 0.0,
            epsilon: 0.0,
        }
        .build(&g);
        let mut rr = rng();
        // At node 1 coming from 0, heading to 0... only neighbour
        // options are 0 and 2; prev damping skips 0 — unless it is the
        // only way. Heading to dst=0 the best is still 0? prev=Some(0)
        // and len>1 means it picks 2. Heading to dst 2 from prev 0:
        let nxt = r.next_hop(&g, 1, 2, Some(0), false, &mut rr);
        assert_eq!(nxt, Some(2));
    }

    #[test]
    fn smart_packets_only_for_cpn() {
        let g = Graph::grid(2, 2);
        let mut rr = rng();
        let stat = RoutingStrategy::StaticShortest.build(&g);
        assert!(!stat.is_smart(&mut rr));
        let cpn = RoutingStrategy::Cpn {
            smart_ratio: 1.0,
            epsilon: 0.5,
        }
        .build(&g);
        assert!(cpn.is_smart(&mut rr));
    }

    #[test]
    fn periodic_reroutes_around_congestion() {
        let g = Graph::grid(3, 3);
        let mut r = RoutingStrategy::Periodic { period: 10 }.build(&g);
        let mut rr = rng();
        // Initially BFS may route 0→8 via 1. Congest every link out of
        // node 1 heavily and maintain at a period boundary.
        r.maintain(&g, Tick(10), |u, v| if u == 1 || v == 1 { 100 } else { 0 });
        let nxt = r.next_hop(&g, 0, 8, None, false, &mut rr).unwrap();
        assert_eq!(nxt, 3, "should avoid congested node 1");
    }

    #[test]
    fn cpn_routes_around_cut_links_immediately() {
        let mut g = Graph::grid(3, 3);
        let r = RoutingStrategy::Cpn {
            smart_ratio: 0.0,
            epsilon: 0.0,
        }
        .build(&g);
        let mut rr = rng();
        // Cold init would route 0→2 via 1; cut 0-1 and the router must
        // detour down through 3 without any learning.
        g.remove_edge(0, 1);
        assert_eq!(r.next_hop(&g, 0, 2, None, false, &mut rr), Some(3));
        // Fully isolated node: no hop at all.
        g.remove_edge(0, 3);
        assert_eq!(r.next_hop(&g, 0, 2, None, false, &mut rr), None);
        // Smart exploration also never picks a dead link.
        let smart = RoutingStrategy::Cpn {
            smart_ratio: 1.0,
            epsilon: 1.0,
        }
        .build(&g);
        g.restore_edge(0, 3);
        for _ in 0..20 {
            assert_eq!(smart.next_hop(&g, 0, 2, None, true, &mut rr), Some(3));
        }
    }

    #[test]
    fn table_router_keeps_pointing_at_cut_link_until_recompute() {
        let mut g = Graph::grid(3, 3);
        let mut r = RoutingStrategy::Periodic { period: 10 }.build(&g);
        let mut rr = rng();
        g.remove_edge(0, 1);
        g.remove_edge(0, 3);
        // Stale table still points somewhere (the dead link).
        assert!(r.next_hop(&g, 0, 8, None, false, &mut rr).is_some());
        // After recompute the isolated node has no route.
        r.maintain(&g, Tick(10), |_, _| 0);
        assert_eq!(r.next_hop(&g, 0, 8, None, false, &mut rr), None);
    }

    /// Asserts that every `next_hop` of `r` on `g` equals `expected`,
    /// the eager tables `expected[dst][node]`.
    fn assert_routes(r: &Router, g: &Graph, expected: &[Vec<Option<usize>>]) {
        let mut rr = rng();
        for (dst, table) in expected.iter().enumerate() {
            for (at, &hop) in table.iter().enumerate() {
                let got = r.next_hop(g, at, dst, None, false, &mut rr);
                assert_eq!(got, hop, "next hop from {at} toward {dst}");
            }
        }
    }

    fn all_dsts(g: &Graph, f: impl Fn(usize) -> Vec<Option<usize>>) -> Vec<Vec<Option<usize>>> {
        (0..g.len()).map(f).collect()
    }

    /// A deterministic, uneven queue picture.
    fn queues(u: usize, v: usize) -> usize {
        (u * 7 + v * 3) % 11
    }

    #[test]
    fn lazy_tables_match_the_eager_computation_at_the_snapshot() {
        // On the chorded ring, breadth-first search and unit-cost
        // Dijkstra break ties differently, so hop-count tables must
        // keep the breadth-first order.
        let ring = Graph::ring_with_chords(12, 5);
        assert_ne!(
            all_dsts(&ring, |dst| ring.bfs_next_hops(dst)),
            all_dsts(&ring, |dst| ring.weighted_next_hops(dst, |_, _| 1.0)),
        );
        for mut g in [Graph::grid(4, 6), ring] {
            let cut_before = (1, g.neighbours(1)[1]);
            let cut_after = (4, g.neighbours(4)[0]);
            let cut_late = (0, g.neighbours(0)[0]);
            g.remove_edge(cut_before.0, cut_before.1);
            let bfs = all_dsts(&g, |dst| g.bfs_next_hops(dst));
            let mut stat = RoutingStrategy::StaticShortest.build(&g);
            let mut per = RoutingStrategy::Periodic { period: 25 }.build(&g);
            // Links cut or restored after the snapshot change nothing.
            g.restore_edge(cut_before.0, cut_before.1);
            g.remove_edge(cut_after.0, cut_after.1);
            assert_routes(&stat, &g, &bfs);
            assert_routes(&per, &g, &bfs);

            // A recompute snapshots the queues and the links up now.
            let weighted = all_dsts(&g, |dst| {
                g.weighted_next_hops(dst, |u, v| 1.0 + queues(u, v) as f64 / 4.0)
            });
            assert_ne!(bfs, weighted, "the queue picture must change some route");
            per.maintain(&g, Tick(50), queues);
            g.restore_edge(cut_after.0, cut_after.1);
            g.remove_edge(cut_late.0, cut_late.1);
            per.maintain(&g, Tick(51), |_, _| 0);
            assert_routes(&per, &g, &weighted);
            // StaticShortest never recomputes.
            stat.maintain(&g, Tick(50), queues);
            assert_routes(&stat, &g, &bfs);
        }
    }

    #[test]
    fn router_clones_keep_their_own_snapshot_before_and_after_lookups() {
        let mut g = Graph::grid(3, 4);
        let mut r = RoutingStrategy::Periodic { period: 10 }.build(&g);
        r.maintain(&g, Tick(10), queues);
        let at_snapshot = all_dsts(&g, |dst| {
            g.weighted_next_hops(dst, |u, v| 1.0 + queues(u, v) as f64 / 4.0)
        });
        let before_lookup = r.clone();
        assert_routes(&r, &g, &at_snapshot);
        let after_lookup = r.clone();
        let mut into_cpn = RoutingStrategy::cpn_default().build(&g);
        into_cpn.clone_from(&r);
        let mut into_table = RoutingStrategy::StaticShortest.build(&g);
        into_table.clone_from(&r);
        // The original recomputes on a cut graph; its clones must not.
        g.remove_edge(0, 1);
        g.remove_edge(5, 6);
        r.maintain(&g, Tick(20), |_, _| 0);
        let after = all_dsts(&g, |dst| g.weighted_next_hops(dst, |_, _| 1.0));
        assert_routes(&r, &g, &after);
        for clone in [&before_lookup, &after_lookup, &into_cpn, &into_table] {
            assert_routes(clone, &g, &at_snapshot);
        }
    }

    #[test]
    fn corruptions_follow_their_formulas() {
        let g = Graph::grid(3, 3);
        let mut r = RoutingStrategy::cpn_default().build(&g);
        r.reinforce_drop(&g, 0, 1, 8);
        let before = r.clone();
        // Cell `k` (the k-th neighbour) of every row: `c·gain + (k + 1)·gain`.
        r.scramble(4.0);
        for u in 0..g.len() {
            for (k, &v) in g.neighbours(u).iter().enumerate() {
                for d in 0..g.len() {
                    let c = before.estimate(&g, u, v, d).unwrap_or(f64::NAN);
                    assert_eq!(
                        r.estimate(&g, u, v, d),
                        Some(c * 4.0 + (k as f64 + 1.0) * 4.0)
                    );
                }
            }
        }
        r.poison();
        assert!(r.route_estimate(0, 8).is_some_and(f64::is_nan));
        // Table routers hold no delay model: both are no-ops.
        let mut table = RoutingStrategy::Periodic { period: 5 }.build(&g);
        table.scramble(4.0);
        table.poison();
        let mut a = rng();
        assert_eq!(table.next_hop(&g, 0, 8, None, false, &mut a), Some(1));
    }

    #[test]
    fn clone_from_copies_a_cpn_router_exactly() {
        let g = Graph::grid(3, 3);
        let mut src = RoutingStrategy::cpn_default().build(&g);
        for _ in 0..5 {
            src.reinforce_drop(&g, 0, 1, 8);
        }
        src.set_congestion(&[0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut dst = RoutingStrategy::cpn_default().build(&g);
        dst.clone_from(&src);
        let mut table = RoutingStrategy::StaticShortest.build(&g);
        table.clone_from(&src);
        for copy in [&dst, &table] {
            for u in 0..g.len() {
                for &v in g.neighbours(u) {
                    for d in 0..g.len() {
                        assert_eq!(
                            copy.estimate(&g, u, v, d).map(f64::to_bits),
                            src.estimate(&g, u, v, d).map(f64::to_bits)
                        );
                    }
                }
            }
            let (mut a, mut b) = (rng(), rng());
            for at in 0..g.len() {
                assert_eq!(
                    copy.next_hop(&g, at, 8, None, true, &mut a),
                    src.next_hop(&g, at, 8, None, true, &mut b)
                );
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(RoutingStrategy::StaticShortest.label(), "static-shortest");
        assert_eq!(
            RoutingStrategy::Periodic { period: 50 }.label(),
            "periodic(50)"
        );
        assert_eq!(RoutingStrategy::cpn_default().label(), "cpn");
    }
}
