//! The run's router, held in its [`Supervisor`].
//!
//! [`SupervisedRouter`] is the one place a run's router lives, in
//! `cpn::sim` and in the composed city alike. Under
//! [`RoutingStrategy::SupervisedCpn`] the supervisor checkpoints the
//! learned router, scores its best-case route-delay estimates against
//! an EWMA of realized delivery delays, and, while the model is
//! benched, packets route on a periodically recomputed table instead.
//! Every other strategy's router is held unwatched, with no baseline.

use crate::graph::Graph;
use crate::routing::{Router, RoutingStrategy};
use selfaware::explain::ExplanationLog;
use selfaware::replay::InterventionMask;
use selfaware::supervision::{Evidence, Supervisor};
use simkernel::rng::Rng;
use simkernel::Tick;

/// A run's router in its supervisor, with the periodic-table baseline
/// that routes while a supervised model is benched.
#[derive(Debug, Clone)]
pub struct SupervisedRouter {
    sup: Supervisor<Router>,
    /// `Periodic { period: 25 }`, for supervised strategies only.
    baseline: Option<Router>,
    /// EWMA of realized delivery delay: the ground truth the model's
    /// delay estimates are scored against.
    realized: Option<f64>,
}

impl SupervisedRouter {
    /// Builds `strategy`'s router for `graph`, watched by a supervisor
    /// named `name` under `mask` for [`RoutingStrategy::SupervisedCpn`]
    /// and unwatched otherwise.
    #[must_use]
    pub fn new(
        strategy: RoutingStrategy,
        graph: &Graph,
        name: &str,
        mask: InterventionMask,
    ) -> Self {
        let router = strategy.build(graph);
        let (sup, baseline) = if matches!(strategy, RoutingStrategy::SupervisedCpn { .. }) {
            let baseline = RoutingStrategy::Periodic { period: 25 }.build(graph);
            (
                Supervisor::new(name, router).with_mask(mask),
                Some(baseline),
            )
        } else {
            (Supervisor::unwatched(name, router), None)
        };
        Self {
            sup,
            baseline,
            realized: None,
        }
    }

    /// The supervisor holding the learned router: model faults, the
    /// freeze window and the supervision counters live there.
    #[must_use]
    pub fn supervisor(&self) -> &Supervisor<Router> {
        &self.sup
    }

    /// Mutable access to the supervisor (to apply a model fault).
    pub fn supervisor_mut(&mut self) -> &mut Supervisor<Router> {
        &mut self.sup
    }

    /// The learned (or only) router.
    #[must_use]
    pub fn learner(&self) -> &Router {
        self.sup.model()
    }

    /// The learned router, for reinforcement (see
    /// [`Supervisor::model_mut`]).
    pub fn learner_mut(&mut self) -> &mut Router {
        self.sup.model_mut()
    }

    /// [`Router::maintain`] on the baseline and on the learned router,
    /// unless a `StateFreeze` holds the learner (a periodic recompute
    /// is a table router's learning).
    pub fn maintain<Q: Fn(usize, usize) -> usize>(
        &mut self,
        graph: &Graph,
        now: Tick,
        queue_len: Q,
    ) {
        if !self.sup.frozen(now) {
            self.sup.model_mut().maintain(graph, now, &queue_len);
        }
        if let Some(b) = &mut self.baseline {
            b.maintain(graph, now, &queue_len);
        }
    }

    /// [`Router::set_congestion`] on both routers.
    pub fn set_congestion(&mut self, congestion: &[f64]) {
        self.sup.model_mut().set_congestion(congestion);
        if let Some(b) = &mut self.baseline {
            b.set_congestion(congestion);
        }
    }

    /// Whether a new packet is smart: never while benched (the table
    /// fallback has no smart packets, and no randomness is drawn).
    pub fn is_smart(&self, rng: &mut Rng) -> bool {
        !self.sup.is_fallback() && self.learner().is_smart(rng)
    }

    /// [`Router::next_hop`] on the baseline while benched, on the
    /// learned router otherwise.
    pub fn next_hop(
        &self,
        graph: &Graph,
        at: usize,
        dst: usize,
        prev: Option<usize>,
        smart: bool,
        rng: &mut Rng,
    ) -> Option<usize> {
        match &self.baseline {
            Some(b) if self.sup.is_fallback() => b.next_hop(graph, at, dst, prev, false, rng),
            _ => self.learner().next_hop(graph, at, dst, prev, smart, rng),
        }
    }

    /// Scores the tick and walks the supervisor's ladder, recording
    /// transitions in `log`; a no-op when unwatched. The `delivered`
    /// packets' `delay_sum` feeds the realized EWMA (0.9 old, 0.1
    /// new); the model's estimate is its mean best-case delay over the
    /// `(src, dst)` pairs in `routes`, and the error charged is
    /// `|estimate − realized|`.
    pub fn observe(
        &mut self,
        now: Tick,
        delay_sum: f64,
        delivered: u64,
        routes: impl IntoIterator<Item = (usize, usize)>,
        log: &mut ExplanationLog,
    ) {
        if !self.sup.is_watching() {
            return;
        }
        if delivered > 0 {
            let mean = delay_sum / delivered as f64;
            self.realized = Some(self.realized.map_or(mean, |r| 0.9 * r + 0.1 * mean));
        }
        let realized = self.realized.unwrap_or(0.0);
        let (mut est_sum, mut est_n) = (0.0, 0u32);
        for (src, dst) in routes {
            if let Some(e) = self.learner().route_estimate(src, dst) {
                est_sum += e;
                est_n += 1;
            }
        }
        let estimate = if est_n > 0 {
            est_sum / f64::from(est_n)
        } else {
            realized
        };
        let error = (estimate - realized).abs();
        let evidence = Evidence::scored(estimate, error).with_input(realized);
        self.sup.observe(now, evidence, log);
    }
}
