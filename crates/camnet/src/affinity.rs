//! The network's learned affinity state in struct-of-arrays layout.
//!
//! Each camera learns one affinity score and one invite count per
//! peer. Storing those rows inside each [`crate::camera::Camera`]
//! (array-of-structs) scattered the hottest data of the auction loop
//! across `n` separate heap allocations and forced the
//! staleness-blend path to clone a row per auction. The whole
//! network's state lives in two contiguous row-major buffers instead,
//! so the per-auction hot path (affinity reads, auction updates)
//! touches one cache-friendly slab and never allocates.
//!
//! The two buffers are separate types because only the scores are the
//! learned *model*: [`AffinityTable`] is what a
//! [`Supervisor`](selfaware::supervision::Supervisor) holds,
//! checkpoints and rolls back (one flat copy, not `n` row clones),
//! while [`InviteCounts`] is a record of what the cameras did, which a
//! rollback leaves alone.

use selfaware::supervision::Corruptible;

/// Row-major `n × n` learned affinity scores for the whole camera
/// network: `affinity[me * n + other]` is camera `me`'s learned
/// affinity toward camera `other`.
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityTable {
    n: usize,
    affinity: Vec<f64>,
}

impl AffinityTable {
    /// Prior affinity before any handover evidence.
    pub const PRIOR: f64 = 0.5;

    /// Creates the table for an `n`-camera network, every score at
    /// [`Self::PRIOR`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            affinity: vec![Self::PRIOR; n * n],
        }
    }

    /// Camera `me`'s learned affinity for camera `other`
    /// (probability-like score that inviting them to an auction is
    /// worthwhile).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn affinity(&self, me: usize, other: usize) -> f64 {
        assert!(me < self.n && other < self.n, "camera index out of range");
        self.affinity[me * self.n + other]
    }

    /// Updates camera `me`'s affinity for `other` after an auction
    /// they were invited to: `won` is whether they took the object
    /// over.
    ///
    /// Wins reinforce strongly; losses decay gently (losing one
    /// auction usually means "the object was not near you this time",
    /// not "you are never useful" — an asymmetry Esterle-style
    /// pheromone link strengths share).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record_auction(&mut self, me: usize, other: usize, won: bool) {
        assert!(me < self.n && other < self.n, "camera index out of range");
        let a = &mut self.affinity[me * self.n + other];
        if won {
            *a += 0.3 * (1.0 - *a);
        } else {
            *a *= 0.94;
        }
    }

    /// Mean of every affinity score (row-major accumulation order).
    /// NaN poison anywhere in the table surfaces here immediately.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.affinity.iter().sum::<f64>() / self.affinity.len().max(1) as f64
    }
}

/// `NanPoison` overwrites every score; `WeightScramble` maps each score
/// `a` to `(a − 1) · gain`, pushing it far below any invitation
/// threshold, so the network forgets who its useful neighbours are.
impl Corruptible for AffinityTable {
    fn poison(&mut self) {
        self.affinity.fill(f64::NAN);
    }

    fn scramble(&mut self, gain: f64) {
        for a in &mut self.affinity {
            *a = (*a - 1.0) * gain;
        }
    }
}

/// Row-major `n × n` invitation counts: `count(me, other)` is how
/// often camera `me` has invited camera `other` to an auction.
#[derive(Debug, Clone, PartialEq)]
pub struct InviteCounts {
    n: usize,
    invites: Vec<u64>,
}

impl InviteCounts {
    /// Every count at zero for an `n`-camera network.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            invites: vec![0; n * n],
        }
    }

    /// Counts one invitation of `other` by `me`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, me: usize, other: usize) {
        assert!(me < self.n && other < self.n, "camera index out of range");
        self.invites[me * self.n + other] += 1;
    }

    /// Times camera `me` has invited camera `other`.
    #[must_use]
    pub fn count(&self, me: usize, other: usize) -> u64 {
        assert!(me < self.n && other < self.n, "camera index out of range");
        self.invites[me * self.n + other]
    }

    /// Camera `me`'s *behavioural* ask distribution: the proportion of
    /// auction invitations actually sent to each peer. This — not the
    /// learned scores — is what the F1 heterogeneity metric compares,
    /// because a broadcast camera may *learn* distinct affinities yet
    /// still ask everyone (behaviourally homogeneous), while a
    /// self-aware camera's invitations themselves specialise. Uniform
    /// over peers until the first invitation.
    #[must_use]
    pub fn ask_distribution(&self, me: usize) -> Vec<f64> {
        let row = &self.invites[me * self.n..(me + 1) * self.n];
        let total: u64 = row.iter().sum();
        if total == 0 {
            let mut v = vec![1.0 / (self.n.max(2) - 1) as f64; self.n];
            v[me] = 0.0;
            return v;
        }
        let mut v: Vec<f64> = row.iter().map(|&c| c as f64).collect();
        v[me] = 0.0;
        normalise(&mut v);
        v
    }
}

fn normalise(v: &mut [f64]) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_learning_moves_toward_outcomes() {
        let mut t = AffinityTable::new(4);
        assert_eq!(t.affinity(0, 1), AffinityTable::PRIOR);
        for _ in 0..50 {
            t.record_auction(0, 1, true);
            t.record_auction(0, 2, false);
        }
        assert!(t.affinity(0, 1) > 0.95);
        assert!(t.affinity(0, 2) < 0.05);
        // Other rows untouched.
        assert_eq!(t.affinity(1, 2), AffinityTable::PRIOR);
    }

    #[test]
    fn invite_counts_are_per_pair() {
        let mut c = InviteCounts::new(4);
        for _ in 0..50 {
            c.record(0, 1);
        }
        assert_eq!(c.count(0, 1), 50);
        assert_eq!(c.count(0, 3), 0);
        assert_eq!(c.count(1, 0), 0);
    }

    #[test]
    fn ask_distribution_uniform_before_any_invites() {
        let c = InviteCounts::new(4);
        let d = c.ask_distribution(1);
        assert_eq!(d[1], 0.0);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((d[0] - d[2]).abs() < 1e-12);
    }

    #[test]
    fn ask_distribution_reflects_actual_invitations() {
        let mut c = InviteCounts::new(4);
        for _ in 0..9 {
            c.record(0, 1);
        }
        c.record(0, 2);
        let d = c.ask_distribution(0);
        assert!((d[1] - 0.9).abs() < 1e-9);
        assert!((d[2] - 0.1).abs() < 1e-9);
        assert_eq!(d[3], 0.0);
    }

    #[test]
    fn corruptions_hit_every_score() {
        // From the 0.5 prior: the `(a − 1) · gain` scramble, then NaN
        // poison.
        let mut t = AffinityTable::new(3);
        t.scramble(30.0);
        assert!(t.affinity.iter().all(|&a| a == -15.0));
        t.poison();
        assert!(t.affinity.iter().all(|a| a.is_nan()) && t.mean().is_nan());
    }

    #[test]
    fn mean_is_the_row_major_average() {
        let mut t = AffinityTable::new(3);
        t.record_auction(1, 2, true);
        let expect = (8.0 * 0.5 + 0.65) / 9.0;
        assert!((t.mean() - expect).abs() < 1e-15);
    }

    #[test]
    fn rollback_restores_scores_and_leaves_invites_alone() {
        use selfaware::explain::ExplanationLog;
        use selfaware::supervision::{Anomaly, Evidence, ModelCorruptionKind, Supervisor, Verdict};
        use simkernel::Tick;

        let mut log = ExplanationLog::new(16);
        let mut scores = Supervisor::new("camera-affinities", AffinityTable::new(3));
        let mut invites = InviteCounts::new(3);
        let mut auction = |scores: &mut Supervisor<AffinityTable>, won: bool| {
            scores.model_mut().record_auction(0, 1, won);
            invites.record(0, 1);
        };
        // Quiet ticks; the last checkpoint is taken at t = 50.
        for t in 0..=50u64 {
            auction(&mut scores, true);
            let mean = scores.model().mean();
            scores.observe(Tick(t), Evidence::scored(mean, 0.1), &mut log);
        }
        assert_eq!(scores.stats().checkpoints, 2);
        let checkpointed = scores.model().clone();
        // More learning after the checkpoint, then a NaN poison.
        for _ in 0..5 {
            auction(&mut scores, false);
        }
        scores.corrupt(ModelCorruptionKind::NanPoison, Tick(51));
        let verdict = scores.observe(
            Tick(51),
            Evidence::scored(scores.model().mean(), 0.1),
            &mut log,
        );
        assert_eq!(verdict, Verdict::RolledBack(Anomaly::NonFinite));
        assert_eq!(scores.model(), &checkpointed, "scores restored");
        assert_eq!(invites.count(0, 1), 56, "invites untouched");
    }

    #[test]
    #[should_panic(expected = "camera index out of range")]
    fn out_of_range_read_panics() {
        let t = AffinityTable::new(2);
        let _ = t.affinity(0, 2);
    }
}
