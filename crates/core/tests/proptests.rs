//! Property-based tests for the self-awareness framework's core data
//! structures and learners.

use proptest::prelude::*;
use selfaware::knowledge::KnowledgeBase;
use selfaware::models::bandit::{Bandit, EpsilonGreedy, Exp3, SoftmaxBandit, Ucb1};
use selfaware::models::drift::{Cusum, DriftDetector, PageHinkley, WindowDrift};
use selfaware::models::holt::Holt;
use selfaware::models::qlearn::QLearner;
use selfaware::models::{Forecaster, OnlineModel};
use selfaware::sensors::{Percept, Scope};
use simkernel::{SeedTree, Tick};

proptest! {
    #[test]
    fn knowledge_base_window_is_bounded(
        capacity in 1usize..64,
        n in 0u64..500,
    ) {
        let mut kb = KnowledgeBase::new(capacity);
        for t in 0..n {
            kb.absorb(&Percept::new("s", t as f64, Scope::Public, Tick(t)));
        }
        if n > 0 {
            let h = kb.history("s").unwrap();
            prop_assert!(h.len() <= capacity);
            prop_assert_eq!(h.stats().count(), n);
            prop_assert_eq!(kb.last("s"), Some((n - 1) as f64));
            // The window holds exactly the most recent values.
            let vals = h.values();
            let expected: Vec<f64> = (n.saturating_sub(capacity as u64)..n)
                .map(|x| x as f64)
                .collect();
            prop_assert_eq!(vals, expected);
        }
    }

    #[test]
    fn bandit_estimates_stay_in_reward_hull(
        rewards in proptest::collection::vec(0.0f64..1.0, 1..200),
        seed in any::<u64>(),
    ) {
        // Feed arbitrary rewards; value estimates must remain within
        // the convex hull of observed rewards (plus the 0 prior).
        let mut eg = EpsilonGreedy::new(3, 0.3, None);
        let mut ucb = Ucb1::new(3, 1.4);
        let mut sm = SoftmaxBandit::new(3, 0.5, 0.2);
        let mut rng = SeedTree::new(seed).rng("b");
        for &r in &rewards {
            for b in [&mut eg as &mut dyn Bandit, &mut ucb, &mut sm] {
                let arm = b.select(&mut rng);
                b.update(arm, r);
            }
        }
        for b in [&eg as &dyn Bandit, &ucb, &sm] {
            for arm in 0..3 {
                let v = b.expected(arm);
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "estimate {v}");
            }
            prop_assert!(b.best_arm() < 3);
        }
    }

    #[test]
    fn exp3_preferences_form_distribution(
        pulls in 1u32..300,
        gamma in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut b = Exp3::new(4, gamma);
        let mut rng = SeedTree::new(seed).rng("e");
        for i in 0..pulls {
            let arm = b.select(&mut rng);
            b.update(arm, f64::from(i % 2));
        }
        let total: f64 = (0..4).map(|a| b.expected(a)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qlearner_values_bounded_by_reward_bound(
        transitions in proptest::collection::vec((0usize..3, 0usize..2, 0.0f64..1.0, 0usize..3), 1..300),
        gamma in 0.0f64..0.95,
    ) {
        let mut q = QLearner::new(3, 2, 0.5, gamma, 0.1);
        for &(s, a, r, s2) in &transitions {
            q.update(s, a, r, s2);
        }
        // With rewards in [0,1], values are bounded by 1/(1-γ).
        let bound = 1.0 / (1.0 - gamma) + 1e-6;
        for s in 0..3 {
            for a in 0..2 {
                let v = q.q_value(s, a);
                prop_assert!((0.0 - 1e-9..=bound).contains(&v), "q {v} bound {bound}");
            }
        }
    }

    #[test]
    fn holt_fits_any_affine_signal_exactly(
        intercept in -100.0f64..100.0,
        slope in -10.0f64..10.0,
    ) {
        let mut m = Holt::new(0.9, 0.9);
        for t in 0..200 {
            m.observe(intercept + slope * f64::from(t));
        }
        let truth = intercept + slope * 200.0;
        prop_assert!((m.forecast().unwrap() - truth).abs() < 1e-3 * (1.0 + truth.abs()));
    }

    #[test]
    fn detectors_quiet_on_constant_streams(
        level in -100.0f64..100.0,
        n in 10usize..500,
    ) {
        let mut ph = PageHinkley::new(0.05, 10.0);
        let mut cu = Cusum::new(0.25, 8.0);
        let mut wd = WindowDrift::new(8, 4.0);
        for _ in 0..n {
            prop_assert!(!ph.observe(level));
            prop_assert!(!cu.observe(level));
            prop_assert!(!wd.observe(level));
        }
        prop_assert_eq!(ph.detections() + cu.detections() + wd.detections(), 0);
    }

    #[test]
    fn detectors_catch_large_steps(
        level in -10.0f64..10.0,
        jump in 5.0f64..50.0,
        up in any::<bool>(),
    ) {
        let shift = if up { jump } else { -jump };
        let mut ph = PageHinkley::new(0.05, 10.0);
        let mut wd = WindowDrift::new(8, 4.0);
        for _ in 0..100 {
            ph.observe(level);
            wd.observe(level);
        }
        let mut ph_fired = false;
        let mut wd_fired = false;
        for _ in 0..100 {
            ph_fired |= ph.observe(level + shift);
            wd_fired |= wd.observe(level + shift);
        }
        prop_assert!(ph_fired, "page-hinkley missed a {shift} step");
        prop_assert!(wd_fired, "window drift missed a {shift} step");
    }

    #[test]
    fn attention_selection_within_budget_and_unique(
        n in 1usize..20,
        budget in 0.0f64..25.0,
        seed in any::<u64>(),
    ) {
        use selfaware::attention::AttentionAllocator;
        let a = AttentionAllocator::new(n, 0.2, 0.1);
        let mut rng = SeedTree::new(seed).rng("a");
        let picked = a.select(budget, Tick(0), &mut rng);
        prop_assert!(picked.len() <= budget as usize);
        prop_assert!(picked.len() <= n);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), picked.len());
        prop_assert!(picked.iter().all(|&i| i < n));
    }

    #[test]
    fn explanation_roundtrips_through_display(
        action in "[a-z]{1,10}",
        utility in -10.0f64..10.0,
    ) {
        use selfaware::explain::Explanation;
        let e = Explanation::new(Tick(1), action.clone()).expecting(utility);
        let s = e.to_string();
        prop_assert!(s.contains(&action));
        prop_assert!(s.contains("chose"));
    }
}
