//! Heterogeneity metrics: how *different* have the cameras become?
//!
//! Lewis et al. \[12, 13\] quantify emergent behavioural heterogeneity
//! by comparing the learned policies of the network's entities. Here a
//! camera's policy is its behavioural ask distribution
//! ([`crate::affinity::InviteCounts::ask_distribution`]); network
//! heterogeneity is the mean pairwise Jensen–Shannon divergence
//! between those distributions. Homogeneous networks (everyone
//! broadcasts, or everyone uses the same prior) score 0; networks
//! whose members have specialised score high.

/// Jensen–Shannon divergence between two discrete distributions, in
/// nats. Symmetric, bounded by `ln 2`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn jensen_shannon(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution dimension mismatch");
    fn kl_term(x: f64, m: f64) -> f64 {
        if x <= 0.0 || m <= 0.0 {
            0.0
        } else {
            x * (x / m).ln()
        }
    }
    let mut js = 0.0;
    for (&a, &b) in p.iter().zip(q) {
        let m = 0.5 * (a + b);
        js += 0.5 * kl_term(a, m) + 0.5 * kl_term(b, m);
    }
    js.max(0.0)
}

/// Mean pairwise Jensen–Shannon divergence across a set of policy
/// distributions — the network heterogeneity score used in F1.
///
/// Returns 0 for fewer than two policies.
#[must_use]
pub fn policy_divergence(policies: &[Vec<f64>]) -> f64 {
    let n = policies.len();
    if n < 2 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut pairs = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += jensen_shannon(&policies[i], &policies[j]);
            pairs += 1;
        }
    }
    sum / pairs as f64
}

/// Shannon entropy of a distribution, in nats. Used as a per-camera
/// specialisation measure (low entropy = focused ask-set).
#[must_use]
pub fn entropy(p: &[f64]) -> f64 {
    -p.iter()
        .filter(|&&x| x > 0.0)
        .map(|&x| x * x.ln())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn js_identical_is_zero() {
        let p = vec![0.25, 0.25, 0.5];
        assert!(jensen_shannon(&p, &p) < 1e-12);
    }

    #[test]
    fn js_disjoint_is_ln2() {
        let p = vec![1.0, 0.0];
        let q = vec![0.0, 1.0];
        assert!((jensen_shannon(&p, &q) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn js_is_symmetric() {
        let p = vec![0.7, 0.2, 0.1];
        let q = vec![0.1, 0.3, 0.6];
        assert!((jensen_shannon(&p, &q) - jensen_shannon(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn divergence_zero_for_homogeneous() {
        let same = vec![vec![0.5, 0.5]; 6];
        assert!(policy_divergence(&same) < 1e-12);
    }

    #[test]
    fn divergence_positive_for_specialised() {
        let policies = vec![
            vec![0.9, 0.05, 0.05],
            vec![0.05, 0.9, 0.05],
            vec![0.05, 0.05, 0.9],
        ];
        assert!(policy_divergence(&policies) > 0.3);
    }

    #[test]
    fn divergence_degenerate_inputs() {
        assert_eq!(policy_divergence(&[]), 0.0);
        assert_eq!(policy_divergence(&[vec![1.0]]), 0.0);
    }

    #[test]
    fn entropy_extremes() {
        assert!(entropy(&[1.0, 0.0]) < 1e-12);
        let uniform = vec![0.25; 4];
        assert!((entropy(&uniform) - (4.0_f64).ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distribution dimension mismatch")]
    fn js_dim_mismatch_panics() {
        let _ = jensen_shannon(&[1.0], &[0.5, 0.5]);
    }
}
