//! T6 — attention under a monitoring budget. See EXPERIMENTS.md.

use super::{Experiment, Output, REPS};
use simkernel::table::{num, num_ci};
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};

/// Number of monitored signals in T6.
pub const T6_SIGNALS: usize = 16;

/// One T6 replicate: [`T6_SIGNALS`] drifting signals monitored under
/// `budget` probes per tick by the attention, round-robin, and random
/// policies. Public so the parity tests can compare sequential and
/// parallel runs of the exact scenario.
#[must_use]
pub fn t6_scenario(budget: usize, steps: u64, seeds: SeedTree) -> MetricSet {
    use rand::Rng as _;
    use selfaware::attention::AttentionAllocator;
    let n_signals = T6_SIGNALS;
    let mut world_rng = seeds.rng("world");
    // Signals: a few fast random walks, the rest near-static.
    let volatilities: Vec<f64> = (0..n_signals)
        .map(|i| if i % 4 == 0 { 1.0 } else { 0.02 })
        .collect();
    let mut truth: Vec<f64> = vec![0.0; n_signals];

    let mut attn = AttentionAllocator::new(n_signals, 0.1, 0.05);
    let mut beliefs = vec![vec![0.0f64; n_signals]; 3]; // attn, rr, random
    let mut errors = [0.0f64; 3];
    let mut rr_next = 0usize;
    let mut policy_rng = seeds.rng("policy");
    let mut samples = 0u64;
    for t in 0..steps {
        // World moves.
        for i in 0..n_signals {
            truth[i] += world_rng.gen_range(-volatilities[i]..=volatilities[i]);
        }
        // Attention policy.
        let picked = attn.select(budget as f64, Tick(t), &mut policy_rng);
        for &i in &picked {
            attn.feed(i, truth[i], Tick(t));
            beliefs[0][i] = truth[i];
        }
        // Round-robin policy.
        for _ in 0..budget {
            let i = rr_next % n_signals;
            rr_next += 1;
            beliefs[1][i] = truth[i];
        }
        // Random policy.
        for _ in 0..budget {
            let i = policy_rng.gen_range(0..n_signals);
            beliefs[2][i] = truth[i];
        }
        // Score: mean absolute belief error across signals.
        for (p, belief) in beliefs.iter().enumerate() {
            let err: f64 = belief
                .iter()
                .zip(&truth)
                .map(|(b, t)| (b - t).abs())
                .sum::<f64>()
                / n_signals as f64;
            errors[p] += err;
        }
        samples += 1;
    }
    let mut m = MetricSet::new();
    m.set("attention", errors[0] / samples as f64);
    m.set("round_robin", errors[1] / samples as f64);
    m.set("random", errors[2] / samples as f64);
    m
}

/// T6 — attention under a monitoring budget: utility of budgeted
/// sensing policies on a field of drifting signals.
#[must_use]
pub fn run_t6(reps: u32, steps: u64) -> Table {
    let n_signals = T6_SIGNALS;
    let mut table = Table::new(
        format!(
            "T6: monitoring under budget ({n_signals} signals, {steps} ticks, {reps} reps; \
             cell = mean tracking error, lower is better)"
        ),
        &[
            "budget",
            "attention",
            "round-robin",
            "random",
            "attn advantage",
        ],
    );
    let budgets = [1usize, 2, 4, 8];
    let aggs = Replications::new(0x76, reps)
        .run_matrix(&budgets, |&budget, seeds| t6_scenario(budget, steps, seeds));
    for (budget, agg) in budgets.iter().zip(&aggs) {
        let a = agg.mean("attention");
        let rr = agg.mean("round_robin");
        let rnd = agg.mean("random");
        table.row_owned(vec![
            budget.to_string(),
            num_ci(a, agg.ci95("attention")),
            num(rr),
            num(rnd),
            format!("{:+.1}%", (1.0 - a / rr.min(rnd)) * 100.0),
        ]);
    }
    table
}

/// Horizon `sas-bench run t6` uses, in ticks.
const STEPS: u64 = 4_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "t6",
    has_smoke: false,
    run: |_| Output::text(run_t6(REPS, STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t6_attention_beats_baselines_at_tight_budget() {
        let t = run_t6(2, 1500);
        assert_eq!(t.len(), 4);
        let a: f64 = t
            .cell(0, 1)
            .unwrap()
            .split('±')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let rr: f64 = t.cell(0, 2).unwrap().parse().unwrap();
        assert!(
            a < rr,
            "attention error {a} should beat round-robin {rr} at budget 1"
        );
    }
}
