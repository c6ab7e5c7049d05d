//! T5 — collective awareness without a global component. See EXPERIMENTS.md.

use super::{Experiment, Output};
use selfaware::collective::{centralized_estimate, hierarchical_estimate, GossipNetwork};
use simkernel::{MetricSet, Replications, SeedTree, Table};

/// One T5 replicate: collective estimation with `n` nodes under the
/// three architectures. Public so the parity tests can compare
/// sequential and parallel runs of the exact scenario.
#[must_use]
pub fn t5_scenario(n: usize, seeds: SeedTree) -> MetricSet {
    use rand::Rng as _;
    let mut rng = seeds.rng("obs");
    // Each node observes a global quantity plus noise.
    let truth = 20.0;
    let obs: Vec<f64> = (0..n).map(|_| truth + rng.gen_range(-2.0..2.0)).collect();
    let sample_mean = obs.iter().sum::<f64>() / n as f64;

    let central = centralized_estimate(&obs);
    let hier = hierarchical_estimate(&obs, 4);
    let mut gossip = GossipNetwork::new(obs.clone());
    let mut grng = seeds.rng("gossip");
    // Rounds ~ log2(n) * 4 suffice for tight convergence.
    let rounds = (4.0 * (n as f64).log2()).ceil() as u32;
    gossip.run(rounds, &mut grng);
    let gout = gossip.outcome();

    let mut m = MetricSet::new();
    m.set("central_err", central.mean_abs_error(sample_mean));
    m.set("central_msgs", central.messages as f64);
    m.set("central_load", central.max_node_load as f64);
    m.set("hier_err", hier.mean_abs_error(sample_mean));
    m.set("hier_msgs", hier.messages as f64);
    m.set("hier_load", hier.max_node_load as f64);
    m.set("gossip_err", gout.mean_abs_error(sample_mean));
    m.set("gossip_msgs", gout.messages as f64);
    m.set("gossip_load", gout.max_node_load as f64);
    m
}

/// T5 — collective awareness without a global component: accuracy vs
/// coordination cost vs hot-spot load, over network sizes.
#[must_use]
pub fn run_t5(reps: u32) -> Table {
    let mut table = Table::new(
        format!("T5: collective estimation architectures ({reps} reps)"),
        &[
            "N",
            "architecture",
            "node error",
            "messages",
            "hot-spot load",
        ],
    );
    let sizes = [10usize, 50, 200];
    let aggs = Replications::new(0x75, reps).run_matrix(&sizes, |&n, seeds| t5_scenario(n, seeds));
    for (n, agg) in sizes.iter().zip(&aggs) {
        for arch in ["central", "hier", "gossip"] {
            table.row_owned(vec![
                n.to_string(),
                arch.to_string(),
                format!("{:.4}", agg.mean(&format!("{arch}_err"))),
                format!("{:.0}", agg.mean(&format!("{arch}_msgs"))),
                format!("{:.0}", agg.mean(&format!("{arch}_load"))),
            ]);
        }
    }
    table
}

/// Replicates per network size `sas-bench run t5` uses.
const REPLICATES: u32 = 10;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "t5",
    has_smoke: false,
    run: |_| Output::text(run_t5(REPLICATES)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t5_gossip_has_no_hotspot() {
        let t = run_t5(3);
        assert_eq!(t.len(), 9);
        // For N=200 rows (last three), gossip hot-spot load should be
        // far below central's.
        let central_load: f64 = t.cell(6, 4).unwrap().parse().unwrap();
        let gossip_load: f64 = t.cell(8, 4).unwrap().parse().unwrap();
        assert!(gossip_load < central_load / 4.0);
    }
}
