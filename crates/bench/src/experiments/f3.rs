//! F3 — meta-self-awareness under concept drift. See EXPERIMENTS.md.

use super::{Experiment, Output};
use selfaware::meta::ModelPool;
use selfaware::models::ar::ArModel;
use selfaware::models::ewma::Ewma;
use selfaware::models::holt::Holt;
use selfaware::models::Forecaster;
use simkernel::series::render_multi;
use simkernel::table::num;
use simkernel::{par_map, SeedTree, Table, Tick, TimeSeries};
use std::fmt::Write as _;

/// F3 — meta-self-awareness under concept drift: fixed forecasters vs
/// the self-selecting model pool on a regime-switching signal.
#[must_use]
pub fn run_f3(steps: u64) -> String {
    use workloads::signal::{SignalGen, SignalSpec};
    let regimes = vec![
        (0, SignalSpec::Flat { level: 10.0 }),
        (
            steps / 4,
            SignalSpec::Trend {
                start: 10.0,
                slope: 0.3,
            },
        ),
        (
            steps / 2,
            SignalSpec::Oscillation {
                center: 40.0,
                amplitude: 8.0,
                period: 40.0,
            },
        ),
        (3 * steps / 4, SignalSpec::Flat { level: 25.0 }),
    ];
    // One worker per model. Each regenerates the (seed-deterministic)
    // signal independently and records its per-tick absolute error;
    // the joint warm-up gating and windowing run sequentially over
    // the recorded traces afterwards, so the printed figures are
    // identical to the old single-loop version.
    let model_ids: [usize; 4] = [0, 1, 2, 3];
    let traces: Vec<(Vec<Option<f64>>, u32)> = par_map(&model_ids, |&which| {
        let mut gen = SignalGen::new(regimes.clone(), 0.5, SeedTree::new(0xF3).rng("signal"));
        let mut fixed: Option<Box<dyn Forecaster>> = match which {
            0 => Some(Box::new(Ewma::new(0.3))),
            1 => Some(Box::new(Holt::new(0.5, 0.3))),
            2 => Some(Box::new(ArModel::new(2, 64))),
            _ => None,
        };
        let mut pool = ModelPool::new(0.1, 8);
        if fixed.is_none() {
            pool.add("ewma", Box::new(Ewma::new(0.3)));
            pool.add("holt", Box::new(Holt::new(0.5, 0.3)));
            pool.add("ar", Box::new(ArModel::new(2, 64)));
        }
        let mut errs = Vec::with_capacity(steps as usize);
        for t in 0..steps {
            let x = gen.sample(Tick(t));
            let pred = match &fixed {
                Some(model) => model.forecast(),
                None => pool.forecast(),
            };
            errs.push(pred.map(|p| (p - x).abs()));
            match &mut fixed {
                Some(model) => model.observe(x),
                None => pool.observe(x),
            }
        }
        (errs, pool.switches())
    });
    let pool_switches = traces[3].1;

    let mut err_series: Vec<TimeSeries> = ["ewma", "holt", "ar", "meta-pool"]
        .iter()
        .map(|n| TimeSeries::new(*n))
        .collect();
    let mut total_err = [0.0f64; 4];
    let mut count = 0u64;
    let mut window_err = [0.0f64; 4];
    let mut window_n = 0u64;

    for t in 0..steps {
        let errs: Vec<Option<f64>> = traces.iter().map(|(e, _)| e[t as usize]).collect();
        if errs.iter().all(Option::is_some) {
            for (i, e) in errs.iter().enumerate() {
                let e = e.unwrap();
                total_err[i] += e;
                window_err[i] += e;
            }
            count += 1;
            window_n += 1;
        }
        if t % 50 == 49 && window_n > 0 {
            for (i, s) in err_series.iter_mut().enumerate() {
                s.push(Tick(t), window_err[i] / window_n as f64);
            }
            window_err = [0.0; 4];
            window_n = 0;
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "F3: forecast error under concept drift ({steps} ticks, regime changes at 1/4, 1/2, 3/4)"
    );
    let mut table = Table::new(
        "mean absolute one-step error",
        &["model", "mae", "vs meta-pool"],
    );
    let pool_mae = total_err[3] / count.max(1) as f64;
    for (i, name) in ["ewma", "holt", "ar", "meta-pool"].iter().enumerate() {
        let mae = total_err[i] / count.max(1) as f64;
        table.row_owned(vec![
            (*name).to_string(),
            num(mae),
            format!("{:+.1}%", (mae / pool_mae - 1.0) * 100.0),
        ]);
    }
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "model switches by the pool: {pool_switches}");
    let _ = writeln!(out, "windowed error over time:");
    let refs: Vec<&TimeSeries> = err_series.iter().collect();
    out.push_str(&render_multi(&refs, 24));
    out
}

/// Horizon `sas-bench run f3` uses, in ticks.
const STEPS: u64 = 4_000;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f3",
    has_smoke: false,
    run: |_| Output::text(run_f3(STEPS)),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_pool_is_competitive() {
        let s = run_f3(2000);
        assert!(s.contains("meta-pool"));
        assert!(s.contains("model switches"));
    }
}
