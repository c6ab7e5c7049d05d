//! F11 — live-traffic mode. See EXPERIMENTS.md.

use super::{metrics_json, Experiment, Output, RunTrace};
use simkernel::obs;
use simkernel::table::{num, num_ci};
use simkernel::{MetricSet, Replications, SeedTree, Table};
use std::fmt::Write as _;

/// Root seed of the F11 replication tree.
pub const F11_SEED: u64 = 0xF11;

/// One F11 replicate: replay the standard seeded chaos campaign (flash
/// crowd overlapping a slow-handler stall, connection drops, handler
/// panics, arrival-model poisoning) against one provisioning arm of
/// the live TCP server, and flatten the client/server/governor reports
/// into metrics.
///
/// Unlike every other experiment in this file the scenario body runs
/// on wall-clock time; only the *plan* (arrivals, service times,
/// faults) is seed-deterministic. Replication averages out scheduler
/// noise.
#[must_use]
pub fn f11_scenario(arm: liveserve::Arm, seeds: SeedTree, ticks: u64) -> MetricSet {
    let plan = liveserve::ChaosPlan::standard(ticks);
    let r = match liveserve::run_arm(arm, &plan, &seeds) {
        Ok(r) => r,
        Err(e) => panic!("f11 {} arm failed to start: {e}", arm.label()),
    };
    let mut m = MetricSet::new();
    m.set("goodput", r.load.goodput());
    m.set(
        "requests_per_sec",
        r.load.ok as f64 / r.load.wall_secs.max(f64::MIN_POSITIVE),
    );
    m.set("p50_ms", r.load.latency_percentile(0.50));
    m.set("p99_ms", r.load.latency_percentile(0.99));
    m.set("error_rate", r.load.error_rate());
    m.set("offered", r.load.offered as f64);
    m.set("ok", r.load.ok as f64);
    m.set("on_time", r.load.on_time as f64);
    m.set("client_shed", r.load.shed as f64);
    m.set("retries", r.load.retries as f64);
    m.set("served", r.server.served as f64);
    m.set("server_shed", r.server.shed as f64);
    m.set("timed_out", r.server.timed_out as f64);
    m.set("panicked", r.server.panicked as f64);
    m.set(
        "clean_shutdown",
        f64::from(u8::from(r.server.clean_shutdown)),
    );
    m.set(
        "threads_leaked",
        r.server
            .threads_spawned
            .saturating_sub(r.server.threads_joined) as f64,
    );
    let count = |ev: &str| r.transitions.iter().filter(|t| t.event == ev).count() as f64;
    m.set("shed_engagements", count("live:shed"));
    m.set("recoveries", count("live:recover"));
    m.set(
        "watchdog_reactions",
        f64::from(r.supervision.warns + r.supervision.rollbacks + r.supervision.fallbacks),
    );
    obs::emit(obs::Json::obj([
        ("scenario", obs::Json::str("f11")),
        ("arm", obs::Json::str(arm.label())),
        ("metrics", metrics_json(&m)),
        (
            "transitions",
            obs::Json::Arr(
                r.transitions
                    .iter()
                    .map(|t| {
                        obs::Json::obj([
                            ("tick", obs::Json::from(t.tick)),
                            ("event", obs::Json::str(t.event.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("supervision", r.supervision.to_json()),
    ]));
    m
}

/// Everything `run_f11` measured plus its acceptance verdicts.
#[derive(Debug)]
pub struct F11Report {
    /// Per-arm results table.
    pub table: Table,
    /// Replicate-0 supervised governor transitions, pre-rendered.
    pub transitions: Vec<String>,
    /// Harness-asserted acceptance failures (empty == pass): clean
    /// shutdown and zero thread leaks on every arm and replicate,
    /// shed *and* recover observed, the poisoned model noticed, and
    /// supervised beating naive on goodput and p99 with
    /// non-overlapping 95% CIs.
    pub failures: Vec<String>,
}

/// F11 — wall-clock self-aware serving beats fixed provisioning under
/// chaos. The same supervised autoscaler, watchdog ladder and
/// hysteresis machinery that runs the simulated substrates governs a
/// real threaded TCP server; the naive arm has the same worker pool
/// and a deeper queue but fixed limits and no admission control.
/// `strict = false` (the CI smoke at tiny horizons / single
/// replicates) skips only the *statistical* separation gates — CI
/// non-overlap on goodput and p99 needs full-length runs to be
/// meaningful — while keeping every robustness gate (clean shutdown,
/// zero leaks, shed→recover cycle, poisoning noticed) mandatory.
#[must_use]
pub fn run_f11(reps: u32, ticks: u64, strict: bool) -> F11Report {
    liveserve::install_quiet_panic_hook();
    let arms = [liveserve::Arm::Supervised, liveserve::Arm::Naive];
    let labels: Vec<String> = arms.iter().map(|a| a.label().to_string()).collect();
    // One worker: wall-clock arms must not time-share the machine
    // with each other, or they would corrupt each other's latencies.
    let aggs = Replications::new(F11_SEED, reps)
        .run_matrix_threads(1, &arms, |&a, seeds| f11_scenario(a, seeds, ticks));
    RunTrace {
        experiment: "f11",
        seed: F11_SEED,
        replicates: reps,
        steps: ticks,
        config: &format!("f11 arms={labels:?} ticks={ticks} plan=standard"),
        arms: &labels,
        reports: &aggs,
    }
    .export();

    let mut table = Table::new(
        format!(
            "F11: live-traffic chaos, supervised vs naive ({ticks} ticks ≈ {}s offered load, {reps} reps, mean±95CI)",
            ticks / 100
        ),
        &[
            "arm",
            "goodput ok/s",
            "p50 ms",
            "p99 ms",
            "error rate",
            "shed",
            "503s",
            "clean",
        ],
    );
    for (label, agg) in labels.iter().zip(&aggs) {
        table.row_owned(vec![
            label.clone(),
            num_ci(agg.mean("goodput"), agg.ci95("goodput")),
            num(agg.mean("p50_ms")),
            num_ci(agg.mean("p99_ms"), agg.ci95("p99_ms")),
            num_ci(agg.mean("error_rate"), agg.ci95("error_rate")),
            num(agg.mean("server_shed")),
            num(agg.mean("timed_out")),
            format!("{:.0}/{reps}", agg.mean("clean_shutdown") * f64::from(reps)),
        ]);
    }

    let mut failures = Vec::new();
    for (label, agg) in labels.iter().zip(&aggs) {
        if agg.mean("clean_shutdown") < 1.0 {
            failures.push(format!(
                "{label}: unclean shutdown in at least one replicate (deadlock or stuck thread)"
            ));
        }
        if agg.mean("threads_leaked") > 0.0 {
            failures.push(format!(
                "{label}: leaked threads (mean {:.2})",
                agg.mean("threads_leaked")
            ));
        }
    }
    let (sup, naive) = (&aggs[0], &aggs[1]);
    if sup.mean("shed_engagements") <= 0.0 || sup.mean("recoveries") <= 0.0 {
        failures.push(format!(
            "supervised arm never completed a shed→recover cycle (shed {:.1}, recover {:.1})",
            sup.mean("shed_engagements"),
            sup.mean("recoveries")
        ));
    }
    if sup.mean("watchdog_reactions") <= 0.0 {
        failures.push("supervised arm: poisoned arrival model went unnoticed".to_string());
    }
    if strict {
        let (gs, gsc) = (sup.mean("goodput"), sup.ci95("goodput"));
        let (gn, gnc) = (naive.mean("goodput"), naive.ci95("goodput"));
        if gs - gsc <= gn + gnc {
            failures.push(format!(
                "goodput CIs overlap: supervised {gs:.1}±{gsc:.1} vs naive {gn:.1}±{gnc:.1}"
            ));
        }
        let (ps, psc) = (sup.mean("p99_ms"), sup.ci95("p99_ms"));
        let (pn, pnc) = (naive.mean("p99_ms"), naive.ci95("p99_ms"));
        if ps + psc >= pn - pnc {
            failures.push(format!(
                "p99 CIs overlap: supervised {ps:.0}±{psc:.0}ms vs naive {pn:.0}±{pnc:.0}ms"
            ));
        }
    }

    // Replicate-0 supervised transitions, read back from the trace
    // records (present only when observability is on).
    let mut transitions = Vec::new();
    if let Some(records) = sup.records().first() {
        for rec in records {
            if rec.get("scenario").and_then(obs::Json::as_str) != Some("f11") {
                continue;
            }
            if let Some(obs::Json::Arr(ts)) = rec.get("transitions") {
                for t in ts {
                    let tick = t.get("tick").and_then(obs::Json::as_num).unwrap_or(-1.0);
                    let event = t.get("event").and_then(obs::Json::as_str).unwrap_or("?");
                    transitions.push(format!("t={tick:>6.0} {event}"));
                }
            }
        }
    }

    F11Report {
        table,
        transitions,
        failures,
    }
}

/// Horizon (10 ms governor quanta, ≈ 8 s of offered load) and
/// replicates of `sas-bench run f11`.
const TICKS: u64 = 800;
const REPLICATES: u32 = 3;
/// Horizon and replicates of `--smoke`, which also skips the two
/// statistical CI-separation gates (they need full-length runs); the
/// robustness gates always apply.
const SMOKE_TICKS: u64 = 250;
const SMOKE_REPS: u32 = 1;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f11",
    has_smoke: true,
    run: |smoke| {
        let report = if smoke {
            run_f11(SMOKE_REPS, SMOKE_TICKS, false)
        } else {
            run_f11(REPLICATES, TICKS, true)
        };
        let mut stdout = format!("{}\n", report.table);
        if !report.transitions.is_empty() {
            stdout.push_str("replicate-0 supervised transitions:\n");
            for line in &report.transitions {
                let _ = writeln!(stdout, "  {line}");
            }
        }
        Output {
            stdout,
            gate: Some(("live-traffic acceptance", report.failures)),
        }
    },
};

#[cfg(test)]
mod f11_tests {
    use super::*;

    #[test]
    fn f11_scenario_flattens_all_acceptance_metrics() {
        liveserve::install_quiet_panic_hook();
        // Short calm-ish horizon: this is a schema test, not a
        // performance measurement.
        let m = f11_scenario(liveserve::Arm::Supervised, SeedTree::new(3), 120);
        for key in [
            "goodput",
            "requests_per_sec",
            "p50_ms",
            "p99_ms",
            "error_rate",
            "clean_shutdown",
            "threads_leaked",
            "shed_engagements",
            "recoveries",
            "watchdog_reactions",
        ] {
            assert!(m.get(key).is_some(), "missing metric {key}");
        }
        assert!(
            (m.get("clean_shutdown").unwrap_or(0.0) - 1.0).abs() < f64::EPSILON,
            "short run must shut down cleanly"
        );
        assert!(m.get("threads_leaked").unwrap_or(1.0).abs() < f64::EPSILON);
    }
}
