//! F10 — counterfactual-replay explanation fidelity. See EXPERIMENTS.md.

use super::{f9_campaign, Experiment, Output, RunTrace, REPS};
use selfaware::goals::Direction;
use selfaware::replay::{
    CounterfactualDelta, CounterfactualReport, CounterfactualRun, InterventionClass,
    InterventionMask, ReplayOutcome,
};
use simkernel::obs;
use simkernel::table::num_ci;
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};
use std::fmt::Write as _;

/// Root seed of the F10 replication tree.
const F10_SEED: u64 = 0xF10;

/// Gate tolerance on a canonical cell's mean measured benefit:
/// an intervention class regresses only when suppressing it would
/// *improve* the campaign's headline metric by more than this.
pub const F10_EPSILON: f64 = 0.02;

/// One F10 fault campaign: a composed-city scenario representative of
/// an earlier experiment's fault kind, with the headline metric that
/// experiment scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F10Campaign {
    /// F6/F7-style sensor fault: camera quality sensors take bias
    /// shifts; the quarantine/substitution machinery is on trial.
    /// Headline: `tracking_error` (minimise).
    Bias,
    /// F5/F7-style model corruption: the routing model is NaN-poisoned
    /// and weight-scrambled; supervisor rollback/fallback/re-promotion
    /// are on trial. Headline: `utility` (maximise).
    Corruption,
    /// F8-style command-plane degradation: 25% uniform link loss plus
    /// a partition on zone agent 1; the reliable comms protocol's
    /// retries are on trial. Headline: `on_time_ratio` (maximise).
    Loss,
    /// F9-ingredient zone outage: zone 1's backend dies for the middle
    /// two fifths; the degradation ladder (re-home, shed, throttle) is
    /// on trial. Headline: `utility` (maximise).
    Outage,
    /// Capacity brownout (ROADMAP item 5): two of zone 1's three
    /// backend machines die for the middle three fifths while the
    /// zone — and its agent — stay alive. Re-homing never triggers
    /// (the zone is not dark) and gateway pressure stays under the
    /// shed threshold, so admission throttling is the *only* defence
    /// that can keep the surviving core's queueing delay inside the
    /// SLA. This is the campaign where throttle pays; the gate pins
    /// its benefit positive. Headline: `on_time_ratio` (maximise).
    Brownout,
    /// The full F9 cascading campaign ([`f9_campaign`]): everything at
    /// once. Headline: `utility` (maximise).
    Cascade,
}

impl F10Campaign {
    /// Every campaign, in table order.
    #[must_use]
    pub fn all() -> Vec<F10Campaign> {
        vec![
            F10Campaign::Bias,
            F10Campaign::Corruption,
            F10Campaign::Loss,
            F10Campaign::Outage,
            F10Campaign::Brownout,
            F10Campaign::Cascade,
        ]
    }

    /// Stable table/trace label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            F10Campaign::Bias => "bias",
            F10Campaign::Corruption => "corruption",
            F10Campaign::Loss => "loss",
            F10Campaign::Outage => "outage",
            F10Campaign::Brownout => "brownout",
            F10Campaign::Cascade => "cascade",
        }
    }

    /// The campaign's headline metric and its better-direction.
    #[must_use]
    pub fn metric(self) -> (&'static str, Direction) {
        match self {
            F10Campaign::Bias => ("tracking_error", Direction::Minimize),
            F10Campaign::Loss | F10Campaign::Brownout => ("on_time_ratio", Direction::Maximize),
            F10Campaign::Corruption | F10Campaign::Outage | F10Campaign::Cascade => {
                ("utility", Direction::Maximize)
            }
        }
    }

    /// Builds the fault campaign, scaled to the horizon.
    #[must_use]
    pub fn build(self, seeds: &SeedTree, steps: u64) -> workloads::FaultCampaign {
        use workloads::faults::LinkModel;
        match self {
            F10Campaign::Bias => workloads::FaultCampaign::new("bias", seeds)
                .fault(workloads::FaultEvent::sensor_fault(
                    Tick(steps / 4),
                    2,
                    workloads::SensorFaultKind::Bias { offset: 2.5 },
                    steps / 3,
                ))
                .fault(workloads::FaultEvent::sensor_fault(
                    Tick(steps / 2),
                    5,
                    workloads::SensorFaultKind::Bias { offset: -2.0 },
                    steps / 4,
                )),
            // The second NaN lands inside the supervisor's relapse
            // window (50 ticks): the first is cured by a rollback, the
            // relapse benches the model, and the quiet stretch after
            // it exercises re-promotion — so all three supervisor
            // rungs leave anchors.
            F10Campaign::Corruption => workloads::FaultCampaign::new("corruption", seeds)
                .corruption(
                    Tick(steps / 3),
                    0,
                    workloads::faults::ModelCorruptionKind::NanPoison,
                )
                .corruption(
                    Tick(steps / 3 + 30),
                    0,
                    workloads::faults::ModelCorruptionKind::NanPoison,
                )
                .corruption(
                    Tick(steps * 3 / 5),
                    0,
                    workloads::faults::ModelCorruptionKind::WeightScramble { gain: 25.0 },
                ),
            F10Campaign::Loss => workloads::FaultCampaign::new("loss", seeds)
                .with_loss(LinkModel::lossy(0.25))
                .net_partition(steps * 2 / 5, steps / 5, vec![1]),
            F10Campaign::Outage => workloads::FaultCampaign::new("outage", seeds).zone_outage(
                Tick(steps * 2 / 5),
                3,
                3,
                steps * 2 / 5,
            ),
            // Zones 1 and 2 each lose their big core and one little
            // for the long middle window; one little core (40% of the
            // big's speed) survives per zone, so neither zone goes
            // dark and both keep admitting. A backlog at the
            // admission cap takes a lone little longer than the SLA
            // deadline to drain, so detections serviced from a
            // saturated queue violate — unless throttling holds the
            // queue short.
            F10Campaign::Brownout => workloads::FaultCampaign::new("brownout", seeds)
                .zone_outage(Tick(steps / 8), 3, 2, steps * 3 / 4)
                .zone_outage(Tick(steps / 8), 6, 2, steps * 3 / 4),
            F10Campaign::Cascade => f9_campaign(seeds, steps),
        }
    }
}

/// Runs the composed city under `campaign` with `mask` applied —
/// the F10 re-execution primitive. Same world, policy and seed
/// derivation as [`f9_scenario`](super::f9_scenario); the mask is
/// the only degree of freedom, so [`InterventionMask::allow_all`]
/// reproduces the factual run bit for bit.
#[must_use]
pub fn f10_city(
    campaign: F10Campaign,
    mask: InterventionMask,
    seeds: &SeedTree,
    steps: u64,
) -> compose::CityResult {
    let city_seeds = seeds.child("city");
    let mut cfg =
        compose::CityConfig::standard(compose::CityPolicy::supervised(), steps, &city_seeds);
    cfg.campaign = campaign.build(&city_seeds, steps).with_mask(mask);
    compose::run_city(&cfg, &city_seeds)
}

/// One replicate's full counterfactual probe: the factual run plus one
/// single-flip masked re-execution per intervention class, under
/// common random numbers.
#[must_use]
pub fn f10_probe(campaign: F10Campaign, seeds: &SeedTree, steps: u64) -> CounterfactualReport {
    let (metric, direction) = campaign.metric();
    CounterfactualRun::new(metric, direction, |mask| {
        let r = f10_city(campaign, mask, seeds, steps);
        ReplayOutcome {
            metric: r.metrics.get(metric).unwrap_or(f64::NAN),
            log: r.log,
        }
    })
    .probe(&InterventionClass::ALL)
}

/// The typed `counterfactual` run-trace record for one delta
/// (validated by `obs_validate`): campaign tag, full delta fields,
/// and the operator-readable headline sentence.
fn counterfactual_record(campaign: &str, metric: &str, d: &CounterfactualDelta) -> obs::Json {
    let mut pairs = vec![
        ("record".to_string(), obs::Json::str("counterfactual")),
        ("campaign".to_string(), obs::Json::str(campaign)),
        ("headline".to_string(), obs::Json::str(d.headline(metric))),
    ];
    if let obs::Json::Obj(body) = d.to_json(metric) {
        pairs.extend(body);
    }
    obs::Json::Obj(pairs)
}

/// One F10 replicate, flattened for the replication harness: the
/// factual headline metric, the factual log's eviction count, and one
/// `benefit:<class>` / `events:<class>` pair per intervention class.
/// Also emits one typed `counterfactual` record per class into the
/// run trace.
#[must_use]
fn f10_scenario(campaign: F10Campaign, seeds: SeedTree, steps: u64) -> MetricSet {
    let report = f10_probe(campaign, &seeds, steps);
    let (metric, _) = campaign.metric();
    let mut m = MetricSet::new();
    m.set("factual", report.factual);
    m.set("log_dropped", report.log_dropped as f64);
    for d in &report.deltas {
        obs::emit(counterfactual_record(campaign.label(), metric, d));
        m.set(format!("benefit:{}", d.class.label()), d.benefit);
        m.set(format!("events:{}", d.class.label()), d.events as f64);
    }
    m
}

/// Each intervention class's canonical smoke scenario for the CI
/// regression gate: the campaign whose fault kind that class exists
/// to absorb. Tuned so the class reliably *fires* there at smoke
/// horizons (≥ 900 ticks).
#[must_use]
pub fn f10_canonical(class: InterventionClass) -> F10Campaign {
    match class {
        InterventionClass::SensorQuarantine => F10Campaign::Bias,
        InterventionClass::SupervisorRollback
        | InterventionClass::SupervisorFallback
        | InterventionClass::SupervisorRepromote => F10Campaign::Corruption,
        InterventionClass::CommsRetry => F10Campaign::Loss,
        // Throttle's canonical home is the brownout (ROADMAP item 5):
        // on the cascade its measured delta sat at ≈ 0 because the
        // zone either dies (re-home takes over) or survives with
        // enough capacity that the admission cap alone bounds
        // latency. The brownout leaves a crippled-but-alive zone
        // where holding the queue short is the only defence, so the
        // gate can demand a strictly positive delta.
        InterventionClass::ComposeThrottle => F10Campaign::Brownout,
        InterventionClass::CommsReissue
        | InterventionClass::ComposeShed
        | InterventionClass::ComposeRehome => F10Campaign::Cascade,
    }
}

/// One aggregated gate cell: a class's mean measured benefit (and
/// mean anchored event count) on its canonical campaign.
#[derive(Debug, Clone)]
pub struct F10Cell {
    /// The intervention class under test.
    pub class: InterventionClass,
    /// Canonical campaign label.
    pub campaign: &'static str,
    /// Mean direction-signed benefit over replicates.
    pub benefit: f64,
    /// Mean anchored explanation-entry count over replicates.
    pub events: f64,
    /// Whether zero anchored events is itself a failure. Canonical
    /// cells require firing (a gate that cannot observe its subject is
    /// not green); *restraint* cells set this false — they pin a
    /// campaign where the class historically misfired, so not firing
    /// is the desired outcome and only negative benefit fails.
    pub require_fire: bool,
    /// Whether the cell must show *strictly positive* mean benefit,
    /// not merely non-negative. Set on a class whose canonical
    /// campaign was built specifically so the class pays (ROADMAP
    /// item 5: throttle on the brownout) — a zero there means the
    /// campaign no longer exercises the class and the cell has
    /// silently decayed into a tautology.
    pub require_positive: bool,
}

/// The intervention-regression gate, pure over aggregated cells: a
/// class fails when its campaign mean benefit is below
/// `-`[`F10_EPSILON`] — the explanation machinery claims an
/// intervention helped while the measured counterfactual says it
/// hurt. A `require_fire` class that never fired (zero anchored
/// events) fails too: a gate that cannot observe its subject is not
/// green.
#[must_use]
pub fn f10_gate_failures(cells: &[F10Cell]) -> Vec<String> {
    let mut failures = Vec::new();
    for cell in cells {
        if cell.events <= 0.0 && cell.require_fire {
            failures.push(format!(
                "{} never fired on canonical campaign `{}` (0 anchored events)",
                cell.class.label(),
                cell.campaign
            ));
        } else if cell.benefit < -F10_EPSILON {
            failures.push(format!(
                "{} shows negative benefit {:.4} on canonical campaign `{}` (tolerance {})",
                cell.class.label(),
                cell.benefit,
                cell.campaign,
                F10_EPSILON
            ));
        } else if cell.require_positive && cell.benefit <= 0.0 {
            failures.push(format!(
                "{} shows no positive benefit ({:.4}) on canonical campaign `{}` — \
                 the campaign was built so this class pays",
                cell.class.label(),
                cell.benefit,
                cell.campaign
            ));
        }
    }
    failures
}

/// Truncation flags for the replay windows (satellite of the
/// explanation-fidelity contract): any campaign whose factual
/// explanation logs evicted entries gets a flag line, because evicted
/// entries mean undercounted anchors.
#[must_use]
pub fn f10_truncation_flags(dropped: &[(String, f64)]) -> Vec<String> {
    dropped
        .iter()
        .filter(|(_, mean)| *mean > 0.0)
        .map(|(label, mean)| {
            format!("{label}: mean {mean:.1} explanation entries dropped per replicate — anchors undercount")
        })
        .collect()
}

/// Everything `run_f10` measured, pre-rendered for the binary and CI.
#[derive(Debug)]
pub struct F10Report {
    /// Intervention × campaign mean-benefit table.
    pub table: Table,
    /// Per-campaign explanation-fidelity table.
    pub fidelity: Table,
    /// Canonical-cell gate verdicts (empty == gate green).
    pub gate_failures: Vec<String>,
    /// Replay windows flagged for explanation-log truncation.
    pub truncation_flags: Vec<String>,
    /// Replicate-0 headline sentences for classes that fired (empty
    /// when observability is off — they ride the run-trace records).
    pub headlines: Vec<String>,
}

/// F10 — deterministic counterfactual replay as a self-explanation
/// engine. Across fault campaigns representative of F5–F9, every
/// intervention class is force-disabled one bit at a time and the
/// headline-metric delta measured under common random numbers. The
/// claim: the self-awareness interventions the explanation log brags
/// about carry *measured* benefit — explanation fidelity is the
/// fraction of fired classes whose measured benefit is not negative.
#[must_use]
pub fn run_f10(reps: u32, steps: u64) -> F10Report {
    let campaigns = F10Campaign::all();
    let aggs = Replications::new(F10_SEED, reps)
        .run_matrix(&campaigns, |&c, seeds| f10_scenario(c, seeds, steps));
    let labels: Vec<String> = campaigns.iter().map(|c| c.label().to_string()).collect();
    RunTrace {
        experiment: "f10",
        seed: F10_SEED,
        replicates: reps,
        steps,
        config: &format!("f10 campaigns={labels:?} steps={steps}"),
        arms: &labels,
        reports: &aggs,
    }
    .export();

    // Intervention × campaign benefit table.
    let mut headers: Vec<&str> = vec!["intervention"];
    headers.extend(campaigns.iter().map(|c| c.label()));
    let mut table = Table::new(
        format!("F10: measured intervention benefit ({steps} ticks, {reps} reps, mean±95CI)"),
        &headers,
    );
    for class in InterventionClass::ALL {
        let mut row = vec![class.label().to_string()];
        for (_, agg) in campaigns.iter().zip(&aggs) {
            let b = format!("benefit:{}", class.label());
            let e = format!("events:{}", class.label());
            let events = agg.mean(&e);
            if events <= 0.0 && agg.mean(&b).abs() < 1e-12 {
                row.push("–".into());
            } else {
                row.push(num_ci(agg.mean(&b), agg.ci95(&b)));
            }
        }
        table.row_owned(row);
    }

    // Per-campaign fidelity: of the classes that fired (anchored
    // events in the factual log), how many have non-negative measured
    // benefit within tolerance.
    let mut fidelity = Table::new(
        format!("F10: explanation fidelity per fault kind (tolerance {F10_EPSILON})"),
        &[
            "campaign",
            "metric",
            "fired",
            "confirmed",
            "fidelity",
            "log dropped",
        ],
    );
    for (c, agg) in campaigns.iter().zip(&aggs) {
        let (metric, _) = c.metric();
        let mut fired = 0u32;
        let mut confirmed = 0u32;
        for class in InterventionClass::ALL {
            let events = agg.mean(&format!("events:{}", class.label()));
            if events > 0.0 {
                fired += 1;
                if agg.mean(&format!("benefit:{}", class.label())) >= -F10_EPSILON {
                    confirmed += 1;
                }
            }
        }
        let score = if fired == 0 {
            "–".to_string()
        } else {
            format!("{:.2}", f64::from(confirmed) / f64::from(fired))
        };
        fidelity.row_owned(vec![
            c.label().to_string(),
            metric.to_string(),
            fired.to_string(),
            confirmed.to_string(),
            score,
            format!("{:.1}", agg.mean("log_dropped")),
        ]);
    }

    // Canonical gate cells.
    let mut cells: Vec<F10Cell> = InterventionClass::ALL
        .into_iter()
        .map(|class| {
            let canonical = f10_canonical(class);
            let idx = campaigns
                .iter()
                .position(|c| *c == canonical)
                .expect("canonical campaign is in the table");
            F10Cell {
                class,
                campaign: canonical.label(),
                benefit: aggs[idx].mean(&format!("benefit:{}", class.label())),
                events: aggs[idx].mean(&format!("events:{}", class.label())),
                require_fire: true,
                // The brownout exists so throttle pays (ROADMAP item
                // 5); its cell must show a strictly positive delta.
                require_positive: class == InterventionClass::ComposeThrottle,
            }
        })
        .collect();
    // Restraint cell (PR 9): the loss campaign partitions a zone whose
    // backend stays alive — the F10 misfire was re-homing away from
    // it. With bounce-corroborated dark detection the rehome must now
    // either hold fire (0 events) or fire with non-negative measured
    // benefit; both pass, a harmful firing fails.
    if let Some(idx) = campaigns.iter().position(|c| *c == F10Campaign::Loss) {
        let label = InterventionClass::ComposeRehome.label();
        cells.push(F10Cell {
            class: InterventionClass::ComposeRehome,
            campaign: F10Campaign::Loss.label(),
            benefit: aggs[idx].mean(&format!("benefit:{label}")),
            events: aggs[idx].mean(&format!("events:{label}")),
            require_fire: false,
            require_positive: false,
        });
    }
    // Restraint cell (this PR, ROADMAP item 5): the cascade is where
    // throttle historically idled at ≈ 0 measured benefit. Now that
    // its canonical (positive) home is the brownout, the cascade cell
    // only polices harm: throttle may hold fire there or fire with
    // non-negative delta, but a harmful firing fails.
    if let Some(idx) = campaigns.iter().position(|c| *c == F10Campaign::Cascade) {
        let label = InterventionClass::ComposeThrottle.label();
        cells.push(F10Cell {
            class: InterventionClass::ComposeThrottle,
            campaign: F10Campaign::Cascade.label(),
            benefit: aggs[idx].mean(&format!("benefit:{label}")),
            events: aggs[idx].mean(&format!("events:{label}")),
            require_fire: false,
            require_positive: false,
        });
    }
    let gate_failures = f10_gate_failures(&cells);

    let dropped: Vec<(String, f64)> = campaigns
        .iter()
        .zip(&aggs)
        .map(|(c, agg)| (c.label().to_string(), agg.mean("log_dropped")))
        .collect();
    let truncation_flags = f10_truncation_flags(&dropped);

    // Replicate-0 headlines, read back from the emitted trace records.
    let mut headlines = Vec::new();
    for (c, agg) in campaigns.iter().zip(&aggs) {
        if let Some(records) = agg.records().first() {
            for rec in records {
                if rec.get("record").and_then(obs::Json::as_str) != Some("counterfactual") {
                    continue;
                }
                let fired = rec.get("events").and_then(obs::Json::as_num).unwrap_or(0.0) > 0.0;
                if let (true, Some(h)) = (fired, rec.get("headline").and_then(obs::Json::as_str)) {
                    headlines.push(format!("[{}] {h}", c.label()));
                }
            }
        }
    }

    F10Report {
        table,
        fidelity,
        gate_failures,
        truncation_flags,
        headlines,
    }
}

/// Horizon `sas-bench run f10` uses, in ticks; `--smoke` uses
/// `SMOKE_STEPS`.
const STEPS: u64 = 3_000;
const SMOKE_STEPS: u64 = 600;

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "f10",
    has_smoke: true,
    run: |smoke| {
        let report = run_f10(REPS, if smoke { SMOKE_STEPS } else { STEPS });
        let mut stdout = format!("{}\n{}\n", report.table, report.fidelity);
        if !report.headlines.is_empty() {
            stdout.push_str("replicate-0 headlines:\n");
            for line in &report.headlines {
                let _ = writeln!(stdout, "  {line}");
            }
        }
        for flag in &report.truncation_flags {
            let _ = writeln!(stdout, "WARNING {flag}");
        }
        Output {
            stdout,
            gate: Some(("intervention-regression gate", report.gate_failures)),
        }
    },
};

#[cfg(test)]
mod f10_tests {
    use super::*;

    const STEPS: u64 = 350;

    #[test]
    fn all_bits_off_mask_replays_every_campaign_bit_exactly() {
        // The acceptance contract: replaying any F10 arm with the
        // all-bits-off mask reproduces the original (mask-free) run
        // bit for bit — metrics, comms counters, everything the
        // scenario scores.
        let seeds = Replications::new(F10_SEED, 1).seeds_for(0);
        for c in F10Campaign::all() {
            let city_seeds = seeds.child("city");
            let mut cfg = compose::CityConfig::standard(
                compose::CityPolicy::supervised(),
                STEPS,
                &city_seeds,
            );
            cfg.campaign = c.build(&city_seeds, STEPS);
            let original = compose::run_city(&cfg, &city_seeds);
            let replay = f10_city(c, InterventionMask::allow_all(), &seeds, STEPS);
            assert_eq!(original.metrics, replay.metrics, "campaign {c:?}");
            assert_eq!(original.comms_stats, replay.comms_stats, "campaign {c:?}");
        }
    }

    #[test]
    fn masked_replays_are_deterministic() {
        let seeds = Replications::new(F10_SEED, 1).seeds_for(0);
        for class in [
            InterventionClass::SensorQuarantine,
            InterventionClass::CommsRetry,
            InterventionClass::ComposeShed,
        ] {
            let mask = InterventionMask::suppressing(class);
            let a = f10_city(F10Campaign::Cascade, mask, &seeds, STEPS);
            let b = f10_city(F10Campaign::Cascade, mask, &seeds, STEPS);
            assert_eq!(a.metrics, b.metrics, "class {class:?}");
        }
    }

    #[test]
    fn scenario_flattens_every_class_and_surfaces_log_pressure() {
        let m = f10_scenario(F10Campaign::Outage, SeedTree::new(7), STEPS);
        assert!(m.get("factual").is_some());
        // Satellite contract: the ring buffer's eviction count rides
        // the metric set so truncated replay windows can be flagged.
        assert!(m.get("log_dropped").is_some());
        for class in InterventionClass::ALL {
            assert!(
                m.get(&format!("benefit:{}", class.label())).is_some(),
                "missing benefit for {class:?}"
            );
            assert!(
                m.get(&format!("events:{}", class.label())).is_some(),
                "missing events for {class:?}"
            );
        }
    }

    #[test]
    fn gate_fails_on_negative_benefit_and_on_silent_classes() {
        let cells = vec![
            F10Cell {
                class: InterventionClass::SupervisorRollback,
                campaign: "corruption",
                benefit: 0.5,
                events: 2.0,
                require_fire: true,
                require_positive: false,
            },
            F10Cell {
                class: InterventionClass::CommsRetry,
                campaign: "loss",
                benefit: -0.5,
                events: 3.0,
                require_fire: true,
                require_positive: false,
            },
            F10Cell {
                class: InterventionClass::ComposeShed,
                campaign: "cascade",
                benefit: 0.0,
                events: 0.0,
                require_fire: true,
                require_positive: false,
            },
        ];
        let failures = f10_gate_failures(&cells);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("comms-retry")));
        assert!(failures.iter().any(|f| f.contains("compose-shed")));
        // Within tolerance: a small negative mean is noise, not a
        // regression.
        let ok = f10_gate_failures(&[F10Cell {
            class: InterventionClass::CommsRetry,
            campaign: "loss",
            benefit: -F10_EPSILON / 2.0,
            events: 1.0,
            require_fire: true,
            require_positive: false,
        }]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn restraint_cells_pass_silent_and_fail_harmful() {
        // A restraint cell (require_fire = false) passes when the
        // class holds fire entirely…
        let silent = F10Cell {
            class: InterventionClass::ComposeRehome,
            campaign: "loss",
            benefit: 0.0,
            events: 0.0,
            require_fire: false,
            require_positive: false,
        };
        assert!(f10_gate_failures(&[silent]).is_empty());
        // …and still fails when it fires with measured harm.
        let harmful = F10Cell {
            class: InterventionClass::ComposeRehome,
            campaign: "loss",
            benefit: -0.4,
            events: 2.0,
            require_fire: false,
            require_positive: false,
        };
        let failures = f10_gate_failures(&[harmful]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("compose-rehome"));
    }

    #[test]
    fn positive_cells_fail_at_zero_benefit() {
        // ROADMAP item 5's closure is enforced, not prose: the
        // throttle cell on the brownout demands a strictly positive
        // measured delta, so a relapse to the old ≈ 0 misfire fails
        // the gate even though 0 is within the negative tolerance.
        let flat = F10Cell {
            class: InterventionClass::ComposeThrottle,
            campaign: "brownout",
            benefit: 0.0,
            events: 40.0,
            require_fire: true,
            require_positive: true,
        };
        let failures = f10_gate_failures(std::slice::from_ref(&flat));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("no positive benefit"), "{failures:?}");
        // Any strictly positive mean passes…
        let paying = F10Cell {
            benefit: 0.015,
            ..flat.clone()
        };
        assert!(f10_gate_failures(&[paying]).is_empty());
        // …and silence still trips the require_fire arm first.
        let silent = F10Cell {
            benefit: 0.0,
            events: 0.0,
            ..flat
        };
        let failures = f10_gate_failures(&[silent]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("never fired"), "{failures:?}");
    }

    #[test]
    fn throttle_is_canonically_homed_on_the_brownout() {
        assert_eq!(
            f10_canonical(InterventionClass::ComposeThrottle),
            F10Campaign::Brownout
        );
        // The brownout keeps both browned-out zones alive: no machine
        // set covers a whole zone, so re-home never has a dark zone
        // to move (the throttle delta is not confounded).
        let seeds = SeedTree::new(1);
        let campaign = F10Campaign::Brownout.build(&seeds, 1000);
        let plan = campaign.faults();
        for z in 0..3usize {
            let all_down = (0..3).all(|k| plan.zone_down_at(z * 3 + k, Tick(500)));
            assert!(!all_down, "zone {z} fully dark mid-brownout");
        }
    }

    #[test]
    fn truncation_flags_name_only_dropping_windows() {
        let flags =
            f10_truncation_flags(&[("bias".to_string(), 0.0), ("cascade".to_string(), 12.5)]);
        assert_eq!(flags.len(), 1);
        assert!(flags[0].contains("cascade"), "{flags:?}");
        assert!(flags[0].contains("12.5"), "{flags:?}");
    }

    #[test]
    fn f10_tables_are_reproducible() {
        let a = run_f10(1, 300);
        let b = run_f10(1, 300);
        assert_eq!(a.table.len(), InterventionClass::ALL.len());
        assert_eq!(a.fidelity.len(), F10Campaign::all().len());
        assert_eq!(format!("{}", a.table), format!("{}", b.table));
        assert_eq!(format!("{}", a.fidelity), format!("{}", b.fidelity));
        assert_eq!(a.gate_failures, b.gate_failures);
    }
}
