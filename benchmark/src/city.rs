//! `city-replay`: counterfactual probes of the supervised composed city
//! under the cascade campaign, in a closed loop of `nproc` workers
//! through `simkernel::Replications`.
//!
//! One operation is one probe: the factual `compose::run_city` plus one
//! masked re-run per `InterventionClass` (10 calls), driven by
//! `selfaware::replay::CounterfactualRun`. Every call is timed by
//! wrapping the replay closure, so the replay driver's own time is the
//! probe time minus its `run_city` calls.

use crate::alloc;
use crate::common::{self, digest_metrics, median, quantile, time_reps, Outcome, RunOptions};
use compose::{run_city, CityConfig, CityPolicy, CityResult};
use selfaware::goals::Direction;
use selfaware::replay::{CounterfactualRun, InterventionClass, ReplayOutcome};
use simkernel::obs::{self, PhaseProfile};
use simkernel::{Replications, SeedTree, Tick};
use std::time::Instant;
use workloads::faults::{LinkModel, ModelCorruptionKind};
use workloads::{FaultCampaign, FaultEvent, SensorFaultKind};

/// Simulated horizon of every `run_city` call.
const STEPS: u64 = 600;
/// `run_city` calls per probe: the factual run plus one per class.
const CALLS: u64 = 1 + InterventionClass::ALL.len() as u64;
/// Probes per worker in one closed-loop batch.
const PROBES_PER_WORKER: u32 = 4;
/// Zero-tick world builds timed before each batch.
const SETUP_REPS: usize = 11;
/// Headline metric of the cascade probe (as in the F10 gate).
const METRIC: &str = "utility";

/// The cascade campaign of the F9/F10 experiments, scaled to `steps`:
/// 10 % command-plane loss, zone 1's backend dark for the middle two
/// fifths with a partition on its agent that heals inside the outage,
/// a bias on camera 2 and a scramble of the routing model.
fn cascade(seeds: &SeedTree, steps: u64) -> FaultCampaign {
    FaultCampaign::new("cascade", seeds)
        .with_loss(LinkModel::lossy(0.1))
        .zone_outage(Tick(steps * 2 / 5), 3, 3, steps * 2 / 5)
        .net_partition(steps * 2 / 5 + 10, steps / 5, vec![1])
        .fault(FaultEvent::sensor_fault(
            Tick(steps / 4),
            2,
            SensorFaultKind::Bias { offset: 0.6 },
            steps / 3,
        ))
        .corruption(
            Tick(steps / 2),
            0,
            ModelCorruptionKind::WeightScramble { gain: 25.0 },
        )
}

/// One timed `run_city` call.
struct Call {
    secs: f64,
    allocs: u64,
    sent: u64,
    retries: u64,
    expired: u64,
    /// Digest of the call's simulated outputs.
    digest: u64,
}

/// One counterfactual probe.
struct Probe {
    secs: f64,
    campaign_secs: f64,
    calls: Vec<Call>,
    /// Digest over every call's outputs and every measured delta.
    digest: u64,
    /// The report has 9 deltas, all finite.
    deltas_ok: bool,
    profile: PhaseProfile,
}

/// Digest of everything a `run_city` call simulated: its metric set,
/// its comms counters and the length of its explanation log.
fn city_digest(r: &CityResult) -> u64 {
    let mut buf = Vec::new();
    digest_metrics(&mut buf, &r.metrics);
    let c = &r.comms_stats;
    for v in [
        c.sent,
        c.delivered,
        c.retries,
        c.acked,
        c.expired,
        r.log.len() as u64,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    obs::fnv1a64(&buf)
}

fn timed_call(cfg: &CityConfig, seeds: &SeedTree) -> (CityResult, Call) {
    let a0 = alloc::count();
    let t = Instant::now();
    let r = std::hint::black_box(run_city(std::hint::black_box(cfg), seeds));
    let secs = t.elapsed().as_secs_f64();
    let allocs = alloc::count() - a0;
    let call = Call {
        secs,
        allocs,
        sent: r.comms_stats.sent,
        retries: r.comms_stats.retries,
        expired: r.comms_stats.expired,
        digest: city_digest(&r),
    };
    (r, call)
}

fn probe(seeds: &SeedTree) -> Probe {
    let t0 = Instant::now();
    let city_seeds = seeds.child("city");
    let tb = Instant::now();
    let campaign = cascade(&city_seeds, STEPS);
    let campaign_secs = tb.elapsed().as_secs_f64();
    let mut calls = Vec::with_capacity(CALLS as usize);
    let report = CounterfactualRun::new(METRIC, Direction::Maximize, |mask| {
        let mut cfg = CityConfig::standard(CityPolicy::supervised(), STEPS, &city_seeds);
        cfg.campaign = campaign.clone().with_mask(mask);
        let (r, call) = timed_call(&cfg, &city_seeds);
        calls.push(call);
        ReplayOutcome {
            metric: r.metrics.get(METRIC).unwrap_or(f64::NAN),
            log: r.log,
        }
    })
    .probe(&InterventionClass::ALL);
    let secs = t0.elapsed().as_secs_f64();
    let deltas_ok = report.factual.is_finite()
        && report.deltas.len() == InterventionClass::ALL.len()
        && report
            .deltas
            .iter()
            .all(|d| d.benefit.is_finite() && d.counterfactual.is_finite());
    let mut buf = Vec::new();
    for c in &calls {
        buf.extend_from_slice(&c.digest.to_le_bytes());
    }
    for d in &report.deltas {
        buf.extend_from_slice(&d.benefit.to_bits().to_le_bytes());
        buf.extend_from_slice(&d.events.to_le_bytes());
    }
    Probe {
        secs,
        campaign_secs,
        calls,
        digest: obs::fnv1a64(&buf),
        deltas_ok,
        profile: PhaseProfile::default(),
    }
}

/// The plain (unmasked) `run_city` of a probe's seeds: its outputs must
/// be bit-identical to the probe's factual call under `allow_all`.
fn plain_digest(seeds: &SeedTree) -> u64 {
    let city_seeds = seeds.child("city");
    let mut cfg = CityConfig::standard(CityPolicy::supervised(), STEPS, &city_seeds);
    cfg.campaign = cascade(&city_seeds, STEPS);
    city_digest(&run_city(&cfg, &city_seeds))
}

/// One closed-loop batch.
struct Batch {
    wall: f64,
    probes: Vec<Probe>,
}

fn batch_runner(seed: u64, index: u64, workers: usize) -> Replications {
    let base = SeedTree::new(seed).child("batch").child_idx(index).raw();
    Replications::new(base, workers as u32 * PROBES_PER_WORKER)
}

fn run_batch(reps: &Replications, workers: usize) -> Batch {
    let t = Instant::now();
    let probes = reps.collect_par_threads(workers, |seeds| {
        let (mut p, seen) = obs::with_sink(|| probe(&seeds));
        p.profile = seen.profile;
        p
    });
    Batch {
        wall: t.elapsed().as_secs_f64(),
        probes,
    }
}

/// Runs the workload.
pub fn run(opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let workers = common::nproc();

    // Set-up: build the campaign and the composed world up to its first
    // tick (a zero-tick `run_city`). Repeated before every batch, so the
    // reported median samples the whole window.
    obs::set_override(Some(false));
    let setup_seeds = SeedTree::new(opts.seed).child("setup").child("city");
    let mut setup = Vec::new();
    let mut set_up = || {
        time_reps(&mut setup, SETUP_REPS, || {
            let mut cfg = CityConfig::standard(CityPolicy::supervised(), 0, &setup_seeds);
            cfg.campaign = cascade(&setup_seeds, STEPS);
            std::hint::black_box(run_city(&cfg, &setup_seeds));
        });
    };

    // Measured window. Untraced runs: batch b on its own seeds. Traced
    // runs: pairs of (untraced, traced) batches on the same seeds, so
    // the tracing overhead is a ratio of identical work.
    let start = Instant::now();
    let mut untraced: Vec<Batch> = Vec::new();
    let mut traced: Vec<Batch> = Vec::new();
    let mut index = 0u64;
    while index == 0 || start.elapsed() < opts.window {
        let reps = batch_runner(opts.seed, index, workers);
        obs::set_override(Some(false));
        set_up();
        untraced.push(run_batch(&reps, workers));
        if opts.trace {
            obs::set_override(Some(true));
            traced.push(run_batch(&reps, workers));
            obs::set_override(Some(false));
        }
        index += 1;
    }

    // Output checks and digests.
    for (b, batch) in untraced.iter().enumerate() {
        for (k, p) in batch.probes.iter().enumerate() {
            println!(
                "sim_digest city-replay batch={b} probe={k} {:016x}",
                p.digest
            );
            out.check(p.deltas_ok);
        }
    }
    for (u, t) in untraced.iter().zip(&traced) {
        for (pu, pt) in u.probes.iter().zip(&t.probes) {
            // Observability must not change what is simulated.
            out.check(pu.digest == pt.digest);
        }
    }
    let first = batch_runner(opts.seed, 0, workers);
    let plain = first.collect_par_threads(workers, |seeds| plain_digest(&seeds));
    for (p, d) in untraced[0].probes.iter().zip(plain) {
        out.check(p.calls[0].digest == d);
    }

    let ticks_per_probe = (CALLS * STEPS) as f64;
    let probe_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|b| b.probes.iter().map(|p| p.secs * 1e3))
        .collect();
    let batch_rates: Vec<f64> = untraced
        .iter()
        .map(|b| b.probes.len() as f64 * ticks_per_probe / b.wall)
        .collect();
    for (b, rate) in batch_rates.iter().enumerate() {
        println!("batch {b}: {rate:.1} sim ticks/s");
    }
    println!(
        "city-replay: {} probes in {} batches on {workers} workers, {} ticks each",
        probe_ms.len(),
        untraced.len(),
        ticks_per_probe
    );
    println!(
        "p50_ms {:.3} ms (n={} probes)",
        median(&probe_ms),
        probe_ms.len()
    );
    println!(
        "work_per_s {:.1} sim ticks/s (median of n={} batches)",
        median(&batch_rates),
        batch_rates.len()
    );
    out.set("setup_s", median(&setup));
    out.set("p50_ms", median(&probe_ms));
    out.set("work_per_s", median(&batch_rates));

    // Deterministic counters: batch 0 (untraced, fixed seeds).
    let calls0: Vec<&Call> = untraced[0].probes.iter().flat_map(|p| &p.calls).collect();
    let sent: u64 = calls0.iter().map(|c| c.sent).sum();
    let retries: u64 = calls0.iter().map(|c| c.retries).sum();
    out.set("comms.sent", sent as f64);
    out.set("comms.retries", retries as f64);
    out.set(
        "comms.expired",
        calls0.iter().map(|c| c.expired).sum::<u64>() as f64,
    );
    out.set("comms.retry_ratio", retries as f64 / sent.max(1) as f64);
    let allocs: u64 = calls0.iter().map(|c| c.allocs).sum();
    out.set(
        "alloc.per_tick",
        allocs as f64 / (calls0.len() as f64 * STEPS as f64),
    );

    if opts.trace {
        layer_metrics(&mut out, &untraced, &traced, workers);
    }
    out
}

/// Per-layer timings from the traced batches.
fn layer_metrics(out: &mut Outcome, untraced: &[Batch], traced: &[Batch], workers: usize) {
    let probes: Vec<&Probe> = traced.iter().flat_map(|b| &b.probes).collect();
    let n = probes.len() as f64;
    let busy: Vec<f64> = traced
        .iter()
        .map(|b| b.probes.iter().map(|p| p.secs).sum())
        .collect();
    let idle: Vec<f64> = traced
        .iter()
        .zip(&busy)
        .map(|(b, busy)| 1.0 - busy / (workers as f64 * b.wall))
        .collect();
    out.set("runner.busy_s", median(&busy));
    out.set("runner.idle_share", median(&idle));
    let call_ms: Vec<f64> = probes
        .iter()
        .flat_map(|p| p.calls.iter().map(|c| c.secs * 1e3))
        .collect();
    println!("compose.run_city_ms over n={} traced calls", call_ms.len());
    out.set("compose.run_city_ms.p50", quantile(&call_ms, 0.5));
    out.set("compose.run_city_ms.p90", quantile(&call_ms, 0.9));
    let build_ms: Vec<f64> = probes.iter().map(|p| p.campaign_secs * 1e3).collect();
    out.set("workloads.campaign_build_ms", median(&build_ms));
    let self_ms: Vec<f64> = probes
        .iter()
        .map(|p| (p.secs - p.calls.iter().map(|c| c.secs).sum::<f64>()) * 1e3)
        .collect();
    out.set("replay.self_ms", median(&self_ms));

    let mut profile = PhaseProfile::default();
    for p in &probes {
        profile.merge(&p.profile);
    }
    let total = |phase: &str| profile.phase(phase).map_or(0.0, |s| s.stats.sum());
    let (sense, decide, act) = (total("city:sense"), total("city:decide"), total("city:act"));
    out.set("trace.city.sense_s", sense / n);
    out.set("trace.city.decide_s", decide / n);
    out.set("trace.city.act_s", act / n);
    // `city:comms` nests inside `city:act`, and the protocol's own
    // `comms` spans nest inside `city:comms`: only sense, decide and
    // act are disjoint.
    out.set("trace.city.comms_s", total("city:comms") / n);
    out.set("trace.comms_s", total("comms") / n);
    let in_calls: f64 = call_ms.iter().sum::<f64>() / 1e3;
    out.set(
        "trace.unattributed_s",
        (in_calls - sense - decide - act) / n,
    );
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| t.wall / u.wall)
        .collect();
    out.set("trace.obs_overhead", median(&ratios));
}
