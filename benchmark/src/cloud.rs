//! `cloud-trace`: the F12 volunteer-cloud request trace on the
//! discrete-event core, one worker, one operation at a time.
//!
//! One operation is one sparse `cloudsim::run_des_cloud`: 32,768 nodes,
//! 150,000 ticks at 8 requests per tick (about 1.2M requests), with
//! trace-scale churn and one mid-run rack outage over an eighth of the
//! fleet. The workload is defined by these inputs alone, so it can be
//! re-pointed at whichever simulator hosts the same trace.

use crate::alloc;
use crate::common::{digest_metrics, median, time_reps, Outcome, RunOptions};
use cloudsim::{run_des_cloud, DesCloudConfig, DesCloudResult};
use simkernel::{obs, ActivationStats, DriveMode, SeedTree, Tick};
use std::time::Instant;
use workloads::faults::FaultPlan;
use workloads::FaultEvent;

const NODES: usize = 32_768;
const STEPS: u64 = 150_000;
const RATE: f64 = 8.0;
/// Dense-vs-sparse parity scale (run outside the measured window).
const PARITY_NODES: usize = 1_024;
const PARITY_STEPS: u64 = 20_000;

fn config(nodes: usize, steps: u64, drive: DriveMode) -> DesCloudConfig {
    let mut cfg = DesCloudConfig::at_scale(nodes, steps, RATE);
    cfg.churn_off = 2e-4;
    cfg.churn_on = 2e-3;
    cfg.faults = FaultPlan::none().and(FaultEvent::zone_outage(
        Tick(steps / 3),
        nodes / 4,
        (nodes / 8).max(1),
        steps / 4,
    ));
    cfg.drive = drive;
    cfg
}

/// One timed operation.
struct Op {
    secs: f64,
    allocs: u64,
    perf: ActivationStats,
    arrived: f64,
    conserved: bool,
    digest: u64,
}

fn metric(r: &DesCloudResult, name: &str) -> f64 {
    r.metrics.get(name).unwrap_or(f64::NAN)
}

fn op(cfg: &DesCloudConfig, seeds: &SeedTree) -> Op {
    let a0 = alloc::count();
    let t = Instant::now();
    let r = std::hint::black_box(run_des_cloud(std::hint::black_box(cfg), seeds));
    let secs = t.elapsed().as_secs_f64();
    let allocs = alloc::count() - a0;
    let arrived = metric(&r, "arrived");
    let accounted = metric(&r, "completed") + metric(&r, "lost") + metric(&r, "in_flight");
    let mut buf = Vec::new();
    digest_metrics(&mut buf, &r.metrics);
    Op {
        secs,
        allocs,
        perf: r.perf,
        arrived,
        conserved: arrived == accounted,
        digest: obs::fnv1a64(&buf),
    }
}

/// Runs the workload.
pub fn run(opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let root = SeedTree::new(opts.seed);
    let full = config(NODES, STEPS, DriveMode::Sparse);

    // Set-up: build the 32,768-node world up to its first tick (a
    // zero-tick run). Repeated before every operation, so the reported
    // median samples the whole window.
    obs::set_override(Some(false));
    let setup_cfg = config(NODES, 0, DriveMode::Sparse);
    let setup_seeds = root.child("setup");
    let mut setup = Vec::new();

    // Measured window; traced runs pair each untraced operation with a
    // traced re-run on the same seeds.
    let start = Instant::now();
    let mut untraced: Vec<Op> = Vec::new();
    let mut traced: Vec<Op> = Vec::new();
    let mut k = 0u64;
    while k == 0 || start.elapsed() < opts.window {
        let seeds = root.child("trace").child_idx(k);
        obs::set_override(Some(false));
        time_reps(&mut setup, 1, || {
            std::hint::black_box(run_des_cloud(&setup_cfg, &setup_seeds));
        });
        untraced.push(op(&full, &seeds));
        if opts.trace {
            obs::set_override(Some(true));
            traced.push(op(&full, &seeds));
            obs::set_override(Some(false));
        }
        k += 1;
    }

    for (k, o) in untraced.iter().enumerate() {
        println!(
            "sim_digest cloud-trace op={k} {:016x} ({:.1} ms)",
            o.digest,
            o.secs * 1e3
        );
        out.check(o.conserved);
    }
    for (u, t) in untraced.iter().zip(&traced) {
        out.check(u.digest == t.digest && u.perf == t.perf);
    }
    // Dense and sparse driving must simulate the same world.
    let parity_seeds = root.child("parity");
    let dense = run_des_cloud(
        &config(PARITY_NODES, PARITY_STEPS, DriveMode::Dense),
        &parity_seeds,
    );
    let sparse = run_des_cloud(
        &config(PARITY_NODES, PARITY_STEPS, DriveMode::Sparse),
        &parity_seeds,
    );
    let (mut d, mut s) = (Vec::new(), Vec::new());
    digest_metrics(&mut d, &dense.metrics);
    digest_metrics(&mut s, &sparse.metrics);
    out.check(d == s);

    let op_ms: Vec<f64> = untraced.iter().map(|o| o.secs * 1e3).collect();
    let rates: Vec<f64> = untraced.iter().map(|o| STEPS as f64 / o.secs).collect();
    println!(
        "p50_ms {:.3} ms (n={} operations)",
        median(&op_ms),
        op_ms.len()
    );
    println!(
        "work_per_s {:.1} sim ticks/s (median of n={} operations)",
        median(&rates),
        rates.len()
    );
    out.set("setup_s", median(&setup));
    out.set("p50_ms", median(&op_ms));
    out.set("work_per_s", median(&rates));

    // Deterministic counters: operation 0 (untraced, fixed seeds).
    let first = &untraced[0];
    out.set("sched.wakes", first.perf.wakes as f64);
    out.set("sched.visits", first.perf.visits as f64);
    out.set("sched.shed", first.perf.shed as f64);
    out.set(
        "sched.visit_share",
        first.perf.visits as f64 / first.perf.entity_ticks.max(1) as f64,
    );
    out.set("cloudsim.requests", first.arrived);
    out.set(
        "alloc.per_wake",
        first.allocs as f64 / first.perf.wakes.max(1) as f64,
    );

    if opts.trace {
        let secs: Vec<f64> = traced.iter().map(|o| o.secs).collect();
        let ns_per_wake: Vec<f64> = traced
            .iter()
            .map(|o| o.secs * 1e9 / o.perf.wakes.max(1) as f64)
            .collect();
        out.set("cloudsim.run_s", median(&secs));
        out.set("sched.ns_per_wake", median(&ns_per_wake));
        // The DES core records no spans: the whole operation is
        // unattributed.
        out.set("trace.unattributed_s", median(&secs));
        let ratios: Vec<f64> = untraced
            .iter()
            .zip(&traced)
            .map(|(u, t)| t.secs / u.secs)
            .collect();
        out.set("trace.obs_overhead", median(&ratios));
    }
    out
}
