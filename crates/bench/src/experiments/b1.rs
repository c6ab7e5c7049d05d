//! B1 — cost of the self-awareness loop itself: one
//! `SelfAwareAgent::step` per possessed level set, the core model
//! primitives, and sequential vs parallel replication fan-out. The
//! paper's pitch only works if the loop is cheap relative to the
//! decisions it improves. See EXPERIMENTS.md.
//!
//! Unlike every other experiment B1 reports wall-clock timings, so its
//! table differs from run to run and machine to machine.

use super::{Experiment, Output};
use selfaware::prelude::*;
use simkernel::{MetricSet, Replications, SeedTree, Table, Tick};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed samples per benchmark; the table reports their median.
const SAMPLES: usize = 20;
/// Wall-clock budget of one sample.
const SAMPLE_TIME: Duration = Duration::from_millis(100);
/// Warm-up before sampling, which also sizes the timed batches.
const WARM_UP: Duration = Duration::from_millis(500);

struct World {
    load: f64,
    queue: f64,
    temp: f64,
}

impl World {
    fn at(t: u64) -> Self {
        Self {
            load: (t as f64 * 0.1).sin().abs(),
            queue: (t % 17) as f64,
            temp: 40.0 + (t % 13) as f64,
        }
    }
}

fn make_agent(levels: LevelSet) -> SelfAwareAgent<World, usize> {
    let goal = Goal::new("g")
        .objective(Objective::new("load", Direction::Minimize, 1.0, 1.0))
        .objective(Objective::new("queue", Direction::Minimize, 10.0, 1.0));
    let policy = UtilityPolicy::new(
        vec![(0usize, "a".into()), (1, "b".into()), (2, "c".into())],
        Box::new(|a: &usize, kb: &KnowledgeBase| {
            let load = kb.last_or("forecast.load", 0.5);
            *a as f64 * load
        }),
    );
    SelfAwareAgent::builder("bench")
        .levels(levels)
        .sensor("load", Scope::Public, |w: &World| w.load)
        .sensor("queue", Scope::Private, |w: &World| w.queue)
        .sensor("temp", Scope::Private, |w: &World| w.temp)
        .goal(goal)
        .policy(Box::new(policy))
        .build()
        .expect("valid agent")
}

/// One agent step at tick `t + 1`, rewarded when it picks action 0.
fn step(
    agent: &mut SelfAwareAgent<World, usize>,
    rng: &mut simkernel::rng::Rng,
    t: &mut u64,
) -> f64 {
    *t += 1;
    let d = agent.step(&World::at(*t), Tick(*t), rng);
    let reward = if d.action == 0 { 1.0 } else { 0.0 };
    agent.reward(reward);
    reward
}

/// One moderately heavy replicate (a few ms of agent stepping) used
/// to compare sequential and parallel replication fan-out.
fn replication_scenario(seeds: SeedTree) -> MetricSet {
    let mut agent = make_agent(LevelSet::full());
    let mut rng = seeds.rng("bench");
    let mut t = 0;
    let hits: f64 = (0..2_000).map(|_| step(&mut agent, &mut rng, &mut t)).sum();
    let mut m = MetricSet::new();
    m.set("hit_ratio", hits / 2_000.0);
    m
}

/// Times `routine` as (min, median, max) ns per call over [`SAMPLES`]
/// samples. Each sample runs on a fresh `setup()` state, built outside
/// the timed region, and repeats `routine` in batches sized during the
/// warm-up so that one batch is long enough for the clock to resolve.
fn time_per_call<S, O>(
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S) -> O,
) -> [f64; 3] {
    let mut state = setup();
    let mut batch = 1u64;
    let warm_up = Instant::now();
    while warm_up.elapsed() < WARM_UP {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine(&mut state));
        }
        if start.elapsed() < Duration::from_millis(1) {
            batch = batch.saturating_mul(2);
        }
    }
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            let mut calls = 0u64;
            while start.elapsed() < SAMPLE_TIME {
                for _ in 0..batch {
                    black_box(routine(&mut state));
                }
                calls += batch;
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    [ns[0], ns[SAMPLES / 2], ns[SAMPLES - 1]]
}

fn format_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// B1 — wall-clock cost per call of the agent loop per level set, the
/// model primitives, and the replication engine sequentially and at
/// 1, 2, 4 and all-hardware worker threads.
#[must_use]
pub fn run_b1() -> Table {
    let mut table = Table::new(
        format!("B1: self-awareness loop overhead (wall clock per call, {SAMPLES} samples)"),
        &["group", "benchmark", "median", "min", "max"],
    );
    let mut row = |group: &str, name: &str, [min, median, max]: [f64; 3]| {
        table.row_owned(vec![
            group.to_string(),
            name.to_string(),
            format_time(median),
            format_time(min),
            format_time(max),
        ]);
    };

    let level_sets = [
        ("stimulus", LevelSet::new().with(Level::Stimulus)),
        (
            "stimulus+time",
            LevelSet::new().with(Level::Stimulus).with(Level::Time),
        ),
        (
            "stimulus+time+goal",
            LevelSet::new()
                .with(Level::Stimulus)
                .with(Level::Time)
                .with(Level::Goal),
        ),
        ("full", LevelSet::full()),
    ];
    for (name, levels) in level_sets {
        let timing = time_per_call(
            || (make_agent(levels), SeedTree::new(1).rng("bench"), 0u64),
            |(agent, rng, t)| step(agent, rng, t),
        );
        row("agent step", name, timing);
    }

    let timing = time_per_call(
        || (Ewma::new(0.2), 0.0_f64),
        |(m, x)| {
            *x += 0.1;
            m.observe(black_box(x.sin()));
            m.forecast()
        },
    );
    row("model primitives", "ewma_observe", timing);
    let timing = time_per_call(
        || (Holt::new(0.3, 0.1), 0.0_f64),
        |(m, x)| {
            *x += 0.1;
            m.observe(black_box(x.sin()));
            m.forecast()
        },
    );
    row("model primitives", "holt_observe", timing);
    let timing = time_per_call(
        || (Ucb1::new(16, 1.4), SeedTree::new(2).rng("ucb")),
        |(bandit, rng)| {
            let arm = bandit.select(rng);
            bandit.update(arm, 0.5);
            arm
        },
    );
    row("model primitives", "ucb1_select_update", timing);
    let timing = time_per_call(
        || (PageHinkley::new(0.05, 50.0), 0.0_f64),
        |(d, x)| {
            *x += 0.01;
            d.observe(x.sin())
        },
    );
    row("model primitives", "page_hinkley_observe", timing);

    let reps = Replications::new(0xB1, 16);
    let timing = time_per_call(|| (), |()| reps.run(replication_scenario));
    row("replication engine", "sequential_run", timing);
    let hw = simkernel::worker_count(usize::MAX);
    for threads in [1, 2, 4, hw] {
        let timing = time_per_call(
            || (),
            |()| reps.run_par_threads(threads, replication_scenario),
        );
        row(
            "replication engine",
            &format!("run_par_threads_{threads}"),
            timing,
        );
    }
    table
}

pub(super) const EXPERIMENT: Experiment = Experiment {
    id: "b1",
    has_smoke: false,
    run: |_| Output::text(run_b1()),
};
