//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <city-replay|cloud-trace|live-ladder|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed defaults to 1, the window to `run_seconds`, and tracing to
//! off; `--workload all` runs the three workloads in turn.
//!
//! Each workload drives its layers from outside, through their public
//! functions, times every call and reads the counters the layers
//! already return. Untraced runs (`--trace 0`) report the end-to-end
//! metrics; traced runs (`--trace 1`, observability on) report the
//! per-layer metrics. The metric names and units are those of
//! `BENCHMARK.json`; a per-layer metric of a layer the workload does
//! not run reads 0. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod city;
mod cloud;
mod common;
mod live;

use common::{Outcome, RunOptions};
use simkernel::obs::{self, Json};
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark definition: metric names, units and workloads.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage: --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]";
/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    opts: RunOptions,
}

/// Parses the flags; `--seconds` defaults to the definition's
/// `run_seconds`.
fn parse_args(mut it: impl Iterator<Item = String>, def: &Json) -> Result<Args, String> {
    let run_seconds = def
        .get("run_seconds")
        .and_then(Json::as_num)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, run_seconds as u64, false);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    match workload {
        Some(workload) if seconds > 0 => Ok(Args {
            workload,
            opts: RunOptions {
                seed,
                window: Duration::from_secs(seconds),
                trace,
            },
        }),
        _ => Err(USAGE.to_string()),
    }
}

/// `(name, unit)` of every metric in one list of the definition.
fn catalogue(def: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    def.get(list)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))?
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("malformed `{list}` entry"))
        })
        .collect()
}

/// The result line: every metric of the selected list, by name and
/// unit. End-to-end metrics must all be measured; a per-layer metric
/// the workload does not produce belongs to a layer it does not run.
fn result_line(out: &Outcome, def: &Json, trace: bool) -> Result<Json, String> {
    let all: Vec<String> = ["end_to_end", "per_layer"]
        .iter()
        .map(|l| catalogue(def, l))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .map(|(name, _)| name)
        .collect();
    if let Some(unknown) = out.metrics.keys().find(|k| !all.iter().any(|n| n == *k)) {
        return Err(format!(
            "metric `{unknown}` is not defined in BENCHMARK.json"
        ));
    }
    let list = if trace { "per_layer" } else { "end_to_end" };
    let mut metrics = Vec::new();
    for (name, unit) in catalogue(def, list)? {
        let value = match out.metrics.get(name.as_str()) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite"));
        }
        println!("{name} = {value} {unit}");
        metrics.push((
            name,
            Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::from(out.failed == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Runs every workload of the definition in turn, each in a fresh
/// process of this binary (so each reports its own peak RSS), with
/// the same options.
fn run_all(def: &Json, opts: &RunOptions) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads = def
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?;
    for name in workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
    {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.window.as_secs().to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name}: {status}"));
        }
    }
    Ok(())
}

fn run() -> Result<Option<Json>, String> {
    let def = obs::parse(DEFINITION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let args = parse_args(std::env::args().skip(1), &def)?;
    let workload: fn(&RunOptions) -> Outcome = match args.workload.as_str() {
        "all" => return run_all(&def, &args.opts).map(|()| None),
        "city-replay" => city::run,
        "cloud-trace" => cloud::run,
        "live-ladder" => live::run,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut out = workload(&args.opts);
    out.set("error_share", out.error_share());
    out.set("peak_rss_mb", common::peak_rss_mb());
    println!(
        "{}: seed={} workers={} attempted={} failed={}",
        args.workload,
        args.opts.seed,
        common::nproc(),
        out.attempted,
        out.failed
    );
    result_line(&out, &def, args.opts.trace).map(Some)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            if let Some(line) = line {
                println!("{}", line.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
