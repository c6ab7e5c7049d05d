//! Regenerates (or validates) the committed perf envelope,
//! `BENCH_<n>.json`. See `sas_bench::perf` for the schema and
//! DESIGN.md ("Performance") for the rules it enforces.
//!
//! Usage:
//!
//! * `cargo run --release -p sas-bench --bin perfbench`
//!   — full run; writes `BENCH_<n>.json` at the repo root.
//! * `... -- --smoke [--out PATH]`
//!   — reduced steps/reps (CI); same schema, machine-local timings.
//! * `... -- --validate PATH`
//!   — schema-check an existing document; exits non-zero on drift.
//!   No benchmarks run in this mode.
//! * `... -- --validate-all`
//!   — schema-check **every** committed `BENCH_<n>.json` at the repo
//!   root and print the cross-PR wall-clock delta table for arms
//!   present in two or more documents. Exits non-zero on drift in any
//!   document (timings stay informational). No benchmarks run.
//!
//! `--out PATH` overrides the output path in the generating modes.

use sas_bench::perf;
use simkernel::obs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    smoke: bool,
    out: Option<PathBuf>,
    validate: Option<PathBuf>,
    validate_all: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: None,
        validate: None,
        validate_all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                args.out = Some(PathBuf::from(
                    it.next().ok_or("--out requires a path".to_string())?,
                ));
            }
            "--validate" => {
                args.validate = Some(PathBuf::from(
                    it.next().ok_or("--validate requires a path".to_string())?,
                ));
            }
            "--validate-all" => args.validate_all = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Reads `path`, parses it and schema-checks it, reporting the verdict
/// either way. Returns the document only when it conforms.
fn load_validated(path: &Path) -> Option<obs::Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: cannot read {}: {e}", path.display());
            return None;
        }
    };
    let doc = match obs::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {} is not valid JSON: {e}", path.display());
            return None;
        }
    };
    if let Err(e) = perf::validate_bench(&doc) {
        eprintln!("perfbench: schema drift in {}: {e}", path.display());
        return None;
    }
    println!("perfbench: {} conforms to the schema", path.display());
    Some(doc)
}

/// Validates every committed `BENCH_<n>.json` and prints the cross-PR
/// wall-clock trajectory. Fails on schema drift in any document or
/// when no documents are found at all (the trajectory must never
/// silently vanish); timing differences are printed, never gated.
fn validate_all() -> ExitCode {
    let paths = perf::bench_history_paths();
    if paths.is_empty() {
        eprintln!("perfbench: no BENCH_<n>.json documents found at the repo root");
        return ExitCode::FAILURE;
    }
    let mut history = Vec::new();
    for (version, path) in paths {
        let Some(doc) = load_validated(&path) else {
            return ExitCode::FAILURE;
        };
        history.push((version, doc));
    }
    let table = perf::bench_delta_table(&history);
    if table.is_empty() {
        println!("perfbench: no arm appears in two or more documents yet — no delta table");
    } else {
        println!("{table}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.validate_all {
        return validate_all();
    }

    if let Some(path) = args.validate {
        return match load_validated(&path) {
            Some(_) => ExitCode::SUCCESS,
            None => ExitCode::FAILURE,
        };
    }

    let out = match args.out.or_else(perf::default_bench_path) {
        Some(p) => p,
        None => {
            eprintln!("perfbench: cannot locate the workspace root (no Cargo.lock ancestor); pass --out PATH");
            return ExitCode::FAILURE;
        }
    };
    let start = std::time::Instant::now();
    let doc = perf::run_perfbench(args.smoke, |line| eprintln!("perfbench: {line}"));
    if let Err(e) = perf::validate_bench(&doc) {
        eprintln!("perfbench: generated document fails its own schema: {e}");
        return ExitCode::FAILURE;
    }
    let mut text = doc.render();
    text.push('\n');
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("perfbench: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "perfbench: wrote {} in {:.2?} ({} mode)",
        out.display(),
        start.elapsed(),
        if args.smoke { "smoke" } else { "full" }
    );
    ExitCode::SUCCESS
}
