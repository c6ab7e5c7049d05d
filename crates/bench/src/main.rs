//! `sas-bench` — regenerates the tables and figures of EXPERIMENTS.md.
//!
//! `sas-bench run <id>... [--smoke]` runs each named experiment in
//! turn, printing its table on stdout and a timing footer on stderr;
//! `all` stands for every id. `--smoke` selects the reduced size CI
//! runs, which only f5 and f8–f12 have. Exit status: 0 on success, 1
//! when an acceptance gate (f10–f12) fails, 2 on a usage error.

use sas_bench::{Experiment, EXPERIMENTS};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let smoke: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.has_smoke)
        .map(|e| e.id)
        .collect();
    format!(
        "usage: sas-bench run <id>... [--smoke]\n  ids: {} all\n  --smoke: {}",
        ids.join(" "),
        smoke.join(" ")
    )
}

/// Parses the arguments after the program name into the experiments
/// to run and whether to run them at their smoke size.
fn parse(args: &[String]) -> Result<(Vec<&'static Experiment>, bool), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".to_string());
    };
    if command != "run" {
        return Err(format!("unknown command `{command}`"));
    }
    let mut smoke = false;
    let mut picked = Vec::new();
    for arg in rest {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "all" => picked.extend(EXPERIMENTS),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            id => picked.push(
                EXPERIMENTS
                    .iter()
                    .find(|e| e.id == id)
                    .ok_or_else(|| format!("unknown experiment id `{id}`"))?,
            ),
        }
    }
    if picked.is_empty() {
        return Err("no experiment id given".to_string());
    }
    if let Some(e) = picked.iter().find(|e| smoke && !e.has_smoke) {
        return Err(format!("`{}` has no smoke size", e.id));
    }
    Ok((picked, smoke))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (picked, smoke) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sas-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for experiment in picked {
        let start = Instant::now();
        let output = (experiment.run)(smoke);
        print!("{}", output.stdout);
        eprintln!(
            "{}: regenerated in {:.2?} on {} worker thread(s)",
            experiment.id,
            start.elapsed(),
            simkernel::worker_count(usize::MAX)
        );
        let Some((gate, failures)) = output.gate else {
            continue;
        };
        if failures.is_empty() {
            println!("{gate}: PASS");
        } else {
            for failure in &failures {
                eprintln!("GATE {failure}");
            }
            eprintln!("{gate}: FAIL");
            status = ExitCode::FAILURE;
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &[&str]) -> Result<(Vec<&'static str>, bool), String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse(&args).map(|(picked, smoke)| (picked.iter().map(|e| e.id).collect(), smoke))
    }

    #[test]
    fn runs_named_ids_in_order() {
        assert_eq!(ids(&["run", "t5", "f1"]), Ok((vec!["t5", "f1"], false)));
        assert_eq!(ids(&["run", "f12", "--smoke"]), Ok((vec!["f12"], true)));
        assert_eq!(
            ids(&["run", "--smoke", "f5", "f8"]),
            Ok((vec!["f5", "f8"], true))
        );
    }

    #[test]
    fn all_expands_to_every_id() {
        let (all, smoke) = ids(&["run", "all"]).unwrap();
        assert!(!smoke);
        assert_eq!(all.len(), EXPERIMENTS.len());
        for id in ["t1", "t6", "f1", "f12", "a1", "a3", "b1"] {
            assert!(all.contains(&id), "`all` misses {id}");
        }
    }

    #[test]
    fn rejects_unknown_id() {
        let err = ids(&["run", "t5", "nope"]).unwrap_err();
        assert!(err.contains("unknown experiment id `nope`"), "{err}");
        // Ids are exact: no prefixes, no old bench-target names.
        assert!(ids(&["run", "t"]).is_err());
        assert!(ids(&["run", "t5_collective"]).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        for flag in ["--steps", "--reps=3", "-s", "--smoke=1"] {
            let err = ids(&["run", "f5", flag]).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn rejects_smoke_on_an_id_without_a_smoke_size() {
        let err = ids(&["run", "f5", "t1", "--smoke"]).unwrap_err();
        assert!(err.contains("`t1` has no smoke size"), "{err}");
        assert!(ids(&["run", "all", "--smoke"]).is_err());
        for id in ["f5", "f8", "f9", "f10", "f11", "f12"] {
            assert!(ids(&["run", id, "--smoke"]).is_ok(), "{id}");
        }
    }

    #[test]
    fn rejects_a_missing_command_or_id() {
        assert!(ids(&[]).is_err());
        assert!(ids(&["t5"]).is_err());
        assert!(ids(&["run"]).is_err());
        assert!(ids(&["run", "--smoke"]).is_err());
    }
}
