//! End-to-end checks of the `sas-bench` binary: its stdout is the
//! library's rendered table, bad arguments are usage errors, and a
//! gated smoke run reports its gate.

use std::process::{Command, Output};

fn sas_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sas-bench"))
        .args(args)
        .output()
        .expect("sas-bench runs")
}

#[test]
fn run_prints_exactly_the_rendered_table() {
    let out = sas_bench(&["run", "t5"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        format!("{}\n", sas_bench::run_t5(10))
    );
}

#[test]
fn unknown_id_is_a_usage_error() {
    let out = sas_bench(&["run", "nope"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage: sas-bench run"), "{stderr}");
}

#[test]
fn f12_smoke_passes_its_gate() {
    let out = sas_bench(&["run", "f12", "--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("F12 scale gate: PASS"), "{stdout}");
}
