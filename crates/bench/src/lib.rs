//! # sas-bench — the evaluation harness
//!
//! One module per experiment in EXPERIMENTS.md. Each `run_*` function
//! executes the experiment at the size it is given and returns the
//! rendered table/figure; [`EXPERIMENTS`] pairs each one with its run
//! id and its full and smoke sizes. The `sas-bench` binary prints them
//! (`sas-bench run <id>... [--smoke]`, or `run all` to regenerate every
//! table and figure of the reproduction).
//!
//! All experiments use common random numbers across strategies
//! (replicate *k* shares a seed subtree regardless of strategy), which
//! tightens the pairwise comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
