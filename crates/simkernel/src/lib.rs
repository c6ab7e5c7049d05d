//! # simkernel — deterministic simulation kernel
//!
//! Shared substrate for every simulator in the `self-aware-systems`
//! workspace. Reproducibility is the prime directive: **all** stochastic
//! behaviour in the workspace flows from a single `u64` seed through
//! [`rng::SeedTree`], so any experiment, test, or benchmark can be
//! replayed bit-for-bit from its seed.
//!
//! The kernel provides:
//!
//! * [`rng`] — hierarchical, label-addressed seed derivation on top of a
//!   portable ChaCha stream cipher RNG;
//! * [`clock`] — a time-stepped simulation clock ([`clock::Clock`]),
//!   the [`clock::Tick`] newtype used as the workspace-wide time unit,
//!   and the [`clock::ClockSource`] trait that lets control loops run
//!   against either simulated ticks or real elapsed time
//!   ([`clock::WallClock`]);
//! * [`sched`] — the discrete-event main-loop scheduler: sparse
//!   activation via `wake_at`/`wake_on_input` with a deterministic
//!   `(tick, priority class, FIFO seq)` delivery order and a
//!   same-tick re-schedule budget;
//! * [`delivery`] — a tick-indexed in-flight buffer for message copies
//!   travelling through lossy/delaying channels, drained in a
//!   deterministic (arrival tick, FIFO) order;
//! * [`stats`] — streaming statistics (Welford moments, percentile
//!   reservoirs, confidence intervals) used by every experiment;
//! * [`series`] — down-sampled time-series capture and ASCII sparkline
//!   rendering for the "figure" benchmarks;
//! * [`table`] — aligned ASCII table rendering for the "table"
//!   benchmarks;
//! * [`runner`] — a replication runner that fans one scenario out over
//!   independently-seeded replicates and aggregates metrics;
//! * [`parallel`] — order-preserving parallel map primitives that keep
//!   multi-core runs bit-identical to sequential ones (worker count
//!   from `available_parallelism`, overridable via `SAS_THREADS`);
//! * [`obs`] — structured observability: `SAS_OBS`-gated phase
//!   profiling spans, per-replicate record emission, and a JSONL
//!   run-trace writer, all guaranteed never to feed simulation state
//!   (so parity holds with observability on or off).
//!
//! ## Example
//!
//! ```
//! use simkernel::rng::SeedTree;
//! use simkernel::stats::OnlineStats;
//! use rand::Rng;
//!
//! let tree = SeedTree::new(42);
//! let mut rng = tree.rng("example");
//! let mut stats = OnlineStats::new();
//! for _ in 0..1000 {
//!     stats.push(rng.gen_range(0.0..1.0));
//! }
//! assert!((stats.mean() - 0.5).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod clock;
pub mod delivery;
pub mod obs;
pub mod parallel;
pub mod rng;
pub mod runner;
pub mod sched;
pub mod series;
pub mod stats;
pub mod table;

pub use clock::{Clock, ClockSource, Tick, WallClock};
pub use delivery::DeliveryQueue;
pub use obs::{Json, PhaseProfile};
pub use parallel::{par_map, par_map_index, try_par_map_index, worker_count};
pub use rng::SeedTree;
pub use runner::{Aggregate, MetricKey, MetricSet, ReplicateError, Replications, RunReport};
pub use sched::{ActivationStats, DriveMode, SimScheduler, WakeDedup};
pub use series::TimeSeries;
pub use stats::OnlineStats;
pub use table::Table;

/// Crate version, recorded in run-trace provenance (see [`obs`]).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
