//! # selfaware — a computational self-awareness framework
//!
//! A production-grade Rust implementation of the conceptual framework
//! in *Peter R. Lewis, "Self-aware Computing Systems: From Psychology
//! to Engineering", DATE 2017*: the translation of psychological
//! self-awareness (Morin's definition, Neisser's levels) into
//! engineering building blocks for systems that must manage trade-offs
//! between conflicting goals at run time, in large, heterogeneous,
//! uncertain, changing and decentralised environments.
//!
//! ## The framework's three concepts → this crate
//!
//! 1. **Public vs private self-awareness** — every observation carries
//!    a [`sensors::Scope`]; the [`knowledge::KnowledgeBase`] keeps both
//!    kinds of self-knowledge.
//! 2. **Levels of self-awareness** — [`levels::Level`] and
//!    [`levels::LevelSet`] name the capability classes (stimulus,
//!    interaction, time, goal, meta); the [`agent::SelfAwareAgent`]
//!    wires in exactly the machinery a chosen level set implies.
//! 3. **Collective self-awareness without a global component** —
//!    [`collective`] provides gossip and hierarchical architectures
//!    whose awareness lives in no single node.
//!
//! On top of these sit the capabilities the paper surveys: learned
//! self-models ([`models`]), run-time goal trade-off management
//! ([`goals`]), self-expression ([`expression`]), meta-self-awareness
//! ([`meta`]), attention under resource constraints ([`attention`]),
//! self-explanation ([`explain`]), and robust collective messaging
//! over unreliable networks ([`comms`]).
//!
//! ## Quickstart
//!
//! ```
//! use selfaware::prelude::*;
//! use simkernel::{SeedTree, Tick};
//!
//! struct World { load: f64 }
//!
//! # fn main() -> Result<(), selfaware::error::SelfAwareError> {
//! let goal = Goal::new("serve-cheaply")
//!     .objective(Objective::new("load", Direction::Minimize, 1.0, 1.0));
//!
//! let policy = UtilityPolicy::new(
//!     vec![(0usize, "eco".into()), (1, "boost".into())],
//!     Box::new(|a: &usize, kb: &KnowledgeBase| {
//!         let load = kb.last_or("forecast.load", 0.5);
//!         if *a == 1 { load } else { 1.0 - load }
//!     }),
//! );
//!
//! let mut agent = SelfAwareAgent::builder("demo")
//!     .levels(LevelSet::full())
//!     .sensor("load", Scope::Public, |w: &World| w.load)
//!     .goal(goal)
//!     .policy(Box::new(policy))
//!     .build()?;
//!
//! let mut rng = SeedTree::new(42).rng("demo");
//! for t in 0..20u64 {
//!     let d = agent.step(&World { load: 0.9 }, Tick(t), &mut rng);
//!     agent.reward(if d.action == 1 { 1.0 } else { 0.0 });
//! }
//! assert!(agent.utility().is_some());
//! println!("{}", agent.explanations().latest().unwrap());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::panic)]
#![warn(missing_docs)]

pub mod agent;
pub mod architecture;
pub mod attention;
pub mod collective;
pub mod comms;
pub mod error;
pub mod explain;
pub mod expression;
pub mod goals;
pub mod health;
pub mod knowledge;
pub mod levels;
pub mod meta;
pub mod models;
pub mod pressure;
pub mod replay;
pub mod runtime;
pub mod sensors;
pub mod supervision;
pub mod whatif;

/// Crate version, recorded in run-trace provenance (see
/// [`simkernel::obs`]).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::agent::{AgentBuilder, SelfAwareAgent};
    pub use crate::architecture::{describe, validate, SelfDescription};
    pub use crate::attention::AttentionAllocator;
    pub use crate::comms::{
        Arrivals, Channel, ChannelOutcome, CommsNetwork, CommsPolicy, CommsStats, Delivered,
        IdealChannel, ReliableConfig, StalenessWeighted,
    };
    pub use crate::error::SelfAwareError;
    pub use crate::explain::{Explanation, ExplanationLog};
    pub use crate::expression::{
        Actuator, BanditPolicy, ConstantPolicy, Decision, FnActuator, Policy, RandomPolicy,
        UtilityPolicy,
    };
    pub use crate::goals::{Direction, Goal, Objective};
    pub use crate::health::{HealthReading, SensorHealth, SensorHealthConfig};
    pub use crate::knowledge::KnowledgeBase;
    pub use crate::levels::{Level, LevelSet};
    pub use crate::meta::{ExplorationGovernor, ModelPool, ResidualTracker, StrategySwitcher};
    pub use crate::models::bandit::{Bandit, EpsilonGreedy, Exp3, SoftmaxBandit, Ucb1};
    pub use crate::models::drift::{Cusum, DriftDetector, PageHinkley, WindowDrift};
    pub use crate::models::ewma::Ewma;
    pub use crate::models::holt::Holt;
    pub use crate::models::qlearn::QLearner;
    pub use crate::models::{Forecaster, OnlineModel};
    pub use crate::pressure::{HysteresisGate, HysteresisGateConfig};
    pub use crate::replay::{
        CounterfactualDelta, CounterfactualReport, CounterfactualRun, InterventionClass,
        InterventionMask, ReplayOutcome,
    };
    pub use crate::runtime::{drive, ControlLoop};
    pub use crate::sensors::{FnSensor, Percept, Scope, Sensor, SensorHub};
    pub use crate::supervision::{
        Anomaly, ControlSource, Evidence, SupervisionStats, Supervisor, SupervisorConfig, Verdict,
    };
    pub use crate::whatif::{utility_with, ActionEffectModel};
}
