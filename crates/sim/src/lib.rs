#![warn(missing_docs)]

//! # lyra-sim
//!
//! The high-fidelity discrete-event simulator the paper evaluates Lyra
//! with (§7.1), plus the scenario definitions of Table 5 and the metric
//! collection behind every figure.
//!
//! * [`engine`] — the event loop: arrivals, completions, scaling,
//!   preemption, loaning/reclaiming ticks and lazy progress accounting.
//! * [`scenario`] — Baseline/Basic/Advanced/Heterogeneous/Ideal and the
//!   deep-dive configurations, plus the trace transforms that define them.
//! * [`metrics`] — queuing/JCT percentiles, usage integrals, preemption,
//!   collateral-damage and fault accounting.
//! * [`faults`] — deterministic, seeded fault injection: server crashes,
//!   worker failures, stragglers, checkpoint-restore failures and dropped
//!   orchestrator ticks as first-class simulator events.
//!
//! ```no_run
//! use lyra_sim::{run_scenario, Scenario};
//! use lyra_trace::{InferenceTrace, InferenceTraceConfig, JobTrace, TraceConfig};
//!
//! let jobs = JobTrace::generate(TraceConfig::small(1));
//! let inference = InferenceTrace::generate(InferenceTraceConfig::default());
//! let report = run_scenario(&Scenario::basic(), &jobs, &inference).unwrap();
//! println!("mean JCT: {:.0}s", report.jct.mean);
//! ```

pub mod engine;
pub mod faults;
pub mod metrics;
pub mod scenario;

pub use engine::{ObserverConfig, SimConfig, SimError, Simulation};
pub use faults::{
    CarryTransition, FaultConfig, FaultEvent, FaultKind, FaultPlan, ReclaimCarry, ReclaimLedger,
};
pub use metrics::{
    percentiles, DeadlineStats, FaultStats, JobRecord, Percentiles, ReclaimRecord, SimReport,
    UsageIntegral,
};
pub use scenario::{
    build_scenario, generators, run_scenario, run_scenario_observed, transform, validate_scenario,
    zoo, ConfigError, Scenario,
};
