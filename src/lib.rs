//! # lyra
//!
//! Umbrella crate of the Lyra reproduction (*Lyra: Elastic Scheduling for
//! Deep Learning Clusters*, EuroSys '23): re-exports every workspace
//! crate under one roof for examples, integration tests and downstream
//! users.
//!
//! * [`core`] — the paper's scheduling algorithms (reclaiming, two-phase
//!   allocation, MCKP, placement, policies).
//! * [`cluster`] — servers, whitelists, the resource-manager shim, the
//!   inference-side scheduler and the loan/reclaim orchestrator.
//! * [`sim`] — the discrete-event simulator and scenario definitions.
//! * [`trace`] — synthetic production traces and CSV I/O.
//! * [`predictor`] — the LSTM usage predictor and the running-time
//!   estimator.
//! * [`elastic`] — throughput profiles, checkpointed progress on
//!   preemption and the heterogeneous-training model.
//!
//! ```
//! use lyra::sim::{run_scenario, Scenario};
//! use lyra::trace::{InferenceTrace, InferenceTraceConfig, JobTrace, TraceConfig};
//! use lyra::cluster::state::ClusterConfig;
//! use lyra::core::gpu::SpeedFactors;
//!
//! let jobs = JobTrace::generate(TraceConfig {
//!     days: 1,
//!     training_gpus: 64,
//!     max_demand_gpus: 32,
//!     seed: 7,
//!     ..TraceConfig::default()
//! });
//! let inference = InferenceTrace::generate(InferenceTraceConfig {
//!     days: 2,
//!     total_gpus: 64,
//!     seed: 8,
//!     ..InferenceTraceConfig::default()
//! });
//! let mut scenario = Scenario::basic();
//! scenario.cluster = ClusterConfig {
//!     training_servers: 8,
//!     inference_servers: 8,
//!     gpus_per_server: 8,
//!     speed: SpeedFactors::default(),
//! };
//! let report = run_scenario(&scenario, &jobs, &inference).unwrap();
//! assert_eq!(report.completed, jobs.jobs.len());
//! ```

pub use lyra_cluster as cluster;
pub use lyra_core as core;
pub use lyra_elastic as elastic;
pub use lyra_predictor as predictor;
pub use lyra_sim as sim;
pub use lyra_trace as trace;
