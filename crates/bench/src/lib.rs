//! # lyra-bench
//!
//! The experiment harness: one subcommand per table and figure of the
//! paper's evaluation (§7) and the `impl` timings of the scheduling
//! algorithms themselves. Simulator cost (wall time, observation
//! overhead, per-layer self time) is measured by `lyra-benchmark`.
//!
//! Run `cargo run -p lyra-bench --release -- help` for the experiment
//! list; `lyra-bench impl` times the MCKP solve, the reclaim heuristic
//! and one Lyra and one Pollux epoch. Experiments default to
//! a scaled-down cluster/trace so the whole suite completes in minutes;
//! pass `--full` for the paper-scale 15-day, 50k-job configuration.

pub mod ablate;
pub mod experiments;
pub mod golden;
pub mod plot;
pub mod tables;
pub mod timeline;

use lyra_sim::{run_scenario, Scenario, SimReport};
use lyra_trace::{InferenceTrace, InferenceTraceConfig, JobTrace, TraceConfig};
use serde::{Deserialize, Serialize};

/// Experiment scale: trade fidelity for wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// CI-sized: 1 day, 16 + 16 servers.
    Small,
    /// Default: 4 days, 150 + 170 servers (shape-faithful, minutes).
    Medium,
    /// The paper's configuration: 15 days, 443 + 520 servers, ~50k jobs.
    Full,
}

impl Scale {
    /// Days of trace at this scale.
    pub fn days(self) -> u32 {
        match self {
            Scale::Small => 1,
            Scale::Medium => 4,
            Scale::Full => 15,
        }
    }

    /// `(training, inference)` server counts at this scale.
    pub fn servers(self) -> (u32, u32) {
        match self {
            Scale::Small => (16, 16),
            Scale::Medium => (150, 170),
            Scale::Full => (443, 520),
        }
    }

    /// The job-trace configuration at this scale.
    pub fn trace_config(self, seed: u64) -> TraceConfig {
        let (train, _) = self.servers();
        TraceConfig {
            days: self.days(),
            training_gpus: train * 8,
            seed,
            ..TraceConfig::default()
        }
    }

    /// The utilisation-trace configuration at this scale.
    pub fn inference_config(self, seed: u64) -> InferenceTraceConfig {
        let (_, inf) = self.servers();
        InferenceTraceConfig {
            days: self.days() + 30, // cover the post-trace drain period
            total_gpus: inf * 8,
            seed,
            ..InferenceTraceConfig::default()
        }
    }

    /// The cluster configuration at this scale.
    pub fn cluster_config(self) -> lyra_cluster::state::ClusterConfig {
        let (train, inf) = self.servers();
        lyra_cluster::state::ClusterConfig {
            training_servers: train,
            inference_servers: inf,
            gpus_per_server: 8,
            speed: lyra_core::gpu::SpeedFactors::default(),
        }
    }

    /// Generates the default job + utilisation traces for this scale.
    pub fn traces(self, seed: u64) -> (JobTrace, InferenceTrace) {
        (
            JobTrace::generate(self.trace_config(seed)),
            InferenceTrace::generate(self.inference_config(seed ^ 0x5A5A)),
        )
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

/// Runs `scenario` over the traces on `scale`'s cluster. Experiment
/// scenarios are fixed, so a failed run is a harness bug.
pub fn run_at(
    mut scenario: Scenario,
    scale: Scale,
    jobs: &JobTrace,
    inference: &InferenceTrace,
) -> SimReport {
    scenario.cluster = scale.cluster_config();
    run_scenario(&scenario, jobs, inference).expect("scenario completes")
}

/// Runs a batch of labelled scenario thunks on worker threads (the
/// scenarios of one table are independent) and returns results in input
/// order.
pub fn run_parallel<T, F>(tasks: Vec<(String, F)>) -> Vec<(String, T)>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|(label, f)| (label, scope.spawn(f)))
            .collect();
        handles
            .into_iter()
            .map(|(label, h)| (label, h.join().expect("scenario thread panicked")))
            .collect()
    })
}

/// The paper's "Reduction" metric: `duration(other) / duration(lyra)`
/// (§7.1). A value of 1.53 means Lyra is 1.53× better.
pub fn reduction(other: f64, lyra: f64) -> f64 {
    if lyra > 0.0 {
        other / lyra
    } else {
        f64::INFINITY
    }
}

/// One labelled result row for report serialisation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Experiment id ("tab5", "fig10", …).
    pub experiment: String,
    /// Scale it ran at.
    pub scale: String,
    /// Free-form key/value series (figure data) rendered by the harness.
    pub series: Vec<(String, Vec<f64>)>,
    /// The underlying per-scheme reports, when applicable.
    pub reports: Vec<SimReport>,
}

impl ExperimentResult {
    /// An empty result for `experiment` run at `scale` (a [`Scale`], or
    /// a fixed label such as the testbed's).
    pub fn new(experiment: &str, scale: impl std::fmt::Display) -> Self {
        ExperimentResult {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            series: Vec::new(),
            reports: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_matches_paper_convention() {
        assert!((reduction(3072.0, 2010.0) - 1.528).abs() < 1e-3);
        assert_eq!(reduction(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Small.days() < Scale::Medium.days());
        assert!(Scale::Medium.days() < Scale::Full.days());
        assert_eq!(Scale::Full.servers(), (443, 520));
        let cfg = Scale::Full.trace_config(1);
        assert_eq!(cfg.training_gpus, 3544);
    }

    #[test]
    fn trace_generation_round_trips_scale() {
        let (jobs, inf) = Scale::Small.traces(3);
        assert!(!jobs.jobs.is_empty());
        assert!(!inf.samples.is_empty());
        assert_eq!(jobs.config.days, 1);
    }
}
