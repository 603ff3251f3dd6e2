//! The benchmark's workloads, written out in full here so that a change
//! to the experiment harness (`lyra-bench`'s scales) cannot silently
//! change what the benchmark measures.
//!
//! Every workload runs `Scenario::basic()` (Lyra scheduling + capacity
//! loaning), so every layer the per-layer metrics name does real work on
//! every workload; the workloads differ in cluster size, offered load and
//! inference-side churn, which moves the balance between the layers.
//!
//! Inputs: the job trace is pinned per workload (`job_seed`), the way the
//! paper replays one recorded production trace. The run's `--seed` draws
//! the inference utilisation trace and the scenario seed (the
//! orchestrator's randomised comparators), so a held-out seed changes the
//! loan/reclaim dynamics without changing the training work offered.

use lyra_sim::Scenario;
use lyra_trace::{InferenceTraceConfig, TraceConfig};

/// One named workload shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub training_servers: u32,
    pub inference_servers: u32,
    /// Days of job submissions (the inference trace covers 30 more, so
    /// the drain after the last submission still sees a diurnal wave).
    pub days: u32,
    /// Offered training load relative to training capacity.
    pub target_load: f64,
    /// Seed of the pinned job trace.
    pub job_seed: u64,
    /// Inference utilisation noise amplitude and burst process.
    pub noise: f64,
    pub burst_prob: f64,
    pub burst_mean: f64,
    /// Orchestrator (loan/reclaim) tick period, seconds.
    pub orchestrator_interval_s: f64,
}

/// The paper's cluster: 443 training + 520 inference servers (§7.1).
const PAPER: (u32, u32) = (443, 520);
/// A third of it, sized so observed runs stay near 50 MB of log.
const MEDIUM: (u32, u32) = (150, 170);

/// Inference-trace defaults of `InferenceTraceConfig::default()`,
/// restated so the workload does not drift with them.
const NOISE: f64 = 0.02;
const BURST_PROB: f64 = 0.05;
const BURST_MEAN: f64 = 0.03;
/// The paper's 300 s orchestrator period (`SimConfig::default()`).
const ORCHESTRATOR_S: f64 = 300.0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "saturated",
        training_servers: PAPER.0,
        inference_servers: PAPER.1,
        days: 1,
        target_load: 1.4,
        job_seed: 5,
        noise: NOISE,
        burst_prob: BURST_PROB,
        burst_mean: BURST_MEAN,
        orchestrator_interval_s: ORCHESTRATOR_S,
    },
    Workload {
        name: "light",
        training_servers: PAPER.0,
        inference_servers: PAPER.1,
        days: 2,
        target_load: 0.5,
        job_seed: 5,
        noise: NOISE,
        burst_prob: BURST_PROB,
        burst_mean: BURST_MEAN,
        orchestrator_interval_s: ORCHESTRATOR_S,
    },
    Workload {
        name: "steady",
        training_servers: MEDIUM.0,
        inference_servers: MEDIUM.1,
        days: 4,
        target_load: 0.82,
        job_seed: 5,
        noise: NOISE,
        burst_prob: BURST_PROB,
        burst_mean: BURST_MEAN,
        orchestrator_interval_s: ORCHESTRATOR_S,
    },
    Workload {
        name: "churn",
        training_servers: MEDIUM.0,
        inference_servers: MEDIUM.1,
        days: 2,
        target_load: 1.4,
        job_seed: 5,
        noise: 0.05,
        burst_prob: 0.25,
        burst_mean: 0.10,
        orchestrator_interval_s: 60.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The `--check` variant: the same shape on 16 + 16 servers for one
    /// day, small enough to run every code path in a few seconds.
    pub fn shrunk(self) -> Workload {
        Workload {
            training_servers: 16,
            inference_servers: 16,
            days: 1,
            ..self
        }
    }

    pub fn job_config(&self) -> TraceConfig {
        TraceConfig {
            days: self.days,
            training_gpus: self.training_servers * 8,
            target_load: self.target_load,
            seed: self.job_seed,
            ..TraceConfig::default()
        }
    }

    pub fn inference_config(&self, seed: u64) -> InferenceTraceConfig {
        InferenceTraceConfig {
            days: self.days + 30,
            total_gpus: self.inference_servers * 8,
            noise: self.noise,
            burst_prob: self.burst_prob,
            burst_mean: self.burst_mean,
            seed: seed ^ 0x5A5A,
            ..InferenceTraceConfig::default()
        }
    }

    pub fn scenario(&self, seed: u64) -> Scenario {
        let mut s = Scenario::basic();
        s.name = self.name.to_string();
        s.cluster.training_servers = self.training_servers;
        s.cluster.inference_servers = self.inference_servers;
        s.cluster.gpus_per_server = 8;
        s.sim.orchestrator_interval_s = self.orchestrator_interval_s;
        s.seed = seed;
        s
    }
}
