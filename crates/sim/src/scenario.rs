//! Scenario definitions and the runner — the configurations of Table 5
//! and the deep-dive experiments (§7.1).
//!
//! A [`Scenario`] names a (cluster, policy, loaning, engine) combination;
//! [`run_scenario`] wires the traces, cluster state, policy, orchestrator
//! and inference scheduler into a [`Simulation`] and returns its
//! [`SimReport`]. Trace *transforms* implement the scenario definitions:
//! `Ideal` makes every job elastic/fungible/hetero with perfect
//! performance, `Heterogeneous` disables the fungible load, imperfect
//! scaling swaps elastic jobs' curves for the 20 %-loss model, and the
//! checkpoint/elastic-fraction sweeps of Figures 13–16 rewrite job flags.

use crate::engine::{ObserverConfig, SimConfig, SimError, Simulation};
use crate::faults::FaultPlan;
use crate::metrics::SimReport;
use lyra_cluster::inference::InferenceScheduler;
use lyra_cluster::orchestrator::{Orchestrator, ReclaimPolicy};
use lyra_cluster::state::{ClusterConfig, ClusterState};
use lyra_core::gpu::GpuType;
use lyra_core::job::{Elasticity, JobSpec, ModelFamily, ScalingCurve};
use lyra_core::policies::{JobScheduler, PolicyContext, PolicyRegistry, UnknownPolicy};
use lyra_predictor::{LstmConfig, RuntimeEstimator, RuntimeEstimatorConfig, UsagePredictor};
use lyra_trace::{InferenceTrace, JobTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why a scenario configuration was rejected before the engine ever ran.
///
/// Every rejection is typed so harnesses (`lyra-bench` exits 2 on any of
/// these) can distinguish operator error from an engine bug; nothing here
/// ever panics.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A generation speed factor was zero, negative or non-finite.
    NonPositiveSpeedFactor {
        /// The GPU generation with the bad factor.
        gpu: GpuType,
        /// The rejected factor.
        factor: f64,
    },
    /// A job's shrink cost was negative or non-finite.
    NegativeShrinkCost {
        /// Offending job id.
        job: u64,
        /// The rejected cost, seconds.
        cost_s: f64,
    },
    /// A job's expand cost was negative or non-finite.
    NegativeExpandCost {
        /// Offending job id.
        job: u64,
        /// The rejected cost, seconds.
        cost_s: f64,
    },
    /// A job's deadline was before its own submission (or non-finite).
    DeadlineBeforeArrival {
        /// Offending job id.
        job: u64,
        /// The rejected deadline, seconds from trace start.
        deadline_s: f64,
        /// The job's submission time, seconds from trace start.
        submit_s: f64,
    },
    /// The scenario names a policy the registry does not know.
    UnknownPolicy(UnknownPolicy),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveSpeedFactor { gpu, factor } => {
                write!(f, "speed factor for {gpu:?} must be finite and > 0, got {factor}")
            }
            ConfigError::NegativeShrinkCost { job, cost_s } => {
                write!(f, "job {job}: shrink cost must be finite and >= 0, got {cost_s}")
            }
            ConfigError::NegativeExpandCost { job, cost_s } => {
                write!(f, "job {job}: expand cost must be finite and >= 0, got {cost_s}")
            }
            ConfigError::DeadlineBeforeArrival {
                job,
                deadline_s,
                submit_s,
            } => write!(
                f,
                "job {job}: deadline {deadline_s}s precedes its submission at {submit_s}s"
            ),
            ConfigError::UnknownPolicy(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Checks a scenario + job trace against the configuration invariants
/// the engine assumes: positive finite speed factors, non-negative
/// finite resize costs, deadlines at or after submission, and a policy
/// name the builtin registry knows.
///
/// [`run_scenario`] runs this automatically; harnesses call it
/// directly when they want the typed [`ConfigError`] (e.g. to exit with
/// a usage error instead of a crash).
///
/// # Errors
///
/// The first violated invariant, as a [`ConfigError`].
pub fn validate_scenario(scenario: &Scenario, jobs: &JobTrace) -> Result<(), ConfigError> {
    if let Err((gpu, factor)) = scenario.cluster.speed.validate() {
        return Err(ConfigError::NonPositiveSpeedFactor { gpu, factor });
    }
    for job in &jobs.jobs {
        if job.shrink_cost_s < 0.0 || !job.shrink_cost_s.is_finite() {
            return Err(ConfigError::NegativeShrinkCost {
                job: job.id.0,
                cost_s: job.shrink_cost_s,
            });
        }
        if job.expand_cost_s < 0.0 || !job.expand_cost_s.is_finite() {
            return Err(ConfigError::NegativeExpandCost {
                job: job.id.0,
                cost_s: job.expand_cost_s,
            });
        }
        if let Some(d) = job.deadline_s {
            if !d.is_finite() || d < job.submit_time_s {
                return Err(ConfigError::DeadlineBeforeArrival {
                    job: job.id.0,
                    deadline_s: d,
                    submit_s: job.submit_time_s,
                });
            }
        }
    }
    if let Err(e) = PolicyRegistry::builtin().get_checked(&scenario.policy) {
        return Err(ConfigError::UnknownPolicy(e));
    }
    Ok(())
}

/// A full experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label used in reports.
    pub name: String,
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Job-scheduling policy, by registry name (see
    /// [`PolicyRegistry::builtin`] for the built-in set: "fifo",
    /// "fifo-backfill", "opportunistic", "lyra", "lyra-no-elastic",
    /// "lyra-naive-placement", "gandiva", "afs", "pollux", "lyra-las",
    /// "lyra-greedy-phase2").
    pub policy: String,
    /// Capacity loaning with this reclaim policy; `None` disables
    /// loaning entirely.
    pub loaning: Option<ReclaimPolicy>,
    /// Engine parameters.
    pub sim: SimConfig,
    /// Running-time estimator (Table 9 injects error here).
    pub estimator: RuntimeEstimatorConfig,
    /// Train the LSTM predictor on the utilisation trace and reclaim in
    /// advance (§6).
    pub use_predictor: bool,
    /// Drive the inference side's capacity target through the Erlang-C
    /// latency model instead of proportional busy GPUs.
    pub use_capacity_model: bool,
    /// Seed for the orchestrator's randomised comparators.
    pub seed: u64,
    /// Optional fault schedule injected into the run (crashes, worker
    /// failures, stragglers, dropped ticks).
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    fn base(name: &str) -> Self {
        Scenario {
            name: name.to_string(),
            cluster: ClusterConfig::default(),
            policy: "lyra".to_string(),
            loaning: Some(ReclaimPolicy::Lyra),
            sim: SimConfig::default(),
            estimator: RuntimeEstimatorConfig::default(),
            use_predictor: false,
            use_capacity_model: false,
            seed: 0xCAFE,
            faults: None,
        }
    }

    /// Table 5 row 1: FIFO, no loaning, no scaling.
    ///
    /// Skips blocked jobs (YARN-style FIFO apps run whenever they fit):
    /// the paper's Baseline has a 55 s *median* queuing time at 82 %
    /// utilisation, which is incompatible with head-of-line blocking.
    pub fn baseline() -> Self {
        Scenario {
            policy: "fifo-backfill".to_string(),
            loaning: None,
            ..Self::base("baseline")
        }
    }

    /// Table 5 row 2: the default Lyra configuration (fungible loaning +
    /// elastic scaling, no heterogeneous training).
    pub fn basic() -> Self {
        Self::base("basic")
    }

    /// Table 5 row 5: everything elastic/fungible/hetero at ideal
    /// performance (run on an idealised trace, see
    /// [`transform::idealize`]).
    pub fn ideal() -> Self {
        let mut s = Self::base("ideal");
        s.sim.hetero_efficiency = 1.0;
        s
    }

    /// Capacity-loaning-only rows (7–9): FIFO job scheduling plus loaning
    /// under the given reclaim policy.
    pub fn loaning_only(reclaim: ReclaimPolicy, name: &str) -> Self {
        Scenario {
            policy: "fifo-backfill".to_string(),
            loaning: Some(reclaim),
            ..Self::base(name)
        }
    }

    /// Row 6: opportunistic scheduling of fungible jobs on idle inference
    /// servers (no managed loaning; evictions are random).
    pub fn opportunistic() -> Self {
        Scenario {
            policy: "opportunistic".to_string(),
            loaning: Some(ReclaimPolicy::Random),
            ..Self::base("opportunistic")
        }
    }

    /// Elastic-scaling-only rows (10–14): the given policy (by registry
    /// name) on the fixed training cluster.
    pub fn elastic_only(policy: &str, name: &str) -> Self {
        Scenario {
            policy: policy.to_string(),
            loaning: None,
            ..Self::base(name)
        }
    }

    /// Lyra+TunedJobs (row 14): Lyra scheduling with the tuning agent's
    /// goodput gain applied to elastic jobs.
    pub fn lyra_tuned() -> Self {
        let mut s = Self::elastic_only("lyra", "lyra+tuned");
        s.sim.tuned = true;
        s
    }
}

/// Trace transforms implementing scenario definitions.
pub mod transform {
    use super::*;

    /// Makes every job elastic (`[demand, 2·demand]`), fungible and
    /// hetero-capable — the Ideal scenario's "for jobs without a
    /// pre-defined scaling range, we consider its requested demand to be
    /// the base demand, and its scaling range is twice that".
    pub fn idealize(trace: &mut JobTrace) {
        for job in &mut trace.jobs {
            if job.elasticity.is_none() {
                // Keep the same total work: the old running time was at
                // `demand` workers; at the new `w_max = 2·demand` the
                // minimum running time halves (linear scaling).
                let old_rt = job.running_time(job.demand);
                job.elasticity = Some(Elasticity::new(job.demand.max(1), job.demand.max(1) * 2));
                let s_min = job.curve.speedup(job.w_min());
                let s_max = job.curve.speedup(job.w_max());
                job.min_running_time_s = old_rt * s_min / s_max;
                if job.model == ModelFamily::Generic {
                    job.model = ModelFamily::ResNet50;
                }
            }
            job.fungible = true;
            job.hetero_capable = true;
        }
    }

    /// Converts a target fraction of jobs to elastic (Figures 14–16's
    /// sweep), deterministically by seed.
    pub fn set_elastic_fraction(trace: &mut JobTrace, fraction: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for job in &mut trace.jobs {
            let make = rng.gen_bool(fraction.clamp(0.0, 1.0));
            if make && job.elasticity.is_none() {
                let old_rt = job.running_time(job.demand);
                job.elasticity = Some(Elasticity::new(job.demand.max(1), job.demand.max(1) * 2));
                let s_min = job.curve.speedup(job.w_min());
                let s_max = job.curve.speedup(job.w_max());
                job.min_running_time_s = old_rt * s_min / s_max;
                job.fungible = true;
                if job.model == ModelFamily::Generic {
                    job.model = ModelFamily::ResNet50;
                }
            } else if !make && job.elasticity.is_some() {
                // Demote: run at base demand.
                let rt = job.running_time(job.w_min());
                job.elasticity = None;
                job.min_running_time_s = rt;
            }
        }
    }

    /// Applies §7.2's imperfect-scaling model to all elastic jobs: each
    /// added worker loses 20 % of its throughput.
    pub fn imperfect_scaling(trace: &mut JobTrace, loss: f64) {
        for job in &mut trace.jobs {
            if job.elasticity.is_some() {
                job.curve = ScalingCurve::PerWorkerLoss { loss };
            }
        }
    }

    /// The Heterogeneous scenario: the fungible load is disabled and the
    /// given fraction of jobs becomes heterogeneous-capable.
    pub fn heterogeneous_only(trace: &mut JobTrace, hetero_fraction: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for job in &mut trace.jobs {
            job.fungible = false;
            job.hetero_capable = rng.gen_bool(hetero_fraction.clamp(0.0, 1.0));
        }
    }

    /// Marks a fraction of jobs as hetero-capable *in addition* to the
    /// existing flags (the Advanced scenario's extra 10 %).
    pub fn add_hetero_fraction(trace: &mut JobTrace, fraction: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for job in &mut trace.jobs {
            if rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                job.hetero_capable = true;
            }
        }
    }

    /// Sets the checkpointing flag on a fraction of jobs (Figure 13).
    pub fn set_checkpoint_fraction(trace: &mut JobTrace, fraction: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for job in &mut trace.jobs {
            job.checkpointing = rng.gen_bool(fraction.clamp(0.0, 1.0));
        }
    }

    /// Gives every job an explicit shrink/expand cost — the malleable
    /// scenario. The costs are charged as extra training stalls on each
    /// scale-in/scale-out (and on forced flex releases), so they only
    /// bite for jobs that actually resize.
    pub fn set_resize_costs(trace: &mut JobTrace, shrink_s: f64, expand_s: f64) {
        for job in &mut trace.jobs {
            job.shrink_cost_s = shrink_s;
            job.expand_cost_s = expand_s;
        }
    }

    /// Gives every job an SLO deadline at `submit + slack_mult · u ·
    /// base_running_time` with `u` drawn uniformly from `[1, 4)` per job
    /// (deterministically by seed). The same seed draws the same `u`s, so
    /// a larger `slack_mult` strictly relaxes every deadline — the
    /// deadline-slack monotonicity oracle depends on this.
    pub fn set_deadlines(trace: &mut JobTrace, slack_mult: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for job in &mut trace.jobs {
            let u: f64 = rng.gen_range(1.0..4.0);
            let base = job.running_time(job.demand);
            job.deadline_s = Some(job.submit_time_s + slack_mult * u * base);
        }
    }
}

/// Derives the [`PolicyContext`] a scenario hands to policy builders:
/// the scenario seed, plus the opportunistic GPU budget — the most the
/// inference cluster can ever lend (its servers minus the demand at the
/// traffic trough minus headroom). Fungible jobs larger than that
/// budget fall back to training.
fn policy_context(scenario: &Scenario, inference: &InferenceTrace) -> PolicyContext {
    let servers = scenario.cluster.inference_servers;
    let gpus = scenario.cluster.gpus_per_server;
    let min_util = inference.samples.iter().copied().fold(1.0_f64, f64::min);
    let needed_at_trough =
        ((min_util * f64::from(servers * gpus)) / f64::from(gpus)).ceil() as u32;
    let headroom = (0.02 * f64::from(servers)).ceil() as u32;
    let loanable = servers.saturating_sub(needed_at_trough + headroom);
    PolicyContext {
        seed: scenario.seed,
        opportunistic_gpus: loanable * gpus,
    }
}

/// Runs one scenario over the given traces.
///
/// The job trace must have dense ids `0..n` (as produced by
/// `lyra-trace`); vector order does not matter. The inference trace is
/// only consulted when the scenario enables loaning.
///
/// # Errors
///
/// Propagates [`SimError`] on internal inconsistencies, including a job
/// trace with duplicate or gapped ids.
pub fn run_scenario(
    scenario: &Scenario,
    jobs: &JobTrace,
    inference: &InferenceTrace,
) -> Result<SimReport, SimError> {
    build_simulation(scenario, jobs, inference)?.run(&scenario.name)
}

/// Runs one scenario with an observer attached: the returned report
/// additionally carries the structured event log (`events`), the
/// telemetry store (`telemetry`) and the span profile (`profile`).
///
/// # Errors
///
/// Propagates [`SimError`] on internal inconsistencies; a sink-file
/// creation failure surfaces as a `SimError` too.
pub fn run_scenario_observed(
    scenario: &Scenario,
    jobs: &JobTrace,
    inference: &InferenceTrace,
    observer: ObserverConfig,
) -> Result<SimReport, SimError> {
    build_simulation(scenario, jobs, inference)?
        .with_observer(observer)
        .map_err(|e| SimError(format!("event-log sink: {e}")))?
        .run(&scenario.name)
}

/// Builds the ready-to-run [`Simulation`] for a scenario without running
/// it. This is the entry point for harnesses that time the build and the
/// run apart or attach their own observer before [`Simulation::run`],
/// instead of the one-shot [`run_scenario`] wrappers.
///
/// # Errors
///
/// Propagates [`SimError`] on a job trace with duplicate or gapped ids.
pub fn build_scenario(
    scenario: &Scenario,
    jobs: &JobTrace,
    inference: &InferenceTrace,
) -> Result<Simulation, SimError> {
    build_simulation(scenario, jobs, inference)
}

pub(crate) fn build_simulation(
    scenario: &Scenario,
    jobs: &JobTrace,
    inference: &InferenceTrace,
) -> Result<Simulation, SimError> {
    validate_scenario(scenario, jobs).map_err(|e| SimError(e.to_string()))?;
    let ctx = policy_context(scenario, inference);
    let policy: Box<dyn JobScheduler> = PolicyRegistry::builtin()
        .build(&scenario.policy, &ctx)
        .map_err(|e| SimError(e.to_string()))?;
    let cluster = ClusterState::new(scenario.cluster);
    // The inference scheduler is always present — its cluster exists and
    // counts toward overall usage even when loaning is disabled; the
    // orchestrator (which moves servers) only exists with loaning.
    let mut inf = InferenceScheduler::new(
        inference.clone(),
        scenario.cluster.inference_servers,
        scenario.cluster.gpus_per_server,
    );
    if scenario.use_capacity_model {
        inf.capacity_model = Some(lyra_cluster::capacity::CapacityEstimator::typical());
    }
    if scenario.use_predictor {
        let mut p = UsagePredictor::new(LstmConfig::default());
        // Train on the first day of samples (288 points).
        let train_len = inference.samples.len().min(288);
        p.train_series(&inference.samples[..train_len], 3);
        inf.predictor = Some(p);
    }
    let orchestrator = scenario
        .loaning
        .map(|reclaim| Orchestrator::new(reclaim, scenario.seed));
    let inference_sched = Some(inf);
    let estimator = RuntimeEstimator::new(scenario.estimator);
    // The engine indexes jobs by vector position and requires ids to be
    // dense (`Arrival(i)` ↔ `jobs[i]`), so canonicalise here: trace
    // vector order is not a semantic input, only `(submit_time, id)`
    // is. A stable no-op for generated traces, which are already
    // id-ordered.
    let mut specs: Vec<JobSpec> = jobs.jobs.clone();
    specs.sort_by_key(|s| s.id);
    let mut sim_config = scenario.sim;
    if sim_config.usage_horizon_s <= 0.0 {
        sim_config.usage_horizon_s = f64::from(jobs.config.days) * 86_400.0;
    }
    let mut sim = Simulation::new(
        sim_config,
        cluster,
        policy,
        orchestrator,
        inference_sched,
        estimator,
        specs,
    )?;
    if let Some(plan) = &scenario.faults {
        sim = sim.with_faults(plan.clone());
    }
    Ok(sim)
}

/// Small deterministic scenario inputs shared by the unit tests, the
/// metamorphic property suite in `lyra-oracle`, and the golden-trace
/// gate in `lyra-bench`.
///
/// Everything here is a pure function of its seed, so a property
/// harness can enumerate instances without pulling in a strategy
/// library, and a pinned `(generator, seed)` pair names a scenario
/// exactly.
pub mod generators {
    use super::*;
    use lyra_trace::{InferenceTraceConfig, TraceConfig};

    /// A one-day, 64-GPU job trace paired with a matching two-day
    /// inference trace: big enough to exercise loans, reclaims and
    /// elastic scaling, small enough to simulate in milliseconds.
    pub fn tiny_traces(seed: u64) -> (JobTrace, InferenceTrace) {
        let jobs = JobTrace::generate(TraceConfig {
            days: 1,
            training_gpus: 64,
            target_load: 0.6,
            max_demand_gpus: 32,
            seed,
            ..TraceConfig::default()
        });
        let inf = InferenceTrace::generate(InferenceTraceConfig {
            days: 2,
            total_gpus: 64,
            seed,
            ..InferenceTraceConfig::default()
        });
        (jobs, inf)
    }

    /// The 8+8 server, 8-GPU cluster the tiny traces are sized for.
    pub fn tiny_cluster() -> ClusterConfig {
        ClusterConfig {
            training_servers: 8,
            inference_servers: 8,
            gpus_per_server: 8,
            speed: lyra_core::gpu::SpeedFactors::default(),
        }
    }

    /// [`Scenario::basic`] shrunk onto the tiny cluster with the given
    /// seed — the default subject for whole-simulation properties.
    pub fn tiny_basic(seed: u64) -> Scenario {
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        s.seed = seed;
        s
    }
}

/// The scenario zoo: the named (scenario, traces) cells the ablation
/// runner sweeps every registered policy across, and the subjects of the
/// committed golden traces beyond the original `tiny-basic` family.
///
/// Every cell is a pure function of its pinned seed; `lyra-bench ablate`
/// iterates [`cases`](zoo::cases) in order, so the ablation matrix is
/// deterministic row-by-row.
pub mod zoo {
    use super::generators::{tiny_cluster, tiny_traces};
    use super::*;
    use lyra_core::gpu::SpeedFactors;

    /// One named scenario cell.
    pub struct ZooCase {
        /// Unique cell name (also the golden-trace directory suffix).
        pub name: &'static str,
        /// One-line description for listings.
        pub summary: &'static str,
        /// Seed pinning the cell's traces and scenario.
        pub seed: u64,
    }

    impl ZooCase {
        /// Materialises the cell: scenario plus the transformed traces.
        pub fn build(&self) -> (Scenario, JobTrace, InferenceTrace) {
            build_case(self.name, self.seed)
        }
    }

    /// Every zoo cell, in sweep order.
    pub fn cases() -> Vec<ZooCase> {
        vec![
            ZooCase {
                name: "basic",
                summary: "homogeneous fleet, Table 5 Basic configuration",
                seed: 21,
            },
            ZooCase {
                name: "hetero",
                summary: "mixed GPU generations: V100s at 1.25x, T4s at 0.8x reference speed",
                seed: 22,
            },
            ZooCase {
                name: "malleable",
                summary: "70% elastic jobs paying explicit shrink (30s) / expand (45s) costs",
                seed: 23,
            },
            ZooCase {
                name: "deadline",
                summary: "every job carries an SLO deadline at 2x slack; misses are rolled up",
                seed: 24,
            },
        ]
    }

    /// The per-cell speed factors of the `hetero` cell.
    pub fn hetero_speed() -> SpeedFactors {
        SpeedFactors { v100: 1.25, t4: 0.8 }
    }

    fn build_case(name: &str, seed: u64) -> (Scenario, JobTrace, InferenceTrace) {
        let (mut jobs, inf) = tiny_traces(seed);
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        s.seed = seed;
        s.name = format!("zoo-{name}");
        match name {
            "basic" => {}
            "hetero" => {
                s.cluster = s.cluster.with_speed(hetero_speed());
            }
            "malleable" => {
                transform::set_elastic_fraction(&mut jobs, 0.7, seed ^ 1);
                transform::set_resize_costs(&mut jobs, 30.0, 45.0);
            }
            "deadline" => {
                transform::set_deadlines(&mut jobs, 2.0, seed ^ 1);
            }
            other => unreachable!("zoo case {other} has no builder"),
        }
        (s, jobs, inf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use generators::{tiny_cluster, tiny_traces};

    #[test]
    fn baseline_runs_to_completion() {
        let (jobs, inf) = tiny_traces(1);
        let mut s = Scenario::baseline();
        s.cluster = tiny_cluster();
        let report = run_scenario(&s, &jobs, &inf).expect("runs");
        assert_eq!(report.completed, jobs.jobs.len());
        assert_eq!(report.preemption_ratio, 0.0, "no loaning → no preemption");
        assert!(report.jct.mean > 0.0);
        assert!(report.training_usage > 0.0);
    }

    #[test]
    fn basic_beats_baseline_on_queuing() {
        let (jobs, inf) = tiny_traces(2);
        let mut base = Scenario::baseline();
        base.cluster = tiny_cluster();
        let mut basic = Scenario::basic();
        basic.cluster = tiny_cluster();
        let rb = run_scenario(&base, &jobs, &inf).expect("baseline runs");
        let rl = run_scenario(&basic, &jobs, &inf).expect("lyra runs");
        assert_eq!(rl.completed, jobs.jobs.len());
        assert!(
            rl.queuing.mean <= rb.queuing.mean * 1.05,
            "lyra {:.0}s vs baseline {:.0}s",
            rl.queuing.mean,
            rb.queuing.mean
        );
    }

    #[test]
    fn malformed_trace_ids_error_instead_of_aliasing() {
        let (jobs, inf) = tiny_traces(1);
        let mut s = Scenario::baseline();
        s.cluster = tiny_cluster();

        // Duplicate id: two jobs would silently share one engine slot.
        let mut dup = jobs.clone();
        dup.jobs[1].id = dup.jobs[0].id;
        let err = run_scenario(&s, &dup, &inf).expect_err("duplicate ids must be rejected");
        assert!(err.to_string().contains("trace ids"), "{err}");

        // Gapped id: would index out of bounds at arrival time.
        let mut gap = jobs.clone();
        let last = gap.jobs.len() - 1;
        gap.jobs[last].id.0 += 1;
        let err = run_scenario(&s, &gap, &inf).expect_err("gapped ids must be rejected");
        assert!(err.to_string().contains("trace ids"), "{err}");
    }

    #[test]
    fn trace_vector_order_is_not_semantic() {
        // Dense ids in any vector order canonicalise to the same run.
        let (jobs, inf) = tiny_traces(5);
        let mut s = Scenario::baseline();
        s.cluster = tiny_cluster();
        let mut shuffled = jobs.clone();
        shuffled.jobs.reverse();
        let a = run_scenario(&s, &jobs, &inf).expect("ordered runs");
        let b = run_scenario(&s, &shuffled, &inf).expect("reversed runs");
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_given_seed() {
        let (jobs, inf) = tiny_traces(3);
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        let a = run_scenario(&s, &jobs, &inf).expect("runs");
        let b = run_scenario(&s, &jobs, &inf).expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    fn all_policies_complete_all_jobs() {
        let (jobs, inf) = tiny_traces(4);
        for (kind, loaning) in [
            ("fifo", None),
            ("fifo-backfill", None),
            ("gandiva", None),
            ("afs", None),
            ("pollux", None),
            ("lyra", Some(ReclaimPolicy::Lyra)),
            ("lyra-no-elastic", Some(ReclaimPolicy::Scf)),
            ("opportunistic", Some(ReclaimPolicy::Random)),
        ] {
            let mut s = Scenario::base("policy-test");
            s.cluster = tiny_cluster();
            s.policy = kind.to_string();
            s.loaning = loaning;
            let r = run_scenario(&s, &jobs, &inf).unwrap_or_else(|e| panic!("{kind}: {e}"));
            if kind == "opportunistic" {
                // At toy scale some fungible jobs legitimately never fit
                // the inference cluster's loanable trough.
                assert!(
                    r.completed >= jobs.jobs.len() * 85 / 100,
                    "{kind} finished only {}/{}",
                    r.completed,
                    jobs.jobs.len()
                );
            } else {
                assert_eq!(r.completed, jobs.jobs.len(), "{kind} left jobs unfinished");
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let (jobs, inf) = tiny_traces(1);
        let good = generators::tiny_basic(1);

        let mut bad_policy = good.clone();
        bad_policy.policy = "lyra-quantum".to_string();
        assert!(matches!(
            validate_scenario(&bad_policy, &jobs),
            Err(ConfigError::UnknownPolicy(ref e)) if e.name == "lyra-quantum"
        ));
        let err = run_scenario(&bad_policy, &jobs, &inf).expect_err("unknown policy errors");
        assert!(err.to_string().contains("lyra-quantum"), "{err}");

        let mut bad_speed = good.clone();
        bad_speed.cluster.speed.t4 = 0.0;
        assert!(matches!(
            validate_scenario(&bad_speed, &jobs),
            Err(ConfigError::NonPositiveSpeedFactor { gpu: GpuType::T4, .. })
        ));
        assert!(run_scenario(&bad_speed, &jobs, &inf).is_err());

        let mut bad_shrink = jobs.clone();
        bad_shrink.jobs[2].shrink_cost_s = -1.0;
        assert!(matches!(
            validate_scenario(&good, &bad_shrink),
            Err(ConfigError::NegativeShrinkCost { cost_s, .. }) if cost_s == -1.0
        ));

        let mut bad_expand = jobs.clone();
        bad_expand.jobs[2].expand_cost_s = f64::NAN;
        assert!(matches!(
            validate_scenario(&good, &bad_expand),
            Err(ConfigError::NegativeExpandCost { .. })
        ));

        let mut bad_deadline = jobs.clone();
        bad_deadline.jobs[3].deadline_s = Some(bad_deadline.jobs[3].submit_time_s - 1.0);
        match validate_scenario(&good, &bad_deadline) {
            Err(ConfigError::DeadlineBeforeArrival { job, .. }) => {
                assert_eq!(job, bad_deadline.jobs[3].id.0);
            }
            other => panic!("expected DeadlineBeforeArrival, got {other:?}"),
        }
        assert!(run_scenario(&good, &bad_deadline, &inf).is_err());
    }

    #[test]
    fn zoo_cases_build_deterministically_and_run() {
        for case in zoo::cases() {
            let (s1, j1, i1) = case.build();
            let (s2, j2, i2) = case.build();
            assert_eq!(s1, s2, "{} scenario is pure in its seed", case.name);
            assert_eq!(j1, j2);
            assert_eq!(i1, i2);
            let r = run_scenario(&s1, &j1, &i1)
                .unwrap_or_else(|e| panic!("zoo case {}: {e}", case.name));
            assert!(r.completed > 0, "{} completed nothing", case.name);
            if case.name == "deadline" {
                assert_eq!(
                    r.deadlines.with_deadline,
                    j1.jobs.len(),
                    "every job carries a deadline"
                );
                assert_eq!(r.deadlines.met + r.deadlines.missed, r.deadlines.with_deadline);
            } else {
                assert_eq!(r.deadlines.with_deadline, 0);
            }
        }
    }

    #[test]
    fn hetero_speed_factors_change_the_outcome() {
        // A uniformly faster fleet must not be slower on mean JCT; a
        // distinctly-skewed fleet must produce a different report than
        // the reference fleet (the factor actually reaches the engine).
        let (jobs, inf) = tiny_traces(22);
        let reference = generators::tiny_basic(22);
        let mut faster = reference.clone();
        faster.cluster.speed = lyra_core::gpu::SpeedFactors { v100: 2.0, t4: 2.0 };
        let r_ref = run_scenario(&reference, &jobs, &inf).expect("reference runs");
        let r_fast = run_scenario(&faster, &jobs, &inf).expect("faster runs");
        assert!(
            r_fast.jct.mean <= r_ref.jct.mean + 1e-9,
            "2x fleet mean JCT {:.0}s vs reference {:.0}s",
            r_fast.jct.mean,
            r_ref.jct.mean
        );
        assert_ne!(r_ref, r_fast, "speed factors reach the progress model");
    }

    #[test]
    fn resize_costs_are_charged_and_attributed() {
        // With aggressive costs the malleable trace must not finish
        // faster than the free-resize trace, and the stall shows up in
        // the loan-scale-in / launch-overhead attribution buckets.
        let (mut free, inf) = tiny_traces(23);
        transform::set_elastic_fraction(&mut free, 0.7, 23 ^ 1);
        let mut costly = free.clone();
        transform::set_resize_costs(&mut costly, 600.0, 600.0);
        let s = generators::tiny_basic(23);
        let r_free = run_scenario(&s, &free, &inf).expect("free runs");
        let r_costly = run_scenario(&s, &costly, &inf).expect("costly runs");
        assert!(r_costly.scaling_ops > 0, "scenario exercises resizing");
        assert!(
            r_costly.jct.mean >= r_free.jct.mean - 1e-9,
            "600s resize costs cannot speed the run up: {:.0}s vs {:.0}s",
            r_costly.jct.mean,
            r_free.jct.mean
        );
    }

    #[test]
    fn same_seed_observed_runs_emit_identical_event_logs() {
        let (jobs, inf) = tiny_traces(10);
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        let a = run_scenario_observed(&s, &jobs, &inf, ObserverConfig::default()).expect("runs");
        let b = run_scenario_observed(&s, &jobs, &inf, ObserverConfig::default()).expect("runs");
        assert!(!a.events.is_empty(), "observed run emits events");
        assert_eq!(
            lyra_obs::to_jsonl(&a.events),
            lyra_obs::to_jsonl(&b.events),
            "same-seed logs are byte-identical"
        );
        assert_eq!(a.telemetry, b.telemetry, "same-seed telemetry matches");
        assert!(
            a.profile.0.iter().any(|p| p.name == "sim.scheduler_tick"),
            "engine tick is profiled: {:?}",
            a.profile.0
        );
        assert!(
            a.profile
                .0
                .iter()
                .any(|p| p.name.starts_with("core.placement")),
            "placement is profiled: {:?}",
            a.profile.0
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failing_sink_fails_the_run_naming_the_sink() {
        let (jobs, inf) = tiny_traces(10);
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        let cfg = ObserverConfig {
            sink_path: Some("/dev/full".into()),
        };
        let err = run_scenario_observed(&s, &jobs, &inf, cfg).expect_err("disk full");
        assert!(err.0.contains("/dev/full"), "{err}");
        // The thread-local collectors are off again for the next run.
        assert!(run_scenario(&s, &jobs, &inf).is_ok());
        assert!(!lyra_obs::audit::is_enabled());
    }

    #[test]
    fn same_seed_telemetry_exports_are_byte_identical() {
        let (jobs, inf) = tiny_traces(10);
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        let a = run_scenario_observed(&s, &jobs, &inf, ObserverConfig::default()).expect("runs");
        let b = run_scenario_observed(&s, &jobs, &inf, ObserverConfig::default()).expect("runs");
        assert!(a.telemetry.epochs > 0, "telemetry sampled every epoch");
        assert!(
            a.telemetry.series("queue.depth").is_some()
                && a.telemetry.series("util.dedicated").is_some()
                && a.telemetry.series("rate.preemptions").is_some(),
            "core gauges present: {:?}",
            a.telemetry.series_names().collect::<Vec<_>>()
        );
        let csv = a.telemetry.to_csv();
        assert!(csv.lines().count() > 1, "CSV export has data rows");
        assert_eq!(csv, b.telemetry.to_csv(), "same-seed series CSV is byte-identical");
    }

    #[test]
    fn fault_events_in_log_match_fault_stats() {
        use crate::faults::{FaultConfig, FaultPlan};
        use lyra_obs::SchedEvent;

        let (mut jobs, inf) = tiny_traces(11);
        transform::set_elastic_fraction(&mut jobs, 0.5, 4);
        transform::set_checkpoint_fraction(&mut jobs, 0.5, 5);
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        let horizon_s = 2.0 * 86_400.0;
        s.faults = Some(FaultPlan::generate(
            &FaultConfig {
                server_crash_rate_per_day: 0.5,
                worker_failure_rate_per_day: 24.0,
                checkpoint_restore_failure_prob: 0.3,
                straggler_rate_per_day: 2.0,
                dropped_tick_prob: 0.05,
                horizon_s,
                ..FaultConfig::default()
            },
            16,
            0xFA11,
        ));
        let r = run_scenario_observed(&s, &jobs, &inf, ObserverConfig::default()).expect("runs");
        let count = |kind: &str| {
            r.events
                .iter()
                .filter(|e| matches!(&e.event, SchedEvent::Fault { kind: k, .. } if k == kind))
                .count() as u32
        };
        assert!(r.fault.injected > 0, "plan injected faults");
        assert_eq!(count("injected"), r.fault.injected);
        assert_eq!(count("server_crash"), r.fault.server_crashes);
        assert_eq!(count("worker_failure"), r.fault.worker_failures);
        assert_eq!(count("straggler"), r.fault.stragglers);
        assert_eq!(count("dropped_tick"), r.fault.dropped_ticks);
        assert_eq!(count("job_killed"), r.fault.jobs_killed);
        assert_eq!(count("elastic_absorbed"), r.fault.elastic_absorbed);
        assert_eq!(count("restart"), r.fault.restarts);
        assert_eq!(count("checkpoint_restore"), r.fault.checkpoint_restores);
        assert_eq!(
            count("checkpoint_restore_failure"),
            r.fault.checkpoint_restore_failures
        );
        let carryovers = r
            .events
            .iter()
            .filter(|e| matches!(e.event, SchedEvent::ReclaimCarryover { .. }))
            .count() as u32;
        assert_eq!(carryovers, r.fault.reclaim_carryovers);
        let misses = r
            .events
            .iter()
            .filter(|e| matches!(e.event, SchedEvent::ReclaimDeadlineMiss { .. }))
            .count() as u32;
        assert_eq!(misses, r.fault.reclaim_deadline_violations);
    }

    #[test]
    fn observer_overhead_is_bounded() {
        let (jobs, inf) = tiny_traces(12);
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        // Warm up caches/allocator, then take the best of two runs each
        // way to damp scheduler noise on shared CI machines.
        let _ = run_scenario(&s, &jobs, &inf).expect("runs");
        let time_it = |observed: bool| {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let start = std::time::Instant::now();
                if observed {
                    run_scenario_observed(&s, &jobs, &inf, ObserverConfig::default())
                        .expect("runs");
                } else {
                    run_scenario(&s, &jobs, &inf).expect("runs");
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        };
        let plain = time_it(false);
        let observed = time_it(true);
        // The measured overhead sits well under the 5 % budget on an idle
        // machine; the assertion uses a deliberately loose CI-safe bound
        // (3× plus 50 ms of absolute slack) so timer noise on loaded
        // shared runners cannot flake the suite.
        assert!(
            observed <= plain * 3.0 + 0.05,
            "instrumented run {observed:.4}s vs plain {plain:.4}s"
        );
    }

    #[test]
    fn idealize_transform_makes_everything_flexible() {
        let (mut jobs, _) = tiny_traces(5);
        transform::idealize(&mut jobs);
        for j in &jobs.jobs {
            assert!(j.is_elastic());
            assert!(j.fungible && j.hetero_capable);
            assert_eq!(j.w_max(), 2 * j.w_min());
        }
    }

    #[test]
    fn idealize_preserves_total_work() {
        let (mut jobs, _) = tiny_traces(6);
        let before: Vec<f64> = jobs.jobs.iter().map(|j| j.running_time(j.demand)).collect();
        transform::idealize(&mut jobs);
        for (j, rt) in jobs.jobs.iter().zip(before) {
            assert!(
                (j.running_time(j.demand) - rt).abs() < 1e-6,
                "running time at the requested demand is invariant"
            );
        }
    }

    #[test]
    fn checkpoint_transform_reduces_lost_work() {
        let (mut jobs, inf) = tiny_traces(7);
        transform::set_checkpoint_fraction(&mut jobs, 1.0, 9);
        assert!(jobs.jobs.iter().all(|j| j.checkpointing));
        let mut s = Scenario::basic();
        s.cluster = tiny_cluster();
        let r = run_scenario(&s, &jobs, &inf).expect("runs");
        assert_eq!(r.completed, jobs.jobs.len());
    }

    #[test]
    fn elastic_fraction_transform_hits_target() {
        let (mut jobs, _) = tiny_traces(8);
        transform::set_elastic_fraction(&mut jobs, 0.8, 3);
        let frac =
            jobs.jobs.iter().filter(|j| j.is_elastic()).count() as f64 / jobs.jobs.len() as f64;
        assert!((frac - 0.8).abs() < 0.15, "elastic fraction {frac}");
    }

    #[test]
    fn imperfect_scaling_swaps_curves() {
        let (mut jobs, _) = tiny_traces(9);
        transform::idealize(&mut jobs);
        transform::imperfect_scaling(&mut jobs, 0.2);
        assert!(jobs
            .jobs
            .iter()
            .all(|j| j.curve == ScalingCurve::PerWorkerLoss { loss: 0.2 }));
    }

    // Drives the incrementally-maintained snapshot through arbitrary
    // event sequences (arrivals, launches, scaling, loaning, reclaims,
    // crashes, worker failures, stragglers, dropped ticks). The check
    // itself is the engine's `cfg(test)` assertion that the cache equals
    // `build_snapshot()` at every scheduler epoch; a divergence panics
    // the run. Per-request reclaim equivalence (the incremental
    // `ReclaimEngine` against the from-scratch `reclaim_servers`) is
    // pinned in `lyra-core`'s `incremental_engine_matches_from_scratch`
    // differential test and by `lyra-oracle`'s `check_reclaim_optimality`.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn snapshot_cache_matches_rebuild_every_epoch(
            seed in 0u64..1024,
            elastic_fraction in 0.0f64..1.0,
            checkpoint_fraction in 0.0f64..1.0,
            faulty in proptest::bool::ANY,
        ) {
            use crate::faults::{FaultConfig, FaultPlan};

            let (mut jobs, inf) = tiny_traces(seed);
            transform::set_elastic_fraction(&mut jobs, elastic_fraction, seed ^ 1);
            transform::set_checkpoint_fraction(&mut jobs, checkpoint_fraction, seed ^ 2);
            let mut s = Scenario::basic();
            s.cluster = tiny_cluster();
            if faulty {
                s.faults = Some(FaultPlan::generate(
                    &FaultConfig {
                        server_crash_rate_per_day: 1.0,
                        worker_failure_rate_per_day: 12.0,
                        checkpoint_restore_failure_prob: 0.3,
                        straggler_rate_per_day: 2.0,
                        dropped_tick_prob: 0.05,
                        horizon_s: 2.0 * 86_400.0,
                        ..FaultConfig::default()
                    },
                    8,
                    seed ^ 0xFA11,
                ));
            }
            let r = run_scenario(&s, &jobs, &inf).expect("runs");
            proptest::prop_assert_eq!(r.completed, jobs.jobs.len());
        }
    }
}
