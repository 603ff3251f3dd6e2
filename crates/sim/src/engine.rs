//! The discrete-event simulator (§7.1: "We built a discrete-event
//! simulator for evaluating Lyra at scale using job traces from
//! production. It simulates the cluster scale, hardware configuration, and
//! all job events including arrival, completion, scaling, and
//! preemption.").
//!
//! Mechanics:
//!
//! * **Events** — job arrivals, generation-tagged job finishes, periodic
//!   scheduler epochs and orchestrator ticks, ordered by millisecond
//!   timestamps with a sequence tiebreak.
//! * **Progress** — a job's remaining work (reference worker-seconds)
//!   drains at a rate derived from its placement: the scaling curve over
//!   the total worker count, weighted by the GPU capabilities of the
//!   servers hosting it, times the heterogeneous-training penalty when the
//!   device set is mixed and the tuning gain when the scenario enables
//!   Lyra+TunedJobs. Work is synced lazily; allocation changes bump a
//!   generation counter so stale finish events are ignored.
//! * **Overheads** — container launches, elastic rendezvous pauses and
//!   the measured 63 s preemption overhead (§7.5) stall a job's progress
//!   without releasing its GPUs, exactly like the prototype.
//! * **Preemption** — reclaiming evicts jobs per the orchestrator's
//!   decision; checkpointing jobs keep their progress and pay the
//!   overhead, others restart from scratch (§4's conservative default).

use crate::faults::{CarryTransition, FaultKind, FaultPlan, ReclaimLedger};
use crate::metrics::{
    percentiles, DeadlineStats, FaultStats, JobRecord, ReclaimRecord, SimReport, UsageIntegral,
};
use lyra_cluster::inference::{InferenceScheduler, LoanInstruction};
use lyra_cluster::manager::{ResourceManager, RmOp};
use lyra_cluster::orchestrator::{Orchestrator, OrchestratorDecision};
use lyra_cluster::state::ClusterState;
use lyra_core::gpu::GpuType;
use lyra_core::job::{JobId, JobSpec};
use lyra_core::policies::JobScheduler;
use lyra_core::snapshot::{
    Action, PendingJobView, PoolKind, RunningJobView, ServerGroup, ServerId, Snapshot,
};
use lyra_core::tuning::GoodputModel;
use lyra_elastic::hetero::{hetero_rate_scaled, HeteroGroup};
pub use lyra_obs::ObserverConfig;
use lyra_obs::{Observer, SchedEvent};
use lyra_predictor::RuntimeEstimator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Engine timing and overhead parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Scheduler epoch length (the job scheduler runs "in a much smaller
    /// interval than the orchestrator", §3).
    pub scheduler_interval_s: f64,
    /// Orchestrator tick length (§7.1: five minutes).
    pub orchestrator_interval_s: f64,
    /// Preemption overhead charged when a preempted job resumes (§7.5's
    /// measured 63 s).
    pub preemption_overhead_s: f64,
    /// Container-launch stall for a fresh (re)launch.
    pub launch_delay_s: f64,
    /// Elastic rendezvous pause per membership change (§6's controller).
    pub rendezvous_pause_s: f64,
    /// Throughput factor for mixed-GPU jobs (§7.1: at most 0.70 of
    /// ideal; 1.0 in the Ideal scenario).
    pub hetero_efficiency: f64,
    /// Apply the tuning agent's goodput gain to elastic jobs
    /// (Lyra+TunedJobs, §7.4).
    pub tuned: bool,
    /// Hard stop this long after the last arrival: jobs that cannot
    /// complete (e.g. opportunistic stragglers at toy scale) are reported
    /// incomplete instead of cycling forever.
    pub drain_horizon_s: f64,
    /// Report cluster usage over `[0, usage_horizon_s]` only (the trace
    /// span), so the post-trace drain does not dilute the utilisation
    /// columns. `0` means the whole run.
    pub usage_horizon_s: f64,
    /// Checkpoint interval for jobs with checkpointing, in work units
    /// (reference worker-seconds). Preempted checkpointing jobs resume
    /// from the last completed checkpoint, not the exact preemption
    /// point.
    pub checkpoint_interval_work: f64,
    /// Initial retry backoff for a reclaim demand that could not be
    /// fully satisfied at its tick; the unmet remainder is carried
    /// forward and retried with exponential backoff instead of being
    /// dropped.
    pub reclaim_retry_backoff_s: f64,
    /// Deadline for a carried-forward reclaim demand; missing it is
    /// counted as a reclaim-deadline violation in the report.
    pub reclaim_deadline_s: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheduler_interval_s: 60.0,
            orchestrator_interval_s: 300.0,
            preemption_overhead_s: 63.0,
            launch_delay_s: 10.0,
            rendezvous_pause_s: 15.0,
            hetero_efficiency: 0.70,
            tuned: false,
            drain_horizon_s: 30.0 * 86_400.0,
            usage_horizon_s: 0.0,
            checkpoint_interval_work: 600.0,
            reclaim_retry_backoff_s: 300.0,
            reclaim_deadline_s: 1_800.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Arrival(usize),
    Finish(usize, u64),
    SchedulerTick,
    OrchestratorTick,
    /// The `i`-th event of the attached fault plan fires.
    Fault(usize),
    /// A crashed server completes recovery and rejoins its pool.
    ServerRecover(ServerId),
    /// A straggler episode on this server ends.
    StragglerEnd(ServerId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time_ms: u64,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ms, self.seq).cmp(&(other.time_ms, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What tells one caller's membership change apart from another's (see
/// [`Simulation::resize`]).
#[derive(Debug, Clone, Copy)]
struct ResizeCharge {
    /// Cause the rendezvous pause is charged to.
    pause_cause: lyra_obs::DelayCause,
    /// A malleable job's explicit resize cost (`expand_cost_s` or
    /// `shrink_cost_s`), stalled after the rendezvous pause.
    cost_s: f64,
    /// Cause `cost_s` is charged to.
    cost_cause: lyra_obs::DelayCause,
    /// Whether the change is a controller-coordinated rescale that logs
    /// a `ControllerRescale`; an involuntary worker loss is not.
    controller_rescale: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Pending,
    Running,
    Done,
}

#[derive(Debug, Clone)]
struct SimJob {
    spec: JobSpec,
    state: JobState,
    /// Remaining work in reference worker-seconds.
    work_left: f64,
    /// Current workers (0 when pending).
    workers: u32,
    flexible_workers: u32,
    placement: Vec<(ServerId, u32)>,
    flex_placement: Vec<(ServerId, u32)>,
    /// Current service rate, work units per second.
    rate: f64,
    /// Time `work_left` was last synced.
    synced_at_s: f64,
    /// Progress stalls until this absolute time (launch/rendezvous/
    /// preemption overheads).
    stall_until_s: f64,
    /// Pending-side bookkeeping.
    enqueued_at_s: f64,
    resume_overhead_s: f64,
    /// Cause charged to the pending `resume_overhead_s` stall at the
    /// next launch (checkpoint restore vs. full restart vs. preemption).
    resume_cause: Option<lyra_obs::DelayCause>,
    /// Stale-finish guard.
    generation: u64,
    record: JobRecord,
}

impl SimJob {
    fn new(spec: JobSpec) -> Self {
        let mut record = JobRecord::new(spec.id, spec.submit_time_s);
        record.deadline_s = spec.deadline_s;
        let work = spec.work();
        let enqueued = spec.submit_time_s;
        SimJob {
            record,
            work_left: work,
            state: JobState::Pending,
            workers: 0,
            flexible_workers: 0,
            placement: Vec::new(),
            flex_placement: Vec::new(),
            rate: 0.0,
            synced_at_s: enqueued,
            stall_until_s: 0.0,
            enqueued_at_s: enqueued,
            resume_overhead_s: 0.0,
            resume_cause: None,
            generation: 0,
            spec,
        }
    }

    /// Remaining work at `now`, without mutating.
    fn work_left_at(&self, now: f64) -> f64 {
        if self.state != JobState::Running || self.rate <= 0.0 {
            return self.work_left;
        }
        let active_from = self.synced_at_s.max(self.stall_until_s);
        let dt = (now - active_from).max(0.0);
        (self.work_left - self.rate * dt).max(0.0)
    }

    /// Syncs `work_left` to `now`.
    fn sync(&mut self, now: f64) {
        self.work_left = self.work_left_at(now);
        self.synced_at_s = now;
    }

    /// Adds a progress stall of `pause_s` starting at `now`.
    fn stall(&mut self, now: f64, pause_s: f64) {
        self.stall_until_s = self.stall_until_s.max(now) + pause_s;
    }

    /// Absolute finish time from `now` under the current rate.
    fn finish_time(&self, now: f64) -> Option<f64> {
        if self.state != JobState::Running || self.rate <= 0.0 {
            return None;
        }
        let start = now.max(self.stall_until_s).max(self.synced_at_s);
        Some(start + self.work_left_at(now) / self.rate)
    }
}

/// Error from the simulation (policy/cluster inconsistencies).
#[derive(Debug)]
pub struct SimError(pub String);

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

/// The incrementally-maintained scheduler snapshot.
///
/// Rebuilding the full [`Snapshot`] every epoch is the dominant
/// scheduler-tick cost at trace scale: it clones every pending spec,
/// every running placement and every server view even when the epoch
/// changed nothing. Instead the engine keeps one snapshot alive across
/// ticks and patches exactly what each event touched:
///
/// * `snap.pending` mirrors `Simulation::queue` in lockstep — entries
///   are inserted at the same position as the queue index they mirror,
///   and a pending job's view fields are static while queued. Removals
///   are *deferred*: a launch only records the job id in
///   `pending_dead`, and the next flush compacts the mirror in one
///   `retain` pass — a burst of launches into a load-deep queue would
///   otherwise memmove the ~200-byte tail views once per launch.
/// * `dirty_servers` marks occupancy changes (allocate/release/evict);
///   `structural` marks whitelist changes (loan/return/crash/recover),
///   which invalidate positions and force a server-view rebuild.
/// * `dirty_running` marks job indices whose running-view membership or
///   shape changed; remaining work drains continuously, so it is
///   refreshed for *every* running view each epoch.
#[derive(Debug, Default)]
struct SnapshotCache {
    snap: Snapshot,
    /// The cache has been fully built at least once.
    primed: bool,
    /// The whitelist changed: server views must be rebuilt wholesale.
    structural: bool,
    /// Servers whose occupancy (or group label) changed since the last
    /// refresh.
    dirty_servers: std::collections::BTreeSet<ServerId>,
    /// Job indices whose running-view membership or shape changed.
    dirty_running: std::collections::BTreeSet<usize>,
    /// Jobs dequeued since the last flush whose pending views are still
    /// physically present in `snap.pending`.
    pending_dead: std::collections::HashSet<JobId>,
}

/// The discrete-event simulation.
pub struct Simulation {
    /// Engine parameters.
    pub config: SimConfig,
    cluster: ClusterState,
    policy: Box<dyn JobScheduler>,
    orchestrator: Option<Orchestrator>,
    inference: Option<InferenceScheduler>,
    estimator: RuntimeEstimator,
    jobs: Vec<SimJob>,
    /// Pending job indices, (submit, id)-ordered.
    queue: Vec<usize>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now_s: f64,
    completed: usize,
    arrived: usize,
    stuck_since_s: Option<f64>,
    // Usage integrals.
    training_usage: UsageIntegral,
    on_loan_usage: UsageIntegral,
    on_loan_servers: UsageIntegral,
    overall_usage: UsageIntegral,
    reclaims: Vec<ReclaimRecord>,
    loan_ops: usize,
    scaling_ops: usize,
    /// The YARN-like control plane: every container/whitelist operation
    /// the run issued, with its modelled latency (§6).
    rm: ResourceManager,
    /// Inference-cluster total GPUs (for overall usage).
    inference_total_gpus: f64,
    // Fault injection.
    faults: Option<FaultPlan>,
    /// Fire-time rolls (checkpoint-restore failures), seeded from the
    /// plan so fault outcomes replay exactly.
    fault_rng: StdRng,
    fault_stats: FaultStats,
    /// Active straggler slowdown factors per server.
    slowdown: BTreeMap<ServerId, f64>,
    /// The next orchestrator tick was marked lost by a fault.
    drop_next_orch_tick: bool,
    /// Carried-forward reclaim debt (deadline + backoff state machine,
    /// see [`crate::faults::ReclaimLedger`]).
    reclaim_ledger: ReclaimLedger,
    /// The snapshot maintained incrementally across scheduler epochs.
    cache: SnapshotCache,
    /// The next scheduler epoch validates its snapshot (debug builds):
    /// armed at the invariant-auditor cadence instead of every tick.
    validate_snapshot: bool,
    /// Σ base GPUs over the pending queue, kept in lockstep by
    /// `enqueue`/`dequeue` so the per-epoch loan-demand check needn't
    /// walk the queue (it runs deep under load).
    pending_gpus: u64,
    /// Like `pending_gpus`, restricted to fungible jobs and weighted by
    /// the T4 worker multiplier for inelastic ones.
    pending_fungible_gpus: u64,
    /// Indices of jobs currently in `JobState::Running`, maintained by
    /// the `Launch` arm and `leave_running`, so per-epoch scans skip the
    /// full jobs array (which grows with the whole trace).
    running_jobs: std::collections::BTreeSet<usize>,
    /// Σ `(w_max − workers) × gpus_per_worker` over running elastic
    /// fungible jobs — the scale-out term of loan demand. Maintained by
    /// the `Launch` arm, `resize` and `leave_running` so the per-epoch
    /// demand check is O(1) instead of a walk over the running set.
    elastic_headroom_gpus: u64,
    /// Σ workers over running elastic jobs — the `elastic.workers`
    /// gauge. Maintained alongside `elastic_headroom_gpus` so the
    /// per-epoch sample is O(1).
    elastic_workers: u32,
    /// Attached observability (event log + telemetry + audit); `None`
    /// keeps the hot path free of instrumentation.
    observer: Option<Observer>,
    /// Per-phase span profile collected at the end of an observed run.
    profile: lyra_obs::Profile,
    /// Cluster-level delay-attribution rollup, reconciled and collected
    /// at the end of an observed run.
    attribution: lyra_obs::AttributionSummary,
    /// Victim job id → `DecisionId` of the `ReclaimChoice` that picked
    /// it, captured by `drain_audit` and consumed by
    /// `apply_preemption` within the same reclaim wave. Always empty
    /// between events.
    pending_preempt_decisions: std::collections::BTreeMap<u64, u64>,
    /// The cluster generation the last passing audit saw (see
    /// [`ClusterState::audit_if_changed`]).
    audited_generation: Option<u64>,
}

/// GPUs a pending job contributes to loan-eligible demand: zero unless
/// fungible, and weighted by the T4 worker multiplier for inelastic jobs
/// (which must replicate their reference capacity worker-for-worker).
fn fungible_demand_gpus(spec: &JobSpec) -> u64 {
    if !spec.fungible {
        return 0;
    }
    let mult = if spec.is_elastic() {
        1
    } else {
        GpuType::T4.worker_multiplier(spec.reference_gpu)
    };
    u64::from(spec.base_gpus() * mult)
}

impl Simulation {
    /// Scale-out headroom a *running* job contributes to loan-eligible
    /// demand: elastic fungible jobs can absorb loaned capacity up to
    /// `w_max`. Callers are responsible for only counting running jobs.
    fn headroom_gpus(j: &SimJob) -> u64 {
        if j.spec.is_elastic() && j.spec.fungible {
            u64::from(j.spec.w_max().saturating_sub(j.workers) * j.spec.gpus_per_worker)
        } else {
            0
        }
    }

    /// Workers a *running* job adds to the `elastic.workers` gauge: all
    /// of them if it is elastic. Callers only count running jobs.
    fn elastic_workers_of(j: &SimJob) -> u32 {
        if j.spec.is_elastic() {
            j.workers
        } else {
            0
        }
    }

    /// Builds a simulation over a job list (must be id-renumbered
    /// `0..n` in submission order, as `lyra-trace` produces).
    ///
    /// `inference` enables capacity loaning; `None` simulates a fixed
    /// training cluster.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the job ids are not exactly `0..n` in
    /// order: the engine indexes `jobs[id]` by vector position, so a
    /// duplicate id would silently alias two jobs onto one slot and a
    /// gapped id would index out of bounds.
    pub fn new(
        config: SimConfig,
        cluster: ClusterState,
        policy: Box<dyn JobScheduler>,
        orchestrator: Option<Orchestrator>,
        inference: Option<InferenceScheduler>,
        estimator: RuntimeEstimator,
        specs: Vec<JobSpec>,
    ) -> Result<Self, SimError> {
        let inference_total_gpus = inference
            .as_ref()
            .map(|i| f64::from(i.total_servers * i.gpus_per_server))
            .unwrap_or(0.0);
        let mut sim = Simulation {
            config,
            cluster,
            policy,
            orchestrator,
            inference,
            estimator,
            jobs: Vec::with_capacity(specs.len()),
            queue: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            now_s: 0.0,
            completed: 0,
            arrived: 0,
            stuck_since_s: None,
            training_usage: UsageIntegral::new(),
            on_loan_usage: UsageIntegral::new(),
            on_loan_servers: UsageIntegral::new(),
            overall_usage: UsageIntegral::new(),
            reclaims: Vec::new(),
            loan_ops: 0,
            scaling_ops: 0,
            rm: ResourceManager::new(),
            inference_total_gpus,
            faults: None,
            fault_rng: StdRng::seed_from_u64(0),
            fault_stats: FaultStats::default(),
            slowdown: BTreeMap::new(),
            drop_next_orch_tick: false,
            reclaim_ledger: ReclaimLedger::new(),
            cache: SnapshotCache::default(),
            validate_snapshot: true,
            pending_gpus: 0,
            pending_fungible_gpus: 0,
            running_jobs: std::collections::BTreeSet::new(),
            elastic_headroom_gpus: 0,
            elastic_workers: 0,
            observer: None,
            profile: lyra_obs::Profile::default(),
            attribution: lyra_obs::AttributionSummary::default(),
            pending_preempt_decisions: std::collections::BTreeMap::new(),
            audited_generation: None,
        };
        let n = specs.len();
        for (i, spec) in specs.into_iter().enumerate() {
            if spec.id.0 as usize != i {
                return Err(SimError(format!(
                    "trace ids must be exactly 0..{n} in order: position {i} holds {id}",
                    id = spec.id,
                )));
            }
            let t = spec.submit_time_s;
            sim.jobs.push(SimJob::new(spec));
            sim.push_event(t, EventKind::Arrival(i));
        }
        sim.push_event(0.0, EventKind::SchedulerTick);
        if sim.orchestrator.is_some() {
            sim.push_event(0.0, EventKind::OrchestratorTick);
        }
        Ok(sim)
    }

    /// Attaches a fault plan: every scheduled fault becomes a
    /// first-class simulator event, and the plan's seed drives the
    /// fire-time rolls (checkpoint-restore failures), so runs with the
    /// same trace and plan are bit-reproducible.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_rng = StdRng::seed_from_u64(plan.seed ^ 0x5EED_F417);
        for (i, ev) in plan.events.iter().enumerate() {
            self.push_event(ev.time_s, EventKind::Fault(i));
        }
        self.faults = Some(plan);
        self
    }

    /// Attaches an observer ([`lyra_obs::Observer`]): the structured
    /// event log (in memory, or to the JSONL file sink when one is
    /// configured), the telemetry store (series, counters, histograms),
    /// the decision audit trail and span timing for the hot paths. The
    /// report then carries `events` (empty with a sink), `telemetry`
    /// and `profile`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file sink cannot be created.
    pub fn with_observer(mut self, cfg: ObserverConfig) -> std::io::Result<Self> {
        self.observer = Some(Observer::new(&cfg)?);
        Ok(self)
    }

    /// Simulated now in whole milliseconds, the time every observation
    /// is stamped with.
    fn now_ms(&self) -> u64 {
        (self.now_s.max(0.0) * 1000.0).round() as u64
    }

    /// Observes `ev` (no-op without an observer). Returns the sequence
    /// number the event was logged under — its stable `DecisionId`.
    fn emit(&mut self, ev: SchedEvent) -> Option<u64> {
        let time_ms = self.now_ms();
        self.observer.as_mut().map(|o| o.observe(time_ms, ev))
    }

    /// Emits a `JobStall` announcing a progress stall of `pause_s`
    /// charged to `cause` (no-op without an observer or for zero-length
    /// pauses). The tracker replays the engine's stall arithmetic from
    /// these, so every `SimJob::stall` site must announce its pause.
    fn emit_stall(&mut self, job: u64, cause: lyra_obs::DelayCause, pause_s: f64) {
        if self.observer.is_none() || pause_s <= 0.0 {
            return;
        }
        let pause_ms = (pause_s * 1000.0).round() as u64;
        if pause_ms > 0 {
            self.emit(SchedEvent::JobStall {
                job,
                cause,
                pause_ms,
            });
        }
    }

    /// Worker-weighted straggler throughput factor of `placement`
    /// (1.0 = unaffected): bucketed all-reduce hides part of a slow
    /// host, so a job is dragged by the average of its servers' factors,
    /// not all the way down to the minimum.
    fn straggle_factor(&self, placement: &[(ServerId, u32)]) -> f64 {
        if self.slowdown.is_empty() {
            return 1.0;
        }
        let mut weighted = 0.0;
        let mut workers = 0.0;
        for (sid, w) in placement {
            let f = self.slowdown.get(sid).copied().unwrap_or(1.0);
            weighted += f64::from(*w) * f;
            workers += f64::from(*w);
        }
        if workers > 0.0 {
            weighted / workers
        } else {
            1.0
        }
    }

    /// Emits a `JobStraggle` with the job's current effective factor so
    /// the lifecycle tracker can open/close straggler episodes (no-op
    /// without an observer).
    fn note_straggle(&mut self, idx: usize) {
        if self.observer.is_none() {
            return;
        }
        let factor = self.straggle_factor(&self.jobs[idx].placement);
        let job = self.jobs[idx].spec.id.0;
        self.emit(SchedEvent::JobStraggle { job, factor });
    }

    /// Drains thread-local audit records into `Audit` events (no-op
    /// without an observer). Each `ReclaimChoice` record's emitted seq
    /// (its `DecisionId`) is kept for every victim it names, so the
    /// `apply_preemption` calls that follow in the same reclaim wave can
    /// stamp `JobPreempt` events with the decision that picked them.
    fn drain_audit(&mut self) {
        if self.observer.is_none() {
            return;
        }
        debug_assert!(
            self.pending_preempt_decisions.is_empty(),
            "victim decision map must be consumed within one reclaim wave"
        );
        for rec in lyra_obs::audit::drain() {
            let victims: Vec<u64> = match &rec {
                lyra_obs::AuditRecord::ReclaimChoice { preempted, .. } => preempted.clone(),
                _ => Vec::new(),
            };
            if let Some(seq) = self.emit(SchedEvent::Audit(rec)) {
                for v in victims {
                    self.pending_preempt_decisions.insert(v, seq);
                }
            }
        }
    }

    /// Bounds-checked job lookup (trace ids are dense `0..n`).
    fn job_index(&self, job: JobId) -> Result<usize, SimError> {
        let idx = job.0 as usize;
        if idx < self.jobs.len() {
            Ok(idx)
        } else {
            Err(SimError(format!("{job} is not in the trace")))
        }
    }

    fn push_event(&mut self, time_s: f64, kind: EventKind) {
        // Ceil: a finish event scheduled a fraction of a millisecond early
        // would observe residual work.
        let time_ms = (time_s.max(0.0) * 1000.0).ceil() as u64;
        self.seq += 1;
        self.events.push(Reverse(Event {
            time_ms,
            seq: self.seq,
            kind,
        }));
    }

    /// Current service rate of a job from its placement.
    fn compute_rate(&self, job: &SimJob) -> f64 {
        let mut v100 = 0u32;
        let mut t4 = 0u32;
        for (sid, w) in &job.placement {
            match self.cluster.server(*sid).map(|s| s.gpu_type) {
                Some(GpuType::V100) => v100 += w,
                Some(GpuType::T4) => t4 += w,
                None => {}
            }
        }
        let total = v100 + t4;
        if total == 0 {
            return 0.0;
        }
        // Capability-weighted ideal rate with the heterogeneous penalty
        // for mixed device sets (lyra-elastic's model) and per-generation
        // speed factors, rescaled onto the job's scaling curve over the
        // total worker count.
        let groups = [
            HeteroGroup {
                gpu: GpuType::V100,
                workers: v100,
            },
            HeteroGroup {
                gpu: GpuType::T4,
                workers: t4,
            },
        ];
        let ideal_per_worker = hetero_rate_scaled(
            &groups,
            self.cluster.config.speed,
            self.config.hetero_efficiency,
        ) / f64::from(total);
        let speedup = job.spec.curve.speedup(total);
        let mut rate = speedup * ideal_per_worker * self.straggle_factor(&job.placement);
        if self.config.tuned && job.spec.is_elastic() {
            let work = job.spec.work();
            let progress = if work > 0.0 {
                (1.0 - job.work_left / work).clamp(0.0, 1.0)
            } else {
                0.0
            };
            rate *= GoodputModel::typical(job.spec.w_min()).tuned_gain(speedup, total, progress);
        }
        rate
    }

    fn reschedule_finish(&mut self, idx: usize) {
        self.jobs[idx].generation += 1;
        if let Some(t) = self.jobs[idx].finish_time(self.now_s) {
            let generation = self.jobs[idx].generation;
            self.push_event(t, EventKind::Finish(idx, generation));
        }
    }

    /// Advances the usage integrals to `now` with the pre-event occupancy.
    fn advance_usage(&mut self, now: f64) {
        let (t_used, t_total) = self.cluster.gpu_usage(PoolKind::Training);
        let (l_used, l_total) = self.cluster.gpu_usage(PoolKind::OnLoan);
        self.training_usage
            .advance(now, f64::from(t_used), f64::from(t_total));
        self.on_loan_usage
            .advance(now, f64::from(l_used), f64::from(l_total));
        self.on_loan_servers.advance(
            now,
            f64::from(self.cluster.busy_loaned_count()),
            f64::from(self.cluster.loaned_count()),
        );
        let inf_busy = self
            .inference
            .as_ref()
            .map(|i| f64::from(i.trace.gpus_busy_at(self.now_s)))
            .unwrap_or(0.0);
        let overall_busy = f64::from(t_used) + f64::from(l_used) + inf_busy;
        let overall_total = f64::from(t_total) + self.inference_total_gpus;
        self.overall_usage.advance(now, overall_busy, overall_total);
    }

    /// Compacts deferred pending-mirror removals: one `retain` pass
    /// drops every view whose job has been dequeued since the last
    /// flush. Must run before anything reads the mirror or computes a
    /// queue-position into it.
    fn flush_pending_dead(&mut self) {
        if self.cache.pending_dead.is_empty() {
            return;
        }
        let dead = &self.cache.pending_dead;
        self.cache.snap.pending.retain(|p| !dead.contains(&p.spec.id));
        self.cache.pending_dead.clear();
    }

    fn enqueue(&mut self, idx: usize) {
        self.flush_pending_dead();
        let pos = self
            .queue
            .binary_search_by(|&j| {
                self.jobs[j]
                    .spec
                    .submit_time_s
                    .total_cmp(&self.jobs[idx].spec.submit_time_s)
                    .then(self.jobs[j].spec.id.cmp(&self.jobs[idx].spec.id))
            })
            .unwrap_or_else(|p| p);
        self.queue.insert(pos, idx);
        self.pending_gpus += u64::from(self.jobs[idx].spec.base_gpus());
        self.pending_fungible_gpus += fungible_demand_gpus(&self.jobs[idx].spec);
        self.jobs[idx].enqueued_at_s = self.now_s.max(self.jobs[idx].spec.submit_time_s);
        // Mirror the queue insert.
        let view = self.pending_view(idx);
        self.cache.snap.pending.insert(pos, view);
    }

    /// Removes the launched job `idx` from the queue (and its mirrored
    /// pending view). The queue is kept sorted by `(submit_time, id)`
    /// by [`Simulation::enqueue`]'s binary insert, so the position is a
    /// binary search rather than a linear scan of a load-deep queue.
    fn dequeue(&mut self, idx: usize) {
        let submit = self.jobs[idx].spec.submit_time_s;
        let id = self.jobs[idx].spec.id;
        if let Ok(pos) = self.queue.binary_search_by(|&j| {
            self.jobs[j]
                .spec
                .submit_time_s
                .total_cmp(&submit)
                .then(self.jobs[j].spec.id.cmp(&id))
        }) {
            self.queue.remove(pos);
            self.pending_gpus -= u64::from(self.jobs[idx].spec.base_gpus());
            self.pending_fungible_gpus -= fungible_demand_gpus(&self.jobs[idx].spec);
            self.cache.pending_dead.insert(id);
        }
    }

    /// Marks the servers of an assignment occupancy-dirty.
    fn mark_servers_dirty(&mut self, assignment: &[(ServerId, u32)]) {
        for (sid, _) in assignment {
            self.cache.dirty_servers.insert(*sid);
        }
    }

    /// Marks a job's running view as membership/shape-dirty.
    fn mark_running_dirty(&mut self, idx: usize) {
        self.cache.dirty_running.insert(idx);
    }

    /// Marks the server whitelist as changed: positions in the cached
    /// server views are invalid, so the next refresh rebuilds them.
    fn mark_structural(&mut self) {
        self.cache.structural = true;
    }

    /// The scheduler's view of queued job `idx`. It is static while the
    /// job is queued (work_left and preemptions only change before a job
    /// re-enters the queue), so the cache computes it once per enqueue.
    fn pending_view(&self, idx: usize) -> PendingJobView {
        let j = &self.jobs[idx];
        let est_full = self
            .estimator
            .estimate(j.spec.id, j.spec.base_running_time());
        let work = j.spec.work().max(f64::MIN_POSITIVE);
        PendingJobView {
            spec: j.spec.clone(),
            est_running_time_s: est_full * (j.work_left / work),
            work_left: j.work_left,
            preemptions: j.record.preemptions,
        }
    }

    /// The scheduler's view of running elastic job `j` with `work_left`
    /// remaining.
    fn running_view(j: &SimJob, work_left: f64) -> RunningJobView {
        RunningJobView {
            spec: j.spec.clone(),
            workers: j.workers,
            work_left,
            placement: j.placement.clone(),
            flexible_workers: j.flexible_workers,
            flex_placement: j.flex_placement.clone(),
        }
    }

    /// Rebuilds the snapshot from scratch: the reference that test
    /// builds assert the incremental cache equals after every refresh.
    #[cfg(test)]
    fn build_snapshot(&self) -> Snapshot {
        Snapshot {
            time_s: self.now_s,
            servers: self.cluster.server_views(),
            pending: self.queue.iter().map(|&i| self.pending_view(i)).collect(),
            running: self
                .jobs
                .iter()
                .filter(|j| j.state == JobState::Running && j.spec.is_elastic())
                .map(|j| Self::running_view(j, j.work_left_at(self.now_s)))
                .collect(),
        }
    }

    /// Brings the incrementally-maintained snapshot up to `now`. See
    /// [`SnapshotCache`] for the dirty-tracking contract.
    fn refresh_snapshot(&mut self) {
        let _timing = lyra_obs::span::span("sim.snapshot_refresh");
        self.flush_pending_dead();
        let now = self.now_s;
        let cache = &mut self.cache;
        let first = !cache.primed;
        if first || cache.structural {
            cache.snap.servers.clear();
            cache.snap.servers.extend(self.cluster.server_views());
        } else {
            // Server views are whitelist-ordered (ascending ids), so an
            // unchanged whitelist means dirty servers patch in place.
            for &sid in &cache.dirty_servers {
                if let Ok(i) = cache.snap.servers.binary_search_by_key(&sid, |v| v.id) {
                    if let Some(s) = self.cluster.server(sid) {
                        cache.snap.servers[i] = s.view();
                    }
                }
            }
        }
        cache.structural = false;
        cache.dirty_servers.clear();
        if first {
            cache.snap.running.clear();
            cache.snap.running.extend(
                self.jobs
                    .iter()
                    .filter(|j| j.state == JobState::Running && j.spec.is_elastic())
                    .map(|j| Self::running_view(j, j.work_left)),
            );
        } else {
            // Running views are job-id-ordered (trace ids are dense and
            // ascend with the jobs vec), so membership reconciles by
            // binary search.
            for &idx in &cache.dirty_running {
                let j = &self.jobs[idx];
                let wanted = j.state == JobState::Running && j.spec.is_elastic();
                match cache
                    .snap
                    .running
                    .binary_search_by_key(&j.spec.id, |r| r.spec.id)
                {
                    Ok(i) if wanted => {
                        let r = &mut cache.snap.running[i];
                        r.workers = j.workers;
                        r.flexible_workers = j.flexible_workers;
                        r.placement.clone_from(&j.placement);
                        r.flex_placement.clone_from(&j.flex_placement);
                    }
                    Ok(i) => {
                        cache.snap.running.remove(i);
                    }
                    Err(i) if wanted => {
                        cache
                            .snap
                            .running
                            .insert(i, Self::running_view(j, j.work_left));
                    }
                    Err(_) => {}
                }
            }
        }
        cache.dirty_running.clear();
        cache.primed = true;
        // Remaining work drains continuously between events: refresh it
        // for every running view, not just the dirty ones.
        for r in &mut cache.snap.running {
            r.work_left = self.jobs[r.spec.id.0 as usize].work_left_at(now);
        }
        cache.snap.time_s = now;
    }

    fn merge_assignment(into: &mut Vec<(ServerId, u32)>, add: &[(ServerId, u32)]) {
        for (sid, w) in add {
            match into.iter_mut().find(|(s, _)| s == sid) {
                Some(slot) => slot.1 += w,
                None => into.push((*sid, *w)),
            }
        }
    }

    fn remove_assignment(
        from: &mut Vec<(ServerId, u32)>,
        remove: &[(ServerId, u32)],
    ) -> Result<(), SimError> {
        for (sid, w) in remove {
            match from.iter_mut().find(|(s, _)| s == sid) {
                Some(slot) if slot.1 >= *w => slot.1 -= w,
                _ => {
                    return Err(SimError(format!(
                        "removing {w} workers from {sid} not present"
                    )))
                }
            }
        }
        from.retain(|(_, w)| *w > 0);
        Ok(())
    }

    fn apply_action(&mut self, action: &Action) -> Result<(), SimError> {
        match action {
            Action::Launch {
                job,
                workers,
                placement,
            } => {
                let idx = self.job_index(*job)?;
                if self.jobs[idx].state != JobState::Pending {
                    return Err(SimError(format!("{job} launched but not pending")));
                }
                let gpw = self.jobs[idx].spec.gpus_per_worker;
                self.cluster
                    .allocate(*job, placement, gpw, ServerGroup::Base)
                    .map_err(|e| SimError(e.to_string()))?;
                self.dequeue(idx);
                self.mark_servers_dirty(placement);
                self.mark_running_dirty(idx);
                for (sid, w) in placement {
                    self.rm.submit(RmOp::LaunchContainers {
                        job: *job,
                        server: *sid,
                        workers: *w,
                    });
                }
                let now = self.now_s;
                self.running_jobs.insert(idx);
                let j = &mut self.jobs[idx];
                j.state = JobState::Running;
                j.workers = *workers;
                j.flexible_workers = 0;
                j.placement = placement.clone();
                j.flex_placement.clear();
                j.record.queue_s += now - j.enqueued_at_s;
                if j.record.first_start_s.is_none() {
                    j.record.first_start_s = Some(now);
                }
                if placement
                    .iter()
                    .any(|(sid, _)| self.cluster.is_loaned(*sid))
                {
                    j.record.ran_on_loan = true;
                }
                j.synced_at_s = now;
                j.stall_until_s = now;
                let launch_delay_s = self.config.launch_delay_s;
                let resume_s = j.resume_overhead_s;
                let resume_cause = j.resume_cause.take();
                j.resume_overhead_s = 0.0;
                j.stall(now, launch_delay_s + resume_s);
                self.elastic_headroom_gpus += Self::headroom_gpus(&self.jobs[idx]);
                self.elastic_workers += Self::elastic_workers_of(&self.jobs[idx]);
                self.jobs[idx].rate = self.compute_rate(&self.jobs[idx]);
                self.reschedule_finish(idx);
                if self.observer.is_some() {
                    let on_loan = placement
                        .iter()
                        .any(|(sid, _)| self.cluster.is_loaned(*sid));
                    let servers = placement.iter().map(|(sid, _)| sid.0).collect();
                    self.emit(SchedEvent::JobStart {
                        job: job.0,
                        workers: *workers,
                        on_loan,
                        servers,
                    });
                    // Announce the launch pause split by cause: the
                    // fixed launch delay, then any carried resume
                    // overhead (checkpoint restore / restart).
                    self.emit_stall(job.0, lyra_obs::DelayCause::LaunchOverhead, launch_delay_s);
                    self.emit_stall(
                        job.0,
                        resume_cause.unwrap_or(lyra_obs::DelayCause::LaunchOverhead),
                        resume_s,
                    );
                    if !self.slowdown.is_empty() {
                        self.note_straggle(idx);
                    }
                }
            }
            Action::ScaleOut {
                job,
                extra,
                placement,
            } => {
                let idx = self.job_index(*job)?;
                if self.jobs[idx].state != JobState::Running {
                    return Err(SimError(format!("{job} scaled out but not running")));
                }
                let added: u32 = placement.iter().map(|(_, w)| w).sum();
                if added != *extra {
                    return Err(SimError(format!(
                        "{job} scale-out of {extra} places {added} workers"
                    )));
                }
                let gpw = self.jobs[idx].spec.gpus_per_worker;
                let group = if self.policy.special_elastic_placement() {
                    ServerGroup::Flexible
                } else {
                    ServerGroup::Base
                };
                self.cluster
                    .allocate(*job, placement, gpw, group)
                    .map_err(|e| SimError(e.to_string()))?;
                for (sid, w) in placement {
                    self.rm.submit(RmOp::LaunchContainers {
                        job: *job,
                        server: *sid,
                        workers: *w,
                    });
                }
                let on_loan = placement
                    .iter()
                    .any(|(sid, _)| self.cluster.is_loaned(*sid));
                if on_loan {
                    self.jobs[idx].record.ran_on_loan = true;
                }
                // Malleable jobs charge an explicit expand cost on top of
                // the rendezvous pause.
                let charge = ResizeCharge {
                    pause_cause: lyra_obs::DelayCause::Rendezvous,
                    cost_s: self.jobs[idx].spec.expand_cost_s,
                    cost_cause: lyra_obs::DelayCause::LaunchOverhead,
                    controller_rescale: true,
                };
                self.resize(idx, placement, true, charge, |workers| {
                    SchedEvent::JobScaleOut {
                        job: job.0,
                        delta: *extra,
                        workers,
                        on_loan,
                        servers: placement.iter().map(|(sid, _)| sid.0).collect(),
                    }
                })?;
            }
            Action::ScaleIn { job, removal } => {
                let idx = self.job_index(*job)?;
                if self.jobs[idx].state != JobState::Running {
                    return Err(SimError(format!("{job} scaled in but not running")));
                }
                let gpw = self.jobs[idx].spec.gpus_per_worker;
                self.cluster
                    .release(*job, removal, gpw)
                    .map_err(|e| SimError(e.to_string()))?;
                for (sid, w) in removal {
                    self.rm.submit(RmOp::KillContainers {
                        job: *job,
                        server: *sid,
                        workers: *w,
                    });
                }
                // A policy scale-in means the knapsack withdrew flexible
                // workers this round.
                let charge = ResizeCharge {
                    pause_cause: lyra_obs::DelayCause::MckpDenial,
                    cost_s: self.jobs[idx].spec.shrink_cost_s,
                    cost_cause: lyra_obs::DelayCause::LoanScaleIn,
                    controller_rescale: true,
                };
                self.resize(idx, removal, false, charge, |workers| {
                    SchedEvent::JobScaleIn {
                        job: job.0,
                        delta: removal.iter().map(|(_, w)| w).sum(),
                        workers,
                    }
                })?;
            }
        }
        Ok(())
    }

    /// The one membership change of running job `idx`: `change` (workers
    /// per server, all of them flexible) joins it when `grow` and leaves
    /// it otherwise. The caller has already updated the cluster and the
    /// RM; `charge` and `event` carry what differs between callers.
    ///
    /// Progress stalls for one rendezvous pause (§6's controller: one
    /// collective barrier per change, however many workers move; free
    /// when an elastic job's worker count does not change) and then for
    /// `charge.cost_s`. The observer then sees, in order, `event` (given
    /// the worker count after the change), the `ControllerRescale` when
    /// `charge` asks for one, both pauses as `JobStall`s and the job's
    /// new straggler factor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when a shrink removes workers the job does
    /// not have on a server, or more than its flexible workers.
    fn resize(
        &mut self,
        idx: usize,
        change: &[(ServerId, u32)],
        grow: bool,
        charge: ResizeCharge,
        event: impl FnOnce(u32) -> SchedEvent,
    ) -> Result<(), SimError> {
        let now = self.now_s;
        let headroom_before = Self::headroom_gpus(&self.jobs[idx]);
        let elastic_before = Self::elastic_workers_of(&self.jobs[idx]);
        let delta: u32 = change.iter().map(|(_, w)| w).sum();
        let j = &mut self.jobs[idx];
        j.sync(now);
        if grow {
            Self::merge_assignment(&mut j.placement, change);
            Self::merge_assignment(&mut j.flex_placement, change);
            j.workers += delta;
            j.flexible_workers += delta;
        } else {
            if delta > j.flexible_workers {
                return Err(SimError(format!(
                    "{} scale-in removes {delta} > {} flexible",
                    j.spec.id, j.flexible_workers
                )));
            }
            Self::remove_assignment(&mut j.placement, change)?;
            Self::remove_assignment(&mut j.flex_placement, change)?;
            j.workers -= delta;
            j.flexible_workers -= delta;
        }
        j.record.scaling_ops += 1;
        let elastic = j.spec.is_elastic();
        let pause = if elastic && delta == 0 {
            0.0
        } else {
            self.config.rendezvous_pause_s
        };
        {
            let _timing =
                (elastic && delta > 0).then(|| lyra_obs::span::span("elastic.rendezvous"));
            j.stall(now, pause);
        }
        if charge.cost_s > 0.0 {
            j.stall(now, charge.cost_s);
        }
        self.mark_servers_dirty(change);
        self.mark_running_dirty(idx);
        self.scaling_ops += 1;
        self.elastic_headroom_gpus =
            self.elastic_headroom_gpus - headroom_before + Self::headroom_gpus(&self.jobs[idx]);
        self.elastic_workers =
            self.elastic_workers - elastic_before + Self::elastic_workers_of(&self.jobs[idx]);
        self.jobs[idx].rate = self.compute_rate(&self.jobs[idx]);
        self.reschedule_finish(idx);
        if self.observer.is_none() {
            return Ok(());
        }
        let job = self.jobs[idx].spec.id.0;
        let workers = self.jobs[idx].workers;
        self.emit(event(workers));
        if charge.controller_rescale && elastic && pause > 0.0 {
            self.emit(SchedEvent::ControllerRescale {
                job,
                workers,
                pause_s: pause,
            });
        }
        self.emit_stall(job, charge.pause_cause, pause);
        self.emit_stall(job, charge.cost_cause, charge.cost_s);
        if !self.slowdown.is_empty() {
            self.note_straggle(idx);
        }
        Ok(())
    }

    /// Applies a forced scale-in from the orchestrator's flexible-group
    /// release: workers of `job` on `server` are gone (cluster side
    /// already updated).
    fn apply_flex_release(&mut self, job: JobId, server: ServerId, gpus: u32) -> Result<(), SimError> {
        let idx = self.job_index(job)?;
        let j = &self.jobs[idx];
        if j.state != JobState::Running {
            return Ok(());
        }
        let mut workers = gpus / j.spec.gpus_per_worker.max(1);
        // A flexible-group server hosts only flexible workers of this job;
        // clamp defensively so inconsistent labels can never underflow the
        // bookkeeping.
        let have = j
            .flex_placement
            .iter()
            .find(|(s, _)| *s == server)
            .map_or(0, |(_, w)| *w);
        debug_assert!(workers <= have, "{job} flex release exceeds flex workers");
        workers = workers.min(have);
        if workers == 0 {
            return Ok(());
        }
        // A forced flex release is still a shrink; malleable jobs pay
        // their explicit shrink cost here too.
        let charge = ResizeCharge {
            pause_cause: lyra_obs::DelayCause::LoanScaleIn,
            cost_s: j.spec.shrink_cost_s,
            cost_cause: lyra_obs::DelayCause::LoanScaleIn,
            controller_rescale: true,
        };
        self.resize(idx, &[(server, workers)], false, charge, |_| {
            SchedEvent::FlexRelease {
                job: job.0,
                server: server.0,
                workers,
            }
        })
    }

    /// Takes job `idx` out of the running set (its progress already
    /// synced): drops it from the running index and the elastic headroom,
    /// marks its servers and view dirty, clears its placement and stops
    /// its progress. The generation bump cancels its in-flight finish.
    fn leave_running(&mut self, idx: usize) {
        if self.running_jobs.remove(&idx) {
            self.elastic_headroom_gpus -= Self::headroom_gpus(&self.jobs[idx]);
            self.elastic_workers -= Self::elastic_workers_of(&self.jobs[idx]);
        }
        for (sid, _) in &self.jobs[idx].placement {
            self.cache.dirty_servers.insert(*sid);
        }
        self.mark_running_dirty(idx);
        let j = &mut self.jobs[idx];
        j.workers = 0;
        j.flexible_workers = 0;
        j.placement.clear();
        j.flex_placement.clear();
        j.rate = 0.0;
        j.generation += 1;
    }

    /// Sends running job `idx` back to the queue (cluster side already
    /// freed). With `restore`, progress rolls back to the last completed
    /// checkpoint (CheckFreq-style periodic checkpoints) and the relaunch
    /// stall is a checkpoint restore; otherwise all progress is lost
    /// (§4's common no-checkpoint case) and the stall is charged to
    /// `lost_cause`. Either way the relaunch pays the preemption
    /// overhead. Returns the work lost.
    fn requeue(&mut self, idx: usize, restore: bool, lost_cause: lyra_obs::DelayCause) -> f64 {
        self.jobs[idx].sync(self.now_s);
        self.leave_running(idx);
        let interval_work = self.config.checkpoint_interval_work.max(1.0);
        let j = &mut self.jobs[idx];
        j.state = JobState::Pending;
        let done = j.spec.work() - j.work_left;
        if restore {
            j.work_left = j.spec.work() - lyra_elastic::preserved_work(done, interval_work);
            j.resume_cause = Some(lyra_obs::DelayCause::CheckpointRestore);
        } else {
            j.work_left = j.spec.work();
            j.resume_cause = Some(lost_cause);
        }
        j.resume_overhead_s = self.config.preemption_overhead_s;
        let lost = (done - (j.spec.work() - j.work_left)).max(0.0);
        self.enqueue(idx);
        lost
    }

    /// Preempts a running job (cluster side already evicted).
    fn apply_preemption(&mut self, job: JobId) -> Result<(), SimError> {
        let idx = self.job_index(job)?;
        if self.jobs[idx].state != JobState::Running {
            return Ok(());
        }
        // Before `requeue`: the pending view is captured at enqueue.
        self.jobs[idx].record.preemptions += 1;
        let checkpointed = self.jobs[idx].spec.checkpointing;
        self.requeue(idx, checkpointed, lyra_obs::DelayCause::ReclaimPreemption);
        let decision = self.pending_preempt_decisions.remove(&job.0);
        self.emit(SchedEvent::JobPreempt {
            job: job.0,
            checkpointed,
            decision,
        });
        Ok(())
    }

    /// Fires the `i`-th event of the attached fault plan.
    fn handle_fault(&mut self, i: usize) -> Result<(), SimError> {
        let Some(plan) = self.faults.as_ref() else {
            return Ok(());
        };
        let Some(event) = plan.events.get(i).copied() else {
            return Ok(());
        };
        let include_loaned = plan.include_loaned;
        self.fault_stats.injected += 1;
        self.emit(SchedEvent::Fault {
            kind: "injected".to_string(),
            target: i as u64,
        });
        match event.kind {
            FaultKind::ServerCrash {
                selector,
                recovery_s,
            } => {
                let eligible: Vec<ServerId> = self
                    .cluster
                    .server_views()
                    .iter()
                    .filter(|v| include_loaned || v.pool == PoolKind::Training)
                    .map(|v| v.id)
                    .collect();
                if eligible.is_empty() {
                    return Ok(());
                }
                let sid = eligible[(selector as usize) % eligible.len()];
                let victims = self
                    .cluster
                    .crash_server(sid)
                    .map_err(|e| SimError(e.to_string()))?;
                self.mark_structural();
                self.rm.submit(RmOp::MarkServerDown(sid));
                self.slowdown.remove(&sid);
                self.fault_stats.server_crashes += 1;
                self.emit(SchedEvent::Fault {
                    kind: "server_crash".to_string(),
                    target: u64::from(sid.0),
                });
                for (job, gpus) in victims {
                    self.handle_job_worker_loss(job, sid, gpus)?;
                }
                self.push_event(
                    self.now_s + recovery_s.max(1.0),
                    EventKind::ServerRecover(sid),
                );
            }
            FaultKind::WorkerFailure { selector } => {
                let busy: Vec<ServerId> = self
                    .cluster
                    .server_views()
                    .iter()
                    .filter(|v| v.used_gpus() > 0)
                    .map(|v| v.id)
                    .collect();
                if busy.is_empty() {
                    return Ok(());
                }
                let sid = busy[(selector as usize) % busy.len()];
                let jobs: Vec<(JobId, u32)> = match self.cluster.server(sid) {
                    Some(s) => s.jobs().collect(),
                    None => return Ok(()),
                };
                if jobs.is_empty() {
                    return Ok(());
                }
                // Second, independent coordinate of the same draw picks
                // the job on the server.
                let (job, _) = jobs[((selector >> 32) as usize) % jobs.len()];
                self.fault_stats.worker_failures += 1;
                self.emit(SchedEvent::Fault {
                    kind: "worker_failure".to_string(),
                    target: job.0,
                });
                let idx = self.job_index(job)?;
                let gpw = self.jobs[idx].spec.gpus_per_worker.max(1);
                let flex_there = self.jobs[idx]
                    .flex_placement
                    .iter()
                    .find(|(s, _)| *s == sid)
                    .map_or(0, |(_, w)| *w);
                if self.jobs[idx].spec.is_elastic() && flex_there > 0 {
                    // The dead container hosted a flexible worker: the
                    // collective re-forms one member short.
                    self.cluster
                        .release(job, &[(sid, 1)], gpw)
                        .map_err(|e| SimError(e.to_string()))?;
                    self.rm.submit(RmOp::KillContainers {
                        job,
                        server: sid,
                        workers: 1,
                    });
                    self.apply_worker_loss(idx, sid, 1)?;
                } else {
                    self.kill_job_for_fault(idx, None)?;
                }
            }
            FaultKind::Straggler {
                selector,
                factor,
                duration_s,
            } => {
                let eligible: Vec<ServerId> = self
                    .cluster
                    .server_views()
                    .iter()
                    .filter(|v| include_loaned || v.pool == PoolKind::Training)
                    .map(|v| v.id)
                    .collect();
                if eligible.is_empty() {
                    return Ok(());
                }
                let sid = eligible[(selector as usize) % eligible.len()];
                self.slowdown.insert(sid, factor.clamp(0.01, 1.0));
                self.fault_stats.stragglers += 1;
                self.emit(SchedEvent::Fault {
                    kind: "straggler".to_string(),
                    target: u64::from(sid.0),
                });
                self.push_event(
                    self.now_s + duration_s.max(1.0),
                    EventKind::StragglerEnd(sid),
                );
                self.recompute_rates_on(sid);
            }
            FaultKind::DropOrchestratorTick => {
                self.drop_next_orch_tick = true;
                self.fault_stats.dropped_ticks += 1;
                self.emit(SchedEvent::Fault {
                    kind: "dropped_tick".to_string(),
                    target: 0,
                });
            }
        }
        Ok(())
    }

    /// A running job lost the workers it had on `server` (`gpus` GPUs
    /// there, cluster side already freed). Elastic jobs whose lost
    /// workers were all flexible absorb the loss by scaling in around
    /// the dead server; anything else dies and restarts.
    fn handle_job_worker_loss(
        &mut self,
        job: JobId,
        server: ServerId,
        gpus: u32,
    ) -> Result<(), SimError> {
        let idx = self.job_index(job)?;
        if self.jobs[idx].state != JobState::Running {
            return Ok(());
        }
        let total_there = self.jobs[idx]
            .placement
            .iter()
            .find(|(s, _)| *s == server)
            .map_or(0, |(_, w)| *w);
        let flex_there = self.jobs[idx]
            .flex_placement
            .iter()
            .find(|(s, _)| *s == server)
            .map_or(0, |(_, w)| *w);
        let gpw = self.jobs[idx].spec.gpus_per_worker.max(1);
        debug_assert_eq!(total_there * gpw, gpus, "{job} placement out of sync");
        if self.jobs[idx].spec.is_elastic() && total_there > 0 && total_there == flex_there {
            // Only flexible workers lived there: membership shrinks, the
            // base demand survives, no restart needed.
            self.apply_worker_loss(idx, server, total_there)?;
        } else {
            self.kill_job_for_fault(idx, Some(server))?;
        }
        Ok(())
    }

    /// Shrinks an elastic job in place after an involuntary worker loss
    /// (sim-side bookkeeping; the cluster already freed the GPUs).
    fn apply_worker_loss(
        &mut self,
        idx: usize,
        server: ServerId,
        workers: u32,
    ) -> Result<(), SimError> {
        // The collective re-forms as for a voluntary resize, but the loss
        // is no controller-coordinated rescale.
        let charge = ResizeCharge {
            pause_cause: lyra_obs::DelayCause::FaultRestart,
            cost_s: 0.0,
            cost_cause: lyra_obs::DelayCause::FaultRestart,
            controller_rescale: false,
        };
        let job = self.jobs[idx].spec.id.0;
        self.resize(idx, &[(server, workers)], false, charge, |_| {
            SchedEvent::Fault {
                kind: "elastic_absorbed".to_string(),
                target: job,
            }
        })?;
        self.fault_stats.elastic_absorbed += 1;
        Ok(())
    }

    /// Kills a running job because of a fault: surviving containers are
    /// stopped, progress rolls back to the last checkpoint (when the
    /// restore succeeds) or to zero, and the job re-queues paying the
    /// preemption overhead. `crashed` is the server whose allocation the
    /// cluster already dropped.
    fn kill_job_for_fault(&mut self, idx: usize, crashed: Option<ServerId>) -> Result<(), SimError> {
        let job = self.jobs[idx].spec.id;
        for &(sid, w) in &self.jobs[idx].placement {
            if Some(sid) == crashed {
                continue;
            }
            self.rm.submit(RmOp::KillContainers {
                job,
                server: sid,
                workers: w,
            });
        }
        self.cluster.evict_job(job);
        let restore_prob = self
            .faults
            .as_ref()
            .map_or(0.0, |p| p.checkpoint_restore_failure_prob);
        let checkpointed = self.jobs[idx].spec.checkpointing;
        let restore_failed = checkpointed && self.fault_rng.gen_bool(restore_prob.clamp(0.0, 1.0));
        self.jobs[idx].record.fault_restarts += 1;
        let lost = self.requeue(
            idx,
            checkpointed && !restore_failed,
            lyra_obs::DelayCause::FaultRestart,
        );
        if restore_failed {
            self.fault_stats.checkpoint_restore_failures += 1;
        } else if checkpointed {
            self.fault_stats.checkpoint_restores += 1;
        }
        self.fault_stats.work_lost_s += lost;
        self.fault_stats.jobs_killed += 1;
        self.fault_stats.restarts += 1;
        let restore = match (checkpointed, restore_failed) {
            (false, _) => None,
            (true, false) => Some("checkpoint_restore"),
            (true, true) => Some("checkpoint_restore_failure"),
        };
        for kind in restore.into_iter().chain(["job_killed", "restart"]) {
            self.emit(SchedEvent::Fault {
                kind: kind.to_string(),
                target: job.0,
            });
        }
        Ok(())
    }

    /// Re-derives service rates of every running job with workers on
    /// `sid` (straggler start/end changes their throughput).
    fn recompute_rates_on(&mut self, sid: ServerId) {
        let idxs: Vec<usize> = self
            .running_jobs
            .iter()
            .copied()
            .filter(|&i| self.jobs[i].placement.iter().any(|(s, _)| *s == sid))
            .collect();
        for idx in idxs {
            self.jobs[idx].sync(self.now_s);
            self.jobs[idx].rate = self.compute_rate(&self.jobs[idx]);
            self.reschedule_finish(idx);
            // Announce the new effective factor so attribution can open
            // or close this job's straggler episode.
            self.note_straggle(idx);
        }
    }

    /// Books the unmet remainder of a reclaim demand: new debts get a
    /// deadline and a retry backoff, retried debts shrink to the
    /// remainder with doubled backoff, and a met demand clears the debt
    /// it folded in.
    fn note_reclaim_shortfall(&mut self, unmet: u32, retried_carry: bool) {
        let transition = self.reclaim_ledger.note_shortfall(
            self.now_s,
            unmet,
            retried_carry,
            self.config.reclaim_retry_backoff_s,
            self.config.reclaim_deadline_s,
        );
        if transition == CarryTransition::Opened {
            let deadline_s = self
                .reclaim_ledger
                .carry()
                .map_or(self.now_s, |c| c.deadline_s);
            self.fault_stats.reclaim_carryovers += 1;
            self.emit(SchedEvent::ReclaimCarryover {
                servers: unmet,
                deadline_s,
            });
        }
    }

    /// Runs one scheduling epoch; returns the number of launches.
    fn handle_scheduler_tick(&mut self) -> Result<usize, SimError> {
        let _timing = lyra_obs::span::span("sim.scheduler_tick");
        // Snapshot validation runs at the invariant-auditor cadence
        // (start of run, after orchestrator ticks and faults), not every
        // epoch: between auditor events only the dirty-tracked paths
        // touch the snapshot, and those are covered by the equivalence
        // assertion below under `cfg(test)`.
        let validate_due = self.validate_snapshot;
        self.validate_snapshot = false;
        self.refresh_snapshot();
        #[cfg(test)]
        assert_eq!(
            self.cache.snap,
            self.build_snapshot(),
            "incremental snapshot diverged from a from-scratch rebuild at t={}",
            self.now_s
        );
        if cfg!(debug_assertions) && validate_due {
            let v = self.cache.snap.validate();
            assert!(v.is_ok(), "inconsistent snapshot: {v:?}");
        }
        let actions = self.policy.schedule(&self.cache.snap);
        // Phase-1 / MCKP / placement decisions were just recorded by the
        // policy; surface them before the actions they explain.
        self.drain_audit();
        let launches = actions
            .iter()
            .filter(|a| matches!(a, Action::Launch { .. }))
            .count();
        for action in &actions {
            self.apply_action(action)?;
        }
        // Idle loaned servers beyond demand go back promptly (the
        // whitelist move is cheap; the five-minute orchestrator cadence
        // is only needed for decisions involving the inference side).
        self.return_surplus_idle_loans()?;
        self.observe_epoch(launches as u32);
        Ok(launches)
    }

    /// Hands the epoch's scheduler-health gauges to the observer, after
    /// all of the epoch's bookkeeping (no-op without an observer). Every
    /// gauge is simulated or modelled, never wall-clock, and each is an
    /// O(1) read of a counter kept by the state transitions.
    fn observe_epoch(&mut self, launches: u32) {
        if self.observer.is_none() {
            return;
        }
        let _timing = lyra_obs::span::span("sim.telemetry_sample");
        let t_ms = self.now_ms();
        let (train_used, train_total) = self.cluster.gpu_usage(PoolKind::Training);
        let (loan_used, loan_total) = self.cluster.gpu_usage(PoolKind::OnLoan);
        let ratio = |used: u32, total: u32| {
            if total == 0 {
                0.0
            } else {
                f64::from(used) / f64::from(total)
            }
        };
        let carry_servers = self.reclaim_ledger.carry().map_or(0, |c| c.servers);
        let flex_used = self.cluster.flexible_gpu_usage();
        let loaned = self.cluster.loaned_count();
        let gauges = [
            ("util.dedicated", ratio(train_used, train_total)),
            ("util.loaned", ratio(loan_used, loan_total)),
            ("util.flexible", ratio(flex_used, loan_total)),
            ("queue.depth", self.queue.len() as f64),
            ("queue.gpus", self.pending_gpus as f64),
            ("jobs.running", self.running_jobs.len() as f64),
            ("elastic.workers", f64::from(self.elastic_workers)),
            ("cluster.loaned_servers", f64::from(loaned)),
            ("reclaim.carry_servers", f64::from(carry_servers)),
            ("frag.index", self.cluster.fragmentation_index()),
        ];
        let shape = (
            launches,
            self.queue.len() as u32,
            self.running_jobs.len() as u32,
        );
        let rm_latency_s = self.rm.total_latency_s();
        if let Some(obs) = self.observer.as_mut() {
            obs.epoch(t_ms, shape, &gauges, carry_servers, rm_latency_s);
        }
    }

    /// Servers worth borrowing right now: whole servers of *unmet*
    /// loan-eligible demand — queued fungible work beyond what the free
    /// training capacity will absorb anyway, plus elastic scale-out room.
    ///
    /// Runs every scheduler epoch while loans are live, so both terms
    /// come from counters maintained at the state transitions
    /// (enqueue/dequeue for the queue sums, worker-count changes for the
    /// elastic headroom) — no per-epoch walk over jobs at all.
    fn loan_demand_servers(&self) -> u32 {
        #[cfg(debug_assertions)]
        self.debug_check_demand_counters();
        let gpus_per_server = self.cluster.config.gpus_per_server.max(1);
        let free_training = u64::from(self.cluster.gpu_usage(PoolKind::Training).1)
            - u64::from(self.cluster.gpu_usage(PoolKind::Training).0);
        // Training absorbs what it can; only the remainder justifies a
        // loan, capped by what is actually fungible.
        let unmet = self.pending_gpus.saturating_sub(free_training);
        let demand_gpus = unmet.min(self.pending_fungible_gpus) + self.elastic_headroom_gpus;
        let servers = demand_gpus.div_ceil(u64::from(gpus_per_server)) as u32;
        if servers > 0 {
            servers + 1
        } else {
            0
        }
    }

    /// The derived indexes recomputed from scratch out of the queue and
    /// the job states: `(pending_gpus, pending_fungible_gpus,
    /// running_jobs, elastic_headroom_gpus, elastic_workers)`.
    #[cfg(debug_assertions)]
    fn recount(&self) -> (u64, u64, std::collections::BTreeSet<usize>, u64, u32) {
        let mut all: u64 = 0;
        let mut fungible: u64 = 0;
        for &i in &self.queue {
            all += u64::from(self.jobs[i].spec.base_gpus());
            fungible += fungible_demand_gpus(&self.jobs[i].spec);
        }
        let running: std::collections::BTreeSet<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.state == JobState::Running)
            .map(|(i, _)| i)
            .collect();
        let headroom = running.iter().map(|&i| Self::headroom_gpus(&self.jobs[i])).sum();
        let elastic = running
            .iter()
            .map(|&i| Self::elastic_workers_of(&self.jobs[i]))
            .sum();
        (all, fungible, running, headroom, elastic)
    }

    /// Debug-build cross-check: the loan-demand counters, the running-job
    /// index and the elastic-worker gauge must equal a from-scratch
    /// [`recount`](Self::recount).
    #[cfg(debug_assertions)]
    fn debug_check_demand_counters(&self) {
        let (all, fungible, running, headroom, elastic) = self.recount();
        assert_eq!(
            (all, fungible),
            (self.pending_gpus, self.pending_fungible_gpus),
            "pending loan-demand counters drifted from the queue"
        );
        assert_eq!(
            running, self.running_jobs,
            "running-job index drifted from job states"
        );
        assert_eq!(
            headroom, self.elastic_headroom_gpus,
            "elastic-headroom counter drifted from the running set"
        );
        assert_eq!(
            elastic, self.elastic_workers,
            "elastic-worker counter drifted from the running set"
        );
    }

    fn handle_orchestrator_tick(&mut self) -> Result<(), SimError> {
        let _timing = lyra_obs::span::span("sim.orchestrator_tick");
        let Some(inference) = &self.inference else {
            return Ok(());
        };
        let instruction = inference.instruction_at(self.now_s, self.cluster.loaned_count());
        if self.orchestrator.is_none() {
            return Ok(());
        }
        // A carried reclaim debt that outlived its deadline is a
        // violation: record it and stop retrying.
        if let Some(owed) = self.reclaim_ledger.take_expired(self.now_s) {
            self.fault_stats.reclaim_deadline_violations += 1;
            self.emit(SchedEvent::ReclaimDeadlineMiss { servers: owed });
        }
        match instruction {
            LoanInstruction::Loan(offered) => {
                let wanted = self.loan_demand_servers();
                let take = offered.min(wanted.saturating_sub(self.cluster.loaned_count()));
                // Inference is offering servers again: any pending reclaim
                // debt has been resolved on its side.
                self.reclaim_ledger.clear();
                if take > 0 {
                    let Some(orchestrator) = self.orchestrator.as_mut() else {
                        return Ok(());
                    };
                    let d = orchestrator
                        .execute_loan(&mut self.cluster, take)
                        .map_err(|e| SimError(e.to_string()))?;
                    if let OrchestratorDecision::Loaned(ids) = d {
                        for sid in &ids {
                            self.rm.submit(RmOp::AddToWhitelist(*sid));
                        }
                        if !ids.is_empty() {
                            self.mark_structural();
                            self.loan_ops += 1;
                            let servers = ids.iter().map(|s| s.0).collect();
                            self.emit(SchedEvent::LoanGrant { servers });
                        }
                    }
                }
            }
            LoanInstruction::Reclaim(n) => {
                // Fold a carried-forward debt into the demand once its
                // retry backoff has elapsed.
                let (demand, retried_carry) = self.reclaim_ledger.fold_into(self.now_s, n);
                // The loan-demand decision: causal parent of every
                // victim ranking in the wave it triggers.
                if demand > 0 {
                    self.emit(SchedEvent::ReclaimDemand { servers: demand });
                }
                let Some(orchestrator) = self.orchestrator.as_mut() else {
                    return Ok(());
                };
                let d = orchestrator
                    .execute_reclaim(&mut self.cluster, demand)
                    .map_err(|e| SimError(e.to_string()))?;
                // A reclaim may return servers, evict jobs and relabel
                // groups in one stroke: rebuild rather than track.
                self.mark_structural();
                // Surface the reclaim cost-search audit before the
                // follow-on scale-ins and preemptions, capturing each
                // victim ranking's decision id for the preemptions.
                self.drain_audit();
                let returned = d.servers_returned() as u32;
                self.note_reclaim_shortfall(demand.saturating_sub(returned), retried_carry);
                if let OrchestratorDecision::Reclaimed {
                    flex_releases,
                    returned_flex,
                    returned_idle,
                    outcome,
                } = d
                {
                    for (job, server, gpus) in &flex_releases {
                        let idx = self.job_index(*job)?;
                        let workers = gpus / self.jobs[idx].spec.gpus_per_worker.max(1);
                        self.rm.submit(RmOp::KillContainers {
                            job: *job,
                            server: *server,
                            workers,
                        });
                        self.apply_flex_release(*job, *server, *gpus)?;
                    }
                    for job in &outcome.preempted {
                        self.apply_preemption(*job)?;
                    }
                    for sid in returned_flex
                        .iter()
                        .chain(returned_idle.iter())
                        .chain(outcome.returned.iter())
                    {
                        self.rm.submit(RmOp::RemoveFromWhitelist(*sid));
                    }
                    self.reclaims.push(ReclaimRecord {
                        time_s: self.now_s,
                        demanded: demand,
                        returned_flex: returned_flex.len() as u32,
                        returned_idle: returned_idle.len() as u32,
                        returned_preempt: outcome.returned.len() as u32,
                        preempted: outcome.preempted.len() as u32,
                        collateral_gpus: outcome.collateral_gpus,
                    });
                    let preempted = outcome.preempted.iter().map(|j| j.0).collect();
                    self.emit(SchedEvent::ReclaimGrant {
                        demanded: demand,
                        returned_flex: returned_flex.len() as u32,
                        returned_idle: returned_idle.len() as u32,
                        returned_preempt: outcome.returned.len() as u32,
                        preempted,
                        collateral_gpus: outcome.collateral_gpus,
                    });
                }
                // Any victims named by audits but not ultimately
                // preempted must not leak into later waves.
                self.pending_preempt_decisions.clear();
            }
            LoanInstruction::Hold => {
                // No outstanding reclaim pressure from the inference side:
                // a pending debt is moot.
                self.reclaim_ledger.clear();
            }
        }
        self.return_surplus_idle_loans()?;
        Ok(())
    }

    /// Voluntarily returns surplus *idle* loaned servers: keeping them
    /// would depress the on-loan usage the paper keeps above 92 %
    /// (Figure 9) and would inflate reclaim waves for no benefit.
    fn return_surplus_idle_loans(&mut self) -> Result<(), SimError> {
        if self.orchestrator.is_none() {
            return Ok(());
        }
        // Only *idle* loaned servers can be returned; the cluster keeps
        // them indexed, so under load (every loaner busy) this exits in
        // O(1) and the O(queue + jobs) demand walk below never runs on
        // the scheduler-epoch hot path.
        let idle: Vec<_> = self.cluster.idle_loaned_ids().collect();
        if idle.is_empty() {
            return Ok(());
        }
        let loaned = self.cluster.loaned_count();
        let wanted = self.loan_demand_servers();
        if loaned > wanted {
            let surplus = (loaned - wanted) as usize;
            let to_return: Vec<_> = idle.into_iter().take(surplus).collect();
            if !to_return.is_empty() {
                self.cluster
                    .return_servers(&to_return)
                    .map_err(|e| SimError(e.to_string()))?;
                self.mark_structural();
            }
        }
        Ok(())
    }

    fn handle_finish(&mut self, idx: usize, generation: u64) {
        if self.jobs[idx].generation != generation || self.jobs[idx].state != JobState::Running {
            return;
        }
        self.jobs[idx].sync(self.now_s);
        debug_assert!(
            self.jobs[idx].work_left < 1e-6 * self.jobs[idx].spec.work().max(1.0) + 1e-6,
            "finish event with {} work left",
            self.jobs[idx].work_left
        );
        self.cluster.evict_job(self.jobs[idx].spec.id);
        self.leave_running(idx);
        let j = &mut self.jobs[idx];
        j.state = JobState::Done;
        j.work_left = 0.0;
        j.record.complete_s = Some(self.now_s);
        self.completed += 1;
        let time_ms = self.now_ms();
        if let Some(obs) = self.observer.as_mut() {
            let record = self.jobs[idx].record;
            let job = self.jobs[idx].spec.id.0;
            let jct_s = record
                .jct_s()
                .unwrap_or_else(|| self.now_s - self.jobs[idx].spec.submit_time_s);
            obs.observe(time_ms, SchedEvent::JobComplete { job, jct_s });
            if let Some(deadline_s) = record.deadline_s.filter(|d| self.now_s > *d) {
                let late_s = self.now_s - deadline_s;
                obs.observe(
                    time_ms,
                    SchedEvent::DeadlineMiss {
                        job,
                        deadline_s,
                        late_s,
                    },
                );
            }
        }
    }

    /// Runs the simulation to completion and produces the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on internal inconsistencies (a policy emitting
    /// infeasible actions), which indicate bugs rather than workload
    /// conditions.
    pub fn run(mut self, name: &str) -> Result<SimReport, SimError> {
        if self.observer.is_some() {
            lyra_obs::span::set_enabled(true);
            lyra_obs::audit::set_enabled(true);
        }
        let n_jobs = self.jobs.len();
        let last_submit = self
            .jobs
            .iter()
            .map(|j| j.spec.submit_time_s)
            .fold(0.0, f64::max);
        let horizon = last_submit + self.config.drain_horizon_s;
        while let Some(Reverse(event)) = self.events.pop() {
            let t = event.time_ms as f64 / 1000.0;
            if t > horizon {
                break;
            }
            self.advance_usage(t);
            self.now_s = t;
            match event.kind {
                EventKind::Arrival(idx) => {
                    self.arrived += 1;
                    self.enqueue(idx);
                    let job = self.jobs[idx].spec.id.0;
                    self.emit(SchedEvent::JobAdmit { job });
                }
                EventKind::Finish(idx, generation) => {
                    self.handle_finish(idx, generation);
                }
                EventKind::SchedulerTick => {
                    let launched = self.handle_scheduler_tick()?;
                    // Stuck detection: every job has arrived, nothing is
                    // running and the scheduler keeps starting nothing.
                    // Legitimate waits exist (e.g. opportunistic jobs
                    // waiting out an inference-traffic peak), so only a
                    // *prolonged* total stall — two simulated days —
                    // declares the remaining jobs unschedulable.
                    let stalled = launched == 0
                        && self.running_jobs.is_empty()
                        && self.arrived == n_jobs
                        && !self.queue.is_empty();
                    if stalled {
                        let since = *self.stuck_since_s.get_or_insert(self.now_s);
                        if self.now_s - since > 2.0 * 86_400.0 {
                            break;
                        }
                    } else {
                        self.stuck_since_s = None;
                    }
                    if self.completed < n_jobs {
                        self.push_event(
                            self.now_s + self.config.scheduler_interval_s,
                            EventKind::SchedulerTick,
                        );
                    }
                }
                EventKind::OrchestratorTick => {
                    if self.drop_next_orch_tick {
                        // Control-plane fault: this tick's loan/reclaim
                        // instruction is lost; the cadence itself survives.
                        self.drop_next_orch_tick = false;
                    } else {
                        self.handle_orchestrator_tick()?;
                        self.audit_cluster();
                        self.validate_snapshot = true;
                    }
                    if self.completed < n_jobs {
                        self.push_event(
                            self.now_s + self.config.orchestrator_interval_s,
                            EventKind::OrchestratorTick,
                        );
                    }
                }
                EventKind::Fault(i) => {
                    self.handle_fault(i)?;
                    self.audit_cluster();
                    self.validate_snapshot = true;
                }
                EventKind::ServerRecover(sid) => {
                    if self.cluster.recover_server(sid).is_ok() {
                        self.mark_structural();
                        self.rm.submit(RmOp::MarkServerUp(sid));
                    }
                }
                EventKind::StragglerEnd(sid) => {
                    self.slowdown.remove(&sid);
                    self.recompute_rates_on(sid);
                }
            }
            if self.completed >= n_jobs {
                // Drain: no more work will be created.
                break;
            }
        }
        // Final consistency check: a clean run ends with zero violations.
        self.audit_cluster();
        self.finish_observation()?;
        Ok(self.report(name))
    }

    /// Audits the cluster state unless it is unchanged since the last
    /// passing audit, counting a violation on every failing call.
    fn audit_cluster(&mut self) {
        if self
            .cluster
            .audit_if_changed(&mut self.audited_generation)
            .is_err()
        {
            self.fault_stats.audit_violations += 1;
        }
    }

    /// Closes out an observed run: drains pending audit records, settles
    /// and reconciles the delay attribution, flushes the sink and
    /// collects the span profile, then disables the thread-local
    /// collectors so unobserved runs on this thread stay clean.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when any job's attributed intervals fail to
    /// partition its lifetime exactly (see
    /// [`lyra_obs::JobAttribution::reconcile`]) — an engine bug, checked
    /// in release builds too — or when the event-log sink failed a
    /// write, naming the sink.
    fn finish_observation(&mut self) -> Result<(), SimError> {
        if self.observer.is_none() {
            return Ok(());
        }
        self.drain_audit();
        let end_ms = self.now_ms();
        let summary = self.observer.as_mut().map(|o| o.finish(end_ms));
        self.profile = lyra_obs::span::take_profile();
        lyra_obs::span::set_enabled(false);
        lyra_obs::audit::set_enabled(false);
        if let Some(summary) = summary {
            self.attribution = summary.map_err(SimError)?;
        }
        Ok(())
    }

    /// Utilisation of an integral truncated to the usage horizon.
    fn horizon_utilization(&self, integral: &UsageIntegral) -> f64 {
        if self.config.usage_horizon_s <= 0.0 {
            return integral.utilization();
        }
        let hours = (self.config.usage_horizon_s / 3600.0).ceil() as usize;
        let (busy, cap) = integral
            .hourly
            .iter()
            .take(hours)
            .fold((0.0, 0.0), |(b, c), (hb, hc)| (b + hb, c + hc));
        if cap > 0.0 {
            busy / cap
        } else {
            0.0
        }
    }

    /// Assembles the run's report. The observer's products (events and
    /// telemetry), the span profile and the
    /// attribution summary are moved out rather than copied: the report
    /// is the run's last step.
    fn report(&mut self, name: &str) -> SimReport {
        let mut records: Vec<JobRecord> = self.jobs.iter().map(|j| j.record).collect();
        // Jobs still queued at the end accrued queue time that was never
        // folded in (it is normally added at launch).
        for (r, j) in records.iter_mut().zip(&self.jobs) {
            if j.state == JobState::Pending {
                r.queue_s += (self.now_s - j.enqueued_at_s).max(0.0);
            }
        }
        let queuing: Vec<f64> = records.iter().map(|r| r.queue_s).collect();
        let jct: Vec<f64> = records.iter().filter_map(|r| r.jct_s()).collect();
        let on_loan: Vec<&JobRecord> = records.iter().filter(|r| r.ran_on_loan).collect();
        let on_loan_queuing: Vec<f64> = on_loan.iter().map(|r| r.queue_s).collect();
        let on_loan_jct: Vec<f64> = on_loan.iter().filter_map(|r| r.jct_s()).collect();
        let preemptions: u32 = records.iter().map(|r| r.preemptions).sum();
        let gpus_per_server = f64::from(self.cluster.config.gpus_per_server);
        let collateral: Vec<f64> = self
            .reclaims
            .iter()
            .filter(|r| r.demanded > 0)
            .map(|r| f64::from(r.collateral_gpus) / (f64::from(r.demanded) * gpus_per_server))
            .collect();
        let flex_frac: Vec<f64> = self
            .reclaims
            .iter()
            .filter(|r| r.demanded > 0)
            .map(|r| f64::from(r.returned_flex) / f64::from(r.demanded))
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let (events, telemetry) = self
            .observer
            .take()
            .map(Observer::into_products)
            .unwrap_or_default();
        SimReport {
            name: name.to_string(),
            queuing: percentiles(&queuing),
            jct: percentiles(&jct),
            training_usage: self.horizon_utilization(&self.training_usage),
            overall_usage: self.horizon_utilization(&self.overall_usage),
            on_loan_usage: self.horizon_utilization(&self.on_loan_usage),
            on_loan_server_usage: self.horizon_utilization(&self.on_loan_servers),
            hourly_on_loan_server_usage: self.on_loan_servers.hourly_utilization(),
            preemption_ratio: f64::from(preemptions) / records.len().max(1) as f64,
            collateral_damage: mean(&collateral),
            flex_satisfied: mean(&flex_frac),
            completed: self.completed,
            submitted: records.len(),
            loan_ops: self.loan_ops,
            reclaim_ops: self.reclaims.len(),
            scaling_ops: self.scaling_ops,
            rm_ops: self.rm.log().len(),
            control_plane_latency_s: self.rm.total_latency_s(),
            hourly_overall_usage: self.overall_usage.hourly_utilization(),
            hourly_on_loan_usage: self.on_loan_usage.hourly_utilization(),
            on_loan_queuing: percentiles(&on_loan_queuing),
            on_loan_jct: percentiles(&on_loan_jct),
            fault: self.fault_stats,
            deadlines: DeadlineStats::from_records(&records),
            records,
            events,
            profile: std::mem::take(&mut self.profile),
            attribution: std::mem::take(&mut self.attribution),
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_core::job::JobSpec;

    fn running_job(work: f64, rate: f64, now: f64) -> SimJob {
        let mut j = SimJob::new(JobSpec::inelastic(0, 0.0, 2, 1, work / 2.0));
        j.state = JobState::Running;
        j.work_left = work;
        j.rate = rate;
        j.synced_at_s = now;
        j.stall_until_s = now;
        j
    }

    #[test]
    fn progress_drains_at_rate() {
        let j = running_job(100.0, 2.0, 10.0);
        assert_eq!(j.work_left_at(10.0), 100.0);
        assert_eq!(j.work_left_at(35.0), 50.0);
        assert_eq!(j.work_left_at(60.0), 0.0);
        assert_eq!(j.work_left_at(1000.0), 0.0, "clamped at zero");
    }

    #[test]
    fn stall_delays_progress_and_finish() {
        let mut j = running_job(100.0, 2.0, 10.0);
        j.stall(10.0, 20.0); // paused until t=30
        assert_eq!(j.work_left_at(30.0), 100.0);
        assert_eq!(j.work_left_at(40.0), 80.0);
        assert_eq!(j.finish_time(10.0), Some(30.0 + 50.0));
        // Stalls accumulate.
        j.stall(10.0, 5.0);
        assert_eq!(j.stall_until_s, 35.0);
    }

    #[test]
    fn sync_is_idempotent() {
        let mut j = running_job(100.0, 4.0, 0.0);
        j.sync(5.0);
        assert_eq!(j.work_left, 80.0);
        j.sync(5.0);
        assert_eq!(j.work_left, 80.0);
        j.sync(10.0);
        assert_eq!(j.work_left, 60.0);
    }

    #[test]
    fn pending_jobs_make_no_progress() {
        let mut j = running_job(100.0, 2.0, 0.0);
        j.state = JobState::Pending;
        assert_eq!(j.work_left_at(1e9), 100.0);
        assert_eq!(j.finish_time(0.0), None);
    }

    #[test]
    fn assignment_merge_and_remove() {
        let mut a = vec![(ServerId(1), 2u32)];
        Simulation::merge_assignment(&mut a, &[(ServerId(1), 1), (ServerId(2), 3)]);
        assert_eq!(a, vec![(ServerId(1), 3), (ServerId(2), 3)]);
        Simulation::remove_assignment(&mut a, &[(ServerId(2), 3)]).unwrap();
        assert_eq!(a, vec![(ServerId(1), 3)]);
        assert!(Simulation::remove_assignment(&mut a, &[(ServerId(1), 5)]).is_err());
        assert!(Simulation::remove_assignment(&mut a, &[(ServerId(9), 1)]).is_err());
    }

    /// §6's controller: a resize charges one rendezvous pause per
    /// membership change however many workers move, a change of no
    /// workers is free, and an absorbed worker loss pauses the job too
    /// but logs no `ControllerRescale`.
    #[test]
    fn resize_charges_one_rendezvous_per_membership_change() {
        let cluster = ClusterState::new(lyra_cluster::state::ClusterConfig {
            training_servers: 2,
            inference_servers: 0,
            ..Default::default()
        });
        let mut sim = Simulation::new(
            SimConfig::default(),
            cluster,
            Box::new(lyra_core::policies::FifoScheduler::new()),
            None,
            None,
            RuntimeEstimator::new(Default::default()),
            vec![JobSpec::elastic(0, 0.0, 1, 4, 1, 3_600.0)],
        )
        .expect("dense ids")
        .with_observer(ObserverConfig::default())
        .expect("in-memory observer");
        let (job, pause) = (JobId(0), SimConfig::default().rendezvous_pause_s);
        let (base, flex) = (ServerId(0), ServerId(1));
        sim.enqueue(0);
        let launch = Action::Launch {
            job,
            workers: 1,
            placement: vec![(base, 1)],
        };
        sim.apply_action(&launch).expect("launches");
        let launched = sim.jobs[0].stall_until_s;

        let grow = Action::ScaleOut {
            job,
            extra: 3,
            placement: vec![(flex, 3)],
        };
        sim.apply_action(&grow).expect("scales out");
        assert_eq!(sim.jobs[0].stall_until_s, launched + pause);
        let noop = Action::ScaleIn {
            job,
            removal: vec![],
        };
        sim.apply_action(&noop).expect("empty scale-in");
        assert_eq!(sim.jobs[0].stall_until_s, launched + pause);
        sim.apply_worker_loss(0, flex, 3).expect("absorbs the loss");
        assert_eq!(sim.jobs[0].stall_until_s, launched + 2.0 * pause);
        assert_eq!(sim.jobs[0].workers, 1);

        let (events, _) = sim.observer.take().expect("observer").into_products();
        let rescales: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.event {
                SchedEvent::ControllerRescale { workers, .. } => Some(workers),
                _ => None,
            })
            .collect();
        assert_eq!(rescales, [4], "only the scale-out is a controller rescale");
    }

    #[test]
    fn event_ordering_is_time_then_seq() {
        let a = Event {
            time_ms: 10,
            seq: 5,
            kind: EventKind::SchedulerTick,
        };
        let b = Event {
            time_ms: 10,
            seq: 6,
            kind: EventKind::OrchestratorTick,
        };
        let c = Event {
            time_ms: 9,
            seq: 99,
            kind: EventKind::Arrival(0),
        };
        assert!(c < a && a < b);
    }
}
